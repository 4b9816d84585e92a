//! E16 — what the dynamic thread layer costs and buys on a skewed
//! multi-chain workload, and what a strategy pick costs against the number
//! of installed nodes.
//!
//! **Pick cost.** A graph of 6, 150 or 1 000 installed nodes in which
//! exactly four are ready (a source and its three consumers; the rest hang
//! idle behind a filter that passes nothing) is asked for its next node
//! over and over, by FIFO and by Chain: strategies pick among the ready
//! members of their candidate set, so the cost must not follow the
//! installed count (bar: flat within 2× from 6 to 1 000). Each larger
//! graph is paired with the 6-node one (see [`method`](super::method)).
//!
//! **Drivers.** One hot chain (source → `K` maps → sink) carries most of the stream
//! while several cold chains idle along beside it. The identical graph
//! runs under the two drivers the scheduler ships: the plain
//! [`SingleThreadExecutor`] (layer 2 alone — the reference), and the
//! [`WorkStealingExecutor`] (layer-1 virtual-node groups placed whole,
//! group ownership, idle-steal, targeted wakeups, stats-driven rebalance)
//! at every worker count from 1 to the machine's cores, each paired with
//! the single-thread driver (see [`method`](super::method)). The 1-worker
//! point prices the ownership protocol itself; the others show what the
//! extra cores return on a graph whose work sits in one chain.

use super::method::{cores, paired, ticks, Record};
use pipes::prelude::*;
use pipes::sched::SchedView;
use std::sync::Arc;
use std::time::Instant;

/// Maps per hot chain; cold chains get a single map.
const K: usize = 6;
/// Cold chains riding along beside the hot one.
const COLD_CHAINS: usize = 3;

/// Runs the skewed graph — one hot `K`-map chain of `hot_n` elements plus
/// `COLD_CHAINS` single-map chains of `cold_n` elements each — on a fresh
/// instance under `workers` work-stealing threads, or the single-thread
/// driver for `None`, and returns Melem/s over the whole stream.
fn run_once(workers: Option<usize>, hot_n: u64, cold_n: u64) -> f64 {
    let g = Arc::new(QueryGraph::new());
    let mut bufs = Vec::new();
    let src = g.add_source("hot-src", VecSource::new(ticks(hot_n)));
    let mut cur = g.add_unary("hot-op0", Map::new(|v: i64| v + 1), &src);
    for i in 1..K {
        cur = g.add_unary(&format!("hot-op{i}"), Map::new(|v: i64| v ^ 7), &cur);
    }
    let (sink, buf) = CollectSink::new();
    g.add_sink("hot-sink", sink, &cur);
    bufs.push(buf);
    for c in 0..COLD_CHAINS {
        let src = g.add_source(&format!("cold-src{c}"), VecSource::new(ticks(cold_n)));
        let op = g.add_unary(&format!("cold-op{c}"), Map::new(|v: i64| v - 1), &src);
        let (sink, buf) = CollectSink::new();
        g.add_sink(&format!("cold-sink{c}"), sink, &op);
        bufs.push(buf);
    }
    let total = hot_n + COLD_CHAINS as u64 * cold_n;
    let start = Instant::now();
    if let Some(n) = workers {
        WorkStealingExecutor::new(n).run(&g, || Box::new(RoundRobinStrategy::new()));
    } else {
        SingleThreadExecutor::new().run(&g, &mut RoundRobinStrategy::new());
    }
    let secs = start.elapsed().as_secs_f64();
    let delivered: u64 = bufs.iter().map(|b| b.lock().len() as u64).sum();
    assert_eq!(delivered, total, "stream not fully delivered");
    assert!(g.all_finished());
    total as f64 / secs / 1e6
}

/// A graph of `installed` nodes of which exactly four are ready: a source
/// that has produced once, and its three consumers `a`, `b` and `gate` with
/// that output queued. `gate` passes nothing and heads the idle rest of the
/// graph (pairs of operator → sink that never receive anything), so the
/// table below varies what is *installed* with what is *ready* held still.
/// Returns the graph and its node ids, ascending.
fn four_ready_of(installed: usize) -> (QueryGraph, Vec<NodeId>) {
    assert!(installed >= 6 && installed.is_multiple_of(2));
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(ticks(64)));
    let gate = g.add_unary("gate", Filter::new(|_: &i64| false), &src);
    for (name, consumer) in [("a", "sink-a"), ("b", "sink-b")] {
        let op = g.add_unary(name, Map::new(|v: i64| v + 1), &src);
        let (sink, _) = CollectSink::new();
        g.add_sink(consumer, sink, &op);
    }
    for i in 0..(installed - 6) / 2 {
        let op = g.add_unary(&format!("idle-op{i}"), Map::new(|v: i64| v ^ 1), &gate);
        let (sink, _) = CollectSink::new();
        g.add_sink(&format!("idle-sink{i}"), sink, &op);
    }
    assert_eq!(g.len(), installed);
    g.step_node(src.node(), 16);
    let nodes: Vec<NodeId> = g.node_ids().collect();
    (g, nodes)
}

/// Ns per `select` (view construction included, as every driver pays it)
/// by a fresh FIFO or Chain(64) strategy on a fresh four-ready graph.
/// Nothing is stepped between picks, so every pick sees the same four
/// ready nodes. The loop runs whole chunks of 640 picks — ten of Chain's
/// refresh periods, so the refresh is amortized the way a run amortizes it
/// — for at least `min_ms`.
fn pick_ns(chain: bool, installed: usize, min_ms: u128) -> f64 {
    let (g, nodes) = four_ready_of(installed);
    let mut strategy: Box<dyn Strategy> = if chain {
        Box::new(ChainStrategy::new(64))
    } else {
        Box::new(FifoStrategy)
    };
    const CHUNK: usize = 640;
    let start = Instant::now();
    let mut picks = 0;
    while picks == 0 || start.elapsed().as_millis() < min_ms {
        for _ in 0..CHUNK {
            let picked = strategy.select(&SchedView::new(&g, &nodes));
            assert!(std::hint::black_box(picked).is_some());
        }
        picks += CHUNK;
    }
    start.elapsed().as_nanos() as f64 / picks as f64
}

/// The pick-cost half of E16: what one strategy pick costs against the
/// number of *installed* nodes, with the ready ones held at four. Each
/// larger graph is paired with the 6-node one, so the per-rep ratio is the
/// growth the bar is about. Returns the shape-check line.
fn pick_cost(quick: bool, record: &mut Record) -> String {
    let (reps, min_ms) = if quick { (5, 2) } else { (25, 20) };
    let mut growth = Vec::new();
    for (name, chain) in [("fifo", false), ("chain(64)", true)] {
        for installed in [150, 1000] {
            let p = paired(reps, |big| {
                (pick_ns(chain, if big { installed } else { 6 }, min_ms), ())
            });
            if installed == 150 {
                record.row(&format!("{name}, 6 installed"), "select", "ns", p.base);
            }
            let case = format!("{name}, {installed} installed");
            record.row(&case, "select", "ns", p.treat);
            record.row(&case, "vs 6 installed", "ratio", p.ratio);
            growth.push(p.ratio.median);
        }
    }
    format!(
        "shape check: from 6 to 1000 installed nodes (4 ready) a strategy pick \
         costs {:.2}x (fifo) and {:.2}x (chain) — bar: flat within 2x.",
        growth[1], growth[3]
    )
}

/// Runs E16 and prints the table; a full run appends its record.
pub fn e16_sched_layers(quick: bool) {
    let hot_n: u64 = if quick { 60_000 } else { 200_000 };
    let cold_n: u64 = hot_n / 10;
    let reps = if quick { 6 } else { 24 };
    let cores = cores();
    let mut record = Record::new("e16", reps);

    let pick_shape = pick_cost(quick, &mut record);

    // Warm up allocator and page cache off the clock.
    run_once(Some(cores), hot_n.min(20_000), cold_n.min(2_000));
    for workers in 1..=cores {
        let p = paired(reps, |stealing| {
            let driver = if stealing { Some(workers) } else { None };
            (run_once(driver, hot_n, cold_n), ())
        });
        if workers == 1 {
            record.row("single thread", "throughput", "Melem/s", p.base);
        }
        let case = format!("work stealing, {workers} worker(s)");
        record.row(&case, "throughput", "Melem/s", p.treat);
        record.row(&case, "vs single thread", "ratio", p.ratio);
    }

    record.print(&format!(
        "E16 — ns per strategy pick by installed nodes; scheduler layers, hot \
         {K}-op chain ({hot_n} elems) + {COLD_CHAINS} cold chains ({cold_n} \
         elems each), {cores} core(s)"
    ));
    println!("{pick_shape}");
    println!(
        "shape check: one worker prices the group-ownership protocol against \
         the plain single-thread driver; more workers can only return what \
         the cold chains hold, because the hot chain is one virtual-node \
         group and stays on one core."
    );
    record.save(quick);
}
