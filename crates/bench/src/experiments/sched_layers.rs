//! E16 — what the dynamic thread layer costs and buys on a skewed
//! multi-chain workload, and what a strategy pick costs against the number
//! of installed nodes.
//!
//! **Pick cost.** A graph of 6, 150 or 1 000 installed nodes in which
//! exactly four are ready (a source and its three consumers; the rest hang
//! idle behind a filter that passes nothing) is asked for its next node
//! over and over, by FIFO and by Chain: strategies pick among the ready
//! members of their candidate set, so the cost must not follow the
//! installed count (bar: flat within 2× from 6 to 1 000). The same loop
//! run at the parent commit, where every pick probed every installed node
//! under its locks, is carried alongside as constants.
//!
//! **Drivers.** One hot chain (source → `K` maps → sink) carries most of the stream
//! while several cold chains idle along beside it. The identical graph
//! runs under the two drivers the scheduler ships: the plain
//! [`SingleThreadExecutor`] (layer 2 alone — the reference), and the
//! [`WorkStealingExecutor`] (layer-1 virtual-node groups placed whole,
//! group ownership, idle-steal, targeted wakeups, stats-driven rebalance)
//! at every worker count from 1 to the machine's cores. The 1-worker point
//! prices the ownership protocol itself; the others show what the extra
//! cores return on a graph whose work sits in one chain.
//!
//! Methodology follows E15: every rep runs the pair back to back in
//! alternating order, the per-rep throughput ratio cancels machine drift,
//! and the median over all reps damps outliers.
//!
//! Results are written to `BENCH_sched_layers.json`. The last three-way
//! table against the static executors this experiment used to carry is
//! kept in EXPERIMENTS.md.

use crate::{f, table};
use pipes::prelude::*;
use pipes::sched::SchedView;
use std::sync::Arc;
use std::time::Instant;

/// Maps per hot chain; cold chains get a single map.
const K: usize = 6;
/// Cold chains riding along beside the hot one.
const COLD_CHAINS: usize = 3;

fn input(n: u64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| Element::at(i as i64, Timestamp::new(i)))
        .collect()
}

/// Builds the skewed graph: one hot `K`-map chain of `hot_n` elements plus
/// `COLD_CHAINS` single-map chains of `cold_n` elements each. Returns the
/// graph and the per-sink buffers (hot sink first).
fn skewed_graph(
    hot_n: u64,
    cold_n: u64,
) -> (Arc<QueryGraph>, Vec<pipes::graph::io::Collected<i64>>) {
    let g = QueryGraph::new();
    let mut bufs = Vec::new();
    let src = g.add_source("hot-src", VecSource::new(input(hot_n)));
    let mut cur = g.add_unary("hot-op0", Map::new(|v: i64| v + 1), &src);
    for i in 1..K {
        cur = g.add_unary(&format!("hot-op{i}"), Map::new(|v: i64| v ^ 7), &cur);
    }
    let (sink, buf) = CollectSink::new();
    g.add_sink("hot-sink", sink, &cur);
    bufs.push(buf);
    for c in 0..COLD_CHAINS {
        let src = g.add_source(&format!("cold-src{c}"), VecSource::new(input(cold_n)));
        let op = g.add_unary(&format!("cold-op{c}"), Map::new(|v: i64| v - 1), &src);
        let (sink, buf) = CollectSink::new();
        g.add_sink(&format!("cold-sink{c}"), sink, &op);
        bufs.push(buf);
    }
    (Arc::new(g), bufs)
}

/// Runs the skewed graph on a fresh instance — `workers` work-stealing
/// threads, or the single-thread driver for `None` — and returns
/// elements/s over the whole stream (hot + cold).
fn run_once(workers: Option<usize>, hot_n: u64, cold_n: u64) -> f64 {
    let (g, bufs) = skewed_graph(hot_n, cold_n);
    let total = hot_n + COLD_CHAINS as u64 * cold_n;
    let start = Instant::now();
    match workers {
        None => {
            SingleThreadExecutor::new().run(&g, &mut RoundRobinStrategy::new());
        }
        Some(n) => {
            WorkStealingExecutor::new(n).run(&g, || Box::new(RoundRobinStrategy::new()));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let delivered: u64 = bufs.iter().map(|b| b.lock().len() as u64).sum();
    assert_eq!(delivered, total, "stream not fully delivered");
    assert!(g.all_finished());
    total as f64 / secs
}

fn median(ratios: &mut [f64]) -> f64 {
    ratios.sort_by(f64::total_cmp);
    if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    }
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
    let src = g.add_source("src", VecSource::new(input(64)));
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

/// Median ns per `select` (view construction included, as every driver pays
/// it) over `reps` timed loops on the four-ready graph. Nothing is stepped
/// between picks, so every pick sees the same four ready nodes. A loop runs
/// whole chunks of 640 picks — ten of Chain's refresh periods, so the
/// refresh is amortized the way a run amortizes it — for at least `min_ms`.
fn pick_ns(strategy: &mut dyn Strategy, installed: usize, reps: usize, min_ms: u128) -> f64 {
    let (g, nodes) = four_ready_of(installed);
    const CHUNK: usize = 640;
    let mut per_pick: Vec<f64> = (0..reps)
        .map(|_| {
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
        })
        .collect();
    median(&mut per_pick)
}

/// Installed-node counts of the pick-cost table.
const INSTALLED: [usize; 3] = [6, 150, 1000];

/// The table below as this same code measured it at the parent commit
/// `5ab8adf` (every strategy probing every installed node under its locks),
/// on the host the checked-in artifact names: `(fifo ns, chain ns)` per
/// entry of [`INSTALLED`].
const PARENT_PICK_NS: [(f64, f64); 3] =
    [(573.0, 640.0), (9_760.0, 39_394.0), (71_077.0, 1_228_066.0)];

/// The pick-cost half of E16: what one strategy pick costs against the
/// number of *installed* nodes, with the ready ones held at four. Prints
/// the table and returns its JSON rows.
fn pick_cost(quick: bool) -> String {
    let (reps, min_ms) = if quick { (5, 2) } else { (25, 20) };
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut measured = Vec::new();
    for (installed, parent) in INSTALLED.into_iter().zip(PARENT_PICK_NS) {
        let fifo = pick_ns(&mut FifoStrategy, installed, reps, min_ms);
        let chain = pick_ns(&mut ChainStrategy::new(64), installed, reps, min_ms);
        rows.push(vec![
            installed.to_string(),
            f(parent.0, 0),
            f(fifo, 0),
            f(parent.1, 0),
            f(chain, 0),
        ]);
        json.push(format!(
            "    {{\"installed\": {installed}, \"ready\": 4, \
             \"fifo_select_ns\": {fifo:.0}, \"chain_select_ns\": {chain:.0}, \
             \"parent_fifo_select_ns\": {:.0}, \"parent_chain_select_ns\": {:.0}}}",
            parent.0, parent.1
        ));
        measured.push((fifo, chain));
    }
    table(
        "E16 — ns per strategy pick with 4 ready nodes, by installed nodes \
         (parent: commit 5ab8adf, every installed node probed under its locks)",
        &[
            "installed",
            "fifo, parent",
            "fifo",
            "chain(64), parent",
            "chain(64)",
        ],
        &rows,
    );
    let (first, last) = (measured[0], measured[measured.len() - 1]);
    println!(
        "shape check: from {} to {} installed nodes a pick costs {:.2}x (fifo) and \
         {:.2}x (chain) — bar: flat within 2x.",
        INSTALLED[0],
        INSTALLED[INSTALLED.len() - 1],
        last.0 / first.0,
        last.1 / first.1
    );
    json.join(",\n")
}

/// `(cpu model, short commit — "-dirty" with uncommitted changes)` of this
/// run, for the artifact.
fn host_and_commit() -> (String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    (cpu, commit)
}

/// Runs E16 and prints the table; writes `BENCH_sched_layers.json`.
pub fn e16_sched_layers(quick: bool) {
    let hot_n: u64 = if quick { 60_000 } else { 200_000 };
    let cold_n: u64 = hot_n / 10;
    let reps = if quick { 6 } else { 24 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let pick_rows = pick_cost(quick);

    // Warm up allocator and page cache off the clock.
    run_once(Some(cores), hot_n.min(20_000), cold_n.min(2_000));

    // Per E15: alternating-order back-to-back runs per rep; the per-rep
    // ratio cancels whatever the machine is doing at that moment, and the
    // median over reps damps single-rep outliers. Best-of throughputs are
    // reported alongside for scale.
    let mut best_single = f64::MIN;
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for workers in 1..=cores {
        let mut best = f64::MIN;
        let mut ratios = Vec::with_capacity(reps);
        for rep in 0..reps {
            let (single, stealing) = if rep % 2 == 0 {
                let single = run_once(None, hot_n, cold_n);
                (single, run_once(Some(workers), hot_n, cold_n))
            } else {
                let stealing = run_once(Some(workers), hot_n, cold_n);
                (run_once(None, hot_n, cold_n), stealing)
            };
            best_single = best_single.max(single);
            best = best.max(stealing);
            ratios.push(stealing / single);
        }
        let ratio = median(&mut ratios);
        rows.push(vec![
            format!("work stealing, {workers} worker(s)"),
            f(best / 1e6, 2),
            f(ratio, 2),
        ]);
        sweep.push(format!(
            "    {{\"threads\": {workers}, \"stealing_elem_per_s\": {best:.0}, \
             \"stealing_vs_single_median_ratio\": {ratio:.3}}}"
        ));
    }
    rows.insert(
        0,
        vec![
            "single thread".into(),
            f(best_single / 1e6, 2),
            "1.00".into(),
        ],
    );

    table(
        &format!(
            "E16 — scheduler layers, hot {K}-op chain ({hot_n} elems) + \
             {COLD_CHAINS} cold chains ({cold_n} elems each), {cores} core(s)"
        ),
        &["driver", "Melem/s (best)", "vs single thread (median)"],
        &rows,
    );
    println!(
        "shape check: one worker prices the group-ownership protocol against \
         the plain single-thread driver; more workers can only return what \
         the cold chains hold, because the hot chain is one virtual-node \
         group and stays on one core."
    );

    let (cpu, commit) = host_and_commit();
    let json = format!(
        "{{\n  \"experiment\": \"sched_layers\",\n  \"host\": \"{cpu}\",\n  \
         \"commit\": \"{commit}\",\n  \"cores\": {cores},\n  \
         \"hot_chain_ops\": {K},\n  \"hot_elements\": {hot_n},\n  \
         \"cold_chains\": {COLD_CHAINS},\n  \"cold_elements\": {cold_n},\n  \
         \"reps\": {reps},\n  \
         \"single_thread_elem_per_s\": {best_single:.0},\n  \
         \"thread_sweep\": [\n{}\n  ],\n  \
         \"pick_cost_parent_commit\": \"5ab8adf\",\n  \
         \"pick_cost\": [\n{pick_rows}\n  ]\n}}\n",
        sweep.join(",\n")
    );
    match std::fs::write("BENCH_sched_layers.json", &json) {
        Ok(()) => println!("wrote BENCH_sched_layers.json"),
        Err(e) => eprintln!("could not write BENCH_sched_layers.json: {e}"),
    }
}
