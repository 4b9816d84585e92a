//! E16 — what the dynamic thread layer costs and buys on a skewed
//! multi-chain workload.
//!
//! One hot chain (source → `K` maps → sink) carries most of the stream
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

/// Runs E16 and prints the table; writes `BENCH_sched_layers.json`.
pub fn e16_sched_layers(quick: bool) {
    let hot_n: u64 = if quick { 60_000 } else { 200_000 };
    let cold_n: u64 = hot_n / 10;
    let reps = if quick { 6 } else { 24 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

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

    let json = format!(
        "{{\n  \"experiment\": \"sched_layers\",\n  \"cores\": {cores},\n  \
         \"hot_chain_ops\": {K},\n  \"hot_elements\": {hot_n},\n  \
         \"cold_chains\": {COLD_CHAINS},\n  \"cold_elements\": {cold_n},\n  \
         \"reps\": {reps},\n  \
         \"single_thread_elem_per_s\": {best_single:.0},\n  \
         \"thread_sweep\": [\n{}\n  ]\n}}\n",
        sweep.join(",\n")
    );
    match std::fs::write("BENCH_sched_layers.json", &json) {
        Ok(()) => println!("wrote BENCH_sched_layers.json"),
        Err(e) => eprintln!("could not write BENCH_sched_layers.json: {e}"),
    }
}
