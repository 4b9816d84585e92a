//! E4 — virtual nodes: direct connections vs inter-operator queues.
//!
//! Paper claim (§Query Plans): connecting operators directly inside a
//! virtual node requires no inter-operator queues and "leads to a
//! substantial overhead reduction". We run a chain of k cheap operators
//! over the same input, once as k queued graph nodes and once fused into a
//! single virtual node, and report throughput.

use super::method::ticks;
use crate::{f, table};
use pipes::prelude::*;
use std::time::Instant;

/// A cheap operator: one branch + one add.
fn cheap() -> Map<i64, i64, impl FnMut(i64) -> i64> {
    Map::new(|v: i64| if v % 2 == 0 { v + 1 } else { v - 1 })
}

fn run_queued(n: u64, k: usize) -> (f64, usize) {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(ticks(n)));
    let mut cur = g.add_unary("op0", cheap(), &src);
    for i in 1..k {
        cur = g.add_unary(&format!("op{i}"), cheap(), &cur);
    }
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &cur);
    let start = Instant::now();
    g.run_to_completion(256);
    let secs = start.elapsed().as_secs_f64();
    let count = buf.lock().len();
    assert_eq!(count, n as usize);
    (n as f64 / secs, g.len())
}

fn run_fused(n: u64, k: usize) -> (f64, usize) {
    // Build the k-chain as nested fusions behind one boxed operator.
    let mut chain: Box<dyn Operator<In = i64, Out = i64>> = Box::new(cheap());
    for _ in 1..k {
        chain = Box::new(chain.then(cheap()));
    }
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(ticks(n)));
    let cur = g.add_unary("virtual", chain, &src);
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &cur);
    let start = Instant::now();
    g.run_to_completion(256);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(buf.lock().len(), n as usize);
    (n as f64 / secs, g.len())
}

/// Runs E4 and prints the table.
pub fn e4_fusion(quick: bool) {
    let n: u64 = if quick { 50_000 } else { 1_000_000 };
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let (queued_tput, queued_nodes) = run_queued(n, k);
        let (fused_tput, fused_nodes) = run_fused(n, k);
        rows.push(vec![
            k.to_string(),
            queued_nodes.to_string(),
            fused_nodes.to_string(),
            f(queued_tput / 1e6, 2),
            f(fused_tput / 1e6, 2),
            f(fused_tput / queued_tput, 2),
        ]);
    }
    table(
        &format!("E4 — operator fusion (virtual nodes), {n} elements per run"),
        &[
            "chain k",
            "nodes queued",
            "nodes fused",
            "queued Melem/s",
            "fused Melem/s",
            "speedup",
        ],
        &rows,
    );
    println!(
        "shape check: fused ≥ queued for every k, and the gap widens with k \
         (no inter-operator queues inside the virtual node)."
    );
}
