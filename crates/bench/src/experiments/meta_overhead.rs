//! E19 — metadata-plane overhead on the run-native join plan.
//!
//! The live metadata plane updates every node's `NodeMeta` estimator block
//! once per drained run (rates, run-level selectivity, inter-arrival
//! variance) and publishes the derived values through a seqlock. This
//! experiment prices that on E17's NEXMark-style plan — auctions ⋈ bursty
//! bids → map → grouped max — by running the identical workload with
//! collection disabled (`meta::set_meta_enabled(false)` — the per-quantum
//! flag check is the only residual cost) and enabled, paired (see
//! [`method`](super::method)).
//!
//! Acceptance: the plane-on run stays within 3% of plane-off throughput,
//! the bar the flight recorder set. Building with `--features meta-off`
//! compiles every collection site out, the true-zero-cost configuration.

use super::method::{bids, join_plan, paired, Record, AUCTIONS, BURST};
use pipes::prelude::*;

/// Sanity check (plane compiled in): after a run with collection enabled,
/// a snapshot of a warm graph reports measured estimates.
fn check_plane_feeds_estimates() {
    if pipes::meta::META_COMPILED_OUT {
        return;
    }
    use pipes::graph::{Confidence, MetaConfig};
    let g = QueryGraph::new();
    let src = g.add_source("s", VecSource::new(bids(4096)));
    let (sink, _) = CollectSink::new();
    g.add_sink("k", sink, &src);
    g.run_to_completion(256);
    let snap = g.meta_snapshot(&MetaConfig::default());
    let est = snap.get(src.node()).expect("source estimate");
    assert_eq!(est.confidence, Confidence::Measured);
    assert!(est.out_rate > 0.0);
}

/// Runs E19 and prints the table; a full run appends its record.
pub fn e19_meta_overhead(quick: bool) {
    let n_bids: u64 = if quick { 64_000 } else { 256_000 };
    let reps = if quick { 8 } else { 48 };

    // Warm up allocator and page cache (and the estimator blocks) off the
    // clock.
    pipes::meta::set_meta_enabled(true);
    join_plan(n_bids.min(8_000), false);
    check_plane_feeds_estimates();
    let p = paired(reps, |collect| {
        pipes::meta::set_meta_enabled(collect);
        join_plan(n_bids, false)
    });
    pipes::meta::set_meta_enabled(true);
    let overhead = p.ratio.overhead_pct();

    let mut record = Record::new("e19", reps);
    let case = if pipes::meta::META_COMPILED_OUT {
        "metadata plane compiled out"
    } else {
        "metadata plane"
    };
    record.row(case, "throughput off", "Melem/s", p.base);
    record.row(case, "throughput on", "Melem/s", p.treat);
    record.row(case, "overhead", "%", overhead);
    record.print(&format!(
        "E19 — metadata-plane overhead, auctions({AUCTIONS}) ⋈ bids({n_bids}, \
         bursts of {BURST}) → map → group-by-category max"
    ));
    println!(
        "shape check: one estimator update per drained run (not per message) \
         keeps the live metadata plane within 3% of plane-off throughput; \
         `--features meta-off` removes even the flag check."
    );
    record.save(quick);
}
