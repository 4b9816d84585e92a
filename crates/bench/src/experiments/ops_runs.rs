//! E17 — run-at-a-time operator algebra vs element-at-a-time dispatch.
//!
//! A NEXMark-style join + aggregate plan: an auctions stream (one element
//! per auction, valid over the whole session) equi-joined with a bursty
//! bids stream (bursts of same-auction, same-timestamp bids — the shape
//! real bidding traffic has), the matches mapped, then grouped-aggregated
//! by category ([`join_plan`]). Two variants run the *identical* batched
//! kernel:
//!
//! * **run-native** — the operators as shipped: `RippleJoin` probes a
//!   whole same-side segment with one hash lookup per distinct adjacent
//!   key and bulk-inserts with per-run bucket reservation, `Map` reserves
//!   its output once per run, and `GroupedAggregate` applies each
//!   same-key/same-interval burst as one boundary split
//!   ([`Partials::insert_group`]-style) instead of one per element;
//! * **per-message** — the same operators wrapped in
//!   `ElementWise`/`BinaryElementWise`, which suppress the native
//!   `on_run` overrides so every message takes the trait's default
//!   per-message loop.
//!
//! Since the wrappers change *only* the dispatch granularity, the ratio
//! isolates what the run-level algebra buys; both variants must produce
//! the same number of sink messages on every rep. Paired runs (see
//! [`method`](super::method)). Acceptance: run-native reaches ≥ 1.5× the
//! per-message throughput.

use super::method::{join_plan, paired, Record, AUCTIONS, BURST};

/// Runs E17 and prints the table; a full run appends its record.
pub fn e17_ops_runs(quick: bool) {
    let n_bids: u64 = if quick { 64_000 } else { 384_000 };
    let reps = if quick { 6 } else { 16 };

    // Warm up allocator and page cache off the clock.
    join_plan(n_bids.min(8_000), false);
    let p = paired(reps, |run_native| join_plan(n_bids, !run_native));

    let mut record = Record::new("e17", reps);
    record.row("per-message", "throughput", "Melem/s", p.base);
    record.row("run-native", "throughput", "Melem/s", p.treat);
    record.row("run-native", "vs per-message", "ratio", p.ratio);
    record.print(&format!(
        "E17 — run-at-a-time algebra, auctions({AUCTIONS}) ⋈ bids({n_bids}, \
         bursts of {BURST}) → map → group-by-category max"
    ));
    println!(
        "shape check: handing whole drained runs to operators turns per-element \
         hash probes, bucket inserts, and aggregate boundary splits into \
         per-burst work (one lookup per distinct adjacent key, one split per \
         distinct timestamp); the run-native plan sustains >= 1.5x the \
         per-message dispatch throughput on the identical kernel."
    );
    record.save(quick);
}
