//! E15 — flight-recorder overhead on the batched data path.
//!
//! The recorder is *always on*: every edge push, batch drain, node step
//! and scheduler quantum records into per-thread rings. This experiment
//! prices that on the same queued 4-map chain E14 uses, by measuring the
//! identical workload with recording disabled (`trace::set_enabled(false)`
//! — the per-event check is the only residual cost) and enabled, paired
//! (see [`method`](super::method)). Many short pairs beat few long ones on
//! a shared machine: the noise is per scheduling quantum, so the error of
//! the median shrinks with the number of pairs, not with run length.
//!
//! Acceptance: the recorder-on run stays within 5% of recorder-off
//! throughput. Building with `--features trace-off` compiles every
//! recording site out entirely, the true-zero-cost configuration.

use super::method::{map_chain, paired, Record, CHAIN_OPS};

/// Runs E15 and prints the table; a full run appends its record.
pub fn e15_trace_overhead(quick: bool) {
    let n: u64 = if quick { 100_000 } else { 250_000 };
    let reps = if quick { 12 } else { 96 };

    // Warm up the allocator, page cache, and the recorder's ring + name
    // table off the clock.
    pipes::trace::set_enabled(true);
    map_chain(n.min(100_000), None);
    let p = paired(reps, |record| {
        pipes::trace::set_enabled(record);
        pipes::trace::clear();
        (map_chain(n, None), ())
    });
    pipes::trace::set_enabled(true);
    let overhead = p.ratio.overhead_pct();

    let mut record = Record::new("e15", reps);
    let case = if pipes::trace::COMPILED_OUT {
        "recorder compiled out"
    } else {
        "recorder"
    };
    record.row(case, "throughput off", "Melem/s", p.base);
    record.row(case, "throughput on", "Melem/s", p.treat);
    record.row(case, "overhead", "%", overhead);
    record.print(&format!(
        "E15 — flight-recorder overhead, queued {CHAIN_OPS}-op chain, {n} elements"
    ));
    println!(
        "shape check: the always-on recorder costs < 5% throughput on the \
         batched chain; `--features trace-off` removes even that."
    );
    record.save(quick);
}
