//! E14 — batched data path: amortizing per-message locking.
//!
//! The kernel's queued edges, output ports and node step loops all operate
//! at batch granularity: one queue-lock round per run of messages, one
//! arrival-sequence block per flush, one scratch buffer reused across
//! quanta. Setting the batch limit to 1 reproduces the original
//! per-message cost model (every message pays its own lock round and
//! sequence allocation), so the same graph measured under both limits
//! isolates exactly what batching buys. Each larger limit is paired
//! against limit 1 (see [`method`](super::method)).
//!
//! Acceptance: the batched path sustains at least 2x the per-message
//! throughput on the queued 4-map chain.

use super::method::{map_chain, paired, Record, CHAIN_OPS};

/// Runs E14 and prints the table; a full run appends its record.
pub fn e14_batching(quick: bool) {
    let n: u64 = if quick { 100_000 } else { 1_000_000 };
    let reps = if quick { 2 } else { 9 };
    let pairs = [("8", Some(8)), ("64", Some(64)), ("unbounded", None)].map(|(label, limit)| {
        let p = paired(reps, |batched| {
            (map_chain(n, if batched { limit } else { Some(1) }), ())
        });
        (label, p)
    });
    let mut record = Record::new("e14", reps);
    record.row("batch limit 1", "throughput", "Melem/s", pairs[0].1.base);
    for (label, p) in &pairs {
        let case = format!("batch limit {label}");
        record.row(&case, "throughput", "Melem/s", p.treat);
        record.row(&case, "vs limit 1", "ratio", p.ratio);
    }

    record.print(&format!(
        "E14 — batched data path, queued {CHAIN_OPS}-op chain, {n} elements"
    ));
    println!(
        "shape check: throughput grows monotonically with the batch limit; \
         the unbounded batched path is >= 2x the per-message baseline."
    );
    record.save(quick);
}
