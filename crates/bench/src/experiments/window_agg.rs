//! E18 — sub-linear sliding-window aggregation vs the naive partial scan.
//!
//! The exact temporal count over sliding windows of width w: element `i`
//! is valid on `[i, i+w)`, so every arriving element overlaps w live
//! partials. Two variants run the identical driver
//! (`run_unary_messages`: start-ordered elements, the strongest valid
//! heartbeat after each, close at the end):
//!
//! * **naive** — `AggStrategy::Naive`, the boundary table as originally
//!   shipped: every insert folds its payload into all w covered partials,
//!   O(r·w) for r elements — the throughput cliff this experiment
//!   documents;
//! * **tree** — `AggStrategy::Auto` (the shipped default): the partial-
//!   aggregate tree of `pipes-ops::aggtree` defers combining to the
//!   heartbeat sweep, touching O(1) amortized accumulators per insert,
//!   converting from the naive table once an insert covers the
//!   conversion threshold (so narrow windows keep the naive fast path).
//!
//! Both variants must produce the **byte-identical** sink message
//! sequence — asserted on every rep, heartbeats included. Paired runs
//! (see [`method`](super::method)). Acceptance (full run): ≥ 20× at
//! window 1024, no regression at window 16 beyond the paired-median
//! noise bound.

use super::method::{paired, Record};
use pipes::ops::drive::run_unary_messages;
use pipes::prelude::*;
use std::time::Instant;

/// Elements valid on `[i, i+window)`.
fn input(n: u64, window: u64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| {
            Element::new(
                i as i64,
                TimeInterval::new(Timestamp::new(i), Timestamp::new(i + window)),
            )
        })
        .collect()
}

/// Runs the tree (`AggStrategy::Auto`) or the naive layout over a pre-built
/// input, returning kelem/s and the produced message sequence (for the
/// byte-identical check).
fn run_variant(tree: bool, input: &[Element<i64>]) -> (f64, Vec<Message<u64>>) {
    let strategy = if tree {
        AggStrategy::Auto
    } else {
        AggStrategy::Naive
    };
    let op = ScalarAggregate::with_strategy(CountAgg, strategy);
    let cloned = input.to_vec();
    let start = Instant::now();
    let out = run_unary_messages(op, cloned);
    let secs = start.elapsed().as_secs_f64();
    (input.len() as f64 / secs / 1e3, out)
}

/// Runs E18 and prints the window-sweep table; a full run appends its
/// record.
pub fn e18_window_agg(quick: bool) {
    // (window, elements, reps): larger windows get smaller inputs so the
    // naive baseline finishes in reasonable time; reps stay odd for a
    // clean median.
    let plan: Vec<(u64, u64, usize)> = if quick {
        vec![(16, 4_000, 3), (1024, 4_000, 3)]
    } else {
        vec![
            (16, 20_000, 9),
            (64, 20_000, 9),
            (256, 10_000, 7),
            (1024, 10_000, 7),
            (8192, 3_000, 5),
        ]
    };

    // Warm up allocator and page cache off the clock.
    run_variant(true, &input(2_000, 64));

    let mut record = Record::new("e18", plan.iter().map(|p| p.2).max().unwrap_or(0));
    for &(window, n, reps) in &plan {
        let elems = input(n, window);
        // Byte-identical sink output, heartbeats included, every rep: the
        // state layout is not allowed to change what the operator computes
        // or when it emits it.
        let p = paired(reps, |tree| run_variant(tree, &elems));
        let case = format!("window {window}, {n} elements");
        record.row(&case, "naive throughput", "kelem/s", p.base);
        record.row(&case, "tree throughput", "kelem/s", p.treat);
        record.row(&case, "tree vs naive", "ratio", p.ratio);
    }

    record.print(
        "E18 — sliding-window count, partial-aggregate tree vs naive scan \
         (exact temporal aggregation, per-element heartbeats)",
    );
    println!(
        "shape check: the naive boundary table folds every element into all w \
         covered partials (O(r*w) — throughput falls linearly with w); the \
         tree keeps the identical boundary index but defers combining to the \
         heartbeat sweep, touching O(1) amortized accumulators per insert, so \
         throughput stays flat as w grows. Bar (full run): >= 20x at window \
         1024, parity at window 16 (Auto stays on the naive fast path below \
         the conversion threshold)."
    );
    record.save(quick);
}
