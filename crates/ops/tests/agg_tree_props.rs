//! Property tests: the sub-linear partial-aggregate tree (`AggStrategy::Tree`
//! and the converting `AggStrategy::Auto`) produces *exactly* the same output
//! message sequence as the naive boundary-scan layout, for scalar and grouped
//! aggregation, on both the per-message path (`on_element`/`on_heartbeat`)
//! and the run-native burst path (`on_run` → `Partials::insert_group`), over
//! random watermark-valid traces whose intervals regularly straddle the
//! in-trace heartbeats.
//!
//! Equality is byte-for-byte: the tree combines accumulators in canonical
//! `(end, seq)` order, not the naive left-fold's arrival order, so every
//! combine must be exact — integer accumulators, and non-integral float
//! sums and averages, which `SumAgg`/`AvgAgg` keep as an `ExactSum` (their
//! outputs are compared as bit patterns). The naive output itself is
//! checked against the `pipes_time::snapshot` ground truth, so transitively
//! the tree path is snapshot-equivalent too.

use pipes_ops::aggregate::{
    AggStrategy, AvgAgg, CountAgg, FoldAgg, MaxAgg, ScalarAggregate, SumAgg, WithCombine,
};
use pipes_ops::drive::{feed_messages, feed_runs};
use pipes_ops::GroupedAggregate;
use pipes_time::{snapshot, Element, Message, TimeInterval, Timestamp};
use proptest::prelude::*;

/// A random, watermark-valid unary trace biased toward *wide* intervals
/// (up to 60 ticks against starts in 0..80), so that inserts cover many
/// existing partials — deep enough to trip the Auto conversion threshold —
/// and open intervals regularly straddle the heartbeats emitted at later
/// burst starts.
fn arb_wide_trace(max_bursts: usize) -> impl Strategy<Value = Vec<Message<i64>>> {
    prop::collection::vec(
        (
            0i64..5,
            0u64..80,
            1u64..60,
            1usize..4,
            any::<bool>(),
            any::<bool>(),
        ),
        0..max_bursts,
    )
    .prop_map(|mut bursts| {
        bursts.sort_by_key(|&(_, s, ..)| s);
        let mut msgs: Vec<Message<i64>> = Vec::new();
        for (p, s, len, n, hb, dup) in bursts {
            let iv = TimeInterval::new(Timestamp::new(s), Timestamp::new(s + len));
            for k in 0..n {
                msgs.push(Message::Element(Element::new(p + (k % 2) as i64, iv)));
            }
            if hb {
                msgs.push(Message::Heartbeat(Timestamp::new(s)));
                if dup {
                    msgs.push(Message::Heartbeat(Timestamp::new(s)));
                }
            }
        }
        msgs.push(Message::Heartbeat(Timestamp::MAX));
        msgs
    })
}

/// Random run-boundary pattern: chunk sizes cycled over the trace.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..24)
}

/// An integer sum via the `WithCombine` adapter: a custom fold made
/// tree-eligible by a user-supplied merge.
fn combinable_sum() -> impl pipes_ops::aggregate::AggregateFn<i64, Acc = i64, Out = i64> {
    WithCombine::new(
        FoldAgg::new(
            |v: &i64| *v,
            |acc: &mut i64, v: &i64| *acc += *v,
            |acc: &i64| *acc,
        ),
        |a: &i64, b: &i64| a + b,
    )
}

/// A non-integral float view of a payload: sums of these round, so only an
/// exact combine keeps the layouts identical.
fn tenths(v: &i64) -> f64 {
    *v as f64 * 0.1 + 0.01
}

/// Float outputs as bit patterns (`0.0 == -0.0`, but not byte-identical).
fn bits(msgs: Vec<Message<f64>>) -> Vec<Message<u64>> {
    msgs.into_iter().map(|m| m.map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scalar_tree_matches_naive_per_message(msgs in arb_wide_trace(16)) {
        let naive = feed_messages(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Naive), &msgs);
        let tree = feed_messages(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Tree), &msgs);
        prop_assert_eq!(&naive, &tree);

        // The naive output is itself the snapshot-equivalence ground truth
        // for this trace, so the tree output is transitively equivalent;
        // check it directly anyway on the element stream.
        let input: Vec<Element<i64>> = msgs.iter().filter_map(|m| match m {
            Message::Element(e) => Some(e.clone()),
            _ => None,
        }).collect();
        let out: Vec<Element<u64>> = tree.iter().filter_map(|m| match m {
            Message::Element(e) => Some(e.clone()),
            _ => None,
        }).collect();
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        }).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
    }

    #[test]
    fn scalar_tree_matches_naive_on_run(msgs in arb_wide_trace(16), cuts in arb_cuts()) {
        let naive = feed_runs(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Naive), &msgs, &cuts);
        let tree = feed_runs(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Tree), &msgs, &cuts);
        prop_assert_eq!(naive, tree);
    }

    #[test]
    fn scalar_auto_matches_naive_on_run(msgs in arb_wide_trace(24), cuts in arb_cuts()) {
        // Auto converts mid-stream once an insert covers the threshold;
        // the adopted slots must finalize identically to never-converted.
        let naive = feed_runs(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Naive), &msgs, &cuts);
        let auto = feed_runs(ScalarAggregate::new(CountAgg), &msgs, &cuts);
        prop_assert_eq!(naive, auto);
    }

    #[test]
    fn scalar_max_tree_matches_naive(msgs in arb_wide_trace(16), cuts in arb_cuts()) {
        // Max exercises the pick-one combine (ties keep the earlier
        // accumulator in canonical order).
        let naive = feed_runs(
            ScalarAggregate::with_strategy(MaxAgg(|v: &i64| *v), AggStrategy::Naive),
            &msgs, &cuts);
        let tree = feed_runs(
            ScalarAggregate::with_strategy(MaxAgg(|v: &i64| *v), AggStrategy::Tree),
            &msgs, &cuts);
        prop_assert_eq!(naive, tree);
    }

    #[test]
    fn with_combine_tree_matches_naive(msgs in arb_wide_trace(16), cuts in arb_cuts()) {
        let naive = feed_runs(
            ScalarAggregate::with_strategy(combinable_sum(), AggStrategy::Naive),
            &msgs, &cuts);
        let tree = feed_runs(
            ScalarAggregate::with_strategy(combinable_sum(), AggStrategy::Tree),
            &msgs, &cuts);
        prop_assert_eq!(naive, tree);
    }

    #[test]
    fn grouped_tree_matches_naive_per_message(msgs in arb_wide_trace(16)) {
        let naive = feed_messages(
            GroupedAggregate::with_strategy(|v: &i64| v % 3, CountAgg, AggStrategy::Naive),
            &msgs);
        let tree = feed_messages(
            GroupedAggregate::with_strategy(|v: &i64| v % 3, CountAgg, AggStrategy::Tree),
            &msgs);
        prop_assert_eq!(naive, tree);
    }

    #[test]
    fn grouped_tree_matches_naive_on_run(msgs in arb_wide_trace(16), cuts in arb_cuts()) {
        let naive = feed_runs(
            GroupedAggregate::with_strategy(|v: &i64| v % 3, CountAgg, AggStrategy::Naive),
            &msgs, &cuts);
        let tree = feed_runs(
            GroupedAggregate::with_strategy(|v: &i64| v % 3, CountAgg, AggStrategy::Tree),
            &msgs, &cuts);
        prop_assert_eq!(naive, tree);
    }

    #[test]
    fn grouped_auto_matches_naive_on_run(msgs in arb_wide_trace(24), cuts in arb_cuts()) {
        let naive = feed_runs(
            GroupedAggregate::with_strategy(|v: &i64| v % 2, CountAgg, AggStrategy::Naive),
            &msgs, &cuts);
        let auto = feed_runs(
            GroupedAggregate::new(|v: &i64| v % 2, CountAgg), &msgs, &cuts);
        prop_assert_eq!(naive, auto);
    }

    #[test]
    fn float_sum_and_avg_tree_match_naive_bitwise(msgs in arb_wide_trace(24), cuts in arb_cuts()) {
        for strategy in [AggStrategy::Tree, AggStrategy::Auto] {
            let sum = |s| ScalarAggregate::with_strategy(SumAgg(tenths), s);
            prop_assert_eq!(
                bits(feed_messages(sum(AggStrategy::Naive), &msgs)),
                bits(feed_messages(sum(strategy), &msgs)));
            prop_assert_eq!(
                bits(feed_runs(sum(AggStrategy::Naive), &msgs, &cuts)),
                bits(feed_runs(sum(strategy), &msgs, &cuts)));
            let avg = |s| ScalarAggregate::with_strategy(AvgAgg(tenths), s);
            prop_assert_eq!(
                bits(feed_messages(avg(AggStrategy::Naive), &msgs)),
                bits(feed_messages(avg(strategy), &msgs)));
            prop_assert_eq!(
                bits(feed_runs(avg(AggStrategy::Naive), &msgs, &cuts)),
                bits(feed_runs(avg(strategy), &msgs, &cuts)));
        }
    }

    #[test]
    fn grouped_float_sum_tree_matches_naive_bitwise(msgs in arb_wide_trace(24), cuts in arb_cuts()) {
        let sum = |s| GroupedAggregate::with_strategy(|v: &i64| v % 2, SumAgg(tenths), s);
        let bits = |msgs: Vec<Message<(i64, f64)>>| -> Vec<Message<(i64, u64)>> {
            msgs.into_iter().map(|m| m.map(|(k, x)| (k, x.to_bits()))).collect()
        };
        let naive = bits(feed_runs(sum(AggStrategy::Naive), &msgs, &cuts));
        prop_assert_eq!(&naive, &bits(feed_runs(sum(AggStrategy::Tree), &msgs, &cuts)));
        prop_assert_eq!(&naive, &bits(feed_runs(sum(AggStrategy::Auto), &msgs, &cuts)));
    }
}
