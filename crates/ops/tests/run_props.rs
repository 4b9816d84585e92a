//! Property tests: every operator with a native `on_run` (or run pair)
//! produces *exactly* the same output message sequence as the trait's
//! default per-message loop, on random temporal bags split at random run
//! boundaries, with node-style heartbeat coalescing applied to each run.
//!
//! The baseline is the same operator wrapped in [`ElementWise`] /
//! [`BinaryElementWise`], which suppresses the run override so dispatch
//! falls back to the default loop — everything else (state machine,
//! collector, run boundaries) is identical between the two executions.
//!
//! Run-native operators covered here: `Map`, `Filter`, `FlatMap`,
//! `ScalarAggregate`, `GroupedAggregate`, and `RippleJoin`
//! (`on_run_left` / `on_run_right`). `Fused` is covered in
//! `crates/graph/tests/run_props.rs`.

use pipes_graph::run::coalesce_adjacent_heartbeats;
use pipes_graph::BinaryOperator;
use pipes_ops::aggregate::{CountAgg, ScalarAggregate, SumAgg};
use pipes_ops::drive::{feed_runs, BinaryElementWise, ElementWise};
use pipes_ops::{Filter, FlatMap, GroupedAggregate, Map, RippleJoin};
use pipes_time::{Element, Message, TimeInterval, Timestamp};
use proptest::prelude::*;

/// A random, watermark-valid unary message trace. Elements arrive in
/// bursts sharing one interval (so grouped run paths see multi-element
/// groups), heartbeats are optionally emitted (and sometimes duplicated,
/// to exercise heartbeat coalescing) at burst starts, and the trace ends
/// with a horizon heartbeat.
fn arb_trace(max_bursts: usize) -> impl Strategy<Value = Vec<Message<i64>>> {
    prop::collection::vec(
        (
            0i64..5,
            0u64..40,
            1u64..20,
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
                // Vary the payload within a burst so grouped operators see
                // both single- and multi-element adjacent groups.
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

/// Binary counterpart of [`feed_runs`]: `msgs` carries a port tag; maximal
/// same-port segments are cut at the boundary pattern and dispatched via
/// `on_run_left` / `on_run_right`, mirroring `BinNode::step`.
fn feed_runs_binary<B>(
    mut op: B,
    msgs: &[(usize, Message<i64>)],
    sizes: &[usize],
) -> Vec<Message<B::Out>>
where
    B: BinaryOperator<Left = i64, Right = i64>,
{
    let mut out: Vec<Message<B::Out>> = Vec::new();
    let mut run: Vec<Message<i64>> = Vec::new();
    let (mut i, mut s) = (0, 0);
    while i < msgs.len() {
        let port = msgs[i].0;
        let take = sizes[s % sizes.len()];
        s += 1;
        let mut end = i;
        while end < msgs.len() && end - i < take && msgs[end].0 == port {
            end += 1;
        }
        run.extend(msgs[i..end].iter().map(|(_, m)| m.clone()));
        i = end;
        coalesce_adjacent_heartbeats(&mut run);
        if port == 0 {
            op.on_run_left(&mut run, &mut out);
        } else {
            op.on_run_right(&mut run, &mut out);
        }
        run.clear();
    }
    op.on_close(&mut out);
    out
}

/// A random two-sided trace: independent per-side traces interleaved by a
/// random merge pattern (per-side order — the only order the runtime
/// guarantees — is preserved).
fn arb_binary_trace() -> impl Strategy<Value = Vec<(usize, Message<i64>)>> {
    (
        arb_trace(10),
        arb_trace(10),
        prop::collection::vec(any::<bool>(), 1..16),
    )
        .prop_map(|(left, right, pattern)| {
            let mut merged = Vec::with_capacity(left.len() + right.len());
            let (mut l, mut r) = (left.into_iter(), right.into_iter());
            let (mut lh, mut rh) = (l.next(), r.next());
            let mut p = 0;
            while lh.is_some() || rh.is_some() {
                let take_left = match (&lh, &rh) {
                    (Some(_), Some(_)) => pattern[p % pattern.len()],
                    (Some(_), None) => true,
                    _ => false,
                };
                p += 1;
                if take_left {
                    merged.push((0, lh.take().expect("left present")));
                    lh = l.next();
                } else {
                    merged.push((1, rh.take().expect("right present")));
                    rh = r.next();
                }
            }
            merged
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn map_on_run_matches_per_message(msgs in arb_trace(16), cuts in arb_cuts()) {
        let native = feed_runs(Map::new(|v: i64| v * 3 - 1), &msgs, &cuts);
        let baseline = feed_runs(ElementWise(Map::new(|v: i64| v * 3 - 1)), &msgs, &cuts);
        prop_assert_eq!(native, baseline);
    }

    #[test]
    fn filter_on_run_matches_per_message(msgs in arb_trace(16), cuts in arb_cuts()) {
        let native = feed_runs(Filter::new(|v: &i64| v % 2 == 0), &msgs, &cuts);
        let baseline = feed_runs(ElementWise(Filter::new(|v: &i64| v % 2 == 0)), &msgs, &cuts);
        prop_assert_eq!(native, baseline);
    }

    #[test]
    fn flat_map_on_run_matches_per_message(msgs in arb_trace(16), cuts in arb_cuts()) {
        let f = |v: i64| if v % 3 == 0 { vec![] } else { vec![v, -v] };
        let native = feed_runs(FlatMap::new(f), &msgs, &cuts);
        let baseline = feed_runs(ElementWise(FlatMap::new(f)), &msgs, &cuts);
        prop_assert_eq!(native, baseline);
    }

    #[test]
    fn scalar_aggregate_on_run_matches_per_message(msgs in arb_trace(16), cuts in arb_cuts()) {
        let native = feed_runs(ScalarAggregate::new(SumAgg(|v: &i64| *v as f64)), &msgs, &cuts);
        let baseline = feed_runs(
            ElementWise(ScalarAggregate::new(SumAgg(|v: &i64| *v as f64))),
            &msgs,
            &cuts,
        );
        prop_assert_eq!(native, baseline);
    }

    #[test]
    fn grouped_aggregate_on_run_matches_per_message(msgs in arb_trace(16), cuts in arb_cuts()) {
        let native = feed_runs(GroupedAggregate::new(|v: &i64| v % 3, CountAgg), &msgs, &cuts);
        let baseline = feed_runs(
            ElementWise(GroupedAggregate::new(|v: &i64| v % 3, CountAgg)),
            &msgs,
            &cuts,
        );
        prop_assert_eq!(native, baseline);
    }

    #[test]
    fn ripple_join_on_run_matches_per_message(msgs in arb_binary_trace(), cuts in arb_cuts()) {
        let native = feed_runs_binary(
            RippleJoin::equi(|x: &i64| x % 3, |y: &i64| y % 3, |x, y| (*x, *y)),
            &msgs,
            &cuts,
        );
        let baseline = feed_runs_binary(
            BinaryElementWise(RippleJoin::equi(|x: &i64| x % 3, |y: &i64| y % 3, |x, y| (*x, *y))),
            &msgs,
            &cuts,
        );
        prop_assert_eq!(native, baseline);
    }
}
