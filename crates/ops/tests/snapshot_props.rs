//! Property tests: every algebra operator is snapshot-equivalent to its
//! relational counterpart on random temporal bags, and upholds the
//! watermark contract.

use pipes_ops::aggregate::{CountAgg, MaxAgg, ScalarAggregate, SumAgg};
use pipes_ops::drive::{
    check_watermark_contract, run_binary, run_binary_messages, run_nary, run_unary,
    run_unary_messages,
};
use pipes_ops::{
    Coalesce, CountWindow, Difference, Distinct, Filter, GroupedAggregate, Map, MultiwayJoin,
    RippleJoin, TimeWindow, Union,
};
use pipes_time::{snapshot, Duration, Element, TimeInterval, Timestamp};
use proptest::prelude::*;

/// A random temporal bag: small payload domain (to force collisions),
/// bounded time domain (to force overlap).
fn arb_bag(max_len: usize) -> impl Strategy<Value = Vec<Element<i64>>> {
    prop::collection::vec(
        (0i64..6, 0u64..60, 1u64..25).prop_map(|(p, s, len)| {
            Element::new(
                p,
                TimeInterval::new(Timestamp::new(s), Timestamp::new(s + len)),
            )
        }),
        0..max_len,
    )
}

/// Raw event streams (instantaneous elements) for window operators.
fn arb_events(max_len: usize) -> impl Strategy<Value = Vec<Element<i64>>> {
    prop::collection::vec(
        (0i64..6, 0u64..100).prop_map(|(p, t)| Element::at(p, Timestamp::new(t))),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn filter_snapshot_equivalent(input in arb_bag(24)) {
        let out = run_unary(Filter::new(|v: &i64| v % 2 == 0), input.clone());
        snapshot::check_unary(&input, &out, |s| snapshot::rel::filter(s, |v| v % 2 == 0))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn map_snapshot_equivalent(input in arb_bag(24)) {
        let out = run_unary(Map::new(|v: i64| v * 3 - 1), input.clone());
        snapshot::check_unary(&input, &out, |s| snapshot::rel::map(s, |v| v * 3 - 1))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn union_snapshot_equivalent(a in arb_bag(16), b in arb_bag(16)) {
        let out = run_nary(Union::new(2), vec![a.clone(), b.clone()]);
        let all: Vec<Element<i64>> = a.into_iter().chain(b).collect();
        snapshot::check_unary(&all, &out, |s| s).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn equi_join_snapshot_equivalent(l in arb_bag(14), r in arb_bag(14)) {
        let out = run_binary(
            RippleJoin::equi(|x: &i64| x % 3, |y: &i64| y % 3, |x, y| (*x, *y)),
            l.clone(),
            r.clone(),
        );
        snapshot::check_binary(&l, &r, &out, |a, b| {
            snapshot::rel::join(a, b, |x, y| x % 3 == y % 3, |x, y| (*x, *y))
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn theta_join_snapshot_equivalent(l in arb_bag(12), r in arb_bag(12)) {
        let out = run_binary(
            RippleJoin::theta(|x: &i64, y: &i64| x < y, |x, y| (*x, *y)),
            l.clone(),
            r.clone(),
        );
        snapshot::check_binary(&l, &r, &out, |a, b| {
            snapshot::rel::join(a, b, |x, y| x < y, |x, y| (*x, *y))
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn multiway_join_matches_binary_reference(l in arb_bag(10), r in arb_bag(10)) {
        let out = run_nary(MultiwayJoin::new(2, |v: &i64| v % 3), vec![l.clone(), r.clone()]);
        let pairs: Vec<Element<(i64, i64)>> =
            out.into_iter().map(|e| e.map(|v| (v[0], v[1]))).collect();
        snapshot::check_binary(&l, &r, &pairs, |a, b| {
            snapshot::rel::join(a, b, |x, y| x % 3 == y % 3, |x, y| (*x, *y))
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn distinct_snapshot_equivalent(input in arb_bag(24)) {
        let out = run_unary(Distinct::new(), input.clone());
        snapshot::check_unary(&input, &out, snapshot::rel::distinct)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn difference_snapshot_equivalent(l in arb_bag(16), r in arb_bag(16)) {
        let out = run_binary(Difference::new(), l.clone(), r.clone());
        snapshot::check_binary(&l, &r, &out, snapshot::rel::difference)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn count_aggregate_snapshot_equivalent(input in arb_bag(20)) {
        let out = run_unary(ScalarAggregate::new(CountAgg), input.clone());
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn max_aggregate_snapshot_equivalent(input in arb_bag(20)) {
        let out = run_unary(ScalarAggregate::new(MaxAgg(|v: &i64| *v)), input.clone());
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| *v.iter().max().unwrap())
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn sum_aggregate_snapshot_equivalent(input in arb_bag(20)) {
        // Integer payloads keep float sums exact.
        let out = run_unary(
            ScalarAggregate::new(SumAgg(|v: &i64| *v as f64)),
            input.clone(),
        );
        let as_int: Vec<Element<i64>> = out.into_iter().map(|e| e.map(|f| f as i64)).collect();
        snapshot::check_unary(&input, &as_int, |s| {
            snapshot::rel::aggregate(s, |v| v.iter().sum::<i64>())
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn grouped_count_snapshot_equivalent(input in arb_bag(20)) {
        let out = run_unary(
            GroupedAggregate::new(|v: &i64| v % 3, CountAgg),
            input.clone(),
        );
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate_by(s, |v| v % 3, |k, vs| (*k, vs.len() as u64))
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn coalesced_aggregate_still_snapshot_equivalent(input in arb_bag(20)) {
        use pipes_graph::OperatorExt;
        let out = run_unary(
            ScalarAggregate::new(CountAgg).then(Coalesce::new()),
            input.clone(),
        );
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        })
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn coalesce_never_increases_rate(input in arb_bag(24)) {
        let plain = run_unary(ScalarAggregate::new(CountAgg), input.clone());
        use pipes_graph::OperatorExt;
        let coalesced = run_unary(
            ScalarAggregate::new(CountAgg).then(Coalesce::new()),
            input,
        );
        prop_assert!(coalesced.len() <= plain.len());
    }

    #[test]
    fn time_window_definition(events in arb_events(24), w in 1u64..30) {
        let out = run_unary(TimeWindow::new(Duration::from_ticks(w)), events.clone());
        prop_assert_eq!(out.len(), events.len());
        let mut sorted = events;
        sorted.sort_by_key(Element::start);
        for (i, e) in out.iter().enumerate() {
            prop_assert_eq!(e.start(), sorted[i].start());
            prop_assert_eq!(e.end(), sorted[i].start() + Duration::from_ticks(w));
        }
    }

    #[test]
    fn count_window_keeps_last_n_valid(events in arb_events(24), n in 1usize..6) {
        let out = run_unary(CountWindow::new(n), events.clone());
        // At any instant after the last arrival, exactly min(n, len) of the
        // elements are valid (ties at equal timestamps may displace early).
        if let Some(last) = events.iter().map(Element::start).max() {
            let t = last.next();
            let valid = out.iter().filter(|e| e.interval.contains(t)).count();
            prop_assert!(valid <= n);
            prop_assert!(valid <= events.len());
            // With all-distinct timestamps it is exactly min(n, len).
            let mut starts: Vec<Timestamp> = events.iter().map(Element::start).collect();
            starts.sort();
            starts.dedup();
            if starts.len() == events.len() {
                prop_assert_eq!(valid, n.min(events.len()));
            }
        }
    }

    // ------------------------------------------------------------------
    // Watermark contract: no operator may emit an element starting before
    // a previously emitted heartbeat, nor regress its heartbeats.
    // ------------------------------------------------------------------

    #[test]
    fn watermark_contract_all_unary(input in arb_bag(20)) {
        check_watermark_contract(&run_unary_messages(Filter::new(|v: &i64| *v > 1), input.clone()))
            .map_err(TestCaseError::fail)?;
        check_watermark_contract(&run_unary_messages(Distinct::new(), input.clone()))
            .map_err(TestCaseError::fail)?;
        check_watermark_contract(&run_unary_messages(ScalarAggregate::new(CountAgg), input.clone()))
            .map_err(TestCaseError::fail)?;
        check_watermark_contract(&run_unary_messages(Coalesce::new(), input.clone()))
            .map_err(TestCaseError::fail)?;
        check_watermark_contract(&run_unary_messages(CountWindow::new(3), input))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn watermark_contract_binary(l in arb_bag(16), r in arb_bag(16)) {
        check_watermark_contract(&run_binary_messages(
            RippleJoin::equi(|x: &i64| *x, |y: &i64| *y, |x, y| (*x, *y)),
            l.clone(),
            r.clone(),
        ))
        .map_err(TestCaseError::fail)?;
        check_watermark_contract(&run_binary_messages(Difference::new(), l, r))
            .map_err(TestCaseError::fail)?;
    }
}
