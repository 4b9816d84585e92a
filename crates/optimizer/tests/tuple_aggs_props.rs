//! Property tests for the CQL aggregate `TupleAggs` (`COUNT`, `SUM`, `AVG`,
//! `MIN`, `MAX` side by side) over random `Value` rows — ints, non-integral
//! floats, ±0.0, NULL, strings, Int/Float ties, large cancelling floats and
//! the odd infinity or NaN:
//!
//! * every configuration — scalar and grouped × `Naive` / `Tree` / `Auto`
//!   (with a mid-stream conversion whenever the trace opens with a wide
//!   ramp) × per-message callbacks and run-native same-interval bursts —
//!   emits the byte-identical `(payload, interval)` sequence;
//! * that output is snapshot-equivalent to the relational aggregate of each
//!   input snapshot (`pipes_time::snapshot`).
//!
//! Byte identity is what `Value`'s equality checks: floats compare by
//! `total_cmp`, so `-0.0 != 0.0` and two NaNs are equal only bit for bit.

use pipes_graph::Operator;
use pipes_ops::aggregate::{AggStrategy, ExactSum, ScalarAggregate};
use pipes_ops::drive::{feed_messages, feed_runs};
use pipes_ops::GroupedAggregate;
use pipes_optimizer::compile::TupleAggs;
use pipes_optimizer::{AggFunc, AggSpec, Expr, Schema, Tuple, Value};
use pipes_time::{snapshot, Element, Message, TimeInterval, Timestamp};
use proptest::prelude::*;
use std::cmp::Ordering;

const STRATEGIES: [AggStrategy; 3] = [AggStrategy::Naive, AggStrategy::Tree, AggStrategy::Auto];

/// `COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x)` over rows `(k, x)`.
fn aggs() -> TupleAggs {
    let calls: Vec<AggSpec> = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ]
    .into_iter()
    .map(|func| AggSpec {
        func,
        arg: Expr::col("x"),
    })
    .collect();
    TupleAggs::bind(&calls, &Schema::of(&["k", "x"])).expect("binds")
}

fn key(t: &Tuple) -> Value {
    t[0].clone()
}

fn scalar(strategy: AggStrategy) -> ScalarAggregate<Tuple, TupleAggs> {
    ScalarAggregate::with_strategy(aggs(), strategy)
}

#[allow(clippy::type_complexity)]
fn grouped(
    strategy: AggStrategy,
) -> GroupedAggregate<Tuple, Value, fn(&Tuple) -> Value, TupleAggs> {
    GroupedAggregate::with_strategy(key as fn(&Tuple) -> Value, aggs(), strategy)
}

/// One `x`: mostly ints and non-integral floats, with ±0.0, NULL, strings,
/// floats equal to some int, ±1e16 (which swallow and then give back small
/// addends), and a rare infinity or NaN.
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..100, -40i64..40, 0usize..4).prop_map(|(kind, n, f)| match kind {
        0..=9 => Value::Null,
        10..=34 => Value::Int(n),
        35..=64 => Value::Float(n as f64 * [0.1, 0.3, 1e-3, 7.7][f]),
        65..=71 => Value::Float(if n % 2 == 0 { 0.0 } else { -0.0 }),
        72..=81 => Value::Float(n as f64),
        82..=91 => Value::str(["a", "b", "c", "ab"][f]),
        92..=98 => Value::Float(if n % 2 == 0 { 1e16 } else { -1e16 }),
        _ => Value::Float([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5][f]),
    })
}

/// A random, watermark-valid trace of rows `(k, x)`. Bursts share one
/// interval (keys vary inside a burst, so grouped runs see both single- and
/// multi-row groups), and heartbeats follow bursts at their start
/// (sometimes twice). No two *different* watermarks are ever adjacent, so
/// the run path's heartbeat coalescing drops no split the per-message path
/// makes; end of stream flushes the rest. With `ramp`, 60 rows of key 0 open the
/// trace on staggered 200-tick windows: the 49th covers 48 partials, so
/// `Auto` converts to the tree mid-stream, scalar and for group 0.
fn arb_trace() -> impl Strategy<Value = Vec<Message<Tuple>>> {
    (
        any::<bool>(),
        prop::collection::vec(arb_value(), 60),
        prop::collection::vec(
            (
                0u64..100,
                1u64..80,
                prop::collection::vec((0i64..3, arb_value()), 1..4),
                any::<bool>(),
                any::<bool>(),
            ),
            0..40,
        ),
    )
        .prop_map(|(ramp, ramp_xs, mut bursts)| {
            let mut msgs: Vec<Message<Tuple>> = Vec::new();
            let offset = if ramp { 60 } else { 0 };
            if ramp {
                for (i, x) in ramp_xs.into_iter().enumerate() {
                    let s = Timestamp::new(i as u64);
                    let iv = TimeInterval::new(s, Timestamp::new(i as u64 + 200));
                    msgs.push(Message::Element(Element::new(vec![Value::Int(0), x], iv)));
                }
            }
            bursts.sort_by_key(|&(s, ..)| s);
            for (s, len, rows, hb, dup) in bursts {
                let s = s + offset;
                let iv = TimeInterval::new(Timestamp::new(s), Timestamp::new(s + len));
                for (k, x) in rows {
                    msgs.push(Message::Element(Element::new(vec![Value::Int(k), x], iv)));
                }
                if hb {
                    msgs.push(Message::Heartbeat(Timestamp::new(s)));
                    if dup {
                        msgs.push(Message::Heartbeat(Timestamp::new(s)));
                    }
                }
            }
            msgs
        })
}

/// Random run-boundary pattern: chunk sizes cycled over the trace.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..8, 1..24)
}

fn elements<T: Clone>(msgs: &[Message<T>]) -> Vec<Element<T>> {
    msgs.iter()
        .filter_map(|m| m.clone().into_element())
        .collect()
}

/// Runs `make(strategy)` on every strategy and both paths; asserts the
/// full message sequences agree per path and the element sequences agree
/// across paths. Returns the (common) element sequence.
fn all_configs_agree<O, F>(
    make: F,
    msgs: &[Message<O::In>],
    cuts: &[usize],
) -> Result<Vec<Element<O::Out>>, TestCaseError>
where
    O: Operator,
    O::In: Clone,
    O::Out: Clone + PartialEq + std::fmt::Debug,
    F: Fn(AggStrategy) -> O,
{
    let per_message = feed_messages(make(AggStrategy::Naive), msgs);
    let on_run = feed_runs(make(AggStrategy::Naive), msgs, cuts);
    for strategy in STRATEGIES {
        prop_assert_eq!(
            &feed_messages(make(strategy), msgs),
            &per_message,
            "{:?}, per message",
            strategy
        );
        prop_assert_eq!(
            &feed_runs(make(strategy), msgs, cuts),
            &on_run,
            "{:?}, on run",
            strategy
        );
    }
    let out = elements(&per_message);
    prop_assert_eq!(&elements(&on_run), &out, "per message vs on run");
    Ok(out)
}

/// The relational reference over one snapshot's rows: SUM/AVG as the
/// exact sum rounded once (NULL and strings add 0); MIN/MAX over the
/// non-NULL values, SQL order first and `Value`'s order on ties.
fn reference(rows: &[Tuple]) -> Tuple {
    let mut sum = ExactSum::new();
    for t in rows {
        sum.add(t[1].as_f64().unwrap_or(0.0));
    }
    let mut present: Vec<&Value> = rows
        .iter()
        .map(|t| &t[1])
        .filter(|x| !matches!(x, Value::Null))
        .collect();
    present.sort_by(|a, b| {
        a.sql_cmp(b)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    let n = rows.len();
    vec![
        Value::Int(n as i64),
        Value::Float(sum.value()),
        Value::Float(sum.value() / n as f64),
        present.first().map_or(Value::Null, |v| (*v).clone()),
        present.last().map_or(Value::Null, |v| (*v).clone()),
    ]
}

/// Rows `xs` at one instant through `SUM(x), AVG(x)` on the tree.
fn sum_avg_of(xs: &[f64]) -> (f64, f64) {
    let iv = TimeInterval::new(Timestamp::new(0), Timestamp::new(10));
    let msgs: Vec<Message<Tuple>> = xs
        .iter()
        .map(|&x| Message::Element(Element::new(vec![Value::Int(0), Value::Float(x)], iv)))
        .collect();
    let out = elements(&feed_messages(scalar(AggStrategy::Tree), &msgs));
    let [Value::Float(sum), Value::Float(avg)] = [&out[0].payload[1], &out[0].payload[2]] else {
        panic!("SUM and AVG are floats: {out:?}");
    };
    (*sum, *avg)
}

#[test]
fn sums_through_tuple_aggs_are_exact() {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    for xs in [
        [1e100, 1.0, -1e100],
        [1.0, -1e100, 1e100],
        [-1e100, 1e100, 1.0],
    ] {
        assert!(same(sum_avg_of(&xs).0, 1.0), "{xs:?}");
    }
    let (sum, avg) = sum_avg_of(&[0.1; 10]);
    assert!(same(sum, 1.0) && same(avg, 0.1));
    assert!(same(sum_avg_of(&[f64::INFINITY, 1.0]).0, f64::INFINITY));
    assert!(sum_avg_of(&[f64::INFINITY, f64::NEG_INFINITY]).0.is_nan());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scalar_configurations_agree_and_match_snapshots(msgs in arb_trace(), cuts in arb_cuts()) {
        let out = all_configs_agree(scalar, &msgs, &cuts)?;
        let input = elements(&msgs);
        snapshot::check_unary(&input, &out, |s| snapshot::rel::aggregate(s, reference))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn grouped_configurations_agree_and_match_snapshots(msgs in arb_trace(), cuts in arb_cuts()) {
        let out = all_configs_agree(grouped, &msgs, &cuts)?;
        let input = elements(&msgs);
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate_by(s, key, |k, rows| (k.clone(), reference(rows)))
        })
        .map_err(TestCaseError::fail)?;
    }
}
