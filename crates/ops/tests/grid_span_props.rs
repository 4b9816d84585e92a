//! Property tests: the sampled (grid) aggregate layout over arbitrary
//! intervals. It keeps one accumulator per span of covered grid instants,
//! so an element folds once however many instants it covers, and an
//! instant combines the spans covering it. Per grid instant its rows must
//! equal, as a multiset and bit for bit, what `Granularity` samples from
//! the unsampled aggregate — scalar and grouped, over random interval
//! lengths and periods that do and do not divide them — and its output
//! must not depend on how the graph batches messages.

use pipes_graph::io::{FnSink, VecSource};
use pipes_graph::{Operator, OperatorExt, QueryGraph};
use pipes_ops::aggregate::{AvgAgg, ScalarAggregate, SumAgg};
use pipes_ops::drive::run_unary;
use pipes_ops::{Granularity, GroupedAggregate};
use pipes_sync::{Arc, Mutex};
use pipes_time::{Duration, Element, Message, TimeInterval, Timestamp};
use proptest::prelude::*;

type Row = (i64, i64);

/// One generated input: the sampling period and start-ordered rows
/// `(key, value)`.
#[derive(Clone, Debug)]
struct Case {
    period: Duration,
    rows: Vec<Element<Row>>,
}

/// Random interval lengths: half of them a multiple of the period (a
/// `RANGE k·p` window), the other half arbitrary.
fn arb_case() -> impl Strategy<Value = Case> {
    (
        1u64..16,
        prop::collection::vec(
            (0i64..4, -50i64..50, 0u64..300, 1u64..120, any::<bool>()),
            0..48,
        ),
    )
        .prop_map(|(period, raw)| {
            let mut rows: Vec<Element<Row>> = raw
                .into_iter()
                .map(|(k, v, s, len, aligned)| {
                    let len = if aligned {
                        len.div_ceil(period) * period
                    } else {
                        len
                    };
                    let iv = TimeInterval::new(Timestamp::new(s), Timestamp::new(s + len));
                    Element::new((k, v), iv)
                })
                .collect();
            rows.sort_by_key(|e| e.start());
            Case {
                period: Duration::from_ticks(period),
                rows,
            }
        })
}

/// A non-integral float view of a row's value: sums of these round, so
/// only an exact combine of the spans keeps the bits.
fn tenths(r: &Row) -> f64 {
    r.1 as f64 * 0.1 + 0.01
}

/// Rows as a multiset per grid instant: sorted `(interval, payload)`.
fn per_instant<T: Ord>(out: Vec<Element<T>>) -> Vec<(TimeInterval, T)> {
    let mut rows: Vec<(TimeInterval, T)> =
        out.into_iter().map(|e| (e.interval, e.payload)).collect();
    rows.sort();
    rows
}

/// The elements `op` publishes over the case's rows in a graph, with every
/// node run per message (`set_batch_limit(1)`) or unbounded.
fn through_graph<O>(op: O, case: &Case, per_message: bool) -> Vec<Element<O::Out>>
where
    O: Operator<In = Row>,
    O::Out: Sync,
{
    let g = QueryGraph::new();
    let src = g.add_source("rows", VecSource::new(case.rows.clone()));
    let agg = g.add_unary("aggregate", op, &src);
    let out: Arc<Mutex<Vec<Element<O::Out>>>> = Arc::new(Mutex::new(Vec::new()));
    let into = Arc::clone(&out);
    let sink = FnSink::new(move |m| {
        if let Message::Element(e) = m {
            into.lock().push(e);
        }
    });
    g.add_sink("record", sink, &agg);
    if per_message {
        g.set_batch_limit(1);
    }
    g.run_to_completion(5);
    let out = out.lock().clone();
    out
}

fn scalar_bits(out: Vec<Element<f64>>) -> Vec<Element<u64>> {
    out.into_iter().map(|e| e.map(f64::to_bits)).collect()
}

fn grouped_bits(out: Vec<Element<(i64, f64)>>) -> Vec<Element<(i64, u64)>> {
    out.into_iter()
        .map(|e| e.map(|(k, v)| (k, v.to_bits())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scalar_spans_match_granularity_over_the_aggregate(case in arb_case()) {
        let p = case.period;
        let sampled = run_unary(ScalarAggregate::sampled(SumAgg(tenths), p), case.rows.clone());
        let want = run_unary(
            ScalarAggregate::new(SumAgg(tenths)).then(Granularity::new(p)),
            case.rows.clone(),
        );
        prop_assert_eq!(per_instant(scalar_bits(sampled)), per_instant(scalar_bits(want)));

        let batched = through_graph(ScalarAggregate::sampled(SumAgg(tenths), p), &case, false);
        let single = through_graph(ScalarAggregate::sampled(SumAgg(tenths), p), &case, true);
        prop_assert_eq!(scalar_bits(batched), scalar_bits(single));
    }

    #[test]
    fn grouped_spans_match_granularity_over_the_aggregate(case in arb_case()) {
        let p = case.period;
        let key = |r: &Row| r.0;
        let sampled = run_unary(
            GroupedAggregate::sampled(key, AvgAgg(tenths), p),
            case.rows.clone(),
        );
        let want = run_unary(
            GroupedAggregate::new(key, AvgAgg(tenths)).then(Granularity::new(p)),
            case.rows.clone(),
        );
        prop_assert_eq!(per_instant(grouped_bits(sampled)), per_instant(grouped_bits(want)));

        let batched = through_graph(GroupedAggregate::sampled(key, AvgAgg(tenths), p), &case, false);
        let single = through_graph(GroupedAggregate::sampled(key, AvgAgg(tenths), p), &case, true);
        prop_assert_eq!(grouped_bits(batched), grouped_bits(single));
    }
}
