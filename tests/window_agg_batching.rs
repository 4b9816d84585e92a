//! The paper's window queries from CQL text deliver the same results
//! whatever the batching: NEXMark q3 + q4, FSP traffic q1 + q3 + q4 and
//! FSP q3's grouped aggregate without `EVERY` (flat rows from the partial
//! layouts, naive and then tree), run once with default batching and once
//! one message at a time (`set_batch_limit(1)`), give every sink the same
//! multiset of `(payload, interval)`.
//!
//! Batching changes how the window aggregates fold their rows: a run-native
//! burst of same-interval rows is pre-folded into one accumulator, and once
//! a window is wide the partial-aggregate tree combines accumulators in
//! `(end, seq)` order instead of arrival order. The results still agree
//! bit for bit only because every combine is exact — `AVG(speed)` summed
//! with plain `f64` additions would round differently on the two paths.

use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::{self, Event};
use pipes::prelude::*;
use pipes::traffic::generator::{FspConfig, FspGenerator};
use pipes::traffic::{self, queries as traffic_queries};

/// Generator events per block.
const EVENTS: usize = 8_192;
/// Scheduling quantum of `run_to_completion`.
const QUANTUM: usize = 256;

/// NEXMark bids at 250 ms mean spacing: about 2 400 live bids per
/// 10-minute window, so q3's aggregate converts to the tree.
fn bids(seed: u64) -> Vec<Element<Tuple>> {
    NexmarkGenerator::new(NexmarkConfig {
        seed,
        max_events: EVENTS as u64,
        mean_inter_event_ms: 250.0,
        ..Default::default()
    })
    .filter_map(|ev| match ev {
        Event::Bid(b) => Some(Element::at(b.to_tuple(), b.ts)),
        _ => None,
    })
    .collect()
}

/// Five highway sections, two vehicles per lane and minute: about 42
/// readings per logical second.
fn readings(seed: u64) -> Vec<Element<Tuple>> {
    FspGenerator::new(FspConfig {
        seed,
        duration_secs: 86_400,
        sections: 5,
        base_vehicles_per_min: 2.0,
        incidents_per_hour: 4.0,
        incident_duration_secs: 1200,
        ..Default::default()
    })
    .take(EVENTS)
    .map(|r| r.to_element())
    .collect()
}

/// Compiles `queries` against a catalog holding `block` as `stream`, runs
/// the graph to completion under `batch_limit` (if any), and returns each
/// sink's output as a sorted multiset.
fn run(
    stream: &str,
    schema: Schema,
    block: &[Element<Tuple>],
    queries: &[&str],
    batch_limit: Option<usize>,
) -> Vec<Vec<(Tuple, TimeInterval)>> {
    let mut catalog = Catalog::new();
    let block = block.to_vec();
    catalog.add_stream(
        stream,
        schema,
        1_000.0,
        Box::new(move || Box::new(VecSource::new(block.clone()))),
    );
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let sinks: Vec<_> = queries
        .iter()
        .map(|sql| {
            let plan = compile_cql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let installed = optimizer.install(&plan, &graph, &catalog).unwrap();
            let (sink, out) = CollectSink::new();
            graph.add_sink("sink", sink, &installed.handle);
            out
        })
        .collect();
    if let Some(limit) = batch_limit {
        graph.set_batch_limit(limit);
    }
    graph.run_to_completion(QUANTUM);
    sinks
        .iter()
        .map(|out| {
            let mut got: Vec<(Tuple, TimeInterval)> = out
                .lock()
                .iter()
                .map(|e| (e.payload.clone(), e.interval))
                .collect();
            got.sort();
            got
        })
        .collect()
}

fn assert_batching_invariant(
    stream: &str,
    schema: Schema,
    block: &[Element<Tuple>],
    queries: &[&str],
) {
    let batched = run(stream, schema.clone(), block, queries, None);
    let per_message = run(stream, schema, block, queries, Some(1));
    for (i, (b, p)) in batched.iter().zip(&per_message).enumerate() {
        assert!(!b.is_empty(), "{}: sink delivered nothing", queries[i]);
        assert_eq!(b.len(), p.len(), "{}: result counts differ", queries[i]);
        if let Some((x, y)) = b.iter().zip(p).find(|(x, y)| x != y) {
            panic!(
                "{}: batched and per-message results differ, first at {x:?} vs {y:?}",
                queries[i]
            );
        }
    }
}

#[test]
fn nexmark_window_aggregates_do_not_depend_on_batching() {
    assert_batching_invariant(
        "bid",
        nexmark::bid_schema(),
        &bids(3),
        &[
            nexmark::queries::q3_highest_bid_10min(),
            nexmark::queries::q4_hot_items(),
        ],
    );
}

#[test]
fn traffic_window_aggregates_do_not_depend_on_batching() {
    assert_batching_invariant(
        "traffic",
        traffic::schema(),
        &readings(3),
        &[
            traffic_queries::q1_hov_avg_speed_cql(),
            traffic_queries::q3_section_flow_cql(),
            traffic_queries::q4_truck_share_cql(),
            "SELECT section, COUNT(*) AS vehicles, AVG(speed) AS avg_speed \
             FROM traffic [RANGE 5 MINUTES] GROUP BY section",
        ],
    );
}
