//! A shared subplan is identified by its plan.
//!
//! The multi-query optimizer reuses a running node only for a subplan equal
//! to the one it published: two queries that differ in one literal's type
//! (`2` against `2.0`) get their own nodes, and each one's rows equal the
//! rows it gives when installed alone. The benchmark's CQL workloads,
//! installed in the benchmark's order, build the pinned nodes with the
//! pinned sharing.

use pipes::nexmark::generator::NexmarkConfig;
use pipes::prelude::*;
use pipes::traffic::generator::FspConfig;
use pipes::traffic::queries as traffic_queries;
use pipes::{nexmark, traffic};

/// A catalog with the NEXMark streams over a small generated block.
fn nexmark_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    nexmark::register(
        &mut catalog,
        NexmarkConfig {
            seed: 7,
            max_events: 2_000,
            mean_inter_event_ms: 250.0,
            ..Default::default()
        },
    );
    catalog
}

/// Installs `sql` into `graph` and adds a collecting sink.
fn install(
    sql: &str,
    optimizer: &mut Optimizer,
    graph: &QueryGraph,
    catalog: &Catalog,
) -> (usize, usize, pipes::graph::io::Collected<Tuple>) {
    let plan = compile_cql(sql, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let r = optimizer.install(&plan, graph, catalog).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &r.handle);
    (r.created, r.reused, out)
}

fn rows(out: &pipes::graph::io::Collected<Tuple>) -> Vec<(Tuple, TimeInterval)> {
    let mut got: Vec<_> = (out.lock().iter())
        .map(|e| (e.payload.clone(), e.interval))
        .collect();
    got.sort();
    got
}

/// `sql`'s rows when it runs alone.
fn solo(sql: &str) -> Vec<(Tuple, TimeInterval)> {
    let catalog = nexmark_catalog();
    let graph = QueryGraph::new();
    let (_, _, out) = install(sql, &mut Optimizer::new(), &graph, &catalog);
    graph.run_to_completion(256);
    rows(&out)
}

/// Installs `first` then `second` into one graph: the second creates
/// `created` nodes of its own, and both deliver their solo rows.
fn assert_distinct_plans(first: &str, second: &str, created: usize) {
    let catalog = nexmark_catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let (_, _, a) = install(first, &mut optimizer, &graph, &catalog);
    let (new, _, b) = install(second, &mut optimizer, &graph, &catalog);
    assert_eq!(new, created, "{second} must not reuse {first}'s nodes");
    graph.run_to_completion(256);
    for (sql, out) in [(first, a), (second, b)] {
        let want = solo(sql);
        assert!(!want.is_empty(), "{sql} delivered nothing");
        assert_eq!(rows(&out), want, "{sql} shared into the wrong rows");
    }
}

#[test]
fn a_literal_of_another_type_is_another_projection() {
    // The bid scan is shared; each query keeps its own `project`.
    assert_distinct_plans(
        "SELECT auction, price * 2 AS x FROM bid",
        "SELECT auction, price * 2.0 AS x FROM bid",
        1,
    );
}

#[test]
fn a_literal_of_another_type_is_another_aggregate() {
    // Scan and window are shared; each query keeps its own aggregate.
    assert_distinct_plans(
        "SELECT SUM(price * 2) AS s FROM bid [RANGE 1 MINUTES]",
        "SELECT SUM(price * 2.0) AS s FROM bid [RANGE 1 MINUTES]",
        1,
    );
}

/// Installs `queries` in order into one graph over a catalog holding
/// `stream` with the benchmark's schema and rate hint; returns each
/// install's `(created, reused)` and the graph's node names.
fn install_in_order(stream: &str, queries: &[String]) -> (Vec<(usize, usize)>, Vec<String>) {
    let (schema, rate_hint) = match stream {
        "bid" => (
            nexmark::bid_schema(),
            NexmarkConfig {
                mean_inter_event_ms: 250.0,
                ..Default::default()
            }
            .events_per_sec()
                * 1000.0
                * 46.0
                / 50.0,
        ),
        _ => (
            traffic::schema(),
            FspConfig {
                sections: 5,
                base_vehicles_per_min: 2.0,
                ..Default::default()
            }
            .expected_rate_per_sec()
                * 1000.0,
        ),
    };
    let mut catalog = Catalog::new();
    catalog.add_stream(
        stream,
        schema,
        rate_hint,
        Box::new(|| Box::new(VecSource::new(Vec::new()))),
    );
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let counts = (queries.iter())
        .map(|sql| {
            let (created, reused, _) = install(sql, &mut optimizer, &graph, &catalog);
            (created, reused)
        })
        .collect();
    let names = (graph.infos().into_iter())
        .filter(|i| !i.removed && i.name != "sink")
        .map(|i| i.name)
        .collect();
    (counts, names)
}

fn texts(queries: &[&str]) -> Vec<String> {
    queries.iter().map(|q| q.to_string()).collect()
}

/// `n` installs that each create `created` nodes and reuse `reused`.
fn times(n: usize, created: usize, reused: usize) -> Vec<(usize, usize)> {
    vec![(created, reused); n]
}

#[test]
fn benchmark_queries_compile_to_pinned_shared_plans() {
    let nexmark_stateless = install_in_order(
        "bid",
        &texts(&[
            nexmark::queries::q1_currency_conversion(),
            nexmark::queries::q2_selection(),
        ]),
    );
    assert_eq!(
        nexmark_stateless,
        (
            vec![(2, 0), (2, 1)],
            texts(&["bid", "project", "filter[((auction % 5) = 0)]", "project"]),
        )
    );

    let nexmark_window_agg = install_in_order(
        "bid",
        &texts(&[
            nexmark::queries::q3_highest_bid_10min(),
            nexmark::queries::q4_hot_items(),
        ]),
    );
    assert_eq!(
        nexmark_window_agg,
        (
            vec![(3, 0), (1, 1)],
            texts(&[
                "bid",
                "window[600000Δ]",
                "aggregate[sampled 600000Δ]",
                "aggregate[grouped, sampled 60000Δ]",
            ]),
        )
    );

    let traffic_window_agg = install_in_order(
        "traffic",
        &texts(&[
            traffic_queries::q1_hov_avg_speed_cql(),
            traffic_queries::q3_section_flow_cql(),
            traffic_queries::q4_truck_share_cql(),
        ]),
    );
    assert_eq!(
        traffic_window_agg,
        (
            vec![(4, 0), (2, 1), (3, 1)],
            texts(&[
                "traffic",
                "filter[((lane = 4) AND (direction = 0))]",
                "window[3600000Δ]",
                "aggregate[sampled 300000Δ]",
                "window[300000Δ]",
                "aggregate[grouped, sampled 60000Δ]",
                "filter[(length > 30)]",
                "window[600000Δ]",
                "aggregate[sampled 120000Δ]",
            ]),
        )
    );

    // The fleet's 200 queries over 50 distinct projections: the first
    // builds scan, filter, window and its project; each other distinct one
    // adds its project; each repeat reuses one.
    let fleet: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "SELECT auction, price * {} AS scaled \
                 FROM bid [RANGE 2 MINUTES] WHERE price > 1000",
                i % 50 + 1
            )
        })
        .collect();
    let (counts, names) = install_in_order("bid", &fleet);
    assert_eq!(
        counts,
        [times(1, 4, 0), times(49, 1, 1), times(150, 0, 1)].concat()
    );
    let mut want = texts(&["bid", "filter[(price > 1000)]", "window[120000Δ]"]);
    want.extend(texts(&["project"; 50]));
    assert_eq!(names, want);
}

#[test]
fn nexmark_queries_installed_twice_share_the_second_time() {
    let catalog = nexmark_catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let mut counts = Vec::new();
    for _ in 0..2 {
        for (_, sql) in nexmark::queries::all() {
            let (created, reused, _) = install(sql, &mut optimizer, &graph, &catalog);
            counts.push((created, reused));
        }
    }
    let first = [
        (1, 0),
        (1, 1),
        (2, 1),
        (2, 1),
        (1, 1),
        (6, 0),
        (3, 1),
        // q7: its join and the sampled grouped aggregate over it (ROADMAP 11(b)).
        (3, 2),
        (4, 1),
    ];
    assert_eq!(counts, [&first[..], &times(9, 0, 1)].concat());
}
