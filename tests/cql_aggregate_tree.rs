//! Which physical layout the paper's window aggregates run on when compiled
//! from CQL text.
//!
//! * The headline aggregate without `EVERY` — "the highest bid of the
//!   recent 10 minutes" as a continuous result — runs its scalar `MAX` on
//!   the partial-aggregate tree: the CQL aggregate is combinable, so
//!   `AggStrategy::Auto` converts once an insert covers
//!   `TREE_CONVERT_WIDTH` partials. Read from the `agg.finalize`
//!   flight-recorder instants, whose third argument is the tree-layout
//!   flag.
//! * With `EVERY` (NEXMark q3 and q4, FSP q1, q3 and q4) the aggregate is
//!   sampled on the grid inside the aggregate and publishes finished rows:
//!   the compiled plans hold no `every[…]`, `coalesce` or flatten node,
//!   and no `project` either — each of their select lists only renames
//!   the aggregate's columns (`tests/cql_select_lists.rs` covers one that
//!   does not).
//!
//! Lives in its own test binary because it inspects the process-global
//! trace buffer.
#![cfg(not(feature = "trace-off"))]

use pipes::nexmark::generator::NexmarkConfig;
use pipes::nexmark::{self, queries};
use pipes::prelude::*;
use pipes::traffic::generator::FspConfig;
use pipes::traffic::{self, queries as traffic_queries};

fn nexmark_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    // 250 ms mean spacing: about 2 400 live bids per 10-minute window.
    nexmark::register(
        &mut catalog,
        NexmarkConfig {
            max_events: 8_192,
            mean_inter_event_ms: 250.0,
            ..Default::default()
        },
    );
    catalog
}

#[test]
fn cql_max_over_ten_minutes_runs_on_the_tree() {
    let catalog = nexmark_catalog();
    let plan = compile_cql(
        "SELECT MAX(price) AS highest FROM bid [RANGE 10 MINUTES]",
        &catalog,
    )
    .unwrap();
    let graph = QueryGraph::new();
    let installed = Optimizer::new().install(&plan, &graph, &catalog).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &installed.handle);

    pipes::trace::set_enabled(true);
    graph.run_to_completion(256);
    pipes::trace::set_enabled(false);

    assert!(!out.lock().is_empty(), "the query delivered nothing");
    let tree_flags: Vec<u64> = pipes::trace::snapshot()
        .events
        .iter()
        .filter(|e| e.name == pipes::trace::names::AGG_FINALIZE)
        .map(|e| e.args[2])
        .collect();
    assert!(!tree_flags.is_empty(), "no agg.finalize instant recorded");
    assert_eq!(
        tree_flags.last(),
        Some(&1),
        "the scalar aggregate never converted to the tree: {tree_flags:?}"
    );
}

#[test]
fn every_window_query_compiles_onto_the_grid() {
    let nexmark = nexmark_catalog();
    let mut fsp = Catalog::new();
    traffic::register(&mut fsp, FspConfig::default());
    let cases = [
        (&nexmark, queries::q3_highest_bid_10min()),
        (&nexmark, queries::q4_hot_items()),
        (&fsp, traffic_queries::q1_hov_avg_speed_cql()),
        (&fsp, traffic_queries::q3_section_flow_cql()),
        (&fsp, traffic_queries::q4_truck_share_cql()),
    ];
    for (catalog, sql) in cases {
        let plan = compile_cql(sql, catalog).unwrap();
        let graph = QueryGraph::new();
        Optimizer::new().install(&plan, &graph, catalog).unwrap();
        let names: Vec<String> = graph.infos().into_iter().map(|i| i.name).collect();
        for banned in ["every[", "coalesce", "flatten", "project"] {
            assert!(
                names.iter().all(|n| !n.contains(banned)),
                "{sql}: the plan holds a `{banned}` node: {names:?}"
            );
        }
        assert!(
            names.iter().any(|n| n.contains("sampled")),
            "{sql}: no sampled aggregate: {names:?}"
        );
    }
}
