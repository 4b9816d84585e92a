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
//! * With `EVERY` (NEXMark q3, q4 and q7, FSP q1, q3 and q4) the aggregate
//!   is sampled on the grid inside the aggregate and publishes finished
//!   rows: the compiled plans hold no `every[…]`, `coalesce` or flatten
//!   node, and no `project` either — each of their select lists only
//!   renames the aggregate's columns (`tests/cql_select_lists.rs` covers
//!   one that does not). q7 aggregates a join, whose rows live at most as
//!   long as the shorter of its two windows; on the grid it gives the same
//!   rows per instant as `every[…]` over the unsampled aggregate.
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
        (&nexmark, queries::q7_avg_price_per_category()),
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

/// Each row of `out` with its interval, sorted: the multiset of rows per
/// grid instant.
fn per_instant(out: &pipes::graph::io::Collected<Tuple>) -> Vec<(TimeInterval, Tuple)> {
    let mut rows: Vec<_> = (out.lock().iter())
        .map(|e| (e.interval, e.payload.clone()))
        .collect();
    rows.sort();
    rows
}

#[test]
fn q7_on_the_grid_matches_every_over_its_aggregate() {
    let catalog = nexmark_catalog();
    let q7 = queries::q7_avg_price_per_category();
    let twin = q7.replace(" EVERY 2 MINUTES", "");
    assert_ne!(twin, q7);
    // Installed after its un-`EVERY` twin, q7 reuses the twin's aggregate
    // and samples it with `every[…]`; installed alone, it runs on the grid.
    let run = |sqls: &[&str]| {
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let mut out = None;
        for sql in sqls {
            let plan = compile_cql(sql, &catalog).unwrap();
            let r = optimizer.install(&plan, &graph, &catalog).unwrap();
            let (sink, buf) = CollectSink::new();
            graph.add_sink("sink", sink, &r.handle);
            out = Some(buf);
        }
        let names: Vec<String> = graph.infos().into_iter().map(|i| i.name).collect();
        graph.run_to_completion(256);
        (names, per_instant(&out.unwrap()))
    };
    let (shared, sampled) = run(&[&twin, q7]);
    let (alone, gridded) = run(&[q7]);
    assert!(shared.iter().any(|n| n.starts_with("every[")), "{shared:?}");
    assert!(shared.iter().all(|n| !n.contains("sampled")), "{shared:?}");
    assert!(alone.iter().all(|n| !n.starts_with("every[")), "{alone:?}");
    assert!(!gridded.is_empty(), "q7 delivered nothing");
    assert_eq!(gridded, sampled);
}
