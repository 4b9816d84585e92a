//! Select lists over a CQL grouped window aggregate, which publishes
//! finished rows (key values, then aggregates).
//!
//! * A select list that only renames the aggregate's columns compiles to
//!   no node (`tests/cql_aggregate_tree.rs` checks the benchmark's window
//!   queries); one that reorders them keeps its `project` and gives the
//!   old plan shape's rows — `(key, aggregates)` pairs, flattened,
//!   coalesced, projected, sampled by `Granularity` — at every grid
//!   instant.
//! * Two queries that differ only in their select list share one grouped
//!   aggregate, and uninstalling either one live leaves the other's sink
//!   output exactly as it is when that query runs alone.

use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::{self, queries, Event};
use pipes::optimizer::compile::TupleAggs;
use pipes::optimizer::{AggFunc, AggSpec};
use pipes::prelude::*;

/// q4's aggregate under a select list that reorders its columns.
const Q4_REORDERED: &str = "SELECT COUNT(*) AS n, auction FROM bid [RANGE 10 MINUTES] \
                            GROUP BY auction EVERY 1 MINUTES";

/// The bids of one generator run, about 2 400 live per 10-minute window.
fn bids() -> Vec<Element<Tuple>> {
    NexmarkGenerator::new(NexmarkConfig {
        seed: 11,
        max_events: 8_192,
        mean_inter_event_ms: 250.0,
        ..Default::default()
    })
    .filter_map(|ev| match ev {
        Event::Bid(b) => Some(Element::at(b.to_tuple(), b.ts)),
        _ => None,
    })
    .collect()
}

/// A catalog whose `bid` stream replays `bids`.
fn bid_catalog(bids: &[Element<Tuple>]) -> Catalog {
    let bids = bids.to_vec();
    let mut catalog = Catalog::new();
    catalog.add_stream(
        "bid",
        nexmark::bid_schema(),
        1_000.0,
        Box::new(move || Box::new(VecSource::new(bids.clone()))),
    );
    catalog
}

fn names(graph: &QueryGraph) -> Vec<String> {
    graph.node_ids().map(|id| graph.info(id).name).collect()
}

/// Rows as a multiset per grid instant.
fn per_instant(out: &[Element<Tuple>]) -> Vec<(TimeInterval, Tuple)> {
    let mut rows: Vec<_> = out
        .iter()
        .map(|e| (e.interval, e.payload.clone()))
        .collect();
    rows.sort();
    rows
}

/// `sql` installed alone, run to completion: its sink's output.
fn run_alone(sql: &str, bids: &[Element<Tuple>]) -> Vec<Element<Tuple>> {
    let catalog = bid_catalog(bids);
    let plan = compile_cql(sql, &catalog).unwrap();
    let graph = QueryGraph::new();
    let installed = Optimizer::new().install(&plan, &graph, &catalog).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &installed.handle);
    graph.run_to_completion(256);
    let out = out.lock().clone();
    out
}

#[test]
fn reordering_select_keeps_its_project_and_the_old_rows() {
    let bids = bids();
    let catalog = bid_catalog(&bids);
    let graph = QueryGraph::new();
    let plan = compile_cql(Q4_REORDERED, &catalog).unwrap();
    Optimizer::new().install(&plan, &graph, &catalog).unwrap();
    let names = names(&graph);
    assert!(names.iter().any(|n| n == "project"), "{names:?}");
    assert!(names.iter().any(|n| n.contains("sampled")), "{names:?}");

    // The old shape: `(key, aggregates)` pairs, flattened, coalesced,
    // reordered, then sampled by `Granularity`.
    let schema = nexmark::bid_schema();
    let count = AggSpec {
        func: AggFunc::Count,
        arg: Expr::lit(0i64),
    };
    let aggs = TupleAggs::bind([&count], &schema).unwrap();
    let auction = Expr::col("auction").bind(&schema).unwrap();
    let old = QueryGraph::new();
    let src = old.add_source("bid", VecSource::new(bids.clone()));
    let win = old.add_unary("window", TimeWindow::new(Duration::from_mins(10)), &src);
    let pairs = old.add_unary(
        "aggregate[grouped]",
        GroupedAggregate::new(move |t: &Tuple| vec![auction.eval(t)], aggs),
        &win,
    );
    let rows = old.add_unary(
        "flatten",
        Map::new(|(mut k, aggs): (Vec<Value>, Tuple)| {
            k.extend(aggs);
            k
        }),
        &pairs,
    );
    let coalesced = old.add_unary("coalesce", Coalesce::new(), &rows);
    let reordered = old.add_unary(
        "project",
        Map::new(|t: Tuple| vec![t[1].clone(), t[0].clone()]),
        &coalesced,
    );
    let sampled = old.add_unary(
        "every",
        Granularity::new(Duration::from_mins(1)),
        &reordered,
    );
    let (sink, want) = CollectSink::new();
    old.add_sink("sink", sink, &sampled);
    old.run_to_completion(256);

    let got = run_alone(Q4_REORDERED, &bids);
    assert!(!got.is_empty());
    assert_eq!(per_instant(&got), per_instant(&want.lock()));
}

#[test]
fn select_lists_share_one_grouped_aggregate() {
    let bids = bids();
    let sqls = [queries::q4_hot_items(), Q4_REORDERED];
    let alone = sqls.map(|sql| run_alone(sql, &bids));
    for victim in 0..2 {
        let catalog = bid_catalog(&bids);
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let mut plans = Vec::new();
        let mut sinks = Vec::new();
        let mut created = Vec::new();
        for sql in sqls {
            let plan = compile_cql(sql, &catalog).unwrap();
            let installed = optimizer.install(&plan, &graph, &catalog).unwrap();
            created.push(installed.created);
            let (sink, out) = CollectSink::new();
            sinks.push((graph.add_sink("sink", sink, &installed.handle), out));
            plans.push(plan);
        }
        // Source, window and aggregate, then only the reordering project:
        // q4's renaming select list is no node and counts as none.
        assert_eq!(created, [3, 1]);
        let names = names(&graph);
        let grouped = names
            .iter()
            .filter(|n| n.starts_with("aggregate[grouped"))
            .count();
        assert_eq!(grouped, 1, "{names:?}");

        // Run a while, then uninstall one query live.
        for _ in 0..8 {
            for id in graph.node_ids().collect::<Vec<_>>() {
                graph.step_node(id, 64);
            }
        }
        assert!(!graph.all_finished(), "uninstall after the run ended");
        optimizer.uninstall(&plans[victim], sinks[victim].0, &graph);
        graph.run_to_completion(256);

        let survivor = 1 - victim;
        let got = sinks[survivor].1.lock().clone();
        assert!(!got.is_empty());
        assert_eq!(
            got, alone[survivor],
            "{} after uninstalling {}",
            sqls[survivor], sqls[victim]
        );
    }
}
