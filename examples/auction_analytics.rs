//! Online-auction analytics (NEXMark) with multi-query optimization.
//!
//! Reproduces the paper's second demonstration scenario: several CQL
//! queries over the auction event streams — including the headline "return
//! every 10 minutes the highest bid in the recent 10 minutes" and a
//! stream–relation join against the persistent person table — installed
//! one after another into the *same running graph*, so overlapping
//! subplans are shared by the multi-query optimizer.
//!
//! Run with: `cargo run --release --example auction_analytics`

use pipes::nexmark::{self, generator::NexmarkConfig, queries};
use pipes::prelude::*;

fn main() {
    let mut catalog = Catalog::new();
    nexmark::register(
        &mut catalog,
        NexmarkConfig {
            max_events: 20_000,
            mean_inter_event_ms: 120.0,
            ..Default::default()
        },
    );

    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let mut sinks = Vec::new();

    println!("installing the NEXMark query suite:");
    for (name, sql) in queries::all() {
        let plan = compile_cql(sql, &catalog).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = optimizer
            .install(&plan, &graph, &catalog)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (sink, buf) = CollectSink::new();
        graph.add_sink(name, sink, &report.handle);
        println!(
            "  {name:<28} +{} nodes, {} shared, est. cost {:>10.0}",
            report.created, report.reused, report.estimate.cost
        );
        sinks.push((name, buf));
    }
    println!(
        "graph: {} nodes for {} queries (a fresh graph per query would need many more)",
        graph.len(),
        sinks.len()
    );

    // Run everything on two worker threads (layer 3 of the scheduler).
    let graph = std::sync::Arc::new(graph);
    let reports = WorkStealingExecutor::new(2)
        .with_quantum(128)
        .run(&graph, || Box::new(FifoStrategy));
    let total = ExecutionReport::merge(&reports).consumed;
    println!(
        "\nprocessed {total} messages across {} threads",
        reports.len()
    );

    println!("\nresults:");
    for (name, buf) in &sinks {
        let rows = buf.lock();
        println!("  {name:<28} {} result rows", rows.len());
    }

    // Show the headline query's answers.
    let highest = &sinks
        .iter()
        .find(|(n, _)| *n == "q3_highest_bid")
        .expect("installed above")
        .1;
    println!("\nhighest bid per 10-minute period:");
    for e in highest.lock().iter() {
        if let Some(cents) = e.payload[0].as_i64() {
            println!(
                "  {:>10} → ${:>9.2}",
                e.interval.start(),
                cents as f64 / 100.0
            );
        }
    }

    // And a taste of the stream–relation join.
    let enriched = &sinks
        .iter()
        .find(|(n, _)| *n == "q6_bid_with_person")
        .expect("installed above")
        .1;
    println!("\nfirst bids enriched with person data (persistent relation):");
    for e in enriched.lock().iter().take(5) {
        println!(
            "  auction {} at {} by {} from {}",
            e.payload[0], e.payload[1], e.payload[2], e.payload[3]
        );
    }
}
