//! Traffic management on synthetic FSP loop-detector data.
//!
//! Reproduces the paper's first demonstration scenario: continuous queries
//! over I-880 loop-detector readings, installed through CQL and the
//! multi-query optimizer, with the performance monitor attached to watch
//! secondary metadata (rates, selectivity, queue lengths) while the graph
//! runs under a real scheduler.
//!
//! Run with: `cargo run --release --example traffic_monitor`

use pipes::prelude::*;
use pipes::traffic::{self, generator::FspConfig, queries};

fn main() {
    // --- register the traffic stream (30 simulated minutes) --------------
    let mut catalog = Catalog::new();
    let config = FspConfig {
        duration_secs: 1800,
        sections: 6,
        base_vehicles_per_min: 2.0,
        incidents_per_hour: 6.0,
        incident_duration_secs: 1200,
        ..Default::default()
    };
    traffic::register(&mut catalog, config);

    // --- install three continuous queries through the optimizer ----------
    let graph = std::sync::Arc::new(QueryGraph::new());
    let mut optimizer = Optimizer::new();

    let q1 = compile_cql(
        "SELECT AVG(speed) AS avg_hov_speed \
         FROM traffic [RANGE 10 MINUTES] \
         WHERE lane = 4 AND direction = 0 \
         EVERY 2 MINUTES",
        &catalog,
    )
    .expect("Q1 parses");
    let q3 = compile_cql(queries::q3_section_flow_cql(), &catalog).expect("Q3 parses");
    let q2 = queries::q2_persistent_slowdown_plan(0, 40.0);

    let r1 = optimizer
        .install(&q1, &graph, &catalog)
        .expect("install Q1");
    let r3 = optimizer
        .install(&q3, &graph, &catalog)
        .expect("install Q3");
    let r2 = optimizer
        .install(&q2, &graph, &catalog)
        .expect("install Q2");
    println!(
        "installed 3 queries: {} nodes created, {} subplans shared",
        r1.created + r2.created + r3.created,
        r1.reused + r2.reused + r3.reused
    );
    println!("\nchosen plan for Q1:\n{}", r1.chosen.pretty());

    let (s1, hov_speeds) = CollectSink::new();
    graph.add_sink("q1:hov-speed", s1, &r1.handle);
    let (s3, flows) = CollectSink::new();
    graph.add_sink("q3:section-flow", s3, &r3.handle);
    let (s2, incidents) = CollectSink::new();
    graph.add_sink("q2:slowdowns", s2, &r2.handle);

    // --- the performance monitor: nothing to register, it samples the ------
    // --- graph's telemetry snapshot ----------------------------------------
    let monitor = Monitor::new();

    // --- run with the Chain scheduler, sampling metadata as we go ---------
    let executor = SingleThreadExecutor::new().with_quantum(128);
    let mut strategy = ChainStrategy::new(64);
    // Sample the monitor on a wall-clock thread while the executor runs.
    let sampled = std::sync::Arc::clone(&graph);
    let guard = monitor.spawn(std::time::Duration::from_millis(20), move || {
        sampled.telemetry()
    });
    let report = executor.run(&graph, &mut strategy);
    guard.stop();

    println!(
        "\nexecution: {} quanta, {} messages, {:.0} elements/s, peak queue {}",
        report.quanta,
        report.consumed,
        report.throughput(),
        report.peak_queue
    );

    // --- results -----------------------------------------------------------
    println!("\nQ1 — average HOV speed toward Oakland (2-minute reports):");
    for e in hov_speeds.lock().iter() {
        if let Value::Float(v) = e.payload[0] {
            println!("  {:>9} → {:>5.1} mph", e.interval.start(), v);
        }
    }

    let flagged: std::collections::BTreeSet<i64> = incidents
        .lock()
        .iter()
        .filter_map(|e| e.payload[0].as_i64())
        .collect();
    println!("\nQ2 — sections slow for 15 consecutive minutes: {flagged:?}");

    println!(
        "\nQ3 — {} section-flow reports collected",
        flows.lock().len()
    );

    // --- the monitoring tool (Figure 3): metadata over time ---------------
    println!("\nsecondary metadata (input rate per node):");
    print!("{}", monitor.render_sparklines(SeriesView::InputRate));
    println!("\nsecondary metadata (queue lengths):");
    print!("{}", monitor.render_sparklines(SeriesView::QueueLen));
}
