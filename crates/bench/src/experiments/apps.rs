//! E1, E10, E11 — the assembled DSMS prototype and the two application
//! scenarios.

use crate::{f, ms, table};
use pipes::nexmark::{self, generator::NexmarkConfig, queries as nex_queries};
use pipes::prelude::*;
use pipes::traffic::{self, generator::FspConfig, queries as traffic_queries};
use std::time::Instant;

fn traffic_config(secs: u64) -> FspConfig {
    FspConfig {
        duration_secs: secs,
        sections: 5,
        base_vehicles_per_min: 2.0,
        incidents_per_hour: 4.0,
        incident_duration_secs: 1200,
        ..Default::default()
    }
}

fn nexmark_config(events: u64) -> NexmarkConfig {
    NexmarkConfig {
        max_events: events,
        mean_inter_event_ms: 250.0,
        ..Default::default()
    }
}

/// E1 — the full prototype: both scenarios, several queries each, one
/// graph, one scheduler, the optimizer sharing what it can.
pub fn e1_architecture(quick: bool) {
    let (secs, events) = if quick { (300, 3_000) } else { (1200, 12_000) };
    let mut cat = Catalog::new();
    traffic::register(&mut cat, traffic_config(secs));
    nexmark::register(&mut cat, nexmark_config(events));

    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let mut installed = 0;
    let mut created = 0;
    let mut reused = 0;
    let mut sinks = Vec::new();
    let queries: Vec<(&str, String)> = vec![
        (
            "traffic/hov",
            traffic_queries::q1_hov_avg_speed_cql().into(),
        ),
        (
            "traffic/flow",
            traffic_queries::q3_section_flow_cql().into(),
        ),
        (
            "auction/highest",
            nex_queries::q3_highest_bid_10min().into(),
        ),
        ("auction/hot", nex_queries::q4_hot_items().into()),
        ("auction/join", nex_queries::q5_bid_auction_join().into()),
    ];
    for (name, sql) in &queries {
        let plan = pipes::cql::compile_cql(sql, &cat).expect("parses");
        let r = optimizer.install(&plan, &graph, &cat).expect("installs");
        created += r.created;
        reused += r.reused;
        installed += 1;
        let (sink, buf) = CollectSink::new();
        graph.add_sink(name, sink, &r.handle);
        sinks.push((*name, buf));
    }

    let graph = std::sync::Arc::new(graph);
    let start = Instant::now();
    let reports = WorkStealingExecutor::new(2)
        .with_quantum(128)
        .run(&graph, || Box::new(FifoStrategy));
    let wall = start.elapsed();
    let consumed = ExecutionReport::merge(&reports).consumed;

    let mut rows = Vec::new();
    for (name, buf) in &sinks {
        rows.push(vec![name.to_string(), buf.lock().len().to_string()]);
    }
    table(
        "E1 — assembled DSMS prototype: results per query",
        &["query", "rows"],
        &rows,
    );
    table(
        "E1 — run summary",
        &[
            "queries", "nodes", "created", "reused", "messages", "wall ms", "kmsg/s",
        ],
        &[vec![
            installed.to_string(),
            graph.len().to_string(),
            created.to_string(),
            reused.to_string(),
            consumed.to_string(),
            ms(wall),
            f(consumed as f64 / wall.as_secs_f64() / 1000.0, 0),
        ]],
    );
    for (name, buf) in &sinks {
        assert!(!buf.lock().is_empty(), "{name} produced nothing");
    }
    println!("shape check: every query of both domains produces results in one shared graph.");
}

/// E10 — traffic queries: latency/volume plus incident-detection accuracy
/// against the generator's ground-truth schedule.
pub fn e10_traffic(quick: bool) {
    let secs = if quick { 1200 } else { 3600 };
    // Seed 1 schedules an Oakland-bound incident ~218 s in, long enough
    // for Q2's 15-minute persistence criterion even in the quick run.
    let cfg = FspConfig {
        seed: 1,
        incidents_per_hour: 6.0,
        incident_duration_secs: 1500,
        ..traffic_config(secs)
    };
    let schedule = traffic::generator::FspGenerator::new(cfg.clone()).incident_schedule();
    let mut cat = Catalog::new();
    traffic::register(&mut cat, cfg);

    let mut rows = Vec::new();
    let plans = vec![
        (
            "q1 hov avg speed",
            pipes::cql::compile_cql(traffic_queries::q1_hov_avg_speed_cql(), &cat).unwrap(),
        ),
        (
            "q2 slowdown",
            traffic_queries::q2_persistent_slowdown_plan(0, 40.0),
        ),
        (
            "q3 section flow",
            pipes::cql::compile_cql(traffic_queries::q3_section_flow_cql(), &cat).unwrap(),
        ),
        (
            "q4 truck share",
            pipes::cql::compile_cql(traffic_queries::q4_truck_share_cql(), &cat).unwrap(),
        ),
    ];
    let mut flagged: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
    for (name, plan) in plans {
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let r = optimizer.install(&plan, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &r.handle);
        let start = Instant::now();
        let mut strat = FifoStrategy;
        let report = SingleThreadExecutor::new()
            .with_quantum(256)
            .run(&graph, &mut strat);
        let wall = start.elapsed();
        if name.starts_with("q2") {
            flagged = buf
                .lock()
                .iter()
                .filter_map(|e| e.payload[0].as_i64())
                .collect();
        }
        rows.push(vec![
            name.to_string(),
            buf.lock().len().to_string(),
            report.consumed.to_string(),
            ms(wall),
        ]);
    }
    table(
        &format!("E10 — traffic queries over {secs} simulated seconds"),
        &["query", "rows", "messages", "wall ms"],
        &rows,
    );

    let oakland: Vec<u16> = schedule
        .iter()
        .filter(|(_, _, _, d)| *d == traffic::Direction::Oakland)
        .map(|(_, _, s, _)| *s)
        .collect();
    println!("ground-truth Oakland-bound incidents at sections: {oakland:?}");
    println!("q2 flagged sections (speed < 40 mph for 15 min): {flagged:?}");
}

/// E11 — the NEXMark suite end-to-end.
pub fn e11_nexmark(quick: bool) {
    let events = if quick { 4_000 } else { 20_000 };
    let mut cat = Catalog::new();
    nexmark::register(&mut cat, nexmark_config(events));

    let mut rows = Vec::new();
    for (name, sql) in nex_queries::all() {
        let plan = pipes::cql::compile_cql(sql, &cat).unwrap();
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let r = optimizer.install(&plan, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &r.handle);
        let start = Instant::now();
        let mut strat = FifoStrategy;
        let report = SingleThreadExecutor::new()
            .with_quantum(256)
            .run(&graph, &mut strat);
        let wall = start.elapsed();
        rows.push(vec![
            name.to_string(),
            buf.lock().len().to_string(),
            report.consumed.to_string(),
            ms(wall),
            f(report.consumed as f64 / wall.as_secs_f64() / 1000.0, 0),
        ]);
    }
    table(
        &format!("E11 — NEXMark query suite, {events} events"),
        &["query", "rows", "messages", "wall ms", "kmsg/s"],
        &rows,
    );
}
