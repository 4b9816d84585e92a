//! End-to-end integration: CQL → optimizer → graph → scheduler → sinks,
//! across crates.

use pipes::nexmark::{self, generator::NexmarkConfig};
use pipes::prelude::*;
use pipes::traffic::{self, generator::FspConfig};
use std::collections::HashMap;

fn nexmark_catalog() -> Catalog {
    let mut cat = Catalog::new();
    nexmark::register(
        &mut cat,
        NexmarkConfig {
            max_events: 4_000,
            mean_inter_event_ms: 250.0,
            ..Default::default()
        },
    );
    cat
}

#[test]
fn full_dsms_prototype_both_scenarios() {
    // The architecture experiment in miniature: sources, operators, sinks,
    // optimizer and scheduler assembled from the toolkit blocks.
    let mut cat = nexmark_catalog();
    traffic::register(
        &mut cat,
        FspConfig {
            duration_secs: 120,
            sections: 3,
            base_vehicles_per_min: 2.0,
            ..Default::default()
        },
    );

    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let q_auction = compile_cql(
        "SELECT MAX(price) AS highest FROM bid [RANGE 2 MINUTES] EVERY 2 MINUTES",
        &cat,
    )
    .unwrap();
    let q_traffic = compile_cql(
        "SELECT section, COUNT(*) AS n FROM traffic [RANGE 1 MINUTES] GROUP BY section EVERY 30 SECONDS",
        &cat,
    )
    .unwrap();
    let r1 = optimizer.install(&q_auction, &graph, &cat).unwrap();
    let r2 = optimizer.install(&q_traffic, &graph, &cat).unwrap();
    let (s1, bids) = CollectSink::new();
    let (s2, flows) = CollectSink::new();
    graph.add_sink("bids", s1, &r1.handle);
    graph.add_sink("flows", s2, &r2.handle);

    let mut strategy = FifoStrategy;
    let report = SingleThreadExecutor::new().run(&graph, &mut strategy);
    assert!(graph.all_finished());
    assert!(report.consumed > 0);
    assert!(!bids.lock().is_empty(), "auction query produced nothing");
    assert!(!flows.lock().is_empty(), "traffic query produced nothing");
}

#[test]
fn cql_results_match_naive_snapshot_semantics() {
    // Register a tiny deterministic stream, run a CQL aggregate through
    // the full stack, and compare against the snapshot reference evaluator.
    let mut cat = Catalog::new();
    let data: Vec<Element<Tuple>> = (0..30i64)
        .map(|i| {
            Element::at(
                vec![Value::Int(i % 3), Value::Int(i)],
                Timestamp::new(i as u64),
            )
        })
        .collect();
    let data2 = data.clone();
    cat.add_stream(
        "s",
        Schema::of(&["k", "v"]),
        10.0,
        Box::new(move || Box::new(VecSource::new(data2.clone()))),
    );

    let plan = compile_cql("SELECT COUNT(*) AS n FROM s [RANGE 10 TICKS]", &cat).unwrap();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let report = optimizer.install(&plan, &graph, &cat).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("out", sink, &report.handle);
    graph.run_to_completion(64);

    // Reference: count of window-valid inputs per instant.
    let windowed: Vec<Element<i64>> = data
        .iter()
        .map(|e| {
            Element::new(
                e.payload[1].as_i64().unwrap(),
                TimeInterval::window(e.start(), Duration::from_ticks(10)),
            )
        })
        .collect();
    let produced: Vec<Element<i64>> = out
        .lock()
        .iter()
        .map(|e| Element::new(e.payload[0].as_i64().unwrap(), e.interval))
        .collect();
    pipes::time::snapshot::check_unary(&windowed, &produced, |snap| {
        pipes::time::snapshot::rel::aggregate(snap, |v| v.len() as i64)
    })
    .unwrap();
}

/// Rows of `sql` over the 4 000-event NEXMark catalog, run to completion.
fn cql_rows(sql: &str) -> usize {
    let cat = nexmark_catalog();
    let plan = compile_cql(sql, &cat).unwrap();
    let graph = QueryGraph::new();
    let report = Optimizer::new().install(&plan, &graph, &cat).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("out", sink, &report.handle);
    graph.run_to_completion(64);
    let rows = out.lock().len();
    rows
}

#[test]
fn cql_or_keeps_a_row_whose_other_side_is_unknown() {
    // `price` is an Int, so `price / 0` is NULL and its comparison UNKNOWN;
    // SQL's `TRUE OR UNKNOWN` is TRUE, so every bid passes.
    let all = cql_rows("SELECT auction FROM bid [NOW]");
    assert!(all > 0);
    let kept = cql_rows("SELECT auction FROM bid [NOW] WHERE auction = auction OR price / 0 = 1");
    assert_eq!(kept, all);
}

#[test]
fn mqo_splices_into_running_graph() {
    let cat = nexmark_catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();

    let q1 = compile_cql("SELECT auction, price FROM bid WHERE price > 1000", &cat).unwrap();
    let r1 = optimizer.install(&q1, &graph, &cat).unwrap();
    let (s1, out1) = CollectSink::new();
    graph.add_sink("q1", s1, &r1.handle);

    // Run the graph partially.
    for _ in 0..5 {
        for id in 0..graph.len() {
            graph.step_node(id, 32);
        }
    }
    let partial = out1.lock().len();

    // Splice a second, overlapping query into the RUNNING graph.
    let q2 = compile_cql("SELECT auction, price FROM bid WHERE price > 5000", &cat).unwrap();
    let before = graph.len();
    let r2 = optimizer.install(&q2, &graph, &cat).unwrap();
    assert!(r2.reused >= 1, "expected subplan sharing: {r2:?}");
    assert!(graph.len() > before, "new filter node expected");
    let (s2, out2) = CollectSink::new();
    graph.add_sink("q2", s2, &r2.handle);

    graph.run_to_completion(64);
    assert!(out1.lock().len() > partial);
    // The late query only saw the suffix, and with a stricter predicate.
    assert!(out2.lock().len() <= out1.lock().len());
    for e in out2.lock().iter() {
        assert!(e.payload[1].as_i64().unwrap() > 5000);
    }
}

#[test]
fn plan_persistence_roundtrip_preserves_results() {
    let cat = nexmark_catalog();
    let plan = compile_cql(
        "SELECT auction, COUNT(*) AS n FROM bid [RANGE 1 MINUTES] GROUP BY auction",
        &cat,
    )
    .unwrap();

    // Persist → parse → both plans must compile and agree exactly.
    let text = pipes::optimizer::sexpr::to_string(&plan);
    let reloaded = pipes::optimizer::sexpr::from_str(&text).unwrap();
    assert_eq!(plan, reloaded);

    let run = |p: &LogicalPlan| -> Vec<Tuple> {
        let graph = QueryGraph::new();
        let mut installed = HashMap::new();
        let mut ctx = pipes::optimizer::CompileContext::new(&graph, &cat, &mut installed);
        let handle = pipes::optimizer::compile(p, &mut ctx).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &handle);
        graph.run_to_completion(64);
        let r = buf.lock().iter().map(|e| e.payload.clone()).collect();
        r
    };
    assert_eq!(run(&plan), run(&reloaded));
}

#[test]
fn monitor_composition_altered_at_runtime() {
    let cat = nexmark_catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let plan = compile_cql("SELECT price FROM bid WHERE price > 500", &cat).unwrap();
    let r = optimizer.install(&plan, &graph, &cat).unwrap();
    let (sink, _) = CollectSink::new();
    graph.add_sink("out", sink, &r.handle);

    // Decorate the filter node with a metadata recipe.
    let filter_id = graph
        .infos()
        .into_iter()
        .find(|i| i.name.starts_with("filter"))
        .expect("filter node exists")
        .id;
    let stats = graph.stats(filter_id);
    use pipes::meta::EstimatorSpec;
    let recipe = MetadataFactory::new()
        .with("selectivity", EstimatorSpec::MeanVar)
        .with("rate", EstimatorSpec::Ewma(0.3));
    stats.with_metrics(|m| recipe.apply(m));

    // Run a while, feeding observations.
    for _ in 0..10 {
        for id in 0..graph.len() {
            graph.step_node(id, 64);
        }
        let snap = stats.snapshot();
        if let Some(sel) = snap.selectivity() {
            stats.with_metrics(|m| m.observe("selectivity", sel));
        }
    }
    let sel = stats.with_metrics(|m| m.value("selectivity"));
    assert!(sel.is_some());
    assert!(sel.unwrap() > 0.0 && sel.unwrap() <= 1.5);

    // Alter the composition at runtime: drop the rate estimator.
    let slimmer = recipe.without("rate");
    stats.with_metrics(|m| slimmer.apply(m));
    assert_eq!(stats.with_metrics(|m| m.names().len()), 1);
}

#[test]
fn memory_manager_bounds_join_state_with_graceful_degradation() {
    let cat = nexmark_catalog();
    let build = || {
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let plan = compile_cql(
            "SELECT b.price, a.category \
             FROM bid [RANGE 5 MINUTES] AS b, auction [RANGE 5 MINUTES] AS a \
             WHERE b.auction = a.id",
            &cat,
        )
        .unwrap();
        let r = optimizer.install(&plan, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink("out", sink, &r.handle);
        let join_id = graph
            .infos()
            .into_iter()
            .find(|i| i.name.starts_with("join"))
            .expect("join node")
            .id;
        (graph, buf, join_id)
    };

    // Unbounded run.
    let (g1, full, _) = build();
    g1.run_to_completion(64);
    let full_results = full.lock().len();

    // Bounded run with a tight budget.
    let (g2, approx, join_id) = build();
    let mut manager = MemoryManager::new(50, AssignmentStrategy::Uniform);
    manager.subscribe(join_id);
    let mut peak_after = 0usize;
    while !g2.all_finished() {
        for id in 0..g2.len() {
            g2.step_node(id, 32);
        }
        let report = manager.rebalance(&g2);
        peak_after = peak_after.max(report.usage_after);
    }
    let approx_results = approx.lock().len();

    assert!(peak_after <= 50, "budget violated: {peak_after}");
    assert!(
        approx_results < full_results,
        "shedding must lose some results"
    );
    assert!(
        approx_results > 0,
        "approximate answers should still produce output"
    );
}
