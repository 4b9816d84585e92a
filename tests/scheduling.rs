//! Cross-crate scheduling integration: every strategy and both drivers
//! drain the full NEXMark query suite with identical results.

use pipes::nexmark::{self, generator::NexmarkConfig, queries};
use pipes::prelude::*;
use std::sync::Arc;

fn build_suite() -> (Arc<QueryGraph>, Vec<pipes::graph::io::Collected<Tuple>>) {
    let mut cat = Catalog::new();
    nexmark::register(
        &mut cat,
        NexmarkConfig {
            max_events: 3_000,
            mean_inter_event_ms: 300.0,
            ..Default::default()
        },
    );
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let mut bufs = Vec::new();
    for (name, sql) in queries::all() {
        let plan = compile_cql(sql, &cat).unwrap();
        let report = optimizer.install(&plan, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        graph.add_sink(name, sink, &report.handle);
        bufs.push(buf);
    }
    (Arc::new(graph), bufs)
}

fn result_counts(bufs: &[pipes::graph::io::Collected<Tuple>]) -> Vec<usize> {
    bufs.iter().map(|b| b.lock().len()).collect()
}

#[test]
fn all_strategies_agree_on_results() {
    let reference: Vec<usize> = {
        let (graph, bufs) = build_suite();
        let mut s = FifoStrategy;
        SingleThreadExecutor::new().run(&graph, &mut s);
        assert!(graph.all_finished());
        result_counts(&bufs)
    };
    assert!(reference.iter().sum::<usize>() > 0);

    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RoundRobinStrategy::new()),
        Box::new(GreedyStrategy),
        Box::new(ChainStrategy::new(32)),
        Box::new(RateBasedStrategy),
        Box::new(RandomStrategy::new(1234)),
    ];
    for mut s in strategies {
        let (graph, bufs) = build_suite();
        let report = SingleThreadExecutor::new().run(&graph, s.as_mut());
        assert!(graph.all_finished(), "{} stalled", report.strategy);
        assert_eq!(
            result_counts(&bufs),
            reference,
            "{} changed the answers",
            report.strategy
        );
    }
}

#[test]
fn multi_thread_layer_matches_single_thread() {
    let reference: Vec<usize> = {
        let (graph, bufs) = build_suite();
        let mut s = FifoStrategy;
        SingleThreadExecutor::new().run(&graph, &mut s);
        result_counts(&bufs)
    };

    let check = |threads: usize, make: &dyn Fn() -> Box<dyn Strategy>| {
        let (graph, bufs) = build_suite();
        let reports = WorkStealingExecutor::new(threads).run(&graph, make);
        let name = &reports[0].strategy;
        assert_eq!(reports.len(), threads);
        assert!(graph.all_finished(), "{threads}-thread {name} run stalled");
        assert_eq!(
            result_counts(&bufs),
            reference,
            "{threads}-thread {name} run changed the answers"
        );
    };
    // One worker is layer 3 degenerated to layer 2: every strategy must
    // drive the groups exactly as it drives plain nodes.
    check(1, &|| Box::new(FifoStrategy));
    check(1, &|| Box::new(RoundRobinStrategy::new()));
    check(1, &|| Box::new(GreedyStrategy));
    check(1, &|| Box::new(ChainStrategy::new(32)));
    check(1, &|| Box::new(RateBasedStrategy));
    check(1, &|| Box::new(RandomStrategy::new(1234)));
    for threads in [2, 4] {
        check(threads, &|| Box::new(FifoStrategy));
    }
}

#[test]
fn fusion_reduces_node_count_with_identical_results() {
    // The same logical pipeline, once as three queued nodes and once as a
    // single fused virtual node.
    let input: Vec<Element<i64>> = (0..5_000)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect();

    let run_queued = || {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(input.clone()));
        let a = g.add_unary("f1", Filter::new(|v: &i64| v % 2 == 0), &src);
        let b = g.add_unary("f2", Map::new(|v: i64| v + 1), &a);
        let c = g.add_unary("f3", Filter::new(|v: &i64| v % 3 == 0), &b);
        let (sink, buf) = CollectSink::new();
        g.add_sink("out", sink, &c);
        g.run_to_completion(128);
        let out = buf.lock().clone();
        (g.len(), out)
    };
    let run_fused = || {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(input.clone()));
        let fused = Filter::new(|v: &i64| v % 2 == 0)
            .then(Map::new(|v: i64| v + 1))
            .then(Filter::new(|v: &i64| v % 3 == 0));
        let c = g.add_unary("virtual", fused, &src);
        let (sink, buf) = CollectSink::new();
        g.add_sink("out", sink, &c);
        g.run_to_completion(128);
        let out = buf.lock().clone();
        (g.len(), out)
    };

    let (queued_nodes, queued_out) = run_queued();
    let (fused_nodes, fused_out) = run_fused();
    assert_eq!(queued_nodes, 5);
    assert_eq!(fused_nodes, 3);
    assert_eq!(queued_out, fused_out);
    assert!(!fused_out.is_empty());
}
