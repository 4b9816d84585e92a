//! Exporter integration: a live kernel trace renders to valid Chrome
//! trace JSON, and the latency pipeline surfaces per-sink quantiles
//! through `NodeStats` into the Prometheus dump.
#![cfg(not(feature = "trace-off"))]

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::QueryGraph;
use pipes_sched::{RoundRobinStrategy, SingleThreadExecutor};
use pipes_time::{Element, Timestamp};
use pipes_trace::chrome::{chrome_trace_json, validate_json};

fn elems(n: i64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect()
}

#[test]
fn live_kernel_trace_exports_to_valid_chrome_json() {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems(300)));
    let (sink, _) = CollectSink::new();
    g.add_sink("sink", sink, &src);
    let mut strategy = RoundRobinStrategy::new();
    SingleThreadExecutor::new().run(&g, &mut strategy);

    let trace = pipes_trace::snapshot();
    assert!(!trace.events.is_empty());
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("exporter must emit valid JSON");
    assert!(json.contains(pipes_trace::names::NODE_STEP));
    assert!(json.contains(pipes_trace::names::QUANTUM));
}

#[test]
fn latency_pipeline_feeds_node_stats_and_prometheus() {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems(2000)));
    let (sink, buf) = CollectSink::new();
    let sink_id = g.add_sink("sink", sink, &src);

    let tracker = g.enable_latency_tracking();
    g.run_to_completion(256);
    assert_eq!(buf.lock().len(), 2000);
    assert!(!tracker.is_empty(), "sources should have stamped batches");

    let summary = g
        .stats(sink_id)
        .latency()
        .expect("sink should have sampled latencies into its stats");
    assert!(summary.count > 0);
    assert!(summary.p50_ns > 0.0, "observed latencies are non-trivial");

    let text = pipes_trace::prometheus::render(&g.telemetry());
    assert!(text.contains("# TYPE pipes_node_latency_seconds summary"));
    assert!(text.contains("pipes_node_latency_seconds{node=\"sink\",quantile=\"0.95\"}"));
    assert!(text.contains("pipes_node_latency_seconds_count{node=\"sink\"}"));
}

/// Latency tracking covers the graph, not the nodes of the moment: a sink
/// (and a source) spliced in after `enable_latency_tracking` join the
/// pipeline as they enter the graph.
#[test]
fn latency_pipeline_covers_nodes_added_after_it_was_enabled() {
    let g = QueryGraph::new();
    let tracker = g.enable_latency_tracking();
    let src = g.add_source("src", VecSource::new(elems(2000)));
    let (sink, buf) = CollectSink::new();
    let late = g.add_sink("late-sink", sink, &src);
    g.run_to_completion(256);
    assert_eq!(buf.lock().len(), 2000);
    assert!(!tracker.is_empty(), "the late source stamps batches");

    let row = g.telemetry().node(late).cloned().expect("live sink");
    let summary = row.stats.latency.expect("the late sink reports quantiles");
    assert!(summary.count > 0 && summary.p50_ns > 0.0);
    let text = pipes_trace::prometheus::render(&g.telemetry());
    assert!(text.contains("pipes_node_latency_seconds{node=\"late-sink\",quantile=\"0.5\"}"));
}
