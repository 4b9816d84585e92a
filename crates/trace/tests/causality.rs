//! End-to-end causality assertions over replayed traces: every node-step
//! span recorded by the graph layer must nest within the scheduler quantum
//! span that drove it, under the single-thread driver and on every
//! work-stealing worker alike.
#![cfg(not(feature = "trace-off"))]

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::QueryGraph;
use pipes_sched::{RoundRobinStrategy, SingleThreadExecutor};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};
use pipes_trace::replay::TraceReplay;

fn elems(n: i64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect()
}

#[test]
fn every_node_step_nests_within_a_scheduler_quantum() {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems(500)));
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &src);
    let mut strategy = RoundRobinStrategy::new();
    let report = SingleThreadExecutor::new()
        .with_quantum(64)
        .run(&g, &mut strategy);
    assert!(report.quanta > 0);
    assert_eq!(buf.lock().len(), 500);

    let trace = pipes_trace::snapshot();
    let replay = TraceReplay::new(&trace);
    assert!(
        !replay.spans_named(pipes_trace::names::QUANTUM).is_empty(),
        "executor should record quantum spans"
    );
    assert!(
        !replay.spans_named(pipes_trace::names::NODE_STEP).is_empty(),
        "graph should record node-step spans"
    );
    assert!(
        replay.nested_within(pipes_trace::names::NODE_STEP, pipes_trace::names::QUANTUM),
        "every node step must nest within its scheduler quantum"
    );
}

#[test]
fn worker_threads_get_named_tracks_and_keep_nesting() {
    let g = Arc::new(QueryGraph::new());
    let src = g.add_source("src", VecSource::new(elems(400)));
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &src);
    let reports = pipes_sched::WorkStealingExecutor::new(2)
        .with_quantum(32)
        .run(&g, || Box::new(RoundRobinStrategy::new()));
    assert_eq!(reports.len(), 2);
    assert_eq!(buf.lock().len(), 400);

    let trace = pipes_trace::snapshot();
    assert!(
        trace.threads.iter().any(|t| t.name.starts_with("worker-")),
        "worker threads should name their tracks: {:?}",
        trace.threads
    );
    let replay = TraceReplay::new(&trace);
    assert!(
        replay.nested_within(pipes_trace::names::NODE_STEP, pipes_trace::names::QUANTUM),
        "nesting must hold on every worker thread"
    );
    // The executor records its shutdown once all workers joined.
    assert!(!replay
        .instants_named(pipes_trace::names::SHUTDOWN)
        .is_empty());
}
