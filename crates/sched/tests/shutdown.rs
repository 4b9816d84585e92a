//! Bounded shutdown: a wall-clock bound on how fast a raised stop flag
//! halts a busy worker, and the idle valve that ends a run nothing else
//! will end.
//!
//! The stop flag is checked with `Ordering::Acquire` at the top of every
//! scheduling quantum (see `run_nodes`), so a worker drowning in work from
//! an infinite source must still observe an externally raised flag within
//! a few quanta plus at most one maximum backoff park. The bound asserted
//! here is deliberately generous (hundreds of quanta) — the point is to
//! catch a regression to an unbounded or seconds-long shutdown, e.g. a
//! stop check hoisted out of the loop or starved behind source work.

use pipes_graph::io::{CountSink, GenSource};
use pipes_graph::{Collector, QueryGraph, SourceOp, SourceStatus};
use pipes_sched::{FifoStrategy, SingleThreadExecutor, WorkStealingExecutor};
use pipes_sync::atomic::{AtomicBool, Ordering};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};
use std::time::{Duration, Instant};

#[test]
fn raised_stop_flag_bounds_shutdown_latency() {
    let g = QueryGraph::new();
    // An inexhaustible source: the executor never halts on its own.
    let mut t = 0u64;
    let src = g.add_source(
        "firehose",
        GenSource::new(move || {
            t += 1;
            Some(Element::at(t as i64, Timestamp::new(t)))
        }),
    );
    let (sink, count) = CountSink::new();
    g.add_sink("sink", sink, &src);
    let graph = Arc::new(g);
    let stop = Arc::new(AtomicBool::new(false));

    let worker = {
        let graph = Arc::clone(&graph);
        let stop = Arc::clone(&stop);
        pipes_sync::thread::spawn(move || {
            let exec = SingleThreadExecutor::new().with_quantum(64);
            let mut strategy = FifoStrategy;
            exec.run_nodes(&graph, &mut strategy, &[0, 1], Some(&stop))
        })
    };

    // Let the worker get properly busy first.
    while count.lock().0 < 1_000 {
        pipes_sync::thread::yield_now();
    }

    let raised = Instant::now();
    stop.store(true, Ordering::Release);
    let report = worker.join().expect("worker panicked");
    let latency = raised.elapsed();

    assert!(report.quanta > 0, "worker never ran");
    assert!(
        latency < Duration::from_millis(500),
        "shutdown took {latency:?}; the stop flag must halt the executor \
         within a bounded number of quanta"
    );
}

/// A live source with nothing to say, forever.
struct AlwaysIdle;
impl SourceOp for AlwaysIdle {
    type Out = i64;
    fn produce(&mut self, _budget: usize, _out: &mut dyn Collector<i64>) -> SourceStatus {
        SourceStatus::Idle
    }
}

fn idle_graph() -> Arc<QueryGraph> {
    let g = QueryGraph::new();
    let src = g.add_source("mute", AlwaysIdle);
    let (sink, _count) = CountSink::new();
    g.add_sink("sink", sink, &src);
    Arc::new(g)
}

/// The valve ends a run nothing else will end — and says so: the graph is
/// unfinished, so the report carries `hit_limit`, as for the quantum cap.
#[test]
fn idle_valve_reports_hit_limit_single_thread() {
    let graph = idle_graph();
    let report = SingleThreadExecutor::new().run(&graph, &mut FifoStrategy);
    assert!(!graph.all_finished());
    assert!(report.hit_limit, "the idle valve gave up silently");
}

#[test]
fn idle_valve_reports_hit_limit_work_stealing() {
    let graph = idle_graph();
    let reports = WorkStealingExecutor::new(2).run(&graph, || Box::new(FifoStrategy));
    assert!(!graph.all_finished());
    assert!(
        reports.iter().all(|r| r.hit_limit),
        "a worker's idle valve gave up silently"
    );
}
