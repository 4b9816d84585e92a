//! One time-boxed phase: build a fresh graph, run it to the deadline under
//! the workload's executor, and account for every event and result.

use crate::replay::Limit;
use crate::stats::Histogram;
use crate::workloads::{self, Built, Kind, PhaseCfg, SinkMode, Spec, CHURN_TICK_MS, QUANTUM};
use pipes::graph::NodeKind;
use pipes::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a phase feeds the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: sources hand out `budget` events whenever the scheduler
    /// pulls.
    Saturate,
    /// Open loop: time-compressed replay at the workload's frozen rate.
    Paced,
}

/// What one phase did.
pub struct Outcome {
    /// Elements emitted by all sources.
    pub emitted: u64,
    /// Executor start to executor return.
    pub wall_s: f64,
    pub report: ExecutionReport,
    pub results: u64,
    /// Paced results later than the workload's limit.
    pub late: u64,
    /// Latency of every sink message by window of arrival (paced phases).
    pub latency: Vec<Histogram>,
    /// Emitted events the engine did not account for, plus messages left
    /// queued when the executor returned.
    pub undelivered: u64,
    /// Every node finished and every live sink saw `Close`.
    pub clean: bool,
    pub lag: Histogram,
    pub lag_trend: Vec<(f64, f64)>,
    /// Per churn tick: `install` and `uninstall` wall time, µs.
    pub churn_install_us: Vec<f64>,
    pub churn_uninstall_us: Vec<f64>,
    /// `install` return to first tuple at the new sink, ms.
    pub splice_ms: Vec<f64>,
}

impl Outcome {
    pub fn eps(&self) -> f64 {
        self.emitted as f64 / self.wall_s.max(1e-9)
    }
}

pub fn run(spec: &Spec, input: &workloads::Input, load: Load, secs: f64, seed: u64) -> Outcome {
    let saturate = PhaseCfg::saturate(Limit::After(Duration::from_secs_f64(secs)), seed);
    let cfg = match load {
        Load::Saturate => saturate,
        Load::Paced => PhaseCfg {
            rate_eps: Some(spec.rate_eps),
            sink_mode: SinkMode::Latency,
            latency_limit_ns: (spec.latency_limit_ms * 1e6) as u64,
            ..saturate
        },
    };
    let mut built = workloads::build(spec.kind, input, &cfg);
    let mut churn = Churn::default();
    let start = Instant::now();
    let report = execute(spec.kind, &mut built, Some((secs, &mut churn)));
    let wall_s = start.elapsed().as_secs_f64();
    summarize(built, report, wall_s, churn)
}

/// Wall time of the churn's calls, µs, one entry per tick.
#[derive(Default)]
pub struct Churn {
    pub install_us: Vec<f64>,
    pub uninstall_us: Vec<f64>,
}

/// Runs `built` to completion under the workload's executor. The fleet
/// churns only when given its phase length (verify passes run it still).
pub fn execute(kind: Kind, built: &mut Built, churn: Option<(f64, &mut Churn)>) -> ExecutionReport {
    match kind {
        Kind::NexmarkStateless | Kind::NexmarkWindowAgg | Kind::TrafficWindowAgg => {
            SingleThreadExecutor::new()
                .with_quantum(QUANTUM)
                .run(&built.graph, &mut FifoStrategy)
        }
        Kind::NexmarkJoinKeyed => run_join(&built.graph, workloads::join_workers()),
        Kind::NexmarkFleetChurn => match churn {
            Some((secs, churn)) => run_fleet(built, secs, churn),
            None => ExecutionReport::merge(
                &WorkStealingExecutor::new(1).run(&built.graph, || Box::new(FifoStrategy)),
            ),
        },
    }
}

/// The join plan under E21's executor and strategy.
pub fn run_join(graph: &Arc<QueryGraph>, workers: usize) -> ExecutionReport {
    ExecutionReport::merge(
        &WorkStealingExecutor::new(workers).run(graph, || Box::new(RoundRobinStrategy::new())),
    )
}

/// One work-stealing worker drains the graph while this thread splices one
/// query in and retires another every tick.
fn run_fleet(built: &mut Built, secs: f64, churn: &mut Churn) -> ExecutionReport {
    let graph = Arc::clone(&built.graph);
    let mut fleet = built
        .queries
        .take()
        .expect("CQL workloads keep their optimizer");
    let done = AtomicBool::new(false);
    // Stop splicing shortly before the sources stop, so the last new query
    // still sees data.
    let last_tick_ns = ((secs * 1e9) as u64).saturating_sub(2 * CHURN_TICK_MS * 1_000_000);
    let reports = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let reports = WorkStealingExecutor::new(1).run(&graph, || Box::new(FifoStrategy));
            done.store(true, Ordering::Release);
            reports
        });
        let mut tick = 1u64;
        loop {
            let at_ns = tick * CHURN_TICK_MS * 1_000_000;
            if at_ns > last_tick_ns {
                break;
            }
            let now = built.clock.now_ns();
            if now < at_ns {
                std::thread::sleep(Duration::from_nanos(at_ns - now));
            }
            if done.load(Ordering::Acquire) {
                break;
            }
            let (install_us, uninstall_us) = fleet.churn(built);
            churn.install_us.push(install_us);
            churn.uninstall_us.push(uninstall_us);
            tick += 1;
        }
        worker.join().expect("executor thread panicked")
    });
    built.queries = Some(fleet);
    drain(&graph);
    ExecutionReport::merge(&reports)
}

/// Steps whatever the executor left unfinished: a query spliced in after
/// the sources drained holds a pending `Close` nobody stepped.
pub fn drain(graph: &QueryGraph) {
    for _ in 0..10_000 {
        if graph.all_finished() {
            return;
        }
        for id in graph.node_ids() {
            if !graph.is_finished(id) {
                graph.step_node(id, 1024);
            }
        }
    }
}

pub fn summarize(built: Built, report: ExecutionReport, wall_s: f64, churn: Churn) -> Outcome {
    let graph = &built.graph;
    let emitted = built.emitted();
    let engine_out: u64 = graph
        .node_ids()
        .filter(|&id| graph.kind(id) == NodeKind::Source)
        .map(|id| graph.stats(id).snapshot().out_count)
        .sum();
    let queued = graph.total_queued() as u64;
    let mut results = 0;
    let mut late = 0;
    let mut all_closed = true;
    let mut splice_ms = Vec::new();
    for sink in &built.sinks {
        let t = sink.tally.lock().expect("sink tally poisoned");
        results += t.results;
        late += t.late;
        all_closed &= t.closed || graph.is_removed(sink.node);
        if let (Some(spliced), Some(first)) = (sink.spliced_ns, t.first_ns) {
            splice_ms.push(first.saturating_sub(spliced) as f64 / 1e6);
        }
    }
    let mut lag = Histogram::new();
    let mut lag_trend = Vec::new();
    for source in built
        .sources
        .lock()
        .expect("source registry poisoned")
        .iter()
    {
        let log = source.lag.lock().expect("lag log poisoned");
        lag.merge(&log.hist);
        lag_trend.extend_from_slice(&log.trend);
    }
    let latency = std::mem::take(&mut built.latency.lock().expect("latency log poisoned").windows);
    Outcome {
        emitted,
        wall_s,
        report,
        results,
        late,
        latency,
        undelivered: emitted.saturating_sub(engine_out) + queued,
        clean: graph.all_finished() && all_closed,
        lag,
        lag_trend,
        churn_install_us: churn.install_us,
        churn_uninstall_us: churn.uninstall_us,
        splice_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Input, SPECS};

    /// A one-second paced run through every executor delivers every
    /// generated event: the sources wait inside `produce`, so the
    /// executors' 10 000-idle-quanta valve never fires.
    #[test]
    fn paced_second_delivers_every_event_on_every_executor() {
        for kind in [
            Kind::NexmarkStateless,  // SingleThreadExecutor
            Kind::NexmarkJoinKeyed,  // WorkStealingExecutor, two workers
            Kind::NexmarkFleetChurn, // one worker beside the installing thread
        ] {
            let spec = SPECS.iter().find(|s| s.kind == kind).unwrap();
            // A fiftieth of the frozen rate keeps debug builds sustainable.
            let slow = Spec {
                rate_eps: spec.rate_eps / 50.0,
                ..*spec
            };
            let input = Input::generate(kind, 11);
            let out = run(&slow, &input, Load::Paced, 1.0, 11);
            assert!(out.clean, "{}: graph did not finish cleanly", spec.name);
            assert_eq!(out.undelivered, 0, "{}", spec.name);
            assert!(
                out.wall_s >= 1.0,
                "{}: quit after {} s",
                spec.name,
                out.wall_s
            );
            let expected = slow.rate_eps;
            assert!(
                out.emitted as f64 > 0.5 * expected
                    && (out.emitted as f64) < 1.1 * expected + 600.0,
                "{}: {} events in one paced second at {} eps",
                spec.name,
                out.emitted,
                expected
            );
            assert_eq!(out.lag.len(), out.emitted);
            assert!(out.results > 0 && out.latency.iter().map(Histogram::len).sum::<u64>() > 0);
        }
    }
}
