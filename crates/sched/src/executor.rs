//! The execution report, the one quantum routine every driver runs on, and
//! the single-thread driver.

use crate::steal::Parker;
use crate::strategy::{SchedView, Strategy};
use pipes_graph::{NodeId, QueryGraph};
use pipes_sync::atomic::{AtomicBool, Ordering};
use pipes_sync::{hint, thread};
use std::time::{Duration, Instant};

/// Measurements from one execution.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Strategy name that produced this report.
    pub strategy: String,
    /// Scheduling quanta executed.
    pub quanta: u64,
    /// Messages consumed across all nodes.
    pub consumed: u64,
    /// Elements produced across all nodes.
    pub produced: u64,
    /// Batched input-queue drains across all nodes (each moved a run of
    /// messages under one lock acquisition).
    pub batches: u64,
    /// Wall-clock time.
    pub wall: std::time::Duration,
    /// Largest total queued-message count observed (queue memory peak).
    pub peak_queue: usize,
    /// Mean total queued-message count over samples.
    pub avg_queue: f64,
    /// Largest total operator state observed.
    pub peak_state: usize,
    /// Whether execution ended before the graph finished: the quantum cap
    /// was reached, or the idle valve tripped (a long unbroken run of
    /// quanta that moved nothing).
    pub hit_limit: bool,
    /// Virtual-node groups this worker stole from peers (always 0 outside
    /// the [`crate::WorkStealingExecutor`]).
    pub steals: u64,
    /// Largest single input run (in messages) any node drained in one
    /// quantum — how far the run-at-a-time operator path actually batched.
    pub peak_run: usize,
}

impl ExecutionReport {
    /// Elements produced per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.produced as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean messages moved per batched queue drain (0 if nothing consumed).
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.consumed as f64 / self.batches as f64
        }
    }

    /// Aggregates per-thread reports from a multi-threaded run into one:
    /// quanta, consumed, produced, batches and steals are summed; queue and
    /// state peaks are maxed; wall time is the maximum (the threads ran
    /// concurrently); the average queue is weighted by each thread's
    /// quanta; `hit_limit` is set if any thread hit its limit. The strategy
    /// name is taken from the first report.
    pub fn merge(reports: &[ExecutionReport]) -> ExecutionReport {
        let mut merged = ExecutionReport {
            strategy: reports
                .first()
                .map(|r| r.strategy.clone())
                .unwrap_or_default(),
            ..Default::default()
        };
        let mut weighted_queue = 0.0;
        for r in reports {
            merged.quanta += r.quanta;
            merged.consumed += r.consumed;
            merged.produced += r.produced;
            merged.batches += r.batches;
            merged.steals += r.steals;
            merged.wall = merged.wall.max(r.wall);
            merged.peak_queue = merged.peak_queue.max(r.peak_queue);
            merged.peak_state = merged.peak_state.max(r.peak_state);
            merged.peak_run = merged.peak_run.max(r.peak_run);
            merged.hit_limit |= r.hit_limit;
            weighted_queue += r.avg_queue * r.quanta as f64;
        }
        merged.avg_queue = if merged.quanta > 0 {
            weighted_queue / merged.quanta as f64
        } else {
            0.0
        };
        merged
    }
}

/// Adaptive idle waiting: spin briefly (the common case — another thread is
/// about to publish), then yield the core, then park with growing timeouts.
/// An idle thread burns almost no CPU; an `unpark` aimed at its [`Parker`]
/// ends the park immediately (and is never lost if it races ahead), and
/// without one it still looks again within one bounded park timeout.
struct IdleWait {
    /// Waits since the last progress — one per empty quantum.
    rounds: u32,
}

impl IdleWait {
    /// Rounds spent busy-spinning (with exponentially more `spin_loop`
    /// hints each round) before yielding.
    const SPIN_ROUNDS: u32 = 6;
    /// Additional rounds spent yielding before parking.
    const YIELD_ROUNDS: u32 = 4;
    /// First park timeout; doubles per round up to [`IdleWait::MAX_PARK`].
    const FIRST_PARK: Duration = Duration::from_micros(50);
    /// Longest park timeout — bounds how stale an idle thread's view of the
    /// stop flag and of graph completion can get should no wakeup arrive.
    const MAX_PARK: Duration = Duration::from_micros(1600);
    /// The idle valve: after this many empty quanta in a row the thread
    /// gives up on an unfinished graph (stalled, or a stuck strategy).
    const VALVE: u32 = 10_000;

    /// Waits a little longer than last time; `false`, without waiting, once
    /// the valve trips.
    fn wait(&mut self, parker: &Parker) -> bool {
        if self.rounds >= Self::VALVE {
            return false;
        }
        if self.rounds < Self::SPIN_ROUNDS {
            for _ in 0..(1u32 << self.rounds) {
                hint::spin_loop();
            }
        } else if self.rounds < Self::SPIN_ROUNDS + Self::YIELD_ROUNDS {
            thread::yield_now();
        } else {
            let doublings = (self.rounds - Self::SPIN_ROUNDS - Self::YIELD_ROUNDS).min(5);
            let timeout = Self::FIRST_PARK
                .saturating_mul(1 << doublings)
                .min(Self::MAX_PARK);
            pipes_trace::instant(pipes_trace::names::PARK, [timeout.as_micros() as u64, 0, 0]);
            parker.park(timeout);
            pipes_trace::instant(pipes_trace::names::UNPARK, [0; 3]);
        }
        self.rounds += 1;
        true
    }
}

/// The per-thread quantum routine both drivers run on: the strategy pick
/// over the ready members of the candidate set, the `QUANTUM` span around
/// the one `step_node` call, folding each step into the [`ExecutionReport`]
/// it owns, queue/state sampling, the quantum cap, the idle valve and the
/// idle-wait ladder. Everything it reads per quantum comes from the graph's
/// lock-free readiness cells; the only node lock a quantum takes is the one
/// of the node it steps. A driver adds only its policy: which nodes it
/// offers, what it checks between quanta, and what it tries before waiting
/// when a quantum came up empty.
pub(crate) struct QuantumRunner<'a> {
    graph: &'a QueryGraph,
    strategy: &'a mut dyn Strategy,
    /// The candidate set, ascending, and how often it has been replaced.
    nodes: Vec<NodeId>,
    version: u64,
    /// Quantum size, sampling period and quantum cap: the single-thread
    /// driver's knobs, which a work-stealing run applies per worker.
    knobs: &'a SingleThreadExecutor,
    start: Instant,
    report: ExecutionReport,
    queue_samples: u64,
    queue_sum: f64,
    wait: IdleWait,
}

impl<'a> QuantumRunner<'a> {
    pub(crate) fn new(
        graph: &'a QueryGraph,
        strategy: &'a mut dyn Strategy,
        knobs: &'a SingleThreadExecutor,
    ) -> Self {
        QuantumRunner {
            graph,
            nodes: Vec::new(),
            version: 0,
            knobs,
            start: Instant::now(),
            report: ExecutionReport {
                strategy: strategy.name().to_string(),
                ..Default::default()
            },
            strategy,
            queue_samples: 0,
            queue_sum: 0.0,
            wait: IdleWait { rounds: 0 },
        }
    }

    /// Whether the quantum cap is reached (recorded as `hit_limit`).
    pub(crate) fn at_cap(&mut self) -> bool {
        let cap = self.knobs.max_quanta;
        let capped = cap.is_some_and(|max| self.report.quanta >= max);
        self.report.hit_limit |= capped;
        capped
    }

    /// Replaces the candidate set the strategy picks from.
    pub(crate) fn set_candidates(&mut self, mut nodes: Vec<NodeId>) {
        nodes.sort_unstable();
        self.nodes = nodes;
        self.version += 1;
    }

    /// Whether every candidate has finished.
    pub(crate) fn candidates_finished(&self) -> bool {
        let ready = self.graph.ready();
        self.nodes.iter().all(|&id| ready.is_finished(id))
    }

    /// The strategy's pick among the candidates; `None` if none can make
    /// progress.
    pub(crate) fn select(&mut self) -> Option<NodeId> {
        self.strategy
            .select(&SchedView::versioned(self.graph, &self.nodes, self.version))
    }

    /// Runs one quantum on `id` and samples the candidates' queues when
    /// due. Returns whether the quantum moved anything.
    pub(crate) fn step(&mut self, id: NodeId) -> bool {
        let step = {
            // One span per strategy decision: nested NODE_STEP spans
            // (recorded by the graph layer) reconstruct which node the
            // quantum ran.
            let _span = pipes_trace::span_args(
                pipes_trace::names::QUANTUM,
                [id as u64, self.report.quanta, 0],
            );
            self.graph.step_node(id, self.knobs.quantum)
        };
        let report = &mut self.report;
        report.quanta += 1;
        report.consumed += step.consumed as u64;
        report.produced += step.produced as u64;
        report.batches += step.batches as u64;
        report.peak_run = report.peak_run.max(step.peak_run);
        if report.quanta.is_multiple_of(self.knobs.sample_every) {
            // A candidate that is not ready holds nothing it could take.
            let view = SchedView::versioned(self.graph, &self.nodes, self.version);
            let total: usize = view.ready().map(|r| r.queued).sum();
            let ready = self.graph.ready();
            let state: usize = self.nodes.iter().map(|&n| ready.memory(n)).sum();
            report.peak_queue = report.peak_queue.max(total);
            report.peak_state = report.peak_state.max(state);
            self.queue_sum += total as f64;
            self.queue_samples += 1;
        }
        let progressed = step.consumed > 0 || step.produced > 0;
        if progressed {
            self.progressed();
        }
        progressed
    }

    /// Progress was made: the valve and the wait ladder start over.
    pub(crate) fn progressed(&mut self) {
        self.wait.rounds = 0;
    }

    /// An empty quantum — nothing selectable, or a step that moved nothing:
    /// waits one rung of the ladder on `parker`. Returns `false` once the
    /// idle valve trips: the thread should give up, and the report says so
    /// through `hit_limit`.
    pub(crate) fn idle(&mut self, parker: &Parker) -> bool {
        let go_on = self.wait.wait(parker);
        self.report.hit_limit |= !go_on;
        go_on
    }

    /// Closes the report: average queue over the samples taken, wall time.
    pub(crate) fn finish(mut self) -> ExecutionReport {
        if self.queue_samples > 0 {
            self.report.avg_queue = self.queue_sum / self.queue_samples as f64;
        }
        self.report.wall = self.start.elapsed();
        self.report
    }
}

/// Runs one layer-2 strategy over a set of nodes until the graph finishes
/// (or a quantum limit is reached, for unbounded sources).
pub struct SingleThreadExecutor {
    pub(crate) quantum: usize,
    sample_every: u64,
    max_quanta: Option<u64>,
}

impl Default for SingleThreadExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleThreadExecutor {
    /// Creates an executor with a quantum of 64 messages and queue sampling
    /// every 16 quanta.
    pub fn new() -> Self {
        SingleThreadExecutor {
            quantum: 64,
            sample_every: 16,
            max_quanta: None,
        }
    }

    /// Sets the per-selection message budget.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        self.quantum = quantum.max(1);
        self
    }

    /// Caps the number of quanta (needed for unbounded sources).
    pub fn with_max_quanta(mut self, max: u64) -> Self {
        self.max_quanta = Some(max);
        self
    }

    /// Sets how often (in quanta) queue totals are sampled.
    pub fn with_sample_every(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// Runs `strategy` over all nodes of `graph` until completion.
    pub fn run(&self, graph: &QueryGraph, strategy: &mut dyn Strategy) -> ExecutionReport {
        let nodes: Vec<NodeId> = graph.node_ids().collect();
        self.run_nodes(graph, strategy, &nodes, None)
    }

    /// Runs `strategy` over the given node subset until all of it has
    /// finished. Raising the optional `stop` flag ends the loop at the next
    /// quantum boundary — the only bounded-shutdown handle for a graph fed
    /// by an inexhaustible source.
    pub fn run_nodes(
        &self,
        graph: &QueryGraph,
        strategy: &mut dyn Strategy,
        nodes: &[NodeId],
        stop: Option<&AtomicBool>,
    ) -> ExecutionReport {
        // Nobody unparks this parker, so the ladder's parks are plain
        // bounded timeouts: input pushed by another thread, or a raised
        // `stop`, is noticed within one of them.
        let parker = Parker::new();
        let mut runner = QuantumRunner::new(graph, strategy, self);
        runner.set_candidates(nodes.to_vec());
        loop {
            // Acquire pairs with the caller's Release store: a thread that
            // observes the stop flag also observes everything the stopping
            // thread did before raising it, and the compiler cannot hoist
            // the load out of the loop the way a Relaxed read could
            // legally be.
            if stop.is_some_and(|flag| flag.load(Ordering::Acquire)) {
                break;
            }
            // A finished node is never picked, so "all finished" can only
            // hold when the pick came up empty: the check leaves the
            // per-quantum path.
            let picked = runner.select();
            if (picked.is_none() && runner.candidates_finished()) || runner.at_cap() {
                break;
            }
            let progressed = picked.is_some_and(|id| runner.step(id));
            if !progressed && !runner.idle(&parker) {
                break;
            }
        }
        runner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        ChainStrategy, FifoStrategy, GreedyStrategy, RandomStrategy, RateBasedStrategy,
        RoundRobinStrategy,
    };
    use crate::worker::tests::multi_chain;
    use pipes_sync::Arc;

    /// One source → half-filter → sink chain of `n` elements.
    fn build(n: i64) -> (Arc<QueryGraph>, pipes_graph::io::Collected<i64>) {
        let (g, mut bufs) = multi_chain(1, n);
        (g, bufs.remove(0))
    }

    #[test]
    fn single_thread_all_strategies_complete_with_same_answer() {
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(RoundRobinStrategy::new()),
            Box::new(FifoStrategy),
            Box::new(GreedyStrategy),
            Box::new(RandomStrategy::new(7)),
            Box::new(ChainStrategy::new(16)),
            Box::new(RateBasedStrategy),
        ];
        for mut s in strategies {
            let (g, buf) = build(200);
            let report = SingleThreadExecutor::new().run(&g, s.as_mut());
            assert!(g.all_finished(), "{} did not finish", report.strategy);
            assert_eq!(buf.lock().len(), 100, "{} lost data", report.strategy);
            assert!(report.consumed > 0);
            assert!(!report.hit_limit);
        }
    }

    #[test]
    fn quantum_limit_reported() {
        let (g, _) = build(10_000);
        let mut s = RoundRobinStrategy::new();
        let report = SingleThreadExecutor::new()
            .with_quantum(8)
            .with_max_quanta(10)
            .run(&g, &mut s);
        assert!(report.hit_limit);
        assert_eq!(report.quanta, 10);
    }

    #[test]
    fn queue_stats_collected() {
        let (g, _) = build(2000);
        let mut s = FifoStrategy;
        let report = SingleThreadExecutor::new()
            .with_quantum(4)
            .with_sample_every(1)
            .run(&g, &mut s);
        assert!(report.peak_queue > 0);
        assert!(report.avg_queue >= 0.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn batches_counted_and_limit_one_matches_batched_output() {
        let (g, buf) = build(400);
        let mut s = RoundRobinStrategy::new();
        let report = SingleThreadExecutor::new().run(&g, &mut s);
        assert!(report.batches > 0);
        assert!(
            report.avg_batch_size() > 1.0,
            "unbounded batching should amortize: avg {}",
            report.avg_batch_size()
        );

        let (g1, buf1) = build(400);
        g1.set_batch_limit(1);
        let mut s1 = RoundRobinStrategy::new();
        let r1 = SingleThreadExecutor::new().run(&g1, &mut s1);
        assert!(r1.avg_batch_size() <= 1.0 + 1e-9);
        // Batch granularity must not change what reaches the sink.
        assert_eq!(*buf.lock(), *buf1.lock());
    }

    #[test]
    fn merge_aggregates_per_thread_reports() {
        let mk =
            |quanta, consumed, produced, batches, wall_ms, peak_queue, avg_queue| ExecutionReport {
                strategy: "fifo".into(),
                quanta,
                consumed,
                produced,
                batches,
                wall: Duration::from_millis(wall_ms),
                peak_queue,
                avg_queue,
                peak_state: peak_queue / 2,
                hit_limit: false,
                steals: 1,
                peak_run: peak_queue / 4,
            };
        let a = mk(10, 100, 80, 5, 30, 40, 4.0);
        let mut b = mk(30, 300, 240, 15, 20, 70, 8.0);
        b.hit_limit = true;
        let m = ExecutionReport::merge(&[a, b]);
        assert_eq!(m.peak_run, 17, "peak_run is maxed across threads");
        assert_eq!(m.strategy, "fifo");
        assert_eq!(m.quanta, 40);
        assert_eq!(m.consumed, 400);
        assert_eq!(m.produced, 320);
        assert_eq!(m.batches, 20);
        assert_eq!(m.steals, 2);
        assert_eq!(m.wall, Duration::from_millis(30), "wall is the max");
        assert_eq!(m.peak_queue, 70);
        assert_eq!(m.peak_state, 35);
        assert!(m.hit_limit);
        // (4.0 * 10 + 8.0 * 30) / 40 = 7.0 — weighted by quanta.
        assert!((m.avg_queue - 7.0).abs() < 1e-9);
        assert!((m.throughput() - 320.0 / 0.03).abs() < 1.0);

        let empty = ExecutionReport::merge(&[]);
        assert_eq!(empty.quanta, 0);
        assert_eq!(empty.avg_queue, 0.0);
    }
}
