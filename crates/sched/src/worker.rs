//! Layer 3 proper: a dynamic thread layer over the execution plan.
//!
//! [`WorkStealingExecutor`] runs the layer-1 plan with true dynamic
//! placement: each worker *owns* a set of virtual-node groups through the
//! [`GroupTable`] claim protocol, runs its layer-2 [`Strategy`] over the
//! nodes of the groups it owns, and when it runs dry it first adopts free
//! runnable groups, then **steals** a runnable group from the most loaded
//! peer. A leader worker periodically re-places all groups from runtime
//! queue-depth statistics (`pipes-meta`) when the load spread grows too
//! wide, and a node that turns from not-ready to ready wakes the worker
//! owning its group through that worker's [`Parker`] — a targeted unpark,
//! once per transition, instead of waiting out a bounded park timeout. What
//! is runnable (for the pick, for adoption and stealing, for "the graph is
//! done") is read from the graph's lock-free ready set. The per-quantum
//! bookkeeping is the shared `QuantumRunner` the single-thread driver
//! runs on too; this module adds only ownership and placement.
//!
//! Topology is *hot*: the leader also polls
//! [`QueryGraph::topology_epoch`] every iteration, and when a query is
//! spliced into (or retired from) the running graph it extends the plan
//! incrementally ([`ExecutionPlan::refreshed`] — existing groups keep
//! their ids and in-flight state), grows the [`GroupTable`], and hands
//! the new groups out through the same rebalance-epoch release→claim
//! protocol used for load rebalancing. Retired groups drain: their owner
//! releases them at the next epoch hand-off and nobody re-adopts.

use crate::executor::{ExecutionReport, QuantumRunner, SingleThreadExecutor};
use crate::plan::{ExecutionPlan, GroupId};
use crate::steal::{GroupTable, Parker};
use crate::strategy::Strategy;
use pipes_graph::{NodeId, NodeKind, QueryGraph};
use pipes_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pipes_sync::{thread, Arc, Mutex, RwLock};

/// Placement target meaning "no worker": published for retired groups so
/// their owners release them at the next epoch hand-off and nobody
/// re-claims — the group drains and leaves the active schedule.
const NO_TARGET: usize = usize::MAX;

/// Shared coordination state for one run.
struct Shared {
    /// The current execution plan. Swapped (never mutated in place) by the
    /// leader when it observes a newer topology epoch; workers snapshot
    /// the `Arc` and run against an immutable plan between rebalance
    /// epochs.
    plan: RwLock<Arc<ExecutionPlan>>,
    table: GroupTable,
    parkers: Vec<Parker>,
    stop: AtomicBool,
    /// Bumped when a new placement is published in `targets`.
    epoch: AtomicU64,
    /// Target worker per group for the current epoch.
    targets: Mutex<Vec<usize>>,
}

impl Shared {
    fn plan(&self) -> Arc<ExecutionPlan> {
        Arc::clone(&self.plan.read())
    }

    fn wake_all(&self) {
        for p in &self.parkers {
            p.unpark();
        }
    }
}

/// Read-only view of the live group placement of a running
/// [`WorkStealingExecutor`] — e.g. for a memory manager whose budget split
/// should follow placement (`pipes_mem::MemoryManager::set_placement`).
#[derive(Clone)]
pub struct OwnershipView {
    shared: Arc<Shared>,
}

impl OwnershipView {
    /// The group containing `node` in the run's *current* execution plan
    /// (the view tracks re-plans after topology splices).
    ///
    /// # Panics
    ///
    /// Panics if `node` was spliced in after the last re-plan.
    pub fn group_of(&self, node: NodeId) -> GroupId {
        self.shared.plan().group_of(node)
    }

    /// The worker currently owning `node`'s group; `None` when the group
    /// is free or the node is not covered by the current plan yet.
    pub fn worker_of(&self, node: NodeId) -> Option<usize> {
        let plan = self.shared.plan();
        let group = plan.try_group_of(node)?;
        self.shared.table.owner(group)
    }

    /// Number of worker threads in the run.
    pub fn workers(&self) -> usize {
        self.shared.parkers.len()
    }
}

/// Whether any node of `group` can make progress right now. Retired
/// groups are never runnable (every member is removed, and removed nodes
/// count as finished).
fn group_runnable(graph: &QueryGraph, plan: &ExecutionPlan, group: GroupId) -> bool {
    let ready = graph.ready();
    !plan.groups()[group].is_retired()
        && plan.groups()[group]
            .nodes()
            .iter()
            .any(|&n| ready.is_ready(n))
}

/// The dynamic layer-3 executor: plan-derived initial placement, group
/// ownership with work stealing, periodic stats-driven rebalance, and
/// targeted wakeups.
pub struct WorkStealingExecutor {
    threads: usize,
    /// Quantum size, sampling period and quantum cap of each worker.
    per_worker: SingleThreadExecutor,
    rebalance_every: u64,
    initial_groups: Option<Vec<Vec<GroupId>>>,
}

impl WorkStealingExecutor {
    /// Creates an executor with the given number of worker threads, a
    /// quantum of 64 messages, queue sampling every 16 quanta, and a
    /// rebalance check every 256 scheduler iterations.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        WorkStealingExecutor {
            threads,
            per_worker: SingleThreadExecutor::new(),
            rebalance_every: 256,
            initial_groups: None,
        }
    }

    /// Sets the per-selection message budget.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        self.per_worker = self.per_worker.with_quantum(quantum);
        self
    }

    /// Caps quanta per worker (for unbounded sources).
    pub fn with_max_quanta(mut self, max: u64) -> Self {
        self.per_worker = self.per_worker.with_max_quanta(max);
        self
    }

    /// Sets how often (in quanta) each worker samples queue totals.
    pub fn with_sample_every(mut self, every: u64) -> Self {
        self.per_worker = self.per_worker.with_sample_every(every);
        self
    }

    /// Sets how often (in scheduler iterations of the leader worker) the
    /// placement is re-examined against runtime queue depths. `0` disables
    /// rebalancing; stealing still runs.
    pub fn with_rebalance_every(mut self, every: u64) -> Self {
        self.rebalance_every = every;
        self
    }

    /// Overrides the initial group placement (one group-id list per
    /// worker), so a test can force a deliberately skewed start. Defaults
    /// to [`ExecutionPlan::partition_groups`].
    #[cfg(test)]
    pub(crate) fn with_initial_groups(mut self, groups: Vec<Vec<GroupId>>) -> Self {
        self.initial_groups = Some(groups);
        self
    }

    /// Plans the graph and runs `make_strategy()` per worker until the
    /// graph finishes. Returns the per-worker reports (merge them with
    /// [`ExecutionReport::merge`]).
    pub fn run(
        &self,
        graph: &Arc<QueryGraph>,
        make_strategy: impl Fn() -> Box<dyn Strategy>,
    ) -> Vec<ExecutionReport> {
        self.run_observed(graph, make_strategy, |_| {})
    }

    /// Like [`WorkStealingExecutor::run`], but hands an [`OwnershipView`]
    /// of the live placement to `observe` after launch (before workers
    /// start), so monitors can follow group ownership while the run is in
    /// flight.
    pub fn run_observed(
        &self,
        graph: &Arc<QueryGraph>,
        make_strategy: impl Fn() -> Box<dyn Strategy>,
        observe: impl FnOnce(OwnershipView),
    ) -> Vec<ExecutionReport> {
        let plan = Arc::new(ExecutionPlan::analyze(graph));
        let n_groups = plan.groups().len();
        let initial = match &self.initial_groups {
            Some(parts) => {
                assert_eq!(parts.len(), self.threads, "one group list per worker");
                parts.clone()
            }
            None => plan.partition_groups(self.threads),
        };
        let shared = Arc::new(Shared {
            plan: RwLock::new(plan),
            table: GroupTable::new(n_groups),
            parkers: (0..self.threads).map(|_| Parker::new()).collect(),
            stop: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            targets: Mutex::new(Vec::new()),
        });

        // Targeted wakeups: a node turning from not-ready to ready wakes
        // the worker that owns its group — once per transition, nothing
        // while the node stays ready. The group is looked up under the plan
        // guard and the guard dropped before touching the table, so the
        // hook never nests the plan lock around table state; a node spliced
        // in after the current plan wakes nobody until the leader re-plans,
        // which the topology epoch guarantees happens.
        let hook_shared = Arc::clone(&shared);
        graph.set_wake_hook(Arc::new(move |node| {
            let group = hook_shared.plan.read().try_group_of(node);
            let Some(w) = group.and_then(|g| hook_shared.table.owner(g)) else {
                return;
            };
            if hook_shared.parkers.get(w).is_some_and(Parker::unpark) {
                pipes_trace::instant(pipes_trace::names::WAKE, [node as u64, w as u64, 0]);
            }
        }));

        observe(OwnershipView {
            shared: Arc::clone(&shared),
        });

        let n_workers = self.threads;
        let reports: Vec<ExecutionReport> = thread::scope(|scope| {
            let handles: Vec<_> = initial
                .into_iter()
                .enumerate()
                .map(|(me, my_groups)| {
                    let mut strategy = make_strategy();
                    let graph = Arc::clone(graph);
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        pipes_trace::set_thread_name(&format!("worker-{me}"));
                        self.worker_loop(me, &graph, &shared, strategy.as_mut(), &my_groups)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        graph.clear_wake_hook();
        shared.stop.store(true, Ordering::Release);
        pipes_trace::instant(pipes_trace::names::SHUTDOWN, [n_workers as u64, 0, 0]);
        reports
    }

    fn worker_loop(
        &self,
        me: usize,
        graph: &QueryGraph,
        shared: &Shared,
        strategy: &mut dyn Strategy,
        initial: &[GroupId],
    ) -> ExecutionReport {
        for &g in initial {
            if shared.table.try_claim(g, me) {
                pipes_trace::instant(pipes_trace::names::GROUP_CLAIM, [g as u64, me as u64, 0]);
            }
        }
        // Immutable plan snapshot; re-taken whenever the rebalance epoch
        // moves (every plan swap bumps the epoch, so a snapshot is never
        // staler than the placement applied against it).
        let mut plan = shared.plan();
        let mut runner = QuantumRunner::new(graph, strategy, &self.per_worker);
        runner.set_candidates(plan.nodes_of(&shared.table.owned(me)));
        let mut steals = 0u64;
        let mut seen_epoch = 0u64;
        let mut since_rebalance = 0u64;
        // The loop's value: whether the run as a whole is over (global
        // stop), as opposed to this worker alone leaving it.
        let stopped = loop {
            if shared.stop.load(Ordering::Acquire) {
                break true;
            }
            // Leader duty 1: splice detection. One lock-free epoch poll per
            // iteration; on a move, extend the plan and hand the delta out
            // through the rebalance-epoch protocol — the re-plan bumps that
            // epoch, so the leader picks its own share up right below.
            if me == 0 && graph.topology_epoch() != plan.planned_epoch() {
                self.replan(graph, shared);
            }
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen_epoch {
                seen_epoch = epoch;
                plan = shared.plan();
                self.apply_targets(me, &plan, shared, epoch);
                runner.set_candidates(plan.nodes_of(&shared.table.owned(me)));
            }
            if runner.at_cap() {
                break false;
            }
            // Leader duty 2: periodic load rebalance.
            if me == 0 && self.rebalance_every > 0 {
                since_rebalance += 1;
                if since_rebalance >= self.rebalance_every {
                    since_rebalance = 0;
                    self.plan_rebalance(graph, &plan, shared);
                }
            }
            if let Some(id) = runner.select() {
                let group = plan.group_of(id);
                if !shared.table.begin(group, me) {
                    // The group left us (stolen or handed off) since the
                    // last ownership refresh — re-derive what we own.
                    runner.set_candidates(plan.nodes_of(&shared.table.owned(me)));
                    continue;
                }
                let progressed = runner.step(id);
                shared.table.end(group, me);
                if progressed {
                    continue;
                }
            } else if self.acquire_work(me, graph, &plan, shared, &mut steals) {
                runner.set_candidates(plan.nodes_of(&shared.table.owned(me)));
                runner.progressed();
                continue;
            }
            // An empty quantum: either the graph is done, or we wait.
            if graph.ready().all_finished() {
                shared.stop.store(true, Ordering::Release);
                pipes_trace::instant(pipes_trace::names::STOP, [0; 3]);
                shared.wake_all();
                break true;
            }
            if !runner.idle(&shared.parkers[me]) {
                break false;
            }
        };
        if !stopped {
            // Leaving an unfinished run (quantum cap or idle valve): a
            // group still owned here could be neither claimed nor stolen,
            // so hand everything back and tell the peers.
            for g in shared.table.owned(me) {
                if shared.table.release(g, me) {
                    pipes_trace::instant(
                        pipes_trace::names::GROUP_RELEASE,
                        [g as u64, me as u64, seen_epoch],
                    );
                }
            }
            shared.wake_all();
        }
        let mut report = runner.finish();
        report.steals = steals;
        report
    }

    /// Idle-path work acquisition: adopt free runnable groups, else steal
    /// one runnable group from the most loaded peer. A peer keeps its last
    /// runnable group (stealing only targets owners of two or more), so a
    /// worker that simply hasn't been scheduled is not stripped of the work
    /// a wakeup is already heading its way for. Returns whether anything
    /// was acquired.
    fn acquire_work(
        &self,
        me: usize,
        graph: &QueryGraph,
        plan: &ExecutionPlan,
        shared: &Shared,
        steals: &mut u64,
    ) -> bool {
        let table = &shared.table;
        // Bounded by the caller's plan snapshot, not the table: after a
        // splice the leader grows the table *before* publishing the new
        // plan, so the table can be longer than a stale snapshot — those
        // trailing groups are only touched once the worker refreshes.
        let covered = plan.groups().len();
        let mut got = false;
        for g in 0..covered {
            if table.owner(g).is_none() && group_runnable(graph, plan, g) && table.try_claim(g, me)
            {
                pipes_trace::instant(pipes_trace::names::GROUP_CLAIM, [g as u64, me as u64, 0]);
                got = true;
            }
        }
        if got {
            return true;
        }
        let mut runnable_of: Vec<Vec<GroupId>> = vec![Vec::new(); self.threads];
        for g in 0..covered {
            if let Some(w) = table.owner(g) {
                if w != me && w < self.threads && group_runnable(graph, plan, g) {
                    runnable_of[w].push(g);
                }
            }
        }
        let Some((victim, groups)) = runnable_of
            .iter()
            .enumerate()
            .filter(|(_, v)| v.len() >= 2)
            .max_by_key(|(_, v)| v.len())
        else {
            return false;
        };
        // Take from the tail: the victim's strategy reaches those last.
        for &g in groups.iter().rev() {
            if table.try_steal(g, victim, me) {
                pipes_trace::instant(
                    pipes_trace::names::STEAL,
                    [g as u64, victim as u64, me as u64],
                );
                *steals += 1;
                return true;
            }
        }
        false
    }

    /// Applies a published placement: release own groups targeted
    /// elsewhere (waking the target), claim free groups targeted here.
    /// A retired group's target is [`NO_TARGET`], so its owner releases it
    /// and no claim loop anywhere picks it back up — that is the entire
    /// drain protocol. The claim loop is bounded by the caller's plan
    /// snapshot so a placement published for a newer plan can never hand
    /// this worker a group its snapshot cannot resolve to nodes.
    fn apply_targets(&self, me: usize, plan: &ExecutionPlan, shared: &Shared, epoch: u64) {
        let targets = shared.targets.lock().clone();
        for g in shared.table.owned(me) {
            let target = targets.get(g).copied().unwrap_or(me);
            if target != me && shared.table.release(g, me) {
                pipes_trace::instant(
                    pipes_trace::names::GROUP_RELEASE,
                    [g as u64, me as u64, epoch],
                );
                if let Some(p) = shared.parkers.get(target) {
                    p.unpark();
                }
            }
        }
        for (g, &target) in targets.iter().enumerate().take(plan.groups().len()) {
            if target == me && shared.table.owner(g).is_none() && shared.table.try_claim(g, me) {
                pipes_trace::instant(pipes_trace::names::GROUP_CLAIM, [g as u64, me as u64, 0]);
            }
        }
    }

    /// Seconds of projected input arrivals folded into a group's rebalance
    /// cost: queue depth measures backlog *now*, the metadata plane's input
    /// rate projects the immediate future, so a hot group reads as loaded
    /// even at the instant its queues happen to be drained. Half a
    /// millisecond keeps the backlog term dominant.
    const RATE_HORIZON_SECS: f64 = 0.0005;

    /// Leader-only: re-place groups by longest-processing-time over a
    /// metadata-plane snapshot (queue depths plus measured input rates)
    /// when the per-worker load spread has grown past 2× plus slack.
    /// Publishing a new epoch makes every worker hand off / pick up groups
    /// at its next iteration. Retired groups are targeted at [`NO_TARGET`]
    /// so they stay out of every worker's hands.
    fn plan_rebalance(&self, graph: &QueryGraph, plan: &ExecutionPlan, shared: &Shared) {
        let n = plan.groups().len();
        if n < 2 || self.threads < 2 {
            return;
        }
        // One consistent point-in-time view for the whole placement round;
        // per-node seqlock reads never block the stepping workers. Rate
        // terms only count measured/derived estimates — priors (and a
        // meta-off build, where every estimate is a prior) contribute
        // nothing, degrading to pure queue-depth costing.
        let snap = graph.meta_snapshot(&pipes_graph::MetaConfig::default());
        let quantum = self.per_worker.quantum as u64;
        let costs: Vec<u64> = plan
            .groups()
            .iter()
            .map(|grp| {
                if grp.is_retired() {
                    return 0;
                }
                let mut queued = 0u64;
                let mut projected = 0.0f64;
                let mut live_source = false;
                for &m in grp.nodes() {
                    let Some(est) = snap.get(m) else { continue };
                    queued += est.queue_len as u64;
                    if est.confidence != pipes_graph::Confidence::Prior {
                        projected += est.in_rate * Self::RATE_HORIZON_SECS;
                    }
                    if est.kind == NodeKind::Source && !graph.ready().is_finished(m) {
                        live_source = true;
                    }
                }
                queued + projected as u64 + if live_source { quantum } else { 0 }
            })
            .collect();
        let mut load = vec![0u64; self.threads];
        for (g, &cost) in costs.iter().enumerate() {
            if let Some(w) = shared.table.owner(g) {
                if w < self.threads {
                    load[w] += cost;
                }
            }
        }
        let max = load.iter().copied().max().unwrap_or(0);
        let min = load.iter().copied().min().unwrap_or(0);
        if max <= min.saturating_mul(2).saturating_add(quantum) {
            return; // balanced enough; avoid churn
        }
        let mut order: Vec<GroupId> = (0..n).filter(|&g| !plan.groups()[g].is_retired()).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(costs[g]));
        let mut targets = vec![NO_TARGET; n];
        let mut target_load = vec![0u64; self.threads];
        for g in order {
            let w = (0..self.threads)
                .min_by_key(|&t| target_load[t])
                .expect("threads > 0");
            targets[g] = w;
            target_load[w] += costs[g].max(1);
        }
        let moved = (0..n)
            .filter(|&g| shared.table.owner(g).is_some_and(|w| w != targets[g]))
            .count();
        if moved == 0 {
            return;
        }
        *shared.targets.lock() = targets;
        let epoch = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        pipes_trace::instant(pipes_trace::names::REBALANCE_PLAN, [epoch, moved as u64, 0]);
        shared.wake_all();
    }

    /// Leader-only: the topology epoch moved — extend the plan over the
    /// spliced/retired nodes ([`ExecutionPlan::refreshed`] keeps existing
    /// group ids and in-flight state), grow the `GroupTable` *before*
    /// publishing the new plan (so no reader ever resolves a group the
    /// table cannot hold), place new groups onto the lightest workers,
    /// and hand the delta out through the existing rebalance-epoch
    /// release→claim protocol.
    fn replan(&self, graph: &QueryGraph, shared: &Shared) {
        let old = shared.plan();
        let new_plan = Arc::new(old.refreshed(graph));
        let old_groups = old.groups().len();
        let total = new_plan.groups().len();
        shared.table.grow(total);

        // Existing groups stay where they are (their current owner is the
        // target; free ones join the LPT pass with the new groups);
        // retired groups go to NO_TARGET and drain out.
        let mut targets = vec![NO_TARGET; total];
        let mut load = vec![0u64; self.threads];
        let mut unplaced: Vec<GroupId> = Vec::new();
        let mut retired_count = 0u64;
        for (g, grp) in new_plan.groups().iter().enumerate() {
            if grp.is_retired() {
                if old.groups().get(g).is_none_or(|o| !o.is_retired()) {
                    retired_count += 1;
                }
                continue;
            }
            match shared.table.owner(g) {
                Some(w) if w < self.threads => {
                    targets[g] = w;
                    load[w] += grp.static_cost().max(1);
                }
                _ => unplaced.push(g),
            }
        }
        unplaced.sort_by_key(|&g| std::cmp::Reverse(new_plan.groups()[g].static_cost()));
        for g in unplaced {
            let w = (0..self.threads)
                .min_by_key(|&t| load[t])
                .expect("threads > 0");
            targets[g] = w;
            load[w] += new_plan.groups()[g].static_cost().max(1);
        }

        *shared.targets.lock() = targets;
        *shared.plan.write() = Arc::clone(&new_plan);
        let new_groups = (total - old_groups) as u64;
        pipes_trace::instant(
            pipes_trace::names::SCHED_REPLAN,
            [new_plan.planned_epoch(), new_groups, retired_count],
        );
        shared.epoch.fetch_add(1, Ordering::AcqRel);
        shared.wake_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::strategy::{FifoStrategy, RoundRobinStrategy};
    use pipes_graph::io::{CollectSink, FnSink, VecSource};
    use pipes_graph::{Collector, Operator};
    use pipes_sync::Condvar;
    use pipes_time::{Element, Message, Timestamp};
    use std::time::{Duration, Instant};

    struct HalfFilter;
    impl Operator for HalfFilter {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            if e.payload % 2 == 0 {
                out.element(e);
            }
        }
    }

    fn elems(n: i64) -> Vec<Element<i64>> {
        (0..n)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect()
    }

    /// `chains` independent source→filter→sink pipelines of `n` elements.
    pub(crate) fn multi_chain(
        chains: usize,
        n: i64,
    ) -> (Arc<QueryGraph>, Vec<pipes_graph::io::Collected<i64>>) {
        let g = QueryGraph::new();
        let mut bufs = Vec::new();
        for c in 0..chains {
            let src = g.add_source(&format!("src{c}"), VecSource::new(elems(n)));
            let f = g.add_unary(&format!("f{c}"), HalfFilter, &src);
            let (sink, buf) = CollectSink::new();
            g.add_sink(&format!("sink{c}"), sink, &f);
            bufs.push(buf);
        }
        (Arc::new(g), bufs)
    }

    #[test]
    fn completes_and_preserves_results() {
        let (g, bufs) = multi_chain(3, 400);
        let reports = WorkStealingExecutor::new(2).run(&g, || Box::new(RoundRobinStrategy::new()));
        assert_eq!(reports.len(), 2);
        assert!(g.all_finished());
        for buf in &bufs {
            assert_eq!(buf.lock().len(), 200);
        }
        let merged = ExecutionReport::merge(&reports);
        assert!(merged.consumed > 0);
        assert!(!merged.hit_limit);
    }

    /// Rows taken per chain's sink, and a condvar rung at each row.
    type Taken = Arc<(Mutex<Vec<usize>>, Condvar)>;

    /// [`HalfFilter`] whose first step blocks until the sinks of every
    /// other chain hold `rows` rows, so the worker running it can finish
    /// none of them; it panics if that takes longer than 10 s.
    struct WaitForOthers {
        taken: Taken,
        rows: usize,
        waited: bool,
    }

    impl Operator for WaitForOthers {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let (taken, rung) = &*self.taken;
            let mut taken = taken.lock();
            while !self.waited && taken[1..].iter().any(|&n| n < self.rows) {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "no other worker drained the chains");
                rung.wait_for(&mut taken, left);
            }
            drop(taken);
            self.waited = true;
            HalfFilter.on_element(p, e, out);
        }
    }

    #[test]
    fn idle_worker_steals_from_a_skewed_start() {
        // Eight source→filter→sink chains; chain 0's filter waits for the
        // other seven sinks to fill, so whichever worker steps it first
        // holds chain 0 until the *other* worker has run chains 1–7.
        let taken: Taken = Arc::new((Mutex::new(vec![0; 8]), Condvar::new()));
        let g = QueryGraph::new();
        for c in 0..8 {
            let src = g.add_source(&format!("src{c}"), VecSource::new(elems(4000)));
            let f = if c == 0 {
                let taken = Arc::clone(&taken);
                g.add_unary(
                    "f0",
                    WaitForOthers {
                        taken,
                        rows: 2000,
                        waited: false,
                    },
                    &src,
                )
            } else {
                g.add_unary(&format!("f{c}"), HalfFilter, &src)
            };
            let into = Arc::clone(&taken);
            let sink = FnSink::new(move |m: Message<i64>| {
                if m.is_element() {
                    into.0.lock()[c] += 1;
                    into.1.notify_all();
                }
            });
            g.add_sink(&format!("sink{c}"), sink, &f);
        }
        let g = Arc::new(g);
        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.groups().len(), 8);
        // Deliberately park every group on worker 0; worker 1 must steal.
        let all: Vec<GroupId> = (0..plan.groups().len()).collect();
        let reports = WorkStealingExecutor::new(2)
            .with_rebalance_every(0)
            .with_initial_groups(vec![all, Vec::new()])
            .run(&g, || Box::new(FifoStrategy));
        assert!(g.all_finished());
        assert_eq!(*taken.0.lock(), vec![2000; 8]);
        let merged = ExecutionReport::merge(&reports);
        assert!(
            merged.steals >= 7,
            "the worker not holding chain 0 must steal chains 1–7, stole {}",
            merged.steals
        );
        assert!(
            reports.iter().all(|r| r.quanta > 0),
            "both workers did real work"
        );
    }

    #[test]
    fn rebalance_path_preserves_results() {
        let (g, bufs) = multi_chain(4, 1000);
        // Rebalance aggressively from a skewed start so release/claim
        // hand-offs actually happen mid-run.
        let plan_groups = ExecutionPlan::analyze(&g).groups().len();
        let reports = WorkStealingExecutor::new(2)
            .with_rebalance_every(8)
            .with_initial_groups(vec![(0..plan_groups).collect(), Vec::new()])
            .run(&g, || Box::new(RoundRobinStrategy::new()));
        assert!(g.all_finished());
        for buf in &bufs {
            assert_eq!(buf.lock().len(), 500);
        }
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn ownership_view_tracks_placement() {
        let (g, _bufs) = multi_chain(2, 100);
        let mut seen = None;
        let reports = WorkStealingExecutor::new(2).run_observed(
            &g,
            || Box::new(FifoStrategy),
            |view| seen = Some(view),
        );
        let view = seen.expect("observe callback ran");
        assert_eq!(view.workers(), 2);
        assert_eq!(view.group_of(0), view.group_of(1), "chain fused");
        assert_ne!(view.group_of(0), view.group_of(3));
        // Workers keep their groups on exit, so the final placement is
        // visible after the run.
        assert!(view.worker_of(0).is_some());
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn single_thread_work_stealing_degenerates_gracefully() {
        let (g, bufs) = multi_chain(2, 200);
        let reports = WorkStealingExecutor::new(1).run(&g, || Box::new(FifoStrategy));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].steals, 0);
        assert!(g.all_finished());
        for buf in &bufs {
            assert_eq!(buf.lock().len(), 100);
        }
    }

    #[test]
    fn queries_splice_into_a_running_executor_and_retire_cleanly() {
        use pipes_graph::io::GenSource;

        let g = Arc::new(QueryGraph::new());
        let open = Arc::new(AtomicBool::new(true));
        let gate = Arc::clone(&open);
        let mut t = 0u64;
        let src = g.add_source(
            "live",
            GenSource::new(move || {
                // ordering: Acquire — pairs with the Release close below so
                // the source observes the shutdown promptly.
                if !gate.load(Ordering::Acquire) {
                    return None;
                }
                t += 1;
                Some(Element::at(t as i64, Timestamp::new(t)))
            }),
        );
        let f = g.add_unary("f1", HalfFilter, &src);
        let (sink, buf1) = CollectSink::new();
        g.add_sink("sink1", sink, &f);

        let graph = Arc::clone(&g);
        let handle = thread::spawn(move || {
            WorkStealingExecutor::new(2)
                .with_quantum(16)
                .run(&graph, || Box::new(FifoStrategy))
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let wait = |cond: &dyn Fn() -> bool| {
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting");
                thread::yield_now();
            }
        };
        // The first query is demonstrably flowing...
        wait(&|| buf1.lock().len() >= 100);
        // ...now splice a second query onto the live source, no restart.
        let f2 = g.add_unary("f2", HalfFilter, &src);
        let (sink2, buf2) = CollectSink::new();
        let k2 = g.add_sink("sink2", sink2, &f2);
        wait(&|| buf2.lock().len() >= 100);
        let spliced_results = buf2.lock().len();
        // Retire the spliced query while the executor keeps running.
        g.remove_node(k2);
        g.remove_node(f2.node());
        wait(&|| buf1.lock().len() >= 2 * spliced_results);
        // Close the source; the run drains and joins.
        open.store(false, Ordering::Release);
        let reports = handle.join().expect("executor thread");
        assert!(g.all_finished());
        assert!(buf2.lock().len() >= spliced_results);
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn worker_leaving_at_its_cap_hands_its_groups_to_peers() {
        // One group, pinned on worker 0, which leaves after 4 quanta. The
        // group must not leave with it: worker 1 can neither claim an owned
        // group nor steal a victim's only one, so without the release on
        // exit it would sit out its whole idle valve at zero quanta.
        let (g, _bufs) = multi_chain(1, 100_000);
        let reports = WorkStealingExecutor::new(2)
            .with_quantum(8)
            .with_max_quanta(4)
            .with_rebalance_every(0)
            .with_initial_groups(vec![vec![0], Vec::new()])
            .run(&g, || Box::new(FifoStrategy));
        assert!(!g.all_finished());
        assert!(reports.iter().all(|r| r.hit_limit));
        assert_eq!(reports[0].quanta, 4);
        assert_eq!(
            reports[1].quanta, 4,
            "worker 1 never ran the group worker 0 left behind"
        );
    }
}
