//! Model-checked tests for the executor's completion and shutdown
//! protocols.
//!
//! Compiled only under `RUSTFLAGS="--cfg pipes_model_check"` (see
//! `scripts/ci.sh`). These drive the *real* executor code paths — the
//! work-stealing workers' claim/steal/stop protocol and the external-flag
//! early exit of `run_nodes` — on deliberately tiny graphs, so the
//! instrumented schedule space stays tractable (a preemption bound of 1
//! already covers every single-switch interleaving of the protocol).

#![cfg(pipes_model_check)]

use pipes_graph::io::{CountSink, VecSource};
use pipes_graph::QueryGraph;
use pipes_sched::{FifoStrategy, GroupTable, Parker, SingleThreadExecutor, WorkStealingExecutor};
use pipes_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};
use std::time::Duration;

fn tiny_graph(n: i64) -> (Arc<QueryGraph>, Arc<pipes_sync::Mutex<(u64, Timestamp)>>) {
    let g = QueryGraph::new();
    let elems: Vec<Element<i64>> = (0..n)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let (sink, count) = CountSink::new();
    g.add_sink("sink", sink, &src);
    (Arc::new(g), count)
}

/// An externally raised stop flag halts `run_nodes` at the next quantum
/// boundary in every interleaving — the worker never runs past its
/// `max_quanta` valve waiting for the store to become visible.
#[test]
fn raised_stop_flag_halts_worker_in_every_interleaving() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let (graph, _count) = tiny_graph(64);
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let graph = Arc::clone(&graph);
            let stop = Arc::clone(&stop);
            pipes_sync::thread::spawn(move || {
                let exec = SingleThreadExecutor::new()
                    .with_quantum(1)
                    .with_max_quanta(3);
                let mut strategy = FifoStrategy;
                exec.run_nodes(&graph, &mut strategy, &[0, 1], Some(&stop))
            })
        };
        stop.store(true, Ordering::Release);
        let report = worker.join().unwrap();
        // Raced stop: the worker ran somewhere between zero quanta (flag
        // observed before any work) and its own valve, never beyond it.
        assert!(
            report.quanta <= 3,
            "stop flag ignored: {} quanta",
            report.quanta
        );
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Two workers race claim-or-steal over one group, then try to execute it.
/// In every interleaving: ownership transfers atomically (the group always
/// ends up owned, never lost), at least one worker executes, and the
/// begin/end active bit rules out any overlap of the two critical sections
/// (no double execution).
#[test]
fn claim_steal_protocol_never_loses_or_double_executes_a_group() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let table = Arc::new(GroupTable::new(1));
        let in_section = Arc::new(AtomicUsize::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2usize)
            .map(|me| {
                let table = Arc::clone(&table);
                let in_section = Arc::clone(&in_section);
                let executed = Arc::clone(&executed);
                pipes_sync::thread::spawn(move || {
                    let victim = 1 - me;
                    let got = table.try_claim(0, me) || table.try_steal(0, victim, me);
                    if got && table.begin(0, me) {
                        let overlap = in_section.fetch_add(1, Ordering::AcqRel);
                        assert_eq!(overlap, 0, "double execution of a group");
                        executed.fetch_add(1, Ordering::AcqRel);
                        in_section.fetch_sub(1, Ordering::AcqRel);
                        table.end(0, me);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(table.owner(0).is_some(), "group lost in the hand-off");
        assert!(
            executed.load(Ordering::Acquire) >= 1,
            "nobody executed the group"
        );
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// A rebalance hand-off (owner releases, target claims) racing a third
/// idle scavenger: at most one of the claimants wins, and the group is
/// either owned by the winner or still free for later adoption — never
/// duplicated, never lost.
#[test]
fn release_claim_handoff_keeps_exactly_one_owner() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let table = Arc::new(GroupTable::new(1));
        assert!(table.try_claim(0, 0));
        let releaser = {
            let table = Arc::clone(&table);
            pipes_sync::thread::spawn(move || {
                assert!(table.release(0, 0), "inactive owner release must win")
            })
        };
        let claimants: Vec<_> = (1..3usize)
            .map(|me| {
                let table = Arc::clone(&table);
                pipes_sync::thread::spawn(move || table.try_claim(0, me))
            })
            .collect();
        releaser.join().unwrap();
        let wins: Vec<bool> = claimants.into_iter().map(|h| h.join().unwrap()).collect();
        let winners = wins.iter().filter(|&&w| w).count();
        assert!(winners <= 1, "two claimants both won the group");
        match table.owner(0) {
            Some(w) => {
                assert_eq!(winners, 1);
                assert!(wins[w - 1], "owner {w} is not the recorded winner");
            }
            None => assert_eq!(winners, 0, "a winner's group vanished"),
        }
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Splice-vs-steal at the table level: the leader grows the table for a
/// spliced group and claims the fresh slot while a thief concurrently
/// steals the pre-existing group from its idle owner. In every
/// interleaving both transitions land, no slot is lost, and the grown
/// slot starts free (grow never disturbs in-flight CAS traffic on the
/// old slots).
#[test]
fn table_grow_racing_steal_keeps_every_slot_consistent() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let table = Arc::new(GroupTable::new(1));
        assert!(table.try_claim(0, 0));
        let leader = {
            let table = Arc::clone(&table);
            pipes_sync::thread::spawn(move || {
                table.grow(2);
                assert!(table.try_claim(1, 0), "fresh slot must start free");
            })
        };
        let thief = {
            let table = Arc::clone(&table);
            pipes_sync::thread::spawn(move || table.try_steal(0, 0, 1))
        };
        let stolen = thief.join().unwrap();
        leader.join().unwrap();
        assert!(stolen, "idle owner cannot resist the steal");
        assert_eq!(table.len(), 2);
        assert_eq!(table.owner(0), Some(1), "stolen group lost in the grow");
        assert_eq!(table.owner(1), Some(0), "fresh group lost");
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Retire-vs-claim: a replan retires group 0 — its owner finishes the
/// in-flight quantum and releases at the epoch hand-off, and per the
/// NO_TARGET rule nobody ever re-claims it — while an idle worker races
/// to adopt the freshly spliced group the same replan added. In every
/// interleaving the retired slot drains to free and stays free, and the
/// fresh group ends with exactly one owner.
#[test]
fn retire_drain_racing_idle_adoption_frees_retired_and_owns_fresh() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let table = Arc::new(GroupTable::new(1));
        assert!(table.try_claim(0, 0));
        // Grow-before-publish: the table is extended before any worker can
        // see (and claim from) the new plan, exactly as `replan` orders it.
        table.grow(2);
        let owner = {
            let table = Arc::clone(&table);
            pipes_sync::thread::spawn(move || {
                assert!(table.begin(0, 0), "owner finishes its last quantum");
                table.end(0, 0);
                assert!(table.release(0, 0), "retired drain release must win");
            })
        };
        let idle = {
            let table = Arc::clone(&table);
            pipes_sync::thread::spawn(move || table.try_claim(1, 1))
        };
        owner.join().unwrap();
        assert!(idle.join().unwrap(), "fresh free group must be adoptable");
        assert_eq!(table.owner(0), None, "retired group must drain to free");
        assert_eq!(table.owner(1), Some(1));
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Bounded shutdown mid-splice: a sink is spliced onto the live source
/// while the work-stealing executor runs — possibly before the first
/// quantum, possibly mid-drain, possibly after the source already closed
/// (subscribe-after-close delivers an immediate `Close`, so no
/// interleaving can wedge the data path). Every schedule must terminate
/// with the worker joined and the original stream fully delivered. One
/// worker keeps the schedule space tractable — the claim/steal races the
/// splice induces are covered by the two table-level tests above; this
/// one pins the leader's replan/shutdown protocol itself.
#[test]
fn shutdown_stays_bounded_when_a_sink_splices_mid_run() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let g = QueryGraph::new();
        let elems = vec![Element::at(0i64, Timestamp::new(0))];
        let src = g.add_source("src", VecSource::new(elems));
        let (sink, count) = CountSink::new();
        g.add_sink("sink", sink, &src);
        let graph = Arc::new(g);
        let (late_sink, late_count) = CountSink::new();
        let splicer = {
            let graph = Arc::clone(&graph);
            pipes_sync::thread::spawn(move || {
                graph.add_sink("late", late_sink, &src);
            })
        };
        let reports = WorkStealingExecutor::new(1)
            .with_quantum(1)
            .with_rebalance_every(0)
            .run(&graph, || Box::new(FifoStrategy));
        splicer.join().unwrap();
        assert_eq!(reports.len(), 1, "the worker was lost");
        assert_eq!(count.lock().0, 1, "original stream not fully delivered");
        assert!(late_count.lock().0 <= 1, "late sink over-delivered");
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Stateless pass-through with an empty keyed-state hand-off, so a shuffle
/// group over it can be resized mid-run without any state to relocate.
struct Relay;
impl pipes_graph::Operator for Relay {
    type In = i64;
    type Out = i64;
    fn on_element(
        &mut self,
        _p: usize,
        e: Element<i64>,
        out: &mut dyn pipes_graph::Collector<i64>,
    ) {
        out.element(e);
    }
}
impl pipes_graph::Rekey for Relay {
    fn export_keyed(&mut self) -> pipes_graph::KeyedState {
        Vec::new()
    }
    fn import_keyed(&mut self, _entries: pipes_graph::KeyedState) {}
}

fn keyed_graph(n: i64, instances: usize) -> (Arc<QueryGraph>, pipes_graph::io::Collected<i64>) {
    let g = QueryGraph::new();
    let elems: Vec<Element<i64>> = (0..n)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_keyed_unary(
        "par",
        || Relay,
        Arc::new(|v: &i64| v.rem_euclid(2) as u64),
        instances,
        None,
        &src,
    );
    let (sink, out) = pipes_graph::io::CollectSink::new();
    g.add_sink("sink", sink, &h);
    (Arc::new(g), out)
}

/// Partition-push racing merge-drain: one thread steps the source and the
/// partitioner (pushing keyed runs onto the instance edges) while the other
/// steps the instances and the order-restoring merge. In every
/// interleaving the sink must see the full stream in exact arrival order —
/// no run lost on a partially flushed partition buffer, no per-key
/// reordering past the merge's strict frontier rule.
#[test]
fn partition_push_racing_merge_drain_keeps_global_order() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let (graph, out) = keyed_graph(3, 2);
        let group = graph.shuffle_groups().pop().expect("one shuffle group");
        let upstream: Vec<usize> = vec![0, group.partition_ids[0]];
        let downstream: Vec<usize> = group
            .instance_ids
            .iter()
            .copied()
            .chain([group.handle, graph.len() - 1])
            .collect();
        let pusher = {
            let graph = Arc::clone(&graph);
            pipes_sync::thread::spawn(move || {
                for _ in 0..4 {
                    for &id in &upstream {
                        graph.step_node(id, 2);
                    }
                }
            })
        };
        for _ in 0..4 {
            for &id in &downstream {
                graph.step_node(id, 2);
            }
        }
        pusher.join().unwrap();
        // Drain whatever the race left queued; progress must always exist.
        let mut spins = 0;
        while !graph.all_finished() {
            for id in 0..graph.len() {
                graph.step_node(id, 64);
            }
            spins += 1;
            assert!(spins < 64, "shuffle group wedged");
        }
        let got: Vec<i64> = out.lock().iter().map(|e| e.payload).collect();
        assert_eq!(
            got,
            vec![0, 1, 2],
            "stream lost or reordered in the shuffle"
        );
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// `parallelize` splicing new keyed instances while the work-stealing
/// executor is mid-run: the expander freezes routing under the partition
/// runnable lock, drains and retires the old instances, and splices the
/// new generation behind the executor's back (topology-epoch replan). In
/// every interleaving the executor must terminate (no lost wakeup on the
/// fresh nodes, no quantum against a retired instance wedging) and the
/// sink must see the full stream in exact arrival order.
#[test]
fn instance_splice_mid_run_under_work_stealing_preserves_stream() {
    let mut builder = pipes_sync::Builder::new().preemption_bound(1);
    // A splice against the live executor is the deepest schedule in this
    // suite (drain + export + re-plan per interleaving); give it headroom
    // over the default per-execution step budget.
    builder.max_steps = 400_000;
    let report = builder.check(|| {
        let (graph, out) = keyed_graph(1, 1);
        let group = graph.shuffle_groups().pop().expect("one shuffle group");
        let splicer = {
            let graph = Arc::clone(&graph);
            pipes_sync::thread::spawn(move || {
                let fresh = graph.parallelize(group.handle, 2);
                assert_eq!(fresh.len(), 2);
            })
        };
        let reports = WorkStealingExecutor::new(1)
            .with_quantum(1)
            .with_rebalance_every(0)
            .run(&graph, || Box::new(FifoStrategy));
        splicer.join().unwrap();
        assert_eq!(reports.len(), 1, "the worker was lost");
        // The executor may legitimately observe completion and stop while
        // the splice is still in flight; the fresh instances then hold a
        // queued Close for the next run to drive. Drain single-threaded
        // and require the graph to finish — anything short of that is a
        // wedge (lost run or stuck merge port).
        let mut spins = 0;
        while !graph.all_finished() {
            for id in 0..graph.len() {
                graph.step_node(id, 64);
            }
            spins += 1;
            assert!(spins < 64, "splice wedged the graph");
        }
        let got: Vec<i64> = out.lock().iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![0], "stream lost or reordered across the splice");
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// The full dynamic layer 3 under the model checker: plan, claim, targeted
/// wakeups, idle adoption and the decentralized stop protocol. Every
/// interleaving must terminate (bounded shutdown — no lost wakeup can park
/// a worker forever), deliver the whole stream, and join both workers.
#[test]
fn work_stealing_executor_terminates_and_delivers_in_every_schedule() {
    let report = pipes_sync::Builder::new().preemption_bound(1).check(|| {
        let (graph, count) = tiny_graph(2);
        let reports = WorkStealingExecutor::new(2)
            .with_quantum(4)
            .with_rebalance_every(0)
            .run(&graph, || Box::new(FifoStrategy));
        assert_eq!(reports.len(), 2, "a worker was lost");
        assert_eq!(count.lock().0, 2, "stream not fully delivered");
        assert!(graph.all_finished());
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// `Parker::unpark` notifies only a worker it sees parked. Racing the
/// waiter flag in every interleaving — unpark before the park, between the
/// token check and the wait, during the wait, after a timeout — the token
/// is deposited exactly once and consumed exactly once: by the racing park,
/// or else it is still there for the next one.
#[test]
fn parker_unpark_racing_the_waiter_flag_never_loses_the_token() {
    let report = pipes_sync::Builder::new().preemption_bound(2).check(|| {
        let parker = Arc::new(Parker::new());
        let waiter = {
            let parker = Arc::clone(&parker);
            pipes_sync::thread::spawn(move || parker.park(Duration::from_secs(1)))
        };
        parker.unpark();
        let woken = waiter.join().unwrap();
        let pending = parker.park(Duration::ZERO);
        assert_ne!(woken, pending, "the wake token was lost or duplicated");
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// A push racing `park`: the worker looks for its node in the ready set,
/// finds nothing and parks, while a producer's push marks the node ready
/// and — on that not-ready → ready transition, and only on it — runs the
/// wake hook. In every interleaving the worker either saw the node ready
/// before parking, or was handed the token (a park that the modeled timeout
/// ended first leaves it pending for the next one): the wake-up cannot fall
/// between the look and the park.
#[test]
fn push_racing_park_wakes_the_worker_or_is_seen_before_it_parks() {
    let report = pipes_sync::Builder::new().preemption_bound(2).check(|| {
        let (graph, _count) = tiny_graph(4);
        let (src, sink) = (0, 1);
        let parker = Arc::new(Parker::new());
        let hooked = Arc::new(AtomicUsize::new(0));
        {
            let parker = Arc::clone(&parker);
            let hooked = Arc::clone(&hooked);
            graph.set_wake_hook(Arc::new(move |node| {
                assert_eq!(node, sink, "only the sink turns ready");
                hooked.fetch_add(1, Ordering::AcqRel);
                parker.unpark();
            }));
        }
        let worker = {
            let graph = Arc::clone(&graph);
            let parker = Arc::clone(&parker);
            pipes_sync::thread::spawn(move || {
                let seen = graph.ready().is_ready(sink);
                (seen, !seen && parker.park(Duration::from_secs(1)))
            })
        };
        // Two pushes: the second finds the sink ready and must not wake.
        graph.step_node(src, 1);
        graph.step_node(src, 1);
        let (seen, woken) = worker.join().unwrap();
        assert_eq!(hooked.load(Ordering::Acquire), 1, "one wake per transition");
        assert!(graph.ready().is_ready(sink));
        let pending = parker.park(Duration::ZERO);
        assert_ne!(woken, pending, "the wake token was lost or duplicated");
        assert!(seen || woken || pending);
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}
