//! Shuffle edges must be observationally invisible: a keyed-parallel plan
//! has to produce **byte-identical** output to the single-instance plan —
//! same payloads, same intervals, same order — for every element sequence,
//! instance count and node-stepping schedule, including a `parallelize`
//! landing mid-run and a fully skewed key distribution that leaves all but
//! one instance cold.
//!
//! The probe operator is a per-key running sum: its output depends on the
//! exact per-key processing order, so any cross-shuffle reordering or a
//! state hand-off that drops/duplicates an accumulator shows up as a wrong
//! payload, not just a wrong position.

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::{key_hash, Collector, KeyedState, NodeId, Operator, QueryGraph, Rekey};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;

/// Per-key running sum over `(key, value)` pairs, emitting `(key, sum)`.
struct KeyedSum {
    sums: HashMap<i64, i64>,
}

impl KeyedSum {
    fn new() -> Self {
        KeyedSum {
            sums: HashMap::new(),
        }
    }
}

impl Operator for KeyedSum {
    type In = (i64, i64);
    type Out = (i64, i64);
    fn on_element(
        &mut self,
        _p: usize,
        e: Element<(i64, i64)>,
        out: &mut dyn Collector<(i64, i64)>,
    ) {
        let (k, v) = e.payload;
        let sum = self.sums.entry(k).or_insert(0);
        *sum += v;
        out.element(Element::new((k, *sum), e.interval));
    }
}

impl Rekey for KeyedSum {
    fn export_keyed(&mut self) -> KeyedState {
        self.sums
            .drain()
            .map(|(k, s)| {
                (
                    key_hash(&k),
                    Box::new((k, s)) as Box<dyn std::any::Any + Send>,
                )
            })
            .collect()
    }
    fn import_keyed(&mut self, entries: KeyedState) {
        for (_, entry) in entries {
            let (k, s) = *entry.downcast::<(i64, i64)>().expect("KeyedSum state");
            self.sums.insert(k, s);
        }
    }
}

/// The source budget must match between the plans under comparison:
/// `VecSource` punctuates per produced batch, so the heartbeat stream (and
/// with it every flush boundary downstream) is a function of the budget.
const SRC_BUDGET: usize = 7;

/// Start-ordered `(key, value)` elements over a small key universe.
fn arb_elems(max_len: usize, keys: i64) -> impl Strategy<Value = Vec<Element<(i64, i64)>>> {
    prop::collection::vec((0..keys, -8i64..8, 0u64..32), 0..max_len).prop_map(|raw| {
        let mut ts: Vec<u64> = raw.iter().map(|&(_, _, t)| t).collect();
        ts.sort_unstable();
        raw.into_iter()
            .zip(ts)
            .map(|((k, v, _), t)| Element::at((k, v), Timestamp::new(t)))
            .collect()
    })
}

/// The oracle: running sums in source order (`VecSource` start-sorts its
/// input with a stable sort, so this is the exact single-stream order).
fn expected(mut elems: Vec<Element<(i64, i64)>>) -> Vec<Element<(i64, i64)>> {
    elems.sort_by_key(|e| e.start());
    let mut sums: HashMap<i64, i64> = HashMap::new();
    elems
        .into_iter()
        .map(|e| {
            let (k, v) = e.payload;
            let sum = sums.entry(k).or_insert(0);
            *sum += v;
            Element::new((k, *sum), e.interval)
        })
        .collect()
}

struct KeyedPlan {
    graph: Arc<QueryGraph>,
    src: NodeId,
    out: pipes_graph::io::Collected<(i64, i64)>,
}

fn keyed_plan(elems: Vec<Element<(i64, i64)>>, instances: usize) -> KeyedPlan {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_keyed_unary(
        "sum",
        KeyedSum::new,
        Arc::new(|&(k, _): &(i64, i64)| key_hash(&k)),
        instances,
        None,
        &src,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    KeyedPlan {
        graph: Arc::new(g),
        src: src.node(),
        out,
    }
}

/// The lock-free readiness cells say what the locked reference says, for
/// every node — partitioners, strict-frontier instances and the merge
/// included.
fn assert_cells_agree_with_locks(graph: &QueryGraph) {
    let ready = graph.ready();
    for id in 0..graph.len() {
        let (queued, oldest, finished, _, _) = graph.locked_probes(id);
        assert_eq!(ready.queued(id), queued, "queued of node {id}");
        assert_eq!(ready.oldest_seq(id), oldest, "oldest seq of node {id}");
        assert_eq!(ready.is_finished(id), finished, "finished of node {id}");
    }
}

/// Steps every node once per round — source at the pinned budget, the rest
/// at schedule-chosen budgets and a schedule-chosen rotation — until the
/// graph drains. Rotation + budgets vary the interleaving across the
/// shuffle stages without starving any node.
fn drive(graph: &QueryGraph, src: NodeId, sched: &[usize]) {
    let mut round = 0usize;
    while !graph.all_finished() {
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let pick = |i: usize| {
            if sched.is_empty() {
                0
            } else {
                sched[i % sched.len()]
            }
        };
        let off = pick(round) % ids.len().max(1);
        for i in 0..ids.len() {
            let id = ids[(i + off) % ids.len()];
            if graph.is_finished(id) {
                continue;
            }
            let budget = if id == src {
                SRC_BUDGET
            } else {
                1 + pick(round + i) % 13
            };
            graph.step_node(id, budget);
        }
        assert_cells_agree_with_locks(graph);
        round += 1;
        assert!(round < 10_000, "graph wedged");
    }
}

fn payloads(out: &pipes_graph::io::Collected<(i64, i64)>) -> Vec<Element<(i64, i64)>> {
    out.lock().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Keyed plan ≡ oracle, for every instance count and schedule.
    #[test]
    fn keyed_plan_is_byte_identical_to_single_instance(
        elems in arb_elems(48, 6),
        instances in 1usize..5,
        sched in prop::collection::vec(0usize..97, 1..24),
    ) {
        let want = expected(elems.clone());
        let plan = keyed_plan(elems, instances);
        drive(&plan.graph, plan.src, &sched);
        prop_assert_eq!(payloads(&plan.out), want);
    }

    /// Per-key subsequences each preserve their own processing order (the
    /// running sums of that key alone), independent of the global check.
    #[test]
    fn every_partitioned_key_keeps_its_order(
        elems in arb_elems(48, 6),
        instances in 2usize..5,
        sched in prop::collection::vec(0usize..97, 1..24),
    ) {
        let want = expected(elems.clone());
        let plan = keyed_plan(elems, instances);
        drive(&plan.graph, plan.src, &sched);
        let got = payloads(&plan.out);
        for k in 0..6 {
            let got_k: Vec<_> = got.iter().filter(|e| e.payload.0 == k).collect();
            let want_k: Vec<_> = want.iter().filter(|e| e.payload.0 == k).collect();
            prop_assert_eq!(got_k, want_k, "key {} lost its order", k);
        }
    }

    /// Full key skew: every element routes to one instance; its siblings
    /// stay cold, and the stream is still exact.
    #[test]
    fn skewed_keys_starve_instances_but_not_the_stream(
        values in prop::collection::vec(-8i64..8, 0..48),
        instances in 2usize..5,
        sched in prop::collection::vec(0usize..97, 1..24),
    ) {
        let elems: Vec<Element<(i64, i64)>> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| Element::at((0, v), Timestamp::new(i as u64)))
            .collect();
        let want = expected(elems.clone());
        let plan = keyed_plan(elems, instances);
        drive(&plan.graph, plan.src, &sched);
        prop_assert_eq!(payloads(&plan.out), want);
        // All per-key state lives on one instance: at most one of them
        // ever retained an accumulator.
        let group = plan.graph.shuffle_groups().pop().expect("group");
        prop_assert_eq!(group.instance_ids.len(), instances);
    }

    /// `parallelize` landing mid-run (after `warm` scheduling rounds) must
    /// leave the stream byte-identical: no loss, no reorder, no stale or
    /// duplicated accumulator after the state hand-off.
    #[test]
    fn parallelize_mid_run_is_invisible(
        elems in arb_elems(48, 6),
        instances in 1usize..4,
        widen_to in 1usize..6,
        warm in 0usize..6,
        sched in prop::collection::vec(0usize..97, 1..24),
    ) {
        let want = expected(elems.clone());
        let plan = keyed_plan(elems, instances);
        let group = plan.graph.shuffle_groups().pop().expect("group");
        // Warm-up: a few scheduling rounds so elements are in flight in
        // the partition/instance/merge stages when the splice lands.
        let mut rounds = 0;
        let ids: Vec<NodeId> = plan.graph.node_ids().collect();
        'warmup: while rounds < warm {
            for &id in &ids {
                if plan.graph.all_finished() {
                    break 'warmup;
                }
                if !plan.graph.is_finished(id) {
                    let budget = if id == plan.src { SRC_BUDGET } else { 2 };
                    plan.graph.step_node(id, budget);
                }
            }
            rounds += 1;
        }
        let fresh = plan.graph.parallelize(group.handle, widen_to);
        prop_assert_eq!(fresh.len(), widen_to);
        drive(&plan.graph, plan.src, &sched);
        prop_assert_eq!(payloads(&plan.out), want);
        let group = plan.graph.shuffle_groups().pop().expect("group");
        prop_assert_eq!(group.instance_ids.len(), widen_to);
    }
}
