//! Byte-identity of keyed-parallel plans for every operator that ships a
//! [`pipes_graph::Rekey`] implementation: `GroupedAggregate`, `Distinct`
//! and `RippleJoin` behind a shuffle edge must produce exactly the output
//! of the single-instance plan — same payloads, same intervals, same
//! order — for arbitrary inputs, instance counts and node-stepping
//! schedules. The composed auctions ⋈ bids → fee → grouped-max plan, with
//! both stateful stages keyed at once, is pinned the same way.
//!
//! Sources are stepped first in id order at a pinned budget in *both*
//! plans: `VecSource` punctuates per batch and the graph stamps arrival
//! sequences at publish time, so the heartbeat stream and the cross-source
//! interleaving have to match between the plans under comparison. The
//! operators named here also pin lint rule 4 (`on_run` overrides need a
//! batched-vs-per-message equivalence test): GroupedAggregate `on_run`
//! behavior behind the shuffle edge is covered against the per-message
//! single-instance baseline.

use pipes_graph::io::{CollectSink, Collected, CountSink, VecSource};
use pipes_graph::{key_hash, NodeId, QueryGraph};
use pipes_ops::aggregate::{MaxAgg, SumAgg};
use pipes_ops::{Distinct, GroupedAggregate, Map, RippleJoin};
use pipes_sync::Arc;
use pipes_time::{Element, TimeInterval, Timestamp};
use proptest::prelude::*;

/// Pinned source budget — part of the observable input (batch punctuation).
const SRC_BUDGET: usize = 5;

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

/// Steps sources first in id order at the pinned budget, then every other
/// node once with schedule-chosen rotation and budgets, until the graph
/// drains. The same driver runs both plans; only `sched` varies.
fn drive(graph: &QueryGraph, srcs: &[NodeId], sched: &[usize]) {
    let mut round = 0usize;
    while !graph.all_finished() {
        for &s in srcs {
            if !graph.is_finished(s) {
                graph.step_node(s, SRC_BUDGET);
            }
        }
        let ids: Vec<NodeId> = graph.node_ids().filter(|id| !srcs.contains(id)).collect();
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
            if !graph.is_finished(id) {
                graph.step_node(id, 1 + pick(round + i) % 13);
            }
        }
        assert_cells_agree_with_locks(graph);
        round += 1;
        assert!(round < 10_000, "graph wedged");
    }
}

/// Start-ordered i64 elements over a small value range (dense duplicates).
fn arb_elems(max_len: usize) -> impl Strategy<Value = Vec<Element<i64>>> {
    prop::collection::vec((0i64..12, 0u64..24), 0..max_len).prop_map(|raw| {
        let mut ts: Vec<u64> = raw.iter().map(|&(_, t)| t).collect();
        ts.sort_unstable();
        raw.into_iter()
            .zip(ts)
            .map(|((v, _), t)| Element::at(v, Timestamp::new(t)))
            .collect()
    })
}

fn arb_sched() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..97, 1..24)
}

// ---------------------------------------------------------------------------
// GroupedAggregate
// ---------------------------------------------------------------------------

fn grouped_single(elems: Vec<Element<i64>>) -> Vec<Element<(i64, f64)>> {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_unary(
        "agg",
        GroupedAggregate::new(|v: &i64| v.rem_euclid(4), SumAgg(|v: &i64| *v as f64)),
        &src,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    drive(&g, &[src.node()], &[]);
    let v = out.lock().clone();
    v
}

#[allow(clippy::type_complexity)]
fn grouped_keyed(
    elems: Vec<Element<i64>>,
    instances: usize,
) -> (QueryGraph, NodeId, Collected<(i64, f64)>) {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_keyed_unary(
        "agg",
        || GroupedAggregate::new(|v: &i64| v.rem_euclid(4), SumAgg(|v: &i64| *v as f64)),
        Arc::new(|v: &i64| key_hash(&v.rem_euclid(4))),
        instances,
        // Flush output ties at broadcast stamps; the single-instance flush
        // is globally key-sorted, so ordering ties by key restores it.
        Some(Arc::new(
            |a: &Element<(i64, f64)>, b: &Element<(i64, f64)>| a.payload.0.cmp(&b.payload.0),
        )),
        &src,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    let src = src.node();
    (g, src, out)
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

fn distinct_single(elems: Vec<Element<i64>>) -> Vec<Element<i64>> {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_unary("distinct", Distinct::new(), &src);
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    drive(&g, &[src.node()], &[]);
    let v = out.lock().clone();
    v
}

fn distinct_keyed(
    elems: Vec<Element<i64>>,
    instances: usize,
) -> (QueryGraph, NodeId, Collected<i64>) {
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_keyed_unary(
        "distinct",
        Distinct::new,
        Arc::new(|v: &i64| key_hash(v)),
        instances,
        // The single-instance watermark flush sorts by (start, payload).
        Some(Arc::new(|a: &Element<i64>, b: &Element<i64>| {
            (a.start(), a.payload).cmp(&(b.start(), b.payload))
        })),
        &src,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    let src = src.node();
    (g, src, out)
}

// ---------------------------------------------------------------------------
// RippleJoin
// ---------------------------------------------------------------------------

type Pair = (i64, i64);

fn join_op() -> RippleJoin<Pair, Pair, (i64, i64, i64)> {
    RippleJoin::equi(
        |l: &Pair| l.0,
        |r: &Pair| r.0,
        |l: &Pair, r: &Pair| (l.0, l.1, r.1),
    )
}

fn arb_pairs(max_len: usize) -> impl Strategy<Value = Vec<Element<Pair>>> {
    prop::collection::vec((0i64..4, 0i64..16, 0u64..24), 0..max_len).prop_map(|raw| {
        let mut ts: Vec<u64> = raw.iter().map(|&(_, _, t)| t).collect();
        ts.sort_unstable();
        raw.into_iter()
            .zip(ts)
            .map(|((k, v, _), t)| Element::at((k, v), Timestamp::new(t)))
            .collect()
    })
}

fn join_single(
    left: Vec<Element<Pair>>,
    right: Vec<Element<Pair>>,
) -> Vec<Element<(i64, i64, i64)>> {
    let g = QueryGraph::new();
    let l = g.add_source("left", VecSource::new(left));
    let r = g.add_source("right", VecSource::new(right));
    let h = g.add_binary("join", join_op(), &l, &r);
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    drive(&g, &[l.node(), r.node()], &[]);
    let v = out.lock().clone();
    v
}

#[allow(clippy::type_complexity)]
fn join_keyed(
    left: Vec<Element<Pair>>,
    right: Vec<Element<Pair>>,
    instances: usize,
) -> (QueryGraph, Vec<NodeId>, Collected<(i64, i64, i64)>) {
    let g = QueryGraph::new();
    let l = g.add_source("left", VecSource::new(left));
    let r = g.add_source("right", VecSource::new(right));
    let h = g.add_keyed_binary(
        "join",
        || join_op().with_rekey(|l: &Pair| key_hash(&l.0), |r: &Pair| key_hash(&r.0)),
        Arc::new(|l: &Pair| key_hash(&l.0)),
        Arc::new(|r: &Pair| key_hash(&r.0)),
        instances,
        // The join emits only while processing elements — no broadcast-
        // stamp ties across instances, so no comparator is needed.
        None,
        &l,
        &r,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    let srcs = vec![l.node(), r.node()];
    (g, srcs, out)
}

/// The strict frontier, as the ready set publishes it: a keyed join
/// instance with one open port empty is not ready however deep the other
/// port is — pushes into the deep side leave it alone — and the push that
/// fills the empty port is the one that makes it ready.
#[test]
fn keyed_join_instance_is_ready_only_once_both_open_ports_hold_a_head() {
    let pairs = |n: i64| -> Vec<Element<Pair>> {
        (0..n)
            .map(|i| Element::at((i % 3, i), Timestamp::new(i as u64 + 1)))
            .collect()
    };
    let (g, srcs, _out) = join_keyed(pairs(40), pairs(40), 1);
    let group = g.shuffle_groups().pop().expect("group");
    let (lpart, rpart) = (group.partition_ids[0], group.partition_ids[1]);
    let inst = group.instance_ids[0];
    let ready = g.ready();
    for depth in 1..=4 {
        g.step_node(srcs[0], SRC_BUDGET);
        g.step_node(lpart, 64);
        assert!(!ready.is_ready(inst), "right port still empty");
        assert_eq!((ready.queued(inst), ready.oldest_seq(inst)), (0, None));
        let (queued, ..) = g.locked_probes(inst);
        assert_eq!(queued, 0, "the locked reference agrees (depth {depth})");
    }
    g.step_node(srcs[1], SRC_BUDGET);
    assert!(!ready.is_ready(inst), "still in the right partitioner");
    g.step_node(rpart, 64);
    assert!(ready.is_ready(inst), "the push that filled the port");
    assert!(ready.queued(inst) > 4 * SRC_BUDGET, "both ports count now");
    assert_cells_agree_with_locks(&g);
    drive(&g, &srcs, &[]);
}

/// ROADMAP 4(a): a join is told when one input ends. With the build side
/// closed and the probe side still streaming, the sink sees progress past
/// the build side's last element *before* end of stream (the watermark
/// used to freeze at `min(left, right)` until both sides had closed), and
/// the probe elements stored as partners for the closed side are dropped —
/// on the single-instance plan and behind a two-instance shuffle edge.
#[test]
fn join_told_its_build_side_closed_streams_progress_and_drops_its_partners() {
    let pairs = |n: i64| -> Vec<Element<Pair>> {
        (0..n)
            .map(|i| Element::at((i % 3, i), Timestamp::new(i as u64 + 1)))
            .collect()
    };
    const BUILD: i64 = 6;
    const ROUNDS: usize = 10;
    for keyed in [false, true] {
        let g = QueryGraph::new();
        let l = g.add_source("build", VecSource::new(pairs(BUILD)));
        let r = g.add_source("probe", VecSource::new(pairs(400)));
        let (h, joins) = if keyed {
            let h = g.add_keyed_binary(
                "join",
                join_op,
                Arc::new(|l: &Pair| key_hash(&l.0)),
                Arc::new(|r: &Pair| key_hash(&r.0)),
                2,
                None,
                &l,
                &r,
            );
            (h, g.shuffle_groups()[0].instance_ids.clone())
        } else {
            let h = g.add_binary("join", join_op(), &l, &r);
            let id = h.node();
            (h, vec![id])
        };
        let (sink, seen) = CountSink::new();
        g.add_sink("sink", sink, &h);
        let (l, r) = (l.node(), r.node());
        let settle = |g: &QueryGraph| {
            for _ in 0..4 {
                for id in g.node_ids().filter(|&id| id != l && id != r) {
                    g.step_node(id, 256);
                }
            }
        };
        // Probe elements arrive while the build side is still open …
        g.step_node(l, SRC_BUDGET);
        for _ in 0..ROUNDS {
            g.step_node(r, SRC_BUDGET);
        }
        settle(&g);
        // … the build side ends …
        while !g.is_finished(l) {
            g.step_node(l, SRC_BUDGET);
        }
        settle(&g);
        // … and the probe side keeps streaming.
        for _ in 0..ROUNDS {
            g.step_node(r, SRC_BUDGET);
            settle(&g);
        }
        assert!(
            !g.is_finished(r),
            "the stream has not ended (keyed: {keyed})"
        );
        let progress = seen.lock().1;
        assert!(
            progress > Timestamp::new(BUILD as u64),
            "sink progress {progress:?} is stuck at the closed build side (keyed: {keyed})"
        );
        let retained: usize = joins.iter().map(|&id| g.memory(id)).sum();
        assert!(
            retained <= ROUNDS * SRC_BUDGET,
            "join retains {retained} entries: the {} probe elements that arrived before \
             the build side closed can never match again (keyed: {keyed})",
            ROUNDS * SRC_BUDGET
        );
        drive(&g, &[l, r], &[]);
    }
}

// ---------------------------------------------------------------------------
// The composed plan: auctions ⋈ bursty bids → fee → grouped max
// ---------------------------------------------------------------------------

/// NEXMark-style inputs: 512 auctions `(id, category)`, open for the whole
/// session, and `n` bids `(auction, price)` in bursts of 16 that share one
/// auction and one timestamp.
fn bursty_inputs(n: u64) -> (Vec<Element<Pair>>, Vec<Element<Pair>>) {
    const AUCTIONS: u64 = 512;
    const BURST: u64 = 16;
    let horizon = TimeInterval::new(Timestamp::ZERO, Timestamp::new(u64::MAX / 2));
    let auctions = (0..AUCTIONS as i64)
        .map(|id| Element::new((id, id % 8), horizon))
        .collect();
    let bids = (0..n)
        .map(|i| {
            let burst = i / BURST;
            let auction = ((burst * 7919) % AUCTIONS) as i64;
            let price = 100 + (i % BURST) as i64 * 3;
            Element::at((auction, price), Timestamp::new(burst + 1))
        })
        .collect();
    (auctions, bids)
}

/// The join, a fee map and the max price per category, single-instance or
/// with the join and the aggregate each behind a shuffle edge of
/// `instances` copies; drained by `run_to_completion`.
fn composed_plan(n_bids: u64, instances: Option<usize>) -> Vec<Element<Pair>> {
    let bid_join = || RippleJoin::equi(|a: &Pair| a.0, |b: &Pair| b.0, |a, b| (a.1, b.1));
    let top = || GroupedAggregate::new(|p: &Pair| p.0, MaxAgg(|p: &Pair| p.1));
    let (auctions, bids) = bursty_inputs(n_bids);
    let g = QueryGraph::new();
    let a = g.add_source("auctions", VecSource::new(auctions));
    let b = g.add_source("bids", VecSource::new(bids));
    let joined = match instances {
        None => g.add_binary("join", bid_join(), &a, &b),
        Some(n) => g.add_keyed_binary(
            "join",
            move || bid_join().with_rekey(|a: &Pair| key_hash(&a.0), |b: &Pair| key_hash(&b.0)),
            Arc::new(|a: &Pair| key_hash(&a.0)),
            Arc::new(|b: &Pair| key_hash(&b.0)),
            n,
            None,
            &a,
            &b,
        ),
    };
    let fee = g.add_unary("fee", Map::new(|p: Pair| (p.0, p.1 + p.1 / 50)), &joined);
    let max = match instances {
        None => g.add_unary("top-price", top(), &fee),
        Some(n) => g.add_keyed_unary(
            "top-price",
            top,
            Arc::new(|p: &Pair| key_hash(&p.0)),
            n,
            // Heartbeat flushes are key-sorted in the single plan.
            Some(Arc::new(|a: &Element<Pair>, b: &Element<Pair>| {
                a.payload.0.cmp(&b.payload.0)
            })),
            &fee,
        ),
    };
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &max);
    g.run_to_completion(256);
    let v = out.lock().clone();
    v
}

/// Keyed operators compose: the whole join → map → aggregate plan with both
/// stateful stages keyed reproduces the single-instance sink stream byte
/// for byte on bursty input, at 2, 3 and 4 instances.
#[test]
fn composed_join_fee_max_plan_keyed_is_byte_identical() {
    let want = composed_plan(16_000, None);
    assert!(!want.is_empty(), "plan produced no aggregates");
    for instances in 2..=4 {
        assert_eq!(
            composed_plan(16_000, Some(instances)),
            want,
            "keyed plan with {instances} instances diverged from the single plan"
        );
    }
}

/// Warm-up for the mid-run re-sizing tests: `rounds` scheduling rounds at
/// small budgets, so messages are in flight in the partition, instance and
/// merge stages when the splice lands.
fn warm_up(g: &QueryGraph, srcs: &[NodeId], rounds: usize) {
    let ids: Vec<NodeId> = g.node_ids().collect();
    for _ in 0..rounds {
        for &s in srcs {
            if !g.is_finished(s) {
                g.step_node(s, SRC_BUDGET);
            }
        }
        for &id in &ids {
            if !srcs.contains(&id) && !g.is_finished(id) {
                g.step_node(id, 2);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-sizing a heartbeat-flushing, tie-sorted aggregate mid-run, with
    /// elements and broadcast heartbeats in flight: the retiring
    /// generation's unprocessed input is replayed through the new routing,
    /// heartbeats to *every* new instance — also to state whose old
    /// instance had already flushed at them. Flushing is idempotent, the
    /// tie groups re-form at the replayed stamps, and the output stays
    /// byte-identical.
    #[test]
    fn grouped_aggregate_parallelize_mid_run_is_invisible(
        elems in arb_elems(40),
        instances in 1usize..4,
        widen_to in 1usize..5,
        warm in 0usize..8,
        sched in arb_sched(),
    ) {
        let want = grouped_single(elems.clone());
        let (g, src, out) = grouped_keyed(elems, instances);
        let group = g.shuffle_groups().pop().expect("group");
        warm_up(&g, &[src], warm);
        let fresh = g.parallelize(group.handle, widen_to);
        prop_assert_eq!(fresh.len(), widen_to);
        drive(&g, &[src], &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }

    /// GroupedAggregate behind a shuffle edge ≡ single instance, for every
    /// input, fan-out and schedule — flush ties restored by the key tie.
    #[test]
    fn grouped_aggregate_keyed_is_byte_identical(
        elems in arb_elems(40),
        instances in 2usize..5,
        sched in arb_sched(),
    ) {
        let want = grouped_single(elems.clone());
        let (g, src, out) = grouped_keyed(elems, instances);
        drive(&g, &[src], &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }

    /// Distinct behind a shuffle edge ≡ single instance; watermark-flush
    /// ties restored by the (start, payload) tie.
    #[test]
    fn distinct_keyed_is_byte_identical(
        elems in arb_elems(40),
        instances in 2usize..5,
        sched in arb_sched(),
    ) {
        let want = distinct_single(elems.clone());
        let (g, src, out) = distinct_keyed(elems, instances);
        drive(&g, &[src], &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }

    /// RippleJoin behind a two-sided shuffle edge ≡ single instance: both
    /// inputs partition by the join key, matching pairs co-locate, and the
    /// merge restores global arrival order without a tie comparator.
    #[test]
    fn ripple_join_keyed_is_byte_identical(
        left in arb_pairs(28),
        right in arb_pairs(28),
        instances in 2usize..5,
        sched in arb_sched(),
    ) {
        let want = join_single(left.clone(), right.clone());
        let (g, srcs, out) = join_keyed(left, right, instances);
        drive(&g, &srcs, &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }

    /// The same for `Distinct`, whose heartbeat flush is sorted by
    /// `(start, payload)`: replayed heartbeats find nothing left to flush
    /// in state that had already seen them.
    #[test]
    fn distinct_parallelize_mid_run_is_invisible(
        elems in arb_elems(40),
        instances in 1usize..4,
        widen_to in 1usize..5,
        warm in 0usize..8,
        sched in arb_sched(),
    ) {
        let want = distinct_single(elems.clone());
        let (g, src, out) = distinct_keyed(elems, instances);
        let group = g.shuffle_groups().pop().expect("group");
        warm_up(&g, &[src], warm);
        g.parallelize(group.handle, widen_to);
        drive(&g, &[src], &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }

    /// Re-sharding a warm join mid-run moves both sweep areas with the
    /// keyed state hand-off: output stays byte-identical after the splice.
    #[test]
    fn ripple_join_parallelize_mid_run_is_invisible(
        left in arb_pairs(28),
        right in arb_pairs(28),
        instances in 1usize..3,
        widen_to in 1usize..5,
        warm in 0usize..5,
        sched in arb_sched(),
    ) {
        let want = join_single(left.clone(), right.clone());
        let (g, srcs, out) = join_keyed(left, right, instances);
        let group = g.shuffle_groups().pop().expect("group");
        let ids: Vec<NodeId> = g.node_ids().collect();
        let mut rounds = 0;
        'warmup: while rounds < warm {
            for &s in &srcs {
                if !g.is_finished(s) {
                    g.step_node(s, SRC_BUDGET);
                }
            }
            for &id in &ids {
                if g.all_finished() {
                    break 'warmup;
                }
                if !srcs.contains(&id) && !g.is_finished(id) {
                    g.step_node(id, 2);
                }
            }
            rounds += 1;
        }
        let fresh = g.parallelize(group.handle, widen_to);
        prop_assert_eq!(fresh.len(), widen_to);
        drive(&g, &srcs, &sched);
        prop_assert_eq!(out.lock().clone(), want);
    }
}
