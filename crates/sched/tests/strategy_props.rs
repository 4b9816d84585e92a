//! Property tests: every scheduling strategy drains every randomly shaped
//! finite graph, and all strategies agree on the results; the lock-free
//! readiness cells agree with the locked reference after every quantum, and
//! every strategy picks from the cells what its lock-probing predecessor
//! picked from the locks.

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::{Collector, NodeId, NodeKind, Operator, QueryGraph};
use pipes_ops::aggregate::{CountAgg, ScalarAggregate};
use pipes_ops::{Filter, TimeWindow, Union};
use pipes_sched::{
    ChainStrategy, FifoStrategy, GreedyStrategy, RandomStrategy, RateBasedStrategy,
    RoundRobinStrategy, SchedView, SingleThreadExecutor, Strategy as SchedStrategy,
};
use pipes_time::{Duration, Element, Timestamp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Mul(i64);
impl Operator for Mul {
    type In = i64;
    type Out = i64;
    fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
        let k = self.0;
        out.element(e.map(|v| v.wrapping_mul(k)));
    }
}

/// A randomly shaped graph: two sources, a random chain on each, optionally
/// merged by a union, ending in window+count and a collecting sink.
#[derive(Clone, Debug)]
struct Shape {
    n: u64,
    chain_a: Vec<i64>,
    chain_b: Vec<i64>,
    merge: bool,
    window: u64,
    modulus: i64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        50u64..400,
        prop::collection::vec(1i64..5, 0..3),
        prop::collection::vec(1i64..5, 0..3),
        any::<bool>(),
        1u64..50,
        1i64..4,
    )
        .prop_map(|(n, chain_a, chain_b, merge, window, modulus)| Shape {
            n,
            chain_a,
            chain_b,
            merge,
            window,
            modulus,
        })
}

fn build(shape: &Shape) -> (QueryGraph, pipes_graph::io::Collected<u64>) {
    let g = QueryGraph::new();
    let mk_elems = |offset: u64| -> Vec<Element<i64>> {
        (0..shape.n)
            .map(|i| Element::at((i + offset) as i64, Timestamp::new(i * 2 + offset)))
            .collect()
    };
    let mut a = g.add_source("a", VecSource::new(mk_elems(0)));
    for (i, k) in shape.chain_a.iter().enumerate() {
        a = g.add_unary(&format!("a{i}"), Mul(*k), &a);
    }
    let mut b = g.add_source("b", VecSource::new(mk_elems(1)));
    for (i, k) in shape.chain_b.iter().enumerate() {
        b = g.add_unary(&format!("b{i}"), Mul(*k), &b);
    }
    let m = shape.modulus;
    let merged = if shape.merge {
        g.add_nary("union", Union::new(2), &[a, b])
    } else {
        let fa = g.add_unary("fa", Filter::new(move |v: &i64| v % m == 0), &a);
        let (sb, _) = CollectSink::new();
        g.add_sink("side", sb, &b);
        fa
    };
    let w = g.add_unary(
        "window",
        TimeWindow::new(Duration::from_ticks(shape.window)),
        &merged,
    );
    let agg = g.add_unary("count", ScalarAggregate::new(CountAgg), &w);
    let (sink, buf) = CollectSink::new();
    g.add_sink("out", sink, &agg);
    (g, buf)
}

fn run_with(shape: &Shape, strategy: &mut dyn SchedStrategy) -> Vec<Element<u64>> {
    let (g, buf) = build(shape);
    let report = SingleThreadExecutor::new()
        .with_quantum(16)
        .run(&g, strategy);
    assert!(g.all_finished(), "{} stalled on {shape:?}", report.strategy);
    let out = buf.lock().clone();
    out
}

/// Different strategies interleave heartbeats differently, so output
/// *intervals* may be split differently — but the snapshots (the semantics)
/// must be identical at every instant.
fn snapshot_equal(a: &[Element<u64>], b: &[Element<u64>]) -> Result<(), String> {
    use pipes_time::snapshot;
    let points = snapshot::merge_points([snapshot::event_points(a), snapshot::event_points(b)]);
    for t in points {
        let (sa, sb) = (snapshot::snapshot(a, t), snapshot::snapshot(b, t));
        if !snapshot::multiset_eq(sa.clone(), sb.clone()) {
            return Err(format!("snapshots differ at {t:?}: {sa:?} vs {sb:?}"));
        }
    }
    Ok(())
}

/// The six strategies as they were before the ready set: every fact probed
/// under the node's lock (`QueryGraph::locked_probes`), every candidate
/// visited on every pick. Kept here, and
/// only here, as the oracle the cell-reading strategies are checked against.
mod oracle {
    use super::*;

    /// `QueryGraph::locked_probes`, one fact at a time.
    pub fn queued(g: &QueryGraph, id: NodeId) -> usize {
        g.locked_probes(id).0
    }

    pub fn oldest(g: &QueryGraph, id: NodeId) -> Option<u64> {
        g.locked_probes(id).1
    }

    pub fn finished(g: &QueryGraph, id: NodeId) -> bool {
        g.locked_probes(id).2
    }

    fn runnable(g: &QueryGraph, id: NodeId) -> bool {
        !finished(g, id) && (queued(g, id) > 0 || g.kind(id) == NodeKind::Source)
    }

    fn selectivity(g: &QueryGraph, id: NodeId) -> f64 {
        g.stats(id).snapshot().selectivity().unwrap_or(1.0).min(4.0)
    }

    fn first_source(g: &QueryGraph, nodes: &[NodeId]) -> Option<NodeId> {
        nodes
            .iter()
            .copied()
            .find(|&id| !finished(g, id) && g.kind(id) == NodeKind::Source)
    }

    pub enum Oracle {
        RoundRobin {
            cursor: usize,
        },
        Fifo,
        Greedy,
        Random(SmallRng),
        Chain {
            priorities: Vec<(NodeId, f64)>,
            refresh_every: u64,
            ticks: u64,
        },
        RateBased,
    }

    impl Oracle {
        pub fn select(&mut self, g: &QueryGraph, nodes: &[NodeId]) -> Option<NodeId> {
            match self {
                Oracle::RoundRobin { cursor } => {
                    let n = nodes.len();
                    for i in 0..n {
                        let idx = (*cursor + i) % n;
                        if runnable(g, nodes[idx]) {
                            *cursor = (idx + 1) % n;
                            return Some(nodes[idx]);
                        }
                    }
                    None
                }
                Oracle::Fifo => nodes
                    .iter()
                    .copied()
                    .filter_map(|id| oldest(g, id).map(|s| (s, id)))
                    .filter(|&(_, id)| !finished(g, id))
                    .min()
                    .map(|(_, id)| id)
                    .or_else(|| first_source(g, nodes)),
                Oracle::Greedy => nodes
                    .iter()
                    .copied()
                    .filter(|&id| !finished(g, id))
                    .map(|id| (queued(g, id), id))
                    .filter(|&(q, _)| q > 0)
                    .max()
                    .map(|(_, id)| id)
                    .or_else(|| first_source(g, nodes)),
                Oracle::Random(rng) => {
                    let runnable: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|&id| runnable(g, id))
                        .collect();
                    if runnable.is_empty() {
                        None
                    } else {
                        Some(runnable[rng.gen_range(0..runnable.len())])
                    }
                }
                Oracle::Chain {
                    priorities,
                    refresh_every,
                    ticks,
                } => {
                    if ticks.is_multiple_of(*refresh_every) || priorities.len() != nodes.len() {
                        priorities.clear();
                        for &id in nodes {
                            let mut best: f64 = 0.0;
                            let mut survival = 1.0;
                            let mut len = 0.0;
                            let mut cur = id;
                            loop {
                                survival *= selectivity(g, cur).min(1.0);
                                len += 1.0;
                                best = best.max((1.0 - survival) / len);
                                let downstream: Vec<NodeId> = nodes
                                    .iter()
                                    .copied()
                                    .filter(|&n| g.subscribes_to(n, cur))
                                    .collect();
                                if downstream.len() != 1 {
                                    break;
                                }
                                cur = downstream[0];
                                if len > 32.0 {
                                    break;
                                }
                            }
                            priorities.push((id, best));
                        }
                    }
                    *ticks += 1;
                    priorities
                        .iter()
                        .filter(|(id, _)| !finished(g, *id) && queued(g, *id) > 0)
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("priorities are finite"))
                        .map(|(id, _)| *id)
                        .or_else(|| first_source(g, nodes))
                }
                Oracle::RateBased => nodes
                    .iter()
                    .copied()
                    .filter(|&id| !finished(g, id) && queued(g, id) > 0)
                    .map(|id| (selectivity(g, id), id))
                    .max_by(|a, b| a.partial_cmp(b).expect("selectivities are finite"))
                    .map(|(_, id)| id)
                    .or_else(|| first_source(g, nodes)),
            }
        }
    }
}

/// The readiness cells say what the locked reference says, node by node.
fn cells_agree_with_locks(g: &QueryGraph, nodes: &[NodeId]) -> Result<(), TestCaseError> {
    use oracle::{finished, oldest, queued};
    let ready = g.ready();
    for &id in nodes {
        prop_assert_eq!(ready.queued(id), queued(g, id), "queued of node {}", id);
        prop_assert_eq!(
            ready.oldest_seq(id),
            oldest(g, id),
            "oldest seq of node {}",
            id
        );
        prop_assert_eq!(
            ready.is_finished(id),
            finished(g, id),
            "finished of node {}",
            id
        );
        let runnable = !finished(g, id) && (queued(g, id) > 0 || g.kind(id) == NodeKind::Source);
        prop_assert_eq!(ready.is_ready(id), runnable, "ready bit of node {}", id);
    }
    let all_finished = g.node_ids().all(|id| finished(g, id));
    prop_assert_eq!(ready.all_finished(), all_finished);
    Ok(())
}

/// Drives `shape` quantum by quantum the way the single-thread driver does,
/// asking the strategy and its oracle for every pick.
fn same_picks_as_the_oracle(
    shape: &Shape,
    strategy: &mut dyn SchedStrategy,
    oracle: &mut oracle::Oracle,
) -> Result<(), TestCaseError> {
    let (g, _buf) = build(shape);
    let nodes: Vec<NodeId> = g.node_ids().collect();
    cells_agree_with_locks(&g, &nodes)?;
    for quantum in 0.. {
        let picked = strategy.select(&SchedView::new(&g, &nodes));
        let expected = oracle.select(&g, &nodes);
        prop_assert_eq!(
            picked,
            expected,
            "{} diverged from its oracle at quantum {} of {:?}",
            strategy.name(),
            quantum,
            shape
        );
        let Some(id) = picked else { break };
        g.step_node(id, 16);
        cells_agree_with_locks(&g, &nodes)?;
    }
    prop_assert!(
        g.all_finished(),
        "{} stalled on {:?}",
        strategy.name(),
        shape
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cells_agree_with_the_locks_and_picks_with_the_lock_probing_oracle(shape in arb_shape()) {
        use oracle::Oracle;
        let pairs: Vec<(Box<dyn SchedStrategy>, Oracle)> = vec![
            (Box::new(RoundRobinStrategy::new()), Oracle::RoundRobin { cursor: 0 }),
            (Box::new(FifoStrategy), Oracle::Fifo),
            (Box::new(GreedyStrategy), Oracle::Greedy),
            (Box::new(RandomStrategy::new(9)), Oracle::Random(SmallRng::seed_from_u64(9))),
            (
                Box::new(ChainStrategy::new(8)),
                Oracle::Chain { priorities: Vec::new(), refresh_every: 8, ticks: 0 },
            ),
            (Box::new(RateBasedStrategy), Oracle::RateBased),
        ];
        for (mut strategy, mut oracle) in pairs {
            same_picks_as_the_oracle(&shape, strategy.as_mut(), &mut oracle)?;
        }
    }

    #[test]
    fn all_strategies_drain_and_agree(shape in arb_shape()) {
        let reference = run_with(&shape, &mut FifoStrategy);
        let mut strategies: Vec<Box<dyn SchedStrategy>> = vec![
            Box::new(RoundRobinStrategy::new()),
            Box::new(GreedyStrategy),
            Box::new(ChainStrategy::new(8)),
            Box::new(RateBasedStrategy),
            Box::new(RandomStrategy::new(9)),
        ];
        for s in &mut strategies {
            let out = run_with(&shape, s.as_mut());
            snapshot_equal(&out, &reference).map_err(|e| {
                TestCaseError::fail(format!("{} diverged on {:?}: {e}", s.name(), shape))
            })?;
        }
    }
}
