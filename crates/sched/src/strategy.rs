//! Layer-2 scheduling strategies.

use pipes_graph::{NodeId, NodeKind, QueryGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The information a strategy may consult when picking the next node.
///
/// The view exposes only type-erased, metadata-level facts — queue lengths,
/// arrival order, node kind, observed selectivity, topology — never payloads
/// or operator internals. Every published scheduling technique the paper
/// cites can be phrased against this interface.
pub struct SchedView<'a> {
    graph: &'a QueryGraph,
    nodes: &'a [NodeId],
}

impl<'a> SchedView<'a> {
    /// Creates a view over the given candidate set.
    pub fn new(graph: &'a QueryGraph, nodes: &'a [NodeId]) -> Self {
        SchedView { graph, nodes }
    }

    /// The candidate node ids this scheduler is responsible for.
    pub fn nodes(&self) -> &[NodeId] {
        self.nodes
    }

    /// Messages queued at the node's inputs.
    pub fn queued(&self, id: NodeId) -> usize {
        self.graph.queued(id)
    }

    /// Whether the node has permanently finished.
    pub fn is_finished(&self, id: NodeId) -> bool {
        self.graph.is_finished(id)
    }

    /// Arrival sequence of the node's oldest pending message.
    pub fn oldest_seq(&self, id: NodeId) -> Option<u64> {
        self.graph.oldest_pending_seq(id)
    }

    /// The node's role in the graph.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.graph.kind(id)
    }

    /// Observed selectivity (elements out / messages in), defaulting to 1.
    pub fn selectivity(&self, id: NodeId) -> f64 {
        self.graph
            .stats(id)
            .snapshot()
            .selectivity()
            .unwrap_or(1.0)
            .min(4.0)
    }

    /// Appends the direct downstream consumers of `id` among the candidate
    /// set onto `out`. Allocation-free for callers that reuse the buffer —
    /// this sits in strategy hot loops (e.g. the [`ChainStrategy`] priority
    /// recomputation), where the old per-call `Vec` (and the `NodeInfo`
    /// name clone behind it) dominated the selection cost.
    pub fn downstream_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.extend(
            self.nodes
                .iter()
                .copied()
                .filter(|&n| self.graph.subscribes_to(n, id)),
        );
    }

    /// Direct downstream consumers of `id` among the candidate set
    /// (allocating convenience form of [`SchedView::downstream_into`]).
    pub fn downstream(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.downstream_into(id, &mut out);
        out
    }

    /// Whether the node can make progress right now: it has queued input,
    /// or it is an unfinished source.
    pub fn runnable(&self, id: NodeId) -> bool {
        if self.is_finished(id) {
            return false;
        }
        self.queued(id) > 0 || self.kind(id) == NodeKind::Source
    }
}

/// A layer-2 scheduling strategy: picks the next node to receive a quantum.
pub trait Strategy: Send {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Selects the next node among `view.nodes()`, or `None` if no candidate
    /// can make progress.
    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId>;
}

// ---------------------------------------------------------------------------

/// Cycles through the candidate set, skipping nodes without work.
pub struct RoundRobinStrategy {
    cursor: usize,
}

impl RoundRobinStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        RoundRobinStrategy { cursor: 0 }
    }
}

impl Default for RoundRobinStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for RoundRobinStrategy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        let n = view.nodes().len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            let id = view.nodes()[idx];
            if view.runnable(id) {
                self.cursor = (idx + 1) % n;
                return Some(id);
            }
        }
        None
    }
}

/// Processes the globally oldest queued message first (FIFO order across the
/// whole graph); runs a source when nothing is queued.
pub struct FifoStrategy;

impl Strategy for FifoStrategy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        let oldest = view
            .nodes()
            .iter()
            .copied()
            // Pending input first: most nodes have none at any instant, and
            // each probe is a node lock — finished is only asked of the few.
            .filter_map(|id| view.oldest_seq(id).map(|s| (s, id)))
            .filter(|&(_, id)| !view.is_finished(id))
            .min();
        if let Some((_, id)) = oldest {
            return Some(id);
        }
        view.nodes()
            .iter()
            .copied()
            .find(|&id| !view.is_finished(id) && view.kind(id) == NodeKind::Source)
    }
}

/// Runs the node with the longest input queue (drains hotspots first).
pub struct GreedyStrategy;

impl Strategy for GreedyStrategy {
    fn name(&self) -> &'static str {
        "greedy-queue"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        let busiest = view
            .nodes()
            .iter()
            .copied()
            .filter(|&id| !view.is_finished(id))
            .map(|id| (view.queued(id), id))
            .filter(|&(q, _)| q > 0)
            .max();
        if let Some((_, id)) = busiest {
            return Some(id);
        }
        view.nodes()
            .iter()
            .copied()
            .find(|&id| !view.is_finished(id) && view.kind(id) == NodeKind::Source)
    }
}

/// Picks a uniformly random runnable node (baseline).
pub struct RandomStrategy {
    rng: SmallRng,
}

impl RandomStrategy {
    /// Creates the strategy with a fixed seed for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomStrategy {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Strategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        let runnable: Vec<NodeId> = view
            .nodes()
            .iter()
            .copied()
            .filter(|&id| view.runnable(id))
            .collect();
        if runnable.is_empty() {
            None
        } else {
            Some(runnable[self.rng.gen_range(0..runnable.len())])
        }
    }
}

/// Chain scheduling (Babcock et al., SIGMOD'02): prioritize the operator
/// whose downstream segment sheds tuples fastest per unit of work, which
/// provably minimizes total queue memory for bursty arrivals.
///
/// Priorities derive from the *observed* selectivities in the secondary
/// metadata: for each node, walk the (single-consumer) downstream chain and
/// take the steepest drop `(1 − Π selectivity) / segment length`. Priorities
/// are recomputed periodically as the estimates move.
pub struct ChainStrategy {
    priorities: Vec<(NodeId, f64)>,
    /// Reused downstream buffer — recompute runs hot, one allocation-free
    /// `downstream_into` per chain hop instead of a fresh `Vec` each.
    scratch: Vec<NodeId>,
    refresh_every: u64,
    ticks: u64,
}

impl ChainStrategy {
    /// Creates the strategy; priorities refresh every `refresh_every`
    /// selections.
    pub fn new(refresh_every: u64) -> Self {
        ChainStrategy {
            priorities: Vec::new(),
            scratch: Vec::new(),
            refresh_every: refresh_every.max(1),
            ticks: 0,
        }
    }

    fn recompute(&mut self, view: &SchedView<'_>) {
        self.priorities.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        for &id in view.nodes() {
            let mut best: f64 = 0.0;
            // Walk the downstream chain, accumulating survival probability.
            let mut survival = 1.0;
            let mut len = 0.0;
            let mut cur = id;
            loop {
                survival *= view.selectivity(cur).min(1.0);
                len += 1.0;
                let slope = (1.0 - survival) / len;
                best = best.max(slope);
                scratch.clear();
                view.downstream_into(cur, &mut scratch);
                if scratch.len() != 1 {
                    break;
                }
                cur = scratch[0];
                if len > 32.0 {
                    break;
                }
            }
            self.priorities.push((id, best));
        }
        self.scratch = scratch;
    }
}

impl Strategy for ChainStrategy {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        if self.ticks.is_multiple_of(self.refresh_every)
            || self.priorities.len() != view.nodes().len()
        {
            self.recompute(view);
        }
        self.ticks += 1;
        // Highest-priority runnable *operator or sink* first; sources are
        // only run when no queued work exists (Chain drains before it
        // admits).
        let best = self
            .priorities
            .iter()
            .filter(|(id, _)| !view.is_finished(*id) && view.queued(*id) > 0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("priorities are finite"))
            .map(|(id, _)| *id);
        if let Some(id) = best {
            return Some(id);
        }
        view.nodes()
            .iter()
            .copied()
            .find(|&id| !view.is_finished(id) && view.kind(id) == NodeKind::Source)
    }
}

/// Rate-based scheduling (after Urhan & Franklin / Aurora): prioritize the
/// node with the highest observed output rate per quantum, pushing results
/// toward sinks as fast as possible (latency-oriented).
pub struct RateBasedStrategy;

impl Strategy for RateBasedStrategy {
    fn name(&self) -> &'static str {
        "rate-based"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        let best = view
            .nodes()
            .iter()
            .copied()
            .filter(|&id| !view.is_finished(id) && view.queued(id) > 0)
            .map(|id| (view.selectivity(id), id))
            .max_by(|a, b| a.partial_cmp(b).expect("selectivities are finite"));
        if let Some((_, id)) = best {
            return Some(id);
        }
        view.nodes()
            .iter()
            .copied()
            .find(|&id| !view.is_finished(id) && view.kind(id) == NodeKind::Source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_graph::io::{CollectSink, VecSource};
    use pipes_graph::{Collector, Operator};
    use pipes_time::{Element, Timestamp};

    struct PassThrough;
    impl Operator for PassThrough {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            out.element(e);
        }
    }

    fn demo_graph() -> (QueryGraph, Vec<NodeId>) {
        let g = QueryGraph::new();
        let elems: Vec<Element<i64>> = (0..10)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect();
        let src = g.add_source("src", VecSource::new(elems));
        let a = g.add_unary("a", PassThrough, &src);
        let (sink, _) = CollectSink::new();
        let sid = g.add_sink("sink", sink, &a);
        let nodes = vec![src.node(), a.node(), sid];
        (g, nodes)
    }

    fn drains_with(mut strat: impl Strategy) {
        let (g, nodes) = demo_graph();
        let mut stalls = 0;
        loop {
            if g.all_finished() {
                return;
            }
            let view = SchedView::new(&g, &nodes);
            match strat.select(&view) {
                Some(id) => {
                    let rep = g.step_node(id, 4);
                    if rep.consumed == 0 && rep.produced == 0 && !g.is_finished(id) {
                        stalls += 1;
                    } else {
                        stalls = 0;
                    }
                }
                None => stalls += 1,
            }
            assert!(stalls < 100, "strategy stalled");
        }
    }

    #[test]
    fn every_strategy_drains_a_finite_graph() {
        drains_with(RoundRobinStrategy::new());
        drains_with(FifoStrategy);
        drains_with(GreedyStrategy);
        drains_with(RandomStrategy::new(42));
        drains_with(ChainStrategy::new(8));
        drains_with(RateBasedStrategy);
    }

    #[test]
    fn fifo_prefers_oldest_message() {
        let (g, nodes) = demo_graph();
        // Produce a few elements so queues are non-empty.
        g.step_node(nodes[0], 3);
        let view = SchedView::new(&g, &nodes);
        let mut strat = FifoStrategy;
        let picked = strat.select(&view).unwrap();
        // Node "a" holds the oldest messages (the sink has none yet).
        assert_eq!(picked, nodes[1]);
    }

    #[test]
    fn greedy_prefers_longest_queue() {
        let (g, nodes) = demo_graph();
        g.step_node(nodes[0], 5); // 5 elements + heartbeats queued at "a"
        let view = SchedView::new(&g, &nodes);
        assert_eq!(GreedyStrategy.select(&view), Some(nodes[1]));
    }

    #[test]
    fn round_robin_skips_idle_nodes() {
        let (g, nodes) = demo_graph();
        let mut rr = RoundRobinStrategy::new();
        // Initially only the source is runnable.
        let view = SchedView::new(&g, &nodes);
        assert_eq!(rr.select(&view), Some(nodes[0]));
    }

    struct DropMost;
    impl Operator for DropMost {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            if e.payload % 10 == 0 {
                out.element(e);
            }
        }
    }

    #[test]
    fn rate_based_prefers_the_high_rate_path_under_skew() {
        // Two parallel chains with skewed selectivity: `fast` passes
        // everything, `slow` drops 90%.
        let g = QueryGraph::new();
        let elems: Vec<Element<i64>> = (0..40)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect();
        let s1 = g.add_source("s1", VecSource::new(elems.clone()));
        let s2 = g.add_source("s2", VecSource::new(elems));
        let fast = g.add_unary("fast", PassThrough, &s1);
        let slow = g.add_unary("slow", DropMost, &s2);
        let (k1, _) = CollectSink::new();
        let (k2, _) = CollectSink::new();
        g.add_sink("k1", k1, &fast);
        g.add_sink("k2", k2, &slow);

        // Feed both operators and let them observe their selectivities.
        g.step_node(s1.node(), 20);
        g.step_node(s2.node(), 20);
        g.step_node(fast.node(), 10);
        g.step_node(slow.node(), 10);
        assert!(g.queued(fast.node()) > 0 && g.queued(slow.node()) > 0);

        let candidates = vec![fast.node(), slow.node()];
        let view = SchedView::new(&g, &candidates);
        assert!(view.selectivity(fast.node()) > view.selectivity(slow.node()));
        assert_eq!(
            RateBasedStrategy.select(&view),
            Some(fast.node()),
            "rate-based must push the productive path first"
        );
    }

    #[test]
    fn random_strategy_is_deterministic_per_seed() {
        // Three always-runnable sources: the candidate set never changes,
        // so selection sequences depend only on the seed.
        let g = QueryGraph::new();
        let mk = |n: &str| {
            let h = g.add_source(n, VecSource::new(elems_n(1000)));
            let (k, _) = CollectSink::new();
            g.add_sink(&format!("{n}-sink"), k, &h);
            h.node()
        };
        let nodes = vec![mk("a"), mk("b"), mk("c")];
        let view = SchedView::new(&g, &nodes);

        let draw = |seed: u64| -> Vec<NodeId> {
            let mut s = RandomStrategy::new(seed);
            (0..64).map(|_| s.select(&view).unwrap()).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seeds diverge");
    }

    fn elems_n(n: i64) -> Vec<Element<i64>> {
        (0..n)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect()
    }

    #[test]
    fn downstream_into_reuses_the_buffer() {
        let (g, nodes) = demo_graph();
        let view = SchedView::new(&g, &nodes);
        let mut buf = Vec::with_capacity(4);
        view.downstream_into(nodes[0], &mut buf);
        assert_eq!(buf, vec![nodes[1]]);
        let cap = buf.capacity();
        buf.clear();
        view.downstream_into(nodes[1], &mut buf);
        assert_eq!(buf, vec![nodes[2]]);
        assert_eq!(buf.capacity(), cap, "no reallocation");
        assert_eq!(view.downstream(nodes[2]), Vec::<NodeId>::new());
    }

    #[test]
    fn chain_priorities_favor_selective_chains() {
        let (g, nodes) = demo_graph();
        g.step_node(nodes[0], 10);
        g.step_node(nodes[1], 30);
        let view = SchedView::new(&g, &nodes);
        let mut chain = ChainStrategy::new(1);
        chain.recompute(&view);
        assert_eq!(chain.priorities.len(), nodes.len());
        assert!(chain.priorities.iter().all(|(_, p)| p.is_finite()));
    }
}
