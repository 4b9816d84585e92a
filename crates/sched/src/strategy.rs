//! Layer-2 scheduling strategies.
//!
//! A strategy sees its candidate set through a [`SchedView`] and picks among
//! the *ready* members of it: [`SchedView::ready`] walks the graph's ready
//! bitmap ([`pipes_graph::ReadySet`]) over the candidates' id range, so a
//! pick costs what the nodes with work cost, not what the installed nodes
//! cost, and every fact a strategy asks for (`queued`, `oldest_seq`,
//! `is_finished`) is answered from the lock-free readiness cells.

use pipes_graph::{NodeId, NodeKind, QueryGraph};
use pipes_meta::NodeStats;
use pipes_sync::Arc;
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
    /// Whether `nodes` is the whole id range `first..=last`: a ready id's
    /// position is then an offset, not a search.
    dense: bool,
    version: u64,
}

/// One runnable member of a [`SchedView`]'s candidate set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ready {
    /// The node.
    pub id: NodeId,
    /// Its index in [`SchedView::nodes`].
    pub pos: usize,
    /// Messages queued at its inputs; 0 for a source (which is runnable
    /// without input).
    pub queued: usize,
    /// Arrival sequence of its oldest pending message.
    pub oldest_seq: Option<u64>,
}

impl<'a> SchedView<'a> {
    /// Creates a view over the given candidate set: node ids in ascending
    /// order, as [`QueryGraph::node_ids`] and the executors hand them out
    /// (the ready members are found by range scan and binary search).
    pub fn new(graph: &'a QueryGraph, nodes: &'a [NodeId]) -> Self {
        Self::versioned(graph, nodes, 0)
    }

    /// [`SchedView::new`] for a driver that counts the changes of its
    /// candidate set, so strategies with per-set caches need not compare
    /// the sets.
    pub(crate) fn versioned(graph: &'a QueryGraph, nodes: &'a [NodeId], version: u64) -> Self {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "candidate ids must be ascending"
        );
        let dense = match (nodes.first(), nodes.last()) {
            (Some(lo), Some(hi)) => hi - lo + 1 == nodes.len(),
            _ => false,
        };
        SchedView {
            graph,
            nodes,
            dense,
            version,
        }
    }

    /// The candidate node ids this scheduler is responsible for.
    pub fn nodes(&self) -> &[NodeId] {
        self.nodes
    }

    /// The runnable candidates, in candidate order: unfinished nodes that
    /// hold input they can take, and unfinished sources. Touches only nodes
    /// whose ready bit is set.
    pub fn ready(&self) -> impl Iterator<Item = Ready> + '_ {
        // An empty candidate set scans the empty range `1..=0`.
        let lo = self.nodes.first().copied().unwrap_or(1);
        let hi = self.nodes.last().copied().unwrap_or(0);
        self.graph.ready().marked(lo, hi).filter_map(move |m| {
            Some(Ready {
                id: m.id,
                pos: self.position(m.id)?,
                queued: m.queued,
                oldest_seq: m.oldest_seq,
            })
        })
    }

    /// The index of `id` in the candidate set.
    fn position(&self, id: NodeId) -> Option<usize> {
        if self.dense {
            id.checked_sub(*self.nodes.first()?)
                .filter(|&pos| pos < self.nodes.len())
        } else {
            self.nodes.binary_search(&id).ok()
        }
    }

    /// Messages queued at the node's inputs.
    pub fn queued(&self, id: NodeId) -> usize {
        self.graph.ready().queued(id)
    }

    /// Whether the node has permanently finished.
    pub fn is_finished(&self, id: NodeId) -> bool {
        self.graph.ready().is_finished(id)
    }

    /// Arrival sequence of the node's oldest pending message.
    pub fn oldest_seq(&self, id: NodeId) -> Option<u64> {
        self.graph.ready().oldest_seq(id)
    }

    /// The node's role in the graph.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.graph.kind(id)
    }

    /// Observed selectivity (elements out / messages in), defaulting to 1.
    pub fn selectivity(&self, id: NodeId) -> f64 {
        clamp_selectivity(&self.graph.stats(id))
    }

    /// Whether the node can make progress right now: it has queued input,
    /// or it is an unfinished source.
    pub fn runnable(&self, id: NodeId) -> bool {
        self.graph.ready().is_ready(id)
    }
}

fn clamp_selectivity(stats: &NodeStats) -> f64 {
    stats.selectivity().unwrap_or(1.0).min(4.0)
}

/// The first ready source, for strategies that admit new input only when
/// nothing is queued: a ready node with nothing queued is a source.
fn first_source(view: &SchedView<'_>) -> Option<Ready> {
    view.ready().find(|r| r.queued == 0)
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
        if n == 0 {
            return None;
        }
        // The first ready candidate at or after the cursor, else (wrapping)
        // the first ready candidate at all.
        let start = self.cursor % n;
        let mut wrapped = None;
        let mut picked = None;
        for r in view.ready() {
            if r.pos >= start {
                picked = Some(r);
                break;
            }
            wrapped = wrapped.or(Some(r));
        }
        let r = picked.or(wrapped)?;
        self.cursor = (r.pos + 1) % n;
        Some(r.id)
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
        let mut oldest: Option<(u64, NodeId)> = None;
        let mut source = None;
        for r in view.ready() {
            match r.oldest_seq {
                Some(seq) if oldest.is_none_or(|o| (seq, r.id) < o) => oldest = Some((seq, r.id)),
                Some(_) => {}
                None if r.queued == 0 => source = source.or(Some(r.id)),
                None => {}
            }
        }
        oldest.map(|(_, id)| id).or(source)
    }
}

/// Runs the node with the longest input queue (drains hotspots first).
pub struct GreedyStrategy;

impl Strategy for GreedyStrategy {
    fn name(&self) -> &'static str {
        "greedy-queue"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        view.ready()
            .filter(|r| r.queued > 0)
            .map(|r| (r.queued, r.id))
            .max()
            .map(|(_, id)| id)
            .or_else(|| first_source(view).map(|r| r.id))
    }
}

/// Picks a uniformly random runnable node (baseline).
pub struct RandomStrategy {
    rng: SmallRng,
    /// Reused per pick: the runnable candidates.
    runnable: Vec<NodeId>,
}

impl RandomStrategy {
    /// Creates the strategy with a fixed seed for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomStrategy {
            rng: SmallRng::seed_from_u64(seed),
            runnable: Vec::new(),
        }
    }
}

impl Strategy for RandomStrategy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        self.runnable.clear();
        self.runnable.extend(view.ready().map(|r| r.id));
        if self.runnable.is_empty() {
            None
        } else {
            Some(self.runnable[self.rng.gen_range(0..self.runnable.len())])
        }
    }
}

/// Chain scheduling (Babcock et al., SIGMOD'02): prioritize the operator
/// whose downstream segment sheds tuples fastest per unit of work, which
/// provably minimizes total queue memory for bursty arrivals.
///
/// Priorities derive from the *observed* selectivities in the secondary
/// metadata: for each node, walk the (single-consumer) downstream chain and
/// take the steepest drop `(1 − Π selectivity) / segment length`. The chain
/// links are derived once per candidate set and topology epoch, and the
/// periodic refresh re-reads only what can have moved: a candidate's
/// selectivity changes when it runs, and it runs when this strategy picks
/// it, so a refresh re-walks the picked nodes and the chains that lead into
/// them.
pub struct ChainStrategy {
    /// Priority per candidate position.
    priorities: Vec<f64>,
    chains: Chains,
    /// Candidate positions picked since the last refresh.
    picked: Vec<usize>,
    refresh_every: u64,
    ticks: u64,
}

/// The candidate set's chain links and statistics handles: what a priority
/// refresh reads, built once per candidate set.
#[derive(Default)]
struct Chains {
    /// `(topology epoch, view version, first, last, len)` the links were
    /// built for.
    built_for: Option<(u64, u64, NodeId, NodeId, usize)>,
    /// Per candidate position: the position of its consumer among the
    /// candidates, when it has exactly one.
    next: Vec<Option<usize>>,
    /// The reverse of `next`: the positions whose chain continues here.
    prev: Vec<Vec<usize>>,
    stats: Vec<Arc<NodeStats>>,
    /// Selectivity per position as of the last refresh, capped at 1.
    survival: Vec<f64>,
    /// Refresh scratch: the refresh that last re-walked each position, and
    /// the positions still to re-walk.
    walked: Vec<u64>,
    todo: Vec<usize>,
    refreshes: u64,
}

impl Chains {
    fn key(view: &SchedView<'_>) -> (u64, u64, NodeId, NodeId, usize) {
        let nodes = view.nodes();
        (
            view.graph.topology_epoch(),
            view.version,
            nodes.first().copied().unwrap_or(0),
            nodes.last().copied().unwrap_or(0),
            nodes.len(),
        )
    }

    /// Whether the links were built for this candidate set and topology.
    fn current(&self, view: &SchedView<'_>) -> bool {
        self.built_for == Some(Self::key(view))
    }

    /// Derives the links and reads every selectivity: O(nodes + edges).
    fn rebuild(&mut self, view: &SchedView<'_>) {
        self.built_for = Some(Self::key(view));
        let nodes = view.nodes();
        self.stats.clear();
        self.stats
            .extend(nodes.iter().map(|&n| view.graph.stats(n)));
        self.survival.clear();
        self.survival
            .extend(self.stats.iter().map(|s| survival_of(s)));
        // A candidate's consumers, counted once each however many of their
        // ports subscribe to it.
        let mut consumers = vec![0usize; nodes.len()];
        self.next.clear();
        self.next.resize(nodes.len(), None);
        let mut upstream = Vec::new();
        for (pos, &node) in nodes.iter().enumerate() {
            upstream.clear();
            view.graph.upstream_ids_into(node, &mut upstream);
            upstream.sort_unstable();
            upstream.dedup();
            for up in upstream.iter().filter_map(|&up| view.position(up)) {
                consumers[up] += 1;
                self.next[up] = Some(pos);
            }
        }
        self.prev.iter_mut().for_each(Vec::clear);
        self.prev.resize_with(nodes.len(), Vec::new);
        for (pos, (next, &n)) in self.next.iter_mut().zip(&consumers).enumerate() {
            match *next {
                Some(consumer) if n == 1 => self.prev[consumer].push(pos),
                _ => *next = None,
            }
        }
        self.walked.clear();
        self.walked.resize(nodes.len(), 0);
        self.refreshes = 0;
    }

    /// The priority of the chain starting at `start`: its steepest drop.
    fn priority(&self, start: usize) -> f64 {
        let mut best: f64 = 0.0;
        // Walk the downstream chain, accumulating survival probability.
        let mut survival = 1.0;
        let mut len = 0.0;
        let mut cur = start;
        loop {
            survival *= self.survival[cur];
            len += 1.0;
            let slope = (1.0 - survival) / len;
            best = best.max(slope);
            match self.next[cur] {
                Some(next) if len <= 32.0 => cur = next,
                _ => break,
            }
        }
        best
    }
}

/// A node's selectivity as a survival probability.
fn survival_of(stats: &NodeStats) -> f64 {
    clamp_selectivity(stats).min(1.0)
}

impl ChainStrategy {
    /// Creates the strategy; priorities refresh every `refresh_every`
    /// selections.
    pub fn new(refresh_every: u64) -> Self {
        ChainStrategy {
            priorities: Vec::new(),
            chains: Chains::default(),
            picked: Vec::new(),
            refresh_every: refresh_every.max(1),
            ticks: 0,
        }
    }

    /// Recomputes every priority from scratch (new candidate set or
    /// topology).
    fn recompute(&mut self, view: &SchedView<'_>) {
        self.chains.rebuild(view);
        self.priorities.clear();
        self.priorities
            .extend((0..view.nodes().len()).map(|start| self.chains.priority(start)));
        self.picked.clear();
    }

    /// Brings the priorities up to date with the nodes picked since the last
    /// refresh: their selectivities, and every chain that runs through them.
    fn refresh(&mut self) {
        let chains = &mut self.chains;
        chains.refreshes += 1;
        for &pos in &self.picked {
            chains.survival[pos] = survival_of(&chains.stats[pos]);
        }
        chains.todo.append(&mut self.picked);
        while let Some(pos) = chains.todo.pop() {
            if chains.walked[pos] != chains.refreshes {
                chains.walked[pos] = chains.refreshes;
                self.priorities[pos] = chains.priority(pos);
                chains.todo.extend_from_slice(&chains.prev[pos]);
            }
        }
    }
}

impl Strategy for ChainStrategy {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn select(&mut self, view: &SchedView<'_>) -> Option<NodeId> {
        if !self.chains.current(view) {
            self.recompute(view);
        } else if self.ticks.is_multiple_of(self.refresh_every) {
            self.refresh();
        }
        self.ticks += 1;
        // Highest-priority runnable *operator or sink* first; sources are
        // only run when no queued work exists (Chain drains before it
        // admits).
        let picked = view
            .ready()
            .filter(|r| r.queued > 0)
            .max_by(|a, b| {
                self.priorities[a.pos]
                    .partial_cmp(&self.priorities[b.pos])
                    .expect("priorities are finite")
            })
            .or_else(|| first_source(view))?;
        self.picked.push(picked.pos);
        Some(picked.id)
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
        view.ready()
            .filter(|r| r.queued > 0)
            .map(|r| (view.selectivity(r.id), r.id))
            .max_by(|a, b| a.partial_cmp(b).expect("selectivities are finite"))
            .map(|(_, id)| id)
            .or_else(|| first_source(view).map(|r| r.id))
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
    fn ready_lists_only_runnable_candidates_with_their_positions() {
        let (g, nodes) = demo_graph();
        let view = SchedView::new(&g, &nodes);
        // Only the live source at first; a source is ready with nothing queued.
        let ready: Vec<Ready> = view.ready().collect();
        assert_eq!(ready.len(), 1);
        assert_eq!(
            (ready[0].id, ready[0].pos, ready[0].queued),
            (nodes[0], 0, 0)
        );
        g.step_node(nodes[0], 3);
        let ready: Vec<Ready> = view.ready().collect();
        assert_eq!(
            ready.iter().map(|r| (r.id, r.pos)).collect::<Vec<_>>(),
            vec![(nodes[0], 0), (nodes[1], 1)]
        );
        let (queued, oldest, ..) = g.locked_probes(nodes[1]);
        assert_eq!((ready[1].queued, ready[1].oldest_seq), (queued, oldest));
        // A sparse candidate set finds positions by search and skips ready
        // nodes outside it.
        let sparse = [nodes[0], nodes[2]];
        let view = SchedView::new(&g, &sparse);
        assert_eq!(
            view.ready().map(|r| (r.id, r.pos)).collect::<Vec<_>>(),
            vec![(nodes[0], 0)]
        );
        assert_eq!(SchedView::new(&g, &[]).ready().count(), 0);
    }

    #[test]
    fn chain_links_follow_single_consumer_edges_within_the_candidates() {
        let (g, nodes) = demo_graph();
        let mut chains = Chains::default();
        chains.rebuild(&SchedView::new(&g, &nodes));
        assert_eq!(chains.next, vec![Some(1), Some(2), None]);
        // Outside the candidate set a consumer does not count…
        let sparse = [nodes[0], nodes[2]];
        chains.rebuild(&SchedView::new(&g, &sparse));
        assert_eq!(chains.next, vec![None, None]);
        // …and a second consumer ends the chain at the fan-out point.
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems_n(4)));
        let a = g.add_unary("a", PassThrough, &src);
        let (k1, _) = CollectSink::new();
        let (k2, _) = CollectSink::new();
        let all = [
            src.node(),
            a.node(),
            g.add_sink("k1", k1, &a),
            g.add_sink("tap", k2, &src),
        ];
        chains.rebuild(&SchedView::new(&g, &all));
        assert_eq!(chains.next, vec![None, Some(2), None, None]);
    }

    #[test]
    fn chain_refresh_of_the_picked_nodes_matches_a_full_recompute() {
        // Two filtering chains off one source, so selectivities move as the
        // run goes and a picked node has a chain leading into it.
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems_n(400)));
        let mut nodes = vec![src.node()];
        for name in ["x", "y"] {
            let a = g.add_unary(&format!("{name}1"), DropMost, &src);
            let b = g.add_unary(&format!("{name}2"), PassThrough, &a);
            let (sink, _) = CollectSink::new();
            nodes.extend([a.node(), b.node(), g.add_sink(name, sink, &b)]);
        }
        nodes.sort_unstable();
        let mut chain = ChainStrategy::new(4);
        let mut refreshes = 0;
        while !g.all_finished() {
            let view = SchedView::new(&g, &nodes);
            let refreshing = chain.ticks.is_multiple_of(4);
            let id = chain.select(&view).expect("something is runnable");
            if refreshing {
                let mut full = ChainStrategy::new(4);
                full.recompute(&view);
                assert_eq!(chain.priorities, full.priorities);
                refreshes += 1;
            }
            g.step_node(id, 8);
        }
        assert!(refreshes > 10);
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
        assert!(chain.priorities.iter().all(|p| p.is_finite()));
    }
}
