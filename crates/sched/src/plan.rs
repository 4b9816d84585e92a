//! Layer 1 at runtime: virtual-node planning over the assembled graph.
//!
//! [`ExecutionPlan::analyze`] inspects the [`QueryGraph`] topology at launch
//! and groups maximal single-producer/single-consumer chains into
//! [`VirtualGroup`]s — the runtime counterpart of the compile-time
//! [`pipes_graph::Fused`] combinator. A group is the unit layer 3 schedules
//! and places: all nodes of a group run on the same worker thread, so every
//! intra-chain edge stays thread-local (the producer's batch flush and the
//! consumer's drain never contend across cores), and only the compara­tively
//! rare chain-crossing edges (fan-out, fan-in, joins) pay cross-thread lock
//! traffic.
//!
//! The plan also derives the topology-aware default placement (longest-
//! processing-time greedy over group cost estimates) the work-stealing
//! executor launches from.

use pipes_graph::{NodeId, NodeKind, QueryGraph};

/// Identifier of a virtual-node group within an [`ExecutionPlan`].
pub type GroupId = usize;

/// Hard invariant of the planner: a fused edge `a → b` must be strictly
/// single-producer/single-consumer. Fusing across a multi-consumer edge
/// (e.g. a shuffle partitioner feeding k keyed instances) would serialize
/// the instances onto one worker, and fusing across a multi-producer edge
/// (k instances feeding one order-restoring merge) would let one instance's
/// chain run the merge while sibling ports lag — both defeat the point of
/// the shuffle and can reorder merge input. The chain-building loops only
/// link SPSC edges; this check makes the refusal explicit and loud if a
/// future edit weakens those conditions.
fn assert_fused_edges_spsc(next: &[Option<NodeId>], up: &[Vec<NodeId>], out_edges: &[usize]) {
    for (a, nx) in next.iter().enumerate() {
        if let Some(b) = *nx {
            assert!(
                out_edges[a] == 1 && up[b].len() == 1,
                "refusing to fuse {a} -> {b}: edge is multi-producer or multi-consumer \
                 ({} producers into {b}, {} consumers out of {a})",
                up[b].len(),
                out_edges[a],
            );
        }
    }
}

/// One runtime virtual node: a maximal chain of nodes connected by
/// single-producer/single-consumer edges, scheduled and placed as a unit.
#[derive(Clone, Debug)]
pub struct VirtualGroup {
    id: GroupId,
    nodes: Vec<NodeId>,
    has_source: bool,
    cost: u64,
    retired: bool,
}

impl VirtualGroup {
    /// The group's id (its index in [`ExecutionPlan::groups`]).
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// The member nodes in chain order (each node feeds the next).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the group has no members (never produced by `analyze`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the group contains a live source (always runnable until the
    /// source closes — weighted heavier by the static cost estimate).
    pub fn has_source(&self) -> bool {
        self.has_source
    }

    /// Launch-time cost estimate used by the default partitioning: chain
    /// length, plus a bonus for live sources.
    pub fn static_cost(&self) -> u64 {
        self.cost
    }

    /// Whether every member node has been removed from the graph. Retired
    /// groups keep their id (in-flight `GroupTable` state stays valid) but
    /// are excluded from partitioning and rebalance targets: the owner
    /// finishes any quantum in flight, releases at the next epoch
    /// hand-off, and nobody re-adopts — the group drains and leaves the
    /// active schedule without ever being compacted out of the table.
    pub fn is_retired(&self) -> bool {
        self.retired
    }
}

/// The launch-time analysis of a query graph: virtual-node groups, the
/// node → group index, per-node downstream group adjacency, and the
/// topology-aware group placement over worker threads.
pub struct ExecutionPlan {
    groups: Vec<VirtualGroup>,
    group_of: Vec<GroupId>,
    downstream_groups: Vec<Vec<GroupId>>,
    /// The [`QueryGraph::topology_epoch`] this plan covers, read *before*
    /// the topology scan: a mutation racing the scan leaves the graph's
    /// epoch ahead of this value, so pollers re-plan (seqlock-style
    /// conservatism — a refresh can run twice, never be missed).
    planned_epoch: u64,
}

impl ExecutionPlan {
    /// Analyzes the current topology of `graph`: the refresh of an empty
    /// plan, so every node counts as new.
    ///
    /// An edge `a → b` is *fusable* when it is `a`'s only outgoing edge and
    /// `b`'s only incoming edge (and neither endpoint is removed); maximal
    /// fusable chains become groups, everything else (fan-out points, join
    /// inputs, removed nodes) forms singleton groups. Nodes added to the
    /// graph after analysis are not covered — poll
    /// [`QueryGraph::topology_epoch`] against [`ExecutionPlan::planned_epoch`]
    /// and extend with [`ExecutionPlan::refreshed`] after splicing.
    pub fn analyze(graph: &QueryGraph) -> Self {
        let empty = ExecutionPlan {
            groups: Vec::new(),
            group_of: Vec::new(),
            downstream_groups: Vec::new(),
            planned_epoch: 0,
        };
        empty.refreshed(graph)
    }

    /// Extends this plan to cover nodes spliced into `graph` since it was
    /// analyzed, *incrementally*: existing groups keep their ids and
    /// member lists verbatim (in-flight `GroupTable` state and worker
    /// ownership stay valid), groups whose members have all been removed
    /// are flagged retired, and only new/retired nodes are re-examined.
    ///
    /// Fusion is restricted to new↔new SPSC edges — a new node chained
    /// onto an already-planned producer starts a fresh group even when the
    /// edge would have fused at launch. That asymmetry is the price of
    /// stability: re-fusing would rewrite the old group's membership under
    /// a worker mid-quantum. Downstream-group adjacency *is* re-derived
    /// over the whole graph, because old → new edges (a spliced query
    /// subscribing to a running producer) must route wakeups.
    pub fn refreshed(&self, graph: &QueryGraph) -> Self {
        let planned_epoch = graph.topology_epoch();
        let n = graph.len();
        let old_n = self.group_of.len();
        let up: Vec<Vec<NodeId>> = (0..n).map(|id| graph.upstream_ids(id)).collect();
        let removed: Vec<bool> = (0..n).map(|id| graph.is_removed(id)).collect();

        let mut groups = self.groups.clone();
        let mut group_of = self.group_of.clone();
        for grp in &mut groups {
            if !grp.retired && grp.nodes.iter().all(|&m| removed[m]) {
                grp.retired = true;
                grp.cost = 0;
            }
        }

        let mut out_edges = vec![0usize; n];
        for ups in &up {
            for &a in ups {
                // A concurrent splice can rewrite an incoming list to
                // reference nodes beyond this scan's length snapshot
                // (e.g. a shuffle merge re-pointed at fresh instances);
                // the epoch read above already marks this plan stale, the
                // scan just must not index past its own snapshot.
                if let Some(slot) = out_edges.get_mut(a) {
                    *slot += 1;
                }
            }
        }
        // Chain successor/predecessor along fusable new↔new edges.
        let mut next: Vec<Option<NodeId>> = vec![None; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        for b in old_n..n {
            if removed[b] || up[b].len() != 1 {
                continue;
            }
            let a = up[b][0];
            if a >= n || a < old_n || removed[a] || out_edges[a] != 1 || a == b {
                continue;
            }
            next[a] = Some(b);
            prev[b] = Some(a);
        }
        assert_fused_edges_spsc(&next, &up, &out_edges);
        // Walk each new chain from its head.
        group_of.resize(n, 0);
        for (head, head_prev) in prev.iter().enumerate().skip(old_n) {
            if head_prev.is_some() {
                continue;
            }
            let id = groups.len();
            let mut nodes = Vec::new();
            let mut cur = head;
            loop {
                group_of[cur] = id;
                nodes.push(cur);
                match next[cur] {
                    Some(nx) => cur = nx,
                    None => break,
                }
            }
            let has_source = nodes
                .iter()
                .any(|&m| !removed[m] && graph.kind(m) == NodeKind::Source);
            let cost = nodes.len() as u64 + if has_source { 2 } else { 0 };
            let retired = nodes.iter().all(|&m| removed[m]);
            groups.push(VirtualGroup {
                id,
                nodes,
                has_source,
                cost: if retired { 0 } else { cost },
                retired,
            });
        }

        // Per node: the distinct *foreign* groups its output feeds.
        let mut downstream_groups: Vec<Vec<GroupId>> = vec![Vec::new(); n];
        for b in 0..n {
            for &a in &up[b] {
                if a >= n {
                    continue; // spliced mid-scan; next re-plan covers it
                }
                let (ga, gb) = (group_of[a], group_of[b]);
                if ga != gb && !downstream_groups[a].contains(&gb) {
                    downstream_groups[a].push(gb);
                }
            }
        }
        ExecutionPlan {
            groups,
            group_of,
            downstream_groups,
            planned_epoch,
        }
    }

    /// The [`QueryGraph::topology_epoch`] this plan covers. When the
    /// graph's live epoch is newer, nodes exist (or have been retired)
    /// that this plan does not know about — refresh before trusting
    /// coverage.
    pub fn planned_epoch(&self) -> u64 {
        self.planned_epoch
    }

    /// The virtual-node groups, indexed by [`GroupId`].
    pub fn groups(&self) -> &[VirtualGroup] {
        &self.groups
    }

    /// The group containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was spliced in after this plan's epoch; use
    /// [`ExecutionPlan::try_group_of`] when the caller can race a splice.
    pub fn group_of(&self, node: NodeId) -> GroupId {
        self.group_of[node]
    }

    /// The group containing `node`, or `None` for a node this plan does
    /// not cover (spliced in after [`ExecutionPlan::planned_epoch`]).
    pub fn try_group_of(&self, node: NodeId) -> Option<GroupId> {
        self.group_of.get(node).copied()
    }

    /// The distinct groups other than `node`'s own that consume `node`'s
    /// output — the placement units a productive step of `node` can wake.
    /// Empty for nodes this plan does not cover yet (spliced after the
    /// planned epoch): their output wakes nobody until the next re-plan.
    pub fn downstream_groups(&self, node: NodeId) -> &[GroupId] {
        self.downstream_groups
            .get(node)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Assigns groups to `threads` partitions by longest-processing-time
    /// greedy over [`VirtualGroup::static_cost`]: heaviest group first, each
    /// onto the currently lightest partition. Deterministic (ties break
    /// toward lower ids / lower thread indices); partitions may be empty
    /// when there are fewer groups than threads. Retired groups are not
    /// placed.
    pub fn partition_groups(&self, threads: usize) -> Vec<Vec<GroupId>> {
        assert!(threads > 0, "need at least one partition");
        let mut order: Vec<GroupId> = (0..self.groups.len())
            .filter(|&g| !self.groups[g].retired)
            .collect();
        order.sort_by_key(|&g| std::cmp::Reverse(self.groups[g].cost));
        let mut parts: Vec<Vec<GroupId>> = vec![Vec::new(); threads];
        let mut load = vec![0u64; threads];
        for g in order {
            let lightest = (0..threads).min_by_key(|&t| load[t]).expect("threads > 0");
            parts[lightest].push(g);
            load[lightest] += self.groups[g].cost.max(1);
        }
        for p in &mut parts {
            p.sort_unstable();
        }
        parts
    }

    /// Flattens the member nodes of the given groups, preserving group order
    /// and intra-group chain order.
    pub fn nodes_of(&self, groups: &[GroupId]) -> Vec<NodeId> {
        groups
            .iter()
            .flat_map(|&g| self.groups[g].nodes.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_graph::io::{CollectSink, CountSink, VecSource};
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
    impl pipes_graph::Rekey for PassThrough {
        fn export_keyed(&mut self) -> pipes_graph::KeyedState {
            Vec::new()
        }
        fn import_keyed(&mut self, _entries: pipes_graph::KeyedState) {}
    }

    fn elems(n: i64) -> Vec<Element<i64>> {
        (0..n)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect()
    }

    #[test]
    fn linear_chain_fuses_into_one_group() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(4)));
        let a = g.add_unary("a", PassThrough, &src);
        let b = g.add_unary("b", PassThrough, &a);
        let (sink, _) = CollectSink::new();
        let s = g.add_sink("sink", sink, &b);

        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.groups().len(), 1);
        assert_eq!(
            plan.groups()[0].nodes(),
            &[src.node(), a.node(), b.node(), s]
        );
        assert!(plan.groups()[0].has_source());
        assert!(plan.downstream_groups(src.node()).is_empty());
    }

    #[test]
    fn fan_out_breaks_chains_at_the_branch_point() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(4)));
        let a = g.add_unary("a", PassThrough, &src);
        let b = g.add_unary("b", PassThrough, &src);
        let (s1, _) = CollectSink::new();
        let (s2, _) = CollectSink::new();
        let k1 = g.add_sink("s1", s1, &a);
        let k2 = g.add_sink("s2", s2, &b);

        let plan = ExecutionPlan::analyze(&g);
        // src alone (two consumers), then two fused operator→sink chains.
        assert_eq!(plan.groups().len(), 3);
        assert_eq!(
            plan.groups()[plan.group_of(src.node())].nodes(),
            &[src.node()]
        );
        assert_eq!(plan.group_of(a.node()), plan.group_of(k1));
        assert_eq!(plan.group_of(b.node()), plan.group_of(k2));
        assert_ne!(plan.group_of(a.node()), plan.group_of(b.node()));
        // The source's output feeds both foreign chains.
        let mut fed = plan.downstream_groups(src.node()).to_vec();
        fed.sort_unstable();
        let mut expect = vec![plan.group_of(a.node()), plan.group_of(b.node())];
        expect.sort_unstable();
        assert_eq!(fed, expect);
    }

    #[test]
    fn fan_in_breaks_chains_at_the_join_point() {
        let g = QueryGraph::new();
        let s1 = g.add_source("s1", VecSource::new(elems(4)));
        let s2 = g.add_source("s2", VecSource::new(elems(4)));
        let (sink, _) = CountSink::<i64>::new();
        let k = g.add_sink_nary("merge", sink, &[s1.clone(), s2.clone()]);

        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.groups().len(), 3);
        assert_ne!(plan.group_of(s1.node()), plan.group_of(k));
        assert_ne!(plan.group_of(s2.node()), plan.group_of(k));
        assert_eq!(plan.downstream_groups(s1.node()), &[plan.group_of(k)]);
    }

    #[test]
    fn removed_nodes_stay_singletons() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(4)));
        let a = g.add_unary("a", PassThrough, &src);
        let (sink, _) = CollectSink::new();
        let s = g.add_sink("sink", sink, &a);
        g.remove_node(a.node());

        let plan = ExecutionPlan::analyze(&g);
        // Removal detaches a's subscription, so nothing fuses through it.
        assert_eq!(plan.groups().len(), 3);
        assert_eq!(plan.groups()[plan.group_of(a.node())].len(), 1);
        let _ = s;
    }

    #[test]
    fn lpt_partitions_balance_costs_and_keep_chains_whole() {
        let g = QueryGraph::new();
        // One long chain plus three short ones.
        let src = g.add_source("hot", VecSource::new(elems(4)));
        let mut cur = g.add_unary("h0", PassThrough, &src);
        for i in 1..8 {
            cur = g.add_unary(&format!("h{i}"), PassThrough, &cur);
        }
        let (sink, _) = CollectSink::new();
        g.add_sink("hsink", sink, &cur);
        for c in 0..3 {
            let s = g.add_source(&format!("c{c}"), VecSource::new(elems(4)));
            let (k, _) = CollectSink::new();
            g.add_sink(&format!("c{c}sink"), k, &s);
        }

        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.groups().len(), 4);
        let parts = plan.partition_groups(2);
        assert_eq!(parts.len(), 2);
        // The heavy chain lands alone; the three cold chains share the other.
        let hot = plan.group_of(src.node());
        let solo = parts.iter().find(|p| p.contains(&hot)).unwrap();
        assert_eq!(solo.len(), 1);
        let other = parts.iter().find(|p| !p.contains(&hot)).unwrap();
        assert_eq!(other.len(), 3);
        // Flattening a placement keeps each chain whole.
        assert_eq!(plan.nodes_of(solo).len(), 10);
        assert_eq!(plan.nodes_of(other).len(), 6);
        // More threads than groups: the surplus partitions stay empty.
        let wide = plan.partition_groups(6);
        assert_eq!(wide.iter().filter(|p| p.is_empty()).count(), 2);
    }

    #[test]
    fn refreshed_extends_plan_incrementally_and_keeps_old_group_ids() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(4)));
        let a = g.add_unary("a", PassThrough, &src);
        let (s1, _) = CollectSink::new();
        let k1 = g.add_sink("k1", s1, &a);
        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.planned_epoch(), g.topology_epoch());
        let old_groups: Vec<Vec<NodeId>> =
            plan.groups().iter().map(|gr| gr.nodes().to_vec()).collect();

        // Splice a second query sharing the running source.
        let b = g.add_unary("b", PassThrough, &src);
        let (s2, _) = CollectSink::new();
        let k2 = g.add_sink("k2", s2, &b);
        assert!(g.topology_epoch() > plan.planned_epoch());

        let plan2 = plan.refreshed(&g);
        assert_eq!(plan2.planned_epoch(), g.topology_epoch());
        // Existing groups keep their ids and member lists verbatim.
        for (i, old) in old_groups.iter().enumerate() {
            assert_eq!(plan2.groups()[i].nodes(), &old[..]);
            assert_eq!(plan2.groups()[i].id(), i);
        }
        // The spliced operator→sink chain fused into one appended group.
        let gb = plan2.group_of(b.node());
        assert!(gb >= old_groups.len(), "new nodes go to appended groups");
        assert_eq!(plan2.group_of(k2), gb);
        assert_eq!(plan2.groups()[gb].nodes(), &[b.node(), k2]);
        // The running producer's output now wakes the new group.
        assert!(plan2.downstream_groups(src.node()).contains(&gb));
        // The stale plan stays safe on ids it does not cover.
        assert_eq!(plan.try_group_of(b.node()), None);
        assert!(plan.downstream_groups(k2).is_empty());
        let _ = k1;
    }

    #[test]
    fn refreshed_retires_fully_removed_groups_and_partitions_skip_them() {
        let g = QueryGraph::new();
        let s1 = g.add_source("s1", VecSource::new(elems(4)));
        let (k1, _) = CollectSink::new();
        let sink1 = g.add_sink("k1", k1, &s1);
        let s2 = g.add_source("s2", VecSource::new(elems(4)));
        let (k2, _) = CollectSink::new();
        let sink2 = g.add_sink("k2", k2, &s2);
        let plan = ExecutionPlan::analyze(&g);
        assert_eq!(plan.groups().len(), 2);
        assert!(plan.groups().iter().all(|gr| !gr.is_retired()));

        g.remove_node(sink2);
        g.remove_node(s2.node());
        let plan2 = plan.refreshed(&g);
        let dead = plan2.group_of(s2.node());
        assert!(plan2.groups()[dead].is_retired());
        assert_eq!(plan2.groups()[dead].static_cost(), 0);
        let live = plan2.group_of(s1.node());
        assert!(!plan2.groups()[live].is_retired());
        // Retired groups are never placed.
        let placed: Vec<GroupId> = plan2.partition_groups(2).into_iter().flatten().collect();
        assert!(placed.contains(&live));
        assert!(!placed.contains(&dead));
        let _ = sink1;
    }

    #[test]
    fn shuffle_edges_never_fuse_and_instances_stay_independent() {
        use pipes_sync::Arc;
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(16)));
        let h = g.add_keyed_unary(
            "par",
            || PassThrough,
            Arc::new(|v: &i64| v.rem_euclid(4) as u64),
            3,
            None,
            &src,
        );
        let (sink, _) = CollectSink::new();
        g.add_sink("sink", sink, &h);

        let plan = ExecutionPlan::analyze(&g);
        let group = g.shuffle_groups().pop().expect("one shuffle group");
        assert_eq!(group.instance_ids.len(), 3);
        let part = group.partition_ids[0];
        let merge = group.handle;
        // The partition edge is multi-consumer and the merge edge is
        // multi-producer: neither may fuse, so every instance is its own
        // placement unit, independently stealable across workers.
        let mut seen = vec![plan.group_of(part), plan.group_of(merge)];
        for &i in &group.instance_ids {
            assert_eq!(plan.groups()[plan.group_of(i)].nodes(), &[i]);
            seen.push(plan.group_of(i));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            5,
            "partition, merge, and 3 instances all in distinct groups"
        );
        // Partitioner output wakes all three instance groups.
        assert_eq!(plan.downstream_groups(part).len(), 3);
    }
}
