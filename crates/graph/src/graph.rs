//! The query graph: nodes, subscriptions and a minimal executor.

use crate::edge::{Edge, EdgeId, InputPort};
use crate::meta::{derive, MetaConfig, MetaSnapshot};
use crate::node::{
    frontier, BinNode, OpNode, Published, Runnable, SinkNode, SourceNode, StepReport,
};
use crate::operator::{BinaryOperator, NodeId, Operator, SinkOp, SourceOp};
use crate::outputs::{OutputPort, Outputs};
use crate::ready::{ReadyCell, ReadySet, WakeHook};
pub use pipes_meta::{NodeInfo, NodeKind};
use pipes_meta::{NodeMeta, NodeStats, NodeTelemetry, Telemetry};
use pipes_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pipes_sync::{Arc, Mutex, RwLock};
use pipes_trace::LatencyTracker;

/// A handle to a node's typed output, used to subscribe further consumers.
///
/// Handles are cheap to clone; holding one does not keep the stream alive or
/// consume from it — it merely names a publication point in the graph.
pub struct StreamHandle<T> {
    pub(crate) node: NodeId,
    pub(crate) outputs: Arc<Outputs<T>>,
}

impl<T> Clone for StreamHandle<T> {
    fn clone(&self) -> Self {
        StreamHandle {
            node: self.node,
            outputs: Arc::clone(&self.outputs),
        }
    }
}

impl<T> StreamHandle<T> {
    /// The producing node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl<T> std::fmt::Debug for StreamHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

pub(crate) struct NodeCell {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) runnable: Mutex<Box<dyn Runnable>>,
    pub(crate) stats: Arc<NodeStats>,
    pub(crate) meta: Arc<NodeMeta>,
    pub(crate) out_port: Option<Arc<dyn OutputPort>>,
    /// (upstream node, edge id) for every current input subscription.
    pub(crate) incoming: Mutex<Vec<(NodeId, EdgeId)>>,
    /// Every input edge the node was ever given, for
    /// [`QueryGraph::locked_probes`]; unlike `incoming`, kept on removal.
    inputs: Mutex<Vec<Arc<dyn InputPort>>>,
    pub(crate) removed: AtomicBool,
    /// The node's lock-free readiness; its input edges mirror into it.
    pub(crate) ready: Arc<ReadyCell>,
    /// The topology epoch the node entered the graph at (set by
    /// [`QueryGraph::push_node`]).
    spliced_epoch: u64,
}

impl NodeCell {
    pub(crate) fn new(
        name: &str,
        kind: NodeKind,
        runnable: Box<dyn Runnable>,
        out_port: Option<Arc<dyn OutputPort>>,
        incoming: Incoming,
        ready: Arc<ReadyCell>,
    ) -> Self {
        let ids = incoming.iter().map(|(up, edge)| (*up, edge.id())).collect();
        let inputs = incoming.into_iter().map(|(_, edge)| edge).collect();
        NodeCell {
            name: name.to_string(),
            kind,
            runnable: Mutex::new(runnable),
            stats: Arc::new(NodeStats::new()),
            meta: Arc::new(NodeMeta::new()),
            out_port,
            incoming: Mutex::new(ids),
            inputs: Mutex::new(inputs),
            removed: AtomicBool::new(false),
            ready,
            spliced_epoch: 0,
        }
    }

    /// Subscribes the node to one more input edge.
    pub(crate) fn add_input(&self, (up, edge): (NodeId, Arc<dyn InputPort>)) {
        self.incoming.lock().push((up, edge.id()));
        self.inputs.lock().push(edge);
    }

    /// Publishes what `runnable` (this cell's, under its lock) retains: the
    /// element count into the readiness cell, the byte estimate into the
    /// counters. The probes read them there.
    pub(crate) fn publish_state(&self, runnable: &dyn Runnable) {
        self.ready.set_memory(runnable.memory());
        self.stats.set_state_bytes(runnable.state_bytes());
    }

    fn info(&self, id: NodeId) -> NodeInfo {
        NodeInfo {
            id,
            name: self.name.clone(),
            kind: self.kind,
            upstream: self.incoming.lock().iter().map(|(n, _)| *n).collect(),
            // ordering: Relaxed — advisory snapshot; see remove_node().
            removed: self.removed.load(Ordering::Relaxed),
        }
    }
}

/// The input subscriptions of a node being built: per input edge, the
/// upstream node and the edge.
pub(crate) type Incoming = Vec<(NodeId, Arc<dyn InputPort>)>;

/// One entry of [`Incoming`].
pub(crate) fn input_of<T>(up: NodeId, edge: &Arc<Edge<T>>) -> (NodeId, Arc<dyn InputPort>)
where
    T: Send + 'static,
{
    (up, Arc::clone(edge) as Arc<dyn InputPort>)
}

/// A directed acyclic graph of sources, operators and sinks, built through
/// the publish–subscribe architecture of PIPES.
///
/// All methods take `&self`: nodes can be added, subscribed and unsubscribed
/// while executors are stepping the graph from other threads. This is the
/// foundation for multi-query optimization, which splices new queries into
/// the *running* graph.
///
/// Entering the graph is also the one telemetry registration: the cell a
/// node is pushed in carries its counters, its estimator block and its
/// splice epoch, and [`QueryGraph::telemetry`] reports every live cell.
pub struct QueryGraph {
    nodes: RwLock<Vec<Arc<NodeCell>>>,
    pub(crate) seq: Arc<AtomicU64>,
    next_edge: AtomicU64,
    /// Monotone topology epoch, bumped on every node add and retire
    /// (seqlock-style publication, like `NodeMeta`). Schedulers poll it to
    /// detect splices without holding the `nodes` lock.
    topology: AtomicU64,
    /// Every node's readiness cell plus the bitmap of the ready ones;
    /// nodes enter it in `push_node` and leave it in `remove_node`, under
    /// the same epoch bumps.
    ready: ReadySet,
    /// Registered keyed-parallel (shuffle) groups; see [`crate::shuffle`].
    pub(crate) shuffle: crate::shuffle::ShuffleRegistry,
    /// The source-to-sink latency pipeline every node is attached to as it
    /// enters the graph, once [`QueryGraph::enable_latency_tracking`] set it.
    latency: Mutex<Option<Arc<LatencyTracker>>>,
}

impl Default for QueryGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        QueryGraph {
            nodes: RwLock::new(Vec::new()),
            seq: Arc::new(AtomicU64::new(1)),
            next_edge: AtomicU64::new(1),
            topology: AtomicU64::new(1),
            ready: ReadySet::new(),
            shuffle: crate::shuffle::ShuffleRegistry::default(),
            latency: Mutex::new(None),
        }
    }

    /// The one place a node enters the graph — and with that, telemetry:
    /// its cell (counters, estimator block) gets its splice epoch and, when
    /// latency tracking is on, its tracker attachment here.
    pub(crate) fn push_node(&self, mut cell: NodeCell) -> NodeId {
        let (id, epoch, cell, woke) = {
            let mut nodes = self.nodes.write();
            // ordering: Release — pairs with the Acquire in topology_epoch().
            // The bump happens under the write lock: an observer of the new
            // value that goes on to read `nodes` waits for the push below.
            let epoch = self.topology.fetch_add(1, Ordering::Release) + 1;
            cell.spliced_epoch = epoch;
            // Under the same lock `enable_latency_tracking` sweeps under: a
            // node is attached by this push or by that sweep, never missed.
            if let Some(tracker) = &*self.latency.lock() {
                cell.runnable
                    .get_mut()
                    .attach_latency(Arc::clone(tracker), Arc::clone(&cell.stats));
            }
            let cell = Arc::new(cell);
            nodes.push(Arc::clone(&cell));
            let id = nodes.len() - 1;
            let woke = self.ready.register(id, &cell.ready);
            // A keyed instance enters with the state it imported.
            cell.publish_state(&**cell.runnable.lock());
            (id, epoch, cell, woke)
        };
        // Ready from here on: a source, or a consumer whose edges were
        // primed or pushed into while it had no id yet.
        cell.ready.wake(woke);
        pipes_trace::instant(pipes_trace::names::GRAPH_SPLICE, [id as u64, epoch, 0]);
        id
    }

    pub(crate) fn cell(&self, id: NodeId) -> Arc<NodeCell> {
        Arc::clone(&self.nodes.read()[id])
    }

    /// A readiness cell for a node about to be registered: its input edges
    /// are created (and subscribed) against it before the node has an id.
    pub(crate) fn new_ready_cell(&self, kind: NodeKind) -> Arc<ReadyCell> {
        self.ready.new_cell(kind == NodeKind::Source)
    }

    /// A new input edge of the node that owns `consumer`; `gate` makes it a
    /// strict-frontier port (see [`Edge::feeding`]).
    pub(crate) fn new_edge<T>(&self, consumer: &Arc<ReadyCell>, gate: bool) -> Arc<Edge<T>> {
        // ordering: Relaxed — unique-id allocation, nothing else is
        // published through this counter.
        let id = self.next_edge.fetch_add(1, Ordering::Relaxed);
        Arc::new(Edge::feeding(id, consumer, gate))
    }

    /// Registers a source node.
    pub fn add_source<S: SourceOp>(&self, name: &str, op: S) -> StreamHandle<S::Out>
    where
        S::Out: Send + Sync,
    {
        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let node = SourceNode::new(op, Arc::clone(&outputs));
        let id = self.push_node(NodeCell::new(
            name,
            NodeKind::Source,
            Box::new(node),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            Vec::new(),
            self.new_ready_cell(NodeKind::Source),
        ));
        StreamHandle { node: id, outputs }
    }

    /// Registers a unary operator subscribed to `input`.
    pub fn add_unary<O: Operator>(
        &self,
        name: &str,
        op: O,
        input: &StreamHandle<O::In>,
    ) -> StreamHandle<O::Out>
    where
        O::In: Sync,
        O::Out: Send + Sync,
    {
        self.add_nary(name, op, std::slice::from_ref(input))
    }

    /// Registers an n-ary operator subscribed to all `inputs` (one port per
    /// input, in order).
    pub fn add_nary<O: Operator>(
        &self,
        name: &str,
        op: O,
        inputs: &[StreamHandle<O::In>],
    ) -> StreamHandle<O::Out>
    where
        O::In: Sync,
        O::Out: Send + Sync,
    {
        assert!(!inputs.is_empty(), "operator needs at least one input");
        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let ready = self.new_ready_cell(NodeKind::Operator);
        let mut edges = Vec::with_capacity(inputs.len());
        let mut incoming = Vec::with_capacity(inputs.len());
        for input in inputs {
            let edge = self.new_edge::<O::In>(&ready, false);
            incoming.push(input_of(input.node, &edge));
            input.outputs.subscribe(Arc::clone(&edge));
            edges.push(edge);
        }
        let node = OpNode::new(op, edges, Published::new(Arc::clone(&outputs)));
        let id = self.push_node(NodeCell::new(
            name,
            NodeKind::Operator,
            Box::new(node),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            incoming,
            ready,
        ));
        self.refresh_subscriber_counts(inputs.iter().map(|i| i.node));
        StreamHandle { node: id, outputs }
    }

    /// Registers a binary operator subscribed to `left` and `right`.
    pub fn add_binary<B: BinaryOperator>(
        &self,
        name: &str,
        op: B,
        left: &StreamHandle<B::Left>,
        right: &StreamHandle<B::Right>,
    ) -> StreamHandle<B::Out>
    where
        B::Left: Sync,
        B::Right: Sync,
        B::Out: Send + Sync,
    {
        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let ready = self.new_ready_cell(NodeKind::Operator);
        let le = self.new_edge::<B::Left>(&ready, false);
        let re = self.new_edge::<B::Right>(&ready, false);
        let incoming = vec![input_of(left.node, &le), input_of(right.node, &re)];
        left.outputs.subscribe(Arc::clone(&le));
        right.outputs.subscribe(Arc::clone(&re));
        let node = BinNode::new(op, le, re, Published::new(Arc::clone(&outputs)));
        let id = self.push_node(NodeCell::new(
            name,
            NodeKind::Operator,
            Box::new(node),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            incoming,
            ready,
        ));
        self.refresh_subscriber_counts([left.node, right.node]);
        StreamHandle { node: id, outputs }
    }

    /// Registers a sink subscribed to `input`. Returns the sink's node id.
    pub fn add_sink<K: SinkOp>(&self, name: &str, op: K, input: &StreamHandle<K::In>) -> NodeId
    where
        K::In: Sync,
    {
        self.add_sink_nary(name, op, std::slice::from_ref(input))
    }

    /// Registers a sink subscribed to all `inputs`.
    pub fn add_sink_nary<K: SinkOp>(
        &self,
        name: &str,
        op: K,
        inputs: &[StreamHandle<K::In>],
    ) -> NodeId
    where
        K::In: Sync,
    {
        assert!(!inputs.is_empty(), "sink needs at least one input");
        let ready = self.new_ready_cell(NodeKind::Sink);
        let mut edges = Vec::with_capacity(inputs.len());
        let mut incoming = Vec::with_capacity(inputs.len());
        for input in inputs {
            let edge = self.new_edge::<K::In>(&ready, false);
            incoming.push(input_of(input.node, &edge));
            input.outputs.subscribe(Arc::clone(&edge));
            edges.push(edge);
        }
        let node = SinkNode::new(op, edges);
        let id = self.push_node(NodeCell::new(
            name,
            NodeKind::Sink,
            Box::new(node),
            None,
            incoming,
            ready,
        ));
        self.refresh_subscriber_counts(inputs.iter().map(|i| i.node));
        id
    }

    pub(crate) fn refresh_subscriber_counts(&self, ids: impl IntoIterator<Item = NodeId>) {
        let nodes = self.nodes.read();
        for id in ids {
            let cell = &nodes[id];
            if let Some(port) = &cell.out_port {
                cell.stats.set_subscribers(port.subscriber_count());
            }
        }
    }

    /// Unsubscribes `node` from all its upstream publications and marks it
    /// removed. Downstream consumers of `node` receive no further data (the
    /// node stops being scheduled); remove them first for a clean teardown.
    pub fn remove_node(&self, node: NodeId) {
        let cell = self.cell(node);
        for (up, edge) in cell.incoming.lock().drain(..) {
            let up_cell = self.cell(up);
            if let Some(port) = &up_cell.out_port {
                port.detach(edge);
                up_cell.stats.set_subscribers(port.subscriber_count());
            }
        }
        // ordering: Relaxed — the flag is a scheduling filter; executors
        // tolerate stepping a node once more after removal (the runnable
        // lock serializes actual access), so no release fence is needed.
        cell.removed.store(true, Ordering::Relaxed);
        cell.ready.finish();
        // ordering: Release — pairs with the Acquire in topology_epoch();
        // an observer of the new epoch re-scans and sees the removal flag
        // (or harmlessly steps the node once more, see above).
        let epoch = self.topology.fetch_add(1, Ordering::Release) + 1;
        pipes_trace::instant(pipes_trace::names::GRAPH_SPLICE, [node as u64, epoch, 1]);
    }

    /// The current topology epoch: a monotone counter bumped on every node
    /// add and every retirement. Executors poll this (lock-free) and
    /// re-plan when it moves; any mutation racing the poll leaves the epoch
    /// ahead of the value read, so the next poll re-triggers (seqlock-style
    /// conservatism — a replan can be observed late, never lost).
    pub fn topology_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bumps in push_node()
        // and remove_node(); observing an epoch value orders the topology
        // published before the matching bump.
        self.topology.load(Ordering::Acquire)
    }

    /// Whether `node` has been removed.
    pub fn is_removed(&self, node: NodeId) -> bool {
        // ordering: Relaxed — advisory read; see remove_node().
        self.cell(node).removed.load(Ordering::Relaxed)
    }

    /// Number of consumers currently subscribed to `node`'s output
    /// (0 for sinks).
    pub fn subscriber_count(&self, node: NodeId) -> usize {
        self.cell(node)
            .out_port
            .as_ref()
            .map_or(0, |p| p.subscriber_count())
    }

    /// Number of registered nodes (including removed ones; ids are stable).
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of the live (non-removed) nodes, in id order, snapshotted under
    /// one read-lock acquisition. Safe under concurrent mutation: a node
    /// spliced in after the snapshot simply does not appear (poll
    /// [`QueryGraph::topology_epoch`] to notice), and a node retired after
    /// the snapshot is still safe to step ([`QueryGraph::step_node`] is a
    /// no-op on removed nodes). Use this instead of `0..graph.len()` so
    /// id-holes left by retirement are never stepped or double-counted.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        let ids: Vec<NodeId> = {
            let nodes = self.nodes.read();
            nodes
                .iter()
                .enumerate()
                // ordering: Relaxed — advisory filter; see remove_node().
                .filter(|(_, cell)| !cell.removed.load(Ordering::Relaxed))
                .map(|(id, _)| id)
                .collect()
        };
        ids.into_iter()
    }

    /// Static node description.
    pub fn info(&self, id: NodeId) -> NodeInfo {
        self.cell(id).info(id)
    }

    /// Descriptions of all nodes.
    pub fn infos(&self) -> Vec<NodeInfo> {
        (0..self.len()).map(|id| self.info(id)).collect()
    }

    /// The role of a node, without cloning its name (cheap; safe in hot
    /// loops, unlike [`QueryGraph::info`]).
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.cell(id).kind
    }

    /// Appends the ids of the nodes `id` subscribes to onto `out`, one entry
    /// per input edge (an upstream node subscribed twice appears twice).
    /// Allocation-free for the caller across repeated queries.
    pub fn upstream_ids_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.extend(self.cell(id).incoming.lock().iter().map(|(n, _)| *n));
    }

    /// Ids of the nodes `id` subscribes to (see
    /// [`QueryGraph::upstream_ids_into`] for the allocation-free form).
    pub fn upstream_ids(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.upstream_ids_into(id, &mut out);
        out
    }

    /// Number of input edges of `id` (ports, counting duplicates).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.cell(id).incoming.lock().len()
    }

    /// Whether `node` subscribes to `producer` on at least one port.
    /// Allocation-free, unlike checking [`NodeInfo::upstream`].
    pub fn subscribes_to(&self, node: NodeId, producer: NodeId) -> bool {
        self.cell(node)
            .incoming
            .lock()
            .iter()
            .any(|(up, _)| *up == producer)
    }

    /// Ids of the nodes currently subscribed to `id`'s output, deduplicated,
    /// in node-id order. O(nodes + edges) — intended for launch-time
    /// planning, not per-quantum scheduling.
    pub fn downstream_ids(&self, id: NodeId) -> Vec<NodeId> {
        let nodes = self.nodes.read();
        let mut out = Vec::new();
        for (candidate, cell) in nodes.iter().enumerate() {
            if cell.incoming.lock().iter().any(|(up, _)| *up == id) {
                out.push(candidate);
            }
        }
        out
    }

    /// Installs a hook invoked with a node's id whenever that node turns
    /// from not-ready to ready — once per transition, by the push that
    /// filled it (or the splice that installed it), nothing while it stays
    /// ready. Executors use this to wake the worker owning the node instead
    /// of relying on bounded-staleness park timeouts. Replaces any previous
    /// hook; it runs on the pushing thread with no queue or node lock held,
    /// and must not step the graph.
    pub fn set_wake_hook(&self, hook: Arc<WakeHook>) {
        self.ready.set_hook(Some(hook));
    }

    /// Removes the wake hook installed by [`QueryGraph::set_wake_hook`].
    pub fn clear_wake_hook(&self) {
        self.ready.set_hook(None);
    }

    /// The lock-free readiness of every node, which schedulers consult per
    /// quantum: what [`QueryGraph::queued`],
    /// [`QueryGraph::oldest_pending_seq`], [`QueryGraph::is_finished`] and
    /// [`QueryGraph::memory`] answer one node at a time, for every node at
    /// once and with its ready bit.
    #[inline]
    pub fn ready(&self) -> &ReadySet {
        &self.ready
    }

    /// The statistics handle of a node (for the components that feed or
    /// consult one node's counters; observers take [`QueryGraph::telemetry`]).
    pub fn stats(&self, id: NodeId) -> Arc<NodeStats> {
        Arc::clone(&self.cell(id).stats)
    }

    /// The live metadata block of a node (fed by [`QueryGraph::step_node`];
    /// snapshot it directly, or take a graph-wide derived view with
    /// [`QueryGraph::meta_snapshot`]).
    pub fn meta(&self, id: NodeId) -> Arc<NodeMeta> {
        Arc::clone(&self.cell(id).meta)
    }

    /// The one telemetry snapshot: a plain-data copy of everything the
    /// graph publishes about itself — per live node its description, splice
    /// epoch, counters and latency quantiles ([`NodeStats`]), queue depth
    /// and retained elements (the ready set's summary) and estimators
    /// ([`NodeMeta`]); plus the topology epoch and the shuffle groups. The
    /// only walk over the nodes that reads counters or estimators for
    /// reporting: monitors, renderers and [`QueryGraph::meta_snapshot`] are
    /// functions of the returned value. Never blocks stepping threads — it
    /// takes no runnable lock, and estimator reads are lock-free.
    pub fn telemetry(&self) -> Telemetry {
        // Rows and epoch under one read guard: a push bumps the epoch under
        // the write lock, so no row is newer than the epoch reported.
        let (nodes, topology_epoch) = {
            let nodes = self.nodes.read();
            let live = nodes
                .iter()
                .enumerate()
                // ordering: Relaxed — advisory filter; see remove_node().
                // Checked before anything is copied: a long-running graph
                // holds many retired cells.
                .filter(|(_, cell)| !cell.removed.load(Ordering::Relaxed));
            let rows = live.map(|(id, cell)| NodeTelemetry {
                info: cell.info(id),
                spliced_epoch: cell.spliced_epoch,
                stats: cell.stats.snapshot(),
                queue_len: self.ready.queued(id),
                memory: self.ready.memory(id),
                meta: cell.meta.snapshot(),
            });
            (rows.collect(), self.topology_epoch())
        };
        Telemetry {
            topology_epoch,
            nodes,
            groups: self.shuffle_groups(),
        }
    }

    /// Takes a consistent point-in-time view of every node's estimates:
    /// live seqlock snapshots for warm nodes, topology-derived values for
    /// cold ones — the derivation pass of [`crate::meta`] over
    /// [`QueryGraph::telemetry`].
    pub fn meta_snapshot(&self, cfg: &MetaConfig) -> MetaSnapshot {
        derive(&self.telemetry(), cfg)
    }

    /// Runs one scheduling quantum of at most `budget` messages on `node`,
    /// updating its statistics.
    pub fn step_node(&self, id: NodeId, budget: usize) -> StepReport {
        let cell = self.cell(id);
        // ordering: Relaxed — scheduling filter; see remove_node().
        if cell.removed.load(Ordering::Relaxed) {
            return StepReport::default();
        }
        let mut runnable = cell.runnable.lock();
        let report = {
            let _span = pipes_trace::span_args(
                pipes_trace::names::NODE_STEP,
                [id as u64, budget as u64, 0],
            );
            runnable.step(budget)
        };
        cell.stats.record_in(report.consumed as u64);
        cell.stats.record_out(report.produced as u64);
        cell.stats.record_batches(report.batches as u64);
        // The queue depth is the readiness cell's own mirror.
        cell.publish_state(&**runnable);
        if report.consumed > 0 || report.produced > 0 {
            // One metadata-plane update per drained run, while the runnable
            // lock still serializes us: NodeMeta's seqlock publication
            // assumes a single writer, and this lock is it.
            cell.meta
                .record_quantum(report.consumed as u64, report.produced as u64);
            pipes_trace::instant_coarse(
                pipes_trace::names::META_UPDATE,
                [id as u64, report.consumed as u64, report.produced as u64],
            );
        }
        // The second readiness site (the first is a push into one of the
        // node's edges): what the step drained, closed or finished is
        // published before the runnable lock lets the next step in.
        let woke = if runnable.is_finished() {
            cell.ready.finish();
            None
        } else {
            cell.ready.publish()
        };
        drop(runnable);
        cell.ready.wake(woke);
        report
    }

    /// Joins the graph to one source-to-sink latency pipeline: sources
    /// stamp `(logical start, wall clock)` pairs into the returned
    /// [`pipes_trace::LatencyTracker`] as they produce, and sinks sample
    /// elements against those stamps, folding observed latencies into their
    /// [`NodeStats`] quantile estimators (see [`pipes_meta::LatencySummary`]).
    /// Covers every node in the graph now and every node that enters it
    /// later ([`QueryGraph::push_node`] attaches it); calling again replaces
    /// the tracker everywhere.
    pub fn enable_latency_tracking(&self) -> Arc<LatencyTracker> {
        let tracker = Arc::new(LatencyTracker::new());
        let nodes = self.nodes.read();
        *self.latency.lock() = Some(Arc::clone(&tracker));
        for cell in nodes.iter() {
            cell.runnable
                .lock()
                .attach_latency(Arc::clone(&tracker), Arc::clone(&cell.stats));
        }
        tracker
    }

    /// Caps the input-run / output-flush batch size of every node currently
    /// in the graph (see [`Runnable::set_batch_limit`]). A limit of 1
    /// reproduces the per-message data path; the default is effectively
    /// unbounded.
    pub fn set_batch_limit(&self, limit: usize) {
        for id in self.node_ids() {
            self.cell(id).runnable.lock().set_batch_limit(limit);
        }
    }

    // The probes below take no node lock: each reads what `step_node` (and
    // `shed`) published last, or what the input edges mirror on every push
    // and pop.

    /// Messages queued at `node`'s inputs (0 while a strict-frontier node
    /// is blocked on an empty open port).
    pub fn queued(&self, id: NodeId) -> usize {
        self.ready.queued(id)
    }

    /// Arrival sequence of the oldest message queued at `node`, if any.
    pub fn oldest_pending_seq(&self, id: NodeId) -> Option<u64> {
        self.ready.oldest_seq(id)
    }

    /// Whether `node` has finished (closed or removed).
    pub fn is_finished(&self, id: NodeId) -> bool {
        self.ready.is_finished(id)
    }

    /// Whether every node has finished (removed nodes count as finished).
    pub fn all_finished(&self) -> bool {
        self.ready.all_finished()
    }

    /// Operator state size of `node` in retained elements.
    pub fn memory(&self, id: NodeId) -> usize {
        self.ready.memory(id)
    }

    /// Estimated operator state footprint of `node` in bytes (0 when the
    /// operator does not report one).
    pub fn state_bytes(&self, id: NodeId) -> usize {
        self.cell(id).stats.snapshot().state_bytes
    }

    /// Total messages queued across the whole graph.
    pub fn total_queued(&self) -> usize {
        self.node_ids().map(|id| self.ready.queued(id)).sum()
    }

    /// Sheds `node`'s operator state to roughly `target` elements.
    pub fn shed(&self, id: NodeId, target: usize) -> usize {
        let cell = self.cell(id);
        let mut runnable = cell.runnable.lock();
        let left = runnable.shed(target);
        cell.publish_state(&**runnable);
        left
    }

    /// The reference the published probes are checked against: `node`'s
    /// `(queued, oldest_pending_seq, is_finished, memory, state_bytes)`,
    /// computed under its runnable lock from its input queues and its
    /// operator. It waits for a step in progress; for tests only.
    #[doc(hidden)]
    pub fn locked_probes(&self, id: NodeId) -> (usize, Option<u64>, bool, usize, usize) {
        let cell = self.cell(id);
        let runnable = cell.runnable.lock();
        let (queued, oldest) = if cell.ready.parked() {
            (0, None)
        } else {
            let f = frontier(cell.inputs.lock().iter().map(|edge| edge.view()));
            (f.queued, f.next.map(|n| n.seq))
        };
        // ordering: Relaxed — scheduling filter; see remove_node().
        let finished = cell.removed.load(Ordering::Relaxed) || runnable.is_finished();
        (
            queued,
            oldest,
            finished,
            runnable.memory(),
            runnable.state_bytes(),
        )
    }

    /// Minimal built-in executor: steps all nodes round-robin until every
    /// node has finished. Returns the number of quanta executed. Intended
    /// for tests and simple examples — real deployments use `pipes-sched`.
    ///
    /// # Panics
    ///
    /// Panics if the graph stops making progress before finishing (which
    /// would indicate a stuck operator or an infinite source).
    pub fn run_to_completion(&self, budget: usize) -> usize {
        let mut quanta = 0;
        loop {
            if self.all_finished() {
                return quanta;
            }
            let mut progressed = false;
            for id in self.node_ids() {
                if self.is_finished(id) {
                    continue;
                }
                let report = self.step_node(id, budget);
                if report.consumed > 0 || report.produced > 0 || self.is_finished(id) {
                    progressed = true;
                }
                quanta += 1;
            }
            assert!(progressed, "query graph stalled: no node can make progress");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{CollectSink, CountSink, VecSource};
    use crate::operator::Collector;
    use pipes_time::{Element, Timestamp};

    struct Mul(i64);
    impl Operator for Mul {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            let k = self.0;
            out.element(e.map(|v| v * k));
        }
    }

    fn elems(vals: &[i64]) -> Vec<Element<i64>> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| Element::at(*v, Timestamp::new(i as u64)))
            .collect()
    }

    #[test]
    fn linear_pipeline_end_to_end() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3])));
        let doubled = g.add_unary("double", Mul(2), &src);
        let (sink, buf) = CollectSink::new();
        g.add_sink("collect", sink, &doubled);

        g.run_to_completion(8);
        let vals: Vec<i64> = buf.lock().iter().map(|e| e.payload).collect();
        assert_eq!(vals, vec![2, 4, 6]);
        assert!(g.all_finished());
    }

    #[test]
    fn fan_out_to_two_sinks() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[5, 6])));
        let (s1, b1) = CollectSink::new();
        let (s2, b2) = CollectSink::new();
        g.add_sink("a", s1, &src);
        g.add_sink("b", s2, &src);
        g.run_to_completion(4);
        assert_eq!(b1.lock().len(), 2);
        assert_eq!(b2.lock().len(), 2);
        // Source stats observed two subscribers.
        assert_eq!(g.stats(src.node()).snapshot().subscribers, 2);
    }

    #[test]
    fn diamond_shape_counts() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3, 4])));
        let a = g.add_unary("x2", Mul(2), &src);
        let b = g.add_unary("x3", Mul(3), &src);
        let (sink, cell) = CountSink::<i64>::new();
        g.add_sink_nary("count", sink, &[a, b]);
        g.run_to_completion(3);
        assert_eq!(cell.lock().0, 8); // 4 elements down each branch
    }

    #[test]
    fn stats_track_selectivity() {
        struct DropOdd;
        impl Operator for DropOdd {
            type In = i64;
            type Out = i64;
            fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
                if e.payload % 2 == 0 {
                    out.element(e);
                }
            }
        }
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3, 4])));
        let f = g.add_unary("even", DropOdd, &src);
        let (sink, _) = CollectSink::new();
        g.add_sink("sink", sink, &f);
        g.run_to_completion(16);
        let snap = g.stats(f.node()).snapshot();
        // 4 elements + 4 heartbeats + 1 close consumed; 2 elements produced.
        assert_eq!(snap.out_count, 2);
        assert!(snap.in_count >= 5);
    }

    #[test]
    fn runtime_subscription_and_removal() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3])));
        let (s1, b1) = CollectSink::new();
        let first = g.add_sink("first", s1, &src);

        // Drain one quantum, then splice in a second consumer at runtime.
        g.step_node(src.node(), 1);
        let (s2, b2) = CollectSink::new();
        let second = g.add_sink("second", s2, &src);
        g.run_to_completion(4);
        assert_eq!(b1.lock().len(), 3);
        // The late subscriber missed the first element.
        assert_eq!(b2.lock().len(), 2);

        g.remove_node(second);
        assert!(g.is_removed(second));
        assert!(!g.is_removed(first));
        assert_eq!(g.stats(src.node()).snapshot().subscribers, 1);
    }

    #[test]
    fn late_subscriber_to_closed_stream_sees_close() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1])));
        let (s1, _) = CollectSink::new();
        g.add_sink("early", s1, &src);
        g.run_to_completion(4);

        let (s2, b2) = CollectSink::new();
        let late = g.add_sink("late", s2, &src);
        g.run_to_completion(4);
        assert!(g.is_finished(late));
        assert_eq!(b2.lock().len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_inputs_rejected() {
        let g = QueryGraph::new();
        let _ = g.add_nary::<Mul>("bad", Mul(1), &[]);
    }

    #[test]
    fn topology_queries_report_edges() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1])));
        let a = g.add_unary("a", Mul(2), &src);
        let b = g.add_unary("b", Mul(3), &src);
        let (sink, _) = CountSink::<i64>::new();
        let k = g.add_sink_nary("count", sink, &[a.clone(), b.clone()]);

        assert_eq!(g.kind(src.node()), NodeKind::Source);
        assert_eq!(g.kind(a.node()), NodeKind::Operator);
        assert_eq!(g.kind(k), NodeKind::Sink);
        assert_eq!(g.upstream_ids(src.node()), Vec::<NodeId>::new());
        assert_eq!(g.upstream_ids(a.node()), vec![src.node()]);
        assert_eq!(g.upstream_ids(k), vec![a.node(), b.node()]);
        assert_eq!(g.in_degree(k), 2);
        assert_eq!(g.downstream_ids(src.node()), vec![a.node(), b.node()]);
        assert_eq!(g.downstream_ids(a.node()), vec![k]);
        assert_eq!(g.downstream_ids(k), Vec::<NodeId>::new());

        let mut buf = vec![99];
        g.upstream_ids_into(k, &mut buf);
        assert_eq!(buf, vec![99, a.node(), b.node()]);
    }

    #[test]
    fn topology_epoch_bumps_on_add_and_retire() {
        let g = QueryGraph::new();
        let e0 = g.topology_epoch();
        let src = g.add_source("src", VecSource::new(elems(&[1])));
        assert!(g.topology_epoch() > e0, "add_source must bump the epoch");
        let (s1, _) = CollectSink::new();
        let a = g.add_sink("a", s1, &src);
        let (s2, _) = CollectSink::new();
        let b = g.add_sink("b", s2, &src);
        let before = g.topology_epoch();
        g.remove_node(a);
        assert!(g.topology_epoch() > before, "retire must bump the epoch");

        // node_ids skips the retired id but keeps the survivors, in order.
        let ids: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(ids, vec![src.node(), b]);
        // The hole cannot be double-stepped through the iterator view.
        assert!(g.node_ids().all(|id| id != a));
    }

    #[test]
    fn wake_hook_fires_once_per_ready_transition_of_the_consumer() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3, 4])));
        let (sink, _) = CollectSink::new();
        let s = g.add_sink("sink", sink, &src);

        let fired = Arc::new(Mutex::new(Vec::new()));
        let fired2 = Arc::clone(&fired);
        g.set_wake_hook(Arc::new(move |id| fired2.lock().push(id)));

        g.step_node(src.node(), 1); // fills the sink's queue → the sink wakes
        assert_eq!(fired.lock().clone(), vec![s]);
        g.step_node(src.node(), 1); // the sink is already ready → nothing
        assert_eq!(fired.lock().len(), 1);
        g.step_node(s, 8); // drained: back to not-ready, nobody to wake
        assert!(!g.ready().is_ready(s));
        g.step_node(src.node(), 1); // not-ready → ready again
        assert_eq!(fired.lock().clone(), vec![s, s]);

        g.clear_wake_hook();
        g.run_to_completion(8);
        assert_eq!(fired.lock().len(), 2, "cleared hook must not fire");
    }

    #[test]
    fn readiness_cells_track_the_locked_probes() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(elems(&[1, 2, 3])));
        let a = g.add_unary("a", Mul(2), &src);
        let (sink, _) = CollectSink::new();
        let k = g.add_sink("sink", sink, &a);
        let agree = |g: &QueryGraph| {
            let ready = g.ready();
            let mut all_finished = true;
            for id in g.node_ids() {
                let (queued, oldest, finished, _, _) = g.locked_probes(id);
                assert_eq!(ready.queued(id), queued, "queued of {id}");
                assert_eq!(ready.oldest_seq(id), oldest);
                assert_eq!(ready.is_finished(id), finished);
                all_finished &= finished;
            }
            assert_eq!(ready.all_finished(), all_finished);
        };
        agree(&g);
        assert_eq!(
            g.ready().marked(0, k).map(|m| m.id).collect::<Vec<_>>(),
            vec![src.node()],
            "only the live source is ready at first"
        );
        for id in [src.node(), a.node(), src.node(), k, a.node(), k] {
            g.step_node(id, 2);
            agree(&g);
        }
        g.run_to_completion(8);
        agree(&g);
        assert!(g.ready().all_finished());
        assert_eq!(g.ready().marked(0, k).count(), 0);
    }
}
