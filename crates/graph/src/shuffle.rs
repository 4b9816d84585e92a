//! Keyed data parallelism: partition-by-key shuffle edges.
//!
//! A single stateful operator node processes its input sequentially, so one
//! hot join or aggregation caps the whole plan at one core no matter how
//! many workers the scheduler runs. This module splits such an operator
//! into **N keyed instances** behind a *shuffle edge*:
//!
//! ```text
//!            ┌──────────► instance #0 ─────────┐
//!  producer ─► partition ─► instance #1 ─► merge ─► consumers
//!            └──────────► instance #2 ─────────┘
//! ```
//!
//! * The **partition** stage drains the producer's runs and routes every
//!   element to `key(payload) % N`, *preserving the original arrival
//!   sequence stamps* (see [`Edge::push_stamped_batch`]). Heartbeats and
//!   `Close` are broadcast to all instances at their original stamp, so
//!   every instance observes the same temporal progress.
//! * Each **instance** is a real graph node with its own [`NodeMeta`],
//!   statistics and operator state — an ordinary `OpNode`/`BinNode` of
//!   [`crate::node`] with the *stamped* emitter: it processes its input in
//!   *chunks of consecutive arrival sequences* and stamps every output with
//!   the chunk's first sequence (see `node::Stamped` for why that is exact).
//!   A binary instance's input edges are *gated*: its two partitioners can
//!   lag behind each other, so it holds the strict frontier the merge holds.
//! * The **merge** stage restores global arrival order with the same
//!   cross-port run-bound discipline the multi-port nodes use: it only
//!   advances to the smallest head stamp once every open port has a head
//!   (per-port stamps are non-decreasing, so a later arrival can never
//!   undercut an observed head), drains the tie group in port order, and
//!   republishes through a regular [`Outputs`] port. Broadcast stamps
//!   (heartbeat/close flushes) can tie across instances; a [`MergeTie`]
//!   comparator restores the deterministic flush order of the
//!   single-instance operator there.
//!
//! The result is **byte-identical element output** to the single-instance
//! plan (property-tested in `crates/graph/tests/` and `crates/ops/tests/`)
//! while the instances scale across cores as independently stealable
//! nodes. `QueryGraph::parallelize` re-sizes a group against a *running*
//! graph, and building a group is the same protocol run from an empty
//! generation (`Group::respawn`): routing is frozen by parking the
//! partitioner out of its cell, the retiring generation's unprocessed input
//! is taken off its ports, its keyed state moved over (see [`Rekey`]), the
//! new instances spliced in through the hot-topology path (topology-epoch
//! bump, no stop/restart), the backlog replayed through the re-targeted
//! partitioner and the old instances retired. A unary group has one
//! partitioned `Side`, a binary group two; they differ in nothing else.

use crate::edge::Edge;
use crate::graph::{input_of, Incoming, NodeCell, NodeKind, QueryGraph, StreamHandle};
use crate::node::{frontier_of, BinNode, OpNode, Runnable, Stamped, StepReport};
use crate::operator::{BinaryOperator, Collector, NodeId, Operator};
use crate::outputs::{OutputPort, Outputs, PublishCollector, DEFAULT_FLUSH_CAP};
use crate::ready::ReadyCell;
use pipes_sync::atomic::Ordering;
use pipes_sync::{Arc, Mutex};
use pipes_time::{Element, Message, Timestamp};
use std::hash::{Hash, Hasher};

/// Hashes a key with a deterministic, build-stable hasher.
///
/// Both the partitioner's key functions and [`Rekey::export_keyed`] must
/// derive their `u64` from the *same* function of the key, or a
/// [`QueryGraph::parallelize`] state hand-off would route moved state to a
/// different instance than future elements of that key. Using this helper
/// on the extracted key satisfies the contract.
pub fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    // DefaultHasher::new() uses fixed keys (unlike RandomState), so the
    // mapping is stable across nodes, threads and reruns of one build.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Key extractor of a shuffle edge: maps a payload to the `u64` key space
/// that the partitioner reduces modulo the instance count.
pub type KeyFn<T> = Arc<dyn Fn(&T) -> u64 + Send + Sync>;

/// Tie-break comparator for the merge stage.
///
/// Element outputs triggered by a *broadcast* message (heartbeat or close
/// flushes of an aggregation) carry the broadcast's stamp on every
/// instance, so the merge sees them as one tie group. The comparator must
/// reproduce the flush order of the single-instance operator (e.g. sorted
/// by group key); the merge applies it with a stable sort over the group,
/// so per-instance emission order breaks remaining ties. Operators that
/// only emit while processing elements (e.g. joins — element stamps are
/// unique per instance) don't need one.
pub type MergeTie<T> = Arc<dyn Fn(&Element<T>, &Element<T>) -> std::cmp::Ordering + Send + Sync>;

/// Keyed operator state in transit during a [`QueryGraph::parallelize`]
/// hand-off: `(routing hash, boxed per-key state)` pairs. The routing hash
/// must equal the partitioner's key-function output for elements of that
/// key (see [`key_hash`]).
pub type KeyedState = Vec<(u64, Box<dyn std::any::Any + Send>)>;

/// State hand-off contract for operators that can run behind a shuffle
/// edge. `parallelize` exports the retiring instances' per-key state,
/// re-routes each entry by `hash % new_instance_count` and imports it into
/// the fresh instances — all while the partitioner is frozen, so no element
/// of a key is ever processed against moved-away state. What the retiring
/// instances had not processed yet is replayed to the fresh ones, broadcast
/// heartbeats to *all* of them: an operator must tolerate a heartbeat it
/// has already seen (flushing at it again finds nothing to flush).
pub trait Rekey {
    /// Drains this operator's state into per-key entries. The operator is
    /// left empty (it is about to be retired).
    fn export_keyed(&mut self) -> KeyedState;
    /// Absorbs entries previously produced by
    /// [`export_keyed`](Rekey::export_keyed) on an operator of the same
    /// concrete type. Called on a freshly constructed operator, once,
    /// before it processes any message.
    fn import_keyed(&mut self, entries: KeyedState);
}

// ---------------------------------------------------------------------------
// Partition node
// ---------------------------------------------------------------------------

/// Routes a producer's runs across the per-instance input edges by key,
/// preserving original arrival stamps. Not a public node kind: built by
/// [`QueryGraph::add_keyed_unary`] / [`QueryGraph::add_keyed_binary`].
pub(crate) struct PartitionNode<T> {
    input: Arc<Edge<T>>,
    key: KeyFn<T>,
    targets: Vec<Arc<Edge<T>>>,
    /// One routing buffer per target, flushed every step (so between steps
    /// all routed messages are on the wire and the buffers are empty —
    /// a resize relies on this to find a frozen group's whole backlog on
    /// the instance ports).
    buffers: Vec<Vec<(u64, Message<T>)>>,
    scratch: Vec<(u64, Message<T>)>,
    batch_limit: usize,
    closed: bool,
}

impl<T> PartitionNode<T> {
    /// A partitioner without targets: it is born frozen (see [`Side::new`])
    /// and gets them with its first [`retarget`](PartitionNode::retarget).
    fn new(input: Arc<Edge<T>>, key: KeyFn<T>) -> Self {
        PartitionNode {
            input,
            key,
            targets: Vec::new(),
            buffers: Vec::new(),
            scratch: Vec::new(),
            batch_limit: usize::MAX,
            closed: false,
        }
    }

    /// Replaces the routing targets (callers own the node, out of its cell,
    /// which freezes routing for the whole splice).
    fn retarget(&mut self, targets: Vec<Arc<Edge<T>>>) {
        self.targets = targets;
        self.buffers.clear();
        self.buffers.resize_with(self.targets.len(), Vec::new);
    }

    /// Routes `msgs` (in arrival order) onto the targets at their original
    /// stamps: elements by key, heartbeats and `Close` broadcast — every
    /// instance sees the same temporal progress, and the merge re-unifies
    /// the copies into one tie group. Returns how many messages went out
    /// (elements once, broadcasts per instance).
    fn route(&mut self, msgs: &mut Vec<(u64, Message<T>)>) -> usize {
        let k = self.targets.len();
        let mut routed = 0;
        for (seq, msg) in msgs.drain(..) {
            match msg {
                Message::Element(e) => {
                    let slot = ((self.key)(&e.payload) % k as u64) as usize;
                    self.buffers[slot].push((seq, Message::Element(e)));
                    routed += 1;
                }
                Message::Heartbeat(t) => {
                    for buf in &mut self.buffers {
                        buf.push((seq, Message::Heartbeat(t)));
                    }
                    routed += k;
                }
                Message::Close => {
                    for buf in &mut self.buffers {
                        buf.push((seq, Message::Close));
                    }
                    self.closed = true;
                    routed += k;
                }
            }
        }
        for (edge, buf) in self.targets.iter().zip(self.buffers.iter_mut()) {
            edge.push_stamped_batch(buf);
        }
        routed
    }
}

impl<T: Send + Clone + 'static> Runnable for PartitionNode<T> {
    fn step(&mut self, budget: usize) -> StepReport {
        let max = budget.min(self.batch_limit);
        let n = self.input.pop_run(max, u64::MAX, &mut self.scratch);
        if n == 0 {
            return StepReport::default();
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let routed = self.route(&mut scratch);
        self.scratch = scratch;
        pipes_trace::instant(
            pipes_trace::names::SHUFFLE,
            [n as u64, self.targets.len() as u64, routed as u64],
        );
        StepReport {
            consumed: n,
            // Counts every routed message: this is what the instances'
            // statistics see arriving.
            produced: routed,
            batches: 1,
            peak_run: n,
        }
    }

    fn is_finished(&self) -> bool {
        self.closed && self.input.is_empty()
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Merge node
// ---------------------------------------------------------------------------

/// Restores global arrival order across the instance output edges and
/// republishes through a regular [`Outputs`] port.
pub(crate) struct MergeNode<T: Clone> {
    /// The ports that have not delivered their `Close` yet, all gated.
    ports: Vec<Arc<Edge<T>>>,
    outputs: Arc<Outputs<T>>,
    tie: Option<MergeTie<T>>,
    scratch: Vec<(u64, Message<T>)>,
    elems: Vec<Element<T>>,
    out_scratch: Vec<Message<T>>,
    batch_limit: usize,
    closed_downstream: bool,
}

impl<T: Clone> MergeNode<T> {
    /// A merge without ports; it gets them as generations are spawned and
    /// ends the stream when the last one has closed.
    fn new(outputs: Arc<Outputs<T>>, tie: Option<MergeTie<T>>) -> Self {
        MergeNode {
            ports: Vec::new(),
            outputs,
            tie,
            scratch: Vec::new(),
            elems: Vec::new(),
            out_scratch: Vec::new(),
            batch_limit: usize::MAX,
            closed_downstream: false,
        }
    }
}

impl<T: Clone + Send + 'static> Runnable for MergeNode<T> {
    fn step(&mut self, budget: usize) -> StepReport {
        let mut report = StepReport::default();
        if self.closed_downstream {
            return report;
        }
        let mut col = PublishCollector::new(&self.outputs, &mut self.out_scratch)
            .with_flush_cap(self.batch_limit.min(DEFAULT_FLUSH_CAP));
        // The budget may overrun by one tie group: a group must be emitted
        // atomically or a mid-group cut would interleave its sorted flush
        // output with the next stamp's.
        while report.consumed < budget {
            // Every port is gated, so the frontier only names a head once
            // every open port has one (per-port stamps are non-decreasing:
            // a later arrival can never undercut an observed head).
            let Some(next) = frontier_of(&self.ports).next else {
                break;
            };
            let mut hb: Option<Timestamp> = None;
            let mut closed = false;
            for edge in &self.ports {
                // Everything at stamp `next.seq` is drained by one bounded
                // run; ports whose head is newer contribute nothing.
                let n = edge.pop_run(usize::MAX, next.seq, &mut self.scratch);
                if n == 0 {
                    continue;
                }
                report.drained(n);
                for (_, msg) in self.scratch.drain(..) {
                    match msg {
                        Message::Element(e) => self.elems.push(e),
                        Message::Heartbeat(t) => hb = Some(hb.map_or(t, |h| h.max(t))),
                        Message::Close => {
                            edge.open_gate();
                            closed = true;
                        }
                    }
                }
            }
            if let Some(tie) = &self.tie {
                if self.elems.len() > 1 {
                    // Stable: per-port emission order breaks ties the
                    // comparator leaves open.
                    self.elems.sort_by(|a, b| tie(a, b));
                }
            }
            for e in self.elems.drain(..) {
                col.element(e);
            }
            if let Some(t) = hb {
                col.heartbeat(t);
            }
            if closed {
                // A closed port never delivers again (its gate is open).
                self.ports.retain(|edge| edge.gated());
                if self.ports.is_empty() {
                    col.publish_close();
                    self.closed_downstream = true;
                    break;
                }
            }
        }
        report.produced = col.finish();
        report
    }

    fn is_finished(&self) -> bool {
        self.closed_downstream
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

type ExpandFn = dyn Fn(&QueryGraph, usize) -> Vec<NodeId> + Send + Sync;

struct GroupEntry {
    name: String,
    /// The merge node's id doubles as the group handle (it is the id on the
    /// [`StreamHandle`] the builder returned, so callers already hold it).
    handle: NodeId,
    partition_ids: Vec<NodeId>,
    instance_ids: Vec<NodeId>,
    expand: Arc<ExpandFn>,
}

/// Registered shuffle groups of one graph (see [`QueryGraph::parallelize`]).
pub(crate) struct ShuffleRegistry {
    groups: Mutex<Vec<GroupEntry>>,
}

impl Default for ShuffleRegistry {
    fn default() -> Self {
        ShuffleRegistry {
            groups: Mutex::new(Vec::new()),
        }
    }
}

impl ShuffleRegistry {
    fn register(&self, entry: GroupEntry) {
        self.groups.lock().push(entry);
    }

    fn expander(&self, handle: NodeId) -> Option<Arc<ExpandFn>> {
        self.groups
            .lock()
            .iter()
            .find(|g| g.handle == handle)
            .map(|g| Arc::clone(&g.expand))
    }

    fn set_instances(&self, handle: NodeId, ids: Vec<NodeId>) {
        if let Some(g) = self.groups.lock().iter_mut().find(|g| g.handle == handle) {
            g.instance_ids = ids;
        }
    }

    fn snapshot(&self) -> Vec<ShuffleGroup> {
        self.groups
            .lock()
            .iter()
            .map(|g| ShuffleGroup {
                name: g.name.clone(),
                handle: g.handle,
                partition_ids: g.partition_ids.clone(),
                instance_ids: g.instance_ids.clone(),
            })
            .collect()
    }
}

pub use pipes_meta::ShuffleGroup;

// ---------------------------------------------------------------------------
// Freezing a partitioner
// ---------------------------------------------------------------------------

/// Placeholder parked in a partition cell while a resize owns the real
/// partitioner (see [`take_runnable`]). It reports an idle, unfinished
/// node: workers that reach it during the splice window see no work, and
/// upstream messages queue on the shared input edge with their original
/// stamps until the partitioner is restored.
struct ParkedPartition;

impl Runnable for ParkedPartition {
    fn step(&mut self, _budget: usize) -> StepReport {
        StepReport::default()
    }
    fn is_finished(&self) -> bool {
        false
    }
}

/// Takes a node's runnable out of its cell, parking a [`ParkedPartition`]
/// in its place. Owning the box freezes routing as surely as holding the
/// cell's lock — nobody else can reach the partitioner — but leaves the
/// lock free, so the splice can lock instance and merge cells one at a
/// time instead of nesting runnable locks.
fn take_runnable(g: &QueryGraph, id: NodeId) -> Box<dyn Runnable> {
    let cell = g.cell(id);
    let mut guard = cell.runnable.lock();
    // The readiness cell follows the placeholder: no demand while parked,
    // whatever queues up on the input edge.
    cell.ready.set_parked(true);
    std::mem::replace(&mut *guard, Box::new(ParkedPartition))
}

/// Puts a runnable taken by [`take_runnable`] back into its cell.
fn restore_runnable(g: &QueryGraph, id: NodeId, runnable: Box<dyn Runnable>) {
    let cell = g.cell(id);
    let woke = {
        let mut guard = cell.runnable.lock();
        *guard = runnable;
        cell.ready.set_parked(false)
    };
    cell.ready.wake(woke);
}

fn instance_cell(
    name: String,
    runnable: Box<dyn Runnable>,
    incoming: Incoming,
    ready: Arc<ReadyCell>,
) -> NodeCell {
    NodeCell::new(&name, NodeKind::Operator, runnable, None, incoming, ready)
}

// ---------------------------------------------------------------------------
// Groups: building and re-sizing
// ---------------------------------------------------------------------------

/// One partitioned input of a keyed group: its partitioner and the input
/// edges it routes onto, one per instance of the current generation.
struct Side<T> {
    part_id: NodeId,
    /// Whether the instances hold a strict frontier on this port: they do
    /// when there is a second side whose partitioner can lag behind this
    /// one's.
    gate: bool,
    edges: Vec<Arc<Edge<T>>>,
    /// While a resize is in flight: the partitioner, out of its cell …
    frozen: Option<Box<dyn Runnable>>,
    /// … and what the retiring generation had not processed yet, in
    /// arrival order.
    backlog: Vec<(u64, Message<T>)>,
}

impl<T: Send + Clone + 'static> Side<T> {
    /// Subscribes a partitioner to `input`. The side is born **frozen**
    /// (the real partitioner held here, a placeholder in its cell): it has
    /// nowhere to route to before the group's first generation is spawned,
    /// and what arrives meanwhile waits on its input edge.
    fn new(
        g: &QueryGraph,
        name: String,
        key: KeyFn<T>,
        gate: bool,
        input: &StreamHandle<T>,
    ) -> Self {
        let ready = g.new_ready_cell(NodeKind::Operator);
        let edge = g.new_edge::<T>(&ready, false);
        input.outputs.subscribe(Arc::clone(&edge));
        ready.set_parked(true);
        let incoming = vec![input_of(input.node, &edge)];
        let part_id = g.push_node(instance_cell(
            name,
            Box::new(ParkedPartition),
            incoming,
            ready,
        ));
        g.refresh_subscriber_counts([input.node]);
        Side {
            part_id,
            gate,
            edges: Vec::new(),
            frozen: Some(Box::new(PartitionNode::new(edge, key))),
            backlog: Vec::new(),
        }
    }
}

/// The partitioned inputs of a keyed group — one [`Side`] for a unary
/// operator, a pair for a binary one — and everything in a resize that
/// touches them. The operations are written on [`Side`]; the pair does them
/// left, then right.
trait Sides: Send + 'static {
    /// One instance's input edges.
    type Ports;
    fn part_ids(&self) -> Vec<NodeId>;
    /// Stops routing (see [`take_runnable`]) and takes the retiring
    /// generation's unprocessed input off its ports.
    fn freeze(&mut self, g: &QueryGraph);
    /// Creates the input edges of one new instance, listing them in its
    /// `incoming`.
    fn connect(
        &mut self,
        g: &QueryGraph,
        instance: &Arc<ReadyCell>,
        incoming: &mut Incoming,
    ) -> Self::Ports;
    /// Points the partitioner at the new generation, replays the backlog
    /// through it and lets it run again. `stamp` closes a stream that had
    /// already ended.
    fn thaw(&mut self, g: &QueryGraph, stamp: u64);
}

impl<T: Send + Clone + 'static> Sides for Side<T> {
    type Ports = Arc<Edge<T>>;

    fn part_ids(&self) -> Vec<NodeId> {
        vec![self.part_id]
    }

    fn freeze(&mut self, g: &QueryGraph) {
        self.frozen = Some(take_runnable(g, self.part_id));
        // With routing frozen and the partition buffers empty between
        // steps, the instance ports hold every routed-but-unprocessed
        // message. It is popped raw and replayed rather than processed by
        // the retiring operators: a port blocked by the strict frontier can
        // still owe a smaller-sequence message sitting in the lagging
        // other-side partitioner, and that message must meet the keyed
        // state first.
        for edge in self.edges.drain(..) {
            while edge.pop_run(usize::MAX, u64::MAX, &mut self.backlog) > 0 {}
        }
        // Equal stamps are broadcast copies of one heartbeat or `Close`.
        self.backlog.sort_by_key(|(seq, _)| *seq);
        self.backlog.dedup_by_key(|(seq, _)| *seq);
    }

    fn connect(
        &mut self,
        g: &QueryGraph,
        instance: &Arc<ReadyCell>,
        incoming: &mut Incoming,
    ) -> Arc<Edge<T>> {
        let edge = g.new_edge::<T>(instance, self.gate);
        incoming.push(input_of(self.part_id, &edge));
        self.edges.push(Arc::clone(&edge));
        edge
    }

    fn thaw(&mut self, g: &QueryGraph, stamp: u64) {
        let mut frozen = self.frozen.take().expect("side thawed while not frozen");
        let part = frozen
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<PartitionNode<T>>())
            .expect("shuffle partition node changed type");
        // A `Close` the retiring generation already consumed needs a fresh
        // one on the new edges, or the new instances would never finish;
        // one still in the backlog (its last message) is replayed.
        let owed_close = part.closed && !matches!(self.backlog.last(), Some((_, Message::Close)));
        part.retarget(self.edges.clone());
        // Replayed at its original stamps: everything still ahead of the
        // partitioner has a larger sequence — it routes in arrival order —
        // so the fresh edges stay monotonic.
        part.route(&mut self.backlog);
        if owed_close {
            for edge in &self.edges {
                edge.push(stamp, Message::Close);
            }
        }
        restore_runnable(g, self.part_id, frozen);
    }
}

impl<L: Send + Clone + 'static, R: Send + Clone + 'static> Sides for (Side<L>, Side<R>) {
    type Ports = (Arc<Edge<L>>, Arc<Edge<R>>);

    fn part_ids(&self) -> Vec<NodeId> {
        vec![self.0.part_id, self.1.part_id]
    }

    fn freeze(&mut self, g: &QueryGraph) {
        self.0.freeze(g);
        self.1.freeze(g);
    }

    fn connect(
        &mut self,
        g: &QueryGraph,
        instance: &Arc<ReadyCell>,
        incoming: &mut Incoming,
    ) -> Self::Ports {
        let left = self.0.connect(g, instance, incoming);
        (left, self.1.connect(g, instance, incoming))
    }

    fn thaw(&mut self, g: &QueryGraph, stamp: u64) {
        self.0.thaw(g, stamp);
        self.1.thaw(g, stamp);
    }
}

/// One keyed-parallel group: its sides, its current generation of
/// instances, and how to make the next.
struct Group<S: Sides, T> {
    name: String,
    merge_id: NodeId,
    sides: S,
    /// The current generation: every instance's node and its output edge
    /// into the merge.
    instances: Vec<(NodeId, Arc<Edge<T>>)>,
    next_idx: usize,
    /// Builds an instance node around a fresh operator that has imported
    /// the given keyed state.
    spawn: SpawnFn<S, T>,
    /// Moves the keyed state out of an instance node `spawn` built.
    export: fn(&mut dyn std::any::Any) -> KeyedState,
}

type SpawnFn<S, T> =
    Box<dyn Fn(KeyedState, <S as Sides>::Ports, Stamped<T>) -> Box<dyn Runnable> + Send>;

impl<S: Sides, T: Clone + Send + 'static> Group<S, T> {
    /// Replaces the current generation (none yet, when the group is being
    /// built) by `n_new` fresh instances — the one resize protocol. The
    /// caller has frozen the sides; from there: export the retiring
    /// operators' keyed state and split it by `hash % n_new`, spawn the new
    /// instances around it, give the merge their ports, close the retiring
    /// ports at one fresh stamp, thaw the sides onto the new generation and
    /// retire the old nodes. No two runnable locks are ever held at once.
    fn respawn(&mut self, g: &QueryGraph, n_new: usize) -> Vec<NodeId> {
        let mut split: Vec<KeyedState> = (0..n_new).map(|_| Vec::new()).collect();
        for (id, _) in &self.instances {
            let cell = g.cell(*id);
            let mut node = cell.runnable.lock();
            let any = node
                .as_any_mut()
                .expect("shuffle instance node changed type");
            for entry in (self.export)(any) {
                split[(entry.0 % n_new as u64) as usize].push(entry);
            }
            cell.publish_state(&**node);
        }
        let merge_cell = g.cell(self.merge_id);
        let mut fresh = Vec::with_capacity(n_new);
        for state in split {
            let ready = g.new_ready_cell(NodeKind::Operator);
            let mut incoming = Vec::new();
            let ports = self.sides.connect(g, &ready, &mut incoming);
            // The merge holds a strict frontier: its ports are gated.
            let out = g.new_edge::<T>(&merge_cell.ready, true);
            let node = (self.spawn)(state, ports, Stamped::new(Arc::clone(&out)));
            let name = format!("{}#{}", self.name, self.next_idx);
            self.next_idx += 1;
            fresh.push((g.push_node(instance_cell(name, node, incoming, ready)), out));
        }
        {
            let mut merge = merge_cell.runnable.lock();
            let merge = merge
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<MergeNode<T>>())
                .expect("shuffle merge node changed type");
            let retired = |up: &NodeId| self.instances.iter().any(|(id, _)| id == up);
            merge_cell.incoming.lock().retain(|(up, _)| !retired(up));
            for (id, out) in &fresh {
                merge.ports.push(Arc::clone(out));
                merge_cell.add_input(input_of(*id, out));
            }
        }
        // One fresh stamp: greater than every stamp the retiring instances
        // emitted, not greater than any the upstream allocates from here on.
        // ordering: Relaxed — unique-stamp allocation only; per-edge queue
        // locks establish delivery order (see Outputs).
        let stamp = g.seq.fetch_add(1, Ordering::Relaxed);
        for (id, out) in &self.instances {
            // An instance that took its own `Close` has ended its port
            // itself; the others never will (what they had not processed is
            // in the backlog), so the merge could not retire them.
            if !g.is_finished(*id) {
                out.push(stamp, Message::Close);
            }
        }
        self.sides.thaw(g, stamp);
        for (id, _) in std::mem::replace(&mut self.instances, fresh) {
            g.remove_node(id);
        }
        self.instances.iter().map(|(id, _)| *id).collect()
    }
}

impl QueryGraph {
    /// Builds a keyed group over `sides`: the merge first, then the first
    /// generation through the same [`Group::respawn`] every later resize
    /// runs.
    fn add_keyed<S: Sides, T: Clone + Send + 'static>(
        &self,
        name: &str,
        sides: S,
        instances: usize,
        tie: Option<MergeTie<T>>,
        spawn: SpawnFn<S, T>,
        export: fn(&mut dyn std::any::Any) -> KeyedState,
    ) -> StreamHandle<T> {
        assert!(instances >= 1, "keyed operator needs at least one instance");
        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let merge_id = self.push_node(NodeCell::new(
            &format!("{name}.merge"),
            NodeKind::Operator,
            Box::new(MergeNode::new(Arc::clone(&outputs), tie)),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            Vec::new(),
            self.new_ready_cell(NodeKind::Operator),
        ));
        let mut group = Group {
            name: name.to_string(),
            merge_id,
            sides,
            instances: Vec::new(),
            next_idx: 0,
            spawn,
            export,
        };
        let partition_ids = group.sides.part_ids();
        let instance_ids = group.respawn(self, instances);
        let group = Mutex::new(group);
        let expand: Arc<ExpandFn> = Arc::new(move |g: &QueryGraph, n_new: usize| {
            assert!(n_new >= 1, "parallelize needs at least one instance");
            let mut group = group.lock();
            group.sides.freeze(g);
            group.respawn(g, n_new)
        });
        self.shuffle.register(GroupEntry {
            name: name.to_string(),
            handle: merge_id,
            partition_ids,
            instance_ids,
            expand,
        });
        StreamHandle {
            node: merge_id,
            outputs,
        }
    }

    /// Registers a **keyed-parallel** unary operator: `instances` copies of
    /// the operator built by `factory`, fed through a hash-by-key partition
    /// stage and re-unified by an order-restoring merge stage. The returned
    /// handle publishes the merged stream; its node id is the group handle
    /// accepted by [`QueryGraph::parallelize`].
    ///
    /// Element output is byte-identical to
    /// `add_unary(name, factory(), input)` as long as the operator's
    /// per-key state is independent across keys (the premise of keyed
    /// parallelism) — see the module docs for the ordering argument. `tie`
    /// orders flush output that multiple instances emit at one broadcast
    /// stamp (see [`MergeTie`]); operators that only emit while processing
    /// elements may pass `None`.
    pub fn add_keyed_unary<O, F>(
        &self,
        name: &str,
        factory: F,
        key: KeyFn<O::In>,
        instances: usize,
        tie: Option<MergeTie<O::Out>>,
        input: &StreamHandle<O::In>,
    ) -> StreamHandle<O::Out>
    where
        O: Operator + Rekey,
        O::In: Sync,
        O::Out: Send + Sync,
        F: Fn() -> O + Send + Sync + 'static,
    {
        let side = Side::new(self, format!("{name}.part"), key, false, input);
        let export = |node: &mut dyn std::any::Any| {
            let node = node.downcast_mut::<OpNode<O, Stamped<O::Out>>>();
            let node = node.expect("shuffle instance node changed type");
            node.op.export_keyed()
        };
        let spawn = Box::new(move |state, port, emit| {
            let mut op = factory();
            op.import_keyed(state);
            Box::new(OpNode::new(op, vec![port], emit)) as Box<dyn Runnable>
        });
        self.add_keyed(name, side, instances, tie, spawn, export)
    }

    /// Registers a **keyed-parallel** binary operator (both inputs
    /// partitioned by the join key, which must agree: `key_left(l)` must
    /// equal `key_right(r)` whenever `l` and `r` can pair). See
    /// [`QueryGraph::add_keyed_unary`] for the group semantics.
    #[allow(clippy::too_many_arguments)]
    pub fn add_keyed_binary<B, F>(
        &self,
        name: &str,
        factory: F,
        key_left: KeyFn<B::Left>,
        key_right: KeyFn<B::Right>,
        instances: usize,
        tie: Option<MergeTie<B::Out>>,
        left: &StreamHandle<B::Left>,
        right: &StreamHandle<B::Right>,
    ) -> StreamHandle<B::Out>
    where
        B: BinaryOperator + Rekey,
        B::Left: Sync,
        B::Right: Sync,
        B::Out: Send + Sync,
        F: Fn() -> B + Send + Sync + 'static,
    {
        let sides = (
            Side::new(self, format!("{name}.lpart"), key_left, true, left),
            Side::new(self, format!("{name}.rpart"), key_right, true, right),
        );
        let export = |node: &mut dyn std::any::Any| {
            let node = node.downcast_mut::<BinNode<B, Stamped<B::Out>>>();
            let node = node.expect("shuffle instance node changed type");
            node.op.export_keyed()
        };
        let spawn = Box::new(move |state, (left, right), emit| {
            let mut op = factory();
            op.import_keyed(state);
            Box::new(BinNode::new(op, left, right, emit)) as Box<dyn Runnable>
        });
        self.add_keyed(name, sides, instances, tie, spawn, export)
    }

    /// Re-sizes the keyed-parallel group whose output node is `handle` to
    /// `instances` instances, **against the running graph**: routing is
    /// frozen, the retiring generation's keyed state is moved ([`Rekey`])
    /// and its unprocessed input replayed, the new instances are spliced in
    /// through the hot-topology path (topology-epoch bumps let executors
    /// re-plan) and the old ones retired. Returns the new instance node ids.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not the output node of a group built with
    /// [`QueryGraph::add_keyed_unary`] / [`QueryGraph::add_keyed_binary`],
    /// or if `instances` is zero.
    pub fn parallelize(&self, handle: NodeId, instances: usize) -> Vec<NodeId> {
        let expand = self
            .shuffle
            .expander(handle)
            .expect("parallelize: no keyed-parallel group registered under this node");
        let new_ids = expand(self, instances);
        self.shuffle.set_instances(handle, new_ids.clone());
        new_ids
    }

    /// Snapshots the registered keyed-parallel groups (also part of
    /// [`QueryGraph::telemetry`]).
    pub fn shuffle_groups(&self) -> Vec<ShuffleGroup> {
        self.shuffle.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{CollectSink, VecSource};
    use pipes_time::Timestamp;

    /// Pass-through operator with a trivial (empty) keyed-state hand-off.
    struct Relay;
    impl Operator for Relay {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            out.element(e);
        }
    }
    impl Rekey for Relay {
        fn export_keyed(&mut self) -> KeyedState {
            Vec::new()
        }
        fn import_keyed(&mut self, entries: KeyedState) {
            assert!(entries.is_empty());
        }
    }

    /// Running per-key sum: emits the updated sum for the element's key.
    /// State moves across generations through `Rekey`.
    struct KeyedSum {
        sums: std::collections::HashMap<i64, i64>,
    }
    impl KeyedSum {
        fn key_of(v: i64) -> u64 {
            (v.rem_euclid(8)) as u64
        }
    }
    impl Operator for KeyedSum {
        type In = i64;
        type Out = i64;
        fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
            let k = e.payload.rem_euclid(8);
            let sum = self.sums.entry(k).or_insert(0);
            *sum += e.payload;
            let s = *sum;
            out.element(e.map(|_| s));
        }
        fn memory(&self) -> usize {
            self.sums.len()
        }
    }
    impl Rekey for KeyedSum {
        fn export_keyed(&mut self) -> KeyedState {
            self.sums
                .drain()
                .map(|(k, v)| {
                    (
                        KeyedSum::key_of(k),
                        Box::new((k, v)) as Box<dyn std::any::Any + Send>,
                    )
                })
                .collect()
        }
        fn import_keyed(&mut self, entries: KeyedState) {
            for (_, boxed) in entries {
                let (k, v) = *boxed.downcast::<(i64, i64)>().expect("keyed-sum state");
                self.sums.insert(k, v);
            }
        }
    }

    fn inputs(n: i64) -> Vec<Element<i64>> {
        (0..n)
            .map(|i| Element::at(i * 13 % 97, Timestamp::new(i as u64)))
            .collect()
    }

    fn single_plan_elements(n: i64) -> Vec<Element<i64>> {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(inputs(n)));
        let out = g.add_unary(
            "sum",
            KeyedSum {
                sums: Default::default(),
            },
            &src,
        );
        let (sink, collected) = CollectSink::new();
        g.add_sink("sink", sink, &out);
        g.run_to_completion(7);
        let out = collected.lock().clone();
        out
    }

    #[test]
    fn keyed_unary_matches_single_instance_plan() {
        let expected = single_plan_elements(200);
        for instances in [1usize, 2, 3, 5] {
            let g = QueryGraph::new();
            let src = g.add_source("src", VecSource::new(inputs(200)));
            let out = g.add_keyed_unary(
                "sum",
                || KeyedSum {
                    sums: Default::default(),
                },
                Arc::new(|v: &i64| KeyedSum::key_of(*v)),
                instances,
                None,
                &src,
            );
            let (sink, collected) = CollectSink::new();
            g.add_sink("sink", sink, &out);
            g.run_to_completion(7);
            assert_eq!(
                *collected.lock(),
                expected,
                "keyed plan with {instances} instances diverged"
            );
        }
    }

    #[test]
    fn parallelize_mid_stream_preserves_output_and_moves_state() {
        let expected = single_plan_elements(300);
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(inputs(300)));
        let out = g.add_keyed_unary(
            "sum",
            || KeyedSum {
                sums: Default::default(),
            },
            Arc::new(|v: &i64| KeyedSum::key_of(*v)),
            2,
            None,
            &src,
        );
        let (sink, collected) = CollectSink::new();
        g.add_sink("sink", sink, &out);
        // Run part of the stream through the 2-instance generation…
        for _ in 0..10 {
            for id in g.node_ids() {
                g.step_node(id, 5);
            }
        }
        let before = g.shuffle_groups()[0].instance_ids.clone();
        assert_eq!(before.len(), 2);
        // …splice a 3-instance generation into the running graph…
        let new_ids = g.parallelize(out.node(), 3);
        assert_eq!(new_ids.len(), 3);
        let groups = g.shuffle_groups();
        assert_eq!(groups[0].instance_ids, new_ids);
        for old in &before {
            assert!(g.is_removed(*old), "old instance {old} must be retired");
        }
        // …and finish. Output must match the single-instance plan exactly,
        // which requires the per-key sums to have moved generations.
        g.run_to_completion(7);
        assert_eq!(*collected.lock(), expected);
    }

    #[test]
    fn parallelize_after_close_still_finishes() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(inputs(50)));
        let out = g.add_keyed_unary(
            "relay",
            || Relay,
            Arc::new(|v: &i64| *v as u64),
            2,
            None,
            &src,
        );
        let (sink, collected) = CollectSink::new();
        g.add_sink("sink", sink, &out);
        g.run_to_completion(16);
        assert_eq!(collected.lock().len(), 50);
        // The stream already ended; re-sizing must not wedge the graph.
        let new_ids = g.parallelize(out.node(), 4);
        assert_eq!(new_ids.len(), 4);
        g.run_to_completion(16);
        assert_eq!(collected.lock().len(), 50);
    }

    #[test]
    fn skewed_keys_route_to_one_instance() {
        let g = QueryGraph::new();
        let src = g.add_source("src", VecSource::new(inputs(64)));
        // Constant key: every element lands on instance 0.
        let out = g.add_keyed_unary("relay", || Relay, Arc::new(|_: &i64| 0u64), 3, None, &src);
        let (sink, collected) = CollectSink::new();
        g.add_sink("sink", sink, &out);
        g.run_to_completion(8);
        assert_eq!(collected.lock().len(), 64);
        let group = &g.shuffle_groups()[0];
        let hot = group.instance_ids[0];
        let cold = &group.instance_ids[1..];
        let hot_in = g.stats(hot).snapshot().in_count;
        for &c in cold {
            let cold_in = g.stats(c).snapshot().in_count;
            // Cold instances see only broadcast control traffic
            // (heartbeats + close), never elements.
            assert!(
                cold_in < hot_in && (cold_in as usize) < 64,
                "cold instance {c} consumed {cold_in} (hot {hot_in})"
            );
        }
    }
}
