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
//!   statistics and operator state. It processes its input in *chunks of
//!   consecutive arrival sequences* and stamps every output with the
//!   chunk's first sequence — exact, because a consecutive-sequence chunk
//!   by construction contains no message routed elsewhere, so the
//!   single-instance plan would have processed exactly this chunk at this
//!   point in arrival order.
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
//! graph: it freezes routing by parking the partitioner out of its cell,
//! drains and retires the old generation, moves the keyed state over (see
//! [`Rekey`]), and splices the new instances in through the hot-topology
//! path (topology-epoch bump, no stop/restart).

use crate::edge::Edge;
use crate::graph::{NodeCell, NodeKind, QueryGraph, StreamHandle};
use crate::node::{Runnable, StepReport};
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
/// edge. `parallelize` drains the retiring instances, exports their per-key
/// state, re-routes each entry by `hash % new_instance_count` and imports
/// it into the fresh instances — all while the partitioner is frozen, so
/// no element of a key is ever processed against moved-away state.
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
// Stamped output collection
// ---------------------------------------------------------------------------

/// A [`Collector`] that buffers `(stamp, message)` pairs, stamping every
/// emission with one fixed arrival sequence (the processed chunk's first
/// sequence). The instance pushes the buffer downstream with
/// [`Edge::push_stamped_batch`], preserving the stamps for the merge.
struct StampedCollector<'a, T> {
    buf: &'a mut Vec<(u64, Message<T>)>,
    stamp: u64,
}

impl<T> Collector<T> for StampedCollector<'_, T> {
    fn element(&mut self, e: Element<T>) {
        self.buf.push((self.stamp, Message::Element(e)));
    }
    fn heartbeat(&mut self, t: Timestamp) {
        self.buf.push((self.stamp, Message::Heartbeat(t)));
    }
    fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }
}

/// Splits a drained `(seq, message)` run into maximal chunks of
/// *consecutive* arrival sequences and dispatches each chunk with its first
/// sequence as the output stamp. Heartbeats are always their own chunk (so
/// flush output triggered by a broadcast carries exactly the broadcast's
/// stamp on every instance); `Close` ends the run and is returned to the
/// caller instead of being dispatched.
///
/// `on_chunk(chunk, stamp)` must process *and clear* the chunk.
fn dispatch_chunks<I>(
    drained: &mut Vec<(u64, Message<I>)>,
    chunk: &mut Vec<Message<I>>,
    mut on_chunk: impl FnMut(&mut Vec<Message<I>>, u64),
) -> Option<u64> {
    let mut close = None;
    let mut start = 0u64;
    let mut next = 0u64;
    for (seq, msg) in drained.drain(..) {
        match msg {
            Message::Element(_) => {
                if !chunk.is_empty() && seq != next {
                    on_chunk(chunk, start);
                }
                if chunk.is_empty() {
                    start = seq;
                }
                chunk.push(msg);
                next = seq + 1;
            }
            Message::Heartbeat(_) => {
                if !chunk.is_empty() {
                    on_chunk(chunk, start);
                }
                chunk.push(msg);
                on_chunk(chunk, seq);
            }
            Message::Close => {
                if !chunk.is_empty() {
                    on_chunk(chunk, start);
                }
                close = Some(seq);
            }
        }
    }
    if !chunk.is_empty() {
        on_chunk(chunk, start);
    }
    close
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
    /// `parallelize` relies on this to drain a frozen group exactly).
    buffers: Vec<Vec<(u64, Message<T>)>>,
    scratch: Vec<(u64, Message<T>)>,
    batch_limit: usize,
    closed: bool,
}

impl<T> PartitionNode<T> {
    fn new(input: Arc<Edge<T>>, key: KeyFn<T>, targets: Vec<Arc<Edge<T>>>) -> Self {
        let mut buffers = Vec::new();
        buffers.resize_with(targets.len(), Vec::new);
        PartitionNode {
            input,
            key,
            targets,
            buffers,
            scratch: Vec::new(),
            batch_limit: usize::MAX,
            closed: false,
        }
    }

    /// Whether this partitioner has routed `Close` (its upstream ended).
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Replaces the routing targets (the expansion path of
    /// [`QueryGraph::parallelize`]; callers hold this node's runnable lock,
    /// which freezes routing for the whole splice).
    pub(crate) fn retarget(&mut self, targets: Vec<Arc<Edge<T>>>) {
        self.targets = targets;
        self.buffers.clear();
        self.buffers.resize_with(self.targets.len(), Vec::new);
    }
}

impl<T: Send + Clone + 'static> Runnable for PartitionNode<T> {
    fn step(&mut self, budget: usize) -> StepReport {
        let max = budget.min(self.batch_limit);
        let n = self.input.pop_run(max, u64::MAX, &mut self.scratch);
        if n == 0 {
            return StepReport::default();
        }
        let k = self.targets.len();
        let mut routed = 0usize;
        for (seq, msg) in self.scratch.drain(..) {
            match msg {
                Message::Element(e) => {
                    let slot = ((self.key)(&e.payload) % k as u64) as usize;
                    self.buffers[slot].push((seq, Message::Element(e)));
                    routed += 1;
                }
                Message::Heartbeat(t) => {
                    // Broadcast at the original stamp: every instance sees
                    // the same temporal progress, and the merge re-unifies
                    // the copies into one tie group.
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
        pipes_trace::instant(
            pipes_trace::names::SHUFFLE,
            [n as u64, k as u64, routed as u64],
        );
        StepReport {
            consumed: n,
            // Counts every routed message (elements once, broadcasts per
            // instance): this is what drives downstream wake hooks.
            produced: routed,
            batches: 1,
            peak_run: n,
        }
    }

    fn queued(&self) -> usize {
        self.input.len()
    }

    fn oldest_pending_seq(&self) -> Option<u64> {
        self.input.head_seq()
    }

    fn is_finished(&self) -> bool {
        self.closed && self.input.is_empty()
    }

    fn memory(&self) -> usize {
        0
    }

    fn shed(&mut self, _target: usize) -> usize {
        0
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Keyed instance nodes
// ---------------------------------------------------------------------------

/// One keyed instance of a unary operator behind a shuffle edge.
pub(crate) struct KeyedInstance<O: Operator> {
    pub(crate) op: O,
    input: Arc<Edge<O::In>>,
    out: Arc<Edge<O::Out>>,
    drained: Vec<(u64, Message<O::In>)>,
    chunk: Vec<Message<O::In>>,
    out_buf: Vec<(u64, Message<O::Out>)>,
    batch_limit: usize,
    closed: bool,
}

impl<O: Operator> KeyedInstance<O> {
    fn new(op: O, input: Arc<Edge<O::In>>, out: Arc<Edge<O::Out>>) -> Self {
        KeyedInstance {
            op,
            input,
            out,
            drained: Vec::new(),
            chunk: Vec::new(),
            out_buf: Vec::new(),
            batch_limit: usize::MAX,
            closed: false,
        }
    }
}

impl<O: Operator> Runnable for KeyedInstance<O> {
    fn step(&mut self, budget: usize) -> StepReport {
        if self.closed {
            return StepReport::default();
        }
        let max = budget.min(self.batch_limit);
        let n = self.input.pop_run(max, u64::MAX, &mut self.drained);
        if n == 0 {
            return StepReport::default();
        }
        let op = &mut self.op;
        let out_buf = &mut self.out_buf;
        let close = dispatch_chunks(&mut self.drained, &mut self.chunk, |chunk, stamp| {
            let mut col = StampedCollector {
                buf: out_buf,
                stamp,
            };
            op.on_run(0, chunk, &mut col);
            chunk.clear();
        });
        if let Some(c) = close {
            let mut col = StampedCollector {
                buf: out_buf,
                stamp: c,
            };
            op.on_close(&mut col);
            out_buf.push((c, Message::Close));
            self.closed = true;
        }
        let pushed = self.out_buf.len();
        self.out.push_stamped_batch(&mut self.out_buf);
        StepReport {
            consumed: n,
            // Counts all messages handed to the merge (incl. forwarded
            // heartbeats), so wake hooks fire whenever the merge gained
            // anything to order.
            produced: pushed,
            batches: 1,
            peak_run: n,
        }
    }

    fn queued(&self) -> usize {
        self.input.len()
    }

    fn oldest_pending_seq(&self) -> Option<u64> {
        self.input.head_seq()
    }

    fn is_finished(&self) -> bool {
        self.closed
    }

    fn memory(&self) -> usize {
        self.op.memory()
    }

    fn state_bytes(&self) -> usize {
        self.op.state_bytes()
    }

    fn shed(&mut self, target: usize) -> usize {
        self.op.shed(target)
    }

    fn set_batch_limit(&mut self, limit: usize) {
        self.batch_limit = limit.max(1);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One keyed instance of a binary operator (both sides partitioned by the
/// join key) behind a pair of shuffle edges.
pub(crate) struct KeyedInstanceBin<B: BinaryOperator> {
    pub(crate) op: B,
    left: Arc<Edge<B::Left>>,
    right: Arc<Edge<B::Right>>,
    out: Arc<Edge<B::Out>>,
    l_drained: Vec<(u64, Message<B::Left>)>,
    l_chunk: Vec<Message<B::Left>>,
    r_drained: Vec<(u64, Message<B::Right>)>,
    r_chunk: Vec<Message<B::Right>>,
    out_buf: Vec<(u64, Message<B::Out>)>,
    left_close: Option<u64>,
    right_close: Option<u64>,
    batch_limit: usize,
    closed: bool,
}

impl<B: BinaryOperator> KeyedInstanceBin<B> {
    fn new(
        op: B,
        left: Arc<Edge<B::Left>>,
        right: Arc<Edge<B::Right>>,
        out: Arc<Edge<B::Out>>,
    ) -> Self {
        KeyedInstanceBin {
            op,
            left,
            right,
            out,
            l_drained: Vec::new(),
            l_chunk: Vec::new(),
            r_drained: Vec::new(),
            r_chunk: Vec::new(),
            out_buf: Vec::new(),
            left_close: None,
            right_close: None,
            batch_limit: usize::MAX,
            closed: false,
        }
    }
}

impl<B: BinaryOperator> Runnable for KeyedInstanceBin<B> {
    fn step(&mut self, budget: usize) -> StepReport {
        if self.closed {
            return StepReport::default();
        }
        let mut consumed = 0usize;
        let mut batches = 0usize;
        let mut peak = 0usize;
        while consumed < budget {
            // Smaller head first, ties to the left (same rule as the run
            // bounds below) — but unlike BinNode, an empty open port does
            // NOT license draining the other side: BinNode's ports are fed
            // at publish time, so everything still to come outranks what is
            // queued, while this instance's ports are fed by partitioners
            // that can lag behind the published stream. A smaller sequence
            // may still be in transit, so hold a strict frontier (same
            // discipline as the merge stage) until both ports have a head
            // or the silent side has delivered its Close.
            let l_closed = self.left_close.is_some();
            let r_closed = self.right_close.is_some();
            let ls = if l_closed { None } else { self.left.head_seq() };
            let rs = if r_closed {
                None
            } else {
                self.right.head_seq()
            };
            let take_left = match (ls, rs) {
                (Some(l), Some(r)) => l <= r,
                (Some(_), None) if r_closed => true,
                (None, Some(_)) if l_closed => false,
                _ => break,
            };
            let max = (budget - consumed).min(self.batch_limit);
            let op = &mut self.op;
            let out_buf = &mut self.out_buf;
            let n = if take_left {
                let bound = rs.unwrap_or(u64::MAX);
                let n = self.left.pop_run(max, bound, &mut self.l_drained);
                let close =
                    dispatch_chunks(&mut self.l_drained, &mut self.l_chunk, |chunk, stamp| {
                        op.on_run_left(
                            chunk,
                            &mut StampedCollector {
                                buf: out_buf,
                                stamp,
                            },
                        );
                        chunk.clear();
                    });
                if close.is_some() {
                    self.left_close = close;
                    self.left.open_gate();
                }
                n
            } else {
                let bound = ls.map_or(u64::MAX, |l| l.saturating_sub(1));
                let n = self.right.pop_run(max, bound, &mut self.r_drained);
                let close =
                    dispatch_chunks(&mut self.r_drained, &mut self.r_chunk, |chunk, stamp| {
                        op.on_run_right(
                            chunk,
                            &mut StampedCollector {
                                buf: out_buf,
                                stamp,
                            },
                        );
                        chunk.clear();
                    });
                if close.is_some() {
                    self.right_close = close;
                    self.right.open_gate();
                }
                n
            };
            if n == 0 {
                break;
            }
            consumed += n;
            peak = peak.max(n);
            batches += 1;
        }
        if let (Some(cl), Some(cr)) = (self.left_close, self.right_close) {
            // Both sides ended. The close stamp is the same on every
            // instance (closes are broadcast), so the merge unifies the
            // per-instance closes into one tie group.
            let c = cl.max(cr);
            self.op.on_close(&mut StampedCollector {
                buf: &mut self.out_buf,
                stamp: c,
            });
            self.out_buf.push((c, Message::Close));
            self.closed = true;
        }
        let pushed = self.out_buf.len();
        self.out.push_stamped_batch(&mut self.out_buf);
        StepReport {
            consumed,
            produced: pushed,
            batches,
            peak_run: peak,
        }
    }

    fn queued(&self) -> usize {
        // An empty open port blocks the strict frontier (see `step`):
        // reporting the other side's backlog would make seq-ordered
        // strategies spin on this instance while the node that feeds the
        // empty port starves.
        let l_blocked = self.left_close.is_none() && self.left.is_empty();
        let r_blocked = self.right_close.is_none() && self.right.is_empty();
        if l_blocked || r_blocked {
            return 0;
        }
        self.left.len() + self.right.len()
    }

    fn oldest_pending_seq(&self) -> Option<u64> {
        if self.queued() == 0 {
            return None;
        }
        match (self.left.head_seq(), self.right.head_seq()) {
            (Some(l), Some(r)) => Some(l.min(r)),
            (l, r) => l.or(r),
        }
    }

    fn is_finished(&self) -> bool {
        self.closed
    }

    fn memory(&self) -> usize {
        self.op.memory()
    }

    fn state_bytes(&self) -> usize {
        self.op.state_bytes()
    }

    fn shed(&mut self, target: usize) -> usize {
        self.op.shed(target)
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

struct MergePort<T> {
    edge: Arc<Edge<T>>,
    open: bool,
}

/// Restores global arrival order across the instance output edges and
/// republishes through a regular [`Outputs`] port.
pub(crate) struct MergeNode<T: Clone> {
    ports: Vec<MergePort<T>>,
    outputs: Arc<Outputs<T>>,
    tie: Option<MergeTie<T>>,
    scratch: Vec<(u64, Message<T>)>,
    elems: Vec<Element<T>>,
    out_scratch: Vec<Message<T>>,
    batch_limit: usize,
    closed_downstream: bool,
}

impl<T: Clone> MergeNode<T> {
    fn new(edges: Vec<Arc<Edge<T>>>, outputs: Arc<Outputs<T>>, tie: Option<MergeTie<T>>) -> Self {
        MergeNode {
            ports: edges
                .into_iter()
                .map(|edge| MergePort { edge, open: true })
                .collect(),
            outputs,
            tie,
            scratch: Vec::new(),
            elems: Vec::new(),
            out_scratch: Vec::new(),
            batch_limit: usize::MAX,
            closed_downstream: false,
        }
    }

    /// Attaches a new instance output port ([`QueryGraph::parallelize`]
    /// expansion; callers hold this node's runnable lock).
    pub(crate) fn add_port(&mut self, edge: Arc<Edge<T>>) {
        self.ports.push(MergePort { edge, open: true });
    }
}

impl<T: Clone + Send + 'static> Runnable for MergeNode<T> {
    fn step(&mut self, budget: usize) -> StepReport {
        if self.closed_downstream {
            return StepReport::default();
        }
        let outputs = Arc::clone(&self.outputs);
        let mut buf = std::mem::take(&mut self.out_scratch);
        let mut consumed = 0usize;
        let mut batches = 0usize;
        let mut peak = 0usize;
        let produced;
        {
            let mut col = PublishCollector::new(&outputs, &mut buf)
                .with_flush_cap(self.batch_limit.min(DEFAULT_FLUSH_CAP));
            // The budget may overrun by one tie group: a group must be
            // emitted atomically or a mid-group cut would interleave its
            // sorted flush output with the next stamp's.
            'quantum: while consumed < budget {
                let mut min: Option<u64> = None;
                for p in &self.ports {
                    if !p.open {
                        continue;
                    }
                    match p.edge.head_seq() {
                        // Strict rule: an open port without a head gates
                        // progress — its next delivery could still carry
                        // the smallest stamp. Liveness comes from
                        // broadcast heartbeats: every instance forwards
                        // them, so no open port stays empty while the
                        // stream advances.
                        None => break 'quantum,
                        Some(s) => {
                            if min.is_none_or(|m| s < m) {
                                min = Some(s);
                            }
                        }
                    }
                }
                let Some(min) = min else { break };
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut elems = std::mem::take(&mut self.elems);
                let mut hb: Option<Timestamp> = None;
                for p in self.ports.iter_mut() {
                    if !p.open {
                        continue;
                    }
                    // Per-port stamps are non-decreasing, so everything at
                    // stamp `min` is drained by one bounded run; ports
                    // whose head is newer contribute nothing.
                    let n = p.edge.pop_run(usize::MAX, min, &mut scratch);
                    if n == 0 {
                        continue;
                    }
                    consumed += n;
                    peak = peak.max(n);
                    batches += 1;
                    for (_, msg) in scratch.drain(..) {
                        match msg {
                            Message::Element(e) => elems.push(e),
                            Message::Heartbeat(t) => {
                                hb = Some(hb.map_or(t, |h| h.max(t)));
                            }
                            Message::Close => {
                                p.open = false;
                                p.edge.open_gate();
                            }
                        }
                    }
                }
                if let Some(tie) = &self.tie {
                    if elems.len() > 1 {
                        // Stable: per-port emission order breaks ties the
                        // comparator leaves open.
                        elems.sort_by(|a, b| tie(a, b));
                    }
                }
                for e in elems.drain(..) {
                    col.element(e);
                }
                if let Some(t) = hb {
                    col.heartbeat(t);
                }
                self.scratch = scratch;
                self.elems = elems;
            }
            produced = col.finish();
        }
        self.out_scratch = buf;
        if self.ports.iter().all(|p| !p.open) {
            self.outputs.publish_close();
            self.closed_downstream = true;
        }
        StepReport {
            consumed,
            produced,
            batches,
            peak_run: peak,
        }
    }

    /// Advertises runnable work only when the strict frontier can advance:
    /// with any open port empty a step consumes nothing, and the blocked
    /// head is the *globally oldest* queued seq — reporting it would make
    /// seq-ordered strategies (FIFO) spin on the merge for their whole
    /// idle valve instead of stepping the lagging instance that would
    /// unblock it.
    fn queued(&self) -> usize {
        let mut total = 0;
        for p in &self.ports {
            if !p.open {
                continue;
            }
            let len = p.edge.len();
            if len == 0 {
                return 0;
            }
            total += len;
        }
        total
    }

    fn oldest_pending_seq(&self) -> Option<u64> {
        if self.queued() == 0 {
            return None;
        }
        self.ports
            .iter()
            .filter(|p| p.open)
            .filter_map(|p| p.edge.head_seq())
            .min()
    }

    fn is_finished(&self) -> bool {
        self.closed_downstream
    }

    fn memory(&self) -> usize {
        0
    }

    fn shed(&mut self, _target: usize) -> usize {
        0
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

    /// Ids of every node that belongs to a shuffle group (partition,
    /// instance and merge nodes). Partition/instance nodes publish through
    /// raw stamped edges rather than an output port, so topology passes
    /// that reason about `subscriber_count` (dangling-producer collection)
    /// must treat them as internally consumed.
    pub(crate) fn member_ids(&self) -> Vec<NodeId> {
        let groups = self.groups.lock();
        let mut out = Vec::new();
        for g in groups.iter() {
            out.extend_from_slice(&g.partition_ids);
            out.extend_from_slice(&g.instance_ids);
            out.push(g.handle);
        }
        out
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

/// Placeholder parked in a partition cell while `parallelize` owns the
/// real partitioner (see [`take_runnable`]). It reports an idle,
/// unfinished node: workers that reach it during the splice window see no
/// work, and upstream messages queue on the shared input edge with their
/// original stamps until the partitioner is restored.
struct ParkedPartition;

impl Runnable for ParkedPartition {
    fn step(&mut self, _budget: usize) -> StepReport {
        StepReport::default()
    }
    fn queued(&self) -> usize {
        0
    }
    fn oldest_pending_seq(&self) -> Option<u64> {
        None
    }
    fn is_finished(&self) -> bool {
        false
    }
    fn memory(&self) -> usize {
        0
    }
    fn shed(&mut self, _target: usize) -> usize {
        0
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
    *cell.runnable.lock() = runnable;
    cell.ready.wake(cell.ready.set_parked(false));
}

/// Replays a retiring generation's unprocessed input backlog through the
/// new routing at its original stamps, returning whether a `Close` was
/// among it. Everything still inside the (parked) partitioner has a larger
/// sequence — it routes in arrival order — so the fresh edges stay
/// monotonic. Equal stamps in the backlog are broadcast copies of one
/// heartbeat/Close gathered from several instances; the caller dedups.
fn replay_backlog<T: Send + Clone + 'static>(
    backlog: Vec<(u64, Message<T>)>,
    key: &crate::shuffle::KeyFn<T>,
    edges: &[Arc<Edge<T>>],
) -> bool {
    let mut saw_close = false;
    for (s, msg) in backlog {
        match msg {
            Message::Element(e) => {
                let slot = ((key)(&e.payload) % edges.len() as u64) as usize;
                edges[slot].push(s, Message::Element(e));
            }
            Message::Heartbeat(t) => {
                for e in edges {
                    e.push(s, Message::Heartbeat(t));
                }
            }
            Message::Close => {
                saw_close = true;
                for e in edges {
                    e.push(s, Message::Close);
                }
            }
        }
    }
    saw_close
}

/// Snapshot of one keyed-parallel group (see
/// [`QueryGraph::shuffle_groups`]).
#[derive(Clone, Debug)]
pub struct ShuffleGroup {
    /// The name the group was registered under.
    pub name: String,
    /// The merge node's id — the handle accepted by
    /// [`QueryGraph::parallelize`] and the node id on the group's output
    /// [`StreamHandle`].
    pub handle: NodeId,
    /// The partition node ids (one for unary groups, two for binary).
    pub partition_ids: Vec<NodeId>,
    /// The current generation's instance node ids.
    pub instance_ids: Vec<NodeId>,
}

// ---------------------------------------------------------------------------
// Graph builders + live expansion
// ---------------------------------------------------------------------------

/// One live instance: its node id, input edge and output edge.
type UnaryInstance<O> = (
    NodeId,
    Arc<Edge<<O as Operator>::In>>,
    Arc<Edge<<O as Operator>::Out>>,
);

struct UnaryGroup<O: Operator> {
    instances: Vec<UnaryInstance<O>>,
    next_idx: usize,
}

struct BinaryGroup<B: BinaryOperator> {
    #[allow(clippy::type_complexity)]
    instances: Vec<(
        NodeId,
        Arc<Edge<B::Left>>,
        Arc<Edge<B::Right>>,
        Arc<Edge<B::Out>>,
    )>,
    next_idx: usize,
}

fn instance_cell(
    name: String,
    runnable: Box<dyn Runnable>,
    incoming: Vec<(NodeId, crate::edge::EdgeId)>,
    ready: Arc<ReadyCell>,
) -> NodeCell {
    NodeCell::new(&name, NodeKind::Operator, runnable, None, incoming, ready)
}

impl QueryGraph {
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
        assert!(instances >= 1, "keyed operator needs at least one instance");
        let factory = Arc::new(factory);
        let part_ready = self.new_ready_cell(NodeKind::Operator);
        let part_edge = self.new_edge::<O::In>(&part_ready, false);
        input.outputs.subscribe(Arc::clone(&part_edge));
        let inst_ready: Vec<_> = (0..instances)
            .map(|_| self.new_ready_cell(NodeKind::Operator))
            .collect();
        let in_edges: Vec<_> = inst_ready
            .iter()
            .map(|r| self.new_edge::<O::In>(r, false))
            .collect();
        // The merge holds a strict frontier: its ports are gated.
        let merge_ready = self.new_ready_cell(NodeKind::Operator);
        let out_edges: Vec<_> = (0..instances)
            .map(|_| self.new_edge::<O::Out>(&merge_ready, true))
            .collect();

        let part = PartitionNode::new(Arc::clone(&part_edge), Arc::clone(&key), in_edges.clone());
        let part_id = self.push_node(instance_cell(
            format!("{name}.part"),
            Box::new(part),
            vec![(input.node, part_edge.id())],
            part_ready,
        ));

        let mut inst_list = Vec::with_capacity(instances);
        let mut instance_ids = Vec::with_capacity(instances);
        for (i, ready) in inst_ready.into_iter().enumerate() {
            let inst = KeyedInstance::new(
                (factory)(),
                Arc::clone(&in_edges[i]),
                Arc::clone(&out_edges[i]),
            );
            let id = self.push_node(instance_cell(
                format!("{name}#{i}"),
                Box::new(inst),
                vec![(part_id, in_edges[i].id())],
                ready,
            ));
            inst_list.push((id, Arc::clone(&in_edges[i]), Arc::clone(&out_edges[i])));
            instance_ids.push(id);
        }

        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let merge = MergeNode::new(out_edges, Arc::clone(&outputs), tie);
        let merge_name = format!("{name}.merge");
        let merge_id = self.push_node(NodeCell::new(
            &merge_name,
            NodeKind::Operator,
            Box::new(merge),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            inst_list
                .iter()
                .map(|(id, _, out_e)| (*id, out_e.id()))
                .collect(),
            merge_ready,
        ));
        self.refresh_subscriber_counts([input.node]);

        let state = Arc::new(Mutex::new(UnaryGroup::<O> {
            instances: inst_list,
            next_idx: instances,
        }));
        let gname = name.to_string();
        let expand: Arc<ExpandFn> = Arc::new(move |g: &QueryGraph, n_new: usize| {
            assert!(n_new >= 1, "parallelize needs at least one instance");
            let mut st = state.lock();
            // Freeze routing for the whole splice: take the partitioner
            // out of its cell and park a placeholder there. Owning the box
            // stops all routing while state is in transit — workers step
            // the placeholder, a no-op — without holding its runnable lock
            // across the instance and merge locks below, so no two
            // runnable locks are ever held at once.
            let mut part_box = take_runnable(g, part_id);
            let part = part_box
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<PartitionNode<O::In>>())
                .expect("shuffle partition node changed type");
            // Drain the retiring generation: with routing frozen and the
            // partition buffers empty between steps, the instance queues
            // hold every routed-but-unprocessed message.
            for (id, _, _) in &st.instances {
                while g.queued(*id) > 0 {
                    g.step_node(*id, usize::MAX);
                }
            }
            let was_closed = part.is_closed();
            // Move the keyed state out of the old instances…
            let mut exported: KeyedState = Vec::new();
            for (id, _, _) in &st.instances {
                let cell = g.cell(*id);
                let mut guard = cell.runnable.lock();
                let inst = guard
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<KeyedInstance<O>>())
                    .expect("shuffle instance node changed type");
                exported.append(&mut inst.op.export_keyed());
            }
            // …and re-route it across the new instance count.
            let mut split: Vec<KeyedState> = (0..n_new).map(|_| Vec::new()).collect();
            for entry in exported {
                let slot = (entry.0 % n_new as u64) as usize;
                split[slot].push(entry);
            }
            let mut new_ids = Vec::with_capacity(n_new);
            let mut new_in = Vec::with_capacity(n_new);
            let mut new_list = Vec::with_capacity(n_new);
            for part_state in split {
                let mut op = (factory)();
                op.import_keyed(part_state);
                let ready = g.new_ready_cell(NodeKind::Operator);
                let in_e = g.new_edge::<O::In>(&ready, false);
                let out_e = g.new_edge::<O::Out>(&g.cell(merge_id).ready, true);
                let idx = st.next_idx;
                st.next_idx += 1;
                let inst = KeyedInstance::new(op, Arc::clone(&in_e), Arc::clone(&out_e));
                let id = g.push_node(instance_cell(
                    format!("{gname}#{idx}"),
                    Box::new(inst),
                    vec![(part_id, in_e.id())],
                    ready,
                ));
                new_ids.push(id);
                new_in.push(Arc::clone(&in_e));
                new_list.push((id, in_e, out_e));
            }
            {
                let merge_cell = g.cell(merge_id);
                let mut mg = merge_cell.runnable.lock();
                let merge = mg
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<MergeNode<O::Out>>())
                    .expect("shuffle merge node changed type");
                for (_, _, out_e) in &new_list {
                    merge.add_port(Arc::clone(out_e));
                }
                let old_ids: std::collections::HashSet<NodeId> =
                    st.instances.iter().map(|(id, _, _)| *id).collect();
                let mut inc = merge_cell.incoming.lock();
                inc.retain(|(up, _)| !old_ids.contains(up));
                inc.extend(new_list.iter().map(|(id, _, out_e)| (*id, out_e.id())));
            }
            // Retire the old generation at one fresh stamp: greater than
            // every stamp the old instances emitted, not greater than any
            // stamp the upstream will allocate from here on.
            // ordering: Relaxed — unique-stamp allocation only; per-edge
            // queue locks establish delivery order (see Outputs).
            let s = g.seq.fetch_add(1, Ordering::Relaxed);
            if was_closed {
                // The stream already ended: old instances closed themselves
                // when the broadcast Close reached them; the new instances
                // will never hear from the partitioner, so close their
                // inputs here or the group would never finish.
                for in_e in &new_in {
                    in_e.push(s, Message::Close);
                }
            } else {
                for (_, _, out_e) in &st.instances {
                    out_e.push(s, Message::Close);
                }
            }
            part.retarget(new_in);
            restore_runnable(g, part_id, part_box);
            let old: Vec<NodeId> = st.instances.iter().map(|(id, _, _)| *id).collect();
            for id in old {
                g.remove_node(id);
            }
            st.instances = new_list;
            new_ids
        });
        self.shuffle.register(GroupEntry {
            name: name.to_string(),
            handle: merge_id,
            partition_ids: vec![part_id],
            instance_ids,
            expand,
        });
        StreamHandle {
            node: merge_id,
            outputs,
        }
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
        assert!(instances >= 1, "keyed operator needs at least one instance");
        let factory = Arc::new(factory);
        let lpart_ready = self.new_ready_cell(NodeKind::Operator);
        let rpart_ready = self.new_ready_cell(NodeKind::Operator);
        let l_edge = self.new_edge::<B::Left>(&lpart_ready, false);
        let r_edge = self.new_edge::<B::Right>(&rpart_ready, false);
        left.outputs.subscribe(Arc::clone(&l_edge));
        right.outputs.subscribe(Arc::clone(&r_edge));
        // Instances and the merge hold strict frontiers: gated ports.
        let inst_ready: Vec<_> = (0..instances)
            .map(|_| self.new_ready_cell(NodeKind::Operator))
            .collect();
        let l_in: Vec<_> = inst_ready
            .iter()
            .map(|r| self.new_edge::<B::Left>(r, true))
            .collect();
        let r_in: Vec<_> = inst_ready
            .iter()
            .map(|r| self.new_edge::<B::Right>(r, true))
            .collect();
        let merge_ready = self.new_ready_cell(NodeKind::Operator);
        let out_edges: Vec<_> = (0..instances)
            .map(|_| self.new_edge::<B::Out>(&merge_ready, true))
            .collect();

        let lpart = PartitionNode::new(Arc::clone(&l_edge), Arc::clone(&key_left), l_in.clone());
        let lpart_id = self.push_node(instance_cell(
            format!("{name}.lpart"),
            Box::new(lpart),
            vec![(left.node, l_edge.id())],
            lpart_ready,
        ));
        let rpart = PartitionNode::new(Arc::clone(&r_edge), Arc::clone(&key_right), r_in.clone());
        let rpart_id = self.push_node(instance_cell(
            format!("{name}.rpart"),
            Box::new(rpart),
            vec![(right.node, r_edge.id())],
            rpart_ready,
        ));

        let mut inst_list = Vec::with_capacity(instances);
        let mut instance_ids = Vec::with_capacity(instances);
        for (i, ready) in inst_ready.into_iter().enumerate() {
            let inst = KeyedInstanceBin::new(
                (factory)(),
                Arc::clone(&l_in[i]),
                Arc::clone(&r_in[i]),
                Arc::clone(&out_edges[i]),
            );
            let id = self.push_node(instance_cell(
                format!("{name}#{i}"),
                Box::new(inst),
                vec![(lpart_id, l_in[i].id()), (rpart_id, r_in[i].id())],
                ready,
            ));
            inst_list.push((
                id,
                Arc::clone(&l_in[i]),
                Arc::clone(&r_in[i]),
                Arc::clone(&out_edges[i]),
            ));
            instance_ids.push(id);
        }

        let outputs = Arc::new(Outputs::new(Arc::clone(&self.seq)));
        let merge = MergeNode::new(out_edges, Arc::clone(&outputs), tie);
        let merge_name = format!("{name}.merge");
        let merge_id = self.push_node(NodeCell::new(
            &merge_name,
            NodeKind::Operator,
            Box::new(merge),
            Some(Arc::clone(&outputs) as Arc<dyn OutputPort>),
            inst_list
                .iter()
                .map(|(id, _, _, out_e)| (*id, out_e.id()))
                .collect(),
            merge_ready,
        ));
        self.refresh_subscriber_counts([left.node, right.node]);

        let state = Arc::new(Mutex::new(BinaryGroup::<B> {
            instances: inst_list,
            next_idx: instances,
        }));
        let gname = name.to_string();
        let route_l = Arc::clone(&key_left);
        let route_r = Arc::clone(&key_right);
        let expand: Arc<ExpandFn> = Arc::new(move |g: &QueryGraph, n_new: usize| {
            assert!(n_new >= 1, "parallelize needs at least one instance");
            let mut st = state.lock();
            // Freeze both routing tables by taking the partitioners out of
            // their cells (see the unary expander): owning the boxes stops
            // all routing without ever holding two runnable locks at once.
            let mut lpart_box = take_runnable(g, lpart_id);
            let mut rpart_box = take_runnable(g, rpart_id);
            let lpart = lpart_box
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<PartitionNode<B::Left>>())
                .expect("shuffle partition node changed type");
            let rpart = rpart_box
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<PartitionNode<B::Right>>())
                .expect("shuffle partition node changed type");
            // Pop the unprocessed backlog raw off the instance ports; it is
            // replayed through the new routing below. Forcing the old
            // operators to process it instead would break arrival order: a
            // port blocked by the strict frontier (see
            // `KeyedInstanceBin::step`) can still owe a smaller-sequence
            // message sitting in the lagging other-side partitioner, and
            // that message must probe the keyed state first.
            let mut l_backlog: Vec<(u64, Message<B::Left>)> = Vec::new();
            let mut r_backlog: Vec<(u64, Message<B::Right>)> = Vec::new();
            for (_, l_e, r_e, _) in &st.instances {
                while l_e.pop_run(usize::MAX, u64::MAX, &mut l_backlog) > 0 {}
                while r_e.pop_run(usize::MAX, u64::MAX, &mut r_backlog) > 0 {}
            }
            l_backlog.sort_by_key(|p| p.0);
            l_backlog.dedup_by_key(|p| p.0);
            r_backlog.sort_by_key(|p| p.0);
            r_backlog.dedup_by_key(|p| p.0);
            let l_closed = lpart.is_closed();
            let r_closed = rpart.is_closed();
            let mut exported: KeyedState = Vec::new();
            for (id, _, _, _) in &st.instances {
                let cell = g.cell(*id);
                let mut guard = cell.runnable.lock();
                let inst = guard
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<KeyedInstanceBin<B>>())
                    .expect("shuffle instance node changed type");
                exported.append(&mut inst.op.export_keyed());
            }
            let mut split: Vec<KeyedState> = (0..n_new).map(|_| Vec::new()).collect();
            for entry in exported {
                let slot = (entry.0 % n_new as u64) as usize;
                split[slot].push(entry);
            }
            let mut new_ids = Vec::with_capacity(n_new);
            let mut new_l = Vec::with_capacity(n_new);
            let mut new_r = Vec::with_capacity(n_new);
            let mut new_list = Vec::with_capacity(n_new);
            for part_state in split {
                let mut op = (factory)();
                op.import_keyed(part_state);
                let ready = g.new_ready_cell(NodeKind::Operator);
                let l_e = g.new_edge::<B::Left>(&ready, true);
                let r_e = g.new_edge::<B::Right>(&ready, true);
                let out_e = g.new_edge::<B::Out>(&g.cell(merge_id).ready, true);
                let idx = st.next_idx;
                st.next_idx += 1;
                let inst = KeyedInstanceBin::new(
                    op,
                    Arc::clone(&l_e),
                    Arc::clone(&r_e),
                    Arc::clone(&out_e),
                );
                let id = g.push_node(instance_cell(
                    format!("{gname}#{idx}"),
                    Box::new(inst),
                    vec![(lpart_id, l_e.id()), (rpart_id, r_e.id())],
                    ready,
                ));
                new_ids.push(id);
                new_l.push(Arc::clone(&l_e));
                new_r.push(Arc::clone(&r_e));
                new_list.push((id, l_e, r_e, out_e));
            }
            {
                let merge_cell = g.cell(merge_id);
                let mut mg = merge_cell.runnable.lock();
                let merge = mg
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<MergeNode<B::Out>>())
                    .expect("shuffle merge node changed type");
                for (_, _, _, out_e) in &new_list {
                    merge.add_port(Arc::clone(out_e));
                }
                let old_ids: std::collections::HashSet<NodeId> =
                    st.instances.iter().map(|(id, _, _, _)| *id).collect();
                let mut inc = merge_cell.incoming.lock();
                inc.retain(|(up, _)| !old_ids.contains(up));
                inc.extend(new_list.iter().map(|(id, _, _, out_e)| (*id, out_e.id())));
            }
            let l_backlog_closed = replay_backlog(l_backlog, &route_l, &new_l);
            let r_backlog_closed = replay_backlog(r_backlog, &route_r, &new_r);
            // ordering: Relaxed — unique-stamp allocation only; see the
            // unary expander.
            let s = g.seq.fetch_add(1, Ordering::Relaxed);
            // A side whose broadcast Close was already consumed by the old
            // instances needs a fresh one on the new edges; a Close still
            // in the backlog was just replayed at its original stamp.
            if l_closed && !l_backlog_closed {
                for in_e in &new_l {
                    in_e.push(s, Message::Close);
                }
            }
            if r_closed && !r_backlog_closed {
                for in_e in &new_r {
                    in_e.push(s, Message::Close);
                }
            }
            // Old instances that never processed their Close (it may have
            // been popped into the backlog above) end their output ports
            // here so the merge can retire them.
            for (id, _, _, out_e) in &st.instances {
                if !g.is_finished(*id) {
                    out_e.push(s, Message::Close);
                }
            }
            lpart.retarget(new_l);
            rpart.retarget(new_r);
            restore_runnable(g, lpart_id, lpart_box);
            restore_runnable(g, rpart_id, rpart_box);
            let old: Vec<NodeId> = st.instances.iter().map(|(id, _, _, _)| *id).collect();
            for id in old {
                g.remove_node(id);
            }
            st.instances = new_list;
            new_ids
        });
        self.shuffle.register(GroupEntry {
            name: name.to_string(),
            handle: merge_id,
            partition_ids: vec![lpart_id, rpart_id],
            instance_ids,
            expand,
        });
        StreamHandle {
            node: merge_id,
            outputs,
        }
    }

    /// Re-sizes the keyed-parallel group whose output node is `handle` to
    /// `instances` instances, **against the running graph**: routing is
    /// frozen, the retiring generation is drained and its keyed state moved
    /// ([`Rekey`]), the new instances are spliced in through the
    /// hot-topology path (topology-epoch bumps let executors re-plan) and
    /// the old ones retired. Returns the new instance node ids.
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

    /// Snapshots the registered keyed-parallel groups (for introspection
    /// surfaces: the Prometheus `pipes_node_instances` gauge and
    /// `pipes_top`).
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
