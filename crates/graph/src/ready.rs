//! Node readiness, written where it changes and read without a lock.
//!
//! Every input edge mirrors its queue into a [`Port`] (length, head
//! sequence) under the queue lock it already holds for the push or pop, and
//! every node owns one [`ReadyCell`] that lists its ports. From those
//! mirrors the cell derives the node's *demand*, its `queued` /
//! `oldest_pending_seq` pair: `ReadyCell::demand` is the lock-free mirror
//! of the frontier rule the node steps by (`node::frontier`), strict
//! frontier included (an empty open *gated* port hides the other ports'
//! backlog). It publishes the demand at the two kinds of site where it
//! changes: after a push into one of the node's edges, and at the end of
//! [`crate::QueryGraph::step_node`].
//!
//! What is published lives in the graph-wide [`ReadySet`]: per node id one
//! summary (queued count, head sequence, finished flag, state size) in
//! contiguous arrays, plus one ready bit per node in a bitmap. It is the
//! one readiness authority: schedulers scan the bitmap and read the
//! summaries of the set bits, and the graph's own probes
//! ([`crate::QueryGraph::queued`], `is_finished`, `all_finished`, `memory`,
//! …) read the same summaries — no node lock, no pointer into the node.
//! The not-ready → ready transition of a bit is the one place the wake hook
//! fires. [`crate::QueryGraph::locked_probes`] recomputes the same facts
//! under the node's lock, as the reference the tests hold the summaries to.
//!
//! See DESIGN.md § 6a for the ordering argument and the two model-checked
//! races (push vs end-of-step, push vs park).

use crate::operator::NodeId;
use pipes_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use pipes_sync::{Arc, OnceLock, RwLock};

/// Callback invoked with a node's id when it turns from not-ready to ready
/// (see [`crate::QueryGraph::set_wake_hook`]).
pub type WakeHook = dyn Fn(NodeId) + Send + Sync;

/// `head` of an empty queue, and of a node with nothing it can take.
const NO_HEAD: u64 = u64::MAX;

/// Node ids covered by one bitmap word.
const WORD: usize = u64::BITS as usize;

/// Segment `0` covers ids `0..64`, segment `s >= 1` the ids
/// `64·2^(s-1) .. 64·2^s`: doubling segments reach every `usize` id without
/// ever moving a published word or summary.
const SEGMENTS: usize = (usize::BITS - u64::BITS.trailing_zeros()) as usize + 1;

/// `(segment, offset within it)` of an index, for segments of
/// `first_segment_len`, `first_segment_len`, `2·first_segment_len`, … entries
/// (node ids with 64, bitmap words with 1).
#[inline]
fn locate(index: usize, first_segment_len: usize) -> (usize, usize) {
    let chunk = index / first_segment_len;
    if chunk == 0 {
        (0, index)
    } else {
        let s = chunk.ilog2() as usize + 1;
        (s, index - (first_segment_len << (s - 1)))
    }
}

/// Lock-free mirror of one input queue, written under that queue's lock.
pub(crate) struct Port {
    len: AtomicUsize,
    head: AtomicU64,
    /// While set, an empty queue here blocks the consumer: the strict
    /// frontier of a gated edge. Cleared by the consumer when it has taken
    /// the port's `Close`.
    strict: AtomicBool,
}

impl Port {
    pub(crate) fn new(gate: bool) -> Self {
        Port {
            len: AtomicUsize::new(0),
            head: AtomicU64::new(NO_HEAD),
            strict: AtomicBool::new(gate),
        }
    }

    /// Mirrors the queue's new length and head; the caller holds the queue
    /// lock, which makes it the only writer.
    pub(crate) fn mirror(&self, len: usize, head: Option<u64>) {
        // ordering: Relaxed — the mirror is read by `ReadyCell::publish`,
        // which every writer runs next: the publisher either is this thread
        // or acquires this thread's `pending` bump, sequenced after these
        // stores.
        self.head.store(head.unwrap_or(NO_HEAD), Ordering::Relaxed);
        self.len.store(len, Ordering::Relaxed);
    }

    pub(crate) fn len(&self) -> usize {
        // ordering: Relaxed — advisory read (`Edge::len`).
        self.len.load(Ordering::Relaxed)
    }

    /// Whether an empty queue here blocks the consumer.
    pub(crate) fn gated(&self) -> bool {
        // ordering: Relaxed — written at construction and by the consumer's
        // own step (`open_gate`), read by that consumer under its runnable
        // lock.
        self.strict.load(Ordering::Relaxed)
    }

    /// The consumer took this port's `Close` (inside its own step, whose
    /// end-of-step publication follows on the same thread).
    pub(crate) fn open_gate(&self) {
        // ordering: Relaxed — see `mirror`.
        self.strict.store(false, Ordering::Relaxed);
    }
}

struct PortLink {
    port: Arc<Port>,
    next: OnceLock<Box<PortLink>>,
}

/// What is published about one node.
struct Summary {
    queued: AtomicUsize,
    head: AtomicU64,
    finished: AtomicBool,
    memory: AtomicUsize,
}

impl Summary {
    fn new() -> Self {
        Summary {
            queued: AtomicUsize::new(0),
            head: AtomicU64::new(NO_HEAD),
            finished: AtomicBool::new(false),
            memory: AtomicUsize::new(0),
        }
    }

    /// The published demand: messages queued at the node's inputs, and the
    /// arrival sequence of the oldest one it can take.
    #[inline]
    fn demand(&self) -> (usize, Option<u64>) {
        // ordering: Relaxed — scheduling hints, published by the ready bit
        // (see `ReadyCell::publish`); exact once the queues are quiescent.
        let queued = self.queued.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        (queued, (head != NO_HEAD).then_some(head))
    }
}

struct Segment {
    words: Box<[AtomicU64]>,
    nodes: Box<[Summary]>,
}

/// Where a registered node's summary and ready bit live.
struct Slot {
    node: NodeId,
    segment: Arc<Segment>,
    offset: usize,
}

impl Slot {
    fn summary(&self) -> &Summary {
        &self.segment.nodes[self.offset]
    }

    fn word(&self) -> (&AtomicU64, u64) {
        (
            &self.segment.words[self.offset / WORD],
            1 << (self.offset % WORD),
        )
    }
}

/// What every cell of one graph shares: the wake hook and the count of
/// unfinished nodes.
#[derive(Default)]
struct Hub {
    hook: RwLock<Option<Arc<WakeHook>>>,
    has_hook: AtomicBool,
    unfinished: AtomicUsize,
}

/// The writer's side of one node's readiness: its input ports, the flags
/// that gate its demand, and the publication into the [`ReadySet`].
pub(crate) struct ReadyCell {
    hub: Arc<Hub>,
    source: bool,
    /// Append-only: a merge gains ports when its group is re-sized.
    ports: OnceLock<Box<PortLink>>,
    slot: OnceLock<Slot>,
    /// The node's runnable is out of its cell (`shuffle::take_runnable`):
    /// no demand until it is put back.
    parked: AtomicBool,
    /// Publications requested and not yet covered by a finished one; the
    /// thread that raises it from zero publishes for everybody. Starts at
    /// one, held by the registration to come: pushes that reach an edge
    /// before its consumer has an id leave their request here, and
    /// `ReadySet::register` publishes for them.
    pending: AtomicU32,
}

impl ReadyCell {
    /// Registers one more input port. `gate` marks a strict-frontier port,
    /// which — open and empty — blocks the node from here on: like every
    /// input change, the new port is published.
    pub(crate) fn add_port(&self, gate: bool) -> Arc<Port> {
        let port = Arc::new(Port::new(gate));
        let mut link = Box::new(PortLink {
            port: Arc::clone(&port),
            next: OnceLock::new(),
        });
        let mut tail = &self.ports;
        while let Err(back) = tail.set(link) {
            link = back;
            tail = &tail.get().expect("a failed set found a link").next;
        }
        self.publish();
        port
    }

    /// The node-defined `(queued, oldest pending seq)` pair, from the ports.
    fn demand(&self) -> (usize, u64) {
        // ordering: Relaxed — like the port mirrors, the flag is written
        // right before a `publish` and read inside one.
        if self.parked.load(Ordering::Relaxed) {
            return (0, NO_HEAD);
        }
        let mut queued = 0;
        let mut head = NO_HEAD;
        let mut link = self.ports.get();
        while let Some(l) = link {
            // ordering: Relaxed — see `Port::mirror`.
            let len = l.port.len.load(Ordering::Relaxed);
            let port_head = l.port.head.load(Ordering::Relaxed);
            let strict = l.port.strict.load(Ordering::Relaxed);
            if len > 0 {
                queued += len;
                head = head.min(port_head);
            } else if strict {
                return (0, NO_HEAD);
            }
            link = l.next.get();
        }
        (queued, head)
    }

    /// Publishes the node's readiness after one of its inputs changed: a
    /// push mirrored into a port, the node's own step, a gate, the parked
    /// or finished flag. Safe from any thread at any time: publications of
    /// one cell are serialized through `pending` — whoever raises it from
    /// zero derives and stores until no request came in during its last
    /// derivation, so what is published last always covers the last change.
    /// Returns the node's id if its ready bit went from clear to set.
    pub(crate) fn publish(&self) -> Option<NodeId> {
        // AcqRel on every `pending` operation: a requester's input change is
        // released by its bump and acquired by the publisher's next load or
        // failed exchange, which precedes the derivation that must see it.
        if self.pending.fetch_add(1, Ordering::AcqRel) != 0 {
            return None;
        }
        self.publish_pending()
    }

    /// The publisher's loop; the caller holds `pending` above zero.
    fn publish_pending(&self) -> Option<NodeId> {
        let slot = self
            .slot
            .get()
            .expect("pending only drops to zero once the node is registered");
        let summary = slot.summary();
        let (word, mask) = slot.word();
        let mut woke = None;
        loop {
            let covered = self.pending.load(Ordering::Acquire);
            let (queued, head) = self.demand();
            // ordering: Relaxed — the summary is published by the ready
            // bit's Release below; a reader that follows a set bit sees at
            // least this summary.
            summary.queued.store(queued, Ordering::Relaxed);
            summary.head.store(head, Ordering::Relaxed);
            let runnable = !summary.finished.load(Ordering::Acquire) && (queued > 0 || self.source);
            let marked = word.load(Ordering::Acquire) & mask != 0;
            if runnable && !marked {
                word.fetch_or(mask, Ordering::AcqRel);
                woke = Some(slot.node);
            } else if !runnable && marked {
                word.fetch_and(!mask, Ordering::AcqRel);
            }
            if self
                .pending
                .compare_exchange(covered, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return woke;
            }
        }
    }

    /// The node will never run again (closed or removed).
    pub(crate) fn finish(&self) {
        if let Some(slot) = self.slot.get() {
            if !slot.summary().finished.swap(true, Ordering::AcqRel) {
                self.hub.unfinished.fetch_sub(1, Ordering::AcqRel);
            }
        }
        self.publish();
    }

    /// Whether the node's runnable is out of its cell; exact under its
    /// runnable lock, which every writer of the flag holds once the node is
    /// registered.
    pub(crate) fn parked(&self) -> bool {
        // ordering: Relaxed — see `demand`.
        self.parked.load(Ordering::Relaxed)
    }

    pub(crate) fn set_parked(&self, parked: bool) -> Option<NodeId> {
        // ordering: Relaxed — see `demand`.
        self.parked.store(parked, Ordering::Relaxed);
        self.publish()
    }

    pub(crate) fn set_memory(&self, elems: usize) {
        if let Some(slot) = self.slot.get() {
            // ordering: Relaxed — a statistic.
            slot.summary().memory.store(elems, Ordering::Relaxed);
        }
    }

    /// Runs the wake hook for a transition [`ReadyCell::publish`] reported.
    /// Call with no queue or node lock held: the hook takes locks of its
    /// own.
    pub(crate) fn wake(&self, woke: Option<NodeId>) {
        let Some(node) = woke else { return };
        if self.hub.has_hook.load(Ordering::Acquire) {
            let hook = self.hub.hook.read().clone();
            if let Some(hook) = hook {
                hook(node);
            }
        }
    }
}

/// The published readiness of every node of one graph, readable without a
/// lock (see [`crate::QueryGraph::ready`]): per-node summaries and a bitmap
/// of the ready nodes — the unfinished nodes that hold input they can take,
/// and the unfinished sources.
pub struct ReadySet {
    hub: Arc<Hub>,
    segments: [OnceLock<Arc<Segment>>; SEGMENTS],
}

/// One ready node, as [`ReadySet::marked`] finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Marked {
    /// The node.
    pub id: NodeId,
    /// Messages queued at its inputs; 0 for a source, which is ready
    /// without input.
    pub queued: usize,
    /// Arrival sequence of the oldest message it can take.
    pub oldest_seq: Option<u64>,
}

/// Iterator over the ready nodes of an id range (see [`ReadySet::marked`]).
pub struct MarkedIter<'a> {
    set: &'a ReadySet,
    lo: NodeId,
    hi: NodeId,
    /// The segment being walked (`None` past the last allocated one), its
    /// index, and the index of its first bitmap word.
    segment: Option<&'a Segment>,
    s: usize,
    base: usize,
    /// The bitmap word being walked, and its bits not yet yielded.
    word: usize,
    bits: u64,
}

impl MarkedIter<'_> {
    /// Moves on to the first non-empty bitmap word at or after `word` (which
    /// is at or after the current segment's first) and loads its bits; past
    /// the allocated segments, or past the range, the walk is over.
    #[inline]
    fn enter(&mut self, mut word: usize) {
        let last = self.hi / WORD;
        while let Some(segment) = self.segment.filter(|_| word <= last) {
            let end = (self.base + segment.words.len()).min(last + 1);
            for (at, bits) in (word..end).zip(&segment.words[word - self.base..]) {
                // Acquire: pairs with the Release of the publisher's bit
                // operations; the summary stored before a set bit is
                // visible.
                let bits = bits.load(Ordering::Acquire);
                if bits != 0 {
                    (self.word, self.bits) = (at, bits);
                    return;
                }
            }
            word = end;
            self.base += segment.words.len();
            self.s += 1;
            self.segment = self.set.segment(self.s);
        }
        self.segment = None;
    }
}

impl Iterator for MarkedIter<'_> {
    type Item = Marked;

    #[inline]
    fn next(&mut self) -> Option<Marked> {
        loop {
            if self.bits == 0 {
                self.enter(self.word + 1);
            }
            let segment = self.segment?;
            let id = self.word * WORD + self.bits.trailing_zeros() as usize;
            self.bits &= self.bits - 1;
            if id > self.hi {
                self.segment = None;
            } else if id >= self.lo {
                let (queued, oldest_seq) = segment.nodes[id - self.base * WORD].demand();
                return Some(Marked {
                    id,
                    queued,
                    oldest_seq,
                });
            }
        }
    }
}

impl ReadySet {
    pub(crate) fn new() -> Self {
        ReadySet {
            hub: Arc::new(Hub::default()),
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// A cell for a node about to be registered; its input edges are
    /// created — and may already be pushed into — before it is.
    pub(crate) fn new_cell(&self, source: bool) -> Arc<ReadyCell> {
        Arc::new(ReadyCell {
            hub: Arc::clone(&self.hub),
            source,
            ports: OnceLock::new(),
            slot: OnceLock::new(),
            parked: AtomicBool::new(false),
            pending: AtomicU32::new(1),
        })
    }

    /// Registers `cell` as node `id` and publishes its readiness for the
    /// first time, covering whatever was pushed into its edges while it had
    /// no id yet. Called once per node, under the graph's `nodes` write
    /// lock (ids are handed out there).
    pub(crate) fn register(&self, id: NodeId, cell: &ReadyCell) -> Option<NodeId> {
        let (s, offset) = locate(id, WORD);
        let segment = self.segments[s].get_or_init(|| {
            let slots = if s == 0 { WORD } else { WORD << (s - 1) };
            Arc::new(Segment {
                words: (0..slots / WORD).map(|_| AtomicU64::new(0)).collect(),
                nodes: (0..slots).map(|_| Summary::new()).collect(),
            })
        });
        let slot = Slot {
            node: id,
            segment: Arc::clone(segment),
            offset,
        };
        assert!(
            cell.slot.set(slot).is_ok(),
            "readiness cell registered twice"
        );
        self.hub.unfinished.fetch_add(1, Ordering::AcqRel);
        cell.publish_pending()
    }

    #[inline]
    fn summary(&self, id: NodeId) -> Option<&Summary> {
        let (s, offset) = locate(id, WORD);
        Some(&self.segment(s)?.nodes[offset])
    }

    /// Messages queued at `id`'s inputs (node-defined: 0 while a
    /// strict-frontier node is blocked on an empty open port).
    #[inline]
    pub fn queued(&self, id: NodeId) -> usize {
        self.summary(id).map_or(0, |s| s.demand().0)
    }

    /// Arrival sequence of the oldest message `id` can take.
    #[inline]
    pub fn oldest_seq(&self, id: NodeId) -> Option<u64> {
        self.summary(id).and_then(|s| s.demand().1)
    }

    /// Whether `id` has finished (closed or removed). An id the graph never
    /// handed out reads as finished.
    #[inline]
    pub fn is_finished(&self, id: NodeId) -> bool {
        self.summary(id)
            .is_none_or(|s| s.finished.load(Ordering::Acquire))
    }

    /// Whether `id` can make progress: its ready bit.
    #[inline]
    pub fn is_ready(&self, id: NodeId) -> bool {
        self.marked(id, id).next().is_some()
    }

    /// Operator state of `id` in retained elements, as of its last step.
    #[inline]
    pub fn memory(&self, id: NodeId) -> usize {
        let Some(summary) = self.summary(id) else {
            return 0;
        };
        // ordering: Relaxed — a statistic.
        summary.memory.load(Ordering::Relaxed)
    }

    /// Whether every node has finished (removed nodes count as finished).
    #[inline]
    pub fn all_finished(&self) -> bool {
        self.hub.unfinished.load(Ordering::Acquire) == 0
    }

    /// The ready nodes with ids in `lo..=hi`, ascending, with their
    /// summaries. Under concurrent pushes and steps this is a snapshot of a
    /// moving target, never a node that was not ready at some instant of
    /// the scan.
    #[inline]
    pub fn marked(&self, lo: NodeId, hi: NodeId) -> MarkedIter<'_> {
        let (s, offset) = locate(lo / WORD, 1);
        let mut iter = MarkedIter {
            set: self,
            lo,
            hi,
            segment: self.segment(s).filter(|_| lo <= hi),
            s,
            base: lo / WORD - offset,
            word: 0,
            bits: 0,
        };
        iter.enter(lo / WORD);
        iter
    }

    #[inline]
    fn segment(&self, s: usize) -> Option<&Segment> {
        self.segments.get(s)?.get().map(|segment| &**segment)
    }

    pub(crate) fn set_hook(&self, hook: Option<Arc<WakeHook>>) {
        match hook {
            Some(hook) => {
                *self.hub.hook.write() = Some(hook);
                // Release/Acquire: a reader that observes `true` also
                // observes the hook written above.
                self.hub.has_hook.store(true, Ordering::Release);
            }
            None => {
                self.hub.has_hook.store(false, Ordering::Release);
                *self.hub.hook.write() = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_tile_the_id_space() {
        assert_eq!(locate(0, WORD), (0, 0));
        assert_eq!(locate(63, WORD), (0, 63));
        assert_eq!(locate(64, WORD), (1, 0));
        assert_eq!(locate(127, WORD), (1, 63));
        assert_eq!(locate(128, WORD), (2, 0));
        assert_eq!(locate(255, WORD), (2, 127));
        assert_eq!(locate(256, WORD), (3, 0));
        // Word indices use the same tiling, one word per 64 ids.
        assert_eq!(locate(0, 1), (0, 0));
        assert_eq!(locate(1, 1), (1, 0));
        assert_eq!(locate(3, 1), (2, 1));
        assert!(locate(usize::MAX, WORD).0 < SEGMENTS);
    }

    fn ids(set: &ReadySet, lo: NodeId, hi: NodeId) -> Vec<NodeId> {
        set.marked(lo, hi).map(|m| m.id).collect()
    }

    #[test]
    fn marked_walks_set_bits_across_segments_within_the_range() {
        let set = ReadySet::new();
        // Sources are ready from registration on; the rest never is here.
        let cells: Vec<_> = (0..300)
            .map(|id| {
                let cell = set.new_cell([0, 63, 64, 130, 299].contains(&id));
                let woke = set.register(id, &cell);
                assert_eq!(woke.is_some(), set.is_ready(id));
                cell
            })
            .collect();
        assert_eq!(ids(&set, 0, 299), vec![0, 63, 64, 130, 299]);
        assert_eq!(ids(&set, 1, 130), vec![63, 64, 130]);
        assert_eq!(ids(&set, 131, 298), Vec::<NodeId>::new());
        assert_eq!(cells[0].publish(), None, "already marked: no transition");
        assert!(!set.all_finished());
        for cell in &cells {
            cell.finish();
        }
        assert!(set.all_finished());
        assert!(set.is_finished(64) && set.is_finished(10_000));
        assert_eq!(ids(&set, 0, 299), Vec::<NodeId>::new());
    }

    #[test]
    fn gated_port_hides_the_other_ports_backlog() {
        let set = ReadySet::new();
        let cell = set.new_cell(false);
        let left = cell.add_port(true);
        let right = cell.add_port(true);
        // A push that lands before the node has an id only leaves its
        // request; registration publishes for it.
        left.mirror(2, Some(40));
        assert_eq!(cell.publish(), None);
        assert_eq!(set.register(0, &cell), None);
        assert_eq!((set.queued(0), set.is_ready(0)), (0, false));
        left.mirror(5, Some(40));
        assert_eq!(cell.publish(), None, "right is open and empty");
        assert_eq!((set.queued(0), set.oldest_seq(0)), (0, None));
        right.mirror(1, Some(7));
        assert_eq!(cell.publish(), Some(0));
        assert_eq!((set.queued(0), set.oldest_seq(0)), (6, Some(7)));
        // A drained port whose gate the consumer opened no longer blocks.
        right.mirror(0, None);
        right.open_gate();
        assert_eq!(cell.publish(), None, "stayed ready");
        assert_eq!((set.queued(0), set.oldest_seq(0)), (5, Some(40)));
        assert_eq!(cell.set_parked(true), None);
        assert!(!set.is_ready(0));
        assert_eq!(cell.set_parked(false), Some(0));
    }
}
