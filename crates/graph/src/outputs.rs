//! The publishing side of a node: its set of subscribed edges.
//!
//! Data leaves a node one way: [`Outputs::publish_batch`], which drops
//! stale heartbeats, stamps the survivors from one sequence block and
//! pushes them to every subscriber under one lock each. A node's
//! [`PublishCollector`] buffers a quantum's output for it; a cap of one
//! message gives the per-message baseline.

use crate::edge::{Edge, EdgeId};
use crate::operator::Collector;
use pipes_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use pipes_sync::{Arc, RwLock};
use pipes_time::{Element, Message, Timestamp};

/// Default cap on how many messages a [`PublishCollector`] buffers before
/// flushing mid-quantum, bounding scratch memory for high-fan-out operators.
pub const DEFAULT_FLUSH_CAP: usize = 1024;

/// The output port of a node: publishes messages to all subscribed edges.
///
/// Subscriptions may be added and removed at runtime. A subscriber that
/// attaches after the stream closed immediately receives `Close`; one that
/// attaches mid-stream is primed with the last published heartbeat so its
/// consumer knows the temporal progress already made.
///
/// Elements and heartbeats go out through
/// [`publish_batch`](Outputs::publish_batch), which allocates one
/// contiguous block of arrival sequences and takes each subscriber's queue
/// lock once for the whole batch; end-of-stream through
/// [`publish_close`](Outputs::publish_close).
pub struct Outputs<T> {
    subs: RwLock<Vec<Arc<Edge<T>>>>,
    seq: Arc<AtomicU64>,
    last_heartbeat: AtomicU64,
    closed: AtomicBool,
}

impl<T: Clone> Outputs<T> {
    /// Creates an output port drawing arrival sequence numbers from `seq`.
    pub fn new(seq: Arc<AtomicU64>) -> Self {
        Outputs {
            subs: RwLock::new(Vec::new()),
            seq,
            last_heartbeat: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Attaches a subscriber edge.
    pub fn subscribe(&self, edge: Arc<Edge<T>>) {
        // ordering: Relaxed — priming reads are best-effort snapshots; a
        // concurrent publisher delivers anything newer through the edge
        // itself once the subscription below is visible.
        let wm = self.last_heartbeat.load(Ordering::Relaxed);
        if wm > 0 {
            edge.push(
                // ordering: Relaxed — seq only needs atomicity: each
                // fetch_add yields a unique arrival number; ordering across
                // edges is established by the per-edge queue locks.
                self.seq.fetch_add(1, Ordering::Relaxed),
                Message::Heartbeat(Timestamp::new(wm)),
            );
        }
        // The close check and the push share the `subs` lock with
        // `publish_close`'s swap and fan-out, so the edge either sees the
        // flag set here or joins the list the close fans out over — exactly
        // one `Close` either way. Lock order: subs before edge.
        let mut subs = self.subs.write();
        // ordering: Relaxed — the flag is only written under `subs` (read
        // side, in publish_close), which this write lock excludes.
        if self.closed.load(Ordering::Relaxed) {
            edge.push(self.seq.fetch_add(1, Ordering::Relaxed), Message::Close);
        }
        subs.push(edge);
    }

    /// Detaches the subscriber edge with the given id; returns whether it
    /// was attached.
    pub fn unsubscribe(&self, id: EdgeId) -> bool {
        let mut subs = self.subs.write();
        let before = subs.len();
        subs.retain(|e| e.id() != id);
        subs.len() != before
    }

    /// Number of currently subscribed edges.
    pub fn subscriber_count(&self) -> usize {
        self.subs.read().len()
    }

    /// Publishes a whole batch of elements and heartbeats.
    ///
    /// Stale and duplicate heartbeats are dropped, so a given timestamp is
    /// delivered at most once whichever publisher races it; the `k` surviving
    /// messages are stamped from one contiguous sequence block allocated
    /// with a single `fetch_add(k)`, and each subscriber's queue lock is
    /// taken once for the whole batch. `batch` is drained but keeps its
    /// capacity, so callers reuse it as a per-node scratch buffer.
    pub fn publish_batch(&self, batch: &mut Vec<Message<T>>) {
        batch.retain(|m| match m {
            Message::Heartbeat(t) => {
                // ordering: Relaxed — the fetch_max itself is the whole
                // protocol: exactly one publisher observes prev < t and
                // forwards t, so a timestamp goes out at most once
                // regardless of order.
                let prev = self.last_heartbeat.fetch_max(t.ticks(), Ordering::Relaxed);
                t.ticks() > prev
            }
            _ => true,
        });
        let k = batch.len();
        if k == 0 {
            return;
        }
        // ordering: Relaxed — one fetch_add(k) claims the whole contiguous
        // block; uniqueness is all that is required (see subscribe()).
        let seq_base = self.seq.fetch_add(k as u64, Ordering::Relaxed);
        let subs = self.subs.read();
        let n_subs = subs.len();
        match subs.split_last() {
            None => batch.clear(),
            Some((last, rest)) => {
                for edge in rest {
                    edge.push_batch_cloned(seq_base, batch);
                }
                last.push_batch(seq_base, batch);
            }
        }
        drop(subs);
        // Coarse-timestamped: flushes fire once per batch inside the
        // publisher's node-step span; see EDGE_DRAIN in edge.rs.
        pipes_trace::instant_coarse(
            pipes_trace::names::FLUSH,
            [k as u64, n_subs as u64, seq_base],
        );
    }

    /// Publishes end-of-stream (idempotent).
    pub fn publish_close(&self) {
        // Swap and fan-out under the `subs` lock: a racing `subscribe`
        // lands wholly before (on the list) or wholly after (sees the flag).
        let subs = self.subs.read();
        // ordering: Relaxed — the swap makes exactly one caller the
        // closer; subscribers observe the close via the edge queues.
        if self.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        // ordering: Relaxed — unique-id allocation; see subscribe().
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        for edge in subs.iter() {
            edge.push(seq, Message::Close);
        }
        drop(subs);
        pipes_trace::instant(pipes_trace::names::CLOSE, [0; 3]);
    }

    /// Whether `Close` has been published.
    pub fn is_closed(&self) -> bool {
        // ordering: Relaxed — advisory read; the authoritative close is
        // the Close message in each edge queue.
        self.closed.load(Ordering::Relaxed)
    }
}

/// Type-erased view of an output port, used by the graph for bookkeeping
/// that must not know the payload type (unsubscription, fan-out counting).
pub trait OutputPort: Send + Sync {
    /// Detaches the edge with the given id.
    fn detach(&self, id: EdgeId) -> bool;
    /// Number of subscribed edges.
    fn subscriber_count(&self) -> usize;
}

impl<T: Clone + Send + 'static> OutputPort for Outputs<T> {
    fn detach(&self, id: EdgeId) -> bool {
        self.unsubscribe(id)
    }
    fn subscriber_count(&self) -> usize {
        Outputs::subscriber_count(self)
    }
}

/// A [`Collector`] that buffers emitted messages in a node-owned scratch
/// buffer and publishes them as one batch per quantum (or whenever the
/// buffer reaches its flush cap).
///
/// The scratch buffer is borrowed from the node, so its capacity survives
/// across quanta — steady-state operation allocates nothing. Call
/// [`finish`](PublishCollector::finish) at the end of a quantum to flush
/// and read the produced-element count; dropping the collector also
/// flushes, so buffered messages can never be lost.
pub struct PublishCollector<'a, T: Clone> {
    outputs: &'a Outputs<T>,
    buf: &'a mut Vec<Message<T>>,
    flush_cap: usize,
    produced: usize,
}

impl<'a, T: Clone> PublishCollector<'a, T> {
    /// Creates a collector publishing to `outputs`, buffering into the
    /// caller-owned `buf` (expected empty).
    pub fn new(outputs: &'a Outputs<T>, buf: &'a mut Vec<Message<T>>) -> Self {
        debug_assert!(buf.is_empty(), "scratch buffer handed over non-empty");
        PublishCollector {
            outputs,
            buf,
            flush_cap: DEFAULT_FLUSH_CAP,
            produced: 0,
        }
    }

    /// Caps the buffer at `cap` messages; reaching the cap triggers a
    /// mid-quantum flush. A cap of 1 reproduces per-message publishing
    /// (one sequence allocation and one lock round per message), which the
    /// batching benchmarks use as their baseline.
    pub fn with_flush_cap(mut self, cap: usize) -> Self {
        self.flush_cap = cap.max(1);
        self
    }

    /// Elements published through this collector so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Publishes everything currently buffered.
    pub fn flush(&mut self) {
        self.outputs.publish_batch(self.buf);
    }

    /// Publishes everything buffered, then end-of-stream.
    pub(crate) fn publish_close(&mut self) {
        self.flush();
        self.outputs.publish_close();
    }

    /// Flushes and returns the produced-element count for the quantum.
    pub fn finish(&mut self) -> usize {
        self.flush();
        self.produced
    }
}

impl<T: Clone> Collector<T> for PublishCollector<'_, T> {
    fn element(&mut self, e: Element<T>) {
        self.produced += 1;
        self.buf.push(Message::Element(e));
        if self.buf.len() >= self.flush_cap {
            self.flush();
        }
    }
    fn heartbeat(&mut self, t: Timestamp) {
        self.buf.push(Message::Heartbeat(t));
        if self.buf.len() >= self.flush_cap {
            self.flush();
        }
    }
    fn reserve(&mut self, additional: usize) {
        // The buffer flushes at the cap, so capacity past it is dead weight.
        self.buf.reserve(additional.min(self.flush_cap));
    }
}

impl<T: Clone> Drop for PublishCollector<'_, T> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_time::Element;

    fn outputs() -> Outputs<i32> {
        Outputs::new(Arc::new(AtomicU64::new(0)))
    }

    fn publish(out: &Outputs<i32>, msgs: &[Message<i32>]) {
        out.publish_batch(&mut msgs.to_vec());
    }

    fn hb(t: u64) -> Message<i32> {
        Message::Heartbeat(Timestamp::new(t))
    }

    /// Pops everything queued on `e`.
    fn drain(e: &Edge<i32>) -> Vec<(u64, Message<i32>)> {
        let mut out = Vec::new();
        while e.pop_run(usize::MAX, u64::MAX, &mut out) > 0 {}
        out
    }

    #[test]
    fn fan_out_clones_to_all_subscribers() {
        let out = outputs();
        let e1 = Arc::new(Edge::new(1));
        let e2 = Arc::new(Edge::new(2));
        out.subscribe(Arc::clone(&e1));
        out.subscribe(Arc::clone(&e2));
        assert_eq!(out.subscriber_count(), 2);
        publish(&out, &[Message::Element(Element::at(5, Timestamp::new(1)))]);
        assert_eq!(e1.len(), 1);
        assert_eq!(e2.len(), 1);
        // Both copies carry the same arrival sequence.
        assert_eq!(drain(&e1), drain(&e2));
    }

    #[test]
    fn heartbeat_deduplication() {
        let out = outputs();
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        publish(&out, &[hb(5)]);
        publish(&out, &[hb(5)]); // duplicate: suppressed
        publish(&out, &[hb(3)]); // stale: suppressed
        publish(&out, &[hb(8)]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn batch_publish_allocates_one_seq_block_and_dedups_heartbeats() {
        let seq = Arc::new(AtomicU64::new(0));
        let out: Outputs<i32> = Outputs::new(Arc::clone(&seq));
        let e1 = Arc::new(Edge::new(1));
        let e2 = Arc::new(Edge::new(2));
        out.subscribe(Arc::clone(&e1));
        out.subscribe(Arc::clone(&e2));
        publish(&out, &[hb(4)]); // seq 0

        let mut batch = vec![
            Message::Element(Element::at(1, Timestamp::new(5))),
            Message::Heartbeat(Timestamp::new(6)),
            Message::Heartbeat(Timestamp::new(6)), // duplicate: dropped
            Message::Heartbeat(Timestamp::new(2)), // stale: dropped
            Message::Element(Element::at(2, Timestamp::new(7))),
        ];
        out.publish_batch(&mut batch);
        assert!(batch.is_empty(), "batch buffer must drain");
        // 3 survivors stamped with the contiguous block 1..=3.
        // ordering: Relaxed — single-threaded test readback.
        assert_eq!(seq.load(Ordering::Relaxed), 4);
        for edge in [&e1, &e2] {
            // The heartbeat at seq 0, then the 3 batch messages.
            let seqs: Vec<u64> = drain(edge).iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn batch_publish_without_subscribers_discards() {
        let out = outputs();
        let mut batch = vec![Message::Element(Element::at(1, Timestamp::new(0)))];
        out.publish_batch(&mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn close_is_idempotent_and_primes_late_subscribers() {
        let out = outputs();
        let early = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&early));
        publish(&out, &[hb(9)]);
        out.publish_close();
        out.publish_close();
        assert_eq!(early.len(), 2); // heartbeat + one close
        assert!(out.is_closed());

        let late = Arc::new(Edge::new(2));
        out.subscribe(Arc::clone(&late));
        // Late subscriber is primed with progress and the close.
        let msgs: Vec<Message<i32>> = drain(&late).into_iter().map(|(_, m)| m).collect();
        assert_eq!(msgs, [hb(9), Message::Close]);
    }

    #[test]
    fn unsubscribe_detaches() {
        let out = outputs();
        let e = Arc::new(Edge::new(4));
        out.subscribe(Arc::clone(&e));
        assert!(out.unsubscribe(4));
        assert!(!out.unsubscribe(4));
        publish(&out, &[Message::Element(Element::at(1, Timestamp::new(0)))]);
        assert!(e.is_empty());
    }

    #[test]
    fn publish_collector_buffers_until_finish() {
        let out = outputs();
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let mut scratch = Vec::new();
        let mut c = PublishCollector::new(&out, &mut scratch);
        c.element(Element::at(1, Timestamp::new(0)));
        c.element(Element::at(2, Timestamp::new(1)));
        c.heartbeat(Timestamp::new(2));
        // Nothing on the wire until the quantum flushes.
        assert_eq!(e.len(), 0);
        assert_eq!(c.produced(), 2);
        assert_eq!(c.finish(), 2);
        drop(c);
        assert_eq!(e.len(), 3);
        assert!(scratch.is_empty());
    }

    #[test]
    fn publish_collector_flushes_at_cap_and_on_drop() {
        let out = outputs();
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let mut scratch = Vec::new();
        {
            let mut c = PublishCollector::new(&out, &mut scratch).with_flush_cap(2);
            c.element(Element::at(1, Timestamp::new(0)));
            c.element(Element::at(2, Timestamp::new(1)));
            // Cap reached: flushed mid-quantum.
            assert_eq!(e.len(), 2);
            c.element(Element::at(3, Timestamp::new(2)));
            // Dropped without finish(): the drop flush publishes the rest.
        }
        assert_eq!(e.len(), 3);
    }
}
