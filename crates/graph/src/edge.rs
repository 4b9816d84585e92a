//! Queued edges between nodes: the one transport of the data path.
//!
//! Publishers move messages onto an edge in batches (one lock per flush,
//! see [`crate::Outputs::publish_batch`]) and consumers take them off in
//! runs (one lock per run, see [`Edge::pop_run`]). Both mirror the queue
//! into the consumer's readiness port inside that same critical section.

use crate::node::PortView;
use crate::ready::{Port, ReadyCell};
use pipes_sync::{Arc, Mutex};
use pipes_time::Message;
use std::collections::VecDeque;

type Queue<T> = VecDeque<(u64, Message<T>)>;

/// Identifies an edge (subscription) within one graph.
pub type EdgeId = u64;

/// A queued subscription: the buffer between a publishing node and one
/// subscribed consumer port.
///
/// Each enqueued message carries a graph-global arrival sequence number,
/// which the FIFO scheduling strategy and multi-port nodes use to process
/// messages in arrival order.
///
/// Messages move in batches: [`push_batch`](Edge::push_batch) (and its
/// stamped and cloning forms) in, [`pop_run`](Edge::pop_run) out, many
/// messages under one lock acquisition. The single-message
/// [`push`](Edge::push) remains for the two control messages a publisher
/// sends on its own: the heartbeat that primes a new subscriber, and
/// `Close`.
///
/// Every push and pop also mirrors the queue's length and head sequence
/// into the edge's readiness port while the queue lock is held, and a push
/// then publishes the consuming node's readiness (see [`crate::ready`]).
pub struct Edge<T> {
    id: EdgeId,
    queue: Mutex<Queue<T>>,
    port: Arc<Port>,
    /// The consuming node's readiness cell; `None` for a free-standing edge.
    consumer: Option<Arc<ReadyCell>>,
}

impl<T> Edge<T> {
    /// Creates an empty edge with the given id and no consuming node.
    pub fn new(id: EdgeId) -> Self {
        Self::with_port(id, Arc::new(Port::new(false)), None)
    }

    /// Creates an empty edge feeding the node that owns `consumer`. With
    /// `gate`, the edge is a strict-frontier port: while it is open and
    /// empty the consumer reports no demand.
    pub(crate) fn feeding(id: EdgeId, consumer: &Arc<ReadyCell>, gate: bool) -> Self {
        Self::with_port(id, consumer.add_port(gate), Some(Arc::clone(consumer)))
    }

    fn with_port(id: EdgeId, port: Arc<Port>, consumer: Option<Arc<ReadyCell>>) -> Self {
        Edge {
            id,
            queue: Mutex::new(VecDeque::new()),
            port,
            consumer,
        }
    }

    /// The consumer took this port's `Close`: an empty queue here no longer
    /// blocks it.
    pub(crate) fn open_gate(&self) {
        self.port.open_gate();
    }

    /// Whether this is a strict-frontier port whose `Close` its consumer
    /// has not taken yet.
    pub(crate) fn gated(&self) -> bool {
        self.port.gated()
    }

    /// What the consumer's frontier probe needs of this port, under one
    /// lock acquisition (see [`crate::node::frontier`]).
    pub(crate) fn view(&self) -> PortView {
        let q = self.queue.lock();
        PortView {
            head: q.front().map(|(s, _)| *s),
            len: q.len(),
            gated: self.gated(),
        }
    }

    /// Mirrors the queue into the readiness port; returns the length. Must
    /// run inside the critical section of the push or pop: if the length
    /// were stored after the guard drops, two concurrent critical sections
    /// could interleave as
    ///   A: push -> len 1, unlock        B: push -> len 2, unlock
    ///   B: len.store(2)                 A: len.store(1)
    /// leaving the mirror stuck below the true queue length (and
    /// symmetrically above it when racing a pop) until the next mutation
    /// repaired it.
    fn mirror(&self, q: &Queue<T>) -> usize {
        let len = q.len();
        self.port.mirror(len, q.front().map(|(s, _)| *s));
        len
    }

    /// After a push, outside its critical section (contended consumers must
    /// not wait on this): publishes the consumer's readiness and, if the
    /// push made it ready, runs the wake hook. A pop needs no counterpart —
    /// the consumer publishes at the end of the step that is popping.
    fn notify(&self) {
        if let Some(consumer) = &self.consumer {
            consumer.wake(consumer.publish());
        }
    }

    /// This edge's id.
    pub fn id(&self) -> EdgeId {
        self.id
    }

    /// Enqueues one control message stamped with arrival sequence `seq`:
    /// the heartbeat that primes a new subscriber, or a `Close`.
    pub fn push(&self, seq: u64, msg: Message<T>) {
        let len = {
            let mut q = self.queue.lock();
            q.push_back((seq, msg));
            self.mirror(&q)
        };
        self.notify();
        // Recorded outside the critical section: contended consumers must
        // not wait on the recorder.
        pipes_trace::instant(pipes_trace::names::EDGE_PUSH, [self.id, len as u64, 0]);
    }

    /// Enqueues a batch under one lock acquisition. `msgs` is drained (its
    /// capacity is retained, so callers can reuse it as a scratch buffer);
    /// message `i` is stamped with arrival sequence `seq_base + i`.
    pub fn push_batch(&self, seq_base: u64, msgs: &mut Vec<Message<T>>) {
        if msgs.is_empty() {
            return;
        }
        {
            let mut q = self.queue.lock();
            for (i, msg) in msgs.drain(..).enumerate() {
                q.push_back((seq_base + i as u64, msg));
            }
            self.mirror(&q);
        }
        self.notify();
    }

    /// Enqueues a batch of **pre-stamped** messages under one lock
    /// acquisition, preserving the arrival sequence each message already
    /// carries. `msgs` is drained (capacity retained for reuse).
    ///
    /// This is the shuffle-edge transport: a partition node routes a drained
    /// run across per-instance edges without re-stamping, so the merge stage
    /// downstream can restore global arrival order from the original
    /// sequences. Callers must push stamps in non-decreasing order per edge,
    /// or run bounds downstream would be violated.
    pub fn push_stamped_batch(&self, msgs: &mut Vec<(u64, Message<T>)>) {
        if msgs.is_empty() {
            return;
        }
        {
            let mut q = self.queue.lock();
            debug_assert!(
                q.back().is_none_or(|(last, _)| *last <= msgs[0].0),
                "stamped batch would regress the edge's sequence order"
            );
            q.extend(msgs.drain(..));
            self.mirror(&q);
        }
        self.notify();
    }

    /// Dequeues a *run*: up to `max` oldest messages whose arrival sequence
    /// is at most `seq_bound`, under one lock acquisition. A `Close` message
    /// ends the run (it is included), so consumers observe end-of-stream at
    /// a run boundary. Appends to `out`; returns the number moved.
    ///
    /// Multi-port nodes bound each run by the head sequence of their other
    /// ports, which preserves cross-port arrival order while still draining
    /// long same-port stretches in one lock.
    pub fn pop_run(&self, max: usize, seq_bound: u64, out: &mut Vec<(u64, Message<T>)>) -> usize {
        if max == 0 {
            return 0;
        }
        let (n, remaining) = {
            let mut q = self.queue.lock();
            let mut n = 0;
            while n < max {
                match q.front() {
                    Some((seq, _)) if *seq <= seq_bound => {
                        let (seq, msg) = q.pop_front().expect("front() guaranteed a message");
                        let is_close = matches!(msg, Message::Close);
                        out.push((seq, msg));
                        n += 1;
                        if is_close {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            (n, self.mirror(&q))
        };
        if n > 0 {
            // Recorded outside the critical section (one event per drained
            // run, not per message — the batched path's cost model).
            // Coarse-timestamped: a drain always runs inside its consumer's
            // node-step span, and skipping the clock read keeps this site
            // off the hot path's budget.
            pipes_trace::instant_coarse(
                pipes_trace::names::EDGE_DRAIN,
                [self.id, n as u64, remaining as u64],
            );
        }
        n
    }

    /// Current queue length (racy but monotonic enough for scheduling).
    pub fn len(&self) -> usize {
        self.port.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Type-erased view of an input edge, which the graph keeps next to the
/// consuming node for its locked reference probe
/// ([`crate::QueryGraph::locked_probes`]).
pub(crate) trait InputPort: Send + Sync {
    /// The edge's id.
    fn id(&self) -> EdgeId;
    /// What the consumer's frontier probe needs of this port.
    fn view(&self) -> PortView;
}

impl<T: Send> InputPort for Edge<T> {
    fn id(&self) -> EdgeId {
        self.id
    }
    fn view(&self) -> PortView {
        Edge::view(self)
    }
}

impl<T: Clone> Edge<T> {
    /// Like [`push_batch`](Edge::push_batch), but clones from a borrowed
    /// slice instead of draining — used to fan the same batch out to all but
    /// the last subscriber of an output port.
    pub fn push_batch_cloned(&self, seq_base: u64, msgs: &[Message<T>]) {
        if msgs.is_empty() {
            return;
        }
        {
            let mut q = self.queue.lock();
            for (i, msg) in msgs.iter().enumerate() {
                q.push_back((seq_base + i as u64, msg.clone()));
            }
            self.mirror(&q);
        }
        self.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes_time::{Element, Timestamp};

    /// Pops everything queued, one run at a time.
    fn drain<T>(e: &Edge<T>) -> Vec<(u64, Message<T>)> {
        let mut out = Vec::new();
        while e.pop_run(usize::MAX, u64::MAX, &mut out) > 0 {}
        out
    }

    fn seqs<T>(msgs: &[(u64, Message<T>)]) -> Vec<u64> {
        msgs.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn fifo_order_and_lengths() {
        let e: Edge<i32> = Edge::new(7);
        assert_eq!(e.id(), 7);
        assert!(e.is_empty());
        let mut batch = vec![
            Message::Element(Element::at(10, Timestamp::new(0))),
            Message::Heartbeat(Timestamp::new(1)),
        ];
        e.push_batch(1, &mut batch);
        e.push(3, Message::Close);
        assert_eq!(e.len(), 3);
        assert_eq!(e.view().head, Some(1));
        let mut out = Vec::new();
        assert_eq!(e.pop_run(1, u64::MAX, &mut out), 1);
        assert!(out[0].1.is_element());
        assert_eq!(e.len(), 2);
        assert_eq!(e.view().head, Some(2));
        let rest = drain(&e);
        assert_eq!(seqs(&rest), [2, 3]);
        assert_eq!(rest[1].1, Message::Close);
        assert!(e.is_empty());
    }

    #[test]
    fn concurrent_producers() {
        use pipes_sync::Arc;
        let e: Arc<Edge<u64>> = Arc::new(Edge::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let e = Arc::clone(&e);
                pipes_sync::thread::spawn(move || {
                    for i in 0..500 {
                        let mut one = vec![Message::Heartbeat(Timestamp::new(i))];
                        e.push_batch(tid * 1000 + i, &mut one);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.len(), 2000);
        assert_eq!(drain(&e).len(), 2000);
    }

    /// Regression test for the stale-length race: `push` used to store the
    /// cached length *after* releasing the queue lock, so a concurrent
    /// push/pop pair could publish their lengths in the opposite order of
    /// their critical sections, leaving `len()` permanently out of sync with
    /// the queue. With the store moved inside the critical section the cached
    /// length always reflects the most recent mutation once all threads join.
    #[test]
    fn len_consistent_after_concurrent_push_and_pop() {
        use pipes_sync::Arc;
        for _ in 0..50 {
            let e: Arc<Edge<u64>> = Arc::new(Edge::new(0));
            let pushers: Vec<_> = (0..2u64)
                .map(|tid| {
                    let e = Arc::clone(&e);
                    pipes_sync::thread::spawn(move || {
                        for i in 0..200 {
                            let mut one = vec![Message::Heartbeat(Timestamp::new(i))];
                            e.push_batch(tid * 1000 + i, &mut one);
                        }
                    })
                })
                .collect();
            let popper = {
                let e = Arc::clone(&e);
                pipes_sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < 100 {
                        if e.pop_run(1, u64::MAX, &mut got) == 0 {
                            pipes_sync::hint::spin_loop();
                        }
                    }
                })
            };
            for h in pushers {
                h.join().unwrap();
            }
            popper.join().unwrap();
            let reported = e.len();
            let actual = drain(&e).len();
            assert_eq!(reported, actual, "cached len diverged from queue");
            assert_eq!(actual, 300);
        }
    }

    #[test]
    fn push_batch_stamps_sequential_seqs_and_reuses_buffer() {
        let e: Edge<i32> = Edge::new(1);
        let mut batch = vec![
            Message::Element(Element::at(1, Timestamp::new(0))),
            Message::Heartbeat(Timestamp::new(1)),
            Message::Element(Element::at(2, Timestamp::new(2))),
        ];
        let cap = batch.capacity();
        e.push_batch(10, &mut batch);
        assert!(batch.is_empty());
        assert!(batch.capacity() >= cap, "scratch capacity must survive");
        assert_eq!(e.len(), 3);
        assert_eq!(seqs(&drain(&e)), [10, 11, 12]);
    }

    #[test]
    fn push_batch_cloned_fans_out_same_seqs() {
        let a: Edge<i32> = Edge::new(1);
        let b: Edge<i32> = Edge::new(2);
        let mut batch = vec![
            Message::Element(Element::at(5, Timestamp::new(0))),
            Message::Element(Element::at(6, Timestamp::new(1))),
        ];
        a.push_batch_cloned(7, &batch);
        b.push_batch(7, &mut batch);
        assert_eq!(drain(&a), drain(&b));
    }

    #[test]
    fn push_stamped_batch_preserves_given_seqs() {
        let e: Edge<i32> = Edge::new(3);
        let mut batch = vec![
            (4u64, Message::Element(Element::at(1, Timestamp::new(0)))),
            (9u64, Message::Heartbeat(Timestamp::new(1))),
            (9u64, Message::Element(Element::at(2, Timestamp::new(1)))),
        ];
        let cap = batch.capacity();
        e.push_stamped_batch(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.capacity() >= cap, "scratch capacity must survive");
        assert_eq!(e.len(), 3);
        assert_eq!(seqs(&drain(&e)), [4, 9, 9]);
    }

    #[test]
    fn pop_run_drains_up_to_max() {
        let e: Edge<i32> = Edge::new(1);
        let mut batch: Vec<_> = (0..5)
            .map(|i| Message::Heartbeat(Timestamp::new(i)))
            .collect();
        e.push_batch(0, &mut batch);
        let mut out = Vec::new();
        assert_eq!(e.pop_run(3, u64::MAX, &mut out), 3);
        assert_eq!(seqs(&out), [0, 1, 2]);
        assert_eq!(e.len(), 2);
        out.clear();
        assert_eq!(e.pop_run(10, u64::MAX, &mut out), 2);
        assert_eq!(e.pop_run(10, u64::MAX, &mut out), 0);
        assert_eq!(e.pop_run(0, u64::MAX, &mut out), 0);
    }

    #[test]
    fn pop_run_respects_seq_bound_and_stops_after_close() {
        let e: Edge<i32> = Edge::new(1);
        let mut batch = vec![
            (1, Message::Heartbeat(Timestamp::new(0))),
            (3, Message::Heartbeat(Timestamp::new(1))),
            (8, Message::Heartbeat(Timestamp::new(2))),
        ];
        e.push_stamped_batch(&mut batch);
        let mut out = Vec::new();
        // Bound 5: only seqs 1 and 3 may move.
        assert_eq!(e.pop_run(10, 5, &mut out), 2);
        assert_eq!(e.view().head, Some(8));

        let c: Edge<i32> = Edge::new(2);
        let mut batch = vec![
            Message::Heartbeat(Timestamp::new(0)),
            Message::Close,
            Message::Heartbeat(Timestamp::new(1)),
        ];
        c.push_batch(1, &mut batch);
        out.clear();
        // Close ends the run even though more messages are within bounds.
        assert_eq!(c.pop_run(10, u64::MAX, &mut out), 2);
        assert_eq!(out.last().unwrap().1, Message::Close);
        assert_eq!(c.len(), 1);
    }
}
