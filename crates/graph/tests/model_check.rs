//! Model-checked concurrency tests for the graph kernel's data path.
//!
//! Compiled only under `RUSTFLAGS="--cfg pipes_model_check"` (see
//! `scripts/ci.sh`), where `pipes_sync` resolves to the in-tree `loom`
//! shim: every lock and atomic operation becomes a deterministic
//! scheduling point and [`pipes_sync::model`] exhaustively explores
//! thread interleavings up to a preemption bound, reporting failing
//! schedules with a `PIPES_MC_REPLAY` recipe.
//!
//! These cover the PR-1 batched-data-path invariants deterministically;
//! `tests/concurrency.rs` at the workspace root keeps the wall-clock
//! stress form of the same scenarios.

#![cfg(pipes_model_check)]

use pipes_graph::io::{CountSink, VecSource};
use pipes_graph::{Collector, Edge, Outputs, PublishCollector, QueryGraph};
use pipes_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use pipes_sync::{Arc, Mutex};
use pipes_time::{Element, Message, Timestamp};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn hb(t: u64) -> Message<i32> {
    Message::Heartbeat(Timestamp::new(t))
}

fn el(p: i32, t: u64) -> Message<i32> {
    Message::Element(Element::at(p, Timestamp::new(t)))
}

/// Pops everything queued on `e`, one message per run.
fn drain(e: &Edge<i32>) -> Vec<(u64, Message<i32>)> {
    let mut out = Vec::new();
    while e.pop_run(1, u64::MAX, &mut out) > 0 {}
    out
}

/// The elements queued on `e`, as `(payload, seq)`.
fn elements(e: &Edge<i32>) -> Vec<(i32, u64)> {
    let mut out = Vec::new();
    for (seq, m) in drain(e) {
        if let Message::Element(e) = m {
            out.push((e.payload, seq));
        }
    }
    out
}

/// PR-1 invariant: the cached length is stored *inside* the queue's
/// critical section, so once all threads join it exactly matches the queue
/// — no interleaving of a racing push and pop can leave it stale.
#[test]
fn cached_len_matches_queue_under_push_pop_race() {
    let report = pipes_sync::model(|| {
        let e: Arc<Edge<i32>> = Arc::new(Edge::new(0));
        e.push_batch(1, &mut vec![hb(1)]);
        let pusher = {
            let e = Arc::clone(&e);
            pipes_sync::thread::spawn(move || e.push_batch(2, &mut vec![hb(2)]))
        };
        let popper = {
            let e = Arc::clone(&e);
            pipes_sync::thread::spawn(move || e.pop_run(1, u64::MAX, &mut Vec::new()))
        };
        pusher.join().unwrap();
        let popped = popper.join().unwrap();
        let expected = 2 - popped;
        assert_eq!(e.len(), expected, "cached len diverged from queue");
        assert_eq!(drain(&e).len(), expected, "queue content diverged");
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// Expect-fail companion: reintroduce the pre-PR-1 bug (cached length
/// stored *after* the lock is released) and assert the model checker
/// catches the interleaving where two critical sections publish their
/// lengths in the opposite order, leaving the cache under-reporting.
#[test]
fn model_checker_catches_stale_length_bug() {
    /// An [`Edge`]-shaped queue with the stale-length bug seeded back in.
    struct BuggyEdge {
        queue: Mutex<VecDeque<u64>>,
        len: AtomicUsize,
    }

    impl BuggyEdge {
        fn push(&self, v: u64) {
            let len = {
                let mut q = self.queue.lock();
                q.push_back(v);
                q.len()
            };
            // BUG (deliberate): the guard dropped above, so a concurrent
            // mutation can slip between the critical section and this
            // store, publishing lengths out of order.
            // ordering: Relaxed — irrelevant here; the bug is the store's
            // position, not its memory order.
            self.len.store(len, Ordering::Relaxed);
        }
    }

    let err = catch_unwind(AssertUnwindSafe(|| {
        pipes_sync::model(|| {
            let e = Arc::new(BuggyEdge {
                queue: Mutex::new(VecDeque::new()),
                len: AtomicUsize::new(0),
            });
            let t = {
                let e = Arc::clone(&e);
                pipes_sync::thread::spawn(move || e.push(1))
            };
            e.push(2);
            t.join().unwrap();
            // ordering: Relaxed — single-threaded readback after join.
            let cached = e.len.load(Ordering::Relaxed);
            assert_eq!(cached, 2, "cached len under-reports the queue");
        })
    }))
    .expect_err("the stale-length bug must be caught");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("failure report is a string panic");
    assert!(msg.contains("under-reports"), "unexpected report: {msg}");
    assert!(
        msg.contains("PIPES_MC_REPLAY"),
        "report lacks replay recipe"
    );
}

/// Batch transfers race a consumer: no message is lost or reordered, and
/// a run never interleaves foreign messages into a batch's seq block.
#[test]
fn push_batch_vs_pop_run_preserves_order_and_count() {
    let report = pipes_sync::model(|| {
        let e: Arc<Edge<i32>> = Arc::new(Edge::new(0));
        let producer = {
            let e = Arc::clone(&e);
            pipes_sync::thread::spawn(move || {
                let mut batch = vec![hb(1), hb(2)];
                e.push_batch(10, &mut batch);
            })
        };
        let mut got = Vec::new();
        e.pop_run(2, u64::MAX, &mut got);
        producer.join().unwrap();
        while e.pop_run(2, u64::MAX, &mut got) > 0 {}
        let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, [10, 11], "batch must arrive whole and in order");
        assert_eq!(e.len(), 0);
    });
    assert!(report.complete);
}

/// PR-1 invariant: every flush claims one contiguous sequence block, so
/// two racing batch flushes into the same subscriber produce disjoint
/// contiguous blocks (in either order), never interleaved stamps.
#[test]
fn racing_batch_flushes_get_disjoint_contiguous_seq_blocks() {
    let report = pipes_sync::model(|| {
        let out: Arc<Outputs<i32>> = Arc::new(Outputs::new(Arc::new(AtomicU64::new(0))));
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let flusher = {
            let out = Arc::clone(&out);
            pipes_sync::thread::spawn(move || {
                let mut buf = vec![el(10, 1), el(11, 2)];
                out.publish_batch(&mut buf);
            })
        };
        let mut buf = vec![el(20, 1), el(21, 2)];
        out.publish_batch(&mut buf);
        flusher.join().unwrap();

        let by_payload: std::collections::HashMap<i32, u64> = elements(&e).into_iter().collect();
        assert_eq!(by_payload.len(), 4, "a flush lost messages");
        for pair in [(10, 11), (20, 21)] {
            assert_eq!(
                by_payload[&pair.0] + 1,
                by_payload[&pair.1],
                "flush {pair:?} was not stamped from one contiguous block"
            );
        }
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// The heartbeat fetch_max dedup: when two publishers race the same
/// timestamp, exactly one wins and subscribers see it exactly once.
#[test]
fn racing_heartbeats_deliver_exactly_once() {
    let report = pipes_sync::model(|| {
        let out: Arc<Outputs<i32>> = Arc::new(Outputs::new(Arc::new(AtomicU64::new(0))));
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let racer = {
            let out = Arc::clone(&out);
            pipes_sync::thread::spawn(move || out.publish_batch(&mut vec![hb(5)]))
        };
        out.publish_batch(&mut vec![hb(5)]);
        racer.join().unwrap();
        let beats = drain(&e);
        assert!(beats.iter().all(|(_, m)| *m == hb(5)));
        assert_eq!(
            beats.len(),
            1,
            "duplicate heartbeat slipped through the dedup"
        );
    });
    assert!(report.complete);
}

/// The close swap: racing closers publish exactly one `Close`.
#[test]
fn racing_closes_deliver_exactly_one_close() {
    let report = pipes_sync::model(|| {
        let out: Arc<Outputs<i32>> = Arc::new(Outputs::new(Arc::new(AtomicU64::new(0))));
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let racer = {
            let out = Arc::clone(&out);
            pipes_sync::thread::spawn(move || out.publish_close())
        };
        out.publish_close();
        racer.join().unwrap();
        assert!(out.is_closed());
        let closes = drain(&e);
        assert!(closes.iter().all(|(_, m)| *m == Message::Close));
        assert_eq!(closes.len(), 1, "close must be published exactly once");
    });
    assert!(report.complete);
}

/// A subscription racing the publisher's close: whichever lands first, the
/// new edge sees exactly one `Close` — not none (the close fanned out over
/// the old subscriber list after the subscriber read `closed` as false),
/// not two (the subscriber pushed its own `Close` and then joined the list
/// the close fans out over).
#[test]
fn subscribe_racing_close_delivers_exactly_one_close() {
    let report = pipes_sync::model(|| {
        let out: Arc<Outputs<i32>> = Arc::new(Outputs::new(Arc::new(AtomicU64::new(0))));
        let e = Arc::new(Edge::new(1));
        let subscriber = {
            let out = Arc::clone(&out);
            let e = Arc::clone(&e);
            pipes_sync::thread::spawn(move || out.subscribe(e))
        };
        out.publish_close();
        subscriber.join().unwrap();
        let closes = drain(&e);
        assert!(closes.iter().all(|(_, m)| *m == Message::Close));
        assert_eq!(
            closes.len(),
            1,
            "a late subscriber must see exactly one Close"
        );
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}

/// A `PublishCollector` flushing at its cap races another collector into
/// the same output port: both quanta's messages arrive, each flush in one
/// contiguous block.
#[test]
fn racing_collector_flushes_into_one_subscriber() {
    let report = pipes_sync::model(|| {
        let out: Arc<Outputs<i32>> = Arc::new(Outputs::new(Arc::new(AtomicU64::new(0))));
        let e = Arc::new(Edge::new(1));
        out.subscribe(Arc::clone(&e));
        let other = {
            let out = Arc::clone(&out);
            pipes_sync::thread::spawn(move || {
                let mut scratch = Vec::new();
                let mut c = PublishCollector::new(&out, &mut scratch).with_flush_cap(2);
                c.element(Element::at(10, Timestamp::new(1)));
                c.element(Element::at(11, Timestamp::new(2))); // cap: flushes
                c.finish()
            })
        };
        let mut scratch = Vec::new();
        let mut c = PublishCollector::new(&out, &mut scratch);
        c.element(Element::at(20, Timestamp::new(1)));
        let mine = c.finish();
        drop(c);
        assert_eq!(other.join().unwrap(), 2);
        assert_eq!(mine, 1);
        let seqs: std::collections::HashMap<i32, u64> = elements(&e).into_iter().collect();
        let mut payloads: Vec<i32> = seqs.keys().copied().collect();
        payloads.sort_unstable();
        assert_eq!(payloads, [10, 11, 20], "a flush lost messages");
        assert_eq!(seqs[&10] + 1, seqs[&11], "capped flush split its block");
    });
    assert!(report.complete);
}

/// A push racing the end-of-step publication that clears readiness: the
/// consumer drains its queue and publishes "not ready" while the producer
/// pushes the next message and publishes "ready". Publications of one node
/// are serialized and re-run while requests keep coming in, so whichever
/// order the two land in, the last word covers the last change: a consumer
/// left holding a message is marked ready, and its published demand is what
/// the locked reference reports.
#[test]
fn push_racing_the_end_of_step_publication_leaves_the_node_ready() {
    let report = pipes_sync::Builder::new().preemption_bound(2).check(|| {
        let g = QueryGraph::new();
        let elems: Vec<Element<i64>> = (0..4)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect();
        let src = g.add_source("src", VecSource::new(elems));
        let (sink, _count) = CountSink::new();
        let k = g.add_sink("sink", sink, &src);
        g.step_node(src.node(), 1);
        assert!(g.ready().is_ready(k));
        let g = Arc::new(g);
        let consumer = {
            let g = Arc::clone(&g);
            pipes_sync::thread::spawn(move || g.step_node(k, 64).consumed)
        };
        let producer = {
            let g = Arc::clone(&g);
            let src = src.node();
            pipes_sync::thread::spawn(move || g.step_node(src, 1).produced)
        };
        assert!(consumer.join().unwrap() >= 1);
        assert_eq!(producer.join().unwrap(), 1);
        let ready = g.ready();
        let (queued, oldest, ..) = g.locked_probes(k);
        assert_eq!(ready.queued(k), queued, "published queue length");
        assert_eq!(ready.oldest_seq(k), oldest);
        assert_eq!(
            ready.is_ready(k),
            queued > 0,
            "a consumer holding input must be marked ready, a drained one not"
        );
    });
    assert!(report.complete);
    assert!(report.executions > 1, "expected multiple schedules");
}
