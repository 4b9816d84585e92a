//! Concurrency stress: queries installed into and removed from a graph
//! *while* worker threads are executing it.
//!
//! This is the nondeterministic, wall-clock form of the kernel's
//! concurrency coverage: it shakes out races probabilistically under real
//! threads. The *deterministic* form lives in the model-checked suites
//! (`crates/graph/tests/model_check.rs`, `crates/sched/tests/model_check.rs`,
//! run by `scripts/ci.sh` under `RUSTFLAGS="--cfg pipes_model_check"`),
//! which exhaustively enumerate interleavings of the same hot scenarios —
//! concurrent push vs pop_run, racing batch flushes into one subscriber,
//! the executor completion protocol — with bounded preemptions and
//! replayable failure traces. New concurrency invariants should get a
//! model-checked test first and a stress form here only if they need
//! scale.

use pipes::graph::NodeKind;
use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::{self, Event};
use pipes::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// NEXMark bids released up to a gate the test raises as it splices, so
/// the stream outlives the splicing however fast the workers drain it.
struct GatedBids {
    gen: NexmarkGenerator,
    emitted: u64,
    gate: Arc<AtomicU64>,
}

impl SourceOp for GatedBids {
    type Out = Tuple;

    fn produce(&mut self, budget: usize, out: &mut dyn Collector<Tuple>) -> SourceStatus {
        // ordering: Relaxed — the gate carries no data; a late read only
        // delays the next release by one quantum.
        let gate = self.gate.load(Ordering::Relaxed);
        let (mut last, mut produced) = (None, 0);
        let mut status = SourceStatus::Idle;
        while produced < budget && self.emitted < gate {
            match self.gen.next_event() {
                Some(Event::Bid(b)) => {
                    last = Some(b.ts);
                    out.element(Element::at(b.to_tuple(), b.ts));
                    self.emitted += 1;
                    produced += 1;
                    status = SourceStatus::Active;
                }
                Some(_) => {}
                None => {
                    status = SourceStatus::Exhausted;
                    break;
                }
            }
        }
        if let Some(t) = last {
            out.heartbeat(t);
        }
        status
    }
}

#[test]
fn install_and_remove_queries_under_live_execution() {
    let gate = Arc::new(AtomicU64::new(4_000));
    // ordering: Relaxed — see `GatedBids::produce`.
    let open = |bids: u64| gate.fetch_add(bids, Ordering::Relaxed);
    let mut cat = Catalog::new();
    let source_gate = Arc::clone(&gate);
    cat.add_stream(
        "bid",
        nexmark::bid_schema(),
        10.0,
        Box::new(move || {
            Box::new(GatedBids {
                gen: NexmarkGenerator::new(NexmarkConfig {
                    max_events: 40_000,
                    mean_inter_event_ms: 100.0,
                    ..Default::default()
                }),
                emitted: 0,
                gate: Arc::clone(&source_gate),
            })
        }),
    );
    let cat = Arc::new(cat);
    let graph = Arc::new(QueryGraph::new());
    let mut optimizer = Optimizer::new();

    // Base query keeps the graph busy from the start.
    let base = compile_cql("SELECT * FROM bid WHERE price > 500", &cat).unwrap();
    let r = optimizer.install(&base, &graph, &cat).unwrap();
    let (sink, base_buf) = CollectSink::new();
    graph.add_sink("base", sink, &r.handle);

    // Worker threads drain whatever exists, including nodes added later.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let graph = Arc::clone(&graph);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut spin = w; // desynchronize thread cursors
                                  // ordering: Relaxed — stop is a latency-tolerant quit hint;
                                  // join() below is the real synchronization with workers.
                while !stop.load(Ordering::Relaxed) {
                    let len = graph.len();
                    if len == 0 {
                        continue;
                    }
                    spin += 1;
                    let id = spin % len;
                    graph.step_node(id, 64);
                }
            })
        })
        .collect();

    // Meanwhile, the coordinator splices queries in and out.
    let mut buffers = Vec::new();
    for i in 0..6 {
        let q = compile_cql(
            &format!(
                "SELECT auction, price FROM bid WHERE price > {}",
                1000 * (i + 1)
            ),
            &cat,
        )
        .unwrap();
        let report = optimizer.install(&q, &graph, &cat).unwrap();
        let (sink, buf) = CollectSink::new();
        let sink_id = graph.add_sink(&format!("q{i}"), sink, &report.handle);
        buffers.push((q, report, sink_id, buf));
        open(2_000);
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    // Remove half of them while execution continues.
    for (q, report, sink_id, _) in buffers.iter().take(3) {
        graph.remove_node(*sink_id);
        let _ = q;
        let _ = optimizer.retire(&report.chosen, &graph);
        open(1_000);
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Splicing is over: release the rest of the stream.
    open(u64::MAX / 2);

    // Drain to completion.
    while !graph.all_finished() {
        for id in 0..graph.len() {
            graph.step_node(id, 128);
        }
    }
    // ordering: Relaxed — see the worker loop's load.
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }

    assert!(!base_buf.lock().is_empty(), "base query produced nothing");
    // Survivors produced data consistent with their predicates.
    for (i, (_, _, _, buf)) in buffers.iter().enumerate().skip(3) {
        let rows = buf.lock();
        assert!(!rows.is_empty(), "query {i} produced nothing");
        for e in rows.iter() {
            assert!(e.payload[1].as_i64().unwrap() > 1000 * (i as i64 + 1));
        }
    }
}

/// Passes elements through, but parks inside `on_run` until released.
struct Blocking {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl Operator for Blocking {
    type In = i64;
    type Out = i64;

    fn on_element(&mut self, _port: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
        out.element(e);
    }

    fn on_run(&mut self, port: usize, run: &mut Vec<Message<i64>>, out: &mut dyn Collector<i64>) {
        let _ = self.entered.send(());
        // Bounded, so a failing run of the test still ends.
        let _ = self.release.recv_timeout(Duration::from_secs(10));
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.on_element(port, e, out),
                Message::Heartbeat(t) => self.on_heartbeat(port, t, out),
                Message::Close => {}
            }
        }
    }

    fn memory(&self) -> usize {
        7
    }

    fn state_bytes(&self) -> usize {
        700
    }
}

/// The graph's probes read what the last step published: none of them
/// waits for a node that is in the middle of a step.
#[test]
fn probes_answer_while_a_node_is_stepping() {
    let g = Arc::new(QueryGraph::new());
    let elems = (0..8)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let (entered, entered_rx) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let op = Blocking {
        entered,
        release: release_rx,
    };
    let id = g.add_unary("blocking", op, &src).node();
    g.step_node(src.node(), 4);
    let stepper = {
        let g = Arc::clone(&g);
        std::thread::spawn(move || g.step_node(id, 64))
    };
    entered_rx.recv().expect("the step reaches the operator");
    let (tx, rx) = mpsc::channel();
    let prober = {
        let g = Arc::clone(&g);
        std::thread::spawn(move || {
            let _ = tx.send(("queued", g.queued(id) as u64));
            let _ = tx.send(("oldest_pending_seq", g.oldest_pending_seq(id).unwrap_or(0)));
            let _ = tx.send(("is_finished", g.is_finished(id) as u64));
            let _ = tx.send(("all_finished", g.all_finished() as u64));
            let _ = tx.send(("memory", g.memory(id) as u64));
            let _ = tx.send(("state_bytes", g.state_bytes(id) as u64));
            let _ = tx.send(("total_queued", g.total_queued() as u64));
        })
    };
    let mut answered = Vec::new();
    while let Ok((probe, _)) = rx.recv_timeout(Duration::from_secs(2)) {
        answered.push(probe);
    }
    let _ = release.send(());
    stepper.join().expect("stepper panicked");
    prober.join().expect("prober panicked");
    assert_eq!(
        answered,
        [
            "queued",
            "oldest_pending_seq",
            "is_finished",
            "all_finished",
            "memory",
            "state_bytes",
            "total_queued"
        ],
        "a probe waited for the stepping node"
    );
    // Once the step is over, what it published is the operator's state.
    assert_eq!((g.memory(id), g.state_bytes(id)), (7, 700));
}

/// Every public probe of every node — live, resized, shed, or removed with
/// input still queued — says what the locked reference says.
fn assert_probes_match_reference(g: &QueryGraph) {
    let (mut all_finished, mut total_queued) = (true, 0);
    for id in 0..g.len() {
        let (queued, oldest, finished, memory, state_bytes) = g.locked_probes(id);
        assert_eq!(g.queued(id), queued, "queued of node {id}");
        assert_eq!(g.oldest_pending_seq(id), oldest, "oldest seq of node {id}");
        assert_eq!(g.is_finished(id), finished, "finished of node {id}");
        assert_eq!(g.memory(id), memory, "memory of node {id}");
        assert_eq!(g.state_bytes(id), state_bytes, "state bytes of node {id}");
        if !g.is_removed(id) {
            all_finished &= finished;
            total_queued += queued;
        }
    }
    assert_eq!(g.all_finished(), all_finished);
    assert_eq!(g.total_queued(), total_queued);
}

fn round(g: &QueryGraph, budget: usize) {
    for id in g.node_ids() {
        g.step_node(id, budget);
    }
}

#[test]
fn probes_match_the_locked_reference_through_churn_shed_and_resize() {
    let mut cat = Catalog::new();
    nexmark::register(
        &mut cat,
        NexmarkConfig {
            max_events: 3_000,
            ..Default::default()
        },
    );
    let g = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let install = |optimizer: &mut Optimizer, cql: &str| {
        let plan = compile_cql(cql, &cat).unwrap();
        let handle = optimizer.install(&plan, &g, &cat).unwrap().handle;
        let (sink, _) = CollectSink::new();
        (plan, g.add_sink("q", sink, &handle))
    };
    let fleet = |k: usize| {
        format!(
            "SELECT auction, price * {k} AS scaled FROM bid [RANGE 2 MINUTES] WHERE price > 1000"
        )
    };
    let mut queries: Vec<_> = (1..=4)
        .map(|k| install(&mut optimizer, &fleet(k)))
        .collect();
    let (_, counts) = install(
        &mut optimizer,
        "SELECT auction, COUNT(*) AS n FROM bid [RANGE 1 MINUTES] GROUP BY auction",
    );

    // A keyed join beside the fleet, to resize mid-run.
    let side = |offset: u64| -> Vec<Element<i64>> {
        (0..300)
            .map(|i| {
                let t = i * 3 + offset;
                Element::new(
                    i as i64,
                    TimeInterval::new(Timestamp::new(t), Timestamp::new(t + 40)),
                )
            })
            .collect()
    };
    let left = g.add_source("left", VecSource::new(side(0)));
    let right = g.add_source("right", VecSource::new(side(1)));
    let key: KeyFn<i64> = Arc::new(|v: &i64| key_hash(&(v % 7)));
    let joined = g.add_keyed_binary(
        "join",
        || {
            RippleJoin::equi(|l: &i64| l % 7, |r: &i64| r % 7, |l, r| l + r)
                .with_rekey(|l| key_hash(&(l % 7)), |r| key_hash(&(r % 7)))
        },
        Arc::clone(&key),
        key,
        2,
        None,
        &left,
        &right,
    );
    let (sink, _) = CollectSink::new();
    g.add_sink("joined", sink, &joined);
    assert_probes_match_reference(&g);

    for _ in 0..6 {
        round(&g, 8);
        assert_probes_match_reference(&g);
    }
    // Uninstall two queries right after everything upstream of the sinks
    // published, so their removed nodes keep messages queued.
    for id in g.node_ids().filter(|&id| g.kind(id) != NodeKind::Sink) {
        g.step_node(id, 16);
    }
    for (plan, sink) in queries.drain(..2) {
        optimizer.uninstall(&plan, sink, &g);
    }
    assert!(
        (0..g.len()).any(|id| g.is_removed(id) && g.queued(id) > 0),
        "a removed node should still hold input"
    );
    assert_probes_match_reference(&g);

    round(&g, 8);
    let stateful = g
        .node_ids()
        .max_by_key(|&id| g.memory(id))
        .expect("a node with state");
    assert!(g.memory(stateful) > 0);
    g.shed(stateful, g.memory(stateful) / 2);
    assert_probes_match_reference(&g);

    g.parallelize(joined.node(), 3);
    assert_probes_match_reference(&g);
    let _ = install(&mut optimizer, &fleet(9));
    for _ in 0..4 {
        round(&g, 8);
        assert_probes_match_reference(&g);
    }
    g.parallelize(joined.node(), 1);
    assert_probes_match_reference(&g);

    g.run_to_completion(64);
    assert_probes_match_reference(&g);
    assert!(g.is_finished(counts));
}
