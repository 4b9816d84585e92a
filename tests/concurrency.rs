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

use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::{self, Event};
use pipes::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
