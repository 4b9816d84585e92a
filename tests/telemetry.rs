//! Splice ⇒ observable: nodes that `Optimizer::install` and `parallelize`
//! add to a graph a work-stealing executor is draining show up in the next
//! telemetry sample — series, splice epoch, Prometheus samples, instance
//! count — without anyone registering them, and stop growing once retired.

use pipes::nexmark::{self, generator::NexmarkConfig};
use pipes::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Emits `0..released` and then idles until more is released or the gate
/// closes: the test, not the clock, decides how long the executor runs.
struct Gated {
    next: i64,
    released: Arc<AtomicI64>,
    closed: Arc<AtomicBool>,
}

impl SourceOp for Gated {
    type Out = i64;
    fn produce(&mut self, budget: usize, out: &mut dyn Collector<i64>) -> SourceStatus {
        // ordering: SeqCst — `closed` is read before `released` and written
        // after it, so a gate seen closed has its final limit visible.
        let closed = self.closed.load(Ordering::SeqCst);
        // ordering: SeqCst — see above.
        let limit = self.released.load(Ordering::SeqCst);
        let upto = limit.min(self.next + budget as i64);
        if self.next < upto {
            for v in self.next..upto {
                out.element(Element::at(v, Timestamp::new(v as u64 + 1)));
            }
            out.heartbeat(Timestamp::new(upto as u64));
            self.next = upto;
            SourceStatus::Active
        } else if closed {
            SourceStatus::Exhausted
        } else {
            SourceStatus::Idle
        }
    }
}

#[test]
fn nodes_spliced_into_a_running_graph_are_visible_without_registration() {
    let mut catalog = Catalog::new();
    nexmark::register(
        &mut catalog,
        NexmarkConfig {
            max_events: 4_000,
            ..Default::default()
        },
    );
    let graph = Arc::new(QueryGraph::new());
    let (released, closed) = (
        Arc::new(AtomicI64::new(256)),
        Arc::new(AtomicBool::new(false)),
    );
    let ticks = graph.add_source(
        "ticks",
        Gated {
            next: 0,
            released: Arc::clone(&released),
            closed: Arc::clone(&closed),
        },
    );
    let buckets = graph.add_keyed_unary(
        "bucket-count",
        || GroupedAggregate::new(|v: &i64| v % 8, CountAgg),
        Arc::new(|v: &i64| key_hash(&(v % 8))),
        2,
        None,
        &ticks,
    );
    let (sink, _) = CollectSink::new();
    graph.add_sink("buckets", sink, &buckets);
    let mut optimizer = Optimizer::new();
    let q1 = compile_cql("SELECT * FROM bid WHERE price > 100", &catalog).unwrap();
    let r1 = optimizer.install(&q1, &graph, &catalog).unwrap();
    let (sink, _) = CollectSink::new();
    graph.add_sink("q1", sink, &r1.handle);

    let executor = {
        let graph = Arc::clone(&graph);
        std::thread::spawn(move || {
            WorkStealingExecutor::new(2)
                .with_quantum(16)
                .run(&graph, || Box::new(FifoStrategy))
        })
    };
    let monitor = Monitor::new();
    monitor.sample_at(0.0, &graph.telemetry());
    let first_generation = graph.shuffle_groups()[0].instance_ids.clone();

    // Mid-run: a second query and a wider keyed group.
    let (len_before, epoch_before) = (graph.len(), graph.topology_epoch());
    let q2 = compile_cql(
        "SELECT * FROM bid [RANGE 2 MINUTES] WHERE price > 9000",
        &catalog,
    )
    .unwrap();
    let r2 = optimizer.install(&q2, &graph, &catalog).unwrap();
    let (sink, _) = CollectSink::new();
    let q2_sink = graph.add_sink("q2", sink, &r2.handle);
    let installed: Vec<NodeId> = (len_before..graph.len()).collect();
    assert!(installed.len() >= 2, "q2 created nodes of its own");
    let widened = graph.parallelize(buckets.node(), 4);
    // ordering: SeqCst — see `Gated::produce`.
    released.store(512, Ordering::SeqCst);

    let telemetry = graph.telemetry();
    monitor.sample_at(1.0, &telemetry);
    let series = monitor.series();
    let dump = pipes::trace::prometheus::render(&telemetry);
    for (k, &id) in installed.iter().chain(&widened).enumerate() {
        let row = telemetry.node(id).expect("spliced node has a row");
        // Only this thread changes the topology: every push is one bump.
        let entered = epoch_before + 1 + k as u64;
        assert_eq!(row.spliced_epoch, entered, "epoch of {}", row.info.name);
        assert_eq!(series[&id].times, vec![1.0], "series starts at the splice");
        assert!(
            dump.contains(&format!(
                "pipes_node_in_total{{node=\"{}\"}}",
                row.info.name
            )),
            "no Prometheus sample for {}",
            row.info.name
        );
    }
    assert!(dump.contains("pipes_node_instances{node=\"bucket-count\"} 4"));
    assert!(dump.contains(&format!("pipes_graph_nodes {}", telemetry.nodes.len())));
    let top = monitor.render_top();
    assert_eq!(top.matches("bucket-count#").count(), 4, "{top}");
    for id in &first_generation {
        assert!(telemetry.node(*id).is_none(), "retired instance {id}");
        assert_eq!(series[id].times, vec![0.0], "retired series stopped");
    }

    // Uninstall: the query's own nodes leave the snapshot, their series
    // stop growing; what others share keeps being sampled.
    let removed = optimizer.uninstall(&r2.chosen, q2_sink, &graph);
    assert!(removed >= 2);
    monitor.sample_at(2.0, &graph.telemetry());
    monitor.sample_at(3.0, &graph.telemetry());
    let series = monitor.series();
    let gone: Vec<&NodeId> = installed
        .iter()
        .filter(|&&id| graph.is_removed(id))
        .collect();
    assert_eq!(gone.len(), removed);
    for id in gone {
        assert_eq!(series[id].times, vec![1.0], "uninstalled node {id}");
    }
    assert_eq!(series[&widened[0]].times, vec![1.0, 2.0, 3.0]);
    assert_eq!(series[&ticks.node()].times, vec![0.0, 1.0, 2.0, 3.0]);

    // ordering: SeqCst — see `Gated::produce`.
    closed.store(true, Ordering::SeqCst);
    let reports = executor.join().expect("executor thread");
    assert_eq!(reports.len(), 2);
    assert!(graph.all_finished());
    // The counters the executor fed are what the last snapshot reports.
    let done = graph.telemetry();
    assert!(done.node(ticks.node()).unwrap().stats.out_count >= 512);
    let routed: u64 = widened
        .iter()
        .map(|&id| done.node(id).unwrap().stats.in_count)
        .sum();
    assert!(routed >= 256, "the widened instances took the second half");
}
