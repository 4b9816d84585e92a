//! pipes-top: a `top(1)`-style live view of a running query graph.
//!
//! Drives a bursty filter/aggregate pipeline one scheduling round at a
//! time and, between rounds, samples the graph's telemetry snapshot into
//! the monitor and renders its live table — one row per node with the
//! splice epoch, the metadata plane's online estimates (input/output
//! rate, run-level selectivity), the state footprint and the queue depth.
//! Nodes whose estimator block has not warmed up yet show `-` in the
//! estimator columns. Nothing is registered anywhere: every node the
//! graph holds, including the ones spliced in mid-run, is in the snapshot.
//!
//! After the run it takes a full `MetaSnapshot` and prints each node's
//! topology-aware estimate with its confidence tag, then splices a cold
//! consumer onto the warm graph to show derivation: the new node has
//! never run, but inherits its input rate from its measured upstream.
//!
//! Run with: `cargo run --release --example pipes_top`

use pipes::prelude::*;

/// Bursty readings: flurries of `BURST` values per timestamp, so rates
/// and selectivities move between frames instead of converging instantly.
const BURST: u64 = 32;

fn readings(n: u64) -> Vec<Element<i64>> {
    (0..n)
        .map(|i| {
            let t = i / BURST;
            let v = ((i * 37) % 100) as i64;
            Element::at(v, Timestamp::new(t + 1))
        })
        .collect()
}

fn main() {
    // source → high-pass filter (drops ~half) → 64-tick window → count → sink.
    let graph = QueryGraph::new();
    let source = graph.add_source("readings", VecSource::new(readings(200_000)));
    let high = graph.add_unary("high-pass", Filter::new(|v: &i64| *v >= 50), &source);
    let windowed = graph.add_unary(
        "window-64",
        TimeWindow::new(Duration::from_ticks(64)),
        &high,
    );
    let counted = graph.add_unary("count", ScalarAggregate::new(CountAgg), &windowed);
    let (sink, results) = CollectSink::new();
    graph.add_sink("results", sink, &counted);

    // A keyed-parallel branch: per-bucket counts fanned out over two
    // instances behind a shuffle edge. The partitioner routes by
    // `key_hash` of the group key — the same hash the operator's keyed
    // state hand-off uses, so `parallelize` can re-shard it live.
    let buckets = graph.add_keyed_unary(
        "bucket-count",
        || GroupedAggregate::new(|v: &i64| v % 8, CountAgg),
        std::sync::Arc::new(|v: &i64| key_hash(&(v % 8))),
        2,
        Some(std::sync::Arc::new(
            |a: &Element<(i64, u64)>, b: &Element<(i64, u64)>| a.payload.0.cmp(&b.payload.0),
        )),
        &high,
    );
    let (bucket_sink, bucket_results) = CollectSink::new();
    graph.add_sink("buckets", bucket_sink, &buckets);

    let monitor = Monitor::new();

    // Step every node round-robin; every `rounds_per_frame` rounds, draw a
    // frame. (A terminal deployment would clear the screen and redraw in
    // place — frames are printed sequentially here to stay pipe-friendly.)
    let rounds_per_frame = 40;
    let mut frame = 0;
    let mut widened = false;
    while !graph.all_finished() {
        for _ in 0..rounds_per_frame {
            for id in graph.node_ids() {
                if !graph.is_finished(id) {
                    graph.step_node(id, 256);
                }
            }
        }
        frame += 1;
        monitor.sample(&graph.telemetry());
        if frame <= 4 {
            println!("--- frame {frame} ---");
            print!("{}", monitor.render_top());
        }
        // Live re-shard: once the metadata plane has warmed up, widen the
        // keyed branch from 2 to 4 instances against the running graph.
        // The new instances splice in mid-stream; their rows show up in
        // the next frame, tagged with the epoch they entered at.
        if frame == 2 && !widened {
            widened = true;
            let group = graph
                .shuffle_groups()
                .pop()
                .expect("the keyed branch registered a shuffle group");
            graph.parallelize(group.handle, 4);
            println!(
                "--- widened 'bucket-count' to 4 instances at epoch {} ---",
                graph.topology_epoch()
            );
        }
    }
    let telemetry = graph.telemetry();
    monitor.sample(&telemetry);
    println!("--- final ({frame} frames) ---");
    print!("{}", monitor.render_top());
    println!("window counts delivered: {}", results.lock().len());
    println!("bucket counts delivered: {}", bucket_results.lock().len());

    // Shuffle-group introspection: live instance counts per keyed group,
    // and the same snapshot as Prometheus text (the widened group's
    // instances among the per-node families, without anyone having
    // registered them).
    println!("\nshuffle groups:");
    for sg in &telemetry.groups {
        println!(
            "  {:<14} {} instances (merge node {})",
            sg.name,
            sg.instance_ids.len(),
            sg.handle
        );
    }
    let dump = pipes::trace::prometheus::render(&telemetry);
    for line in dump.lines().filter(|l| {
        l.starts_with("pipes_node_instances")
            || l.starts_with("pipes_topology_epoch")
            || l.starts_with("pipes_node_in_total{node=\"bucket-count#")
    }) {
        println!("{line}");
    }

    // The introspection surface: topology-aware estimates with provenance.
    let snap = graph.meta_snapshot(&MetaConfig::default());
    println!("\nmeta snapshot (measured while running):");
    for est in snap.iter() {
        println!(
            "  {:<12} in {:>9.1}/s out {:>9.1}/s sel {:>5.2} [{:?}]",
            est.name, est.in_rate, est.out_rate, est.selectivity, est.confidence
        );
    }

    // Derivation demo: splice a consumer that has never run onto the warm
    // filter. Its estimate is Derived — input rate inherited from the
    // measured upstream output, selectivity from the prior.
    let (cold_sink, _cold_buf) = CollectSink::new();
    let cold = graph.add_sink("cold-tap", cold_sink, &high);
    let snap = graph.meta_snapshot(&MetaConfig::default());
    let est = snap.get(cold).expect("cold tap estimate");
    println!(
        "\nspliced cold node '{}' at topology epoch {}: in {:.1}/s [{:?}] — \
         derived from 'high-pass' without ever running",
        est.name,
        graph.topology_epoch(),
        est.in_rate,
        est.confidence
    );
    monitor.sample(&graph.telemetry());
    println!("\n{}", monitor.render_top());
}
