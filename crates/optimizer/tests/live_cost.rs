//! Live-snapshot costing end to end: warm up a real graph, take a
//! `MetaSnapshot`, and verify the cost model prices plan fragments at the
//! rates the graph actually observed — not at the catalog's (deliberately
//! wrong) static hints.

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::{Collector, Confidence, MetaConfig, Operator, QueryGraph};
use pipes_optimizer::cost::{estimate, estimate_live, estimate_with_sunk, LiveCostSource};
use pipes_optimizer::{Catalog, Expr, LogicalPlan, Schema};
use pipes_time::{Element, Timestamp};
use std::collections::HashSet;

/// Drops odd payloads: element-level selectivity 0.5, the live counterpart
/// of the logical `Filter` fragment costed below.
struct DropOdd;

impl Operator for DropOdd {
    type In = i64;
    type Out = i64;
    fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
        if e.payload % 2 == 0 {
            out.element(e);
        }
    }
}

fn catalog_with_wrong_hint() -> Catalog {
    let mut cat = Catalog::new();
    // The static hint is off by orders of magnitude on purpose: any
    // estimate matching observation must have come through the snapshot.
    cat.add_stream(
        "s",
        Schema::of(&["v"]),
        7.0,
        Box::new(|| unreachable!("live-cost tests drive the graph directly")),
    );
    cat
}

fn stream() -> LogicalPlan {
    LogicalPlan::Stream {
        name: "s".into(),
        alias: None,
    }
}

fn filtered() -> LogicalPlan {
    LogicalPlan::Filter {
        input: Box::new(stream()),
        predicate: Expr::col("v").eq(Expr::lit(0i64)),
    }
}

#[test]
fn warm_graph_estimates_match_observed_rates() {
    if pipes_graph::meta::META_COMPILED_OUT {
        return;
    }
    // Physical twin of `filtered()`: source → drop-half filter → sink.
    let n: i64 = 40_000;
    let g = QueryGraph::new();
    let elems = (0..n)
        .map(|v| Element::at(v, Timestamp::new(v as u64)))
        .collect();
    let src = g.add_source("s", VecSource::new(elems));
    let filter = g.add_unary("filter", DropOdd, &src);
    let (sink, buf) = CollectSink::new();
    g.add_sink("sink", sink, &filter);
    g.run_to_completion(256);
    assert_eq!(buf.lock().len() as i64, n / 2);

    let snap = g.meta_snapshot(&MetaConfig::default());
    let src_est = snap.get(src.node()).unwrap();
    let filter_est = snap.get(filter.node()).unwrap();
    assert_eq!(src_est.confidence, Confidence::Measured);
    assert_eq!(filter_est.confidence, Confidence::Measured);
    assert!(
        (filter_est.selectivity - 0.5).abs() < 0.05,
        "observed selectivity {}",
        filter_est.selectivity
    );

    let cat = catalog_with_wrong_hint();
    let mut live = LiveCostSource::new(&snap);
    live.bind_stream("s", src.node());
    live.bind_subplan(&filtered(), filter.node());

    // 1. A bound stream is costed at its observed rate, not the hint.
    let sunk = HashSet::new();
    let live_stream = estimate_live(&stream(), &cat, &sunk, &live);
    assert!(
        (live_stream.rate - src_est.out_rate).abs() < 1e-9,
        "stream rate {} must be the observed {}",
        live_stream.rate,
        src_est.out_rate
    );
    assert_ne!(estimate(&stream(), &cat).rate, live_stream.rate);

    // 2. A bound installed fragment reports the rate the graph measured —
    //    the filter's real output rate, not hint × heuristic selectivity.
    let live_filter = estimate_live(&filtered(), &cat, &sunk, &live);
    assert!(
        (live_filter.rate - filter_est.out_rate).abs() < 1e-9,
        "filter rate {} must be the observed {}",
        live_filter.rate,
        filter_est.out_rate
    );
    // ...and observation ties the fragment's rate to its input within
    // tolerance: out ≈ in × observed selectivity.
    assert!(
        (live_filter.rate / live_stream.rate - filter_est.selectivity).abs() < 0.05,
        "costed rates {} / {} drifted from observed selectivity {}",
        live_filter.rate,
        live_stream.rate,
        filter_est.selectivity
    );

    // 3. A candidate plan *on top of* the installed fragment is costed
    //    from the live rate: a projection over the filter pays for the
    //    filter's observed output stream, and sinking the fragment zeroes
    //    exactly the structural cost below the splice point.
    let project = LogicalPlan::Project {
        input: Box::new(filtered()),
        exprs: vec![(Expr::col("v"), "v".to_string())],
    };
    let mut sunk_filter = HashSet::new();
    sunk_filter.insert(project.inputs()[0]);
    let marginal = estimate_live(&project, &cat, &sunk_filter, &live);
    assert!(
        (marginal.rate - filter_est.out_rate).abs() < 1e-9,
        "projection preserves the observed fragment rate"
    );
    let expected_marginal_cost = filter_est.out_rate * 0.2;
    assert!(
        (marginal.cost - expected_marginal_cost).abs() < 1e-6,
        "marginal cost {} must be the projection over the live rate {}",
        marginal.cost,
        expected_marginal_cost
    );
    let full = estimate_live(&project, &cat, &sunk, &live);
    assert!(
        marginal.cost < full.cost,
        "sunk fragment must discount: {} !< {}",
        marginal.cost,
        full.cost
    );
}

#[test]
fn cold_snapshot_falls_back_to_static_hints() {
    // An all-cold graph yields Prior-confidence estimates, which the live
    // model must refuse — static and live costing then agree exactly.
    let g = QueryGraph::new();
    let src = g.add_source("s", VecSource::new(Vec::<Element<i64>>::new()));
    let cat = catalog_with_wrong_hint();
    let snap = g.meta_snapshot(&MetaConfig::default());
    assert_eq!(snap.get(src.node()).unwrap().confidence, Confidence::Prior);

    let mut live = LiveCostSource::new(&snap);
    live.bind_stream("s", src.node());
    let sunk = HashSet::new();
    let live_est = estimate_live(&stream(), &cat, &sunk, &live);
    let static_est = estimate_with_sunk(&stream(), &cat, &sunk);
    assert_eq!(live_est, static_est, "priors must not override the catalog");
    assert_eq!(live_est.rate, 7.0);
}

#[test]
fn unbound_fragments_ignore_the_snapshot() {
    let g = QueryGraph::new();
    let cat = catalog_with_wrong_hint();
    let snap = g.meta_snapshot(&MetaConfig::default());
    let live = LiveCostSource::new(&snap); // no bindings at all
    let sunk = HashSet::new();
    assert_eq!(
        estimate_live(&filtered(), &cat, &sunk, &live),
        estimate_with_sunk(&filtered(), &cat, &sunk),
    );
}
