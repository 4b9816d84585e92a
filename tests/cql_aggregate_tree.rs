//! The paper's headline query — "the highest bid of the recent 10 minutes,
//! every 10 minutes" (NEXMark q3) — compiled from CQL text runs its scalar
//! `MAX` on the partial-aggregate tree: the CQL aggregate is combinable, so
//! `AggStrategy::Auto` converts once an insert covers `TREE_CONVERT_WIDTH`
//! partials. Read from the `agg.finalize` flight-recorder instants, whose
//! third argument is the tree-layout flag. Lives in its own test binary
//! because it inspects the process-global trace buffer.
#![cfg(not(feature = "trace-off"))]

use pipes::nexmark::generator::NexmarkConfig;
use pipes::nexmark::{self, queries};
use pipes::prelude::*;

#[test]
fn cql_max_over_ten_minutes_runs_on_the_tree() {
    let mut catalog = Catalog::new();
    // 250 ms mean spacing: about 2 400 live bids per 10-minute window.
    nexmark::register(
        &mut catalog,
        NexmarkConfig {
            max_events: 8_192,
            mean_inter_event_ms: 250.0,
            ..Default::default()
        },
    );
    let plan = compile_cql(queries::q3_highest_bid_10min(), &catalog).unwrap();
    let graph = QueryGraph::new();
    let installed = Optimizer::new().install(&plan, &graph, &catalog).unwrap();
    let (sink, out) = CollectSink::new();
    graph.add_sink("sink", sink, &installed.handle);

    pipes::trace::set_enabled(true);
    graph.run_to_completion(256);
    pipes::trace::set_enabled(false);

    assert!(!out.lock().is_empty(), "q3 delivered nothing");
    let tree_flags: Vec<u64> = pipes::trace::snapshot()
        .events
        .iter()
        .filter(|e| e.name == pipes::trace::names::AGG_FINALIZE)
        .map(|e| e.args[2])
        .collect();
    assert!(!tree_flags.is_empty(), "no agg.finalize instant recorded");
    assert_eq!(
        tree_flags.last(),
        Some(&1),
        "the scalar aggregate never converted to the tree: {tree_flags:?}"
    );
}
