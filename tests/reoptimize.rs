//! Dynamic re-optimization: migrating a running query to a better plan and
//! retiring the old one — the "dynamic case" the paper names as the next
//! step for its (statically used) optimizer.

use pipes::nexmark::{self, generator::NexmarkConfig};
use pipes::prelude::*;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    nexmark::register(
        &mut cat,
        NexmarkConfig {
            max_events: 6_000,
            mean_inter_event_ms: 250.0,
            ..Default::default()
        },
    );
    cat
}

#[test]
fn migrate_then_retire_frees_exclusive_nodes_only() {
    let cat = catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();

    // Two queries sharing the windowed scan.
    let q_keep = compile_cql(
        "SELECT * FROM bid [RANGE 2 MINUTES] WHERE price > 2000",
        &cat,
    )
    .unwrap();
    let q_old = compile_cql(
        "SELECT * FROM bid [RANGE 2 MINUTES] WHERE price > 9000",
        &cat,
    )
    .unwrap();
    let r_keep = optimizer.install(&q_keep, &graph, &cat).unwrap();
    let (sk, keep_buf) = CollectSink::new();
    graph.add_sink("keep", sk, &r_keep.handle);

    let r_old = optimizer.install(&q_old, &graph, &cat).unwrap();
    let (so, _old_buf) = CollectSink::new();
    let old_sink = graph.add_sink("old", so, &r_old.handle);

    // Let the graph run a while.
    for _ in 0..4 {
        for id in 0..graph.len() {
            graph.step_node(id, 32);
        }
    }

    // Migrate: the application replaces q_old with a revised query.
    let q_new = compile_cql(
        "SELECT * FROM bid [RANGE 2 MINUTES] WHERE price > 9000 AND auction > 2",
        &cat,
    )
    .unwrap();
    let r_new = optimizer.install(&q_new, &graph, &cat).unwrap();
    assert!(r_new.reused >= 1, "migration should share the running scan");
    let (sn, new_buf) = CollectSink::new();
    graph.add_sink("new", sn, &r_new.handle);

    // Unsubscribe the old sink and retire the old plan.
    graph.remove_node(old_sink);
    let live_before = graph.infos().iter().filter(|i| !i.removed).count();
    let removed = optimizer.retire(&r_old.chosen, &graph);
    let live_after = graph.infos().iter().filter(|i| !i.removed).count();

    assert!(removed >= 1, "old exclusive node must be retired");
    assert_eq!(live_before - removed, live_after);

    // The shared scan and the surviving queries keep working.
    graph.run_to_completion(64);
    assert!(!keep_buf.lock().is_empty());
    assert!(!new_buf.lock().is_empty());
    for e in new_buf.lock().iter() {
        // bid schema: [auction, bidder, price]
        assert!(e.payload[2].as_i64().unwrap() > 9000);
        assert!(e.payload[0].as_i64().unwrap() > 2);
    }

    // Reinstalling the retired query works (it is gone from the index).
    let r_again = optimizer.install(&q_old, &graph, &cat).unwrap();
    assert!(r_again.created >= 1);
}

#[test]
fn retire_keeps_shared_subplans_alive() {
    let cat = catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();

    let q1 = compile_cql("SELECT * FROM bid WHERE price > 100", &cat).unwrap();
    let q2 = compile_cql("SELECT * FROM bid WHERE price > 100", &cat).unwrap();
    let r1 = optimizer.install(&q1, &graph, &cat).unwrap();
    let s1 = {
        let (sink, _) = CollectSink::new();
        graph.add_sink("s1", sink, &r1.handle)
    };
    let r2 = optimizer.install(&q2, &graph, &cat).unwrap();
    assert_eq!(r2.created, 0, "identical query is fully shared");
    let (sink, buf2) = CollectSink::new();
    graph.add_sink("s2", sink, &r2.handle);

    // Retiring q1 while q2 still consumes the same plan must remove nothing.
    graph.remove_node(s1);
    let removed = optimizer.retire(&r1.chosen, &graph);
    assert_eq!(removed, 0, "shared plan still has a consumer");

    graph.run_to_completion(64);
    assert!(!buf2.lock().is_empty(), "survivor still gets data");
}

/// Live nodes of `graph`.
fn live(graph: &QueryGraph) -> Vec<String> {
    (graph.infos().into_iter())
        .filter(|i| !i.removed)
        .map(|i| i.name)
        .collect()
}

/// Steps every node a few times.
fn step_a_little(graph: &QueryGraph) {
    for _ in 0..3 {
        for id in graph.node_ids().collect::<Vec<_>>() {
            graph.step_node(id, 16);
        }
    }
}

/// Uninstalling one query removes only nodes of its own plan: another
/// query's nodes stay even while nothing consumes them yet.
#[test]
fn uninstall_leaves_an_installed_query_that_has_no_sink_yet() {
    let cat = catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let q1 = compile_cql(nexmark::queries::q1_currency_conversion(), &cat).unwrap();
    let q2 = compile_cql(nexmark::queries::q2_selection(), &cat).unwrap();
    let r1 = optimizer.install(&q1, &graph, &cat).unwrap();
    let (sink, _) = CollectSink::new();
    let s1 = graph.add_sink("q1", sink, &r1.handle);
    step_a_little(&graph);

    // q2 is installed (sharing the bid scan) but its sink is not attached.
    let r2 = optimizer.install(&q2, &graph, &cat).unwrap();
    assert_eq!(
        optimizer.uninstall(&q1, s1, &graph),
        2,
        "q1's sink and project"
    );
    assert!(
        !graph.is_removed(r2.handle.node()),
        "q2's result: {:?}",
        live(&graph)
    );
    assert_eq!(live(&graph).len(), 1 + r2.created, "bid and q2's nodes");

    // q2 still runs: attached now, it sees every bid that follows.
    let (sink, out) = CollectSink::new();
    graph.add_sink("q2", sink, &r2.handle);
    graph.run_to_completion(64);
    assert!(!out.lock().is_empty(), "q2 delivered nothing");
}

/// A node no subplan of the uninstalled query names is never removed.
#[test]
fn uninstall_leaves_an_unrelated_source_without_a_consumer() {
    let cat = catalog();
    let graph = QueryGraph::new();
    let mut optimizer = Optimizer::new();
    let idle = graph.add_source("idle", VecSource::<Tuple>::new(Vec::new()));
    let q = compile_cql(nexmark::queries::q2_selection(), &cat).unwrap();
    let r = optimizer.install(&q, &graph, &cat).unwrap();
    let (sink, _) = CollectSink::new();
    let s = graph.add_sink("q", sink, &r.handle);
    step_a_little(&graph);

    optimizer.uninstall(&q, s, &graph);
    assert!(
        !graph.is_removed(idle.node()),
        "the idle source was removed"
    );
    assert_eq!(live(&graph), vec!["idle".to_string()]);
    assert_eq!(optimizer.installed_count(), 0);
}

/// Uninstall finds every node its install built: those of a variant that
/// differs from the user's plan (a pushed filter, a commuted join) and a
/// sampled aggregate's intermediate nodes, which no subplan names.
#[test]
fn uninstall_removes_every_node_of_each_canned_query() {
    use pipes::traffic::{self, generator::FspConfig, queries as fsp};
    let bids = catalog();
    let mut cars = Catalog::new();
    traffic::register(&mut cars, FspConfig::default());
    let mut cases: Vec<(&Catalog, String, LogicalPlan)> = (nexmark::queries::all().into_iter())
        .map(|(name, sql)| (&bids, name.to_string(), compile_cql(sql, &bids).unwrap()))
        .collect();
    for sql in [
        fsp::q1_hov_avg_speed_cql(),
        fsp::q3_section_flow_cql(),
        fsp::q4_truck_share_cql(),
    ] {
        cases.push((&cars, sql.to_string(), compile_cql(sql, &cars).unwrap()));
    }
    cases.push((&cars, "FSP q1 plan".into(), fsp::q1_hov_avg_speed_plan()));
    let q2 = fsp::q2_persistent_slowdown_plan(0, 40.0);
    cases.push((&cars, "FSP q2 plan".into(), q2));

    let mut differs = 0;
    for (cat, name, plan) in cases {
        let graph = QueryGraph::new();
        let mut optimizer = Optimizer::new();
        let r = optimizer.install(&plan, &graph, cat).unwrap();
        differs += usize::from(r.chosen != plan);
        let (sink, _) = CollectSink::new();
        let s = graph.add_sink("sink", sink, &r.handle);
        step_a_little(&graph);
        let before = live(&graph).len();
        assert_eq!(optimizer.uninstall(&plan, s, &graph), before, "{name}");
        assert_eq!(live(&graph), Vec::<String>::new(), "{name}");
        assert_eq!(optimizer.installed_count(), 0, "{name}");
    }
    assert!(differs > 0, "no installed variant differs from its plan");
}
