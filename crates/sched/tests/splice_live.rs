//! Real-time (non-model-checked) version of the mid-run instance splice:
//! `QueryGraph::parallelize` against a live work-stealing executor must
//! terminate and keep the stream byte-identical; and a node spliced into or
//! removed from a graph mid-run enters and leaves the ready set with it.

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::QueryGraph;
use pipes_sched::{FifoStrategy, SchedView, Strategy, WorkStealingExecutor};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};

struct Relay;
impl pipes_graph::Operator for Relay {
    type In = i64;
    type Out = i64;
    fn on_element(
        &mut self,
        _p: usize,
        e: Element<i64>,
        out: &mut dyn pipes_graph::Collector<i64>,
    ) {
        out.element(e);
    }
}
impl pipes_graph::Rekey for Relay {
    fn export_keyed(&mut self) -> pipes_graph::KeyedState {
        Vec::new()
    }
    fn import_keyed(&mut self, _entries: pipes_graph::KeyedState) {}
}

#[test]
fn parallelize_against_live_work_stealing_executor() {
    for round in 0..20 {
        let g = QueryGraph::new();
        let n = 64i64;
        let elems: Vec<Element<i64>> = (0..n)
            .map(|i| Element::at(i, Timestamp::new(i as u64)))
            .collect();
        let src = g.add_source("src", VecSource::new(elems));
        let h = g.add_keyed_unary(
            "par",
            || Relay,
            Arc::new(|v: &i64| v.rem_euclid(2) as u64),
            1,
            None,
            &src,
        );
        let (sink, out) = CollectSink::new();
        g.add_sink("sink", sink, &h);
        let graph = Arc::new(g);
        let group = graph.shuffle_groups().pop().expect("one shuffle group");

        let splicer = {
            let graph = Arc::clone(&graph);
            pipes_sync::thread::spawn(move || {
                let fresh = graph.parallelize(group.handle, 2);
                assert_eq!(fresh.len(), 2);
            })
        };
        let reports = WorkStealingExecutor::new(2)
            .with_quantum(4)
            .run(&graph, || Box::new(FifoStrategy));
        splicer.join().unwrap();
        assert_eq!(reports.len(), 2);
        // A splice landing after the executor's stop leaves the fresh
        // instances holding a queued Close for the next run — drain it
        // single-threaded before requiring completion.
        let mut spins = 0;
        while !graph.all_finished() {
            for id in 0..graph.len() {
                graph.step_node(id, 64);
            }
            spins += 1;
            assert!(spins < 64, "round {round}: splice wedged the graph");
        }
        let got: Vec<i64> = out.lock().iter().map(|e| e.payload).collect();
        let want: Vec<i64> = (0..n).collect();
        assert_eq!(got, want, "round {round}: stream lost or reordered");
    }
}

#[test]
fn work_stealing_executor_finishes_plain_shuffle_graph() {
    let g = QueryGraph::new();
    let elems: Vec<Element<i64>> = (0..4i64)
        .map(|i| Element::at(i, Timestamp::new(i as u64)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let h = g.add_keyed_unary(
        "par",
        || Relay,
        Arc::new(|v: &i64| v.rem_euclid(2) as u64),
        2,
        None,
        &src,
    );
    let (sink, out) = CollectSink::new();
    g.add_sink("sink", sink, &h);
    let graph = Arc::new(g);
    let reports = WorkStealingExecutor::new(1)
        .with_quantum(1)
        .with_rebalance_every(0)
        .run(&graph, || Box::new(FifoStrategy));
    assert_eq!(reports.len(), 1);
    assert!(graph.all_finished());
    let got: Vec<i64> = out.lock().iter().map(|e| e.payload).collect();
    assert_eq!(got, vec![0, 1, 2, 3]);
}

#[test]
fn spliced_node_is_pickable_from_the_ready_set_and_a_removed_one_never_is() {
    let g = QueryGraph::new();
    let elems: Vec<Element<i64>> = (0..8i64)
        .map(|i| Element::at(i, Timestamp::new(i as u64 + 1)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let (first, first_out) = CollectSink::new();
    g.add_sink("first", first, &src);
    let planned: Vec<usize> = g.node_ids().collect();
    g.step_node(src.node(), 2);

    // Spliced mid-run onto the producing source: the subscription primes its
    // edge, so it is in the ready set the moment it is registered — found by
    // a scan of the bitmap, with nothing probing the node itself.
    let (late, late_out) = CollectSink::new();
    let late = g.add_sink("late", late, &src);
    assert!(g.ready().is_ready(late));
    assert!(
        SchedView::new(&g, &planned).ready().all(|r| r.id != late),
        "a candidate list planned before the splice does not offer it"
    );
    let replanned: Vec<usize> = g.node_ids().collect();
    assert!(SchedView::new(&g, &replanned).ready().any(|r| r.id == late));

    // Removed with input still queued: it leaves the ready set for good,
    // even for a scheduler still holding the candidate list that names it.
    g.step_node(src.node(), 2);
    assert!(g.ready().queued(late) > 0);
    g.remove_node(late);
    assert!(!g.ready().is_ready(late) && g.ready().is_finished(late));
    let mut strategy = FifoStrategy;
    while let Some(id) = strategy.select(&SchedView::new(&g, &replanned)) {
        assert_ne!(id, late, "a removed node was picked");
        g.step_node(id, 4);
    }
    assert!(g.all_finished());
    assert_eq!(first_out.lock().len(), 8);
    assert!(late_out.lock().is_empty(), "the removed sink never ran");
}
