//! `QueryGraph::telemetry()` is the one gather: on a quiescent graph every
//! row of the snapshot equals what the per-node accessors report, and the
//! graph-level fields equal `topology_epoch()` / `shuffle_groups()`.

use pipes_graph::io::{CollectSink, VecSource};
use pipes_graph::{Collector, KeyedState, Operator, QueryGraph, Rekey};
use pipes_sync::Arc;
use pipes_time::{Element, Timestamp};

struct Relay;
impl Operator for Relay {
    type In = i64;
    type Out = i64;
    fn on_element(&mut self, _p: usize, e: Element<i64>, out: &mut dyn Collector<i64>) {
        out.element(e);
    }
    fn memory(&self) -> usize {
        3
    }
    fn state_bytes(&self) -> usize {
        96
    }
}
impl Rekey for Relay {
    fn export_keyed(&mut self) -> KeyedState {
        Vec::new()
    }
    fn import_keyed(&mut self, _entries: KeyedState) {}
}

#[test]
fn snapshot_equals_the_per_node_accessors() {
    let g = QueryGraph::new();
    let elems: Vec<Element<i64>> = (0..512i64)
        .map(|i| Element::at(i, Timestamp::new(i as u64 + 1)))
        .collect();
    let src = g.add_source("src", VecSource::new(elems));
    let relay = g.add_unary("relay", Relay, &src);
    let keyed = g.add_keyed_unary(
        "par",
        || Relay,
        Arc::new(|v: &i64| v.rem_euclid(4) as u64),
        2,
        None,
        &relay,
    );
    let (sink, _) = CollectSink::new();
    g.add_sink("sink", sink, &keyed);
    let (tap, _) = CollectSink::new();
    let tap = g.add_sink("tap", tap, &relay);

    // Part of the input drained, part still queued; one node retired, the
    // keyed group re-sized (retiring its first generation), one node
    // spliced late and never stepped.
    for _ in 0..3 {
        for id in g.node_ids() {
            g.step_node(id, 64);
        }
    }
    g.remove_node(tap);
    let fresh = g.parallelize(keyed.node(), 3);
    let (late, _) = CollectSink::new();
    let late = g.add_sink("late", late, &relay);
    for id in g.node_ids().filter(|&id| id != late) {
        g.step_node(id, 16);
    }

    let t = g.telemetry();
    assert_eq!(t.topology_epoch, g.topology_epoch());
    assert_eq!(t.groups, g.shuffle_groups());
    assert_eq!(t.groups[0].instance_ids, fresh);
    let live: Vec<usize> = g.node_ids().collect();
    assert_eq!(
        t.nodes.iter().map(|n| n.info.id).collect::<Vec<_>>(),
        live,
        "one row per live node, in id order"
    );
    assert!(t.node(tap).is_none(), "retired nodes have no row");
    let mut queued = 0;
    for row in &t.nodes {
        let id = row.info.id;
        assert_eq!(row.info, g.info(id));
        assert_eq!(row.stats, g.stats(id).snapshot(), "counters of {id}");
        assert_eq!(row.meta.is_some(), g.meta(id).snapshot().is_some());
        if let (Some(a), Some(b)) = (row.meta, g.meta(id).snapshot()) {
            // Only the snapshot's age moves on a quiescent graph.
            assert_eq!((a.in_rate, a.selectivity), (b.in_rate, b.selectivity));
            assert_eq!(a.selectivity_samples, b.selectivity_samples);
        }
        assert_eq!(row.queue_len, g.queued(id), "queue depth of {id}");
        assert_eq!(row.memory, g.ready().memory(id));
        assert_eq!(row.stats.state_bytes, g.state_bytes(id));
        queued += row.queue_len;
    }
    assert_eq!(queued, g.total_queued());
    assert!(queued > 0, "the scenario leaves input queued");
    assert!(t
        .nodes
        .iter()
        .any(|n| n.memory == 3 && n.stats.state_bytes == 96));

    // Splice epochs: strictly increasing with the id (every push bumps the
    // epoch before the next), and the late sink entered last.
    for pair in t.nodes.windows(2) {
        assert!(pair[0].spliced_epoch < pair[1].spliced_epoch);
    }
    let late_row = t.node(late).expect("spliced node is in the snapshot");
    assert_eq!(late_row.spliced_epoch, t.topology_epoch);
    assert_eq!(late_row.stats.in_count, 0, "never stepped");
    assert_eq!(t.node(src.node()).unwrap().spliced_epoch, 2);
}
