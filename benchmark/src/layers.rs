//! Per-layer costs taken by timing calls into public functions, outside any
//! phase: the generators, the kernel floor, and the optimizer/planner calls
//! on a scratch graph.

use crate::inputs::{self, BLOCK_EVENTS};
use crate::replay::Limit;
use crate::stats::median;
use crate::workloads::{self, Input, Kind, PhaseCfg, QUANTUM};
use pipes::graph::NodeKind;
use pipes::nexmark::generator::NexmarkGenerator;
use pipes::prelude::*;
use pipes::traffic::generator::FspGenerator;
use std::hint::black_box;
use std::time::Instant;

/// ns per `NexmarkGenerator::next_event`, one block.
pub fn gen_nexmark_ns(seed: u64) -> f64 {
    let mut gen = NexmarkGenerator::new(inputs::nexmark_config(seed, BLOCK_EVENTS));
    let t = Instant::now();
    let mut n = 0u64;
    while let Some(ev) = gen.next_event() {
        black_box(&ev);
        n += 1;
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// ns per `FspGenerator::next_reading`, one block.
pub fn gen_traffic_ns(seed: u64) -> f64 {
    let mut gen = FspGenerator::new(inputs::traffic_config(seed));
    let t = Instant::now();
    for _ in 0..BLOCK_EVENTS {
        black_box(gen.next_reading());
    }
    t.elapsed().as_nanos() as f64 / BLOCK_EVENTS as f64
}

/// The kernel floor: ns per message of `step_node` on one operator of a
/// four-operator identity-`Map` chain over tuple rows — edge drain, node-step
/// bookkeeping, output flush and nothing else. Median of three runs.
pub fn step_floor_ns() -> f64 {
    const ROWS: usize = 1 << 17;
    let mut runs = Vec::new();
    for _ in 0..3 {
        let g = QueryGraph::new();
        let rows = (0..ROWS as i64)
            .map(|i| {
                Element::at(
                    vec![Value::Int(i), Value::Int(i * 7), Value::Int(100)],
                    Timestamp::new(i as u64),
                )
            })
            .collect();
        let mut handle = g.add_source("rows", VecSource::new(rows));
        let mut ops = Vec::new();
        for i in 0..4 {
            handle = g.add_unary(&format!("identity{i}"), Map::new(|t: Tuple| t), &handle);
            ops.push(handle.node());
        }
        let (sink, _) = CountSink::new();
        g.add_sink("sink", sink, &handle);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (mut ns, mut msgs) = (0u128, 0u64);
        while !g.all_finished() {
            for &id in &ids {
                if ops.contains(&id) {
                    let t = Instant::now();
                    let step = g.step_node(id, QUANTUM);
                    ns += t.elapsed().as_nanos();
                    msgs += step.consumed as u64;
                } else {
                    g.step_node(id, QUANTUM);
                }
            }
        }
        runs.push(ns as f64 / msgs.max(1) as f64);
    }
    median(&runs)
}

/// Optimizer and planner calls timed on a scratch graph that never runs.
pub struct Scratch {
    pub compile_us: f64,
    pub install_us: f64,
    pub uninstall_us: f64,
    pub plan_analyze_us: f64,
    pub nodes: usize,
    pub groups: usize,
    /// Nodes of one isolated plan per query ÷ non-sink nodes of the shared
    /// graph (1 for the hand-typed plan).
    pub shared_node_ratio: f64,
}

pub fn scratch(kind: Kind, input: &Input) -> Scratch {
    let mut built = workloads::build(kind, input, &PhaseCfg::saturate(Limit::Events(0), 0));
    let graph = &built.graph;
    let analyze: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(ExecutionPlan::analyze(graph));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let nodes = graph.node_ids().count();
    let groups = ExecutionPlan::analyze(graph).groups().len();
    let sinks = graph
        .node_ids()
        .filter(|&id| graph.kind(id) == NodeKind::Sink)
        .count();

    let mut shared_node_ratio = 1.0;
    let mut uninstall = Vec::new();
    if let Some(q) = built.queries.as_mut() {
        let isolated: usize = q
            .live
            .iter()
            .map(|&(i, _)| {
                let scratch_graph = QueryGraph::new();
                Optimizer::new()
                    .install(&q.plans[i], &scratch_graph, &q.catalog)
                    .expect("isolated install")
                    .created
            })
            .sum();
        shared_node_ratio = isolated as f64 / (nodes - sinks).max(1) as f64;
        for &(i, sink) in &q.live {
            let t = Instant::now();
            q.optimizer.uninstall(&q.plans[i], sink, graph);
            uninstall.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Scratch {
        compile_us: median(&built.compile_us),
        install_us: median(&built.install_us),
        uninstall_us: median(&uninstall),
        plan_analyze_us: median(&analyze),
        nodes,
        groups,
        shared_node_ratio,
    }
}
