//! The traced run: a benchmark-owned single-thread driver around the same
//! two public calls `SingleThreadExecutor` makes — `Strategy::select` and
//! `QueryGraph::step_node` — recording one span per call and the
//! `StepReport` counts at the same boundary. End-to-end metrics never come
//! from here.

use crate::phase::{self, Churn};
use crate::replay::Limit;
use crate::workloads::{self, Input, Kind, PhaseCfg, Spec, CHURN_TICK_MS, QUANTUM};
use pipes::graph::NodeKind;
use pipes::prelude::*;
use pipes::sched::SchedView;
use std::time::{Duration, Instant};

/// Raw spans kept for the trace file; every span is folded regardless.
pub const MAX_RAW_SPANS: usize = 20_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Workload,
    Phase,
    Quantum,
    Select,
    Step,
    Churn,
}

/// One recorded call. Spans of a phase share the phase span as ancestor:
/// workload ⊃ phase ⊃ quantum ⊃ {select, step[node]}.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: SpanKind,
    /// The node a step ran, or the node a select picked.
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub consumed: u32,
    pub produced: u32,
}

/// The layer a node's step time is charged to, by `NodeInfo.name`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Source,
    Sink,
    Stateless,
    Window,
    Aggregate,
    Every,
    Join,
    Shuffle,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Source,
        Class::Sink,
        Class::Stateless,
        Class::Window,
        Class::Aggregate,
        Class::Every,
        Class::Join,
        Class::Shuffle,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Source => "graph.source",
            Class::Sink => "graph.sink",
            Class::Stateless => "ops.stateless",
            Class::Window => "ops.window",
            Class::Aggregate => "ops.aggregate",
            Class::Every => "ops.every",
            Class::Join => "ops.join",
            Class::Shuffle => "graph.shuffle",
        }
    }

    fn of(kind: NodeKind, name: &str) -> Class {
        match kind {
            NodeKind::Source => Class::Source,
            NodeKind::Sink => Class::Sink,
            NodeKind::Operator => {
                if name.ends_with(".part")
                    || name.ends_with(".lpart")
                    || name.ends_with(".rpart")
                    || name.ends_with(".merge")
                {
                    Class::Shuffle
                } else if name.starts_with("window") {
                    Class::Window
                } else if name.starts_with("aggregate[flatten]") {
                    Class::Stateless
                } else if name.starts_with("aggregate") {
                    Class::Aggregate
                } else if name.starts_with("every") {
                    Class::Every
                } else if name.starts_with("join") {
                    Class::Join
                } else {
                    Class::Stateless
                }
            }
        }
    }
}

#[derive(Clone, Default)]
pub struct NodeCost {
    pub step_ns: u64,
    pub quanta: u64,
    pub consumed: u64,
    pub produced: u64,
}

pub struct TracedNode {
    pub id: NodeId,
    pub name: String,
    pub class: Class,
    pub cost: NodeCost,
}

/// Everything the traced phase recorded, folded per node.
#[derive(Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    pub nodes: Vec<TracedNode>,
    pub select_ns: u64,
    pub quanta: u64,
    pub empty_quanta: u64,
    pub churn_ns: u64,
    pub wall_ns: u64,
    pub emitted: u64,
    pub state_bytes_peak: usize,
    pub clean: bool,
    pub undelivered: u64,
    pub churn: Churn,
    pub splice_ms: Vec<f64>,
    /// Input counts of the keyed instances, per shuffle group.
    pub shuffle_inputs: Vec<Vec<u64>>,
}

struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    next_id: u32,
    dropped: u64,
}

impl Recorder {
    fn now(&self) -> u64 {
        let d = self.base.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    fn push(
        &mut self,
        parent: u32,
        kind: SpanKind,
        node: usize,
        at: (u64, u64),
        io: (usize, usize),
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < MAX_RAW_SPANS {
            self.spans.push(Span {
                id,
                parent,
                kind,
                node: node as u32,
                start_ns: at.0,
                end_ns: at.1,
                consumed: io.0 as u32,
                produced: io.1 as u32,
            });
        } else {
            self.dropped += 1;
        }
        id
    }
}

/// Runs one saturation phase of `secs` seconds under the traced driver.
pub fn run(spec: &Spec, input: &Input, secs: f64, seed: u64) -> Traced {
    let cfg = PhaseCfg::saturate(Limit::After(Duration::from_secs_f64(secs)), seed);
    let mut built = workloads::build(spec.kind, input, &cfg);
    let graph = std::sync::Arc::clone(&built.graph);
    let mut fleet = match spec.kind {
        Kind::NexmarkFleetChurn => built.queries.take(),
        _ => None,
    };
    // The strategy the workload's executor runs.
    let mut strategy: Box<dyn Strategy> = match spec.kind {
        Kind::NexmarkJoinKeyed => Box::new(RoundRobinStrategy::new()),
        _ => Box::new(FifoStrategy),
    };

    let mut rec = Recorder {
        base: Instant::now(),
        spans: Vec::new(),
        next_id: 0,
        dropped: 0,
    };
    // Closed when the phase ends.
    let workload_span = rec.push(0, SpanKind::Workload, 0, (0, 0), (0, 0));
    let phase_span = rec.push(workload_span, SpanKind::Phase, 0, (0, 0), (0, 0));
    let mut costs: Vec<NodeCost> = Vec::new();
    let mut traced = Traced::default();

    let mut nodes: Vec<NodeId> = graph.node_ids().collect();
    let mut epoch = graph.topology_epoch();
    let last_tick_ns = ((secs * 1e9) as u64).saturating_sub(2 * CHURN_TICK_MS * 1_000_000);
    let mut tick = 1u64;
    let mut idle_rounds = 0u32;
    let mut t0 = rec.now();
    loop {
        if let Some(fleet) = fleet.as_mut() {
            let at_ns = tick * CHURN_TICK_MS * 1_000_000;
            if at_ns <= last_tick_ns && built.clock.now_ns() >= at_ns {
                let (install_us, uninstall_us) = fleet.churn(&mut built);
                traced.churn.install_us.push(install_us);
                traced.churn.uninstall_us.push(uninstall_us);
                tick += 1;
                let t = rec.now();
                rec.push(phase_span, SpanKind::Churn, 0, (t0, t), (0, 0));
                traced.churn_ns += t - t0;
                t0 = t;
            }
        }
        if graph.topology_epoch() != epoch {
            epoch = graph.topology_epoch();
            nodes = graph.node_ids().collect();
        }
        if nodes.iter().all(|&id| graph.is_finished(id)) {
            break;
        }
        let ts = rec.now();
        let picked = strategy.select(&SchedView::new(&graph, &nodes));
        let t1 = rec.now();
        traced.select_ns += t1 - ts;
        let Some(id) = picked else {
            idle_rounds += 1;
            if idle_rounds > 1_000 {
                break;
            }
            t0 = t1;
            continue;
        };
        let step = graph.step_node(id, QUANTUM);
        let t2 = rec.now();

        if costs.len() <= id {
            costs.resize(id + 1, NodeCost::default());
        }
        let c = &mut costs[id];
        c.step_ns += t2 - t1;
        c.quanta += 1;
        c.consumed += step.consumed as u64;
        c.produced += step.produced as u64;
        traced.quanta += 1;
        if step.consumed == 0 && step.produced == 0 {
            traced.empty_quanta += 1;
            idle_rounds += 1;
            if idle_rounds > 10_000 {
                break;
            }
        } else {
            idle_rounds = 0;
        }
        if traced.quanta % 64 == 0 {
            let bytes = nodes.iter().map(|&n| graph.state_bytes(n)).sum();
            traced.state_bytes_peak = traced.state_bytes_peak.max(bytes);
        }
        let t3 = rec.now();
        let q = rec.push(phase_span, SpanKind::Quantum, id, (t0, t3), (0, 0));
        rec.push(q, SpanKind::Select, id, (ts, t1), (0, 0));
        rec.push(
            q,
            SpanKind::Step,
            id,
            (t1, t2),
            (step.consumed, step.produced),
        );
        t0 = t3;
    }
    let end = rec.now();
    phase::drain(&graph);
    traced.wall_ns = end;
    for open in [workload_span, phase_span] {
        rec.spans[open as usize].end_ns = end;
    }
    traced.spans = std::mem::take(&mut rec.spans);
    traced.spans_dropped = rec.dropped;

    for (id, cost) in costs.into_iter().enumerate() {
        if cost.quanta == 0 {
            continue;
        }
        let info = graph.info(id);
        traced.nodes.push(TracedNode {
            id,
            class: Class::of(info.kind, &info.name),
            name: info.name,
            cost,
        });
    }
    traced.shuffle_inputs = graph
        .shuffle_groups()
        .iter()
        .map(|g| {
            g.instance_ids
                .iter()
                .map(|&i| graph.stats(i).snapshot().in_count)
                .collect()
        })
        .collect();

    if fleet.is_some() {
        built.queries = fleet;
    }
    let outcome = phase::summarize(
        built,
        ExecutionReport::default(),
        end as f64 / 1e9,
        Churn::default(),
    );
    traced.emitted = outcome.emitted;
    traced.clean = outcome.clean;
    traced.undelivered = outcome.undelivered;
    traced.splice_ms = outcome.splice_ms;
    traced
}

/// One row of the ns/message table.
pub struct LayerRow {
    pub label: &'static str,
    pub ns: u64,
    pub msgs: u64,
}

impl Traced {
    /// Step time and messages per node class. Sources count produced
    /// elements, everything else consumed messages.
    pub fn class_row(&self, class: Class) -> LayerRow {
        let mut row = LayerRow {
            label: class.label(),
            ns: 0,
            msgs: 0,
        };
        for n in self.nodes.iter().filter(|n| n.class == class) {
            row.ns += n.cost.step_ns;
            row.msgs += if class == Class::Source {
                n.cost.produced
            } else {
                n.cost.consumed
            };
        }
        row
    }

    /// The whole table: every node class, the scheduler's pick, the churn
    /// and the driver's own bookkeeping (quantum self time).
    pub fn table(&self) -> Vec<LayerRow> {
        let mut rows: Vec<LayerRow> = Class::ALL.iter().map(|&c| self.class_row(c)).collect();
        let stepped: u64 = rows.iter().map(|r| r.ns).sum();
        rows.push(LayerRow {
            label: "sched.select",
            ns: self.select_ns,
            msgs: self.quanta,
        });
        rows.push(LayerRow {
            label: "optimizer.churn",
            ns: self.churn_ns,
            msgs: self.churn.install_us.len() as u64,
        });
        rows.push(LayerRow {
            label: "bench.driver",
            ns: self
                .wall_ns
                .saturating_sub(stepped + self.select_ns + self.churn_ns),
            msgs: self.quanta,
        });
        rows
    }

    /// Self time per input message of `class` above the kernel floor.
    pub fn self_ns(&self, class: Class, floor_ns: f64) -> f64 {
        let row = self.class_row(class);
        if row.msgs == 0 {
            return 0.0;
        }
        (row.ns as f64 / row.msgs as f64 - floor_ns).max(0.0)
    }
}
