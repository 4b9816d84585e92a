//! The five workloads: their frozen constants, their inputs, and how one
//! phase's graph is built from CQL text (or, for the join, by hand).

use crate::inputs::{self, Pair, SplitMix, BLOCK_EVENTS};
use crate::replay::{Block, Limit, Pace, PhaseClock, ReplaySource, SourceTally};
use crate::stats::Histogram;
use pipes::nexmark::queries as nexmark_queries;
use pipes::prelude::*;
use pipes::traffic::queries as traffic_queries;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    NexmarkStateless,
    NexmarkWindowAgg,
    TrafficWindowAgg,
    NexmarkJoinKeyed,
    NexmarkFleetChurn,
}

/// A workload and its frozen constants. `rate_eps` is half the defining
/// host's median `throughput_eps` to one significant digit,
/// `latency_limit_ms` is max(50, 5 × the defining `latency_tail_ms`) rounded
/// up; later changes to the engine do not re-derive them (README,
/// "Frozen constants").
#[derive(Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Open-loop input rate of the paced phases, source events per second.
    pub rate_eps: f64,
    /// A paced result later than this counts as failed.
    pub latency_limit_ms: f64,
}

/// Percentile reported as `latency_tail_ms`. Not 99: on the two-worker
/// executor the p99 moved ±20 % between identical runs, the p95 ±9 %
/// (README, "How the bounds were calibrated").
pub const TAIL_PERCENTILE: f64 = 95.0;
/// Paced time is cut into windows this long; the latency metrics are the
/// median over the windows of each window's percentile, so one stall of the
/// host moves one window, not the metric. (A stall still shows: results
/// later than `latency_limit_ms` count as failed.)
pub const LATENCY_WINDOW_NS: u64 = 250_000_000;

pub const SPECS: [Spec; 5] = [
    Spec {
        kind: Kind::NexmarkStateless,
        name: "nexmark_stateless",
        why: "CQL q1+q2 on a shared bid scan: source emit, edge push/drain, scheduler pick and BoundExpr::eval over Value rows do all the work, operator state none",
        rate_eps: 1_000_000.0,
        latency_limit_ms: 250.0,
    },
    Spec {
        kind: Kind::NexmarkWindowAgg,
        name: "nexmark_window_agg",
        why: "CQL q3 (the paper's headline MAX over 10 minutes) + q4: window/aggregate via TupleAggs do >99% of the work on a small live window; kernel gains must not move it",
        rate_eps: 3_000.0,
        latency_limit_ms: 4_000.0,
    },
    Spec {
        kind: Kind::TrafficWindowAgg,
        name: "traffic_window_agg",
        why: "CQL FSP q1+q3+q4: the same aggregate layer with a 1-hour window, a large live population, ~10 groups and a filter in front; a sub-linear structure wins here",
        rate_eps: 4_000.0,
        latency_limit_ms: 250.0,
    },
    Spec {
        kind: Kind::NexmarkJoinKeyed,
        name: "nexmark_join_keyed",
        why: "hand-typed E17/E21 plan, keyed x2 under work stealing: SweepArea join, shuffle partition/merge and stealing do the work; CQL, optimizer and Value rows none",
        rate_eps: 1_000_000.0,
        latency_limit_ms: 250.0,
    },
    Spec {
        kind: Kind::NexmarkFleetChurn,
        name: "nexmark_fleet_churn",
        why: "200 prefix-sharing CQL queries, 100 live, one install and one uninstall every 30 ms: MQO, re-planning, multi-subscriber flush and strategy pick over hundreds of nodes",
        rate_eps: 6_000.0,
        latency_limit_ms: 250.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Scheduling quantum of the single-thread workloads, as E10/E11.
pub const QUANTUM: usize = 256;
/// Queries in the fleet and how many are live at any time.
pub const FLEET_QUERIES: usize = 200;
pub const FLEET_LIVE: usize = 100;
/// Distinct projection bodies the fleet rotates through (E20).
pub const FLEET_DISTINCT: usize = 50;
/// One install and one uninstall per tick.
pub const CHURN_TICK_MS: u64 = 30;
/// Keyed instances per shuffle group and work-stealing workers of the join.
pub fn join_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

const MINUTE: u64 = 60_000;

/// The materialised input of one workload.
pub enum Input {
    Tuples {
        stream: &'static str,
        block: Arc<Block<Tuple>>,
    },
    Join {
        auctions: Arc<Block<Pair>>,
        bids: Arc<Block<Pair>>,
    },
}

impl Input {
    /// Generates and materialises the workload's block from the seed.
    pub fn generate(kind: Kind, seed: u64) -> Input {
        match kind {
            Kind::NexmarkStateless | Kind::NexmarkFleetChurn => Input::Tuples {
                stream: "bid",
                block: Arc::new(Block::new(inputs::nexmark_bids(seed, BLOCK_EVENTS), 1)),
            },
            // Lap shifts are multiples of the largest EVERY period.
            Kind::NexmarkWindowAgg => Input::Tuples {
                stream: "bid",
                block: Arc::new(Block::new(
                    inputs::nexmark_bids(seed, BLOCK_EVENTS),
                    10 * MINUTE,
                )),
            },
            Kind::TrafficWindowAgg => Input::Tuples {
                stream: "traffic",
                block: Arc::new(Block::new(
                    inputs::traffic_block(seed, BLOCK_EVENTS),
                    5 * MINUTE,
                )),
            },
            Kind::NexmarkJoinKeyed => {
                let (auctions, bids) = inputs::join_block(seed, BLOCK_EVENTS);
                Input::Join {
                    auctions: Arc::new(Block::new(auctions, 1)),
                    bids: Arc::new(Block::new(bids, 1)),
                }
            }
        }
    }

    /// The block whose replay the pace and the event counts refer to.
    pub fn paced_len(&self) -> usize {
        match self {
            Input::Tuples { block, .. } => block.elems.len(),
            Input::Join { bids, .. } => bids.elems.len(),
        }
    }
}

/// The CQL text of a workload's queries (empty for the hand-typed join).
pub fn queries(kind: Kind) -> Vec<String> {
    match kind {
        Kind::NexmarkStateless => vec![
            nexmark_queries::q1_currency_conversion().into(),
            nexmark_queries::q2_selection().into(),
        ],
        Kind::NexmarkWindowAgg => vec![
            nexmark_queries::q3_highest_bid_10min().into(),
            nexmark_queries::q4_hot_items().into(),
        ],
        Kind::TrafficWindowAgg => vec![
            traffic_queries::q1_hov_avg_speed_cql().into(),
            traffic_queries::q3_section_flow_cql().into(),
            traffic_queries::q4_truck_share_cql().into(),
        ],
        Kind::NexmarkJoinKeyed => Vec::new(),
        // E20's template: shared scan, window and filter; a rotating set of
        // private projections.
        Kind::NexmarkFleetChurn => (0..FLEET_QUERIES)
            .map(|i| {
                format!(
                    "SELECT auction, price * {} AS scaled \
                     FROM bid [RANGE 2 MINUTES] WHERE price > 1000",
                    (i % FLEET_DISTINCT) + 1
                )
            })
            .collect(),
    }
}

/// What a sink does with each result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkMode {
    /// Count and fold an order-insensitive digest (verify passes).
    Digest,
    /// Count only (saturation phases).
    Count,
    /// Count and sample the latency of every result (paced phases).
    Latency,
}

#[derive(Default)]
pub struct SinkTally {
    pub results: u64,
    /// Wrapping sum of per-element hashes: order-insensitive.
    pub digest: u64,
    pub closed: bool,
    /// Phase-clock time of the first result.
    pub first_ns: Option<u64>,
    /// Paced results later than the workload's latency limit.
    pub late: u64,
}

/// Latency samples of one phase, by window of arrival.
#[derive(Default)]
pub struct LatencyLog {
    pub windows: Vec<Histogram>,
}

impl LatencyLog {
    fn record(&mut self, now_ns: u64, latency_ns: u64) {
        let idx = (now_ns / LATENCY_WINDOW_NS) as usize;
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, Histogram::new);
        }
        self.windows[idx].record(latency_ns);
    }
}

pub struct SinkHandle {
    pub node: NodeId,
    pub tally: Arc<Mutex<SinkTally>>,
    /// Phase-clock time `install` returned, for sinks spliced in mid-run.
    pub spliced_ns: Option<u64>,
}

/// How one phase feeds and observes its graph.
#[derive(Clone)]
pub struct PhaseCfg {
    pub limit: Limit,
    /// Open-loop rate; `None` is saturation.
    pub rate_eps: Option<f64>,
    pub sink_mode: SinkMode,
    /// Seeds the fleet's churn schedule.
    pub seed: u64,
    /// A paced result later than this many ns is counted late.
    pub latency_limit_ns: u64,
}

impl PhaseCfg {
    /// A saturation phase with counting sinks.
    pub fn saturate(limit: Limit, seed: u64) -> Self {
        PhaseCfg {
            limit,
            rate_eps: None,
            sink_mode: SinkMode::Count,
            seed,
            latency_limit_ns: 0,
        }
    }
}

/// The optimizer state behind a CQL workload's graph, kept so queries can
/// be spliced in and retired while it runs.
pub struct Queries {
    pub optimizer: Optimizer,
    pub catalog: Catalog,
    pub plans: Vec<LogicalPlan>,
    /// (query index, sink node) of the live queries.
    pub live: Vec<(usize, NodeId)>,
    /// Compiled but not installed (the fleet's other half).
    pub idle: Vec<usize>,
    pub rng: SplitMix,
}

/// One phase's graph with everything the runner reads afterwards.
pub struct Built {
    pub graph: Arc<QueryGraph>,
    pub clock: PhaseClock,
    pace: Option<Pace>,
    sink_mode: SinkMode,
    latency_limit_ns: u64,
    /// Every sink of the phase samples into this one log.
    pub latency: Arc<Mutex<LatencyLog>>,
    pub sources: Arc<Mutex<Vec<Arc<SourceTally>>>>,
    pub sinks: Vec<SinkHandle>,
    pub queries: Option<Queries>,
    /// Wall time of each `compile_cql` / `Optimizer::install` call, µs.
    pub compile_us: Vec<f64>,
    pub install_us: Vec<f64>,
}

impl Built {
    /// A sink that tallies into its own cell and samples latency into the
    /// phase's log. Every message is sampled against the due time of its
    /// logical time: a result against its `interval.start` (the input that
    /// makes the snapshot at `start` final is due then), a punctuation
    /// against the time it certifies.
    pub fn make_sink<T: Hash + Send + Clone + 'static>(
        &self,
    ) -> (impl SinkOp<In = T>, Arc<Mutex<SinkTally>>) {
        let tally = Arc::new(Mutex::new(SinkTally::default()));
        let cell = Arc::clone(&tally);
        let (mode, clock, pace, limit_ns, log) = (
            self.sink_mode,
            self.clock.clone(),
            self.pace,
            self.latency_limit_ns,
            Arc::clone(&self.latency),
        );
        // A message that lies in the logical future is the end-of-stream
        // flush sampling grid points no input reached; it has no latency.
        let sample = move |ticks: u64| -> Option<u64> {
            let due = pace?.due_ns(ticks);
            let now = clock.now_ns();
            (due <= now).then(|| {
                log.lock()
                    .expect("latency log poisoned")
                    .record(now, now - due);
                now - due
            })
        };
        let first_clock = self.clock.clone();
        let sink = FnSink::new(move |m: Message<T>| {
            let mut t = cell.lock().expect("sink tally poisoned");
            match m {
                Message::Element(e) => {
                    t.results += 1;
                    match mode {
                        SinkMode::Digest => {
                            t.digest = t.digest.wrapping_add(inputs::element_hash(&e));
                        }
                        SinkMode::Count => {}
                        SinkMode::Latency => {
                            if sample(e.start().ticks()).is_some_and(|l| l > limit_ns) {
                                t.late += 1;
                            }
                        }
                    }
                    if t.first_ns.is_none() {
                        t.first_ns = Some(first_clock.now_ns());
                    }
                }
                Message::Heartbeat(at) => {
                    if mode == SinkMode::Latency {
                        sample(at.ticks());
                    }
                }
                Message::Close => t.closed = true,
            }
        });
        (sink, tally)
    }

    fn empty(pace: Option<Pace>, cfg: &PhaseCfg) -> Built {
        Built {
            graph: Arc::new(QueryGraph::new()),
            clock: PhaseClock::default(),
            pace,
            sink_mode: cfg.sink_mode,
            latency_limit_ns: cfg.latency_limit_ns,
            latency: Arc::default(),
            sources: Arc::default(),
            sinks: Vec::new(),
            queries: None,
            compile_us: Vec::new(),
            install_us: Vec::new(),
        }
    }

    /// Installs `plan` and attaches a sink in the phase's mode.
    pub fn install_plan(
        &mut self,
        optimizer: &mut Optimizer,
        catalog: &Catalog,
        plan: &LogicalPlan,
    ) -> NodeId {
        let t = Instant::now();
        let installed = optimizer
            .install(plan, &self.graph, catalog)
            .unwrap_or_else(|e| panic!("install failed: {e}"));
        self.install_us.push(t.elapsed().as_secs_f64() * 1e6);
        let (sink, tally) = self.make_sink::<Tuple>();
        let node = self.graph.add_sink("sink", sink, &installed.handle);
        self.sinks.push(SinkHandle {
            node,
            tally,
            spliced_ns: None,
        });
        node
    }

    pub fn emitted(&self) -> u64 {
        use std::sync::atomic::Ordering;
        let sources = self.sources.lock().expect("source registry poisoned");
        // ordering: Relaxed — read after the executor returned.
        sources
            .iter()
            .map(|s| s.emitted.load(Ordering::Relaxed))
            .sum()
    }
}

/// Builds one phase's graph for `kind` over `input`.
pub fn build(kind: Kind, input: &Input, cfg: &PhaseCfg) -> Built {
    match input {
        Input::Tuples { stream, block } => build_cql(kind, stream, block, cfg),
        Input::Join { auctions, bids } => {
            build_join(auctions, bids, cfg, Some(join_workers().max(2)))
        }
    }
}

fn build_cql(kind: Kind, stream: &'static str, block: &Arc<Block<Tuple>>, cfg: &PhaseCfg) -> Built {
    let pace = cfg.rate_eps.map(|r| Pace::for_block(block, r));
    let mut built = Built::empty(pace, cfg);

    // The benchmark's own stream under the scenario's name and schema: the
    // engine receives the materialised block, never a generator.
    let (schema, rate_hint) = match stream {
        "bid" => (
            pipes::nexmark::bid_schema(),
            inputs::nexmark_config(0, 0).events_per_sec() * 1000.0 * 46.0 / 50.0,
        ),
        _ => (
            pipes::traffic::schema(),
            inputs::traffic_config(0).expected_rate_per_sec() * 1000.0,
        ),
    };
    let mut catalog = Catalog::new();
    let (src_block, limit, clock, registry) = (
        Arc::clone(block),
        cfg.limit,
        built.clock.clone(),
        Arc::clone(&built.sources),
    );
    catalog.add_stream(
        stream,
        schema,
        rate_hint,
        Box::new(move || {
            let tally = Arc::new(SourceTally::default());
            registry
                .lock()
                .expect("source registry poisoned")
                .push(Arc::clone(&tally));
            Box::new(ReplaySource::new(
                Arc::clone(&src_block),
                limit,
                pace,
                clock.clone(),
                tally,
            ))
        }),
    );

    // The fleet installs its first half; the rest is compiled and waits
    // for the churn. Every other workload installs all its queries.
    let texts = queries(kind);
    let live_count = match kind {
        Kind::NexmarkFleetChurn => FLEET_LIVE,
        _ => texts.len(),
    };
    let mut optimizer = Optimizer::new();
    let mut plans = Vec::with_capacity(texts.len());
    let mut live = Vec::with_capacity(live_count);
    for (i, sql) in texts.iter().enumerate() {
        let t = Instant::now();
        let plan = compile_cql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        built.compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        if i < live_count {
            live.push((i, built.install_plan(&mut optimizer, &catalog, &plan)));
        }
        plans.push(plan);
    }
    built.queries = Some(Queries {
        optimizer,
        catalog,
        plans,
        live,
        idle: (live_count..texts.len()).collect(),
        rng: SplitMix(cfg.seed ^ 0x6368_7572),
    });
    built
}

impl Queries {
    /// One churn tick: splices an idle query in and retires a live one, both
    /// picked by the seeded schedule. Returns (install µs, uninstall µs).
    pub fn churn(&mut self, built: &mut Built) -> (f64, f64) {
        let incoming = self
            .idle
            .swap_remove(self.rng.below(self.idle.len() as u64) as usize);
        let before = built.install_us.len();
        let node = built.install_plan(&mut self.optimizer, &self.catalog, &self.plans[incoming]);
        let install_us = built.install_us[before];
        built.sinks.last_mut().expect("sink just added").spliced_ns = Some(built.clock.now_ns());

        let victim = self.rng.below(self.live.len() as u64) as usize;
        let (outgoing, sink) = self.live[victim];
        self.live[victim] = (incoming, node);
        self.idle.push(outgoing);
        let t = Instant::now();
        self.optimizer
            .uninstall(&self.plans[outgoing], sink, &built.graph);
        (install_us, t.elapsed().as_secs_f64() * 1e6)
    }
}

fn join_op() -> RippleJoin<Pair, Pair, Pair> {
    // Left: auctions (id, category); right: bids (id, price);
    // out: (category, price).
    RippleJoin::equi(|a: &Pair| a.0, |b: &Pair| b.0, |a, b| (a.1, b.1))
}

fn category(p: &Pair) -> i64 {
    p.0
}

fn price(p: &Pair) -> i64 {
    p.1
}

#[allow(clippy::type_complexity)]
fn agg_op() -> GroupedAggregate<Pair, i64, fn(&Pair) -> i64, MaxAgg<fn(&Pair) -> i64>> {
    GroupedAggregate::new(
        category as fn(&Pair) -> i64,
        MaxAgg(price as fn(&Pair) -> i64),
    )
}

/// The E17/E21 plan: auctions ⋈ bids → fee → max price per category. With
/// `instances`, the join and the aggregate each sit behind a shuffle edge
/// with that many keyed copies; without, each is one node (the
/// single-threaded twin of the same job).
pub fn build_join(
    auctions: &Arc<Block<Pair>>,
    bids: &Arc<Block<Pair>>,
    cfg: &PhaseCfg,
    instances: Option<usize>,
) -> Built {
    let pace = cfg.rate_eps.map(|r| Pace::for_block(bids, r));
    let mut built = Built::empty(pace, cfg);
    let g = &built.graph;
    let source = |block: &Arc<Block<Pair>>, limit: Limit| {
        let tally = Arc::new(SourceTally::default());
        built
            .sources
            .lock()
            .expect("source registry poisoned")
            .push(Arc::clone(&tally));
        ReplaySource::new(Arc::clone(block), limit, pace, built.clock.clone(), tally)
    };
    // Auctions are valid for the whole run: they are sent once, not in
    // laps, and punctuated up to the end of their validity.
    let auction_limit = Limit::Events(auctions.elems.len() as u64);
    let a = g.add_source(
        "auctions",
        source(auctions, auction_limit).with_closing_heartbeat(auctions.elems[0].end()),
    );
    let b = g.add_source("bids", source(bids, cfg.limit));
    let joined = match instances {
        Some(n) => g.add_keyed_binary(
            "join",
            || join_op().with_rekey(|a: &Pair| key_hash(&a.0), |b: &Pair| key_hash(&b.0)),
            Arc::new(|a: &Pair| key_hash(&a.0)),
            Arc::new(|b: &Pair| key_hash(&b.0)),
            n,
            // The join emits only while processing elements: no
            // broadcast-stamp ties across instances.
            None,
            &a,
            &b,
        ),
        None => g.add_binary("join", join_op(), &a, &b),
    };
    let mapped = g.add_unary("fee", Map::new(|p: Pair| (p.0, p.1 + p.1 / 50)), &joined);
    let top = match instances {
        Some(n) => g.add_keyed_unary(
            "aggregate[top-price]",
            agg_op,
            Arc::new(|p: &Pair| key_hash(&p.0)),
            n,
            // Heartbeat flushes are key-sorted in the single plan; the key
            // tie restores that order across instances.
            Some(Arc::new(
                |a: &Element<(i64, i64)>, b: &Element<(i64, i64)>| a.payload.0.cmp(&b.payload.0),
            )),
            &mapped,
        ),
        None => g.add_unary("aggregate[top-price]", agg_op(), &mapped),
    };
    let (sink, tally) = built.make_sink::<(i64, i64)>();
    let node = g.add_sink("sink", sink, &top);
    built.sinks.push(SinkHandle {
        node,
        tally,
        spliced_ns: None,
    });
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` names the workloads with their reasons; the two
    /// lists must not drift apart.
    #[test]
    fn benchmark_json_lists_these_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn fleet_installs_half_and_keeps_the_rest_compiled() {
        let input = Input::generate(Kind::NexmarkFleetChurn, 5);
        let cfg = PhaseCfg::saturate(Limit::Events(0), 5);
        let mut built = build(Kind::NexmarkFleetChurn, &input, &cfg);
        let mut q = built.queries.take().unwrap();
        assert_eq!(
            (q.plans.len(), q.live.len(), q.idle.len()),
            (FLEET_QUERIES, FLEET_LIVE, FLEET_QUERIES - FLEET_LIVE)
        );
        let nodes_before = built.graph.node_ids().count();
        q.churn(&mut built);
        assert_eq!(
            (q.live.len(), q.idle.len()),
            (FLEET_LIVE, FLEET_QUERIES - FLEET_LIVE)
        );
        assert_eq!(built.sinks.len(), FLEET_LIVE + 1);
        assert!(built.sinks.last().unwrap().spliced_ns.is_some());
        // One sink in, one sink out; shared projections come and go.
        let nodes_after = built.graph.node_ids().count();
        assert!(
            nodes_after.abs_diff(nodes_before) <= 2,
            "{nodes_before} -> {nodes_after}"
        );
    }
}
