//! One workload run in its own process: set-up, verify pass, time-boxed
//! phases, and the result line.
//!
//! `--trace 0` measures the end-to-end metrics over interleaved saturation
//! and paced phases (P,S,P,S,P,S); `--trace 1` measures the per-layer
//! metrics (traced phase, paired telemetry phases, scratch-graph timings).
//! The two never mix: end-to-end numbers come from untraced phases only.

use crate::json::quote;
use crate::layers;
use crate::phase::{self, Load, Outcome};
use crate::replay::Limit;
use crate::report::{self, Fingerprint};
use crate::stats::{median, slope, supported_percentile, Histogram};
use crate::trace::{self, Class, SpanKind, Traced};
use crate::verify;
use crate::workloads::{self, Input, PhaseCfg, Spec, LATENCY_WINDOW_NS, TAIL_PERCENTILE};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Short phases: sample-count floors are relaxed and flagged.
    pub quick: bool,
    /// Where `<workload>.trace.json` goes.
    pub out_dir: PathBuf,
}

/// Set-ups timed before every phase; `setup_s` is the median of all of
/// them. Spreading them over the run keeps a slow spell of the host, which
/// lasts seconds, from owning the median.
const SETUPS_PER_PHASE: usize = 4;

/// A named value with its unit, in output order.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run: the driver's four keys.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(metric.name),
                fmt_num(metric.value),
                quote(metric.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A number as measured, with all its digits; non-finite values (a bug)
/// stay visible as `null` for the self-check to reject.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Failures and attempts of a set of phases: every emitted event and every
/// paced result is an attempt; an event the engine lost and a result later
/// than the workload's limit are failures.
struct Ledger {
    attempted: u64,
    failed: u64,
    clean: bool,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            clean: true,
        }
    }

    fn add_events(&mut self, emitted: u64, undelivered: u64, clean: bool) {
        self.attempted += emitted;
        self.failed += undelivered;
        self.clean &= clean && undelivered == 0;
    }

    fn add(&mut self, load: Load, out: &Outcome) {
        self.add_events(out.emitted, out.undelivered, out.clean);
        if load == Load::Paced {
            self.attempted += out.results;
            self.failed += out.late;
        }
    }
}

pub fn run(args: &Args) -> RunResult {
    if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    }
}

fn end_to_end(args: &Args) -> RunResult {
    let spec = args.spec;
    // Set-up: generate and materialise the block, register the streams,
    // compile and install every query, attach the sinks.
    let idle_cfg = PhaseCfg::saturate(Limit::Events(0), args.seed);
    let mut setups = Vec::new();
    let mut set_up = |times: usize| {
        let mut input = None;
        for _ in 0..times {
            let t = Instant::now();
            let generated = Input::generate(spec.kind, args.seed);
            let built = workloads::build(spec.kind, &generated, &idle_cfg);
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
            input = Some(generated);
        }
        input.expect("at least one set-up")
    };
    let input = set_up(SETUPS_PER_PHASE);

    let verified = verify_pass(spec, &input);

    let secs = args.seconds / 6.0;
    let mut ledger = Ledger::new();
    let mut saturated = Vec::new();
    let mut windows = Vec::new();
    let mut peak_rss_mb = 0.0;
    for round in 0..3 {
        set_up(SETUPS_PER_PHASE);
        let p = phase::run(spec, &input, Load::Paced, secs, args.seed);
        ledger.add(Load::Paced, &p);
        if round == 0 {
            // Memory at the stated rate: taken before any saturation phase,
            // whose unbounded queues would otherwise set the high-water
            // mark (that growth is `graph.peak_queued_msgs`).
            peak_rss_mb = report::peak_rss_mb();
        }
        set_up(SETUPS_PER_PHASE);
        let s = phase::run(spec, &input, Load::Saturate, secs, args.seed);
        ledger.add(Load::Saturate, &s);
        saturated.push(s.eps());
        println!(
            "{}: S {} events in {:.3} s, {} results | P {} events in {:.3} s, {} results, {} late",
            spec.name, s.emitted, s.wall_s, s.results, p.emitted, p.wall_s, p.results, p.late
        );
        // Whole windows inside the box only: what trails the deadline is
        // the drain, not the stated rate.
        let whole = ((secs * 1e9) as u64 / LATENCY_WINDOW_NS).max(1) as usize;
        windows.extend(p.latency.into_iter().take(whole));
    }
    let latency = windowed_latency(spec, &windows, args.quick);
    let metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("throughput_eps", median(&saturated), "1/s"),
        m("latency_p50_ms", latency.0, "ms"),
        m("latency_tail_ms", latency.1, "ms"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    RunResult {
        correct: verified.is_ok() && ledger.clean,
        attempted: ledger.attempted,
        failed: ledger.failed + u64::from(verified.is_err()),
        metrics,
    }
}

fn verify_pass(spec: &Spec, input: &Input) -> Result<(), String> {
    let t = Instant::now();
    let verified = verify::verify(spec.kind, input);
    match &verified {
        Ok(()) => println!(
            "{}: verify pass ok in {:.2} s",
            spec.name,
            t.elapsed().as_secs_f64()
        ),
        Err(e) => println!("{}: {e}", spec.name),
    }
    verified
}

/// `(latency_p50_ms, latency_tail_ms)`: the median over the windows of the
/// paced phases of each window's p50 and tail percentile. Only windows
/// that support the tail percentile (ten samples beyond it) count; short
/// `--quick` phases may have none, and then every window counts at the
/// percentile the smallest one supports, flagged in the output.
fn windowed_latency(spec: &Spec, windows: &[Histogram], quick: bool) -> (f64, f64) {
    let mut tail = TAIL_PERCENTILE;
    let mut usable: Vec<&Histogram> = windows
        .iter()
        .filter(|w| supported_percentile(w.len(), tail) == tail)
        .collect();
    if usable.is_empty() {
        assert!(quick, "{}: no latency window supports p{tail}", spec.name);
        usable = windows.iter().filter(|w| w.len() >= 10).collect();
        tail = usable
            .iter()
            .map(|w| supported_percentile(w.len(), tail))
            .fold(tail, f64::min);
    }
    println!(
        "{}: latency over {} windows of {} ms, {} samples, tail = p{}{}",
        spec.name,
        usable.len(),
        LATENCY_WINDOW_NS / 1_000_000,
        usable.iter().map(|w| w.len()).sum::<u64>(),
        tail,
        if tail == TAIL_PERCENTILE {
            ""
        } else {
            " (sample-count floor relaxed)"
        }
    );
    let over = |p: f64| {
        let per_window: Vec<f64> = usable.iter().map(|w| w.percentile(p) / 1e6).collect();
        median(&per_window)
    };
    (over(50.0), over(tail))
}

fn per_layer(args: &Args) -> RunResult {
    let spec = args.spec;
    let input = Input::generate(spec.kind, args.seed);
    let verified = verify_pass(spec, &input);
    // plain 3 + traced 3 + paced 2 + telemetry 4 x 1 + the join's twin 1.
    let unit = args.seconds / 13.0;
    let mut ledger = Ledger::new();

    // Outside any phase: generators, kernel floor, scratch graph.
    let gen_nexmark = layers::gen_nexmark_ns(args.seed);
    let gen_traffic = layers::gen_traffic_ns(args.seed);
    let floor = layers::step_floor_ns();
    let scratch = layers::scratch(spec.kind, &input);

    // Untraced saturation phase: the reference for the tracing overhead,
    // and the executor's own counters.
    let plain = phase::run(spec, &input, Load::Saturate, 3.0 * unit, args.seed);
    ledger.add(Load::Saturate, &plain);

    // Traced phase, as long as the plain one: both cover the same stretch
    // of the input, so their rates compare.
    let traced = trace::run(spec, &input, 3.0 * unit, args.seed);
    ledger.add_events(traced.emitted, traced.undelivered, traced.clean);

    // Paced phase: how late the generator ran, and whether the backlog grew.
    let paced = phase::run(spec, &input, Load::Paced, 2.0 * unit, args.seed);
    ledger.add(Load::Paced, &paced);

    // Telemetry off/on/on/off: the flight recorder and the metadata plane.
    let mut telemetry = [Vec::new(), Vec::new()];
    for on in [false, true, true, false] {
        pipes::trace::set_enabled(on);
        pipes::meta::set_meta_enabled(on);
        let out = phase::run(spec, &input, Load::Saturate, unit, args.seed);
        ledger.add(Load::Saturate, &out);
        telemetry[usize::from(on)].push(out.eps());
    }
    pipes::trace::set_enabled(true);
    pipes::meta::set_meta_enabled(true);
    let (off, on) = (median(&telemetry[0]), median(&telemetry[1]));

    // The join's single-threaded twin: the same job, un-keyed, one thread.
    let keyed_vs_single = match &input {
        Input::Join { auctions, bids } => {
            let cfg = PhaseCfg::saturate(Limit::After(Duration::from_secs_f64(unit)), args.seed);
            let twin = workloads::build_join(auctions, bids, &cfg, None);
            let t = Instant::now();
            let report = phase::run_join(&twin.graph, 1);
            let out = phase::summarize(twin, report, t.elapsed().as_secs_f64(), Default::default());
            ledger.add(Load::Saturate, &out);
            plain.eps() / out.eps().max(1e-9)
        }
        Input::Tuples { .. } => 0.0,
    };

    let traced_eps = traced.emitted as f64 / (traced.wall_ns as f64 / 1e9).max(1e-9);
    let per_msg = |class: Class| {
        let row = traced.class_row(class);
        if row.msgs == 0 {
            0.0
        } else {
            row.ns as f64 / row.msgs as f64
        }
    };
    let busiest = traced
        .nodes
        .iter()
        .map(|n| n.cost.step_ns)
        .max()
        .unwrap_or(0);
    let skew = traced
        .shuffle_inputs
        .iter()
        .map(|counts| {
            let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
            counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
        })
        .fold(0.0, f64::max);
    let churned = !plain.churn_install_us.is_empty();
    let splice: Vec<f64> = [&plain.splice_ms[..], &paced.splice_ms[..]].concat();

    let metrics = vec![
        m("gen.nexmark_ns_per_event", gen_nexmark, "ns"),
        m("gen.traffic_ns_per_event", gen_traffic, "ns"),
        m("cql.compile_us", scratch.compile_us, "us"),
        m(
            "optimizer.install_us",
            if churned {
                median(&plain.churn_install_us)
            } else {
                scratch.install_us
            },
            "us",
        ),
        m(
            "optimizer.uninstall_us",
            if churned {
                median(&plain.churn_uninstall_us)
            } else {
                scratch.uninstall_us
            },
            "us",
        ),
        m(
            "optimizer.shared_node_ratio",
            scratch.shared_node_ratio,
            "ratio",
        ),
        m("optimizer.splice_first_result_ms", median(&splice), "ms"),
        m("sched.plan_analyze_us", scratch.plan_analyze_us, "us"),
        m(
            "sched.select_ns",
            traced.select_ns as f64 / traced.quanta.max(1) as f64,
            "ns",
        ),
        m(
            "sched.msgs_per_quantum",
            traced.nodes.iter().map(|n| n.cost.consumed).sum::<u64>() as f64
                / traced.quanta.max(1) as f64,
            "count",
        ),
        m(
            "sched.idle_quanta_share",
            traced.empty_quanta as f64 / traced.quanta.max(1) as f64,
            "ratio",
        ),
        m("sched.steals", plain.report.steals as f64, "count"),
        m("sched.keyed_vs_single", keyed_vs_single, "ratio"),
        m("graph.step_floor_ns", floor, "ns"),
        m("graph.source_emit_ns", per_msg(Class::Source), "ns"),
        m("graph.sink_drain_ns", per_msg(Class::Sink), "ns"),
        m("graph.avg_batch", plain.report.avg_batch_size(), "count"),
        m(
            "graph.peak_queued_msgs",
            plain.report.peak_queue as f64,
            "count",
        ),
        m("graph.nodes", scratch.nodes as f64, "count"),
        m("graph.groups", scratch.groups as f64, "count"),
        m("graph.shuffle_hop_ns", per_msg(Class::Shuffle), "ns"),
        m("graph.shuffle_skew", skew, "ratio"),
        m(
            "ops.stateless_ns",
            traced.self_ns(Class::Stateless, floor),
            "ns",
        ),
        m("ops.window_ns", traced.self_ns(Class::Window, floor), "ns"),
        m(
            "ops.aggregate_ns",
            traced.self_ns(Class::Aggregate, floor),
            "ns",
        ),
        m("ops.join_ns", traced.self_ns(Class::Join, floor), "ns"),
        m("ops.every_ns", traced.self_ns(Class::Every, floor), "ns"),
        m(
            "ops.top_node_busy_share",
            busiest as f64 / traced.wall_ns.max(1) as f64,
            "ratio",
        ),
        m(
            "ops.state_bytes_peak",
            traced.state_bytes_peak as f64,
            "bytes",
        ),
        m("source.lag_p99_ms", paced.lag.percentile(99.0) / 1e6, "ms"),
        m(
            "source.backlog_growth_eps",
            slope(&paced.lag_trend) * spec.rate_eps,
            "1/s",
        ),
        m(
            "telemetry.overhead_pct",
            (off - on) / off.max(1e-9) * 100.0,
            "%",
        ),
        m(
            "bench.trace_overhead_pct",
            (plain.eps() - traced_eps) / plain.eps().max(1e-9) * 100.0,
            "%",
        ),
    ];

    print_table(spec, &traced);
    if let Err(e) = write_trace(args, &traced) {
        println!("could not write the trace file: {e}");
    }
    RunResult {
        correct: verified.is_ok() && ledger.clean,
        attempted: ledger.attempted,
        failed: ledger.failed + u64::from(verified.is_err()),
        metrics,
    }
}

fn print_table(spec: &Spec, traced: &Traced) {
    println!(
        "{}: traced {} quanta in {:.3} s; ns/message by layer",
        spec.name,
        traced.quanta,
        traced.wall_ns as f64 / 1e9
    );
    println!(
        "  {:<18} {:>8} {:>12} {:>12}",
        "layer", "share", "messages", "ns/message"
    );
    for row in traced.table() {
        if row.ns == 0 {
            continue;
        }
        println!(
            "  {:<18} {:>7.2}% {:>12} {:>12.1}",
            row.label,
            row.ns as f64 / traced.wall_ns.max(1) as f64 * 100.0,
            row.msgs,
            row.ns as f64 / row.msgs.max(1) as f64
        );
    }
}

/// Writes the folded table, the per-node costs and the first
/// `MAX_RAW_SPANS` raw spans to `<out>/<workload>.trace.json`.
fn write_trace(args: &Args, traced: &Traced) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"wall_ns\": {}, \"quanta\": {}, \
         \"empty_quanta\": {}, \"spans_dropped\": {},\n \"table\": [",
        quote(args.spec.name),
        args.seed,
        Fingerprint::collect().to_json(),
        traced.wall_ns,
        traced.quanta,
        traced.empty_quanta,
        traced.spans_dropped
    );
    for (i, row) in traced.table().iter().enumerate() {
        let _ = write!(
            s,
            "{}\n  {{\"layer\": {}, \"ns\": {}, \"messages\": {}, \"time_share\": {}}}",
            if i > 0 { "," } else { "" },
            quote(row.label),
            row.ns,
            row.msgs,
            fmt_num(row.ns as f64 / traced.wall_ns.max(1) as f64)
        );
    }
    s.push_str("],\n \"nodes\": [");
    for (i, n) in traced.nodes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n  {{\"id\": {}, \"name\": {}, \"layer\": {}, \"step_ns\": {}, \"quanta\": {}, \
             \"consumed\": {}, \"produced\": {}}}",
            if i > 0 { "," } else { "" },
            n.id,
            quote(&n.name),
            quote(n.class.label()),
            n.cost.step_ns,
            n.cost.quanta,
            n.cost.consumed,
            n.cost.produced
        );
    }
    // [id, parent, kind, node, start_ns, end_ns, consumed, produced]
    s.push_str("],\n \"span_fields\": [\"id\", \"parent\", \"kind\", \"node\", \"start_ns\", \"end_ns\", \"consumed\", \"produced\"],\n \"spans\": [");
    for (i, sp) in traced.spans.iter().enumerate() {
        let kind = match sp.kind {
            SpanKind::Workload => "workload",
            SpanKind::Phase => "phase",
            SpanKind::Quantum => "quantum",
            SpanKind::Select => "select",
            SpanKind::Step => "step",
            SpanKind::Churn => "churn",
        };
        let _ = write!(
            s,
            "{}\n  [{}, {}, \"{}\", {}, {}, {}, {}, {}]",
            if i > 0 { "," } else { "" },
            sp.id,
            sp.parent,
            kind,
            sp.node,
            sp.start_ns,
            sp.end_ns,
            sp.consumed,
            sp.produced
        );
    }
    s.push_str("]}\n");
    std::fs::write(
        args.out_dir.join(format!("{}.trace.json", args.spec.name)),
        s,
    )
}
