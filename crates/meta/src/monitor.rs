//! The performance-monitoring tool.
//!
//! Reproduces the functionality of the PIPES performance monitor (Figure 3 of
//! the demo paper): sample the secondary metadata of a running graph
//! periodically, and visualize the resulting time series — here as ASCII
//! sparklines and CSV rather than a Swing window.
//!
//! The monitor holds no node handles and registers nothing. It is a time
//! series of [`Telemetry`] snapshots keyed by node id: each
//! [`Monitor::sample`] appends every row of the snapshot it is handed to
//! that node's series, so a node spliced into the running graph gets a
//! series from the first sample that contains it, and a retired node's
//! series stops growing at the last one that did. The renderers read the
//! series and nothing else.

use crate::{NodeId, NodeMetaSnapshot, NodeTelemetry, Telemetry};
use pipes_sync::{Arc, Condvar, Mutex};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The sampled rows of one node.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Sample times, in seconds since monitoring began.
    pub times: Vec<f64>,
    /// The node's row in the snapshot taken at each of those times.
    pub samples: Vec<NodeTelemetry>,
}

/// Which derived series to extract from a [`TimeSeries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesView {
    /// Input rate in elements/second (differenced cumulative input count).
    InputRate,
    /// Output rate in elements/second.
    OutputRate,
    /// Instantaneous input-queue length.
    QueueLen,
    /// Instantaneous state memory (elements).
    Memory,
    /// Cumulative selectivity (out/in).
    Selectivity,
    /// Number of subscribed sinks.
    Subscribers,
    /// Cumulative mean batch size (messages per batched queue drain).
    BatchSize,
    /// p95 source-to-sink latency in nanoseconds (0 until the trace
    /// latency pipeline reports samples for the node).
    LatencyP95,
    /// Estimated input rate from the live metadata plane's sliding-window
    /// estimator (0 while the node's estimator block has no snapshot).
    EstInRate,
    /// Estimated output rate from the live metadata plane.
    EstOutRate,
    /// EWMA run-level selectivity from the live metadata plane.
    EstSelectivity,
}

impl SeriesView {
    /// Short label used in rendered output.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesView::InputRate => "in/s",
            SeriesView::OutputRate => "out/s",
            SeriesView::QueueLen => "queue",
            SeriesView::Memory => "mem",
            SeriesView::Selectivity => "sel",
            SeriesView::Subscribers => "subs",
            SeriesView::BatchSize => "batch",
            SeriesView::LatencyP95 => "p95lat",
            SeriesView::EstInRate => "est-in/s",
            SeriesView::EstOutRate => "est-out/s",
            SeriesView::EstSelectivity => "est-sel",
        }
    }
}

impl TimeSeries {
    /// Extracts the requested derived series.
    pub fn view(&self, view: SeriesView) -> Vec<f64> {
        match view {
            SeriesView::QueueLen => self.map(|s| s.queue_len as f64),
            SeriesView::Memory => self.map(|s| s.memory as f64),
            SeriesView::Subscribers => self.map(|s| s.stats.subscribers as f64),
            SeriesView::Selectivity => self.map(|s| s.stats.selectivity().unwrap_or(0.0)),
            SeriesView::BatchSize => self.map(|s| s.stats.avg_batch_size().unwrap_or(0.0)),
            SeriesView::LatencyP95 => self.map(|s| s.stats.latency.map_or(0.0, |l| l.p95_ns)),
            SeriesView::InputRate => self.rate(|s| s.stats.in_count),
            SeriesView::OutputRate => self.rate(|s| s.stats.out_count),
            SeriesView::EstInRate => self.meta_view(|m| m.in_rate),
            SeriesView::EstOutRate => self.meta_view(|m| m.out_rate),
            SeriesView::EstSelectivity => self.meta_view(|m| m.selectivity),
        }
    }

    fn map(&self, f: impl Fn(&NodeTelemetry) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// The metadata-plane reading at each sample, or 0 where the node had
    /// no estimator snapshot.
    fn meta_view(&self, f: impl Fn(&NodeMetaSnapshot) -> f64) -> Vec<f64> {
        self.map(|s| s.meta.as_ref().map_or(0.0, &f))
    }

    fn rate(&self, f: impl Fn(&NodeTelemetry) -> u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.samples.len());
        for i in 0..self.samples.len() {
            if i == 0 {
                out.push(0.0);
            } else {
                let dt = (self.times[i] - self.times[i - 1]).max(1e-9);
                // saturating_sub: a counter that went backwards (node
                // restarted / stats reset) reads as a zero-rate interval
                // instead of wrapping to ~u64::MAX.
                let dn = f(&self.samples[i]).saturating_sub(f(&self.samples[i - 1]));
                out.push(dn as f64 / dt);
            }
        }
        out
    }
}

/// Samples telemetry snapshots into per-node time series.
pub struct Monitor {
    started: Instant,
    inner: Arc<MonitorInner>,
}

struct MonitorInner {
    series: Mutex<BTreeMap<NodeId, TimeSeries>>,
    /// Sampler lifecycle flag; paired with `stop` so `MonitorGuard::stop`
    /// interrupts the sampler's inter-sample wait instead of letting it
    /// sleep out a full interval.
    running: Mutex<bool>,
    stop: Condvar,
}

impl MonitorInner {
    fn sample_at(&self, t: f64, snapshot: &Telemetry) {
        let mut series = self.series.lock();
        for node in &snapshot.nodes {
            let s = series.entry(node.info.id).or_default();
            s.times.push(t);
            s.samples.push(node.clone());
        }
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Monitor {
            started: Instant::now(),
            inner: Arc::new(MonitorInner {
                series: Mutex::new(BTreeMap::new()),
                running: Mutex::new(false),
                stop: Condvar::new(),
            }),
        }
    }

    /// Appends every row of `snapshot` to its node's series at the given
    /// logical time (seconds). Deterministic entry point for tests and
    /// simulations.
    pub fn sample_at(&self, t: f64, snapshot: &Telemetry) {
        self.inner.sample_at(t, snapshot);
    }

    /// Like [`Monitor::sample_at`], stamped with wall-clock time since
    /// monitor creation.
    pub fn sample(&self, snapshot: &Telemetry) {
        self.sample_at(self.started.elapsed().as_secs_f64(), snapshot);
    }

    /// Spawns a background thread that samples `source()` — typically a
    /// closure over a shared graph calling `QueryGraph::telemetry` — every
    /// `interval`. Returns a guard; dropping it (or calling its `stop`
    /// method) stops the thread promptly — the inter-sample wait is a
    /// condvar the guard signals, so stopping never blocks for a full
    /// `interval`.
    pub fn spawn(
        &self,
        interval: std::time::Duration,
        source: impl Fn() -> Telemetry + Send + 'static,
    ) -> MonitorGuard {
        *self.inner.running.lock() = true;
        let inner = Arc::clone(&self.inner);
        let started = self.started;
        let handle = pipes_sync::thread::spawn(move || loop {
            inner.sample_at(started.elapsed().as_secs_f64(), &source());
            let mut running = inner.running.lock();
            if !*running {
                break;
            }
            // Timeout = the sampling interval; a stop notification wakes
            // the wait early.
            let _ = inner.stop.wait_for(&mut running, interval);
            if !*running {
                break;
            }
        });
        MonitorGuard {
            inner: Arc::clone(&self.inner),
            handle: Some(handle),
        }
    }

    /// The collected series by node id: one per node that was live in at
    /// least one sampled snapshot.
    pub fn series(&self) -> BTreeMap<NodeId, TimeSeries> {
        self.inner.series.lock().clone()
    }

    /// Renders one sparkline per sampled node for the given view.
    pub fn render_sparklines(&self, view: SeriesView) -> String {
        let mut out = String::new();
        for series in self.inner.series.lock().values() {
            let Some(first) = series.samples.first() else {
                continue;
            };
            let values = series.view(view);
            let _ = writeln!(
                out,
                "{:>20} {:>6} {} [min {:.1}, max {:.1}]",
                first.info.name,
                view.label(),
                sparkline(&values),
                values.iter().cloned().fold(f64::INFINITY, f64::min),
                values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            );
        }
        out
    }

    /// Renders a `top`-style table of the most recent sample: one row per
    /// node that was live in it, with the topology epoch the node was
    /// spliced in at and its live rate / selectivity / state footprint /
    /// queue depth. Estimator columns show `-` for nodes without a warm
    /// metadata block.
    pub fn render_top(&self) -> String {
        let series = self.inner.series.lock();
        let mut out = format!(
            "{:<20} {:>6} {:>10} {:>10} {:>7} {:>12} {:>8}\n",
            "node", "epoch", "in/s", "out/s", "sel", "state-bytes", "queue"
        );
        let last: Vec<(f64, &NodeTelemetry)> = series
            .values()
            .filter_map(|s| Some((*s.times.last()?, s.samples.last()?)))
            .collect();
        let latest = last.iter().fold(f64::NEG_INFINITY, |a, r| a.max(r.0));
        for (_, row) in last.iter().filter(|r| r.0 == latest) {
            let _ = write!(out, "{:<20} {:>6}", row.info.name, row.spliced_epoch);
            let _ = match row.meta {
                Some(m) => write!(
                    out,
                    " {:>10.1} {:>10.1} {:>7.3}",
                    m.in_rate, m.out_rate, m.selectivity
                ),
                None => write!(out, " {:>10} {:>10} {:>7}", "-", "-", "-"),
            };
            let _ = writeln!(out, " {:>12} {:>8}", row.stats.state_bytes, row.queue_len);
        }
        out
    }

    /// Dumps all samples as CSV:
    /// `time,node,in,out,queue,mem,sel,subs,avg_batch,p95_lat_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "time,node,in_count,out_count,queue_len,memory,selectivity,subscribers,avg_batch,p95_lat_ns\n",
        );
        for series in self.inner.series.lock().values() {
            for (t, s) in series.times.iter().zip(&series.samples) {
                let _ = writeln!(
                    out,
                    "{:.3},{},{},{},{},{},{:.4},{},{:.2},{:.0}",
                    t,
                    s.info.name,
                    s.stats.in_count,
                    s.stats.out_count,
                    s.queue_len,
                    s.memory,
                    s.stats.selectivity().unwrap_or(0.0),
                    s.stats.subscribers,
                    s.stats.avg_batch_size().unwrap_or(0.0),
                    s.stats.latency.map_or(0.0, |l| l.p95_ns),
                );
            }
        }
        out
    }
}

/// Stops the background sampling thread when dropped.
pub struct MonitorGuard {
    inner: Arc<MonitorInner>,
    handle: Option<pipes_sync::thread::JoinHandle<()>>,
}

impl MonitorGuard {
    /// Stops sampling and joins the thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        *self.inner.running.lock() = false;
        // Wake the sampler out of its inter-sample wait; the join() below
        // is the real synchronization with the sampling thread.
        self.inner.stop.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MonitorGuard {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Renders values as a unicode sparkline.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeInfo, NodeKind, NodeMeta, NodeStats};

    /// A snapshot of the given `(id, name, stats)` nodes, each spliced at
    /// epoch `id + 1` with `queue_len` queued messages.
    fn snap(nodes: &[(NodeId, &str, &NodeStats)], queue_len: usize) -> Telemetry {
        Telemetry {
            topology_epoch: 1,
            nodes: nodes
                .iter()
                .map(|&(id, name, stats)| NodeTelemetry {
                    info: NodeInfo {
                        id,
                        name: name.to_string(),
                        kind: NodeKind::Operator,
                        upstream: Vec::new(),
                        removed: false,
                    },
                    spliced_epoch: id as u64 + 1,
                    stats: stats.snapshot(),
                    queue_len,
                    memory: 0,
                    meta: None,
                })
                .collect(),
            groups: Vec::new(),
        }
    }

    #[test]
    fn sampling_builds_series() {
        let m = Monitor::new();
        let stats = NodeStats::new();
        stats.record_in(100);
        m.sample_at(1.0, &snap(&[(0, "src", &stats)], 0));
        stats.record_in(300);
        m.sample_at(2.0, &snap(&[(0, "src", &stats)], 7));

        let series = m.series();
        assert_eq!(series.len(), 1);
        let s = &series[&0];
        assert_eq!(s.times, vec![1.0, 2.0]);
        assert_eq!(s.view(SeriesView::QueueLen), vec![0.0, 7.0]);
        let rates = s.view(SeriesView::InputRate);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 300.0).abs() < 1e-9); // 300 new elements over 1s
    }

    #[test]
    fn series_follow_the_snapshots_node_set() {
        // A node spliced mid-run gets a series from its first sample; a
        // retired one stops growing and leaves the live table.
        let m = Monitor::new();
        let (a, b) = (NodeStats::new(), NodeStats::new());
        m.sample_at(0.0, &snap(&[(0, "a", &a)], 0));
        m.sample_at(1.0, &snap(&[(0, "a", &a), (3, "late", &b)], 0));
        m.sample_at(2.0, &snap(&[(3, "late", &b)], 0));
        let series = m.series();
        assert_eq!(series[&0].times, vec![0.0, 1.0], "retired: stopped growing");
        assert_eq!(series[&3].times, vec![1.0, 2.0], "spliced: starts late");
        let top = m.render_top();
        let lines: Vec<&str> = top.lines().collect();
        assert_eq!(lines.len(), 2, "header + the one live row:\n{top}");
        assert!(lines[0].contains("epoch") && lines[0].contains("sel"));
        let cols: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(&cols[..2], ["late", "4"], "name and splice epoch:\n{top}");
        // header + every sample of both nodes
        assert_eq!(m.to_csv().lines().count(), 5);
        assert!(m.to_csv().starts_with("time,node"));
    }

    #[test]
    fn selectivity_and_batch_size_series() {
        let m = Monitor::new();
        let stats = NodeStats::new();
        m.sample_at(0.0, &snap(&[(0, "op", &stats)], 0)); // nothing drained: 0
        stats.record_in(32);
        stats.record_out(8);
        stats.record_batches(4);
        m.sample_at(1.0, &snap(&[(0, "op", &stats)], 0));
        let s = &m.series()[&0];
        assert_eq!(s.view(SeriesView::BatchSize), vec![0.0, 8.0]);
        assert_eq!(s.view(SeriesView::Selectivity), vec![0.0, 0.25]);
        assert!(m.to_csv().lines().next().unwrap().ends_with("p95_lat_ns"));
    }

    #[test]
    fn latency_series() {
        let m = Monitor::new();
        let stats = NodeStats::new();
        m.sample_at(0.0, &snap(&[(0, "sink", &stats)], 0)); // no samples yet: 0
        stats.record_latency_ns(&(1..=100).collect::<Vec<_>>());
        m.sample_at(1.0, &snap(&[(0, "sink", &stats)], 0));
        let lat = m.series()[&0].view(SeriesView::LatencyP95);
        assert_eq!(lat[0], 0.0);
        assert!(lat[1] > 0.0, "p95lat={}", lat[1]);
    }

    #[test]
    fn rate_tolerates_non_monotonic_counters() {
        // A node restart (or stats reset) makes a cumulative counter go
        // backwards between samples; the differenced rate must clamp to 0
        // rather than wrap to ~u64::MAX.
        let stats = NodeStats::new();
        let mut series = TimeSeries::default();
        for (t, in_count) in [(0.0, 1000), (1.0, 200), (2.0, 700)] {
            let mut row = snap(&[(0, "n", &stats)], 0).nodes.remove(0);
            row.stats.in_count = in_count;
            series.times.push(t);
            series.samples.push(row);
        }
        let rates = series.view(SeriesView::InputRate);
        assert_eq!(rates[0], 0.0);
        assert_eq!(rates[1], 0.0, "backwards counter must clamp, not wrap");
        assert!((rates[2] - 500.0).abs() < 1e-9);
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[]), "");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(line.chars().count(), 4);
        let first = line.chars().next().unwrap();
        let last = line.chars().last().unwrap();
        assert_eq!(first, '▁');
        assert_eq!(last, '█');
        // Constant series renders at the floor, not NaN.
        let flat = sparkline(&[5.0, 5.0]);
        assert_eq!(flat, "▁▁");
    }

    #[test]
    fn background_sampler_collects() {
        let m = Monitor::new();
        let stats = Arc::new(NodeStats::new());
        let sampled = Arc::clone(&stats);
        let guard = m.spawn(std::time::Duration::from_millis(5), move || {
            snap(&[(0, "bg", &sampled)], 0)
        });
        for _ in 0..10 {
            stats.record_in(10);
            pipes_sync::thread::sleep(std::time::Duration::from_millis(5));
        }
        guard.stop();
        let n = m.series()[&0].times.len();
        assert!(n >= 2, "expected at least 2 samples, got {n}");
    }

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        let m = Monitor::new();
        // A pathologically long interval: stopping must still be prompt.
        let guard = m.spawn(std::time::Duration::from_secs(60), Telemetry::default);
        pipes_sync::thread::sleep(std::time::Duration::from_millis(20));
        let t0 = Instant::now();
        guard.stop();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "stop took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn meta_series_and_top_follow_estimator_snapshots() {
        let m = Monitor::new();
        let stats = NodeStats::new();
        let meta = NodeMeta::new();
        let sample = |t: f64| {
            let mut snapshot = snap(&[(0, "op", &stats)], 3);
            snapshot.nodes[0].meta = meta.snapshot();
            m.sample_at(t, &snapshot);
        };
        sample(0.0); // block still cold → None → 0.0 in views, `-` in top
        let cold = m.render_top();
        assert!(cold.lines().nth(1).unwrap().contains(" - "), "{cold}");
        assert!(cold.trim_end().ends_with('3'), "queue column:\n{cold}");
        meta.record_quantum(100, 25);
        sample(1.0);
        let s = &m.series()[&0];
        let sel = s.view(SeriesView::EstSelectivity);
        assert_eq!(sel[0], 0.0, "cold sample reads as zero");
        if crate::META_COMPILED_OUT {
            assert_eq!(sel[1], 0.0);
        } else {
            assert!((sel[1] - 0.25).abs() < 1e-9, "est-sel={}", sel[1]);
            assert!(s.view(SeriesView::EstInRate)[1] > 0.0);
            assert!(s.view(SeriesView::EstOutRate)[1] > 0.0);
            assert!(m.render_top().contains("0.250"), "selectivity column");
        }
    }

    #[test]
    fn render_includes_node_names() {
        let m = Monitor::new();
        m.sample_at(0.0, &snap(&[(7, "join-7", &NodeStats::new())], 0));
        let out = m.render_sparklines(SeriesView::QueueLen);
        assert!(out.contains("join-7"));
        assert!(out.contains("queue"));
        assert!(!out.contains("inf"), "got: {out:?}");
    }
}
