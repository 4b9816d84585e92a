//! Always-on per-node statistics.

use crate::estimators::P2Quantile;
use crate::MetricSet;
use pipes_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use pipes_sync::Mutex;

/// Cheap, always-on counters maintained by every node of a query graph.
///
/// All fields are atomics so the hot path (element processing) never blocks;
/// the composable [`MetricSet`] behind a mutex is only touched when custom
/// metadata has been attached via the decorator factory.
#[derive(Debug, Default)]
pub struct NodeStats {
    in_count: AtomicU64,
    out_count: AtomicU64,
    batch_count: AtomicU64,
    state_bytes: AtomicUsize,
    subscribers: AtomicUsize,
    custom: Mutex<MetricSet>,
    latency: Mutex<Option<LatencyQuantiles>>,
}

/// P² estimators fed by the trace latency pipeline; lazily created on the
/// first batch of samples so nodes without latency tracking pay nothing.
#[derive(Debug)]
struct LatencyQuantiles {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    count: u64,
}

impl NodeStats {
    /// Creates zeroed stats. (A node's name is the graph's to know: it
    /// travels in the telemetry row's `NodeInfo`, not in the counters.)
    pub fn new() -> Self {
        NodeStats::default()
    }

    /// Records `n` consumed elements.
    #[inline]
    pub fn record_in(&self, n: u64) {
        // ordering: Relaxed — statistics counters carry no payload and
        // synchronize nothing; snapshots tolerate torn cross-counter reads
        // (see snapshot()). Applies to every counter update in this impl.
        self.in_count.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` produced elements.
    #[inline]
    pub fn record_out(&self, n: u64) {
        // ordering: Relaxed — see record_in().
        self.out_count.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` batched input-queue drains (runs moved under one lock).
    #[inline]
    pub fn record_batches(&self, n: u64) {
        // ordering: Relaxed — see record_in().
        self.batch_count.fetch_add(n, Ordering::Relaxed);
    }

    /// Publishes the node's estimated state footprint in bytes (count ×
    /// per-unit estimate; see `pipes_meta::estimators::StateSize`).
    #[inline]
    pub fn set_state_bytes(&self, bytes: usize) {
        // ordering: Relaxed — see record_in().
        self.state_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Publishes the current number of subscribed sinks.
    #[inline]
    pub fn set_subscribers(&self, n: usize) {
        // ordering: Relaxed — see record_in().
        self.subscribers.store(n, Ordering::Relaxed);
    }

    /// Runs `f` with exclusive access to the composable metric set.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricSet) -> R) -> R {
        f(&mut self.custom.lock())
    }

    /// Feeds a batch of source-to-sink latency samples (nanoseconds) into
    /// the node's P² quantile estimators.
    ///
    /// Called by sinks on the trace latency pipeline, once per scheduler
    /// quantum with the quantum's sampled observations — one lock per
    /// quantum, not per tuple. The estimators are created on first use.
    pub fn record_latency_ns(&self, samples: &[u64]) {
        if samples.is_empty() {
            return;
        }
        let mut guard = self.latency.lock();
        let lat = guard.get_or_insert_with(|| LatencyQuantiles {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            count: 0,
        });
        for &s in samples {
            let x = s as f64;
            lat.p50.observe(x);
            lat.p95.observe(x);
            lat.p99.observe(x);
        }
        lat.count += samples.len() as u64;
    }

    /// Current latency quantiles, or `None` if no latency sample was ever
    /// recorded (latency tracking disabled or node is not a sink).
    pub fn latency(&self) -> Option<LatencySummary> {
        self.latency.lock().as_ref().map(|l| LatencySummary {
            count: l.count,
            p50_ns: l.p50.value(),
            p95_ns: l.p95.value(),
            p99_ns: l.p99.value(),
        })
    }

    /// Observed selectivity (produced / consumed elements; `None` until the
    /// node has consumed anything), read straight off the two counters: the
    /// form for schedulers, which ask per pick and do not need the latency
    /// quantiles a [`NodeStats::snapshot`] locks for.
    pub fn selectivity(&self) -> Option<f64> {
        // ordering: Relaxed — see snapshot().
        let consumed = self.in_count.load(Ordering::Relaxed);
        let produced = self.out_count.load(Ordering::Relaxed);
        (consumed != 0).then(|| produced as f64 / consumed as f64)
    }

    /// Takes a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            // ordering: Relaxed — the snapshot is "consistent enough" by
            // contract: each counter is read atomically but the set is not
            // a cross-counter linearization point; monitoring tolerates a
            // snapshot taken mid-update.
            in_count: self.in_count.load(Ordering::Relaxed),
            out_count: self.out_count.load(Ordering::Relaxed),
            batch_count: self.batch_count.load(Ordering::Relaxed),
            state_bytes: self.state_bytes.load(Ordering::Relaxed),
            subscribers: self.subscribers.load(Ordering::Relaxed),
            latency: self.latency(),
        }
    }
}

/// A point-in-time copy of a node's source-to-sink latency quantiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of latency samples observed.
    pub count: u64,
    /// Median latency estimate, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile latency estimate, nanoseconds.
    pub p95_ns: f64,
    /// 99th-percentile latency estimate, nanoseconds.
    pub p99_ns: f64,
}

/// A point-in-time copy of a node's counters. Queue depth and retained
/// elements are not here: their one home is the node's readiness cell, and
/// the telemetry row reads them there.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Elements consumed so far.
    pub in_count: u64,
    /// Elements produced so far.
    pub out_count: u64,
    /// Batched input-queue drains so far (runs moved under one lock).
    pub batch_count: u64,
    /// Estimated state footprint in bytes (0 when the operator does not
    /// report one).
    pub state_bytes: usize,
    /// Current number of subscribed sinks.
    pub subscribers: usize,
    /// Latency quantiles, when the trace latency pipeline is attached.
    pub latency: Option<LatencySummary>,
}

impl StatsSnapshot {
    /// Observed selectivity: produced / consumed elements. `None` until the
    /// node has consumed anything.
    pub fn selectivity(&self) -> Option<f64> {
        if self.in_count == 0 {
            None
        } else {
            Some(self.out_count as f64 / self.in_count as f64)
        }
    }

    /// Mean messages moved per batched queue drain: how much per-message
    /// locking the batched data path amortized away. `None` until the node
    /// has drained anything (e.g. sources, which consume no input).
    pub fn avg_batch_size(&self) -> Option<f64> {
        if self.batch_count == 0 {
            None
        } else {
            Some(self.in_count as f64 / self.batch_count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::Welford;

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::new();
        s.record_in(10);
        s.record_in(5);
        s.record_out(6);
        s.record_batches(3);
        s.set_state_bytes(42 * 40);
        s.set_subscribers(2);
        let snap = s.snapshot();
        assert_eq!(snap.in_count, 15);
        assert_eq!(snap.out_count, 6);
        assert_eq!(snap.batch_count, 3);
        assert_eq!(snap.state_bytes, 1680);
        assert_eq!(snap.subscribers, 2);
        assert_eq!(snap.latency, None);
        assert!((snap.selectivity().unwrap() - 0.4).abs() < 1e-12);
        assert!((snap.avg_batch_size().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn avg_batch_size_undefined_without_batches() {
        let s = NodeStats::new();
        s.record_in(10);
        assert_eq!(s.snapshot().avg_batch_size(), None);
    }

    #[test]
    fn selectivity_undefined_before_input() {
        let s = NodeStats::new();
        assert_eq!(s.snapshot().selectivity(), None);
    }

    #[test]
    fn custom_metrics_accessible() {
        let s = NodeStats::new();
        s.with_metrics(|m| m.attach("probe_cost", Box::new(Welford::new())));
        s.with_metrics(|m| m.observe("probe_cost", 12.0));
        assert_eq!(s.with_metrics(|m| m.value("probe_cost")), Some(12.0));
    }

    #[test]
    fn latency_quantiles_track_samples() {
        let s = NodeStats::new();
        assert_eq!(s.latency(), None);
        s.record_latency_ns(&[]);
        assert_eq!(s.latency(), None, "empty batches must not create state");

        let samples: Vec<u64> = (1..=1000).collect();
        s.record_latency_ns(&samples);
        let lat = s.latency().expect("latency recorded");
        assert_eq!(lat.count, 1000);
        assert!((lat.p50_ns - 500.0).abs() < 50.0, "p50={}", lat.p50_ns);
        assert!((lat.p95_ns - 950.0).abs() < 50.0, "p95={}", lat.p95_ns);
        assert!((lat.p99_ns - 990.0).abs() < 50.0, "p99={}", lat.p99_ns);
        assert!(lat.p50_ns <= lat.p95_ns && lat.p95_ns <= lat.p99_ns);
        assert_eq!(s.snapshot().latency, Some(lat));
    }

    #[test]
    fn stats_shared_across_threads() {
        use pipes_sync::Arc;
        let s = Arc::new(NodeStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                pipes_sync::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_in(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().in_count, 4000);
    }
}
