//! The per-node live metadata block of the metadata plane.
//!
//! Every graph node owns one [`NodeMeta`]: a lock-light bundle of online
//! estimators fed once per *drained run* (a scheduling quantum in which the
//! node consumed or produced anything) from the node-step path — never per
//! message. The block maintains:
//!
//! * input / output [`RateEstimator`]s (events per second over a sliding
//!   wall-clock window),
//! * run-level selectivity (produced / consumed messages of the quantum),
//!   EWMA-smoothed with a Welford variance alongside,
//! * inter-arrival variance of productive quanta (how bursty the node's
//!   work is).
//!
//! The operator's state footprint is not here: it is an always-on counter
//! ([`crate::NodeStats::set_state_bytes`]), stored once per step there.
//!
//! ## Concurrency
//!
//! The writer side is single-writer by construction: the graph updates a
//! node's block while holding that node's runnable lock, so the estimator
//! bundle sits behind an uncontended `Mutex`. Publication to readers
//! mirrors the trace ring's seqlock discipline (`crates/trace/src/ring.rs`):
//! the writer bumps a sequence word odd, stores the derived values into
//! plain atomic cells, and bumps the sequence even; [`NodeMeta::snapshot`]
//! reads the cells bracketed by two `Acquire` loads of the sequence and
//! retries on a change. Readers never block writers and never take the
//! estimator lock. Every access is atomic, so a torn read is stale data,
//! never UB.
//!
//! ## Compile-out
//!
//! Like the flight recorder's `trace-off`, the `meta-off` feature (and
//! `cfg(pipes_model_check)`, where the extra atomics would only blow up
//! the model checker's schedule space) compiles the whole block down to a
//! unit struct whose methods are inline no-ops; [`META_COMPILED_OUT`]
//! reports which world was built. The always-on [`crate::NodeStats`]
//! counters are unaffected.

/// Whether the metadata plane was compiled out (the `meta-off` feature, or
/// a `pipes_model_check` build). When true, [`NodeMeta::record_quantum`] is
/// an inline no-op and [`NodeMeta::snapshot`] always returns `None`.
pub const META_COMPILED_OUT: bool = cfg!(any(feature = "meta-off", pipes_model_check));

/// A consistent point-in-time copy of one node's live estimators.
///
/// Produced by [`NodeMeta::snapshot`]; `None` means the node has never had
/// a productive quantum (or the plane is disabled / compiled out).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeMetaSnapshot {
    /// Input rate over the sliding window, messages per second.
    pub in_rate: f64,
    /// Output rate over the sliding window, messages per second.
    pub out_rate: f64,
    /// EWMA-smoothed run-level selectivity (produced / consumed messages
    /// per quantum; 1.0 until the first consuming quantum).
    pub selectivity: f64,
    /// Welford population variance of the run-level selectivity samples.
    pub selectivity_var: f64,
    /// Number of run-level selectivity samples folded in so far.
    pub selectivity_samples: u64,
    /// Variance of the inter-arrival gaps between productive quanta, s².
    pub interarrival_var: f64,
    /// Seconds elapsed since the last update (staleness of this snapshot).
    pub age_secs: f64,
}

impl NodeMetaSnapshot {
    /// Whether this snapshot is fresh enough to trust at face value.
    pub fn is_fresh(&self, staleness_bound_secs: f64) -> bool {
        self.age_secs <= staleness_bound_secs
    }
}

#[cfg(not(any(feature = "meta-off", pipes_model_check)))]
pub use live::{meta_enabled, now_secs, set_meta_enabled, NodeMeta};

#[cfg(not(any(feature = "meta-off", pipes_model_check)))]
mod live {
    use super::NodeMetaSnapshot;
    use crate::estimators::{Ewma, RateEstimator, Welford};
    use pipes_sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use pipes_sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Sliding-window length of the per-node rate estimators, seconds.
    const RATE_WINDOW_SECS: f64 = 1.0;
    /// EWMA smoothing factor for run-level selectivity: heavy enough to
    /// follow workload shifts within tens of quanta, light enough to damp
    /// single-quantum noise.
    const SELECTIVITY_ALPHA: f64 = 0.2;
    /// Snapshot retry budget: a writer's publication window is a handful
    /// of stores, so more than a couple of retries means the writer was
    /// preempted mid-publication — report "no snapshot" rather than spin.
    const SNAPSHOT_RETRIES: usize = 64;

    static META_ENABLED: AtomicBool = AtomicBool::new(true);

    /// Enables or disables metadata collection at runtime (one binary can
    /// measure plane-on vs plane-off; see bench E19). Estimator state is
    /// kept, not reset.
    pub fn set_meta_enabled(on: bool) {
        // ordering: Relaxed — a pure on/off flag polled by collection
        // sites; no data is published under it.
        META_ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether metadata collection is currently enabled.
    #[inline]
    pub fn meta_enabled() -> bool {
        // ordering: Relaxed — see set_meta_enabled().
        META_ENABLED.load(Ordering::Relaxed)
    }

    /// Seconds since the process's metadata epoch (first use). All
    /// [`NodeMeta`] timestamps share this clock, so ages and inter-node
    /// comparisons are meaningful across the whole graph.
    pub fn now_secs() -> f64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
    }

    /// The writer-side estimator bundle; only touched under `est`'s lock,
    /// which the node-step path holds uncontended (single writer).
    #[derive(Debug)]
    struct Estimators {
        in_rate: RateEstimator,
        out_rate: RateEstimator,
        sel_ewma: Ewma,
        sel_var: Welford,
        interarrival: Welford,
        /// Clock of the previous update; negative before the first.
        last_update: f64,
    }

    /// One node's live metadata block. See the module docs for the
    /// concurrency protocol.
    #[derive(Debug)]
    pub struct NodeMeta {
        est: Mutex<Estimators>,
        /// Seqlock word: 0 = never published, odd = publication in
        /// progress, even = `published` cells consistent.
        seq: AtomicU64,
        in_rate_bits: AtomicU64,
        out_rate_bits: AtomicU64,
        sel_bits: AtomicU64,
        sel_var_bits: AtomicU64,
        sel_samples: AtomicU64,
        ia_var_bits: AtomicU64,
        last_update_bits: AtomicU64,
    }

    impl Default for NodeMeta {
        fn default() -> Self {
            Self::new()
        }
    }

    impl NodeMeta {
        /// Creates an empty block (no quantum recorded yet).
        pub fn new() -> Self {
            NodeMeta {
                est: Mutex::new(Estimators {
                    in_rate: RateEstimator::new(RATE_WINDOW_SECS),
                    out_rate: RateEstimator::new(RATE_WINDOW_SECS),
                    sel_ewma: Ewma::new(SELECTIVITY_ALPHA),
                    sel_var: Welford::new(),
                    interarrival: Welford::new(),
                    last_update: -1.0,
                }),
                seq: AtomicU64::new(0),
                in_rate_bits: AtomicU64::new(0),
                out_rate_bits: AtomicU64::new(0),
                sel_bits: AtomicU64::new(0),
                sel_var_bits: AtomicU64::new(0),
                sel_samples: AtomicU64::new(0),
                ia_var_bits: AtomicU64::new(0),
                last_update_bits: AtomicU64::new(0),
            }
        }

        /// Folds one drained run into the estimators and publishes the
        /// derived values. **Must only be called by the node's stepping
        /// thread** (the graph calls it under the runnable lock) — the
        /// seqlock protocol assumes a single writer.
        pub fn record_quantum(&self, consumed: u64, produced: u64) {
            if !meta_enabled() {
                return;
            }
            let now = now_secs();
            let mut est = self.est.lock();
            est.in_rate.record(now, consumed);
            est.out_rate.record(now, produced);
            if consumed > 0 {
                let s = produced as f64 / consumed as f64;
                est.sel_ewma.observe(s);
                est.sel_var.observe(s);
            }
            if est.last_update >= 0.0 {
                let gap = now - est.last_update;
                est.interarrival.observe(gap);
            }
            est.last_update = now;

            // Publish under the seqlock (see crates/trace/src/ring.rs for
            // the slot protocol this mirrors).
            // ordering: Relaxed — seq is only stored by this same thread
            // (single writer); the load needs no cross-thread ordering.
            let s0 = self.seq.load(Ordering::Relaxed);
            self.seq.store(s0 + 1, Ordering::Release); // odd: in progress
            let sel = if est.sel_var.count() == 0 {
                1.0
            } else {
                est.sel_ewma.value()
            };
            let in_rate = est.in_rate.rate(now).to_bits();
            let out_rate = est.out_rate.rate(now).to_bits();
            let sel_var = est.sel_var.variance().to_bits();
            let samples = est.sel_var.count();
            let ia_var = est.interarrival.variance().to_bits();
            let last = now.to_bits();
            // ordering: Relaxed — payload cells are guarded by the seq
            // word's Release/Acquire pair; readers that observe a
            // consistent even seq also observe these stores, and torn
            // reads of atomics are stale data, never UB. Covers every
            // payload store in this cluster.
            self.in_rate_bits.store(in_rate, Ordering::Relaxed);
            self.out_rate_bits.store(out_rate, Ordering::Relaxed);
            self.sel_bits.store(sel.to_bits(), Ordering::Relaxed);
            self.sel_var_bits.store(sel_var, Ordering::Relaxed);
            self.sel_samples.store(samples, Ordering::Relaxed);
            self.ia_var_bits.store(ia_var, Ordering::Relaxed);
            self.last_update_bits.store(last, Ordering::Relaxed);
            self.seq.store(s0 + 2, Ordering::Release); // even: consistent
        }

        /// Takes a consistent snapshot of the published estimates without
        /// blocking the writer. Returns `None` when the node has never had
        /// a productive quantum, or when a writer kept racing past the
        /// retry budget (treat as "no usable estimate" and fall back).
        pub fn snapshot(&self) -> Option<NodeMetaSnapshot> {
            for _ in 0..SNAPSHOT_RETRIES {
                let s1 = self.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    return None; // never published
                }
                if s1 % 2 == 1 {
                    pipes_sync::hint::spin_loop();
                    continue; // publication in progress
                }
                // ordering: Relaxed — bracketed by the two Acquire seq
                // loads; a slot the writer touched mid-read fails the
                // re-check below. Applies to every payload load here.
                let in_rate = f64::from_bits(self.in_rate_bits.load(Ordering::Relaxed));
                let out_rate = f64::from_bits(self.out_rate_bits.load(Ordering::Relaxed));
                let selectivity = f64::from_bits(self.sel_bits.load(Ordering::Relaxed));
                let selectivity_var = f64::from_bits(self.sel_var_bits.load(Ordering::Relaxed));
                let selectivity_samples = self.sel_samples.load(Ordering::Relaxed);
                let interarrival_var = f64::from_bits(self.ia_var_bits.load(Ordering::Relaxed));
                let last_update = f64::from_bits(self.last_update_bits.load(Ordering::Relaxed));
                let s2 = self.seq.load(Ordering::Acquire);
                if s1 != s2 {
                    continue; // torn: writer republished mid-read
                }
                return Some(NodeMetaSnapshot {
                    in_rate,
                    out_rate,
                    selectivity,
                    selectivity_var,
                    selectivity_samples,
                    interarrival_var,
                    age_secs: (now_secs() - last_update).max(0.0),
                });
            }
            None
        }
    }
}

#[cfg(any(feature = "meta-off", pipes_model_check))]
pub use noop::{meta_enabled, now_secs, set_meta_enabled, NodeMeta};

#[cfg(any(feature = "meta-off", pipes_model_check))]
mod noop {
    use super::NodeMetaSnapshot;

    /// Compiled-out stand-in: every method is an inline no-op.
    #[derive(Debug, Default)]
    pub struct NodeMeta;

    impl NodeMeta {
        /// Creates the (zero-sized) block.
        #[inline(always)]
        pub fn new() -> Self {
            NodeMeta
        }

        /// No-op in the compiled-out configuration.
        #[inline(always)]
        pub fn record_quantum(&self, _consumed: u64, _produced: u64) {}

        /// Always `None` in the compiled-out configuration.
        #[inline(always)]
        pub fn snapshot(&self) -> Option<NodeMetaSnapshot> {
            None
        }
    }

    /// No-op in the compiled-out configuration.
    #[inline(always)]
    pub fn set_meta_enabled(_on: bool) {}

    /// Always `false` in the compiled-out configuration.
    #[inline(always)]
    pub fn meta_enabled() -> bool {
        false
    }

    /// Wall-clock seconds since first use (kept so callers compile
    /// identically in both configurations).
    pub fn now_secs() -> f64 {
        use pipes_sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

#[cfg(all(test, not(any(feature = "meta-off", pipes_model_check))))]
mod tests {
    use super::*;
    use pipes_sync::Arc;

    #[test]
    fn unwarmed_block_has_no_snapshot() {
        let m = NodeMeta::new();
        assert_eq!(m.snapshot(), None);
    }

    #[test]
    fn quanta_feed_rates_and_selectivity() {
        let m = NodeMeta::new();
        // Three drained runs of a drop-half operator.
        for _ in 0..3 {
            m.record_quantum(100, 50);
        }
        let s = m.snapshot().expect("warm block snapshots");
        assert!((s.selectivity - 0.5).abs() < 1e-9);
        assert_eq!(s.selectivity_samples, 3);
        assert!(s.selectivity_var.abs() < 1e-12, "constant samples");
        // 300 in / 150 out within the 1s window.
        assert!(s.in_rate >= 300.0 - 1e-6, "in_rate={}", s.in_rate);
        assert!(s.out_rate >= 150.0 - 1e-6, "out_rate={}", s.out_rate);
        assert!((s.in_rate / s.out_rate - 2.0).abs() < 1e-9);
        assert!(s.age_secs >= 0.0 && s.age_secs < 5.0);
        assert!(s.is_fresh(5.0));
        assert!(!s.is_fresh(0.0) || s.age_secs == 0.0);
    }

    #[test]
    fn source_quanta_have_unit_selectivity_placeholder() {
        let m = NodeMeta::new();
        m.record_quantum(0, 64); // a source: produces, consumes nothing
        let s = m.snapshot().unwrap();
        assert_eq!(s.selectivity_samples, 0);
        assert_eq!(s.selectivity, 1.0, "no consuming quantum yet");
        assert!(s.out_rate > 0.0);
        assert_eq!(s.in_rate, 0.0);
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let m = NodeMeta::new();
        set_meta_enabled(false);
        m.record_quantum(10, 10);
        set_meta_enabled(true);
        assert_eq!(m.snapshot(), None, "disabled quanta must not publish");
        m.record_quantum(10, 10);
        assert!(m.snapshot().is_some());
    }

    #[test]
    fn selectivity_variance_tracks_run_spread() {
        let m = NodeMeta::new();
        m.record_quantum(100, 0);
        m.record_quantum(100, 100);
        let s = m.snapshot().unwrap();
        // Samples {0, 1}: population variance 0.25.
        assert!((s.selectivity_var - 0.25).abs() < 1e-12);
        assert_eq!(s.selectivity_samples, 2);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_bits() {
        // A writer republishes continuously while readers snapshot; every
        // snapshot must be internally consistent (rates derived from the
        // same publication, so in/out stay in the written 2:1 ratio).
        let m = Arc::new(NodeMeta::new());
        let stop = Arc::new(pipes_sync::atomic::AtomicBool::new(false));
        let writer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            pipes_sync::thread::spawn(move || {
                // ordering: Relaxed — test-local stop flag, no payload.
                while !stop.load(pipes_sync::atomic::Ordering::Relaxed) {
                    m.record_quantum(64, 32);
                }
            })
        };
        // The reader loop below is over in microseconds: wait for the
        // writer thread to be scheduled and publish once before racing it.
        while m.snapshot().is_none() {
            pipes_sync::thread::yield_now();
        }
        let mut seen = 0;
        for _ in 0..10_000 {
            if let Some(s) = m.snapshot() {
                seen += 1;
                assert!((s.selectivity - 0.5).abs() < 1e-9, "torn selectivity");
                assert!(
                    (s.in_rate - 2.0 * s.out_rate).abs() < 1e-6,
                    "torn rate pair: in={} out={}",
                    s.in_rate,
                    s.out_rate
                );
            }
        }
        // ordering: Relaxed — test-local stop flag, no payload.
        stop.store(true, pipes_sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        assert!(seen > 0, "reader never caught a consistent snapshot");
    }
}

#[cfg(all(test, any(feature = "meta-off", pipes_model_check)))]
mod off_tests {
    use super::*;

    #[test]
    fn compiled_out_block_is_inert() {
        assert!(META_COMPILED_OUT);
        let m = NodeMeta::new();
        m.record_quantum(100, 50);
        assert_eq!(m.snapshot(), None);
        set_meta_enabled(true);
        assert!(!meta_enabled(), "compiled out: plane can never enable");
    }
}
