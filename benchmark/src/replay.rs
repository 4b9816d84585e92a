//! Benchmark-owned sources: one materialised input block replayed in laps,
//! either as fast as the scheduler pulls (saturation, closed loop) or on a
//! wall-clock schedule (paced, open loop).

use crate::stats::Histogram;
use pipes::graph::{Collector, SourceOp, SourceStatus};
use pipes::time::{Element, TimeInterval, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One generated input block and the logical-time shift between laps.
pub struct Block<T> {
    pub elems: Vec<Element<T>>,
    /// Ticks added per lap. A multiple of the workload's largest `EVERY`
    /// period, so every lap meets the sampling grid at the same offsets,
    /// and larger than every start in the block, so starts stay
    /// non-decreasing across the lap boundary.
    pub span: u64,
}

impl<T> Block<T> {
    /// Wraps start-ordered `elems`; `grid` is the largest `EVERY` period of
    /// the workload in ticks (1 when there is none).
    pub fn new(elems: Vec<Element<T>>, grid: u64) -> Self {
        assert!(!elems.is_empty(), "an input block needs elements");
        assert!(
            elems.windows(2).all(|w| w[0].start() <= w[1].start()),
            "input block must be start-ordered"
        );
        let last = elems[elems.len() - 1].start().ticks();
        let grid = grid.max(1);
        let span = (last / grid + 1) * grid;
        Block { elems, span }
    }
}

/// The wall clock of one phase, shared by its sources and sinks. It starts
/// at the first reading — the first `produce` call — so graph construction
/// between building the sources and starting the executor is not charged
/// to the schedule.
#[derive(Clone, Default)]
pub struct PhaseClock(Arc<OnceLock<Instant>>);

impl PhaseClock {
    pub fn now_ns(&self) -> u64 {
        let d = self.0.get_or_init(Instant::now).elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }
}

/// Events are released in ticks of this length: everything the compressed
/// schedule places inside a tick is due at the tick's end, the way a
/// network hands a server its input in packets. Regular batches keep the
/// executors' park/wake dynamics — and with them the latency tail —
/// repeatable; dribbling events out one by one does not.
pub const RELEASE_TICK_NS: u64 = 1_000_000;

/// Time-compressed replay schedule: the event with logical time `t` falls
/// `(t - base) * ns_per_tick` nanoseconds after the phase clock starts and
/// is due at the end of the release tick that holds that instant.
#[derive(Clone, Copy)]
pub struct Pace {
    base: u64,
    ns_per_tick: f64,
}

impl Pace {
    /// A schedule that replays `block` at `rate_eps` events per wall second
    /// on average (one lap of `n` events takes `n / rate_eps` seconds).
    pub fn for_block<T>(block: &Block<T>, rate_eps: f64) -> Self {
        let lap_ns = block.elems.len() as f64 / rate_eps * 1e9;
        Pace {
            base: block.elems[0].start().ticks(),
            ns_per_tick: lap_ns / block.span as f64,
        }
    }

    pub fn due_ns(&self, ticks: u64) -> u64 {
        let at = (ticks.saturating_sub(self.base) as f64 * self.ns_per_tick) as u64;
        at.div_ceil(RELEASE_TICK_NS).saturating_mul(RELEASE_TICK_NS)
    }
}

/// When a source stops.
#[derive(Clone, Copy)]
pub enum Limit {
    /// After this many elements (verify passes, one-shot inputs).
    Events(u64),
    /// At the first `produce` call this long after the phase clock started
    /// (time-boxed phases: runs do not shrink when the engine gets faster).
    After(Duration),
}

/// How late the paced source ran. One trend point per millisecond bounds
/// the log; the histogram takes every element.
#[derive(Default)]
pub struct LagLog {
    pub hist: Histogram,
    /// (seconds since phase start, lag in seconds).
    pub trend: Vec<(f64, f64)>,
    last_trend_ns: u64,
}

/// Counters a source shares with the phase runner.
#[derive(Default)]
pub struct SourceTally {
    pub emitted: AtomicU64,
    pub lag: Mutex<LagLog>,
}

pub struct ReplaySource<T> {
    block: Arc<Block<T>>,
    pos: usize,
    shift: u64,
    emitted: u64,
    limit: Limit,
    pace: Option<Pace>,
    clock: PhaseClock,
    tally: Arc<SourceTally>,
    closing_heartbeat: Option<Timestamp>,
}

impl<T: Clone> ReplaySource<T> {
    pub fn new(
        block: Arc<Block<T>>,
        limit: Limit,
        pace: Option<Pace>,
        clock: PhaseClock,
        tally: Arc<SourceTally>,
    ) -> Self {
        ReplaySource {
            block,
            pos: 0,
            shift: 0,
            emitted: 0,
            limit,
            pace,
            clock,
            tally,
            closing_heartbeat: None,
        }
    }

    /// Ends the stream with a heartbeat at `t` once the event limit is
    /// reached. A binary operator keeps a closed input's last watermark, so
    /// a one-shot input that just closed would hold the operator's output
    /// watermark — and every result behind it — until the other input closes
    /// too; the final punctuation says "nothing more will ever start before
    /// `t`" in a form the operator acts on.
    pub fn with_closing_heartbeat(mut self, t: Timestamp) -> Self {
        self.closing_heartbeat = Some(t);
        self
    }

    fn out_of_events(&self) -> bool {
        matches!(self.limit, Limit::Events(max) if self.emitted >= max)
    }

    fn past_deadline(&self, now_ns: u64) -> bool {
        matches!(self.limit, Limit::After(d) if now_ns >= d.as_nanos() as u64)
    }

    /// Waits for `due_ns` on the phase clock, but never past the deadline.
    /// Returns the clock reading it stopped at.
    ///
    /// The executors quit after 10 000 consecutive empty quanta, so a paced
    /// source must not answer `Idle` while it waits for the schedule; it
    /// waits here instead. It spins: a sleep overshoots by a share of a
    /// release tick, and late ticks were most of the latency tail. Only gaps
    /// of several ticks are slept through.
    fn wait_until(&self, due_ns: u64) -> u64 {
        let target = match self.limit {
            Limit::After(d) => due_ns.min(d.as_nanos() as u64),
            Limit::Events(_) => due_ns,
        };
        loop {
            let now = self.clock.now_ns();
            if now >= target {
                return now;
            }
            // Short waits re-read the clock without a `spin_loop` hint: on a
            // virtual CPU a long run of PAUSE instructions invites the
            // hypervisor to deschedule the "lock spinner".
            let remaining = target - now;
            if remaining > 2_000_000 {
                std::thread::sleep(Duration::from_nanos(remaining - 1_000_000));
            }
        }
    }
}

impl<T: Send + Sync + Clone + 'static> SourceOp for ReplaySource<T> {
    type Out = T;

    fn produce(&mut self, budget: usize, out: &mut dyn Collector<T>) -> SourceStatus {
        let mut now = self.clock.now_ns();
        if self.out_of_events() || self.past_deadline(now) {
            return SourceStatus::Exhausted;
        }
        let mut produced = 0usize;
        let mut last_start = None;
        let tally = Arc::clone(&self.tally);
        let mut lags = self
            .pace
            .map(|_| tally.lag.lock().expect("lag log poisoned"));
        while produced < budget && !self.out_of_events() {
            let e = &self.block.elems[self.pos];
            let start = e.start().ticks() + self.shift;
            if let Some(pace) = &self.pace {
                let due = pace.due_ns(start);
                if due > now {
                    if produced > 0 {
                        break;
                    }
                    now = self.wait_until(due);
                    if due > now {
                        break; // the deadline came first
                    }
                }
                let log = lags.as_mut().expect("paced sources hold the lag log");
                log.hist.record(now - due);
                if now - log.last_trend_ns >= 1_000_000 || log.trend.is_empty() {
                    log.last_trend_ns = now;
                    log.trend.push((now as f64 / 1e9, (now - due) as f64 / 1e9));
                }
            }
            let end = e.end().ticks().saturating_add(self.shift);
            out.element(Element::new(
                e.payload.clone(),
                TimeInterval::new(Timestamp::new(start), Timestamp::new(end)),
            ));
            last_start = Some(start);
            produced += 1;
            self.emitted += 1;
            self.pos += 1;
            if self.pos == self.block.elems.len() {
                self.pos = 0;
                self.shift += self.block.span;
            }
        }
        drop(lags);
        match (self.closing_heartbeat, last_start) {
            (Some(t), _) if self.out_of_events() => out.heartbeat(t),
            (_, Some(start)) => out.heartbeat(Timestamp::new(start)),
            _ => {}
        }
        // ordering: Relaxed — a statistic read after the executor returned.
        tally.emitted.fetch_add(produced as u64, Ordering::Relaxed);
        if produced == 0 || self.out_of_events() {
            SourceStatus::Exhausted
        } else {
            SourceStatus::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipes::time::Message;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn block(n: u64, grid: u64) -> Arc<Block<u64>> {
        let elems = (0..n)
            .map(|i| Element::at(i * 7 % 13, Timestamp::new(5 + i * 3)))
            .collect();
        Arc::new(Block::new(elems, grid))
    }

    fn source(b: &Arc<Block<u64>>, limit: Limit, pace: Option<Pace>) -> ReplaySource<u64> {
        ReplaySource::new(
            Arc::clone(b),
            limit,
            pace,
            PhaseClock::default(),
            Arc::new(SourceTally::default()),
        )
    }

    #[test]
    fn span_is_grid_aligned_and_past_the_last_start() {
        let b = block(100, 50);
        assert_eq!(b.span % 50, 0);
        assert!(b.span > 5 + 99 * 3);
        assert_eq!(block(100, 0).span, 5 + 99 * 3 + 1);
    }

    #[test]
    fn laps_keep_starts_ordered_and_payloads_identical() {
        let b = block(100, 50);
        let mut src = source(&b, Limit::Events(350), None);
        let mut out: Vec<Message<u64>> = Vec::new();
        while src.produce(64, &mut out) == SourceStatus::Active {}
        let elems: Vec<&Element<u64>> = out
            .iter()
            .filter_map(|m| match m {
                Message::Element(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(elems.len(), 350);
        assert!(elems.windows(2).all(|w| w[0].start() <= w[1].start()));
        // Heartbeats never run ahead of a later element.
        let mut wm = 0;
        for m in &out {
            match m {
                Message::Heartbeat(t) => wm = t.ticks(),
                Message::Element(e) => assert!(e.start().ticks() >= wm),
                Message::Close => {}
            }
        }
        let lap_digest = |lap: usize| {
            let mut h = DefaultHasher::new();
            for e in &elems[lap * 100..(lap + 1) * 100] {
                e.payload.hash(&mut h);
                (e.start().ticks() - lap as u64 * b.span).hash(&mut h);
                (e.end().ticks() - lap as u64 * b.span).hash(&mut h);
            }
            h.finish()
        };
        assert_eq!(lap_digest(0), lap_digest(1));
        assert_eq!(lap_digest(0), lap_digest(2));
    }

    #[test]
    fn paced_source_never_emits_early_and_stops_at_the_deadline() {
        let b = block(200, 1);
        // 2 000 events/s: the 0.2 s box holds about 400 events, two laps.
        let pace = Pace::for_block(&b, 2_000.0);
        let clock = PhaseClock::default();
        let tally = Arc::new(SourceTally::default());
        let mut src = ReplaySource::new(
            Arc::clone(&b),
            Limit::After(Duration::from_millis(200)),
            Some(pace),
            clock.clone(),
            Arc::clone(&tally),
        );
        let mut emitted = 0u64;
        loop {
            let mut out: Vec<Message<u64>> = Vec::new();
            let status = src.produce(16, &mut out);
            let now = clock.now_ns();
            for m in &out {
                if let Message::Element(e) = m {
                    assert!(
                        pace.due_ns(e.start().ticks()) <= now,
                        "element emitted before it was due"
                    );
                    emitted += 1;
                }
            }
            if status == SourceStatus::Exhausted {
                break;
            }
            assert!(!out.is_empty(), "a paced source waits; it never idles");
        }
        assert!(clock.now_ns() >= 200_000_000);
        assert!((300..=420).contains(&emitted), "{emitted} events in 0.2 s");
        assert_eq!(tally.emitted.load(Ordering::Relaxed), emitted);
        let log = tally.lag.lock().unwrap();
        assert_eq!(log.hist.len(), emitted);
        assert!(!log.trend.is_empty());
    }
}
