//! Granularity conversion: periodic sampling of a continuous stream.
//!
//! CQL-style queries often ask for results on a coarser grid than the input
//! changes on — "return *every 10 minutes* the highest bid of the recent 10
//! minutes". [`Granularity`] converts an interval stream into periodic
//! samples: at every grid instant `g = k·period` it emits the payloads valid
//! at `g`, each with validity `[g, g+period)`.
//!
//! This is a deliberate, bounded approximation (snapshots *between* grid
//! points reflect the last grid point), traded for a hard cap on the output
//! rate — the second of the paper's rate-reduction mechanisms.
//!
//! Over a window aggregate, sampling the aggregate's output throws away
//! nearly every row it finalized. The CQL compiler therefore samples such
//! aggregates inside the aggregate instead — the grid layout of
//! [`crate::aggregate`] ([`crate::ScalarAggregate::sampled`],
//! [`crate::GroupedAggregate::sampled`]), which gives the same rows per
//! grid instant — and keeps `Granularity` for every other input: streams
//! that are not an aggregate, aggregates over count windows or joins,
//! grids finer than `TREE_CONVERT_WIDTH` instants per window, and
//! aggregates another query already runs.

use pipes_graph::{Collector, Operator};
use pipes_time::{Duration, Element, TimeInterval, Timestamp};

/// Samples the stream at every multiple of `period`.
pub struct Granularity<T> {
    period: Duration,
    /// Next grid instant to sample.
    next_grid: Timestamp,
    /// Elements possibly valid at or after `next_grid`.
    buffer: Vec<Element<T>>,
}

impl<T> Granularity<T> {
    /// Creates the operator with the given sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: Duration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        Granularity {
            period,
            next_grid: Timestamp::ZERO,
            buffer: Vec::new(),
        }
    }

    fn sample_up_to(&mut self, wm: Timestamp, out: &mut dyn Collector<T>)
    where
        T: Clone,
    {
        // A grid instant g is final once wm > g: all elements starting
        // before or at g are known.
        while self.next_grid < wm && self.next_grid < Timestamp::MAX {
            if self.buffer.is_empty() {
                // Nothing can cover any grid point before wm (future
                // elements start at or after wm): fast-forward.
                self.next_grid = self.next_grid.max(wm.align_up(self.period));
                break;
            }
            let g = self.next_grid;
            let until = g.saturating_add(self.period);
            for e in &self.buffer {
                if e.interval.contains(g) {
                    out.element(Element::new(e.payload.clone(), TimeInterval::new(g, until)));
                }
            }
            self.buffer.retain(|e| e.end() > until);
            self.next_grid = until;
        }
    }

    /// Bounds an incoming watermark so that sampling terminates even for
    /// elements with unbounded validity: at the horizon we sample only up to
    /// the last *finite* interval end.
    fn effective_wm(&self, t: Timestamp) -> Timestamp {
        if t < Timestamp::MAX {
            return t;
        }
        self.buffer
            .iter()
            .map(Element::end)
            .filter(|e| *e < Timestamp::MAX)
            .max()
            .unwrap_or(self.next_grid)
    }
}

impl<T: Send + Clone + 'static> Operator for Granularity<T> {
    type In = T;
    type Out = T;

    fn on_element(&mut self, _port: usize, e: Element<T>, _out: &mut dyn Collector<T>) {
        // Only keep elements that can still cover a future grid point.
        if e.end() > self.next_grid {
            self.buffer.push(e);
        }
    }

    fn on_heartbeat(&mut self, _port: usize, t: Timestamp, out: &mut dyn Collector<T>) {
        let wm = self.effective_wm(t);
        self.sample_up_to(wm, out);
        // Progress is certified up to the last completed grid instant.
        out.heartbeat(self.next_grid.min(t));
    }

    fn on_close(&mut self, out: &mut dyn Collector<T>) {
        // Sample every grid instant still covered by buffered elements.
        let wm = self.effective_wm(Timestamp::MAX);
        self.sample_up_to(wm, out);
    }

    fn memory(&self) -> usize {
        self.buffer.len()
    }

    fn shed(&mut self, target: usize) -> usize {
        if self.buffer.len() > target {
            // Drop the elements expiring soonest: they affect the fewest
            // future grid points.
            self.buffer.sort_by_key(|e| std::cmp::Reverse(e.end()));
            self.buffer.truncate(target);
        }
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{check_watermark_contract, run_unary, run_unary_messages};

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::new(s), Timestamp::new(e))
    }

    #[test]
    fn samples_on_grid() {
        // Period 10; element valid [5, 25) is seen at grids 10 and 20 but
        // not at 0.
        let out = run_unary(
            Granularity::new(Duration::from_ticks(10)),
            vec![el(7, 5, 25)],
        );
        assert_eq!(
            out,
            vec![Element::new(7, iv(10, 20)), Element::new(7, iv(20, 30))]
        );
    }

    #[test]
    fn element_covering_grid_zero() {
        let out = run_unary(
            Granularity::new(Duration::from_ticks(10)),
            vec![el(1, 0, 5)],
        );
        assert_eq!(out, vec![Element::new(1, iv(0, 10))]);
    }

    #[test]
    fn short_lived_elements_between_grids_vanish() {
        let out = run_unary(
            Granularity::new(Duration::from_ticks(10)),
            vec![el(1, 12, 18)],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn caps_output_rate() {
        // 100 one-tick elements, period 25: at most 4-5 samples.
        let input: Vec<Element<i64>> = (0..100).map(|i| el(1, i, i + 1)).collect();
        let out = run_unary(Granularity::new(Duration::from_ticks(25)), input);
        assert!(out.len() <= 4, "got {} samples", out.len());
    }

    #[test]
    fn watermark_contract_upheld() {
        let input: Vec<Element<i64>> = (0..50i64).map(|i| el(i, i as u64, i as u64 + 12)).collect();
        let msgs = run_unary_messages(Granularity::new(Duration::from_ticks(10)), input);
        check_watermark_contract(&msgs).unwrap();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Granularity::<i64>::new(Duration::ZERO);
    }
}
