//! Interval coalescing — the rate-reduction mechanism of the algebra.
//!
//! Aggregation (and other derived streams) often produce runs of elements
//! with equal payloads on adjacent intervals — e.g. a windowed count that
//! stays at `3` across many partials. Coalescing merges such value-
//! equivalent, temporally adjacent or overlapping elements into a single
//! element covering the union, which is snapshot-equivalent for streams in
//! which each payload is valid at most once per instant (true for aggregate
//! outputs) and can *substantially reduce stream rates* — one of the special
//! mechanisms the PIPES paper highlights.
//!
//! Unlike [`crate::distinct::Distinct`], coalesce deliberately *holds back*
//! the watermark to the start of its oldest pending run: splitting runs at
//! every heartbeat would defeat the merging. The cost is output latency
//! proportional to run length; experiment E9 measures the trade.

use crate::distinct::{Coverage, IntervalSet};
use pipes_graph::{Collector, Operator};
use pipes_time::{Element, Timestamp};
use std::hash::Hash;

/// Merges value-equivalent, adjacent-or-overlapping elements into maximal
/// runs.
pub struct Coalesce<T> {
    coverage: Coverage<T>,
}

impl<T: Hash + Eq> Coalesce<T> {
    /// Creates the operator.
    pub fn new() -> Self {
        Coalesce {
            coverage: Coverage::default(),
        }
    }
}

impl<T: Hash + Eq> Default for Coalesce<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Operator for Coalesce<T>
where
    T: Hash + Eq + Ord + Send + Clone + 'static,
{
    type In = T;
    type Out = T;

    fn on_element(&mut self, _port: usize, e: Element<T>, _out: &mut dyn Collector<T>) {
        self.coverage.insert(e);
    }

    fn on_heartbeat(&mut self, _port: usize, t: Timestamp, out: &mut dyn Collector<T>) {
        self.coverage
            .release(|set| set.take_strictly_before(t), out);
        // Hold the watermark at the oldest pending run: it may still grow.
        let held = self.coverage.earliest_start().map_or(t, |s| s.min(t));
        out.heartbeat(held);
    }

    fn on_close(&mut self, out: &mut dyn Collector<T>) {
        self.coverage.release(IntervalSet::take_all, out);
    }

    fn memory(&self) -> usize {
        self.coverage.memory()
    }

    fn shed(&mut self, target: usize) -> usize {
        self.coverage.shed(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountAgg, ScalarAggregate};
    use crate::drive::{check_watermark_contract, run_unary, run_unary_messages};
    use pipes_graph::OperatorExt;
    use pipes_time::{snapshot, TimeInterval};

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::new(s), Timestamp::new(e))
    }

    #[test]
    fn merges_adjacent_equal_values() {
        let input = vec![el(5, 0, 3), el(5, 3, 7), el(5, 7, 10)];
        let out = run_unary(Coalesce::new(), input);
        assert_eq!(out, vec![el(5, 0, 10)]);
    }

    #[test]
    fn different_values_stay_apart() {
        let input = vec![el(1, 0, 3), el(2, 3, 7)];
        let out = run_unary(Coalesce::new(), input.clone());
        assert_eq!(out, vec![el(1, 0, 3), el(2, 3, 7)]);
        snapshot::check_unary(&input, &out, |s| s).unwrap();
    }

    #[test]
    fn gaps_break_runs() {
        let input = vec![el(5, 0, 3), el(5, 4, 7)];
        let out = run_unary(Coalesce::new(), input);
        assert_eq!(out, vec![el(5, 0, 3), el(5, 4, 7)]);
    }

    #[test]
    fn reduces_aggregate_output_rate() {
        // A constant count over many contiguous windows coalesces to few
        // elements.
        let input: Vec<Element<i64>> = (0..50)
            .map(|i| el(1, i, i + 1)) // one element valid at every instant
            .collect();
        let agged = run_unary(ScalarAggregate::new(CountAgg), input.clone());
        assert!(agged.len() >= 40, "aggregate produces many partials");
        let coalesced = run_unary(
            ScalarAggregate::new(CountAgg).then(Coalesce::new()),
            input.clone(),
        );
        assert_eq!(coalesced, vec![Element::new(1u64, iv(0, 50))]);
        // And it is still snapshot-equivalent to the relational count.
        snapshot::check_unary(&input, &coalesced, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        })
        .unwrap();
    }

    #[test]
    fn watermark_is_held_not_violated() {
        let input: Vec<Element<i64>> = (0..30).map(|i| el(1, i, i + 1)).collect();
        let msgs = run_unary_messages(Coalesce::new(), input);
        check_watermark_contract(&msgs).unwrap();
    }
}
