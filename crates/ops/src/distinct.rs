//! Snapshot duplicate elimination.

use pipes_graph::{key_hash, Collector, KeyedState, Operator, Rekey};
use pipes_time::{Element, TimeInterval, Timestamp};
use std::collections::HashMap;
use std::hash::Hash;

/// A set of disjoint intervals kept maximally merged. Inserting an interval
/// coalesces it with everything it overlaps or touches.
#[derive(Clone, Debug, Default)]
pub(crate) struct IntervalSet {
    /// Sorted by start, pairwise disjoint and non-adjacent.
    ivs: Vec<TimeInterval>,
}

impl IntervalSet {
    pub(crate) fn len(&self) -> usize {
        self.ivs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Inserts `iv`, merging with overlapping/adjacent intervals.
    pub(crate) fn insert(&mut self, mut iv: TimeInterval) {
        let mut merged = Vec::with_capacity(self.ivs.len() + 1);
        let mut placed = false;
        for &existing in &self.ivs {
            if let Some(m) = iv.merge(&existing) {
                iv = m;
            } else if existing.start() > iv.end() {
                if !placed {
                    merged.push(iv);
                    placed = true;
                }
                merged.push(existing);
            } else {
                merged.push(existing);
            }
        }
        if !placed {
            merged.push(iv);
        }
        self.ivs = merged;
    }

    /// Removes and returns all intervals entirely before `wm`.
    pub(crate) fn take_before(&mut self, wm: Timestamp) -> Vec<TimeInterval> {
        let split = self.ivs.partition_point(|iv| iv.before(wm));
        self.ivs.drain(..split).collect()
    }

    /// Removes and returns all intervals ending *strictly* before `wm` —
    /// an interval ending exactly at `wm` stays pending, because a future
    /// element starting at `wm` could still merge with it adjacently.
    pub(crate) fn take_strictly_before(&mut self, wm: Timestamp) -> Vec<TimeInterval> {
        let split = self.ivs.partition_point(|iv| iv.end() < wm);
        self.ivs.drain(..split).collect()
    }

    /// Like [`IntervalSet::take_before`], but also splits an interval
    /// straddling `wm` and returns its finished left part. Afterwards every
    /// remaining interval starts at or after `wm`.
    pub(crate) fn split_take_before(&mut self, wm: Timestamp) -> Vec<TimeInterval> {
        let mut out = self.take_before(wm);
        if let Some(first) = self.ivs.first_mut() {
            if first.start() < wm {
                let (left, right) = first.split_at(wm);
                if let Some(l) = left {
                    out.push(l);
                }
                *first = right.expect("straddling interval has a right part");
            }
        }
        out
    }

    /// Start of the earliest pending interval, if any.
    pub(crate) fn earliest_start(&self) -> Option<Timestamp> {
        self.ivs.first().map(TimeInterval::start)
    }

    /// Removes and returns everything.
    pub(crate) fn take_all(&mut self) -> Vec<TimeInterval> {
        std::mem::take(&mut self.ivs)
    }
}

/// The operator body [`Distinct`] and [`crate::coalesce::Coalesce`] share:
/// per payload value, the merged coverage of the pending input intervals.
/// The two operators differ only in the rule by which a heartbeat releases
/// coverage ([`Coverage::release`]'s `take`) and the watermark they forward.
pub(crate) struct Coverage<T> {
    pending: HashMap<T, IntervalSet>,
}

impl<T: Hash + Eq> Default for Coverage<T> {
    fn default() -> Self {
        Coverage {
            pending: HashMap::new(),
        }
    }
}

impl<T: Hash + Eq + Ord + Clone> Coverage<T> {
    pub(crate) fn insert(&mut self, e: Element<T>) {
        self.pending
            .entry(e.payload)
            .or_default()
            .insert(e.interval);
    }

    /// Emits what `take` removes from each payload's coverage, ordered by
    /// (start, payload), and forgets the payloads left without coverage.
    pub(crate) fn release(
        &mut self,
        mut take: impl FnMut(&mut IntervalSet) -> Vec<TimeInterval>,
        out: &mut dyn Collector<T>,
    ) {
        let mut ready: Vec<(T, TimeInterval)> = Vec::new();
        for (payload, set) in self.pending.iter_mut() {
            for iv in take(set) {
                ready.push((payload.clone(), iv));
            }
        }
        self.pending.retain(|_, s| !s.is_empty());
        ready.sort_by_key(|(p, iv)| (iv.start(), p.clone()));
        for (p, iv) in ready {
            out.element(Element::new(p, iv));
        }
    }

    /// Start of the earliest pending interval of any payload.
    pub(crate) fn earliest_start(&self) -> Option<Timestamp> {
        let starts = self
            .pending
            .values()
            .filter_map(IntervalSet::earliest_start);
        starts.min()
    }

    pub(crate) fn memory(&self) -> usize {
        self.pending.values().map(IntervalSet::len).sum()
    }

    /// Drops whole payload entries until under target (approximate
    /// answers: dropped values vanish from the output).
    pub(crate) fn shed(&mut self, target: usize) -> usize {
        shed_keys(&mut self.pending, target, IntervalSet::len)
    }
}

/// Sheds keyed operator state to at most `target` units by dropping whole
/// keys, smallest key first — the payload order the flushes emit in, so the
/// same state sheds the same victims on every run — in one pass over the
/// keys with a running total. Returns the units left.
pub(crate) fn shed_keys<K: Hash + Eq + Ord + Clone, V>(
    state: &mut HashMap<K, V>,
    target: usize,
    units: impl Fn(&V) -> usize,
) -> usize {
    let mut total: usize = state.values().map(&units).sum();
    if total <= target {
        return total;
    }
    let mut keys: Vec<K> = state.keys().cloned().collect();
    keys.sort_unstable();
    for key in keys {
        if total <= target {
            break;
        }
        total -= state.remove(&key).map_or(0, |v| units(&v));
    }
    total
}

/// Duplicate elimination with snapshot semantics: at every instant the
/// output contains each distinct payload at most once, exactly when the
/// input contains it at least once.
///
/// Per payload value the operator maintains the merged coverage of pending
/// input intervals; coverage intervals are emitted once the watermark
/// guarantees no future element can extend them (a future element starting
/// inside or adjacent to a pending interval must be absorbed into the same
/// output interval, or the overlap would appear twice).
pub struct Distinct<T> {
    coverage: Coverage<T>,
}

impl<T: Hash + Eq> Distinct<T> {
    /// Creates the operator.
    pub fn new() -> Self {
        Distinct {
            coverage: Coverage::default(),
        }
    }
}

impl<T: Hash + Eq> Default for Distinct<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Operator for Distinct<T>
where
    T: Hash + Eq + Ord + Send + Clone + 'static,
{
    type In = T;
    type Out = T;

    fn on_element(&mut self, _port: usize, e: Element<T>, _out: &mut dyn Collector<T>) {
        self.coverage.insert(e);
    }

    fn on_heartbeat(&mut self, _port: usize, t: Timestamp, out: &mut dyn Collector<T>) {
        // Split pending coverage at the watermark: the part before `t` is
        // final (a future element starts at or after `t` and would at most
        // abut it, which snapshot semantics permits as two adjacent output
        // intervals). Afterwards everything pending starts at or after `t`,
        // so forwarding the heartbeat is safe.
        self.coverage.release(|set| set.split_take_before(t), out);
        out.heartbeat(t);
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

/// Keyed-parallel state hand-off: each payload's pending coverage travels
/// as one `(T, IntervalSet)` entry routed by [`key_hash`] of the payload —
/// the same hash a `key_hash`-based partitioner key function computes, so
/// relocated coverage lands on the instance that will see the payload's
/// future duplicates.
impl<T> Rekey for Distinct<T>
where
    T: Hash + Eq + Send + 'static,
{
    fn export_keyed(&mut self) -> KeyedState {
        self.coverage
            .pending
            .drain()
            .map(|(payload, set)| {
                let h = key_hash(&payload);
                (h, Box::new((payload, set)) as Box<dyn std::any::Any + Send>)
            })
            .collect()
    }

    fn import_keyed(&mut self, entries: KeyedState) {
        for (_, boxed) in entries {
            let (payload, set) = *boxed
                .downcast::<(T, IntervalSet)>()
                .expect("keyed-parallel hand-off delivered foreign state to Distinct");
            // One entry per payload value across all instances (same value
            // ⇒ same routing hash), so imports never collide.
            self.coverage.pending.insert(payload, set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{check_watermark_contract, run_unary, run_unary_messages};
    use pipes_time::snapshot;

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::new(s), Timestamp::new(e))
    }

    #[test]
    fn interval_set_merges() {
        let mut s = IntervalSet::default();
        s.insert(iv(0, 5));
        s.insert(iv(10, 12));
        assert_eq!(s.len(), 2);
        s.insert(iv(4, 10)); // bridges both
        assert_eq!(s.len(), 1);
        assert_eq!(s.take_all(), vec![iv(0, 12)]);
    }

    #[test]
    fn interval_set_adjacent_merge() {
        let mut s = IntervalSet::default();
        s.insert(iv(0, 5));
        s.insert(iv(5, 8));
        assert_eq!(s.take_all(), vec![iv(0, 8)]);
    }

    #[test]
    fn interval_set_take_before() {
        let mut s = IntervalSet::default();
        s.insert(iv(0, 3));
        s.insert(iv(5, 9));
        assert_eq!(s.take_before(Timestamp::new(4)), vec![iv(0, 3)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicates_collapse() {
        let input = vec![el(7, 0, 10), el(7, 3, 6), el(7, 8, 14)];
        let out = run_unary(Distinct::new(), input.clone());
        snapshot::check_unary(&input, &out, snapshot::rel::distinct).unwrap();
        // Coverage is continuous: adjacent pieces, no overlap, one payload.
        for w in out.windows(2) {
            assert_eq!(w[0].end(), w[1].start());
        }
        assert_eq!(out.first().unwrap().start(), Timestamp::new(0));
        assert_eq!(out.last().unwrap().end(), Timestamp::new(14));
    }

    #[test]
    fn distinct_values_stay_separate() {
        let input = vec![el(1, 0, 5), el(2, 0, 5), el(1, 2, 8)];
        let out = run_unary(Distinct::new(), input.clone());
        snapshot::check_unary(&input, &out, snapshot::rel::distinct).unwrap();
        // Each payload's coverage is exactly its merged input coverage.
        let cover = |p: i64| -> u64 {
            out.iter()
                .filter(|e| e.payload == p)
                .map(|e| e.interval.duration().ticks())
                .sum()
        };
        assert_eq!(cover(1), 8);
        assert_eq!(cover(2), 5);
    }

    #[test]
    fn late_extension_does_not_duplicate_coverage() {
        // Second element starts exactly where the first ends; coverage must
        // stay single at every instant (adjacent output pieces are fine).
        let input = vec![el(5, 0, 4), el(5, 4, 9)];
        let out = run_unary(Distinct::new(), input.clone());
        snapshot::check_unary(&input, &out, snapshot::rel::distinct).unwrap();
        // Overlapping duplicates would fail the snapshot check above; also
        // assert total coverage.
        let total: u64 = out.iter().map(|e| e.interval.duration().ticks()).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn watermark_contract_upheld() {
        let input: Vec<Element<i64>> = (0..40).map(|i| el(i % 4, i as u64, i as u64 + 7)).collect();
        let msgs = run_unary_messages(Distinct::new(), input);
        check_watermark_contract(&msgs).unwrap();
    }

    #[test]
    fn shed_drops_values() {
        let mut op: Distinct<i64> = Distinct::new();
        let mut sink: Vec<pipes_time::Message<i64>> = Vec::new();
        for i in 0..10 {
            op.on_element(0, el(i, (i * 100) as u64, (i * 100 + 5) as u64), &mut sink);
        }
        assert_eq!(op.memory(), 10);
        assert!(op.shed(4) <= 4);
    }

    /// Shedding under pressure is one pass (10 000 keys in milliseconds —
    /// re-summing the state per evicted key took seconds) and picks the
    /// same victims on every run, whatever order the map iterates in.
    #[test]
    fn shed_is_linear_and_deterministic() {
        let survivors = || {
            let mut op: Distinct<i64> = Distinct::new();
            let mut sink: Vec<pipes_time::Message<i64>> = Vec::new();
            // Insertion order scrambled against key order.
            for i in 0..10_000i64 {
                let p = (i * 7919) % 10_000;
                op.on_element(0, el(p, p as u64 * 10, p as u64 * 10 + 5), &mut sink);
            }
            let t0 = std::time::Instant::now();
            assert_eq!(op.shed(100), 100);
            let took = t0.elapsed();
            op.on_close(&mut sink);
            let kept: Vec<i64> = sink
                .into_iter()
                .filter_map(|m| m.into_element().map(|e| e.payload))
                .collect();
            (kept, took)
        };
        let (first, took) = survivors();
        assert_eq!(
            first,
            (9_900..10_000).collect::<Vec<i64>>(),
            "smallest keys go first"
        );
        assert!(
            took < std::time::Duration::from_millis(250),
            "shed took {took:?}"
        );
        assert_eq!(survivors().0, first, "two runs shed identically");
    }
}
