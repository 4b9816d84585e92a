//! Snapshot bag difference (monus).

use pipes_graph::{BinaryOperator, Collector};
use pipes_time::{Element, TimeInterval, Timestamp};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// Bag difference with snapshot semantics: at every instant `t`, each
/// payload `p` appears `max(0, m_left(p, t) − m_right(p, t))` times in the
/// output.
///
/// The operator buffers both inputs per payload value and, whenever the
/// combined watermark advances from `W₀` to `W₁`, sweeps the finished time
/// range `[W₀, W₁)`: it cuts it at every interval boundary (so that
/// multiplicities are constant per segment), emits the surplus copies per
/// segment, and purges elements that ended before `W₁`.
pub struct Difference<T> {
    pending: HashMap<T, PayloadState>,
    emitted_until: Timestamp,
    left_wm: Timestamp,
    right_wm: Timestamp,
}

#[derive(Clone, Debug, Default)]
struct PayloadState {
    left: Vec<TimeInterval>,
    right: Vec<TimeInterval>,
}

impl<T: Hash + Eq> Difference<T> {
    /// Creates the operator.
    pub fn new() -> Self {
        Difference {
            pending: HashMap::new(),
            emitted_until: Timestamp::ZERO,
            left_wm: Timestamp::ZERO,
            right_wm: Timestamp::ZERO,
        }
    }
}

impl<T: Hash + Eq> Default for Difference<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Difference<T>
where
    T: Hash + Eq + Ord + Send + Clone + 'static,
{
    fn sweep(&mut self, out: &mut dyn Collector<T>) {
        let until = self.left_wm.min(self.right_wm);
        if until <= self.emitted_until {
            return;
        }
        let from = self.emitted_until;
        let mut results: Vec<Element<T>> = Vec::new();
        for (payload, state) in self.pending.iter_mut() {
            // Breakpoints of multiplicity change inside [from, until).
            let mut cuts: BTreeSet<Timestamp> = BTreeSet::new();
            cuts.insert(from);
            cuts.insert(until);
            for iv in state.left.iter().chain(state.right.iter()) {
                for t in [iv.start(), iv.end()] {
                    if t > from && t < until {
                        cuts.insert(t);
                    }
                }
            }
            let cuts: Vec<Timestamp> = cuts.into_iter().collect();
            for pair in cuts.windows(2) {
                let seg = TimeInterval::new(pair[0], pair[1]);
                let m_left = state.left.iter().filter(|iv| iv.overlaps(&seg)).count();
                let m_right = state.right.iter().filter(|iv| iv.overlaps(&seg)).count();
                for _ in m_right..m_left {
                    results.push(Element::new(payload.clone(), seg));
                }
            }
            state.left.retain(|iv| !iv.before(until));
            state.right.retain(|iv| !iv.before(until));
        }
        self.pending
            .retain(|_, s| !s.left.is_empty() || !s.right.is_empty());
        results.sort_by_key(|e| (e.start(), e.payload.clone()));
        for e in results {
            out.element(e);
        }
        self.emitted_until = until;
        out.heartbeat(until);
    }
}

impl<T> BinaryOperator for Difference<T>
where
    T: Hash + Eq + Ord + Send + Clone + 'static,
{
    type Left = T;
    type Right = T;
    type Out = T;

    fn on_left(&mut self, e: Element<T>, _out: &mut dyn Collector<T>) {
        self.pending
            .entry(e.payload)
            .or_default()
            .left
            .push(e.interval);
    }

    fn on_right(&mut self, e: Element<T>, _out: &mut dyn Collector<T>) {
        self.pending
            .entry(e.payload)
            .or_default()
            .right
            .push(e.interval);
    }

    fn on_heartbeat_left(&mut self, t: Timestamp, out: &mut dyn Collector<T>) {
        self.left_wm = self.left_wm.max(t);
        self.sweep(out);
    }

    fn on_heartbeat_right(&mut self, t: Timestamp, out: &mut dyn Collector<T>) {
        self.right_wm = self.right_wm.max(t);
        self.sweep(out);
    }

    fn on_close(&mut self, out: &mut dyn Collector<T>) {
        self.left_wm = Timestamp::MAX;
        self.right_wm = Timestamp::MAX;
        self.sweep(out);
    }

    fn memory(&self) -> usize {
        self.pending
            .values()
            .map(|s| s.left.len() + s.right.len())
            .sum()
    }

    fn shed(&mut self, target: usize) -> usize {
        crate::distinct::shed_keys(&mut self.pending, target, |s| s.left.len() + s.right.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{check_watermark_contract, run_binary, run_binary_messages};
    use pipes_time::snapshot;

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    #[test]
    fn subtracts_overlap_only() {
        let left = vec![el(1, 0, 10)];
        let right = vec![el(1, 4, 6)];
        let out = run_binary(Difference::new(), left.clone(), right.clone());
        snapshot::check_binary(&left, &right, &out, snapshot::rel::difference).unwrap();
        // Present on [0,4) and [6,10), absent on [4,6).
        let covered: u64 = out.iter().map(|e| e.interval.duration().ticks()).sum();
        assert_eq!(covered, 8);
    }

    #[test]
    fn monus_never_negative() {
        let left = vec![el(1, 0, 5)];
        let right = vec![el(1, 0, 5), el(1, 2, 8)];
        let out = run_binary(Difference::new(), left.clone(), right.clone());
        snapshot::check_binary(&left, &right, &out, snapshot::rel::difference).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multiplicities_respected() {
        let left = vec![el(1, 0, 6), el(1, 0, 6), el(1, 2, 4)];
        let right = vec![el(1, 0, 6)];
        let out = run_binary(Difference::new(), left.clone(), right.clone());
        snapshot::check_binary(&left, &right, &out, snapshot::rel::difference).unwrap();
    }

    #[test]
    fn distinct_payloads_independent() {
        let left = vec![el(1, 0, 5), el(2, 0, 5)];
        let right = vec![el(2, 0, 5)];
        let out = run_binary(Difference::new(), left.clone(), right.clone());
        snapshot::check_binary(&left, &right, &out, snapshot::rel::difference).unwrap();
        assert!(out.iter().all(|e| e.payload == 1));
    }

    #[test]
    fn watermark_contract_upheld() {
        let left: Vec<Element<i64>> = (0..20i64)
            .map(|i| el(i % 3, i as u64, i as u64 + 5))
            .collect();
        let right: Vec<Element<i64>> = (0..10i64)
            .map(|i| el(i % 3, 2 * i as u64, 2 * i as u64 + 4))
            .collect();
        let msgs = run_binary_messages(Difference::new(), left, right);
        check_watermark_contract(&msgs).unwrap();
    }

    #[test]
    fn empty_left_produces_nothing() {
        let out = run_binary(Difference::<i64>::new(), vec![], vec![el(1, 0, 5)]);
        assert!(out.is_empty());
    }
}
