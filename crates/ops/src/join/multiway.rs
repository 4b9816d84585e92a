//! MJoin-style multiway stream join.

use super::sweeparea::{HashSweepArea, SweepArea};
use pipes_graph::watermark::Watermarks;
use pipes_graph::{Collector, Operator};
use pipes_time::{Element, TimeInterval, Timestamp};
use std::hash::Hash;

/// N-way symmetric equi-join (after Viglas et al.'s MJoin): one
/// [`HashSweepArea`] per input; an arriving element probes the *other*
/// areas in ascending bucket-size order (cheapest first, pruning early),
/// producing one output per complete combination. Output payloads are the
/// matched payloads ordered by port; validity is the intersection of all
/// matched intervals.
///
/// Purging and shedding are the sweep area's own — the join adds no
/// bucket bookkeeping of its own. An element is not stored once every
/// other input is at the horizon (ended): nothing is left to probe it.
pub struct MultiwayJoin<T, K, KF> {
    key: KF,
    areas: Vec<HashSweepArea<T, T, K, KF, KF>>,
    watermarks: Watermarks,
}

impl<T, K, KF> MultiwayJoin<T, K, KF>
where
    K: Hash + Eq + Clone,
    KF: Fn(&T) -> K + Clone,
{
    /// Creates a join over `ports` inputs keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2`.
    pub fn new(ports: usize, key: KF) -> Self {
        assert!(ports >= 2, "a multiway join needs at least two inputs");
        MultiwayJoin {
            areas: (0..ports)
                .map(|_| HashSweepArea::new(key.clone(), key.clone()))
                .collect(),
            key,
            watermarks: Watermarks::new(ports),
        }
    }
}

impl<T, K, KF> Operator for MultiwayJoin<T, K, KF>
where
    T: Send + Clone + 'static,
    K: Hash + Eq + Clone + Send + 'static,
    KF: Fn(&T) -> K + Send + 'static,
{
    type In = T;
    type Out = Vec<T>;

    fn on_element(&mut self, port: usize, e: Element<T>, out: &mut dyn Collector<Vec<T>>) {
        let k = (self.key)(&e.payload);

        // Probe the other ports in ascending bucket-size order.
        let mut order: Vec<usize> = (0..self.areas.len()).filter(|&p| p != port).collect();
        order.sort_by_key(|&p| self.areas[p].bucket(&k).map_or(0, <[Element<T>]>::len));

        // Depth-first expansion of combinations; prune on empty buckets.
        // Each combination slot i holds the element chosen for `order[i]`.
        let mut results: Vec<(Vec<(usize, T)>, TimeInterval)> = Vec::new();
        let mut stack: Vec<(Vec<(usize, T)>, TimeInterval)> = vec![(Vec::new(), e.interval)];
        for &p in &order {
            let Some(bucket) = self.areas[p].bucket(&k) else {
                stack.clear();
                break;
            };
            let mut next = Vec::new();
            for (combo, iv) in stack.drain(..) {
                for cand in bucket {
                    if let Some(merged) = iv.intersect(&cand.interval) {
                        let mut c = combo.clone();
                        c.push((p, cand.payload.clone()));
                        next.push((c, merged));
                    }
                }
            }
            stack = next;
            if stack.is_empty() {
                break;
            }
        }
        results.append(&mut stack);

        for (mut combo, iv) in results {
            combo.push((port, e.payload.clone()));
            combo.sort_by_key(|(p, _)| *p);
            out.element(Element::new(
                combo.into_iter().map(|(_, v)| v).collect(),
                iv,
            ));
        }

        // Nothing can probe it once every other input is at the horizon.
        let partners_open =
            (0..self.areas.len()).any(|p| p != port && self.watermarks.port(p) < Timestamp::MAX);
        if partners_open {
            self.areas[port].insert(e);
        }
    }

    fn on_heartbeat(&mut self, port: usize, t: Timestamp, out: &mut dyn Collector<Vec<T>>) {
        if let Some(min) = self.watermarks.update(port, t) {
            // Conservative purge: an entry is dead once *every* other input
            // has passed its end; the combined minimum is a safe bound.
            for area in &mut self.areas {
                area.purge(min);
            }
            out.heartbeat(min);
        }
    }

    fn memory(&self) -> usize {
        self.areas.iter().map(SweepArea::len).sum()
    }

    fn shed(&mut self, target: usize) -> usize {
        // Shed proportionally per port; each area keeps its latest-expiring
        // share (the sweep area's own eviction policy).
        let total = self.memory();
        if total == 0 {
            return 0;
        }
        for area in &mut self.areas {
            let share = area.len() * target / total;
            area.shed(share);
        }
        self.memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::run_nary;
    use pipes_time::snapshot;

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    #[test]
    fn three_way_equi_join() {
        // Key = value % 10; one match chain: 1-11-21 overlapping on [4,6).
        let a = vec![el(1, 0, 10), el(2, 0, 10)];
        let b = vec![el(11, 2, 8), el(13, 2, 8)];
        let c = vec![el(21, 4, 6)];
        let out = run_nary(MultiwayJoin::new(3, |v: &i64| v % 10), vec![a, b, c]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, vec![1, 11, 21]);
        assert_eq!(
            out[0].interval,
            TimeInterval::new(Timestamp::new(4), Timestamp::new(6))
        );
    }

    #[test]
    fn multiway_matches_reference_on_two_inputs() {
        let a = vec![el(1, 0, 10), el(12, 3, 9), el(21, 5, 12)];
        let b = vec![el(11, 2, 7), el(2, 4, 8), el(31, 6, 14)];
        let out = run_nary(
            MultiwayJoin::new(2, |v: &i64| v % 10),
            vec![a.clone(), b.clone()],
        );
        // Flatten to pairs for comparison with the reference join.
        let pairs: Vec<Element<(i64, i64)>> =
            out.into_iter().map(|e| e.map(|v| (v[0], v[1]))).collect();
        snapshot::check_binary(&a, &b, &pairs, |x, y| {
            snapshot::rel::join(x, y, |l, r| l % 10 == r % 10, |l, r| (*l, *r))
        })
        .unwrap();
    }

    #[test]
    fn combinatorial_outputs() {
        // Two matching elements on each of three ports, all overlapping:
        // 2×2×2 = 8 combinations... but the probe port contributes the
        // arriving element only, so totals come from incremental arrival.
        let a = vec![el(10, 0, 100), el(20, 1, 100)];
        let b = vec![el(30, 2, 100), el(40, 3, 100)];
        let c = vec![el(50, 4, 100), el(60, 5, 100)];
        let out = run_nary(MultiwayJoin::new(3, |_: &i64| 0u8), vec![a, b, c]);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|e| e.payload.len() == 3));
    }

    #[test]
    fn purge_bounds_memory() {
        let mut j = MultiwayJoin::new(2, |v: &i64| *v);
        let mut out: Vec<pipes_time::Message<Vec<i64>>> = Vec::new();
        for i in 0..10u64 {
            j.on_element(0, el(1, i, i + 5), &mut out);
        }
        assert_eq!(j.memory(), 10);
        j.on_heartbeat(0, Timestamp::new(100), &mut out);
        j.on_heartbeat(1, Timestamp::new(100), &mut out);
        assert_eq!(j.memory(), 0);
    }

    #[test]
    fn nothing_is_stored_once_every_partner_is_at_the_horizon() {
        let mut j = MultiwayJoin::new(3, |v: &i64| *v % 2);
        let mut out: Vec<pipes_time::Message<Vec<i64>>> = Vec::new();
        j.on_element(1, el(1, 0, 100), &mut out);
        j.on_element(2, el(3, 0, 100), &mut out);
        j.on_heartbeat(1, Timestamp::MAX, &mut out);
        // Port 2 is still open: port 0's elements are kept for it.
        j.on_element(0, el(5, 1, 100), &mut out);
        assert_eq!(j.memory(), 3);
        j.on_heartbeat(2, Timestamp::MAX, &mut out);
        let before = j.memory();
        for i in 0..20 {
            j.on_element(0, el(i, 2 + i as u64, 100), &mut out);
        }
        assert_eq!(j.memory(), before);
        // Odd keys still joined the stored pair from ports 1 and 2.
        let joined = out.iter().filter(|m| m.is_element()).count();
        assert_eq!(joined, 1 + 10);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_port_rejected() {
        let _ = MultiwayJoin::new(1, |v: &i64| *v);
    }
}
