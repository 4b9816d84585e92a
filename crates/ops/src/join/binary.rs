//! The binary generalized ripple join.

use super::sweeparea::{HashSweepArea, ListSweepArea, SweepArea};
use pipes_graph::{BinaryOperator, Collector, KeyedState, Rekey};
use pipes_time::{Element, Message, Timestamp};
use std::hash::Hash;

/// Boxed combiner producing an output payload from a matched pair.
pub type Combiner<L, R, O> = Box<dyn Fn(&L, &R) -> O + Send>;

/// A routing hash for the keyed-parallel state hand-off (see
/// [`RippleJoin::with_rekey`]).
type RouteFn<T> = Box<dyn Fn(&T) -> u64 + Send>;

/// A sweep-area entry tagged with its side, used as the boxed payload when
/// a keyed-parallel expansion relocates join state between instances.
enum JoinEntry<L, R> {
    Left(Element<L>),
    Right(Element<R>),
}

/// Generalized ripple join: each arriving element probes the opposite
/// input's [`SweepArea`], emits a result per match (validity = intersection
/// of the two intervals), then inserts itself into its own side's area —
/// unless the opposite watermark is at the horizon (that input ended), so
/// no partner is left to probe it. Heartbeats purge the *opposite* area —
/// an entry whose validity ended at or before this side's watermark can
/// never be matched again — and certify combined progress downstream.
///
/// The sweep areas are exchangeable boxed trait objects; the constructors
/// below cover the common cases.
pub struct RippleJoin<L, R, O> {
    left_area: Box<dyn SweepArea<L, R>>,
    right_area: Box<dyn SweepArea<R, L>>,
    combine: Combiner<L, R, O>,
    left_wm: Timestamp,
    right_wm: Timestamp,
    emitted_wm: Timestamp,
    /// Run segments: consecutive same-side elements between heartbeats,
    /// probed and inserted as one sweep-area run. Always drained before a
    /// run entry point returns, so `memory`/`shed` never see them.
    left_seg: Vec<Element<L>>,
    right_seg: Vec<Element<R>>,
    /// Routing hashes used only by the keyed-parallel state hand-off: they
    /// must agree with the shuffle edge's partitioner key functions so an
    /// exported entry lands on the instance that will see its future match
    /// partners. `None` until [`with_rekey`](Self::with_rekey) is called.
    route_left: Option<RouteFn<L>>,
    route_right: Option<RouteFn<R>>,
}

impl<L, R, O> RippleJoin<L, R, O>
where
    L: Send + Clone + 'static,
    R: Send + Clone + 'static,
    O: Send + Clone + 'static,
{
    /// Creates a ripple join from explicit sweep areas and a combiner.
    pub fn with_areas(
        left_area: Box<dyn SweepArea<L, R>>,
        right_area: Box<dyn SweepArea<R, L>>,
        combine: impl Fn(&L, &R) -> O + Send + 'static,
    ) -> Self {
        RippleJoin {
            left_area,
            right_area,
            combine: Box::new(combine),
            left_wm: Timestamp::ZERO,
            right_wm: Timestamp::ZERO,
            emitted_wm: Timestamp::ZERO,
            left_seg: Vec::new(),
            right_seg: Vec::new(),
            route_left: None,
            route_right: None,
        }
    }

    /// Attaches the routing-hash functions required to run this join behind
    /// a re-sizable shuffle edge (`QueryGraph::add_keyed_binary` +
    /// `parallelize`). Each must return exactly what the corresponding
    /// partitioner key function returns for the same payload, so exported
    /// sweep-area state re-routes to the instance that will receive the
    /// entry's future match partners.
    pub fn with_rekey(
        mut self,
        route_left: impl Fn(&L) -> u64 + Send + 'static,
        route_right: impl Fn(&R) -> u64 + Send + 'static,
    ) -> Self {
        self.route_left = Some(Box::new(route_left));
        self.route_right = Some(Box::new(route_right));
        self
    }

    /// Nested-loop theta join over [`ListSweepArea`]s.
    pub fn theta(
        pred: impl Fn(&L, &R) -> bool + Send + Clone + 'static,
        combine: impl Fn(&L, &R) -> O + Send + 'static,
    ) -> Self {
        let p1 = pred.clone();
        Self::with_areas(
            // Left area stores L, probed by R elements.
            Box::new(ListSweepArea::new(move |r: &R, l: &L| p1(l, r))),
            Box::new(ListSweepArea::new(move |l: &L, r: &R| pred(l, r))),
            combine,
        )
    }

    /// Hash equi-join on the given key extractors.
    pub fn equi<K>(
        key_left: impl Fn(&L) -> K + Send + Clone + 'static,
        key_right: impl Fn(&R) -> K + Send + Clone + 'static,
        combine: impl Fn(&L, &R) -> O + Send + 'static,
    ) -> Self
    where
        K: Hash + Eq + Send + 'static,
    {
        let (kl, kr) = (key_left.clone(), key_right.clone());
        Self::with_areas(
            Box::new(HashSweepArea::new(key_left, key_right)),
            Box::new(HashSweepArea::new(kr, kl)),
            combine,
        )
    }

    fn advance(&mut self, out: &mut dyn Collector<O>) {
        let wm = self.left_wm.min(self.right_wm);
        if wm > self.emitted_wm {
            self.emitted_wm = wm;
            out.heartbeat(wm);
        }
    }

    /// Probes the buffered left segment against the right area in one
    /// `query_run`, then bulk-inserts it into the left area. Sound because
    /// left inserts never affect right-area probes: a segment of
    /// consecutive left elements produces the same matches batched as one
    /// by one.
    fn flush_left(&mut self, out: &mut dyn Collector<O>) {
        if self.left_seg.is_empty() {
            return;
        }
        let combine = &self.combine;
        let seg = &self.left_seg;
        self.right_area.query_run(seg, &mut |i, matched| {
            let probe = &seg[i];
            if let Some(iv) = probe.interval.intersect(&matched.interval) {
                out.element(Element::new(combine(&probe.payload, &matched.payload), iv));
            }
        });
        if self.right_wm < Timestamp::MAX {
            self.left_area.insert_run(&mut self.left_seg);
        } else {
            self.left_seg.clear();
        }
    }

    /// Mirror of [`flush_left`](Self::flush_left) for the right input.
    fn flush_right(&mut self, out: &mut dyn Collector<O>) {
        if self.right_seg.is_empty() {
            return;
        }
        let combine = &self.combine;
        let seg = &self.right_seg;
        self.left_area.query_run(seg, &mut |i, matched| {
            let probe = &seg[i];
            if let Some(iv) = probe.interval.intersect(&matched.interval) {
                out.element(Element::new(combine(&matched.payload, &probe.payload), iv));
            }
        });
        if self.left_wm < Timestamp::MAX {
            self.right_area.insert_run(&mut self.right_seg);
        } else {
            self.right_seg.clear();
        }
    }
}

impl<L, R, O> BinaryOperator for RippleJoin<L, R, O>
where
    L: Send + Clone + 'static,
    R: Send + Clone + 'static,
    O: Send + Clone + 'static,
{
    type Left = L;
    type Right = R;
    type Out = O;

    fn on_left(&mut self, e: Element<L>, out: &mut dyn Collector<O>) {
        let combine = &self.combine;
        self.right_area.query(&e, &mut |matched| {
            if let Some(iv) = e.interval.intersect(&matched.interval) {
                out.element(Element::new(combine(&e.payload, &matched.payload), iv));
            }
        });
        if self.right_wm < Timestamp::MAX {
            self.left_area.insert(e);
        }
    }

    fn on_right(&mut self, e: Element<R>, out: &mut dyn Collector<O>) {
        let combine = &self.combine;
        self.left_area.query(&e, &mut |matched| {
            if let Some(iv) = e.interval.intersect(&matched.interval) {
                out.element(Element::new(combine(&matched.payload, &e.payload), iv));
            }
        });
        if self.left_wm < Timestamp::MAX {
            self.right_area.insert(e);
        }
    }

    /// Buffers consecutive elements into the left segment; a heartbeat
    /// flushes the segment *before* purging (the preceding elements must
    /// probe the pre-purge right area, exactly as per-message dispatch
    /// would).
    fn on_run_left(&mut self, run: &mut Vec<Message<L>>, out: &mut dyn Collector<O>) {
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.left_seg.push(e),
                Message::Heartbeat(t) => {
                    self.flush_left(out);
                    self.on_heartbeat_left(t, out);
                }
                Message::Close => {}
            }
        }
        self.flush_left(out);
    }

    /// Mirror of [`on_run_left`](Self::on_run_left).
    fn on_run_right(&mut self, run: &mut Vec<Message<R>>, out: &mut dyn Collector<O>) {
        for msg in run.drain(..) {
            match msg {
                Message::Element(e) => self.right_seg.push(e),
                Message::Heartbeat(t) => {
                    self.flush_right(out);
                    self.on_heartbeat_right(t, out);
                }
                Message::Close => {}
            }
        }
        self.flush_right(out);
    }

    fn on_heartbeat_left(&mut self, t: Timestamp, out: &mut dyn Collector<O>) {
        self.left_wm = self.left_wm.max(t);
        // No future left element starts before t: right entries ending
        // at or before t are dead.
        self.right_area.purge(self.left_wm);
        self.advance(out);
    }

    fn on_heartbeat_right(&mut self, t: Timestamp, out: &mut dyn Collector<O>) {
        self.right_wm = self.right_wm.max(t);
        self.left_area.purge(self.right_wm);
        self.advance(out);
    }

    fn on_close(&mut self, out: &mut dyn Collector<O>) {
        self.left_wm = Timestamp::MAX;
        self.right_wm = Timestamp::MAX;
        self.advance(out);
    }

    fn memory(&self) -> usize {
        self.left_area.len() + self.right_area.len()
    }

    fn shed(&mut self, target: usize) -> usize {
        // Split the allowance proportionally between the two areas.
        let (l, r) = (self.left_area.len(), self.right_area.len());
        let total = l + r;
        if total == 0 {
            return 0;
        }
        let tl = target * l / total;
        let tr = target.saturating_sub(tl);
        self.left_area.shed(tl) + self.right_area.shed(tr)
    }
}

impl<L, R, O> Rekey for RippleJoin<L, R, O>
where
    L: Send + Clone + 'static,
    R: Send + Clone + 'static,
    O: Send + Clone + 'static,
{
    fn export_keyed(&mut self) -> KeyedState {
        let route_left = self.route_left.as_ref().expect(
            "RippleJoin behind a re-sizable shuffle edge needs with_rekey(..) so \
             sweep-area state can be re-routed across instances",
        );
        let route_right = self.route_right.as_ref().expect(
            "RippleJoin behind a re-sizable shuffle edge needs with_rekey(..) so \
             sweep-area state can be re-routed across instances",
        );
        let mut out: KeyedState = Vec::new();
        for e in self.left_area.drain_all() {
            let h = route_left(&e.payload);
            out.push((h, Box::new(JoinEntry::<L, R>::Left(e))));
        }
        for e in self.right_area.drain_all() {
            let h = route_right(&e.payload);
            out.push((h, Box::new(JoinEntry::<L, R>::Right(e))));
        }
        // Watermarks are deliberately not exported: every instance saw the
        // same broadcast heartbeats, so fresh instances starting at ZERO
        // merely under-purge until the next heartbeat restores them.
        out
    }

    fn import_keyed(&mut self, entries: KeyedState) {
        for (_, boxed) in entries {
            match *boxed
                .downcast::<JoinEntry<L, R>>()
                .expect("keyed-parallel hand-off delivered foreign state to RippleJoin")
            {
                JoinEntry::Left(e) => self.left_area.insert(e),
                JoinEntry::Right(e) => self.right_area.insert(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{check_watermark_contract, run_binary, run_binary_messages};
    use crate::join::OrderedSweepArea;
    use pipes_time::{snapshot, TimeInterval};

    fn el(p: i64, s: u64, e: u64) -> Element<i64> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    fn check_join_snapshots(
        left: Vec<Element<i64>>,
        right: Vec<Element<i64>>,
        join: RippleJoin<i64, i64, (i64, i64)>,
    ) {
        let out = run_binary(join, left.clone(), right.clone());
        snapshot::check_binary(&left, &right, &out, |a, b| {
            snapshot::rel::join(a, b, |x, y| x % 10 == y % 10, |x, y| (*x, *y))
        })
        .unwrap();
    }

    fn sample_inputs() -> (Vec<Element<i64>>, Vec<Element<i64>>) {
        let left = vec![el(1, 0, 10), el(12, 3, 8), el(21, 6, 20)];
        let right = vec![el(11, 2, 12), el(2, 4, 6), el(31, 15, 25)];
        (left, right)
    }

    #[test]
    fn equi_join_snapshot_equivalent() {
        let (l, r) = sample_inputs();
        check_join_snapshots(
            l,
            r,
            RippleJoin::equi(|x: &i64| x % 10, |y: &i64| y % 10, |x, y| (*x, *y)),
        );
    }

    #[test]
    fn theta_join_snapshot_equivalent() {
        let (l, r) = sample_inputs();
        check_join_snapshots(
            l,
            r,
            RippleJoin::theta(|x: &i64, y: &i64| x % 10 == y % 10, |x, y| (*x, *y)),
        );
    }

    #[test]
    fn ordered_areas_snapshot_equivalent() {
        let (l, r) = sample_inputs();
        let join = RippleJoin::with_areas(
            Box::new(OrderedSweepArea::new(|r: &i64, l: &i64| l % 10 == r % 10)),
            Box::new(OrderedSweepArea::new(|l: &i64, r: &i64| l % 10 == r % 10)),
            |x: &i64, y: &i64| (*x, *y),
        );
        check_join_snapshots(l, r, join);
    }

    #[test]
    fn all_sweep_area_variants_agree() {
        let (l, r) = sample_inputs();
        let hash = run_binary(
            RippleJoin::equi(|x: &i64| x % 10, |y: &i64| y % 10, |x, y| (*x, *y)),
            l.clone(),
            r.clone(),
        );
        let list = run_binary(
            RippleJoin::theta(|x: &i64, y: &i64| x % 10 == y % 10, |x, y| (*x, *y)),
            l,
            r,
        );
        let canon = |mut v: Vec<Element<(i64, i64)>>| {
            v.sort_by_key(|e| (e.start(), e.end(), e.payload));
            v
        };
        assert_eq!(canon(hash), canon(list));
    }

    #[test]
    fn join_purges_with_opposite_watermark() {
        let mut join: RippleJoin<i64, i64, (i64, i64)> =
            RippleJoin::equi(|x| *x, |y| *y, |x, y| (*x, *y));
        let mut out: Vec<pipes_time::Message<(i64, i64)>> = Vec::new();
        join.on_left(el(1, 0, 5), &mut out);
        join.on_right(el(2, 0, 5), &mut out);
        assert_eq!(join.memory(), 2);
        // Right watermark at 10 kills the left entry (end 5 ≤ 10).
        join.on_heartbeat_right(Timestamp::new(10), &mut out);
        assert_eq!(join.memory(), 1);
        join.on_heartbeat_left(Timestamp::new(10), &mut out);
        assert_eq!(join.memory(), 0);
    }

    #[test]
    fn watermark_contract_upheld() {
        let left: Vec<Element<i64>> = (0..30i64)
            .map(|i| el(i % 5, i as u64, i as u64 + 8))
            .collect();
        let right: Vec<Element<i64>> = (0..30i64)
            .map(|i| el(i % 5, i as u64 + 2, i as u64 + 9))
            .collect();
        let msgs = run_binary_messages(
            RippleJoin::equi(|x: &i64| *x, |y: &i64| *y, |x, y| (*x, *y)),
            left,
            right,
        );
        check_watermark_contract(&msgs).unwrap();
    }

    /// Once one input is at the horizon, the other side's elements still
    /// probe, but no longer stay.
    #[test]
    fn nothing_is_stored_for_a_partner_at_the_horizon() {
        let mut join: RippleJoin<i64, i64, (i64, i64)> =
            RippleJoin::equi(|x| *x, |y| *y, |x, y| (*x, *y));
        let mut out: Vec<Message<(i64, i64)>> = Vec::new();
        join.on_left(el(1, 0, 100), &mut out);
        join.on_heartbeat_left(Timestamp::MAX, &mut out);
        assert_eq!(join.memory(), 1, "no right element purges the left one");
        let mut run: Vec<Message<i64>> = (0..50)
            .map(|i| Message::Element(el(i % 3, i as u64, 200)))
            .collect();
        join.on_run_right(&mut run, &mut out);
        for i in 50..60 {
            join.on_right(el(i % 3, i as u64, 200), &mut out);
        }
        assert_eq!(join.memory(), 1);
        let matched = out.iter().filter(|m| m.is_element()).count();
        assert_eq!(
            matched, 20,
            "right elements keyed 1 still meet the left one"
        );

        // And mirrored.
        let mut join: RippleJoin<i64, i64, (i64, i64)> =
            RippleJoin::equi(|x| *x, |y| *y, |x, y| (*x, *y));
        join.on_heartbeat_right(Timestamp::MAX, &mut out);
        let mut run: Vec<Message<i64>> = (0..50)
            .map(|i| Message::Element(el(i, i as u64, 200)))
            .collect();
        join.on_run_left(&mut run, &mut out);
        join.on_left(el(7, 60, 200), &mut out);
        assert_eq!(join.memory(), 0);
    }

    #[test]
    fn shedding_degrades_but_bounds_memory() {
        let mut join: RippleJoin<i64, i64, i64> = RippleJoin::equi(|x| *x, |y| *y, |x, y| x + y);
        let mut out: Vec<pipes_time::Message<i64>> = Vec::new();
        for i in 0..100 {
            join.on_left(el(i, i as u64, i as u64 + 50), &mut out);
        }
        assert_eq!(join.memory(), 100);
        let after = join.shed(10);
        assert!(after <= 10);
    }
}
