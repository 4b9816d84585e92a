//! Grouped aggregation: hash partitioning plus per-group temporal
//! aggregation.

use crate::aggregate::{AggStrategy, AggregateFn, Layout, Partials};
use pipes_graph::{key_hash, Collector, KeyedState, Operator, Rekey};
use pipes_time::{Duration, Element, Message, TimeInterval, Timestamp};
use std::collections::BTreeMap;
use std::hash::Hash;
use std::marker::PhantomData;

/// How a [`GroupedAggregate`] builds the payload of one result row from a
/// group's key and accumulator.
pub trait GroupRow<T, K, A: AggregateFn<T>>: Send + 'static {
    /// The result payload.
    type Out: Send + Clone + 'static;

    /// The row of group `key` whose accumulator (of `agg`) is `acc`.
    fn row(&self, agg: &A, key: &K, acc: &A::Acc) -> Self::Out;
}

/// The default [`GroupRow`]: the `(key, finalized aggregate)` pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyAndValue;

impl<T, K, A> GroupRow<T, K, A> for KeyAndValue
where
    K: Clone + Send + 'static,
    A: AggregateFn<T>,
{
    type Out = (K, A::Out);

    fn row(&self, agg: &A, key: &K, acc: &A::Acc) -> (K, A::Out) {
        (key.clone(), agg.finalize(acc))
    }
}

/// `GROUP BY key` + aggregate: each group runs the partial-aggregate
/// machinery of [`crate::aggregate::ScalarAggregate`] independently; each
/// output row is built by `R` from the group's key and accumulator —
/// `(key, aggregate)` pairs by default ([`KeyAndValue`]; see
/// [`GroupedAggregate::with_rows`]) — and the rows' snapshots match
/// relational grouped aggregation at every instant (groups with an empty
/// snapshot produce no row).
///
/// The groups sit in a map ordered by key, so every flush walks them in
/// key order, and a group whose partials are fully finalized by a
/// heartbeat is dropped from the map in the same pass: long-tail key
/// spaces (keys seen once and never again) do not grow the state map
/// unboundedly — the group is re-created from scratch if the key
/// reappears.
///
/// [`GroupedAggregate::sampled`] runs every group on the grid layout (see
/// [`crate::aggregate`]): a heartbeat that passes no pending grid instant
/// costs no per-group work, and one that does emits the passed instants in
/// instant order and, within an instant, in key order — rows of one
/// instant come out of the key-order walk already sorted.
pub struct GroupedAggregate<T, K, KF, A: AggregateFn<T>, R = KeyAndValue> {
    key: KF,
    agg: A,
    rows: R,
    layout: Layout,
    /// On the grid, no group holds an instant before this one.
    due: Timestamp,
    groups: BTreeMap<K, Partials<A::Acc>>,
    _marker: PhantomData<fn(T) -> K>,
}

impl<T, K, KF, A> GroupedAggregate<T, K, KF, A>
where
    K: Ord + Clone,
    KF: Fn(&T) -> K,
    A: AggregateFn<T>,
{
    /// Creates the operator with key extractor `key` and aggregate `agg`,
    /// using the default [`AggStrategy::Auto`] per-group state layout.
    pub fn new(key: KF, agg: A) -> Self {
        Self::with_strategy(key, agg, AggStrategy::Auto)
    }

    /// Creates the operator with an explicit per-group partial-state
    /// layout.
    pub fn with_strategy(key: KF, agg: A, strategy: AggStrategy) -> Self {
        let combinable = agg.combinable();
        Self::with_layout(key, agg, Layout::Partials(strategy, combinable))
    }

    /// Creates the operator on the grid layout: each group's aggregate
    /// sampled at every `g = k·period`, valid over `[g, g + period)`.
    /// `agg` must be combinable: an instant combines the spans of grid
    /// instants covering it.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `agg` is not combinable.
    pub fn sampled(key: KF, agg: A, period: Duration) -> Self {
        let combinable = agg.combinable();
        Self::with_layout(key, agg, Layout::Grid(period, combinable))
    }

    fn with_layout(key: KF, agg: A, layout: Layout) -> Self {
        // Surface an incompatible explicit choice at construction, not at
        // the first element of some unlucky key.
        let _probe = Partials::<A::Acc>::with_layout(layout);
        GroupedAggregate {
            key,
            agg,
            rows: KeyAndValue,
            layout,
            due: Timestamp::MAX,
            groups: BTreeMap::new(),
            _marker: PhantomData,
        }
    }

    /// The same operator, building each output row with `rows` instead of
    /// as a `(key, aggregate)` pair.
    pub fn with_rows<R: GroupRow<T, K, A>>(self, rows: R) -> GroupedAggregate<T, K, KF, A, R> {
        GroupedAggregate {
            key: self.key,
            agg: self.agg,
            rows,
            layout: self.layout,
            due: self.due,
            groups: self.groups,
            _marker: PhantomData,
        }
    }
}

impl<T, K, KF, A, R> GroupedAggregate<T, K, KF, A, R>
where
    K: Ord + Clone,
    KF: Fn(&T) -> K,
    A: AggregateFn<T>,
    R: GroupRow<T, K, A>,
{
    /// The group of key `k`, created empty if need be, and the aggregate
    /// to fold into it. On the grid, lowers `due` to the first instant an
    /// insert over `iv` will touch.
    fn group(&mut self, k: K, iv: TimeInterval) -> (&mut Partials<A::Acc>, &A) {
        if let Layout::Grid(period, _) = self.layout {
            let g = iv.start().align_up(period);
            if g < iv.end() {
                self.due = self.due.min(g);
            }
        }
        let layout = self.layout;
        let group = self
            .groups
            .entry(k)
            .or_insert_with(|| Partials::with_layout(layout));
        (group, &self.agg)
    }

    /// Emits every grid instant before `wm`: instant by instant, key order
    /// within an instant — so the output does not depend on which
    /// heartbeats a batched run coalesced. One key-order pass flushes each
    /// group, drops it once emptied and finds the next `due` instant.
    fn flush_grid(&mut self, wm: Timestamp, out: &mut dyn Collector<R::Out>) {
        if wm <= self.due {
            return;
        }
        let (agg, rows) = (&self.agg, &self.rows);
        let mut passed = Vec::new();
        let mut due = Timestamp::MAX;
        self.groups.retain(|k, group| {
            group.flush(wm, agg, |iv, acc| {
                passed.push(Element::new(rows.row(agg, k, acc), iv));
            });
            let next = group.next_instant();
            due = due.min(next.unwrap_or(Timestamp::MAX));
            next.is_some()
        });
        self.due = due;
        // Each group's rows are in instant order and the groups in key
        // order, so only a heartbeat passing several instants needs the
        // stable sort by instant.
        if !passed.is_sorted_by_key(|row| row.start()) {
            passed.sort_by_key(|row| row.start());
        }
        for row in passed {
            out.element(row);
        }
    }

    /// Number of keys currently holding live (unfinalized) partial state.
    pub fn live_groups(&self) -> usize {
        self.groups.len()
    }
}

impl<T, K, KF, A, R> Operator for GroupedAggregate<T, K, KF, A, R>
where
    T: Send + Clone + 'static,
    K: Ord + Clone + Send + 'static,
    KF: Fn(&T) -> K + Send + 'static,
    A: AggregateFn<T>,
    R: GroupRow<T, K, A>,
{
    type In = T;
    type Out = R::Out;

    fn on_element(&mut self, _port: usize, e: Element<T>, _out: &mut dyn Collector<Self::Out>) {
        let k = (self.key)(&e.payload);
        let (group, agg) = self.group(k, e.interval);
        group.insert(e.interval, &e.payload, agg);
    }

    fn on_heartbeat(&mut self, _port: usize, t: Timestamp, out: &mut dyn Collector<Self::Out>) {
        if let Layout::Grid(..) = self.layout {
            self.flush_grid(t, out);
            out.heartbeat(t);
            return;
        }
        // Flush in key order so runs are reproducible; fully-finalized keys
        // release their map entry (long-tail GC).
        let (agg, rows) = (&self.agg, &self.rows);
        self.groups.retain(|k, group| {
            group.flush(t, agg, |iv, acc| {
                out.element(Element::new(rows.row(agg, k, acc), iv));
            });
            group.len() > 0
        });
        out.heartbeat(t);
    }

    /// Applies adjacent elements sharing both key and interval as one
    /// [`Partials::insert_group`]: one hash lookup and one boundary-split
    /// pair per burst instead of per element, and one key evaluation per
    /// element (the key that ends a burst heads the next one). Emits the
    /// aggregate hot-path trace instants (`agg.insert_run` per run,
    /// `agg.finalize` per in-run heartbeat); the per-message callbacks
    /// stay uninstrumented.
    fn on_run(
        &mut self,
        port: usize,
        run: &mut Vec<Message<T>>,
        out: &mut dyn Collector<Self::Out>,
    ) {
        let run_len = run.len();
        let mut bursts = 0u64;
        let mut next_key = None;
        let mut i = 0;
        while i < run.len() {
            match &run[i] {
                Message::Element(e) => {
                    let iv = e.interval;
                    let k = next_key.take().unwrap_or_else(|| (self.key)(&e.payload));
                    let mut j = i + 1;
                    while let Some(Message::Element(n)) = run.get(j) {
                        if n.interval != iv {
                            break;
                        }
                        let nk = (self.key)(&n.payload);
                        if nk != k {
                            next_key = Some(nk);
                            break;
                        }
                        j += 1;
                    }
                    let (group, agg) = self.group(k, iv);
                    group.insert_group(iv, &run[i..j], agg);
                    bursts += 1;
                    i = j;
                }
                Message::Heartbeat(t) => {
                    let t = *t;
                    self.on_heartbeat(port, t, out);
                    // The arguments walk every group: build them only when
                    // the recorder is on.
                    if pipes_trace::enabled() {
                        pipes_trace::instant_coarse(
                            pipes_trace::names::AGG_FINALIZE,
                            [
                                t.ticks(),
                                self.memory() as u64,
                                self.groups.values().any(Partials::is_tree) as u64,
                            ],
                        );
                    }
                    i += 1;
                }
                Message::Close => i += 1,
            }
        }
        if pipes_trace::enabled() {
            pipes_trace::instant_coarse(
                pipes_trace::names::AGG_INSERT_RUN,
                [run_len as u64, bursts, self.memory() as u64],
            );
        }
        run.clear();
    }

    fn on_close(&mut self, out: &mut dyn Collector<Self::Out>) {
        if let Layout::Grid(..) = self.layout {
            self.flush_grid(Timestamp::MAX, out);
            return;
        }
        let (agg, rows) = (&self.agg, &self.rows);
        for (k, mut group) in std::mem::take(&mut self.groups) {
            group.flush_all(agg, |iv, acc| {
                out.element(Element::new(rows.row(agg, &k, acc), iv));
            });
        }
    }

    fn memory(&self) -> usize {
        self.groups.values().map(Partials::len).sum()
    }

    fn state_bytes(&self) -> usize {
        let acc = std::mem::size_of::<A::Acc>();
        self.groups.values().map(|g| g.state_bytes(acc)).sum()
    }

    fn shed(&mut self, target: usize) -> usize {
        // Shed proportionally across groups.
        let total: usize = self.memory();
        if total == 0 {
            return 0;
        }
        for g in self.groups.values_mut() {
            let share = (g.len() * target).div_ceil(total);
            g.shed_oldest(share);
        }
        self.groups.retain(|_, g| g.len() > 0);
        self.memory()
    }
}

/// Keyed-parallel state hand-off: each group travels as one
/// `(K, Partials)` entry routed by [`key_hash`] of its key — the same hash
/// a `pipes_graph::key_hash`-based partitioner key function computes for
/// elements of that group, so relocated partials land on the instance that
/// will receive the group's future elements.
impl<T, K, KF, A, R> Rekey for GroupedAggregate<T, K, KF, A, R>
where
    T: Send + Clone + 'static,
    K: Hash + Ord + Clone + Send + 'static,
    KF: Fn(&T) -> K + Send + 'static,
    A: AggregateFn<T>,
    R: GroupRow<T, K, A>,
    Partials<A::Acc>: Send + 'static,
{
    fn export_keyed(&mut self) -> KeyedState {
        std::mem::take(&mut self.groups)
            .into_iter()
            .map(|(k, partials)| {
                let h = key_hash(&k);
                (h, Box::new((k, partials)) as Box<dyn std::any::Any + Send>)
            })
            .collect()
    }

    fn import_keyed(&mut self, entries: KeyedState) {
        for (_, boxed) in entries {
            let (k, partials) = *boxed
                .downcast::<(K, Partials<A::Acc>)>()
                .expect("keyed-parallel hand-off delivered foreign state to GroupedAggregate");
            // A group exists on exactly one instance (same key ⇒ same
            // routing hash), so entries never collide on import.
            if let Some(g) = partials.next_instant() {
                self.due = self.due.min(g);
            }
            self.groups.insert(k, partials);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AvgAgg, CountAgg, MaxAgg};
    use crate::drive::{check_watermark_contract, run_unary, run_unary_messages};
    use pipes_time::{snapshot, TimeInterval};

    fn el(p: (i64, i64), s: u64, e: u64) -> Element<(i64, i64)> {
        Element::new(p, TimeInterval::new(Timestamp::new(s), Timestamp::new(e)))
    }

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::new(s), Timestamp::new(e))
    }

    #[test]
    fn grouped_count() {
        // Payloads (key, value).
        let input = vec![el((1, 10), 0, 10), el((2, 20), 0, 10), el((1, 30), 5, 15)];
        let out = run_unary(
            GroupedAggregate::new(|p: &(i64, i64)| p.0, CountAgg),
            input.clone(),
        );
        // Group 1: 1 on [0,5), 2 on [5,10), 1 on [10,15). Group 2: 1 on [0,10).
        // (Watermark-driven flushing may split these into adjacent pieces;
        // snapshot-equivalence below is the authoritative check.)
        assert!(out.contains(&Element::new((1, 2), iv(5, 10))));
        let cover2: u64 = out
            .iter()
            .filter(|e| e.payload.0 == 2)
            .map(|e| e.interval.duration().ticks())
            .sum();
        assert_eq!(cover2, 10);

        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate_by(s, |p| p.0, |k, v| (*k, v.len() as u64))
        })
        .unwrap();
    }

    #[test]
    fn grouped_avg_snapshot_equivalence() {
        let input = vec![
            el((1, 4), 0, 6),
            el((1, 8), 3, 9),
            el((2, 5), 2, 7),
            el((2, 15), 2, 4),
        ];
        let out = run_unary(
            GroupedAggregate::new(|p: &(i64, i64)| p.0, AvgAgg(|p: &(i64, i64)| p.1 as f64)),
            input.clone(),
        );
        // Compare via integer-scaled averages to stay Ord-comparable.
        let out_scaled: Vec<Element<(i64, i64)>> = out
            .into_iter()
            .map(|e| e.map(|(k, avg)| (k, (avg * 1000.0).round() as i64)))
            .collect();
        snapshot::check_unary(&input, &out_scaled, |s| {
            snapshot::rel::aggregate_by(
                s,
                |p| p.0,
                |k, v| {
                    let avg = v.iter().map(|p| p.1 as f64).sum::<f64>() / v.len() as f64;
                    (*k, (avg * 1000.0).round() as i64)
                },
            )
        })
        .unwrap();
    }

    #[test]
    fn grouped_max_watermark_contract() {
        let input: Vec<Element<(i64, i64)>> = (0..30)
            .map(|i| el((i % 3, i), i as u64, i as u64 + 10))
            .collect();
        let msgs = run_unary_messages(
            GroupedAggregate::new(|p: &(i64, i64)| p.0, MaxAgg(|p: &(i64, i64)| p.1)),
            input,
        );
        check_watermark_contract(&msgs).unwrap();
    }

    #[test]
    fn finalized_keys_are_dropped_on_heartbeat() {
        let mut op = GroupedAggregate::new(|p: &(i64, i64)| p.0, CountAgg);
        let mut sink: Vec<pipes_time::Message<(i64, u64)>> = Vec::new();
        // 8 long-tail keys, each seen once on an early interval, plus one
        // hot key with live state reaching past the watermark.
        for k in 0..8 {
            op.on_element(0, el((k, 0), 0, 10), &mut sink);
        }
        op.on_element(0, el((100, 0), 0, 50), &mut sink);
        assert_eq!(op.live_groups(), 9);

        // Watermark 20 finalizes every [0,10) partial: the 8 one-shot keys
        // must release their map entries, not linger with empty tables.
        op.on_heartbeat(0, Timestamp::new(20), &mut sink);
        assert_eq!(op.live_groups(), 1, "finalized keys must be dropped");
        assert_eq!(op.memory(), 1);

        // Past the hot key's interval, the map empties completely.
        op.on_heartbeat(0, Timestamp::new(60), &mut sink);
        assert_eq!(op.live_groups(), 0);
    }

    #[test]
    fn grouped_tree_strategy_matches_naive() {
        let input: Vec<Element<(i64, i64)>> = (0..120)
            .map(|i| el((i % 3, i), i as u64, i as u64 + 60))
            .collect();
        let naive = run_unary_messages(
            GroupedAggregate::with_strategy(|p: &(i64, i64)| p.0, CountAgg, AggStrategy::Naive),
            input.clone(),
        );
        let tree = run_unary_messages(
            GroupedAggregate::with_strategy(|p: &(i64, i64)| p.0, CountAgg, AggStrategy::Tree),
            input,
        );
        assert_eq!(naive, tree);
    }

    #[test]
    fn sampled_emits_instant_by_instant_in_key_order() {
        let mut op = GroupedAggregate::sampled(
            |p: &(i64, i64)| p.0,
            CountAgg,
            pipes_time::Duration::from_ticks(10),
        );
        let mut out: Vec<Message<(i64, u64)>> = Vec::new();
        op.on_element(0, el((2, 0), 5, 25), &mut out);
        op.on_element(0, el((1, 0), 6, 25), &mut out);
        op.on_element(0, el((3, 0), 7, 9), &mut out); // covers no instant
        op.on_heartbeat(0, Timestamp::new(8), &mut out);
        assert_eq!(out, vec![Message::Heartbeat(Timestamp::new(8))]);
        // Two instants passed at once: instant order first, keys within.
        out.clear();
        op.on_heartbeat(0, Timestamp::new(21), &mut out);
        assert_eq!(
            out,
            vec![
                Message::Element(Element::new((1, 1), iv(10, 20))),
                Message::Element(Element::new((2, 1), iv(10, 20))),
                Message::Element(Element::new((1, 1), iv(20, 30))),
                Message::Element(Element::new((2, 1), iv(20, 30))),
                Message::Heartbeat(Timestamp::new(21)),
            ]
        );
        assert_eq!(op.live_groups(), 0, "emptied groups are dropped");
    }

    #[test]
    fn sampled_heartbeats_before_the_next_instant_touch_no_group() {
        let mut op = GroupedAggregate::sampled(
            |p: &(i64, i64)| p.0,
            CountAgg,
            pipes_time::Duration::from_ticks(100),
        );
        let mut out: Vec<Message<(i64, u64)>> = Vec::new();
        for k in 0..4 {
            op.on_element(0, el((k, 0), 1, 150), &mut out);
        }
        // Every group's first pending instant is 100: heartbeats before it
        // return on the `due` check alone.
        assert_eq!(op.due, Timestamp::new(100));
        for t in 2..100 {
            op.on_heartbeat(0, Timestamp::new(t), &mut out);
        }
        assert_eq!(out.iter().filter(|m| m.is_element()).count(), 0);
        assert_eq!(op.live_groups(), 4);
        op.on_heartbeat(0, Timestamp::new(101), &mut out);
        assert_eq!(out.iter().filter(|m| m.is_element()).count(), 4);
        assert_eq!(op.live_groups(), 0);
    }

    #[test]
    fn a_run_evaluates_each_key_once() {
        use pipes_sync::atomic::{AtomicUsize, Ordering};
        use pipes_sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let mut op = GroupedAggregate::new(
            move |p: &(i64, i64)| {
                // ordering: Relaxed — a single-threaded call counter.
                counted.fetch_add(1, Ordering::Relaxed);
                p.0
            },
            CountAgg,
        );
        // No `(key, interval)` repeats back to back: every element breaks
        // the burst before it, half of them on the key alone.
        let mut run: Vec<Message<(i64, i64)>> = (0..40)
            .map(|i| Message::Element(el((i % 4, i), (i / 2) as u64, 100)))
            .collect();
        let mut out: Vec<Message<(i64, u64)>> = Vec::new();
        op.on_run(0, &mut run, &mut out);
        // ordering: Relaxed — read after the run, on the same thread.
        assert_eq!(calls.load(Ordering::Relaxed), 40);
        assert_eq!(op.memory(), 40);
    }

    #[test]
    fn with_rows_builds_each_row_from_key_and_accumulator() {
        struct Flat;
        impl GroupRow<(i64, i64), i64, CountAgg> for Flat {
            type Out = [i64; 2];
            fn row(&self, _: &CountAgg, key: &i64, count: &u64) -> [i64; 2] {
                [*key, *count as i64]
            }
        }
        let input = vec![el((1, 10), 0, 10), el((2, 20), 0, 10), el((1, 30), 5, 15)];
        let pairs = run_unary_messages(
            GroupedAggregate::sampled(|p: &(i64, i64)| p.0, CountAgg, Duration::from_ticks(5)),
            input.clone(),
        );
        let flat = run_unary_messages(
            GroupedAggregate::sampled(|p: &(i64, i64)| p.0, CountAgg, Duration::from_ticks(5))
                .with_rows(Flat),
            input,
        );
        let as_pairs: Vec<Message<(i64, u64)>> = flat
            .into_iter()
            .map(|m| m.map(|[k, n]| (k, n as u64)))
            .collect();
        assert_eq!(as_pairs, pairs);
    }

    #[test]
    fn shedding_reduces_memory() {
        let mut op = GroupedAggregate::new(|p: &(i64, i64)| p.0, CountAgg);
        let mut sink: Vec<pipes_time::Message<(i64, u64)>> = Vec::new();
        for i in 0..20 {
            op.on_element(
                0,
                el((i % 4, i), (i * 10) as u64, (i * 10 + 5) as u64),
                &mut sink,
            );
        }
        let before = op.memory();
        assert_eq!(before, 20);
        let after = op.shed(8);
        assert!(after <= 12, "shed to {after}");
    }
}
