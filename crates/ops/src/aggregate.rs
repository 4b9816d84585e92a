//! Non-blocking scalar aggregation over time intervals.
//!
//! The temporal aggregation algorithm of the PIPES interval algebra: the
//! operator maintains a list of **partial aggregates**, each covering a
//! maximal sub-interval during which the set of valid input elements is
//! constant. An arriving element `[s, e)` splits the overlapping partials at
//! `s` and `e`, contributes its payload to every partial inside `[s, e)`,
//! and opens fresh partials over uncovered gaps. A heartbeat at `t`
//! finalizes every partial ending at or before `t` — no future element can
//! start before `t`, so those partials can never change again.
//!
//! Two interchangeable state layouts implement that contract (see
//! [`AggStrategy`]):
//!
//! * the **naive** boundary table folds the payload into every covered
//!   partial eagerly — O(w) accumulator touches per insert at window
//!   width w;
//! * the **tree** ([`crate::aggtree`]) keeps the identical boundary
//!   structure as a pure interval index and defers all combining to the
//!   heartbeat sweep through a two-stacks/treap partial-aggregation
//!   structure — O(1) amortized (O(log w) worst-case) accumulator touches,
//!   provided the aggregate exposes an associative, commutative
//!   [`AggregateFn::combine`].
//!
//! Both emit byte-identical output. The layouts fold the same payloads in
//! different orders (arrival order, pre-folded bursts, the tree's
//! `(end, seq)` order), so every built-in combine is *exact*: counts are
//! integers, extrema pick under a total order, and sums and averages
//! accumulate into an [`ExactSum`], which rounds once, when finalized, and
//! so depends only on the multiset of addends. The default
//! [`AggStrategy::Auto`] starts naive and converts once an insert is
//! observed covering [`TREE_CONVERT_WIDTH`] partials, so narrow windows
//! never pay the tree's bookkeeping.
//!
//! The output is a stream of aggregate values whose snapshots equal the
//! relational aggregate of the input snapshot at every instant (empty
//! snapshots produce no row).
//!
//! A third layout, the **grid**, computes the aggregate *sampled* every
//! `period` (CQL's `EVERY`): [`ScalarAggregate::sampled`] and
//! [`crate::groupby::GroupedAggregate::sampled`] keep one accumulator per
//! *span* — the grid instants `[a, b)` an element `[s, e)` covers, with
//! `a = s.align_up(period)` and `b = e.align_up(period)` — and nothing
//! else: no partials, no tree. An insert folds its payload (`init`/`add`)
//! into the one accumulator of its span, so each element is folded once
//! however many instants it covers. A heartbeat at `t` emits every pending
//! instant `g < t` as `(finalize(acc), [g, g + period))`, where `acc`
//! combines the spans covering `g`, and drops the spans that end at or
//! before the next instant. Under a `RANGE R` window with `period | R`
//! the spans are the panes of Li et al.'s "No Pane, No Gain"; otherwise at
//! most two span shapes start per period. The aggregate must be
//! combinable. The rows equal what [`crate::granularity::Granularity`]
//! samples from the unsampled aggregate's output (for an exact aggregate,
//! bit for bit), at one fold per element and one combine per covering
//! span and emitted row instead of a row per partial boundary.

use crate::aggtree::TreePartials;
use pipes_graph::{Collector, Operator};
use pipes_meta::estimators::{StateSize, Welford};
use pipes_time::{Duration, Element, Message, TimeInterval, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;

pub use crate::exactsum::ExactSum;

/// An incremental aggregate function, pluggable into [`ScalarAggregate`] and
/// [`crate::groupby::GroupedAggregate`].
///
/// Accumulators must be cloneable because interval splits duplicate the
/// partial state covering each half.
///
/// Aggregates whose accumulators can be **merged** should additionally
/// override [`combinable`](AggregateFn::combinable) and
/// [`combine`](AggregateFn::combine): that unlocks the sub-linear
/// partial-aggregate tree ([`AggStrategy`]), which folds whole accumulators
/// instead of re-adding individual payloads. `combine` must be associative
/// and commutative with respect to `add` — for accumulators built from any
/// payload partition, merging them in any order must equal accumulating all
/// payloads into one accumulator — *exactly*, or the layouts' outputs
/// drift apart. All combinable built-ins (count, sum, avg, min, max)
/// satisfy this, sums and averages through [`ExactSum`]; [`StatsAgg`]
/// deliberately does not claim it because merging Welford states rounds
/// differently than sequential observation.
pub trait AggregateFn<T>: Send + 'static {
    /// Accumulator state.
    type Acc: Clone + Send + 'static;
    /// Final output value.
    type Out: Send + Clone + 'static;

    /// Creates an accumulator from the first contributing payload.
    fn init(&self, v: &T) -> Self::Acc;
    /// Folds another payload into the accumulator.
    fn add(&self, acc: &mut Self::Acc, v: &T);
    /// Produces the output value.
    fn finalize(&self, acc: &Self::Acc) -> Self::Out;

    /// Whether [`combine`](AggregateFn::combine) is implemented. Defaults
    /// to `false`: such aggregates always use the naive partial table.
    fn combinable(&self) -> bool {
        false
    }

    /// Merges two independently built accumulators. Must be associative
    /// and commutative (see the trait docs). The default panics; only
    /// called when [`combinable`](AggregateFn::combinable) returns `true`.
    fn combine(&self, a: &Self::Acc, b: &Self::Acc) -> Self::Acc {
        let _ = (a, b);
        unimplemented!("this AggregateFn does not implement combine()")
    }

    /// Merges `other` into `acc`, as `*acc = combine(acc, other)` does (the
    /// default). Override it where the accumulator can merge in place.
    fn combine_into(&self, acc: &mut Self::Acc, other: &Self::Acc) {
        *acc = self.combine(acc, other);
    }
}

/// Wraps any [`AggregateFn`] with a user-supplied merge function, making it
/// eligible for the sub-linear partial-aggregate tree.
///
/// ```
/// use pipes_ops::aggregate::{FoldAgg, WithCombine};
///
/// // An integer sum as a custom fold, made combinable:
/// let agg = WithCombine::new(
///     FoldAgg::new(|v: &i64| *v, |acc: &mut i64, v: &i64| *acc += *v, |acc: &i64| *acc),
///     |a: &i64, b: &i64| a + b,
/// );
/// ```
pub struct WithCombine<G, C> {
    inner: G,
    combine: C,
}

impl<G, C> WithCombine<G, C> {
    /// Attaches `combine` to `inner`. `combine` must be associative and
    /// commutative with respect to the inner aggregate's `add`.
    pub fn new(inner: G, combine: C) -> Self {
        WithCombine { inner, combine }
    }
}

impl<T, G, C> AggregateFn<T> for WithCombine<G, C>
where
    G: AggregateFn<T>,
    C: Fn(&G::Acc, &G::Acc) -> G::Acc + Send + 'static,
{
    type Acc = G::Acc;
    type Out = G::Out;
    fn init(&self, v: &T) -> Self::Acc {
        self.inner.init(v)
    }
    fn add(&self, acc: &mut Self::Acc, v: &T) {
        self.inner.add(acc, v);
    }
    fn finalize(&self, acc: &Self::Acc) -> Self::Out {
        self.inner.finalize(acc)
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &Self::Acc, b: &Self::Acc) -> Self::Acc {
        (self.combine)(a, b)
    }
}

/// Partial-aggregate state layout used by [`ScalarAggregate`] and
/// [`crate::groupby::GroupedAggregate`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AggStrategy {
    /// Start with the naive boundary table and convert to the tree the
    /// first time an insert covers [`TREE_CONVERT_WIDTH`] partials.
    /// Requires a combinable aggregate to ever convert; otherwise this is
    /// [`AggStrategy::Naive`]. The default.
    #[default]
    Auto,
    /// Always the naive boundary table: O(covered partials) per insert.
    Naive,
    /// Always the partial-aggregate tree. Panics at construction if the
    /// aggregate is not combinable.
    Tree,
}

/// Covered-partials threshold at which [`AggStrategy::Auto`] converts the
/// naive table to the tree. Below this width the naive scan's contiguous
/// `BTreeMap` walk is at least as fast as the tree's deferred machinery.
pub const TREE_CONVERT_WIDTH: usize = 48;

/// Estimated per-partial index overhead (map node, key, bookkeeping) used
/// for state-size reporting, on top of the accumulator payload itself.
const PARTIAL_OVERHEAD_BYTES: usize = 32;

/// How a [`Partials`] table is laid out: a partial table under an
/// [`AggStrategy`], or the grid sampled every `period` — each with what
/// the aggregate's [`combinable`](AggregateFn::combinable) reported.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    Partials(AggStrategy, bool),
    Grid(Duration, bool),
}

/// The partial-aggregate table: disjoint intervals, each with accumulated
/// state, ordered by start. Shared by scalar and grouped aggregation;
/// dispatches between the naive boundary table, the sub-linear tree and
/// the sampled grid.
pub(crate) struct Partials<A> {
    state: PartialsState<A>,
    auto_convert: bool,
}

enum PartialsState<A> {
    Naive(NaivePartials<A>),
    Tree(TreePartials<A>),
    Grid(GridPartials<A>),
}

/// The eager boundary table: every insert folds the payload into each
/// covered partial.
struct NaivePartials<A> {
    /// start → (end, accumulator)
    map: BTreeMap<Timestamp, (Timestamp, A)>,
}

impl<A: Clone> NaivePartials<A> {
    fn new() -> Self {
        NaivePartials {
            map: BTreeMap::new(),
        }
    }

    /// Splits the partial containing `t` (if any) so that `t` becomes a
    /// boundary.
    fn split_at(&mut self, t: Timestamp) {
        if let Some((&start, &(end, _))) = self.map.range(..t).next_back() {
            if t < end {
                let (_, acc) = self.map.remove(&start).expect("partial exists");
                self.map.insert(start, (t, acc.clone()));
                self.map.insert(t, (end, acc));
            }
        }
    }

    /// Folds `v` over `[s, e)`: existing partials inside get `add`, gaps
    /// get `init`. Returns how many existing partials the insert covered
    /// (the naive cost driver, and the Auto conversion trigger).
    fn insert<T>(&mut self, iv: TimeInterval, v: &T, agg: &impl AggregateFn<T, Acc = A>) -> usize {
        let (s, e) = (iv.start(), iv.end());
        self.split_at(s);
        self.split_at(e);
        // All partials now either lie fully inside [s, e) or fully outside.
        let inside: Vec<Timestamp> = self.map.range(s..e).map(|(&start, _)| start).collect();
        let covered = inside.len();
        let mut cursor = s;
        let mut gaps: Vec<(Timestamp, Timestamp)> = Vec::new();
        for start in inside {
            if cursor < start {
                gaps.push((cursor, start));
            }
            let (end, acc) = self.map.get_mut(&start).expect("partial exists");
            agg.add(acc, v);
            cursor = *end;
        }
        if cursor < e {
            gaps.push((cursor, e));
        }
        for (gs, ge) in gaps {
            self.map.insert(gs, (ge, agg.init(v)));
        }
        covered
    }

    /// Folds a whole group of same-interval elements over `[s, e)` with a
    /// *single* boundary-split pair. Every message in `group` must be an
    /// element whose interval equals `iv` (non-elements are skipped
    /// defensively). Returns the covered-partials count, as
    /// [`insert`](NaivePartials::insert) does.
    ///
    /// Equivalent to calling `insert` once per payload: the first
    /// per-element insert fully tiles `[s, e)`, so later splits and gap
    /// scans are no-ops — this method just skips them. Existing partials
    /// get every payload via `add`; gaps get one accumulator built from
    /// the group (`init` first, `add` rest), cloned per gap.
    fn insert_group<T>(
        &mut self,
        iv: TimeInterval,
        group: &[Message<T>],
        agg: &impl AggregateFn<T, Acc = A>,
    ) -> usize {
        debug_assert!(
            group
                .iter()
                .all(|m| matches!(m, Message::Element(e) if e.interval == iv)),
            "insert_group requires same-interval element messages"
        );
        let (s, e) = (iv.start(), iv.end());
        self.split_at(s);
        self.split_at(e);
        let inside: Vec<Timestamp> = self.map.range(s..e).map(|(&start, _)| start).collect();
        let covered = inside.len();
        let mut cursor = s;
        let mut gaps: Vec<(Timestamp, Timestamp)> = Vec::new();
        for start in inside {
            if cursor < start {
                gaps.push((cursor, start));
            }
            let (end, acc) = self.map.get_mut(&start).expect("partial exists");
            for m in group {
                if let Message::Element(el) = m {
                    agg.add(acc, &el.payload);
                }
            }
            cursor = *end;
        }
        if cursor < e {
            gaps.push((cursor, e));
        }
        if !gaps.is_empty() {
            let mut payloads = group.iter().filter_map(|m| match m {
                Message::Element(el) => Some(&el.payload),
                _ => None,
            });
            let Some(first) = payloads.next() else {
                return covered;
            };
            let mut acc = agg.init(first);
            for v in payloads {
                agg.add(&mut acc, v);
            }
            let (last, rest) = gaps.split_last().expect("non-empty");
            for &(gs, ge) in rest {
                self.map.insert(gs, (ge, acc.clone()));
            }
            self.map.insert(last.0, (last.1, acc));
        }
        covered
    }

    /// Finalizes and removes every partial ending at or before `wm`,
    /// splitting a partial that straddles the watermark. Calls `emit` in
    /// start order.
    fn flush(&mut self, wm: Timestamp, mut emit: impl FnMut(TimeInterval, &A)) {
        self.split_at(wm);
        let ready: Vec<Timestamp> = self
            .map
            .iter()
            .take_while(|(_, &(end, _))| end <= wm)
            .map(|(&start, _)| start)
            .collect();
        for start in ready {
            let (end, acc) = self.map.remove(&start).expect("partial exists");
            emit(TimeInterval::new(start, end), &acc);
        }
    }

    /// Finalizes everything (end of stream).
    fn flush_all(&mut self, mut emit: impl FnMut(TimeInterval, &A)) {
        let map = std::mem::take(&mut self.map);
        for (start, (end, acc)) in map {
            emit(TimeInterval::new(start, end), &acc);
        }
    }

    /// Drops the oldest partials until at most `target` remain (load
    /// shedding: the dropped time ranges simply produce no output).
    fn shed_oldest(&mut self, target: usize) -> usize {
        while self.map.len() > target {
            self.map.pop_first();
        }
        self.map.len()
    }
}

/// The sampled layout: one accumulator per span of covered grid instants
/// (see the module docs).
struct GridPartials<A> {
    period: Duration,
    /// The earliest grid instant not yet emitted.
    next: Timestamp,
    /// `(a, b, acc)`: the payloads of the elements covering exactly the
    /// grid instants `[a, b)`, sorted by `(a, b)`.
    spans: VecDeque<(Timestamp, Timestamp, A)>,
    /// The combine of the spans covering one instant, reused.
    scratch: Option<A>,
}

impl<A: Clone> GridPartials<A> {
    /// Folds the payloads of `group`, in arrival order, into the span of
    /// the grid instants in `iv` (from `next` on).
    fn insert<'a, T: 'a>(
        &mut self,
        iv: TimeInterval,
        mut group: impl Iterator<Item = &'a T>,
        agg: &impl AggregateFn<T, Acc = A>,
    ) {
        let a = iv.start().align_up(self.period).max(self.next);
        let b = iv.end().align_up(self.period);
        if a >= b {
            return;
        }
        // In-order input hits or appends at the back.
        let i = match self.spans.back() {
            Some(&(x, y, _)) if (x, y) == (a, b) => self.spans.len() - 1,
            Some(&(x, y, _)) if (x, y) > (a, b) => {
                self.spans.partition_point(|&(x, y, _)| (x, y) < (a, b))
            }
            _ => self.spans.len(),
        };
        if self.spans.get(i).is_none_or(|&(x, y, _)| (x, y) != (a, b)) {
            let Some(first) = group.next() else { return };
            self.spans.insert(i, (a, b, agg.init(first)));
        }
        let acc = &mut self.spans[i].2;
        group.for_each(|v| agg.add(acc, v));
    }

    /// Emits every pending grid instant before `wm`, in instant order,
    /// dropping the spans that end at or before the next one.
    fn flush<T>(
        &mut self,
        wm: Timestamp,
        agg: &impl AggregateFn<T, Acc = A>,
        mut emit: impl FnMut(TimeInterval, &A),
    ) {
        while let Some(&(a, b, ref first)) = self.spans.front() {
            let g = a.max(self.next);
            if b <= g {
                self.spans.pop_front();
                continue;
            }
            if g >= wm {
                return;
            }
            let acc = self.scratch.get_or_insert_with(|| first.clone());
            acc.clone_from(first);
            let covering = self.spans.iter().skip(1).take_while(|s| s.0 <= g);
            for (_, _, other) in covering.filter(|s| g < s.1) {
                agg.combine_into(acc, other);
            }
            self.next = g.saturating_add(self.period);
            emit(TimeInterval::new(g, self.next), acc);
        }
    }
}

impl<A: Clone> Partials<A> {
    /// A plain naive table (no Auto conversion); the conservative default
    /// for callers that never probed the aggregate for combinability.
    pub(crate) fn new() -> Self {
        Partials {
            state: PartialsState::Naive(NaivePartials::new()),
            auto_convert: false,
        }
    }

    /// Builds the table for `strategy`; `combinable` is what the
    /// aggregate's [`AggregateFn::combinable`] reported.
    pub(crate) fn with_strategy(strategy: AggStrategy, combinable: bool) -> Self {
        match strategy {
            AggStrategy::Naive => Partials::new(),
            AggStrategy::Auto => Partials {
                state: PartialsState::Naive(NaivePartials::new()),
                auto_convert: combinable,
            },
            AggStrategy::Tree => {
                assert!(
                    combinable,
                    "AggStrategy::Tree requires an aggregate with combine() \
                     (combinable() == true)"
                );
                Partials {
                    state: PartialsState::Tree(TreePartials::new()),
                    auto_convert: false,
                }
            }
        }
    }

    /// Builds the table for `layout`.
    pub(crate) fn with_layout(layout: Layout) -> Self {
        match layout {
            Layout::Partials(strategy, combinable) => Partials::with_strategy(strategy, combinable),
            Layout::Grid(period, combinable) => {
                assert!(!period.is_zero(), "sampling period must be positive");
                assert!(
                    combinable,
                    "a sampled aggregate requires combine() (combinable() == true)"
                );
                let grid = GridPartials {
                    period,
                    next: Timestamp::ZERO,
                    spans: VecDeque::new(),
                    scratch: None,
                };
                Partials {
                    state: PartialsState::Grid(grid),
                    auto_convert: false,
                }
            }
        }
    }

    /// Live partial count (identical across the naive and tree layouts);
    /// live spans on the grid.
    pub(crate) fn len(&self) -> usize {
        match &self.state {
            PartialsState::Naive(n) => n.map.len(),
            PartialsState::Tree(t) => t.len(),
            PartialsState::Grid(g) => g.spans.len(),
        }
    }

    /// The earliest pending grid instant (`None` off the grid, or when
    /// nothing is pending).
    pub(crate) fn next_instant(&self) -> Option<Timestamp> {
        match &self.state {
            PartialsState::Grid(g) => g.spans.front().map(|&(a, _, _)| a.max(g.next)),
            _ => None,
        }
    }

    /// Whether the sub-linear tree layout is active.
    pub(crate) fn is_tree(&self) -> bool {
        matches!(self.state, PartialsState::Tree(_))
    }

    /// Index/accumulator entries held, for state-size estimation: the
    /// naive table has one per partial; the tree additionally counts its
    /// coverage index and pending/active range accumulators; the grid has
    /// one per span.
    pub(crate) fn size_units(&self) -> usize {
        match &self.state {
            PartialsState::Naive(n) => n.map.len(),
            PartialsState::Tree(t) => t.size_units(),
            PartialsState::Grid(g) => g.spans.len(),
        }
    }

    /// Estimated byte footprint of this table for accumulators of
    /// `acc_bytes` each.
    pub(crate) fn state_bytes(&self, acc_bytes: usize) -> usize {
        StateSize::new(acc_bytes, PARTIAL_OVERHEAD_BYTES)
            .with_units(self.size_units())
            .bytes()
    }

    fn maybe_convert(&mut self, covered: usize) {
        if !self.auto_convert || covered < TREE_CONVERT_WIDTH {
            return;
        }
        if let PartialsState::Naive(n) = &mut self.state {
            let map = std::mem::take(&mut n.map);
            let mut t = TreePartials::new();
            for (start, (end, acc)) in map {
                t.adopt_slot(start, end, acc);
            }
            self.state = PartialsState::Tree(t);
        }
    }

    /// Folds `v` over `[s, e)`: existing partials inside get `add`, gaps
    /// get `init`.
    pub(crate) fn insert<T>(
        &mut self,
        iv: TimeInterval,
        v: &T,
        agg: &impl AggregateFn<T, Acc = A>,
    ) {
        match &mut self.state {
            PartialsState::Naive(n) => {
                let covered = n.insert(iv, v, agg);
                self.maybe_convert(covered);
            }
            PartialsState::Tree(t) => t.insert_range(iv, agg.init(v)),
            PartialsState::Grid(g) => g.insert(iv, std::iter::once(v), agg),
        }
    }

    /// Folds a whole group of same-interval elements over `[s, e)` as one
    /// update (the run-native bulk entry point): one boundary-split pair
    /// per burst on the naive table, one range insert on the tree.
    pub(crate) fn insert_group<T>(
        &mut self,
        iv: TimeInterval,
        group: &[Message<T>],
        agg: &impl AggregateFn<T, Acc = A>,
    ) {
        match &mut self.state {
            PartialsState::Naive(n) => {
                let covered = n.insert_group(iv, group, agg);
                self.maybe_convert(covered);
            }
            PartialsState::Tree(t) => {
                let mut acc: Option<A> = None;
                for m in group {
                    if let Message::Element(el) = m {
                        match &mut acc {
                            None => acc = Some(agg.init(&el.payload)),
                            Some(a) => agg.add(a, &el.payload),
                        }
                    }
                }
                match acc {
                    Some(acc) => t.insert_range(iv, acc),
                    // No payloads: still mirror the boundary splits the
                    // naive table would perform.
                    None => t.split_only(iv),
                }
            }
            PartialsState::Grid(g) => {
                let payloads = group.iter().filter_map(|m| match m {
                    Message::Element(el) => Some(&el.payload),
                    _ => None,
                });
                g.insert(iv, payloads, agg);
            }
        }
    }

    /// Finalizes and removes every partial ending at or before `wm`,
    /// splitting a partial that straddles the watermark — on the grid,
    /// every instant before `wm`. Calls `emit` in start order. `agg`
    /// supplies `combine` for the tree and the grid.
    pub(crate) fn flush<T>(
        &mut self,
        wm: Timestamp,
        agg: &impl AggregateFn<T, Acc = A>,
        emit: impl FnMut(TimeInterval, &A),
    ) {
        match &mut self.state {
            PartialsState::Naive(n) => n.flush(wm, emit),
            PartialsState::Tree(t) => t.flush(wm, &|a: &A, b: &A| agg.combine(a, b), emit),
            PartialsState::Grid(g) => g.flush(wm, agg, emit),
        }
    }

    /// Finalizes everything (end of stream).
    pub(crate) fn flush_all<T>(
        &mut self,
        agg: &impl AggregateFn<T, Acc = A>,
        emit: impl FnMut(TimeInterval, &A),
    ) {
        match &mut self.state {
            PartialsState::Naive(n) => n.flush_all(emit),
            PartialsState::Tree(t) => t.flush_all(&|a: &A, b: &A| agg.combine(a, b), emit),
            PartialsState::Grid(g) => g.flush(Timestamp::MAX, agg, emit),
        }
    }

    /// Drops the oldest partials until at most `target` remain (load
    /// shedding: the dropped time ranges simply produce no output).
    pub(crate) fn shed_oldest(&mut self, target: usize) -> usize {
        match &mut self.state {
            PartialsState::Naive(n) => n.shed_oldest(target),
            PartialsState::Tree(t) => t.shed_oldest(target),
            PartialsState::Grid(g) => {
                // A dead span left in front goes at the next flush.
                g.spans.drain(..g.spans.len().saturating_sub(target));
                g.spans.len()
            }
        }
    }
}

/// Scalar (whole-stream) aggregation over the sliding snapshots.
pub struct ScalarAggregate<T, A: AggregateFn<T>> {
    agg: A,
    partials: Partials<A::Acc>,
    _marker: PhantomData<fn(T)>,
}

impl<T, A: AggregateFn<T>> ScalarAggregate<T, A> {
    /// Creates the operator with the given aggregate function and the
    /// default [`AggStrategy::Auto`] state layout.
    pub fn new(agg: A) -> Self {
        Self::with_strategy(agg, AggStrategy::Auto)
    }

    /// Creates the operator with an explicit partial-state layout.
    pub fn with_strategy(agg: A, strategy: AggStrategy) -> Self {
        let partials = Partials::with_strategy(strategy, agg.combinable());
        ScalarAggregate {
            agg,
            partials,
            _marker: PhantomData,
        }
    }

    /// Creates the operator on the grid layout: the aggregate sampled at
    /// every `g = k·period`, each value valid over `[g, g + period)` (see
    /// the module docs). `agg` must be combinable: an instant combines the
    /// spans of grid instants covering it.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `agg` is not combinable.
    pub fn sampled(agg: A, period: Duration) -> Self {
        ScalarAggregate {
            partials: Partials::with_layout(Layout::Grid(period, agg.combinable())),
            agg,
            _marker: PhantomData,
        }
    }
}

impl<T, A> Operator for ScalarAggregate<T, A>
where
    T: Send + Clone + 'static,
    A: AggregateFn<T>,
{
    type In = T;
    type Out = A::Out;

    fn on_element(&mut self, _port: usize, e: Element<T>, _out: &mut dyn Collector<A::Out>) {
        self.partials.insert(e.interval, &e.payload, &self.agg);
    }

    fn on_heartbeat(&mut self, _port: usize, t: Timestamp, out: &mut dyn Collector<A::Out>) {
        let agg = &self.agg;
        self.partials.flush(t, agg, |iv, acc| {
            out.element(Element::new(agg.finalize(acc), iv))
        });
        out.heartbeat(t);
    }

    /// Applies adjacent same-interval elements as one
    /// [`Partials::insert_group`] — bursty streams (many readings stamped
    /// with the same interval) pay one boundary-split pair per burst
    /// instead of one per element. Emits the aggregate hot-path trace
    /// instants (`agg.insert_run` per run, `agg.finalize` per in-run
    /// heartbeat); the per-message callbacks stay uninstrumented.
    fn on_run(&mut self, port: usize, run: &mut Vec<Message<T>>, out: &mut dyn Collector<A::Out>) {
        let run_len = run.len();
        let mut bursts = 0u64;
        let mut i = 0;
        while i < run.len() {
            match &run[i] {
                Message::Element(e) => {
                    let iv = e.interval;
                    let mut j = i + 1;
                    while j < run.len() {
                        match &run[j] {
                            Message::Element(n) if n.interval == iv => j += 1,
                            _ => break,
                        }
                    }
                    self.partials.insert_group(iv, &run[i..j], &self.agg);
                    bursts += 1;
                    i = j;
                }
                Message::Heartbeat(t) => {
                    let t = *t;
                    self.on_heartbeat(port, t, out);
                    if pipes_trace::enabled() {
                        pipes_trace::instant_coarse(
                            pipes_trace::names::AGG_FINALIZE,
                            [
                                t.ticks(),
                                self.partials.len() as u64,
                                self.partials.is_tree() as u64,
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
                [run_len as u64, bursts, self.partials.len() as u64],
            );
        }
        run.clear();
    }

    fn on_close(&mut self, out: &mut dyn Collector<A::Out>) {
        let agg = &self.agg;
        self.partials.flush_all(agg, |iv, acc| {
            out.element(Element::new(agg.finalize(acc), iv))
        });
    }

    fn memory(&self) -> usize {
        self.partials.len()
    }

    fn state_bytes(&self) -> usize {
        self.partials.state_bytes(std::mem::size_of::<A::Acc>())
    }

    fn shed(&mut self, target: usize) -> usize {
        self.partials.shed_oldest(target)
    }
}

// ---------------------------------------------------------------------------
// Built-in aggregate functions
// ---------------------------------------------------------------------------

/// Counts contributing elements.
pub struct CountAgg;

impl<T> AggregateFn<T> for CountAgg {
    type Acc = u64;
    type Out = u64;
    fn init(&self, _v: &T) -> u64 {
        1
    }
    fn add(&self, acc: &mut u64, _v: &T) {
        *acc += 1;
    }
    fn finalize(&self, acc: &u64) -> u64 {
        *acc
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// Sums a numeric projection of the payload.
///
/// The sum is an [`ExactSum`]: the exact sum of the contributing values,
/// rounded once to the nearest `f64`, so it does not depend on the order
/// the payloads were folded or combined in (a plain `+=` fold would).
pub struct SumAgg<F>(pub F);

impl<T, F> AggregateFn<T> for SumAgg<F>
where
    F: Fn(&T) -> f64 + Send + 'static,
{
    type Acc = ExactSum;
    type Out = f64;
    fn init(&self, v: &T) -> ExactSum {
        ExactSum::of((self.0)(v))
    }
    fn add(&self, acc: &mut ExactSum, v: &T) {
        acc.add((self.0)(v));
    }
    fn finalize(&self, acc: &ExactSum) -> f64 {
        acc.value()
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &ExactSum, b: &ExactSum) -> ExactSum {
        let mut s = a.clone();
        s.merge(b);
        s
    }
}

/// Averages a numeric projection of the payload: the [`ExactSum`] of the
/// values, rounded once, divided by their count — as order-independent as
/// [`SumAgg`].
pub struct AvgAgg<F>(pub F);

impl<T, F> AggregateFn<T> for AvgAgg<F>
where
    F: Fn(&T) -> f64 + Send + 'static,
{
    type Acc = (ExactSum, u64);
    type Out = f64;
    fn init(&self, v: &T) -> (ExactSum, u64) {
        (ExactSum::of((self.0)(v)), 1)
    }
    fn add(&self, acc: &mut (ExactSum, u64), v: &T) {
        acc.0.add((self.0)(v));
        acc.1 += 1;
    }
    fn finalize(&self, acc: &(ExactSum, u64)) -> f64 {
        acc.0.value() / acc.1 as f64
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &(ExactSum, u64), b: &(ExactSum, u64)) -> (ExactSum, u64) {
        let mut s = a.0.clone();
        s.merge(&b.0);
        (s, a.1 + b.1)
    }
}

/// Minimum of an orderable projection.
pub struct MinAgg<F>(pub F);

impl<T, V, F> AggregateFn<T> for MinAgg<F>
where
    V: Ord + Clone + Send + 'static,
    F: Fn(&T) -> V + Send + 'static,
{
    type Acc = V;
    type Out = V;
    fn init(&self, v: &T) -> V {
        (self.0)(v)
    }
    fn add(&self, acc: &mut V, v: &T) {
        let x = (self.0)(v);
        if x < *acc {
            *acc = x;
        }
    }
    fn finalize(&self, acc: &V) -> V {
        acc.clone()
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &V, b: &V) -> V {
        if *b < *a {
            b.clone()
        } else {
            a.clone()
        }
    }
}

/// Maximum of an orderable projection.
pub struct MaxAgg<F>(pub F);

impl<T, V, F> AggregateFn<T> for MaxAgg<F>
where
    V: Ord + Clone + Send + 'static,
    F: Fn(&T) -> V + Send + 'static,
{
    type Acc = V;
    type Out = V;
    fn init(&self, v: &T) -> V {
        (self.0)(v)
    }
    fn add(&self, acc: &mut V, v: &T) {
        let x = (self.0)(v);
        if x > *acc {
            *acc = x;
        }
    }
    fn finalize(&self, acc: &V) -> V {
        acc.clone()
    }
    fn combinable(&self) -> bool {
        true
    }
    fn combine(&self, a: &V, b: &V) -> V {
        if *b > *a {
            b.clone()
        } else {
            a.clone()
        }
    }
}

/// Mean and variance via the shared online-aggregation package of
/// `pipes-meta` — the same [`Welford`] estimator also backs demand-driven
/// cursor aggregation, demonstrating the paper's code-reuse claim.
///
/// Deliberately **not** combinable: merging two Welford states rounds
/// differently than observing the same values sequentially, which would
/// break the exact naive/tree output equivalence this module guarantees.
pub struct StatsAgg<F>(pub F);

impl<T, F> AggregateFn<T> for StatsAgg<F>
where
    F: Fn(&T) -> f64 + Send + 'static,
{
    type Acc = Welford;
    type Out = (f64, f64);
    fn init(&self, v: &T) -> Welford {
        let mut w = Welford::new();
        w.observe((self.0)(v));
        w
    }
    fn add(&self, acc: &mut Welford, v: &T) {
        acc.observe((self.0)(v));
    }
    fn finalize(&self, acc: &Welford) -> (f64, f64) {
        (acc.mean(), acc.variance())
    }
}

/// A fully custom aggregate built from closures. Not combinable by itself;
/// wrap it in [`WithCombine`] to provide a merge function.
pub struct FoldAgg<I, A, F> {
    init: I,
    add: A,
    finalize: F,
}

impl<I, A, F> FoldAgg<I, A, F> {
    /// Creates a closure-based aggregate.
    pub fn new(init: I, add: A, finalize: F) -> Self {
        FoldAgg {
            init,
            add,
            finalize,
        }
    }
}

impl<T, Acc, Out, I, A, F> AggregateFn<T> for FoldAgg<I, A, F>
where
    Acc: Clone + Send + 'static,
    Out: Send + Clone + 'static,
    I: Fn(&T) -> Acc + Send + 'static,
    A: Fn(&mut Acc, &T) + Send + 'static,
    F: Fn(&Acc) -> Out + Send + 'static,
{
    type Acc = Acc;
    type Out = Out;
    fn init(&self, v: &T) -> Acc {
        (self.init)(v)
    }
    fn add(&self, acc: &mut Acc, v: &T) {
        (self.add)(acc, v);
    }
    fn finalize(&self, acc: &Acc) -> Out {
        (self.finalize)(acc)
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
    fn count_over_overlapping_intervals() {
        // [0,10) and [5,15): counts 1 on [0,5), 2 on [5,10), 1 on [10,15).
        let out = run_unary(
            ScalarAggregate::new(CountAgg),
            vec![el(7, 0, 10), el(8, 5, 15)],
        );
        assert_eq!(
            out,
            vec![
                Element::new(1u64, iv(0, 5)),
                Element::new(2, iv(5, 10)),
                Element::new(1, iv(10, 15)),
            ]
        );
    }

    #[test]
    fn count_tree_strategy_matches_naive_exactly() {
        let input: Vec<Element<i64>> = (0..200u64).map(|i| el(i as i64, i, i + 60)).collect();
        let naive = run_unary_messages(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Naive),
            input.clone(),
        );
        let tree = run_unary_messages(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Tree),
            input.clone(),
        );
        let auto = run_unary_messages(ScalarAggregate::new(CountAgg), input);
        assert_eq!(naive, tree);
        assert_eq!(naive, auto);
    }

    #[test]
    fn auto_converts_on_wide_windows_only() {
        let mut narrow = ScalarAggregate::new(CountAgg);
        let mut sink: Vec<Message<u64>> = Vec::new();
        for i in 0..200u64 {
            narrow.on_element(0, el(1, i, i + 8), &mut sink);
        }
        assert!(
            !narrow.partials.is_tree(),
            "narrow windows must stay on the naive table"
        );

        let mut wide = ScalarAggregate::new(CountAgg);
        for i in 0..200u64 {
            wide.on_element(0, el(1, i, i + 200), &mut sink);
        }
        assert!(
            wide.partials.is_tree(),
            "wide windows must convert to the tree"
        );

        // Non-combinable aggregates never convert, no matter the width.
        let mut stats = ScalarAggregate::new(StatsAgg(|v: &i64| *v as f64));
        let mut sink2: Vec<Message<(f64, f64)>> = Vec::new();
        for i in 0..200u64 {
            stats.on_element(0, el(1, i, i + 200), &mut sink2);
        }
        assert!(!stats.partials.is_tree());
    }

    #[test]
    #[should_panic(expected = "combinable")]
    fn tree_strategy_rejects_non_combinable() {
        let _ = ScalarAggregate::with_strategy(StatsAgg(|v: &i64| *v as f64), AggStrategy::Tree);
    }

    #[test]
    fn sum_with_gap() {
        // Disjoint intervals produce separate partials with a silent gap.
        let out = run_unary(
            ScalarAggregate::new(SumAgg(|v: &i64| *v as f64)),
            vec![el(3, 0, 2), el(4, 5, 8)],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Element::new(3.0, iv(0, 2)));
        assert_eq!(out[1], Element::new(4.0, iv(5, 8)));
    }

    #[test]
    fn snapshot_equivalence_count() {
        let input = vec![el(1, 0, 10), el(2, 5, 15), el(3, 5, 7), el(4, 12, 20)];
        let out = run_unary(ScalarAggregate::new(CountAgg), input.clone());
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        })
        .unwrap();
    }

    #[test]
    fn snapshot_equivalence_count_tree() {
        let input = vec![el(1, 0, 10), el(2, 5, 15), el(3, 5, 7), el(4, 12, 20)];
        let out = run_unary(
            ScalarAggregate::with_strategy(CountAgg, AggStrategy::Tree),
            input.clone(),
        );
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| v.len() as u64)
        })
        .unwrap();
    }

    #[test]
    fn snapshot_equivalence_max() {
        let input = vec![el(3, 0, 8), el(9, 2, 5), el(1, 4, 12)];
        let out = run_unary(ScalarAggregate::new(MaxAgg(|v: &i64| *v)), input.clone());
        snapshot::check_unary(&input, &out, |s| {
            snapshot::rel::aggregate(s, |v| *v.iter().max().unwrap())
        })
        .unwrap();
    }

    #[test]
    fn avg_and_min() {
        let input = vec![el(2, 0, 4), el(6, 0, 4)];
        let avg = run_unary(
            ScalarAggregate::new(AvgAgg(|v: &i64| *v as f64)),
            input.clone(),
        );
        assert_eq!(avg, vec![Element::new(4.0, iv(0, 4))]);
        let min = run_unary(ScalarAggregate::new(MinAgg(|v: &i64| *v)), input);
        assert_eq!(min, vec![Element::new(2, iv(0, 4))]);
    }

    #[test]
    fn stats_agg_uses_shared_welford() {
        let input = vec![el(2, 0, 4), el(4, 0, 4), el(6, 0, 4)];
        let out = run_unary(ScalarAggregate::new(StatsAgg(|v: &i64| *v as f64)), input);
        assert_eq!(out.len(), 1);
        let (mean, var) = out[0].payload;
        assert!((mean - 4.0).abs() < 1e-12);
        assert!((var - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn emits_incrementally_on_heartbeats() {
        let msgs = run_unary_messages(
            ScalarAggregate::new(CountAgg),
            vec![el(1, 0, 2), el(2, 5, 6), el(3, 10, 12)],
        );
        check_watermark_contract(&msgs).unwrap();
        // The first partial [0,2) must be emitted before the close: it is
        // finalized by the heartbeat at t=5.
        let positions: Vec<usize> = msgs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_element())
            .map(|(i, _)| i)
            .collect();
        assert!(
            positions[0] < msgs.len() - 2,
            "first result held until close"
        );
    }

    #[test]
    fn shedding_drops_oldest_partials() {
        let mut op = ScalarAggregate::new(CountAgg);
        let mut sink: Vec<pipes_time::Message<u64>> = Vec::new();
        for i in 0..10u64 {
            op.on_element(0, el(1, i * 10, i * 10 + 5), &mut sink);
        }
        assert_eq!(op.memory(), 10);
        assert_eq!(op.shed(3), 3);
        assert_eq!(op.memory(), 3);
    }

    #[test]
    fn state_bytes_tracks_partials_len() {
        let mut op = ScalarAggregate::with_strategy(CountAgg, AggStrategy::Naive);
        let mut sink: Vec<pipes_time::Message<u64>> = Vec::new();
        assert_eq!(op.state_bytes(), 0);
        for i in 0..10u64 {
            op.on_element(0, el(1, i * 10, i * 10 + 5), &mut sink);
        }
        // Naive layout: one unit per partial, so the estimate is exactly
        // len × (accumulator + per-partial overhead).
        assert_eq!(op.memory(), 10);
        let expected = StateSize::new(std::mem::size_of::<u64>(), PARTIAL_OVERHEAD_BYTES)
            .with_units(op.memory())
            .bytes();
        assert_eq!(op.state_bytes(), expected);

        // The tree layout reports at least as much (it also counts its
        // coverage index and pending range accumulators).
        let mut tree = ScalarAggregate::with_strategy(CountAgg, AggStrategy::Tree);
        for i in 0..10u64 {
            tree.on_element(0, el(1, i * 10, i * 10 + 5), &mut sink);
        }
        assert_eq!(tree.memory(), 10);
        assert!(tree.state_bytes() >= expected);
    }

    #[test]
    fn with_combine_enables_tree_for_custom_folds() {
        let agg = || {
            WithCombine::new(
                FoldAgg::new(
                    |v: &i64| *v,
                    |acc: &mut i64, v: &i64| *acc += *v,
                    |acc: &i64| *acc,
                ),
                |a: &i64, b: &i64| a + b,
            )
        };
        assert!(agg().combinable());
        let input: Vec<Element<i64>> = (0..100u64).map(|i| el(1, i, i + 30)).collect();
        let tree = run_unary_messages(
            ScalarAggregate::with_strategy(agg(), AggStrategy::Tree),
            input.clone(),
        );
        let naive = run_unary_messages(
            ScalarAggregate::with_strategy(agg(), AggStrategy::Naive),
            input,
        );
        assert_eq!(tree, naive);
    }

    #[test]
    fn sampled_matches_granularity_over_the_aggregate() {
        use crate::granularity::Granularity;
        use pipes_graph::OperatorExt;
        // Overlaps, a gap with empty grid instants, an element between two
        // instants, one starting on an instant, and bursts.
        let input = vec![
            el(3, 0, 25),
            el(9, 4, 12),
            el(1, 10, 11),
            el(5, 12, 19),
            el(7, 20, 30),
            el(2, 20, 30),
            el(8, 71, 95),
        ];
        for period in [1, 3, 10, 40] {
            let p = Duration::from_ticks(period);
            let sampled = run_unary(
                ScalarAggregate::sampled(MaxAgg(|v: &i64| *v), p),
                input.clone(),
            );
            let mut want = run_unary(
                ScalarAggregate::new(MaxAgg(|v: &i64| *v)).then(Granularity::new(p)),
                input.clone(),
            );
            want.sort_by_key(|e| e.start());
            assert_eq!(sampled, want, "period {period}");
        }
    }

    #[test]
    fn sampled_emits_on_heartbeats_and_flushes_on_close() {
        let mut op = ScalarAggregate::sampled(CountAgg, Duration::from_ticks(10));
        let mut out: Vec<Message<u64>> = Vec::new();
        op.on_element(0, el(1, 5, 25), &mut out);
        op.on_element(0, el(1, 7, 12), &mut out);
        assert_eq!(op.memory(), 2, "spans [10, 30) and [10, 20) pending");
        assert!(op.state_bytes() > 0);
        // No grid instant before 9: nothing to emit yet.
        op.on_heartbeat(0, Timestamp::new(9), &mut out);
        assert_eq!(out, vec![Message::Heartbeat(Timestamp::new(9))]);
        out.clear();
        op.on_heartbeat(0, Timestamp::new(11), &mut out);
        assert_eq!(
            out,
            vec![
                Message::Element(Element::new(2, iv(10, 20))),
                Message::Heartbeat(Timestamp::new(11)),
            ]
        );
        out.clear();
        op.on_close(&mut out);
        assert_eq!(out, vec![Message::Element(Element::new(1, iv(20, 30)))]);
        assert_eq!(op.memory(), 0);
    }

    #[test]
    fn sampled_sheds_the_oldest_spans() {
        let mut op = ScalarAggregate::sampled(CountAgg, Duration::from_ticks(10));
        let mut out: Vec<Message<u64>> = Vec::new();
        // Spans [0, 50), [30, 50), [30, 40) placed before the back and
        // found there again, then [30, 50) at the back: one accumulator per
        // distinct span, however many instants it covers.
        op.on_element(0, el(1, 0, 50), &mut out);
        op.on_element(0, el(1, 25, 50), &mut out);
        op.on_element(0, el(1, 26, 35), &mut out);
        op.on_element(0, el(1, 27, 40), &mut out);
        op.on_element(0, el(1, 28, 50), &mut out);
        assert_eq!(op.memory(), 3);
        // Shedding drops the oldest span, and with it its element's share
        // of every instant: 0..20 go, 30 and 40 keep the rest.
        assert_eq!(op.shed(2), 2);
        op.on_close(&mut out);
        assert_eq!(
            out,
            vec![
                Message::Element(Element::new(4, iv(30, 40))),
                Message::Element(Element::new(2, iv(40, 50))),
            ]
        );
        assert_eq!(op.memory(), 0);
    }

    #[test]
    fn sampled_folds_each_element_once() {
        use pipes_sync::atomic::{AtomicUsize, Ordering};
        use pipes_sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let (on_init, on_add) = (Arc::clone(&calls), Arc::clone(&calls));
        let agg = WithCombine::new(
            FoldAgg::new(
                move |v: &i64| {
                    // ordering: Relaxed — a single-threaded call counter.
                    on_init.fetch_add(1, Ordering::Relaxed);
                    *v
                },
                move |acc: &mut i64, v: &i64| {
                    // ordering: Relaxed — a single-threaded call counter.
                    on_add.fetch_add(1, Ordering::Relaxed);
                    *acc += *v
                },
                |acc: &i64| *acc,
            ),
            |a: &i64, b: &i64| a + b,
        );
        // `RANGE 120 … EVERY 10`: every element covers 12 grid instants.
        let input: Vec<Element<i64>> = (0..100u64).map(|i| el(1, i * 3, i * 3 + 120)).collect();
        let out = run_unary(
            ScalarAggregate::sampled(agg, Duration::from_ticks(10)),
            input,
        );
        // ordering: Relaxed — read after the run, on the same thread.
        assert_eq!(calls.load(Ordering::Relaxed), 100, "one fold per element");
        // Instant 120 sees the 40 elements starting in [3, 120], the last
        // instant (410) the 3 starting in (290, 297].
        assert_eq!(out[12], Element::new(40, iv(120, 130)));
        assert_eq!(out.last(), Some(&Element::new(3, iv(410, 420))));
    }

    #[test]
    fn fold_agg_custom() {
        // Concatenate payload digits as a custom fold.
        let out = run_unary(
            ScalarAggregate::new(FoldAgg::new(
                |v: &i64| vec![*v],
                |acc: &mut Vec<i64>, v: &i64| acc.push(*v),
                |acc: &Vec<i64>| {
                    let mut sorted = acc.clone();
                    sorted.sort();
                    sorted
                },
            )),
            vec![el(2, 0, 4), el(1, 0, 4)],
        );
        assert_eq!(out[0].payload, vec![1, 2]);
    }
}
