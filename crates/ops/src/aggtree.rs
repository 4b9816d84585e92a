//! Sub-linear sliding-window aggregation state: the combine-based
//! partial-aggregate tree behind [`crate::aggregate::Partials`].
//!
//! The naive partial table folds an arriving element into **every** partial
//! overlapping its interval — O(w) accumulator touches per insert at window
//! width w. This module keeps the same boundary structure but makes the
//! boundary map a pure *interval index*: an insert records the element's
//! pre-built accumulator once as a pending *range* and touches **zero**
//! further accumulators. All combining is deferred to the heartbeat-driven
//! flush sweep, which walks finalized slots in start order and maintains the
//! set of ranges covering the sweep line in a two-stacks-style structure:
//!
//! * ranges whose key `(end, seq)` arrives in nondecreasing order are pushed
//!   onto a **back stack** with one `combine` into a running prefix total —
//!   O(1) amortized, which is the common case for FIFO (fixed-width window)
//!   workloads;
//! * out-of-order arrivals go into a balanced **treap** keyed by
//!   `(end, seq)` whose nodes carry subtree aggregates, so insertion and
//!   expiry cost O(log w) combines worst-case;
//! * the emitted value for a slot is `combine(treap root aggregate,
//!   back-stack total)` — one combine per finalized slot.
//!
//! Because combining happens in canonical `(end, seq)`-ascending order
//! rather than arrival order, the aggregate's `combine` must be associative
//! and commutative — exactly, not up to rounding — for results to equal the
//! naive scan's. All combinable built-ins satisfy this: integer counts,
//! min/max under a total order, and sums/averages over an
//! [`ExactSum`](crate::aggregate::ExactSum), which rounds once at
//! finalization and so depends only on the multiset of addends.
//!
//! The slot structure (splits at element endpoints, one slot per maximal
//! gap, watermark splits on flush) mirrors the naive table's evolution
//! move for move, so the emitted `(interval, value)` sequence is identical.

use pipes_time::{TimeInterval, Timestamp};
use std::collections::BTreeMap;
use std::ops::Bound::Excluded;

/// Activation key of a range: interval end plus a unique sequence number,
/// so keys never collide and ties preserve arrival order.
type Key = (Timestamp, u64);

const NIL: u32 = u32::MAX;

/// Deterministic pseudo-random stream for treap priorities (SplitMix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct TNode<A> {
    key: Key,
    prio: u64,
    acc: A,
    /// Fold of the whole subtree's accumulators in key-ascending order.
    agg: A,
    l: u32,
    r: u32,
}

/// Arena-allocated treap ordered by [`Key`] with per-node subtree
/// aggregates; `NIL` (`u32::MAX`) is the null child. Freed slots are
/// recycled through a free list, so steady-state flushing allocates
/// nothing.
struct Treap<A> {
    nodes: Vec<TNode<A>>,
    free: Vec<u32>,
    root: u32,
    rng: u64,
}

impl<A: Clone> Treap<A> {
    fn new() -> Self {
        Treap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: 0x5DEE_CE66_D153_2C25,
        }
    }

    fn is_empty(&self) -> bool {
        self.root == NIL
    }

    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, key: Key, acc: A, prio: u64) -> u32 {
        let node = TNode {
            key,
            prio,
            agg: acc.clone(),
            acc,
            l: NIL,
            r: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Recomputes the subtree aggregate of `i` from its children, folding
    /// in key order: left subtree, own accumulator, right subtree.
    fn pull(&mut self, i: u32, c: &impl Fn(&A, &A) -> A) {
        let (l, r) = (self.nodes[i as usize].l, self.nodes[i as usize].r);
        let mut agg = self.nodes[i as usize].acc.clone();
        if l != NIL {
            agg = c(&self.nodes[l as usize].agg, &agg);
        }
        if r != NIL {
            agg = c(&agg, &self.nodes[r as usize].agg);
        }
        self.nodes[i as usize].agg = agg;
    }

    /// Merges two subtrees where every key in `a` precedes every key in `b`.
    fn merge(&mut self, a: u32, b: u32, c: &impl Fn(&A, &A) -> A) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let m = self.merge(self.nodes[a as usize].r, b, c);
            self.nodes[a as usize].r = m;
            self.pull(a, c);
            a
        } else {
            let m = self.merge(a, self.nodes[b as usize].l, c);
            self.nodes[b as usize].l = m;
            self.pull(b, c);
            b
        }
    }

    /// Splits `t` into subtrees holding keys `< key` and `>= key`.
    fn split(&mut self, t: u32, key: Key, c: &impl Fn(&A, &A) -> A) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].key < key {
            let (a, b) = self.split(self.nodes[t as usize].r, key, c);
            self.nodes[t as usize].r = a;
            self.pull(t, c);
            (t, b)
        } else {
            let (a, b) = self.split(self.nodes[t as usize].l, key, c);
            self.nodes[t as usize].l = b;
            self.pull(t, c);
            (a, t)
        }
    }

    fn insert(&mut self, key: Key, acc: A, c: &impl Fn(&A, &A) -> A) {
        let prio = splitmix64(&mut self.rng);
        let n = self.alloc(key, acc, prio);
        let (a, b) = self.split(self.root, key, c);
        let m = self.merge(a, n, c);
        self.root = self.merge(m, b, c);
    }

    /// Smallest key; touches no accumulators.
    fn min_key(&self) -> Option<Key> {
        let mut i = self.root;
        if i == NIL {
            return None;
        }
        while self.nodes[i as usize].l != NIL {
            i = self.nodes[i as usize].l;
        }
        Some(self.nodes[i as usize].key)
    }

    /// Largest key; touches no accumulators.
    fn max_key(&self) -> Option<Key> {
        let mut i = self.root;
        if i == NIL {
            return None;
        }
        while self.nodes[i as usize].r != NIL {
            i = self.nodes[i as usize].r;
        }
        Some(self.nodes[i as usize].key)
    }

    /// Removes the minimum-key node: O(depth) combines on the way back up.
    /// The freed arena slot keeps its accumulator until recycled.
    fn pop_min(&mut self, c: &impl Fn(&A, &A) -> A) {
        let root = self.root;
        self.root = self.pop_min_rec(root, c);
    }

    fn pop_min_rec(&mut self, t: u32, c: &impl Fn(&A, &A) -> A) -> u32 {
        if t == NIL {
            return NIL;
        }
        let l = self.nodes[t as usize].l;
        if l == NIL {
            let r = self.nodes[t as usize].r;
            self.free.push(t);
            return r;
        }
        let nl = self.pop_min_rec(l, c);
        self.nodes[t as usize].l = nl;
        self.pull(t, c);
        t
    }

    /// Balanced build from key-ascending entries: O(n) combines. Priorities
    /// are tiered by depth (parents strictly above children) with random
    /// low bits, so the heap property holds by construction and later
    /// single-key insertions still rotate treap-style.
    fn build_sorted(
        &mut self,
        items: &mut [Option<(Key, A)>],
        depth: u32,
        c: &impl Fn(&A, &A) -> A,
    ) -> u32 {
        if items.is_empty() {
            return NIL;
        }
        let mid = items.len() / 2;
        let jitter = splitmix64(&mut self.rng) & ((1u64 << 56) - 1);
        let prio = (((63 - depth.min(62)) as u64) << 56) | jitter;
        let (l_items, rest) = items.split_at_mut(mid);
        let (mid_item, r_items) = rest.split_first_mut().expect("non-empty");
        let (key, acc) = mid_item.take().expect("unconsumed entry");
        let l = self.build_sorted(l_items, depth + 1, c);
        let r = self.build_sorted(r_items, depth + 1, c);
        let n = self.alloc(key, acc, prio);
        self.nodes[n as usize].l = l;
        self.nodes[n as usize].r = r;
        self.pull(n, c);
        n
    }

    /// Aggregate over the whole treap (the root's subtree fold).
    fn total(&self) -> Option<&A> {
        (self.root != NIL).then(|| &self.nodes[self.root as usize].agg)
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
    }
}

/// The set of ranges covering the flush sweep line, foldable in canonical
/// `(end, seq)`-ascending order in O(1): two-stacks back buffer plus
/// out-of-order treap. Invariant: every treap key precedes every back-stack
/// key, and back-stack keys are nondecreasing.
struct ActiveSet<A> {
    back: Vec<(Key, A)>,
    /// Running fold of `back` in push (= key) order.
    back_total: Option<A>,
    tree: Treap<A>,
}

impl<A: Clone> ActiveSet<A> {
    fn new() -> Self {
        ActiveSet {
            back: Vec::new(),
            back_total: None,
            tree: Treap::new(),
        }
    }

    fn len(&self) -> usize {
        self.back.len() + self.tree.len()
    }

    fn min_key(&self) -> Option<Key> {
        self.tree
            .min_key()
            .or_else(|| self.back.first().map(|(k, _)| *k))
    }

    fn insert(&mut self, key: Key, acc: A, c: &impl Fn(&A, &A) -> A) {
        match self.back.last() {
            Some((last, _)) if key < *last => {
                // Out-of-order arrival below the back stack: migrate the
                // back into the treap once, then place the key there.
                self.migrate(c);
                self.tree.insert(key, acc, c);
            }
            Some(_) => {
                let total = self.back_total.as_ref().expect("non-empty back");
                self.back_total = Some(c(total, &acc));
                self.back.push((key, acc));
            }
            None if self.tree.max_key().is_some_and(|m| key < m) => {
                self.tree.insert(key, acc, c);
            }
            None => {
                self.back_total = Some(acc.clone());
                self.back.push((key, acc));
            }
        }
    }

    /// Moves the whole back stack into the treap as its rightmost part
    /// (valid since every treap key precedes every back key): O(n)
    /// combines, and each entry migrates at most once in its lifetime.
    fn migrate(&mut self, c: &impl Fn(&A, &A) -> A) {
        if self.back.is_empty() {
            return;
        }
        let mut items: Vec<Option<(Key, A)>> = self.back.drain(..).map(Some).collect();
        self.back_total = None;
        let sub = self.tree.build_sorted(&mut items, 0, c);
        let root = self.tree.root;
        self.tree.root = self.tree.merge(root, sub, c);
    }

    /// Removes the minimum-key range.
    fn pop_min(&mut self, c: &impl Fn(&A, &A) -> A) {
        if self.tree.is_empty() {
            self.migrate(c);
        }
        self.tree.pop_min(c);
    }

    /// Canonical fold of every live accumulator in key-ascending order.
    fn total(&self, c: &impl Fn(&A, &A) -> A) -> Option<A> {
        match (self.tree.total(), &self.back_total) {
            (Some(t), Some(b)) => Some(c(t, b)),
            (Some(t), None) => Some(t.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        }
    }

    fn clear(&mut self) {
        self.back.clear();
        self.back_total = None;
        self.tree.clear();
    }
}

/// Tree-backed partial-aggregate state: the sub-linear drop-in for the
/// naive boundary table inside [`crate::aggregate::Partials`].
///
/// An insert costs O(log n) index maintenance (slot splits, coverage
/// merge, pending enqueue) and **zero** accumulator combines; the flush
/// sweep pays O(1) amortized combines per range on in-order (FIFO)
/// workloads and O(log w) worst-case, plus one combine per emitted slot.
///
/// Relies on the watermark contract (no element starts before a heartbeat
/// preceding it): slot starts are processed in globally nondecreasing
/// order, which is what lets activation gate purely on range starts.
pub(crate) struct TreePartials<A> {
    /// start → end: exactly the boundary structure the naive table keeps —
    /// maximal sub-intervals with a constant contributing set — but with
    /// no accumulators attached.
    slots: BTreeMap<Timestamp, Timestamp>,
    /// Coalesced union of all covered time, so gap discovery on insert is
    /// O(log n + gaps found) instead of a scan over covered slots.
    coverage: BTreeMap<Timestamp, Timestamp>,
    /// `(start, seq)` → `(end, accumulator)`: ranges awaiting activation
    /// by the flush sweep.
    pending: BTreeMap<Key, (Timestamp, A)>,
    active: ActiveSet<A>,
    seq: u64,
}

impl<A: Clone> TreePartials<A> {
    pub(crate) fn new() -> Self {
        TreePartials {
            slots: BTreeMap::new(),
            coverage: BTreeMap::new(),
            pending: BTreeMap::new(),
            active: ActiveSet::new(),
            seq: 0,
        }
    }

    /// Live partial count — identical to what the naive table would hold.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Total index/accumulator entries across all four components, for
    /// state-size estimation.
    pub(crate) fn size_units(&self) -> usize {
        self.slots.len() + self.coverage.len() + self.pending.len() + self.active.len()
    }

    /// Splits the slot containing `t` strictly inside (if any) so `t`
    /// becomes a boundary. No accumulators are touched.
    fn split_slot_at(&mut self, t: Timestamp) {
        if let Some((&start, &end)) = self.slots.range(..t).next_back() {
            if t < end {
                self.slots.insert(start, t);
                self.slots.insert(t, end);
            }
        }
    }

    /// Maximal uncovered sub-intervals of `[s, e)`.
    fn gaps_in(&self, s: Timestamp, e: Timestamp) -> Vec<(Timestamp, Timestamp)> {
        let mut gaps = Vec::new();
        let mut cursor = s;
        if let Some((_, &ce)) = self.coverage.range(..=s).next_back() {
            if ce > cursor {
                cursor = ce;
            }
        }
        for (&cs, &ce) in self.coverage.range((Excluded(s), Excluded(e))) {
            if cursor >= e {
                break;
            }
            if cs > cursor {
                gaps.push((cursor, cs));
            }
            if ce > cursor {
                cursor = ce;
            }
        }
        if cursor < e {
            gaps.push((cursor, e));
        }
        gaps
    }

    /// Adds `[s, e)` to the coalesced coverage, merging touching intervals.
    fn cover(&mut self, s: Timestamp, e: Timestamp) {
        let mut ns = s;
        let mut ne = e;
        if let Some((&cs, &ce)) = self.coverage.range(..=s).next_back() {
            if ce >= s {
                ns = cs;
            }
        }
        let absorbed: Vec<Timestamp> = self.coverage.range(ns..=e).map(|(&k, _)| k).collect();
        for k in absorbed {
            let ce = self.coverage.remove(&k).expect("interval exists");
            if ce > ne {
                ne = ce;
            }
        }
        self.coverage.insert(ns, ne);
    }

    /// Records one range `[s, e)` carrying a pre-built accumulator: splits
    /// boundary slots at `s` and `e`, opens slots over uncovered gaps, and
    /// enqueues the accumulator for activation by the flush sweep. No
    /// accumulator is combined here.
    pub(crate) fn insert_range(&mut self, iv: TimeInterval, acc: A) {
        let (s, e) = (iv.start(), iv.end());
        self.split_slot_at(s);
        self.split_slot_at(e);
        if s >= e {
            return;
        }
        for (gs, ge) in self.gaps_in(s, e) {
            self.slots.insert(gs, ge);
        }
        self.cover(s, e);
        self.pending.insert((s, self.seq), (e, acc));
        self.seq += 1;
    }

    /// Mirrors the naive table's boundary splits for a contribution-free
    /// insert (a run group that contained no element payloads).
    pub(crate) fn split_only(&mut self, iv: TimeInterval) {
        self.split_slot_at(iv.start());
        self.split_slot_at(iv.end());
    }

    /// Adopts one naive partial during Auto conversion: the partial's
    /// accumulated state becomes a range covering exactly its slot.
    pub(crate) fn adopt_slot(&mut self, start: Timestamp, end: Timestamp, acc: A) {
        self.slots.insert(start, end);
        self.cover(start, end);
        self.pending.insert((start, self.seq), (end, acc));
        self.seq += 1;
    }

    /// Advances the sweep line to slot start `a`: activates pending ranges
    /// starting at or before `a` (dropping ranges that already ended) and
    /// expires active ranges ending at or before `a`.
    fn sweep_to(&mut self, a: Timestamp, c: &impl Fn(&A, &A) -> A) {
        while let Some(entry) = self.pending.first_entry() {
            let (s, _) = *entry.key();
            if s > a {
                break;
            }
            let ((_, seq), (e, acc)) = entry.remove_entry();
            if e > a {
                self.active.insert((e, seq), acc, c);
            }
        }
        while self.active.min_key().is_some_and(|(e, _)| e <= a) {
            self.active.pop_min(c);
        }
    }

    /// Drops coverage wholly behind the watermark (future inserts start at
    /// or after it, so that history can never be gap-probed again).
    fn trim_coverage(&mut self, wm: Timestamp) {
        while let Some((&cs, &ce)) = self.coverage.first_key_value() {
            if ce <= wm {
                self.coverage.remove(&cs);
            } else if cs < wm {
                self.coverage.remove(&cs);
                self.coverage.insert(wm, ce);
                break;
            } else {
                break;
            }
        }
    }

    /// Finalizes and removes every slot ending at or before `wm` in start
    /// order, emitting the prefix-combined value of the ranges covering it.
    pub(crate) fn flush(
        &mut self,
        wm: Timestamp,
        c: &impl Fn(&A, &A) -> A,
        mut emit: impl FnMut(TimeInterval, &A),
    ) {
        self.split_slot_at(wm);
        while let Some((&a, &b)) = self.slots.first_key_value() {
            if b > wm {
                break;
            }
            self.slots.remove(&a);
            self.sweep_to(a, c);
            let total = self
                .active
                .total(c)
                .expect("finalized slot has a contributing range");
            emit(TimeInterval::new(a, b), &total);
        }
        // Ranges wholly behind the watermark can never contribute again.
        while self.active.min_key().is_some_and(|(e, _)| e <= wm) {
            self.active.pop_min(c);
        }
        self.trim_coverage(wm);
    }

    /// Finalizes everything (end of stream) in start order.
    pub(crate) fn flush_all(
        &mut self,
        c: &impl Fn(&A, &A) -> A,
        mut emit: impl FnMut(TimeInterval, &A),
    ) {
        while let Some((&a, &b)) = self.slots.first_key_value() {
            self.slots.remove(&a);
            self.sweep_to(a, c);
            let total = self.active.total(c).expect("slot has a contributing range");
            emit(TimeInterval::new(a, b), &total);
        }
        self.pending.clear();
        self.active.clear();
        self.coverage.clear();
    }

    /// Drops the oldest slots until at most `target` remain. The dropped
    /// spans simply produce no output; range state is kept, so surviving
    /// slots those ranges still cover finalize with full contributions.
    pub(crate) fn shed_oldest(&mut self, target: usize) -> usize {
        while self.slots.len() > target {
            self.slots.pop_first();
        }
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t)
    }

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::new(ts(s), ts(e))
    }

    const ADD: fn(&u64, &u64) -> u64 = |a, b| a + b;

    fn flushed(t: &mut TreePartials<u64>, wm: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        t.flush(ts(wm), &ADD, |iv, acc| {
            out.push((iv.start().ticks(), iv.end().ticks(), *acc));
        });
        out
    }

    #[test]
    fn overlapping_ranges_split_and_combine() {
        // [0,10) + [5,15): counts 1 on [0,5), 2 on [5,10), 1 on [10,15).
        let mut t = TreePartials::new();
        t.insert_range(iv(0, 10), 1u64);
        t.insert_range(iv(5, 15), 1u64);
        assert_eq!(t.len(), 3);
        assert_eq!(
            flushed(&mut t, 100),
            vec![(0, 5, 1), (5, 10, 2), (10, 15, 1)]
        );
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn watermark_straddling_slot_is_split() {
        let mut t = TreePartials::new();
        t.insert_range(iv(0, 10), 1u64);
        assert_eq!(flushed(&mut t, 4), vec![(0, 4, 1)]);
        assert_eq!(t.len(), 1);
        assert_eq!(flushed(&mut t, 100), vec![(4, 10, 1)]);
    }

    #[test]
    fn gaps_become_their_own_slots() {
        let mut t = TreePartials::new();
        t.insert_range(iv(0, 2), 7u64);
        t.insert_range(iv(5, 8), 9u64);
        // Covering insert tiles the hole [2,5) with one fresh slot.
        t.insert_range(iv(0, 8), 1u64);
        assert_eq!(flushed(&mut t, 100), vec![(0, 2, 8), (2, 5, 1), (5, 8, 10)]);
    }

    #[test]
    fn out_of_order_ends_take_the_treap_path() {
        // Decreasing ends force out-of-order activation keys.
        let mut t = TreePartials::new();
        t.insert_range(iv(0, 30), 1u64);
        t.insert_range(iv(1, 20), 1u64);
        t.insert_range(iv(2, 10), 1u64);
        let out = flushed(&mut t, 100);
        assert_eq!(
            out,
            vec![(0, 1, 1), (1, 2, 2), (2, 10, 3), (10, 20, 2), (20, 30, 1)]
        );
    }

    #[test]
    fn shed_drops_oldest_slots_only() {
        let mut t = TreePartials::new();
        for i in 0..10u64 {
            t.insert_range(iv(i * 10, i * 10 + 5), 1u64);
        }
        assert_eq!(t.shed_oldest(3), 3);
        assert_eq!(t.len(), 3);
        // Surviving slots still finalize with their contributions.
        let out = flushed(&mut t, 1_000);
        assert_eq!(out, vec![(70, 75, 1), (80, 85, 1), (90, 95, 1)]);
    }

    #[test]
    fn treap_handles_interleaved_inserts_and_pops() {
        let mut tr = Treap::new();
        let c = &ADD;
        for k in [5u64, 1, 9, 3, 7, 2, 8] {
            tr.insert((ts(k), k), k, c);
        }
        assert_eq!(tr.total().copied(), Some(5 + 1 + 9 + 3 + 7 + 2 + 8));
        assert_eq!(tr.min_key(), Some((ts(1), 1)));
        assert_eq!(tr.max_key(), Some((ts(9), 9)));
        tr.pop_min(c);
        tr.pop_min(c);
        assert_eq!(tr.total().copied(), Some(5 + 9 + 3 + 7 + 8));
        assert_eq!(tr.min_key(), Some((ts(3), 3)));
        tr.insert((ts(1), 100), 1, c);
        assert_eq!(tr.min_key(), Some((ts(1), 100)));
        assert_eq!(tr.total().copied(), Some(1 + 5 + 9 + 3 + 7 + 8));
    }

    #[test]
    fn active_set_migrates_on_out_of_order_insert() {
        let mut a = ActiveSet::new();
        let c = &ADD;
        a.insert((ts(10), 0), 1u64, c);
        a.insert((ts(20), 1), 2, c);
        a.insert((ts(30), 2), 3, c);
        assert_eq!(a.total(c), Some(6));
        // Below the back stack: forces migration into the treap.
        a.insert((ts(15), 3), 10, c);
        assert_eq!(a.total(c), Some(16));
        assert_eq!(a.min_key(), Some((ts(10), 0)));
        a.pop_min(c);
        assert_eq!(a.total(c), Some(15));
        assert_eq!(a.min_key(), Some((ts(15), 3)));
    }
}
