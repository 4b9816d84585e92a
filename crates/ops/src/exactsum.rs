//! Exact floating-point summation: the one summation rule behind every sum
//! and average in the toolkit ([`crate::aggregate::SumAgg`],
//! [`crate::aggregate::AvgAgg`] and the CQL `SUM`/`AVG`).
//!
//! A plain `f64` running sum rounds after every addition, so its result
//! depends on the order the addends arrive in. The partial-aggregate tree
//! folds accumulators in `(end, seq)` order, a run-native burst pre-folds a
//! whole same-interval group, and the per-message path adds one payload at
//! a time — three different orders over the same multiset. [`ExactSum`]
//! makes the order irrelevant: it keeps the sum *exactly* and rounds once,
//! when the value is read.

/// Partials held inline. Sums of addends within a few binary orders of
/// magnitude of each other need two or three; more (or an intermediate
/// overflow) moves the sum to the fixed-point form.
const INLINE: usize = 4;

/// An addend was `+inf`.
const POS_INF: u8 = 1;
/// An addend was `-inf`.
const NEG_INF: u8 = 2;
/// An addend was NaN.
const NAN: u8 = 4;
/// An addend was `-0.0`.
const NEG_ZERO: u8 = 8;
/// An addend was something other than `-0.0`.
const NOT_NEG_ZERO: u8 = 16;

/// An exact sum of `f64`s, rounded correctly once, at [`value`](Self::value).
///
/// Finite addends are kept as Shewchuk's non-overlapping partials — the
/// algorithm of Python's `math.fsum` — whose exact sum is the exact sum of
/// every addend so far; [`value`](Self::value) rounds that exact sum to the
/// nearest `f64` (ties to even). Up to four partials live inline, so the
/// common case never allocates; beyond that, or when a partial sum would
/// overflow, the sum moves to a boxed fixed-point accumulator that is
/// exact over the whole `f64` range.
///
/// The result therefore depends only on the **multiset** of addends, never
/// on the order of [`add`](Self::add) and [`merge`](Self::merge) calls —
/// which is what lets the naive partial table, the partial-aggregate tree
/// and every batching of the input agree bit for bit. Non-finite addends
/// are tracked apart, so they are order-independent too: any NaN, or both
/// infinities, give NaN (always the canonical `f64::NAN`); otherwise an
/// infinity wins. An exactly-zero sum is `-0.0` only if every addend was
/// `-0.0`, as IEEE addition has it; the empty sum is `0.0`.
///
/// ```
/// use pipes_ops::aggregate::ExactSum;
///
/// let mut s = ExactSum::new();
/// for x in [1e100, 1.0, -1e100] {
///     s.add(x);
/// }
/// assert_eq!(s.value(), 1.0); // a plain left fold gives 0.0
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExactSum {
    /// Non-overlapping, increasing in magnitude, all nonzero; unused
    /// while `wide` holds the sum.
    parts: [f64; INLINE],
    len: u8,
    /// `POS_INF | NEG_INF | NAN | NEG_ZERO | NOT_NEG_ZERO` of every addend.
    flags: u8,
    /// The fixed-point form; when present it holds every finite addend.
    wide: Option<Box<Wide>>,
}

impl ExactSum {
    /// The empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sum of the single addend `x`.
    pub fn of(x: f64) -> Self {
        let mut s = Self::new();
        s.add(x);
        s
    }

    /// Adds `x` exactly.
    pub fn add(&mut self, x: f64) {
        self.flags |= if x == 0.0 && x.is_sign_negative() {
            NEG_ZERO
        } else {
            NOT_NEG_ZERO
        };
        if x.is_finite() {
            self.add_finite(x);
        } else {
            self.flags |= if x.is_nan() {
                NAN
            } else if x > 0.0 {
                POS_INF
            } else {
                NEG_INF
            };
        }
    }

    /// Adds every addend of `other` exactly: afterwards `self` is the sum
    /// of both multisets.
    pub fn merge(&mut self, other: &ExactSum) {
        self.flags |= other.flags;
        match &other.wide {
            Some(w) => self.widen().merge(w),
            None => {
                for &p in &other.parts[..other.len as usize] {
                    self.add_finite(p);
                }
            }
        }
    }

    /// The exact sum, rounded to the nearest `f64` (ties to even).
    pub fn value(&self) -> f64 {
        let f = self.flags;
        if f & NAN != 0 || f & (POS_INF | NEG_INF) == POS_INF | NEG_INF {
            return f64::NAN;
        }
        if f & POS_INF != 0 {
            return f64::INFINITY;
        }
        if f & NEG_INF != 0 {
            return f64::NEG_INFINITY;
        }
        let parts = &self.parts[..self.len as usize];
        let sum = match &self.wide {
            Some(w) => w.round(),
            None => round_partials(parts).unwrap_or_else(|| Wide::of_all(parts).round()),
        };
        if sum != 0.0 {
            sum
        } else if f & (NEG_ZERO | NOT_NEG_ZERO) == NEG_ZERO {
            -0.0
        } else {
            0.0
        }
    }

    /// Shewchuk's "grow-expansion" step (`msum` in `math.fsum`): folds `x`
    /// through the partials with error-free additions, keeping every
    /// nonzero rounding error as a partial.
    fn add_finite(&mut self, mut x: f64) {
        if let Some(w) = &mut self.wide {
            w.add(x);
            return;
        }
        if x == 0.0 {
            return;
        }
        let n = self.len as usize;
        let mut i = 0;
        for j in 0..n {
            let y = self.parts[j];
            let (a, b) = if x.abs() < y.abs() { (y, x) } else { (x, y) };
            let hi = a + b;
            if hi.is_infinite() {
                // The exact sum is still parts[..i] + x + parts[j..n].
                let mut w = Wide::of_all(&self.parts[..i]);
                w.add(x);
                for &p in &self.parts[j..n] {
                    w.add(p);
                }
                self.spill(w);
                return;
            }
            let lo = b - (hi - a);
            if lo != 0.0 {
                self.parts[i] = lo;
                i += 1;
            }
            x = hi;
        }
        if x != 0.0 {
            if i == INLINE {
                let mut w = Wide::of_all(&self.parts);
                w.add(x);
                self.spill(w);
                return;
            }
            self.parts[i] = x;
            i += 1;
        }
        self.len = i as u8;
    }

    fn spill(&mut self, w: Wide) {
        self.len = 0;
        self.wide = Some(Box::new(w));
    }

    /// The fixed-point form, converting the partials into it first.
    fn widen(&mut self) -> &mut Wide {
        if self.wide.is_none() {
            let w = Wide::of_all(&self.parts[..self.len as usize]);
            self.spill(w);
        }
        self.wide.as_mut().expect("just widened")
    }
}

/// Correctly rounded sum of non-overlapping partials (increasing
/// magnitude), `math.fsum`'s final step including its half-even fix-up
/// across partials. `None` if the rounding overflows; the caller then
/// rounds through [`Wide`], which decides ±inf against MAX exactly.
fn round_partials(p: &[f64]) -> Option<f64> {
    let Some(&top) = p.last() else {
        return Some(0.0);
    };
    let mut n = p.len() - 1;
    let mut hi = top;
    let mut lo = 0.0;
    while n > 0 {
        n -= 1;
        let x = hi;
        let y = p[n];
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if !hi.is_finite() {
        return None;
    }
    // `lo` is a half-way residue pointing the same way as the next partial
    // down: the true sum lies beyond the tie, so round away from `hi`.
    if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if !x.is_finite() {
            return None;
        }
        if x - hi == y {
            hi = x;
        }
    }
    Some(hi)
}

/// 64-bit limbs of the fixed-point form. Every finite `f64` is an integer
/// multiple of 2^-1074 below 2^1024, i.e. below 2^2098 in those units;
/// 34 limbs (2 176 bits, two's complement) leave headroom for 2^77
/// addends.
const LIMBS: usize = 34;
const FRAC_BITS: u64 = (1 << 52) - 1;

/// An exact fixed-point sum in units of 2^-1074, two's complement, least
/// significant limb first.
#[derive(Clone, Debug)]
struct Wide([u64; LIMBS]);

impl Wide {
    fn zero() -> Self {
        Wide([0; LIMBS])
    }

    /// The exact sum of `xs` (all finite).
    fn of_all(xs: &[f64]) -> Self {
        let mut w = Wide::zero();
        for &x in xs {
            w.add(x);
        }
        w
    }

    /// Adds the finite `x` exactly.
    fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp = (bits >> 52) & 0x7ff;
        // x = mant × 2^shift units (normal: mant × 2^(exp - 1075) =
        // mant × 2^(exp - 1) × 2^-1074; subnormal: frac × 2^-1074).
        let (mant, shift) = match exp {
            0 => (bits & FRAC_BITS, 0),
            _ => ((bits & FRAC_BITS) | 1 << 52, exp as usize - 1),
        };
        let mut v = Wide::zero();
        let (limb, off) = (shift / 64, shift % 64);
        v.0[limb] = mant << off;
        if off != 0 {
            v.0[limb + 1] = mant >> (64 - off);
        }
        if bits >> 63 == 1 {
            v.negate();
        }
        self.merge(&v);
    }

    fn merge(&mut self, other: &Wide) {
        let mut carry = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (s, c1) = a.overflowing_add(b);
            let (s, c2) = s.overflowing_add(carry as u64);
            *a = s;
            carry = c1 | c2;
        }
    }

    fn negate(&mut self) {
        let mut carry = true;
        for limb in &mut self.0 {
            let (s, c) = (!*limb).overflowing_add(carry as u64);
            *limb = s;
            carry = c;
        }
    }

    fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Whether any bit below position `i` is set.
    fn any_below(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.0[..limb].iter().any(|&l| l != 0) || self.0[limb] & ((1u64 << off) - 1) != 0
    }

    /// The 53 bits starting at position `lo`.
    fn mantissa_at(&self, lo: usize) -> u64 {
        let (limb, off) = (lo / 64, lo % 64);
        let mut v = self.0[limb] >> off;
        if off != 0 && limb + 1 < LIMBS {
            v |= self.0[limb + 1] << (64 - off);
        }
        v & ((1 << 53) - 1)
    }

    /// Rounds to the nearest `f64`, ties to even; ±inf past the range.
    fn round(&self) -> f64 {
        let negative = self.0[LIMBS - 1] >> 63 == 1;
        let mut mag = self.clone();
        if negative {
            mag.negate();
        }
        let Some(top) = mag
            .0
            .iter()
            .rposition(|&l| l != 0)
            .map(|i| i * 64 + 63 - mag.0[i].leading_zeros() as usize)
        else {
            return 0.0;
        };
        let v = if top < 53 {
            // Below 2^53 units: exactly representable (subnormal or the
            // first normal binade), and the product is exact.
            mag.0[0] as f64 * f64::from_bits(1)
        } else {
            let mut mant = mag.mantissa_at(top - 52);
            let mut top = top;
            if mag.bit(top - 53) && (mant & 1 == 1 || mag.any_below(top - 53)) {
                mant += 1;
                if mant == 1 << 53 {
                    mant >>= 1;
                    top += 1;
                }
            }
            // value = 1.f × 2^(top - 1074): biased exponent top - 51.
            let biased = (top - 51) as u64;
            if biased >= 0x7ff {
                f64::INFINITY
            } else {
                f64::from_bits(biased << 52 | (mant & FRAC_BITS))
            }
        };
        if negative {
            -v
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(xs: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// Heap's algorithm: calls `f` on every permutation of `xs`.
    fn permutations(xs: &mut [f64], k: usize, f: &mut impl FnMut(&[f64])) {
        if k <= 1 {
            f(xs);
            return;
        }
        for i in 0..k {
            permutations(xs, k - 1, f);
            let j = if k.is_multiple_of(2) { i } else { 0 };
            xs.swap(j, k - 1);
        }
    }

    #[test]
    fn cancellation_and_decimal_fractions_are_exact() {
        assert!(same(sum(&[1e100, 1.0, -1e100]), 1.0));
        assert!(same(sum(&[0.1; 10]), 1.0));
        // Python's `fsum([1e-16, 1, 1e16])`: the half-even fix-up across
        // partials rounds up.
        assert!(same(sum(&[1e-16, 1.0, 1e16]), 1.0000000000000002e16));
        assert!(same(sum(&[]), 0.0));
    }

    #[test]
    fn specials_are_order_independent() {
        assert!(same(sum(&[f64::INFINITY, 1.0]), f64::INFINITY));
        assert!(same(sum(&[1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY));
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[f64::NAN, 1.0]).is_nan());
        assert!(same(sum(&[-f64::NAN]), f64::NAN), "NaN is canonical");
        assert!(same(sum(&[-0.0, -0.0]), -0.0));
        assert!(same(sum(&[-0.0, 0.0]), 0.0));
        assert!(same(sum(&[1.0, -1.0, -0.0]), 0.0));
    }

    #[test]
    fn every_permutation_gives_the_same_bits() {
        let sets: [&[f64]; 6] = [
            &[0.1, 0.2, 0.3, -0.6, 1e-17],
            &[1e16, 1.0, -1e16, 3.0, 0.5],
            &[1e308, 1e308, -1e308, 1.0],
            &[5e-324, -5e-324, 1e-310, 2.2e-308, 0.0],
            &[-0.0, 57.3, 61.9, 48.125, 70.01],
            &[f64::MAX, f64::MAX / 2.0, -f64::MAX, f64::MIN_POSITIVE],
        ];
        for set in sets {
            let want = sum(set);
            let mut xs = set.to_vec();
            let k = xs.len();
            permutations(&mut xs, k, &mut |p| {
                assert!(same(sum(p), want), "{p:?}: {} vs {want}", sum(p));
                // Split into two halves and merge, both ways round.
                for cut in 0..=p.len() {
                    let (mut a, mut b) = (ExactSum::new(), ExactSum::new());
                    p[..cut].iter().for_each(|&x| a.add(x));
                    p[cut..].iter().for_each(|&x| b.add(x));
                    let mut ab = a.clone();
                    ab.merge(&b);
                    b.merge(&a);
                    assert!(
                        same(ab.value(), want) && same(b.value(), want),
                        "{p:?} at {cut}"
                    );
                }
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Against an independent reference: addends `m × 2^e` with
        /// `|m| < 2^53` and `e` in -82..=-22 are integers in units of
        /// 2^-82 below 2^84, so their exact sum fits an `i128`, and `i128 as
        /// f64` rounds to nearest, ties to even — the rounding `value` owes.
        #[test]
        fn matches_an_exact_integer_reference(
            terms in proptest::collection::vec(
                (-(1i64 << 53) + 1..1i64 << 53, 0u32..=60),
                0..40,
            ),
            cut in 0usize..40,
        ) {
            let unit = 2f64.powi(-82);
            let xs: Vec<f64> = terms
                .iter()
                .map(|&(m, e)| m as f64 * 2f64.powi(e as i32) * unit)
                .collect();
            let exact: i128 = terms.iter().map(|&(m, e)| (m as i128) << e).sum();
            let want = exact as f64 * unit;
            let got = sum(&xs);
            proptest::prop_assert!(same(got, want), "{xs:?}: {got} vs {want}");
            // The same multiset split in two and merged, reversed.
            let cut = cut.min(xs.len());
            let (mut a, mut b) = (ExactSum::new(), ExactSum::new());
            xs[..cut].iter().rev().for_each(|&x| a.add(x));
            xs[cut..].iter().rev().for_each(|&x| b.add(x));
            b.merge(&a);
            proptest::prop_assert!(same(b.value(), got));
        }

        /// The two forms round alike across the whole exponent range: up to
        /// four addends stay in inline partials (`fsum`'s rounding), the
        /// fixed-point form rounds by bit extraction.
        #[test]
        fn inline_and_fixed_point_forms_round_alike(
            terms in proptest::collection::vec(
                (-(1i64 << 53) + 1..1i64 << 53, -1074i32..=971),
                1..5,
            ),
        ) {
            let xs: Vec<f64> = terms
                .iter()
                .map(|&(m, e)| m as f64 * 2f64.powi(e.max(-1022)) * 2f64.powi(e.min(-1022) + 1022))
                .filter(|x| x.is_finite())
                .collect();
            let mut s = ExactSum::new();
            xs.iter().for_each(|&x| s.add(x));
            let wide = Wide::of_all(&xs).round();
            proptest::prop_assert!(same(s.value(), wide), "{xs:?}: {} vs {wide}", s.value());
        }
    }

    #[test]
    fn intermediate_overflow_stays_exact() {
        assert!(same(sum(&[1e308, 1e308, -1e308]), 1e308));
        assert!(same(sum(&[1e308, -1e308, 1e308]), 1e308));
        assert!(same(sum(&[f64::MAX, f64::MAX]), f64::INFINITY));
        assert!(same(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY));
        // MAX plus half an ulp is a tie that rounds to even: past the range.
        let half_ulp = 2f64.powi(970);
        assert!(same(sum(&[f64::MAX, half_ulp]), f64::INFINITY));
        assert!(same(sum(&[f64::MAX, half_ulp, -1.0]), f64::MAX));
    }

    #[test]
    fn spilled_sums_round_like_inline_ones() {
        // Widely spread magnitudes need more partials than fit inline.
        let xs = [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300, 3.0];
        let mut s = ExactSum::new();
        for &x in &xs {
            s.add(x);
        }
        assert!(s.wide.is_some(), "eight spread addends spill");
        assert!(same(s.value(), 1e300));
        // The fixed-point form rounds exactly like the partials do.
        for set in [&[0.1; 10][..], &[1e16, 1.0, 1.0], &[1e-16, 1.0, 1e16]] {
            let w = Wide::of_all(set).round();
            assert!(same(w, sum(set)), "{set:?}: {w} vs {}", sum(set));
        }
        assert!(same(Wide::of_all(&[5e-324]).round(), 5e-324));
        assert!(same(Wide::of_all(&[-2.5, 1.0]).round(), -1.5));
        // Integers: the exact sum is the integer sum.
        let ints: Vec<f64> = (0..1000).map(|i| (i * 7919 % 1013) as f64).collect();
        let want: i64 = (0..1000).map(|i| i * 7919 % 1013).sum();
        assert!(same(sum(&ints), want as f64));
    }
}
