//! Order statistics: medians, quartiles, and a log-linear histogram whose
//! quantiles interpolate inside the bucket.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method), so
/// `compare` and the acceptance check agree digit for digit. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (the spread the acceptance
/// check holds against each metric's bound).
pub fn iqr_share(values: &[f64]) -> f64 {
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

/// Sub-buckets per power of two: 1/128 ≈ 0.8 % relative resolution.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns (≈ 18 min) are resolved; larger ones saturate.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// Fixed-memory histogram of nanosecond samples. Recording is
/// allocation-free, so sinks and sources can sample every element inside a
/// timed phase; pooling phases is a bucket-wise add.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        if exp >= MAX_EXP {
            return BUCKETS - 1;
        }
        let shift = exp - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// Lower bound and width (in ns) of bucket `idx`.
    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx as f64, 1.0);
        }
        let shift = idx / SUB - 1;
        let lo = (SUB + idx % SUB) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0..=100) in ns, interpolated linearly inside
    /// the bucket that holds the rank; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, width) = Self::bounds(idx);
                let inside = (rank - before as f64) / c as f64;
                return lo + width * inside.clamp(0.0, 1.0);
            }
            before += c;
        }
        let (lo, width) = Self::bounds(BUCKETS - 1);
        lo + width
    }
}

/// The tail percentile a pool of `samples` supports: `wanted` when at least
/// ten samples lie beyond it, else the highest whole percentile that still
/// has ten beyond it (0 when the pool is smaller than ten).
pub fn supported_percentile(samples: u64, wanted: f64) -> f64 {
    if samples < 10 {
        return 0.0;
    }
    let highest = (100.0 * (1.0 - 10.0 / samples as f64)).floor();
    wanted.min(highest)
}

/// Least-squares slope of `y` over `x`; 0 for fewer than two points or a
/// degenerate `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let (mut num, mut den) = (0.0, 0.0);
    for (x, y) in points {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let spread = iqr_share(&v);
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.len(), 100);
        assert!((h.percentile(50.0) - 50.0).abs() <= 1.0);
        assert!((h.percentile(99.0) - 99.0).abs() <= 1.0);
    }

    #[test]
    fn histogram_percentiles_within_bucket_resolution() {
        let mut h = Histogram::new();
        let mut exact = Vec::new();
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1_000 + (x >> 33) % 5_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let want = exact[((p / 100.0) * exact.len() as f64) as usize - 1] as f64;
            let got = h.percentile(p);
            assert!(
                (got - want).abs() / want < 0.01,
                "p{p}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn histogram_merge_and_saturation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..10 {
            a.record(1_000);
            b.record(100_000_000);
        }
        a.merge(&b);
        assert_eq!(a.len(), 20);
        assert!((a.percentile(25.0) - 1_000.0).abs() < 10.0);
        // Values past the resolved range saturate into the top bucket.
        a.record(u64::MAX);
        assert!(a.percentile(100.0) > (1u64 << 40) as f64);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1_000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 98.0);
        assert_eq!(supported_percentile(120, 99.0), 91.0);
        assert_eq!(supported_percentile(120, 90.0), 90.0);
        assert_eq!(supported_percentile(5, 99.0), 0.0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 0.5 * i as f64)).collect();
        assert!((slope(&pts) - 0.5).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 1.0)]), 0.0);
    }
}
