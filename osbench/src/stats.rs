//! Order statistics under the sample-count rule: a percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie above it, and always
//! together with the number of samples it was taken from.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Samples strictly above the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: u64, p: f64) -> u64 {
    n.saturating_sub(rank(n, p))
}

/// Whether `n` samples support reporting the `p`-quantile.
pub fn supported(n: u64, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Fewest samples that support the `p`-quantile.
pub fn min_samples(p: f64) -> u64 {
    (1..)
        .find(|&n| supported(n, p))
        .expect("some n supports p < 1")
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: u64, p: f64) -> u64 {
    ((p * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// A percentile as reported: its value and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: u64,
}

/// Median of a small set of measurements (the middle element, or the
/// mean of the two middle ones). Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `p`-quantile of exact samples, or `None` when the rule
/// does not allow it.
pub fn percentile(xs: &[f64], p: f64) -> Option<Pct> {
    let n = xs.len() as u64;
    if !supported(n, p) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Pct {
        value: v[rank(n, p) as usize - 1],
        n,
    })
}

/// Nanosecond latency histogram: exact below [`LINEAR`] ns, then 128
/// buckets per octave (under 1% relative width). Quantiles interpolate
/// inside the bucket holding the rank, so they keep sub-bucket digits.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

const LINEAR: u64 = 2048;
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const LINEAR_BITS: u32 = 11;
const BUCKETS: usize = LINEAR as usize + (64 - LINEAR_BITS as usize) * SUB as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let oct = (top - LINEAR_BITS) as u64;
    (LINEAR + oct * SUB + ((v >> (top - SUB_BITS)) & (SUB - 1))) as usize
}

/// `[lo, hi)` of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    let i = idx as u64;
    if i < LINEAR {
        return (i as f64, i as f64 + 1.0);
    }
    let oct = (i - LINEAR) / SUB;
    let sub = (i - LINEAR) % SUB;
    let shift = oct + u64::from(LINEAR_BITS - SUB_BITS);
    let lo = ((SUB + sub) as f64) * (shift as f64).exp2();
    (lo, lo + (shift as f64).exp2())
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

impl LatHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// The `p`-quantile, or `None` when the rule does not allow it.
    pub fn percentile(&self, p: f64) -> Option<Pct> {
        if !supported(self.n, p) {
            return None;
        }
        let r = rank(self.n, p);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && cum + c >= r {
                let (lo, hi) = bucket_range(idx);
                let frac = ((r - cum) as f64 - 0.5) / c as f64;
                return Some(Pct {
                    value: lo + frac * (hi - lo),
                    n: self.n,
                });
            }
            cum += c;
        }
        unreachable!("rank {r} within {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        // p99 needs ten samples above rank ceil(0.99 n): n = 1000 is the
        // first count that has them.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!supported(999, 0.99));
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.5), 20);
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn exact_percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p = percentile(&xs, 0.95).expect("200 samples support p95");
        assert_eq!(
            p,
            Pct {
                value: 190.0,
                n: 200
            }
        );
        assert_eq!(percentile(&xs, 0.5).map(|p| p.value), Some(100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_buckets_are_contiguous() {
        for idx in 0..BUCKETS - 1 {
            let (lo, hi) = bucket_range(idx);
            assert_eq!(hi, bucket_range(idx + 1).0, "gap after bucket {idx}");
            assert_eq!(bucket_index(lo as u64), idx);
            assert_eq!(bucket_index(hi as u64 - 1), idx);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentile_tracks_exact_within_a_bucket() {
        let mut h = LatHist::default();
        let xs: Vec<f64> = (0..5000u64).map(|i| (i * 37 % 9000 + 100) as f64).collect();
        for &x in &xs {
            h.record(x as u64);
        }
        assert_eq!(h.percentile(0.999), None);
        for p in [0.5, 0.9, 0.99] {
            let exact = percentile(&xs, p).expect("supported").value;
            let est = h.percentile(p).expect("supported");
            assert_eq!(est.n, 5000);
            assert!(
                (est.value - exact).abs() <= exact * 0.01 + 1.0,
                "p{p}: {} vs {exact}",
                est.value
            );
        }
    }
}
