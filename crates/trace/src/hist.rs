//! Log2-bucketed histograms with percentile readout.
//!
//! Buckets are powers of two: bucket `k` holds values whose bit length is
//! `k` (so bucket 0 is exactly the value 0, bucket 1 is 1, bucket 2 is
//! 2–3, bucket 3 is 4–7, ...). Recording is two instructions on the hot
//! path (`leading_zeros` + increment); readout reports nearest-rank
//! percentiles at bucket resolution, clamped to the exact observed max.

use std::cmp::Ordering;
use std::fmt;

/// Number of buckets: one per possible bit length of a `u64`, plus the
/// dedicated zero bucket.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { counts: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Bucket index for a value: its bit length (0 for 0).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket's value range.
    pub fn bucket_limit(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64.. => u64::MAX,
            k => (1u64 << k) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts, bucket 0 first.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Adds every bucket of `other` into `self` (saturating).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (`p` in `0.0..=1.0`) at bucket
    /// resolution: the upper bound of the bucket holding the rank,
    /// clamped to the exact observed maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Self::bucket_limit(k).min(self.max);
            }
        }
        self.max
    }

    /// The standard readout: count, p50/p90/p99, and exact max.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            max: self.max,
        }
    }

    /// Zeroes the histogram.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

/// Percentile readout of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket resolution).
    pub p50: u64,
    /// 90th percentile (bucket resolution).
    pub p90: u64,
    /// 99th percentile (bucket resolution).
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
}

/// Exact nearest-rank percentile over raw samples (`p` in `0.0..=1.0`):
/// the sample at rank `round((n - 1) * p)`, or the default (zero) when
/// there are none. This is the reference the bucketed
/// [`Histogram::percentile`] approximates; the experiment harness reads
/// every sampled median and quartile through it.
pub fn percentile<T: Copy + PartialOrd + Default>(samples: impl Iterator<Item = T>, p: f64) -> T {
    let mut v: Vec<T> = samples.collect();
    if v.is_empty() {
        return T::default();
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    v[(((v.len() - 1) as f64) * p.clamp(0.0, 1.0)).round() as usize]
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_limit(0), 0);
        assert_eq!(Histogram::bucket_limit(3), 7);
        assert_eq!(Histogram::bucket_limit(64), u64::MAX);
    }

    #[test]
    fn summary_of_uniform_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // Nearest-rank at bucket resolution: the true p50 is 500, which
        // lives in bucket 9 (256..=511).
        assert_eq!(s.p50, 511);
        assert_eq!(s.p99, 1000); // bucket limit 1023 clamped to max
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_clamps_to_max_and_handles_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        h.record(5);
        assert_eq!(h.percentile(0.0), 5);
        assert_eq!(h.percentile(1.0), 5);
    }

    #[test]
    fn merge_is_lossless_and_saturating() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0u64, 1, 7, 8, 1 << 40] {
            a.record(v);
            b.record(v * 2);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), a.count() + b.count());
        assert_eq!(m.max(), b.max());

        let mut near = Histogram { counts: [0; HIST_BUCKETS], count: 0, sum: u64::MAX - 1, max: 0 };
        near.record(100);
        assert_eq!(near.sum(), u64::MAX);
    }

    #[test]
    fn exact_percentile_is_nearest_rank() {
        let v = [1u64, 2, 3, 4].map(Duration::from_secs);
        assert_eq!(percentile(v.iter().copied(), 0.0), Duration::from_secs(1));
        assert_eq!(percentile(v.iter().copied(), 1.0), Duration::from_secs(4));
        assert_eq!(percentile(v.iter().copied(), 0.5), Duration::from_secs(3));
        assert_eq!(percentile(std::iter::empty::<Duration>(), 0.5), Duration::ZERO);
        let ratios = [1.5, 0.5, 1.0];
        assert_eq!(percentile(ratios.iter().copied(), 0.5), 1.0);
        assert_eq!(percentile(std::iter::empty::<f64>(), 0.5), 0.0);
    }
}
