//! Tier C: a dependency-free log2-bucketed histogram.
//!
//! [`Histogram`] records `u64` samples (the batch layer feeds it
//! per-document latencies in nanoseconds) into 64 power-of-two buckets:
//! bucket `b` covers `[2^b, 2^(b+1))`, with bucket 0 also absorbing zero.
//! Quantiles are answered at bucket resolution — the reported value is
//! the upper edge of the bucket holding the requested rank, clamped to
//! the observed maximum — which bounds the relative error at 2x, plenty
//! for latency reporting, and keeps the structure a flat array of
//! counters.
//!
//! Like [`RunStats`](crate::RunStats), merging is a bucket-wise
//! saturating add (`+`/`+=`), which is commutative and associative:
//! merging per-worker histograms yields the same result for any thread
//! count and any partition of the samples.

use crate::series::Value;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Number of buckets: one per possible `ilog2` of a `u64` sample.
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples with saturating,
/// order-independent merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket covering `value`: `floor(log2(value))`, with 0
/// and 1 both landing in bucket 0.
#[inline]
#[must_use]
fn bucket_of(value: u64) -> usize {
    ((u64::BITS - (value | 1).leading_zeros()) - 1) as usize
}

/// Inclusive upper edge of bucket `b`: `2^(b+1) - 1`.
#[inline]
#[must_use]
fn bucket_upper(b: usize) -> u64 {
    if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << b) - 1
    }
}

crate::series_rows! {
    /// The members of the histogram's JSON object: summary fields plus a
    /// sparse `buckets` array of `[log2_lower_bound, count]` pairs.
    impl Histogram {
        "count" get(|h| h.count);
        "sum" get(|h| h.sum);
        "mean" get(|h| h.mean());
        "max" get(|h| h.max);
        "p50" get(|h| h.p50());
        "p90" get(|h| h.p90());
        "p99" get(|h| h.p99());
        "buckets" calc(|h| {
            let filled = h.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
            let pairs: Vec<String> = filled.map(|(b, n)| format!("[{b},{n}]")).collect();
            Value::Json(format!("[{}]", pairs.join(",")))
        });
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Resets the histogram to empty without releasing its storage.
    /// The window ring (`crate::window`) cycles slots with
    /// record/clear; a cleared histogram must be indistinguishable from
    /// a fresh one so ring merges stay associative.
    pub fn clear(&mut self) {
        self.buckets = [0; BUCKETS];
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        // PANIC-OK: bucket_of returns < BUCKETS by construction
        self.buckets[bucket_of(value)] = self.buckets[bucket_of(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` (in `[0, 1]`), at bucket resolution:
    /// the upper edge of the bucket containing the sample of rank
    /// `ceil(q * count)`, clamped to the observed maximum. Returns 0
    /// when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) as a rank in [1, count].
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket resolution).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket resolution).
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket resolution).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The quantiles an exposition samples, each under its `quantile`
    /// label.
    #[must_use]
    pub fn quantiles(&self) -> [(&'static str, u64); 4] {
        [
            ("quantile=\"0.5\"", self.p50()),
            ("quantile=\"0.9\"", self.p90()),
            ("quantile=\"0.99\"", self.p99()),
            ("quantile=\"1.0\"", self.max),
        ]
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n {}  mean {}  p50 {}  p90 {}  p99 {}  max {}",
            self.count,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

impl AddAssign<&Histogram> for Histogram {
    fn add_assign(&mut self, rhs: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(rhs.count);
        self.sum = self.sum.saturating_add(rhs.sum);
        self.max = self.max.max(rhs.max);
    }
}

impl AddAssign for Histogram {
    fn add_assign(&mut self, rhs: Self) {
        *self += &rhs;
    }
}

impl Add for Histogram {
    type Output = Histogram;

    fn add(mut self, rhs: Self) -> Self {
        self += &rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn quantiles_are_bucket_upper_edges_clamped_to_max() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        // Rank 3 (p50) lands in bucket 4 ([16, 32)) whose upper edge is 31.
        assert_eq!(h.p50(), 31);
        // p99 -> rank 5 -> bucket 9 ([512, 1024)), clamped to max 1000.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.quantile(0.0), 15);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let samples: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        // Partition the identical samples three different ways; every
        // merged result must equal the single-histogram truth.
        for parts in [2usize, 3, 7] {
            let mut shards = vec![Histogram::new(); parts];
            for (i, &v) in samples.iter().enumerate() {
                shards[i % parts].record(v);
            }
            // Left fold.
            let mut left = Histogram::new();
            for s in &shards {
                left += s;
            }
            assert_eq!(left, whole, "left fold over {parts} shards");
            // Reverse fold.
            let mut right = Histogram::new();
            for s in shards.iter().rev() {
                right += s;
            }
            assert_eq!(right, whole, "reverse fold over {parts} shards");
        }
    }

    #[test]
    fn merge_saturates() {
        let mut a = Histogram::new();
        a.record(u64::MAX);
        let mut merged = Histogram::new();
        for _ in 0..3 {
            merged += &a;
        }
        assert_eq!(merged.sum(), u64::MAX);
        assert_eq!(merged.max(), u64::MAX);
        assert_eq!(merged.count(), 3);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_histogram_answers_every_quantile_with_it() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q={q}");
        }
        assert_eq!(h.mean(), 777);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn saturated_histogram_quantiles_stay_sane() {
        // Drive count/sum to saturation by repeated self-merge doubling;
        // quantiles must stay within the observed range, never panic or
        // wrap.
        let mut h = Histogram::new();
        h.record(100);
        h.record(u64::MAX);
        for _ in 0..64 {
            let snapshot = h.clone();
            h += &snapshot;
        }
        assert_eq!(h.count(), u64::MAX, "count saturates");
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.max(), u64::MAX);
        // Saturated bucket counts make cumulative rank scans resolve in
        // the first occupied bucket; the answer is still a value the
        // histogram observed, never garbage.
        assert_eq!(h.p50(), 127);
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.p99() >= h.p50());
    }

    #[test]
    fn clear_matches_fresh_histogram() {
        let mut h = Histogram::new();
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        h.clear();
        assert_eq!(h, Histogram::new());
        h.record(42);
        let mut fresh = Histogram::new();
        fresh.record(42);
        assert_eq!(h, fresh, "recording after clear matches a fresh histogram");
    }

    #[test]
    fn ring_style_add_clear_cycling_preserves_merge_associativity() {
        // Model the window ring: slots are cleared and refilled as ticks
        // advance, and a scrape merges the live slots in arbitrary
        // order. The merged result must equal a histogram fed the same
        // live samples directly, for any merge order.
        let samples: Vec<u64> = (0..300u64).map(|i| (i * 6151) % 50_000).collect();
        let mut slots = vec![Histogram::new(); 4];
        for (i, &v) in samples.iter().enumerate() {
            let slot = &mut slots[i % 4];
            // Every 8th landing clears the slot first (a stale tick being
            // recycled), dropping what it held.
            if i % 32 == i % 4 {
                slot.clear();
            }
            slot.record(v);
        }
        // Ground truth: replay the same clear/record schedule into flat
        // per-slot sample lists, then one histogram over the survivors.
        let mut live: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for (i, &v) in samples.iter().enumerate() {
            if i % 32 == i % 4 {
                live[i % 4].clear();
            }
            live[i % 4].push(v);
        }
        let mut whole = Histogram::new();
        for s in live.iter().flatten() {
            whole.record(*s);
        }
        let mut forward = Histogram::new();
        for s in &slots {
            forward += s;
        }
        let mut backward = Histogram::new();
        for s in slots.iter().rev() {
            backward += s;
        }
        assert_eq!(forward, whole, "forward merge of cycled slots");
        assert_eq!(backward, whole, "reverse merge of cycled slots");
    }

    #[test]
    fn json_has_summary_and_sparse_buckets() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        let json = h.to_json();
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("\"sum\":10"), "{json}");
        assert!(json.contains("\"buckets\":[[2,2]]"), "{json}");
    }
}
