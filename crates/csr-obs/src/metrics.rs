//! The zero-dependency metrics primitives: [`Counter`], [`Gauge`], a
//! lock-free log-bucketed [`Histogram`], and the one-in-N [`Sampler`] that
//! decides which operations a latency histogram times.
//!
//! All four are plain atomics: recording is wait-free, never allocates,
//! and is safe from any number of threads. Snapshots are taken with
//! relaxed loads — each number is exact, but numbers loaded at different
//! instants may be skewed against each other by in-flight operations
//! (the same caveat `csr-cache` documents for its counters).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One-in-`every` sampling on a relaxed atomic ticker: the first call and
/// every `every`-th after it are sampled. Deciding costs one `fetch_add`;
/// an unsampled call reads no clock.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    ticker: AtomicU64,
}

impl Sampler {
    /// The interval the workspace's latency histograms sample at: one
    /// operation in 64.
    pub const DEFAULT_EVERY: u64 = 64;

    /// Samples one call in `every`.
    ///
    /// # Panics
    ///
    /// If `every` is 0.
    #[must_use]
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "sample interval must be positive");
        Sampler {
            every,
            ticker: AtomicU64::new(0),
        }
    }

    /// The start instant of a sampled call; `None` (and no clock read)
    /// for the others.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.ticker
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
            .then(Instant::now)
    }
}

/// Sub-buckets per power of two: 2^3 = 8, bounding the relative error of
/// any reported quantile by 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Octave 0 holds the exact values `0..SUB`; octaves `1..=61` cover the
/// rest of the `u64` range with `SUB` buckets each.
pub(crate) const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

/// The bucket index of `v` (log-bucketed with linear sub-buckets).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let octave = msb - u64::from(SUB_BITS) + 1;
        let sub = (v >> (msb - u64::from(SUB_BITS))) - SUB;
        (octave * SUB + sub) as usize
    }
}

/// The smallest value mapping to bucket `idx`.
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let octave = idx / SUB;
        let sub = idx % SUB;
        (SUB + sub) << (octave - 1)
    }
}

/// The largest value mapping to bucket `idx` (inclusive upper bound). The
/// top bucket's bound is `u64::MAX` — its nominal exclusive bound, 2^64,
/// does not fit in a `u64`.
#[inline]
fn bucket_upper_incl(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let octave = idx / SUB;
        let sub = idx % SUB;
        let base = SUB + sub + 1;
        let shift = (octave - 1) as u32;
        if shift > base.leading_zeros() {
            u64::MAX
        } else {
            (base << shift) - 1
        }
    }
}

/// A lock-free histogram over `u64` values with logarithmic buckets.
///
/// Values are binned into 8 linear sub-buckets per power of two, so any
/// reported quantile is within 12.5% of the true order statistic while the
/// whole `u64` range fits in a fixed 496-bucket table. Recording is a
/// relaxed `fetch_add` (plus a `fetch_max` for the running maximum);
/// histograms from different shards/threads merge by bucket-wise addition.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Clears every bucket, the count, the sum and the maximum back to
    /// zero — for interval-based reporting, where each reporting period
    /// starts from an empty histogram instead of accumulating forever.
    ///
    /// Concurrent [`record`](Self::record)s may land on either side of a
    /// reset (an observation's bucket increment and its count increment
    /// can even straddle it); an interval report racing live traffic is
    /// off by at most the handful of in-flight operations, the same
    /// caveat every snapshot in this crate carries.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into `self` (bucket-wise).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], with quantile accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the midpoint of the bucket
    /// holding the `ceil(q * count)`-th smallest observation, clamped to
    /// the recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lower(idx);
                let mid = lo + (bucket_upper_incl(idx) - lo) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Accumulates `other` into `self` (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// ascending order — the form Prometheus-style exporters consume.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_upper_incl(idx), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value maps into a bucket whose [lower, upper) contains it,
        // and bucket boundaries tile the u64 range without gaps.
        for v in (0..2048u64).chain([1 << 20, (1 << 20) + 7, u64::MAX / 3, u64::MAX - 1, u64::MAX])
        {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(bucket_lower(idx) <= v, "lower({idx}) > {v}");
            assert!(v <= bucket_upper_incl(idx), "upper({idx}) < {v}");
        }
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper_incl(idx) + 1,
                bucket_lower(idx + 1),
                "gap between buckets {idx} and {}",
                idx + 1
            );
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_incl(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_sum_max() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1106);
        assert_eq!(s.max(), 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Octave 0 is value-exact: the 4th smallest of 0..=7 is 3.
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.max(), 7);
    }

    #[test]
    fn quantiles_clamp_to_max() {
        let h = Histogram::new();
        h.record(1000);
        let s = h.snapshot();
        // A single observation: every quantile reports the same bucket
        // midpoint, within the 12.5% bound and never above the max.
        assert_eq!(s.p50(), s.p99());
        assert!(s.p50() <= s.max());
        assert!(s.p50().abs_diff(1000) <= 1000 / 8, "p50 = {}", s.p50());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count(), s.sum(), s.max(), s.p50()), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
        assert!(s.nonzero_buckets().is_empty());
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn reset_returns_to_the_empty_state() {
        let h = Histogram::new();
        for v in [3u64, 77, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
        // The histogram stays usable after a reset.
        h.record(9);
        let s = h.snapshot();
        assert_eq!((s.count(), s.sum(), s.max()), (1, 9, 9));
    }

    #[test]
    fn merge_from_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * 37);
            combined.record(v * 37);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
        let mut sa = Histogram::new().snapshot();
        sa.merge(&combined.snapshot());
        assert_eq!(sa, combined.snapshot());
    }
}
