//! Log-bucketed latency histograms.
//!
//! [`LogHistogram`] is the workspace's one histogram type (promoted here
//! from `bench::timing`, which re-exports it for compatibility): 64
//! power-of-two buckets over nanoseconds, so recording is one shift and
//! one increment and merging is element-wise addition. Quantiles are
//! nearest-rank over the buckets, reported at the matched bucket's
//! **midpoint** (clamped to the observed maximum) — the upper bound
//! overstated small samples by up to 2x at bucket boundaries.
//!
//! [`Histogram`] is the lock-free concurrent handle the registry hands
//! out: atomic buckets with relaxed ordering (monotonic counters;
//! snapshots need no cross-bucket consistency).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Index of the power-of-two bucket covering `ns`.
///
/// Bucket `i` spans `[2^i, 2^(i+1))`; zero joins bucket 0.
fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

/// Inclusive value range `[lower, upper]` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let lower = if i == 0 { 0 } else { 1u64 << i };
    let upper = if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (lower, upper)
}

/// Midpoint of bucket `i` — the nearest-rank quantile estimate for any
/// rank landing in that bucket.
fn bucket_midpoint(i: usize) -> u64 {
    let (lower, upper) = bucket_range(i);
    lower + (upper - lower) / 2
}

/// A log-bucketed histogram of nanosecond durations.
///
/// 64 power-of-two buckets, exact count / sum / max on the side. Cheap to
/// record into, cheap to merge, and good to ~2x relative error on
/// quantiles — plenty for latency reporting.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in nanoseconds (exact, not bucketed).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration in nanoseconds (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The bucket-wise difference `self − earlier`: the histogram of
    /// samples recorded between the two snapshots.
    ///
    /// Both snapshots must come from the same monotonic series (`earlier`
    /// taken first); bucket counts, `count`, and `sum_ns` subtract with
    /// saturation so a racy snapshot pair degrades to zeros instead of
    /// wrapping. `max_ns` is not subtractable — the delta keeps the later
    /// cumulative maximum, a documented upper bound on the interval's true
    /// maximum (quantiles clamp against it, never exceed it).
    pub fn diff(&self, earlier: &LogHistogram) -> LogHistogram {
        let mut d = LogHistogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            d.buckets[i] = a.saturating_sub(*b);
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        d.max_ns = self.max_ns;
        d
    }

    /// Count of samples recorded in buckets entirely at or below
    /// `threshold_ns` — a **conservative** good-sample count for latency
    /// SLOs: a bucket straddling the threshold contributes nothing, so
    /// the result never overstates attainment.
    pub fn count_under_ns(&self, threshold_ns: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_range(*i).1 <= threshold_ns)
            .map(|(_, &n)| n)
            .sum()
    }

    /// The nearest-rank `q`-quantile in nanoseconds, or `None` when empty.
    ///
    /// Returns the midpoint of the bucket holding the ranked sample,
    /// clamped to the exact observed maximum (a single-sample histogram
    /// therefore reports that sample's bucket midpoint, not the bucket's
    /// upper bound).
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_midpoint(i).min(self.max_ns));
            }
        }
        Some(self.max_ns)
    }
}

/// A histogram handle recording nanosecond durations; clones record into
/// the same cells.
///
/// All operations are relaxed atomics: buckets, count, sum, and max are
/// each individually monotonic, and a snapshot taken mid-record is merely
/// a histogram from a moment ago.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<Cells>,
}

/// [`LogHistogram`]'s fields as atomics.
#[derive(Debug)]
struct Cells {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let c = &self.cells;
        c.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum_ns.fetch_add(ns, Ordering::Relaxed);
        c.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.cells.sum_ns.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a plain [`LogHistogram`].
    pub fn snapshot(&self) -> LogHistogram {
        let c = &self.cells;
        let mut h = LogHistogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(&c.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = c.count.load(Ordering::Relaxed);
        h.sum_ns = c.sum_ns.load(Ordering::Relaxed);
        h.max_ns = c.max_ns.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_quantile_is_bucket_midpoint_not_upper_bound() {
        // Regression: 1000 ns lands in bucket 9 = [512, 1023]. The old
        // nearest-rank walk returned the bucket upper bound (1023 > the
        // sample); the midpoint 767 is the unbiased estimate.
        let mut h = LogHistogram::new();
        h.record(Duration::from_nanos(1000));
        assert_eq!(h.quantile_ns(0.5), Some(767));
        assert_eq!(h.quantile_ns(1.0), Some(767));
        assert_eq!(h.max_ns(), 1000);
    }

    #[test]
    fn midpoint_clamps_to_observed_max() {
        // 600 ns: bucket 9 midpoint is 767, above the sample — clamp.
        let mut h = LogHistogram::new();
        h.record(Duration::from_nanos(600));
        assert_eq!(h.quantile_ns(0.5), Some(600));
    }

    #[test]
    fn quantiles_over_uniform_microseconds() {
        let mut h = LogHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        // Rank 500 = 500 µs, bucket 18 = [262144, 524287]: midpoint.
        assert_eq!(h.quantile_ns(0.5), Some(393_215));
        // Rank 990 = 990 µs, bucket 19 = [524288, 1048575]: midpoint.
        assert_eq!(h.quantile_ns(0.99), Some(786_431));
        // p100 clamps at the exact maximum's bucket midpoint vs max.
        assert_eq!(h.quantile_ns(1.0), Some(786_431));
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.sum_ns(), (1..=1000u64).sum::<u64>() * 1000);
    }

    #[test]
    fn zero_latency_reports_zero() {
        let mut h = LogHistogram::new();
        h.record(Duration::from_nanos(0));
        assert_eq!(h.quantile_ns(0.5), Some(0));
    }

    #[test]
    fn empty_has_no_quantiles() {
        assert_eq!(LogHistogram::new().quantile_ns(0.5), None);
    }

    #[test]
    fn merge_combines_counts_sums_and_maxima() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for us in 1..=500u64 {
            a.record(Duration::from_micros(us));
        }
        for us in 501..=1000u64 {
            b.record(Duration::from_micros(us));
        }
        a.merge(&b);
        let mut whole = LogHistogram::new();
        for us in 1..=1000u64 {
            whole.record(Duration::from_micros(us));
        }
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum_ns(), whole.sum_ns());
        assert_eq!(a.max_ns(), whole.max_ns());
        assert_eq!(a.quantile_ns(0.5), whole.quantile_ns(0.5));
    }

    #[test]
    fn diff_recovers_the_interval_histogram() {
        let mut earlier = LogHistogram::new();
        for us in 1..=300u64 {
            earlier.record(Duration::from_micros(us));
        }
        let mut later = earlier.clone();
        for us in 301..=1000u64 {
            later.record(Duration::from_micros(us));
        }
        let delta = later.diff(&earlier);
        let mut expect = LogHistogram::new();
        for us in 301..=1000u64 {
            expect.record(Duration::from_micros(us));
        }
        assert_eq!(delta.count(), expect.count());
        assert_eq!(delta.sum_ns(), expect.sum_ns());
        assert_eq!(delta.quantile_ns(0.5), expect.quantile_ns(0.5));
        // max_ns is the later cumulative max — an upper bound, exact here.
        assert_eq!(delta.max_ns(), 1_000_000);
        // Identical snapshots diff to empty, never wrap.
        let zero = later.diff(&later);
        assert_eq!(zero.count(), 0);
        assert_eq!(zero.quantile_ns(0.5), None);
    }

    #[test]
    fn count_under_is_conservative_at_bucket_boundaries() {
        let mut h = LogHistogram::new();
        for ns in [100u64, 500, 1000, 4000, 100_000] {
            h.record_ns(ns);
        }
        // Threshold 1023 is exactly bucket 9's upper bound: buckets 0–9
        // qualify, covering 100, 500, and 1000.
        assert_eq!(h.count_under_ns(1023), 3);
        // Threshold 1024 sits inside bucket 10 = [1024, 2047], which may
        // hold samples above it — the straddling bucket is excluded.
        assert_eq!(h.count_under_ns(1024), 3);
        assert_eq!(h.count_under_ns(u64::MAX), 5);
        assert_eq!(h.count_under_ns(0), 0);
    }

    #[test]
    fn shared_histogram_snapshot_matches_serial_recording() {
        let shared = Histogram::new();
        let mut serial = LogHistogram::new();
        for ns in [0u64, 1, 767, 1000, 1 << 20, 1 << 63] {
            shared.record_ns(ns);
            serial.record_ns(ns);
        }
        let snap = shared.snapshot();
        assert_eq!(snap.count(), serial.count());
        assert_eq!(snap.max_ns(), serial.max_ns());
        assert_eq!(snap.sum_ns(), serial.sum_ns());
        assert_eq!(snap.quantile_ns(0.5), serial.quantile_ns(0.5));
    }
}
