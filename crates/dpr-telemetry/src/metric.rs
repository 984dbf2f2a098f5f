//! The three metric primitives: counters, gauges, and log-linear histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Linear sub-buckets per power of two (and the values held exactly).
const SUB_BUCKETS: usize = 16;

/// Number of histogram buckets. Values below 16 have a bucket each; above
/// that, each power of two `[2^e, 2^(e+1))` for `e` in `4..=63` is split
/// into 16 equal sub-buckets, so a bucket is at most 1/16 of its values
/// wide and 976 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * 61;

/// A monotonically increasing count. Updates are relaxed `fetch_add`s.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, lags, outstanding ops).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram over `u64` samples.
///
/// Recording a value touches exactly one bucket counter plus the running
/// sum, count, and max — four relaxed atomic RMWs, no allocation. Quantiles
/// are bucket upper bounds, at most 1/16 above the true value, while
/// [`HistogramSnapshot::max`] is exact. The buckets take 7.6 KiB.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
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
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array element by element.
        // The const item is intentional: each use site gets a fresh atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample: the value itself below 16; above, one of
    /// 16 per power of two, picked by the four bits below the leading one.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros() as usize;
        let sub = (value >> (exp - 4)) as usize & (SUB_BUCKETS - 1);
        (exp - 3) * SUB_BUCKETS + sub
    }

    /// Inclusive upper bound of bucket `i` (the value quantiles report).
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let exp = index / SUB_BUCKETS + 3;
        let sub = (index % SUB_BUCKETS) as u64;
        let width = 1u64 << (exp - 4);
        (1u64 << exp) + sub * width + (width - 1)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds (the workspace's standard
    /// latency unit; see `docs/OBSERVABILITY.md`).
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Start a timer that records elapsed microseconds into this histogram
    /// when dropped (or stopped). Returns an inert guard — a single relaxed
    /// load and no clock read — while telemetry is disabled.
    #[must_use]
    pub fn start_timer(&'static self) -> Timer {
        Timer {
            histogram: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// Consistent-enough point-in-time copy for rendering and assertions.
    ///
    /// Individual loads are relaxed, so a snapshot taken during concurrent
    /// recording may be off by in-flight samples; totals are never torn.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`], in plain memory. A thread that
/// owns one can also record into it directly, without atomics (the
/// `figures` harness's client threads do, once per operation).
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Largest sample recorded (exact).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Record one sample, as [`Histogram::record`] does.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Fold `other`'s samples into this snapshot, as if one histogram had
    /// recorded both.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th sample. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The last occupied bucket's bound can overshoot the true
                // maximum; the exact max is tighter.
                return Histogram::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact maximum sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Guard returned by [`Histogram::start_timer`]; records on drop.
#[derive(Debug)]
pub struct Timer {
    histogram: &'static Histogram,
    start: Option<Instant>,
}

impl Timer {
    /// Record now and return the elapsed duration (`None` if telemetry was
    /// disabled when the timer started).
    pub fn stop(mut self) -> Option<std::time::Duration> {
        let elapsed = self.start.take().map(|s| s.elapsed());
        if let Some(d) = elapsed {
            self.histogram.record_micros(d);
        }
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_micros(start.elapsed());
        }
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
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn buckets_are_exact_below_16_and_a_sixteenth_of_a_power_of_two_above() {
        for v in 0..32u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_upper_bound(v as usize), v);
        }
        assert_eq!(Histogram::bucket_index(1023), 111);
        assert_eq!(Histogram::bucket_index(1024), 112);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(
            Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1),
            u64::MAX
        );
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
            // No bucket is wider than a sixteenth of its lowest value.
            let lo = if i == 0 {
                0
            } else {
                Histogram::bucket_upper_bound(i - 1) + 1
            };
            assert!(
                (hi - lo) as f64 <= lo as f64 / 16.0,
                "bucket {i}: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn quantiles_are_within_a_sixteenth_of_the_value() {
        let h = Histogram::new();
        for v in 1_000..=1_999u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let near = |got: u64, want: f64| (got as f64 - want).abs() <= want / 16.0;
        assert!(near(s.p50(), 1_500.0), "p50 {}", s.p50());
        assert!(near(s.p99(), 1_990.0), "p99 {}", s.p99());
        // 1,999's bucket [1,984, 2,047] reports the exact max instead.
        assert_eq!((s.count, s.max(), s.quantile(1.0)), (1_000, 1_999, 1_999));
        assert!((s.mean() - 1_499.5).abs() < 1e-9);
    }

    #[test]
    fn merged_snapshots_read_as_one_histogram_fed_both() {
        let mut merged = HistogramSnapshot::default();
        let (b, both) = (Histogram::new(), Histogram::new());
        for v in 1..=1_000u64 {
            merged.record(v * 1_000);
            both.record(v * 1_000);
        }
        for v in 1..=100u64 {
            b.record(v * 100_000);
            both.record(v * 100_000);
        }
        merged.merge(&b.snapshot());
        let both = both.snapshot();
        assert_eq!(merged.count, 1_100);
        assert_eq!((merged.sum, merged.max), (both.sum, both.max));
        assert_eq!(merged.buckets, both.buckets);
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn zero_only_histogram() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.buckets[0], 2);
    }
}
