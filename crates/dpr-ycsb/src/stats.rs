//! Time-bucketed throughput.

use std::time::Duration;

/// Time-bucketed throughput counters (Fig. 16's 250 ms buckets).
#[derive(Debug, Clone)]
pub struct ThroughputSeries {
    bucket: Duration,
    counts: Vec<u64>,
}

impl ThroughputSeries {
    /// Series with the given bucket width.
    #[must_use]
    pub fn new(bucket: Duration) -> Self {
        ThroughputSeries {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Record `n` events at elapsed time `at`.
    pub fn record_at(&mut self, at: Duration, n: u64) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Merge another series.
    pub fn merge(&mut self, other: &ThroughputSeries) {
        assert_eq!(self.bucket, other.bucket);
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// `(bucket_start_seconds, ops_per_second)` rows.
    #[must_use]
    pub fn rows(&self) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * w, c as f64 / w))
            .collect()
    }

    /// Total events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_series_buckets_and_rates() {
        let mut t = ThroughputSeries::new(Duration::from_millis(250));
        t.record_at(Duration::from_millis(100), 50);
        t.record_at(Duration::from_millis(200), 50);
        t.record_at(Duration::from_millis(300), 200);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].1 - 400.0).abs() < 1e-9, "100 ops / 0.25 s");
        assert!((rows[1].1 - 800.0).abs() < 1e-9);
        assert_eq!(t.total(), 300);
    }

    #[test]
    fn throughput_merge() {
        let mut a = ThroughputSeries::new(Duration::from_millis(250));
        let mut b = ThroughputSeries::new(Duration::from_millis(250));
        a.record_at(Duration::from_millis(0), 1);
        b.record_at(Duration::from_millis(600), 2);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.rows().len(), 3);
    }
}
