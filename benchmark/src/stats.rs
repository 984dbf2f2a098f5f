//! Exact latency recording: every sample is kept (`u32` microseconds),
//! merged and sorted at the end. `dpr_telemetry::Histogram` has
//! power-of-two buckets, so its percentiles are bucket edges and a 10 %
//! regression is invisible in them.

/// A bag of time samples, kept in units of 10 ns so that a median of
/// tens of microseconds still has digits to differ in from run to run.
/// Saturates at 42.9 s, beyond any run.
#[derive(Default, Clone)]
pub struct Samples(Vec<u32>);

const UNITS_PER_US: u64 = 100;

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push_us(&mut self, us: u64) {
        self.0
            .push(u32::try_from(us.saturating_mul(UNITS_PER_US)).unwrap_or(u32::MAX));
    }

    pub fn push(&mut self, d: std::time::Duration) {
        self.0
            .push(u32::try_from(d.as_nanos() / (1000 / UNITS_PER_US as u128)).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean_us(&self) -> f64 {
        let sum: u64 = self.0.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / UNITS_PER_US as f64 / self.0.len().max(1) as f64
    }

    pub fn sorted(mut self) -> Sorted {
        self.0.sort_unstable();
        Sorted(self.0)
    }
}

/// Sorted samples, ready for percentiles.
pub struct Sorted(Vec<u32>);

impl Sorted {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile in microseconds (nearest rank), or `None` when
    /// fewer than ten samples lie beyond it — a percentile resting on a
    /// handful of samples is noise, so it is refused. The median asks for
    /// ten samples in all.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let beyond = ((1.0 - q) * n as f64).floor() as usize;
        if n < 10 || (q > 0.5 && beyond < 10) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(f64::from(self.0[rank - 1]) / UNITS_PER_US as f64)
    }

    pub fn median_us(&self) -> Option<f64> {
        self.quantile_us(0.5)
    }
}

/// Median of a small set of values (per-fault times, repeated set-ups).
/// Empty input gives `None`.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// the spread of a metric. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_and_refuse_thin_tails() {
        let mut s = Samples::default();
        for us in 1..=1000u64 {
            s.push_us(us);
        }
        let s = s.sorted();
        assert_eq!(s.median_us(), Some(500.0));
        assert_eq!(s.quantile_us(0.99), Some(990.0));
        // Only one sample lies beyond p99.9 of 1000.
        assert_eq!(s.quantile_us(0.999), None);
        let mut few = Samples::default();
        for us in 0..9 {
            few.push_us(us);
        }
        assert_eq!(few.sorted().median_us(), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-9 && (q3 - 2.25).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
