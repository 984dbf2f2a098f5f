//! Zipfian rank generation (Gray et al., "Quickly generating
//! billion-record synthetic databases") — the same algorithm YCSB's
//! `ZipfianGenerator` uses, with optional rank scrambling so the hottest
//! keys are spread over the keyspace.

use dpr_core::Rng;

/// A Zipfian generator over ranks `0..n` with skew `theta` (YCSB default
/// 0.99, which is also what the paper benchmarks).
///
/// ```
/// use dpr_core::Rng;
/// use dpr_ycsb::Zipfian;
///
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = Rng::new(1);
/// assert!(z.next(&mut rng) < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // O(n) once per generator; fine for laptop-scale keyspaces.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Generator over `0..n` with skew `theta` (0 < theta < 1).
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            scramble: false,
        }
    }

    /// Scrambled variant: ranks are hashed over the keyspace so hot keys are
    /// not clustered at low ids (YCSB's `ScrambledZipfianGenerator`).
    #[must_use]
    pub fn scrambled(n: u64, theta: f64) -> Self {
        let mut z = Self::new(n, theta);
        z.scramble = true;
        z
    }

    /// Number of distinct ranks.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw the next rank.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5_f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scramble {
            // FNV-1a over the rank, folded back into the keyspace.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in rank.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h % self.n
        } else {
            rank
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_stay_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::new(42);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_low_ranks() {
        let n = 10_000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u64; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // Rank 0 should be by far the most popular (~1/zetan of mass).
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        assert_eq!(max_idx, 0);
        // Top 1% of ranks should take a large share of draws.
        let top: u64 = counts[..(n as usize / 100)].iter().sum();
        assert!(
            top as f64 > 0.5 * draws as f64,
            "zipf(0.99) should put >50% of mass on top 1% (got {top}/{draws})"
        );
    }

    #[test]
    fn scrambled_spreads_the_hot_key() {
        let n = 10_000;
        let z = Zipfian::scrambled(n, 0.99);
        let mut rng = Rng::new(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.next(&mut rng)).or_insert(0u64) += 1;
        }
        let (hot, _) = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_ne!(*hot, 0, "hot key hashed away from rank 0");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ = Zipfian::new(10, 1.5);
    }
}
