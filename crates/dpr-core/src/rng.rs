//! The one pseudo-random generator of the workspace: fault schedules and
//! dropped frames, YCSB keys and mixes, the checkpoint timer's jitter and
//! property-test cases all draw from an [`Rng`] their caller seeded, so a
//! run, a chaos finding or a failing case replays bit for bit from its seed.
//! It is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), in which every
//! state is valid: every seed, 0 included, starts a stream of its own.

/// SplitMix64 over one `u64` of state.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose whole output stream is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`, by remainder (a bias of at most
    /// `bound / 2^64`); `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A value in `[lo, hi)`; `lo < hi` required.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// A uniform `f64` in `[0, 1)`, from the top 53 bits of one draw.
    pub fn f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_draws_the_reference_splitmix64_stream() {
        let mut r = Rng::new(42);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let want = [
            0xBDD7_3226_2FEB_6E95,
            0x28EF_E333_B266_F103,
            0x4752_6757_130F_9F52,
            0x581C_E1FF_0E4A_E394,
            0x09BC_585A_2448_23F2,
            0xDE44_31FA_3C80_DB06,
            0x37E9_671C_4537_6D5D,
            0xCCF6_35EE_9E9E_2FA4,
        ];
        assert_eq!(first, want);
        let mut r = Rng::new(42);
        assert_eq!(r.below(1000), want[0] % 1000);
        assert_eq!(r.range(10, 20), 10 + want[1] % 10);
        assert_eq!(r.f64(), (want[2] >> 11) as f64 / 2f64.powi(53));
        assert_eq!(Rng::new(43).next_u64(), 0xBA69_EC90_EB4F_EF88);
    }

    #[test]
    fn draws_keep_to_their_edges_and_spread_over_them() {
        let mut r = Rng::new(7);
        let mut seen = [0u32; 8];
        for _ in 0..8000 {
            assert_eq!((r.below(1), r.range(5, 6)), (0, 5));
            assert!((u64::MAX - 3..u64::MAX).contains(&r.range(u64::MAX - 3, u64::MAX)));
            assert!(!r.bool(0.0) && r.bool(1.0));
            seen[r.below(8) as usize] += 1;
        }
        assert!(seen.iter().all(|&n| (800..1200).contains(&n)), "{seen:?}");
        let hits = (0..10_000).filter(|_| r.bool(0.25)).count();
        assert!((2300..2700).contains(&hits), "{hits} of 10,000");
        assert_eq!((unit(0), unit(u64::MAX)), (0.0, 1.0 - 2f64.powi(-53)));
    }
}
