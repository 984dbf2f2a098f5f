//! Seeded input generation. Everything the program receives is made here
//! from `--seed`; the same seed gives the same op stream. Kept independent
//! of `dpr-ycsb` so a later change to the program cannot change the
//! benchmark's inputs.

/// SplitMix64: small, fast, and good enough for key choice.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// How keys are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    Uniform,
    /// YCSB's scrambled Zipfian with this skew.
    Zipf(f64),
}

/// Gray et al.'s Zipfian rank generator (the one YCSB uses), with ranks
/// scattered over the keyspace so hot keys are not neighbours.
#[derive(Clone)]
struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            half_pow: 0.5f64.powf(theta),
        }
    }

    fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + self.half_pow {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        // Scatter: a fixed odd multiplier is a bijection mod 2^64; the
        // final modulo folds it onto the keyspace.
        (rank.min(self.n - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) % self.n
    }
}

/// What one generated operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Upsert,
    Incr,
}

/// The op mix of a workload, in percent; the rest is `Incr`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read_pct: u64,
    pub upsert_pct: u64,
}

/// One seeded stream of `(kind, key index)` pairs over `0..keys`.
#[derive(Clone)]
pub struct OpGen {
    rng: Rng,
    keys: u64,
    zipf: Option<Zipf>,
    mix: Mix,
}

impl OpGen {
    pub fn new(seed: u64, keys: u64, dist: Dist, mix: Mix) -> OpGen {
        OpGen {
            rng: Rng::new(seed),
            keys,
            zipf: match dist {
                Dist::Uniform => None,
                Dist::Zipf(theta) => Some(Zipf::new(keys, theta)),
            },
            mix,
        }
    }

    /// The same keyspace and mix on another seed, without recomputing the
    /// Zipfian constants (O(keys)).
    pub fn reseeded(&self, seed: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed),
            ..self.clone()
        }
    }

    pub fn next_op(&mut self) -> (Kind, u64) {
        let key = match &self.zipf {
            None => self.rng.below(self.keys),
            Some(z) => z.next(&mut self.rng),
        };
        let roll = self.rng.below(100);
        let kind = if roll < self.mix.read_pct {
            Kind::Read
        } else if roll < self.mix.read_pct + self.mix.upsert_pct {
            Kind::Upsert
        } else {
            Kind::Incr
        };
        (kind, key)
    }
}

/// Writer tag of preloaded values.
pub const PRELOAD_TAG: u64 = 0xFFFF;

/// Values name their writer: `(tag, serial)` packed into the 8 bytes the
/// paper's records carry, so a read-back can tell whose write it sees.
pub fn encode_value(tag: u64, serial: u64) -> u64 {
    (tag << 48) | (serial & 0xFFFF_FFFF_FFFF)
}

/// The writer tag of a value. `Incr` only ever bumps the low bits.
pub fn value_tag(v: u64) -> u64 {
    v >> 48
}

/// The value key `idx` of shard `shard` is preloaded with.
pub fn preload_value(shard: usize, idx: usize) -> u64 {
    encode_value(PRELOAD_TAG, ((shard as u64) << 32) | idx as u64)
}

/// Whether a read returned something somebody wrote: every key is
/// preloaded, so it is a preload or the value of a writer in `1..=writers`.
pub fn read_is_known(seen: Option<u64>, writers: u64) -> bool {
    seen.is_some_and(|v| {
        let tag = value_tag(v);
        tag == PRELOAD_TAG || (1..=writers).contains(&tag)
    })
}

/// Key ids by owning shard, `per_shard` of them each, in ascending order.
/// Ownership is a fixed hash of the key, so any cluster with the same
/// shard count answers alike.
pub fn key_pools(
    cluster: &dpr_cluster::Cluster,
    shards: usize,
    per_shard: usize,
) -> Result<Vec<Vec<u64>>, String> {
    let mut pools: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut id = 0u64;
    while pools.iter().any(|p| p.len() < per_shard) {
        let owner = cluster
            .owner_of(&dpr_core::Key::from_u64(id))
            .map_err(|e| format!("owner_of: {e}"))?;
        let pool = &mut pools[owner.0 as usize];
        if pool.len() < per_shard {
            pool.push(id);
        }
        id += 1;
    }
    Ok(pools)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mix = Mix {
            read_pct: 50,
            upsert_pct: 25,
        };
        let mut a = OpGen::new(7, 1000, Dist::Zipf(0.99), mix);
        let mut b = OpGen::new(7, 1000, Dist::Zipf(0.99), mix);
        let mut c = OpGen::new(8, 1000, Dist::Zipf(0.99), mix);
        let sa: Vec<_> = (0..200).map(|_| a.next_op()).collect();
        let sb: Vec<_> = (0..200).map(|_| b.next_op()).collect();
        let sc: Vec<_> = (0..200).map(|_| c.next_op()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        assert!(sa.iter().all(|&(_, k)| k < 1000));
    }

    #[test]
    fn zipf_is_skewed_and_mix_holds() {
        let mix = Mix {
            read_pct: 50,
            upsert_pct: 50,
        };
        let mut g = OpGen::new(1, 10_000, Dist::Zipf(0.99), mix);
        let mut counts = std::collections::HashMap::new();
        let mut reads = 0;
        for _ in 0..100_000 {
            let (kind, key) = g.next_op();
            *counts.entry(key).or_insert(0u32) += 1;
            reads += u32::from(kind == Kind::Read);
            assert_ne!(kind, Kind::Incr);
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 5_000, "hottest key drew {hottest} of 100k");
        assert!((45_000..55_000).contains(&reads));
    }
}
