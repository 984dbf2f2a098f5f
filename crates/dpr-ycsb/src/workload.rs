//! Workload specifications and operation streams.

use crate::zipf::Zipfian;
use dpr_core::{Key, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key access distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the keyspace.
    Uniform,
    /// Zipfian with the given skew (paper uses θ = 0.99).
    Zipfian {
        /// Skew parameter.
        theta: f64,
    },
    /// YCSB-D style read-latest: reads are Zipfian-skewed toward the most
    /// recently inserted keys; the keyspace grows as inserts happen.
    Latest,
}

/// A workload description, in the paper's `R:BU` notation (fraction of
/// reads vs blind updates, §7.1).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub keys: u64,
    /// Fraction of reads in [0, 1]; the rest are blind updates.
    pub read_fraction: f64,
    /// Fraction of read-modify-writes carved out of the update share
    /// (YCSB-F style); usually 0.
    pub rmw_fraction: f64,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// Value payload size in bytes (paper: 8).
    pub value_size: usize,
}

impl WorkloadSpec {
    /// YCSB-A: 50:50 read/update.
    #[must_use]
    pub fn ycsb_a(keys: u64, distribution: KeyDistribution) -> Self {
        WorkloadSpec {
            keys,
            read_fraction: 0.5,
            rmw_fraction: 0.0,
            distribution,
            value_size: 8,
        }
    }

    /// YCSB-B: 95:5 read-mostly.
    #[must_use]
    pub fn ycsb_b(keys: u64, distribution: KeyDistribution) -> Self {
        WorkloadSpec {
            keys,
            read_fraction: 0.95,
            rmw_fraction: 0.0,
            distribution,
            value_size: 8,
        }
    }

    /// YCSB-C: read-only.
    #[must_use]
    pub fn ycsb_c(keys: u64, distribution: KeyDistribution) -> Self {
        WorkloadSpec {
            keys,
            read_fraction: 1.0,
            rmw_fraction: 0.0,
            distribution,
            value_size: 8,
        }
    }

    /// YCSB-F-style read-modify-write workload.
    #[must_use]
    pub fn ycsb_f(keys: u64, distribution: KeyDistribution) -> Self {
        WorkloadSpec {
            keys,
            read_fraction: 0.5,
            rmw_fraction: 0.5,
            distribution,
            value_size: 8,
        }
    }

    /// YCSB-D: 95% reads skewed to the latest inserts, 5% inserts.
    #[must_use]
    pub fn ycsb_d(initial_keys: u64) -> Self {
        WorkloadSpec {
            keys: initial_keys,
            read_fraction: 0.95,
            rmw_fraction: 0.0,
            distribution: KeyDistribution::Latest,
            value_size: 8,
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Point read.
    Read(Key),
    /// Blind update.
    Update(Key, Value),
    /// Read-modify-write (increment).
    Rmw(Key),
}

impl WorkloadOp {
    /// The key this op touches.
    #[must_use]
    pub fn key(&self) -> &Key {
        match self {
            WorkloadOp::Read(k) | WorkloadOp::Update(k, _) | WorkloadOp::Rmw(k) => k,
        }
    }
}

/// A seeded operation stream for one client thread.
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<Zipfian>,
    counter: u64,
    /// Insertion frontier for the `Latest` distribution (next key to
    /// insert; keys below exist).
    frontier: u64,
    /// Small skew generator over the recency window for `Latest`.
    latest_zipf: Option<Zipfian>,
}

impl WorkloadGen {
    /// Deterministic generator for `spec` with the given seed.
    #[must_use]
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let zipf = match spec.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => Some(Zipfian::scrambled(spec.keys, theta)),
            KeyDistribution::Latest => None,
        };
        let latest_zipf = match spec.distribution {
            KeyDistribution::Latest => Some(Zipfian::new(1024, 0.99)),
            _ => None,
        };
        WorkloadGen {
            frontier: spec.keys,
            spec,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            counter: 0,
            latest_zipf,
        }
    }

    /// The spec this generator follows.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draw the next key id.
    pub fn next_key_id(&mut self) -> u64 {
        match self.spec.distribution {
            KeyDistribution::Latest => {
                // Recency-skewed: rank 0 = the newest existing key.
                let window = self.frontier.clamp(1, 1024);
                let rank = self
                    .latest_zipf
                    .as_ref()
                    .expect("latest zipf")
                    .next(&mut self.rng)
                    % window;
                self.frontier - 1 - rank
            }
            _ => match &self.zipf {
                Some(z) => z.next(&mut self.rng),
                None => self.rng.gen_range(0..self.spec.keys),
            },
        }
    }

    /// The insertion frontier (`Latest` distribution): keys below exist.
    #[must_use]
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> WorkloadOp {
        let roll: f64 = self.rng.gen();
        self.counter += 1;
        // Latest-distribution writes are INSERTS at the frontier.
        let key = if self.spec.distribution == KeyDistribution::Latest
            && roll >= self.spec.read_fraction + self.spec.rmw_fraction
        {
            let k = Key::from_u64(self.frontier);
            self.frontier += 1;
            k
        } else {
            Key::from_u64(self.next_key_id())
        };
        if roll < self.spec.read_fraction {
            WorkloadOp::Read(key)
        } else if roll < self.spec.read_fraction + self.spec.rmw_fraction {
            WorkloadOp::Rmw(key)
        } else {
            let mut payload = vec![0u8; self.spec.value_size.max(8)];
            payload[..8].copy_from_slice(&self.counter.to_be_bytes());
            WorkloadOp::Update(key, Value(bytes::Bytes::from(payload)))
        }
    }

    /// Generate a batch of `n` operations.
    pub fn next_batch(&mut self, n: usize) -> Vec<WorkloadOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_spec() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_a(1000, KeyDistribution::Uniform), 1);
        let (mut reads, mut updates) = (0, 0);
        for _ in 0..10_000 {
            match g.next_op() {
                WorkloadOp::Read(_) => reads += 1,
                WorkloadOp::Update(..) => updates += 1,
                WorkloadOp::Rmw(_) => {}
            }
        }
        let frac = f64::from(reads) / f64::from(reads + updates);
        assert!((frac - 0.5).abs() < 0.03, "50:50 mix, got {frac}");
    }

    #[test]
    fn ycsb_c_is_read_only() {
        let mut g = WorkloadGen::new(
            WorkloadSpec::ycsb_c(100, KeyDistribution::Zipfian { theta: 0.99 }),
            1,
        );
        for _ in 0..1000 {
            assert!(matches!(g.next_op(), WorkloadOp::Read(_)));
        }
    }

    #[test]
    fn ycsb_f_generates_rmws() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_f(100, KeyDistribution::Uniform), 1);
        let rmws = (0..1000)
            .filter(|_| matches!(g.next_op(), WorkloadOp::Rmw(_)))
            .count();
        assert!(rmws > 300, "expected ~50% RMWs, got {rmws}");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let spec = WorkloadSpec::ycsb_a(1000, KeyDistribution::Zipfian { theta: 0.99 });
        let mut a = WorkloadGen::new(spec.clone(), 9);
        let mut b = WorkloadGen::new(spec, 9);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn keys_stay_in_keyspace() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_a(64, KeyDistribution::Uniform), 3);
        for _ in 0..1000 {
            let op = g.next_op();
            assert!(op.key().as_u64().unwrap() < 64);
        }
    }

    #[test]
    fn ycsb_d_reads_recent_and_inserts_at_frontier() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_d(1000), 5);
        let mut inserts = 0u64;
        let mut max_read = 0u64;
        for _ in 0..10_000 {
            match g.next_op() {
                WorkloadOp::Read(k) => {
                    let id = k.as_u64().unwrap();
                    assert!(id < g.frontier(), "reads hit existing keys only");
                    max_read = max_read.max(id);
                }
                WorkloadOp::Update(k, _) => {
                    inserts += 1;
                    assert_eq!(k.as_u64().unwrap(), g.frontier() - 1, "insert at frontier");
                }
                WorkloadOp::Rmw(_) => panic!("no RMWs in YCSB-D"),
            }
        }
        assert!(inserts > 300 && inserts < 700, "~5% inserts, got {inserts}");
        assert_eq!(g.frontier(), 1000 + inserts);
        assert!(max_read >= 1000, "reads follow the growing frontier");
    }

    #[test]
    fn ycsb_d_reads_are_recency_skewed() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_d(100_000), 5);
        let mut near = 0u64;
        let mut total = 0u64;
        for _ in 0..10_000 {
            if let WorkloadOp::Read(k) = g.next_op() {
                total += 1;
                if g.frontier() - k.as_u64().unwrap() <= 64 {
                    near += 1;
                }
            }
        }
        assert!(
            near as f64 > 0.5 * total as f64,
            "most reads within 64 of the frontier ({near}/{total})"
        );
    }

    #[test]
    fn batches_have_requested_size() {
        let mut g = WorkloadGen::new(WorkloadSpec::ycsb_b(100, KeyDistribution::Uniform), 3);
        assert_eq!(g.next_batch(64).len(), 64);
    }
}
