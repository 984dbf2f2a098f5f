//! Deterministic fault schedules.
//!
//! A schedule is generated *upfront* as a pure function of the seed: the
//! planner simulates membership logically (worker count, churn depth) so
//! every planned target index is valid when the driver executes it, and two
//! runs with the same seed execute — and log — the identical fault
//! sequence regardless of load timing.

use dpr_core::Rng;
use std::fmt;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the worker at `idx` and run cluster-wide recovery (§4.1).
    CrashWorker {
        /// Worker index to blame.
        idx: usize,
    },
    /// Partition the client→worker link of the worker at `idx` for `ms`
    /// milliseconds; parked traffic is released in order on heal.
    PartitionLink {
        /// Worker index.
        idx: usize,
        /// Partition duration in milliseconds.
        ms: u64,
    },
    /// Add `extra_ms` of one-way delay to the worker's link for `ms`.
    SlowLink {
        /// Worker index.
        idx: usize,
        /// Added one-way delay in milliseconds.
        extra_ms: u64,
        /// Fault duration in milliseconds.
        ms: u64,
    },
    /// Drop `drop_pct`% of messages to the worker's link for `ms`.
    LossyLink {
        /// Worker index.
        idx: usize,
        /// Drop probability in percent.
        drop_pct: u32,
        /// Fault duration in milliseconds.
        ms: u64,
    },
    /// Park the worker's CPR checkpoint completion for `ms`, growing the
    /// cluster cut lag `Vmax − Vsafe` until the stall expires.
    StallCheckpoint {
        /// Worker index.
        idx: usize,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Add a worker and rebalance partitions onto it (§5.3).
    AddWorker,
    /// Remove the most recently added worker, migrating its keys away
    /// first (§5.3). Planned only when churn depth is positive, so the
    /// initial workers are never removed.
    RemoveWorker,
    /// Migrate the virtual partition owning `key` to the next worker.
    MigratePartition {
        /// Key whose partition moves.
        key: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CrashWorker { idx } => write!(f, "crash worker {idx}"),
            FaultKind::PartitionLink { idx, ms } => {
                write!(f, "partition worker {idx} for {ms}ms")
            }
            FaultKind::SlowLink { idx, extra_ms, ms } => {
                write!(f, "slow link to worker {idx} (+{extra_ms}ms) for {ms}ms")
            }
            FaultKind::LossyLink { idx, drop_pct, ms } => {
                write!(
                    f,
                    "lossy link to worker {idx} ({drop_pct}% drop) for {ms}ms"
                )
            }
            FaultKind::StallCheckpoint { idx, ms } => {
                write!(f, "stall checkpoints on worker {idx} for {ms}ms")
            }
            FaultKind::AddWorker => write!(f, "add worker"),
            FaultKind::RemoveWorker => write!(f, "remove last worker"),
            FaultKind::MigratePartition { key } => {
                write!(f, "migrate partition of key {key}")
            }
        }
    }
}

/// Generate a schedule of `events` faults from a single seed.
///
/// The first four slots force coverage — a crash, a partition, a worker
/// addition (when allowed), and a migration — so even short smoke runs
/// exercise recovery, the transport fault path, and churn. The rest are
/// weighted-random. `initial_workers` is the starting shard count and
/// `max_extra` bounds churn depth (workers added above the initial set).
#[must_use]
pub fn plan(seed: u64, events: usize, initial_workers: usize, max_extra: usize) -> Vec<FaultKind> {
    assert!(initial_workers > 0, "need at least one worker");
    let mut rng = Rng::new(seed);
    let mut workers = initial_workers;
    let mut extra = 0usize;
    let mut out = Vec::with_capacity(events);
    for slot in 0..events {
        let kind = match slot {
            0 => FaultKind::CrashWorker {
                idx: rng.below(workers as u64) as usize,
            },
            1 => FaultKind::PartitionLink {
                idx: rng.below(workers as u64) as usize,
                ms: rng.range(150, 450),
            },
            2 if max_extra > 0 => FaultKind::AddWorker,
            3 => FaultKind::MigratePartition {
                key: rng.next_u64() >> 32,
            },
            _ => loop {
                // Weighted table out of 100.
                let roll = rng.below(100);
                let kind = match roll {
                    0..=19 => FaultKind::CrashWorker {
                        idx: rng.below(workers as u64) as usize,
                    },
                    20..=34 => FaultKind::PartitionLink {
                        idx: rng.below(workers as u64) as usize,
                        ms: rng.range(150, 450),
                    },
                    35..=44 => FaultKind::SlowLink {
                        idx: rng.below(workers as u64) as usize,
                        extra_ms: rng.range(1, 6),
                        ms: rng.range(150, 400),
                    },
                    45..=59 => FaultKind::LossyLink {
                        idx: rng.below(workers as u64) as usize,
                        drop_pct: rng.range(10, 50) as u32,
                        ms: rng.range(150, 400),
                    },
                    60..=69 => FaultKind::StallCheckpoint {
                        idx: rng.below(workers as u64) as usize,
                        ms: rng.range(100, 400),
                    },
                    70..=79 => FaultKind::MigratePartition {
                        key: rng.next_u64() >> 32,
                    },
                    80..=89 => FaultKind::AddWorker,
                    _ => FaultKind::RemoveWorker,
                };
                // Reject membership moves the simulated state disallows;
                // re-roll keeps the stream seed-determined.
                match kind {
                    FaultKind::AddWorker if extra >= max_extra => continue,
                    FaultKind::RemoveWorker if extra == 0 => continue,
                    k => break k,
                }
            },
        };
        match kind {
            FaultKind::AddWorker => {
                workers += 1;
                extra += 1;
            }
            FaultKind::RemoveWorker => {
                workers -= 1;
                extra -= 1;
            }
            _ => {}
        }
        out.push(kind);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let a = plan(42, 24, 3, 2);
        let b = plan(42, 24, 3, 2);
        assert_eq!(a, b);
        let c = plan(43, 24, 3, 2);
        assert_ne!(a, c, "different seeds should differ at 24 events");
    }

    #[test]
    fn plan_targets_stay_valid_under_churn() {
        for seed in 0..50 {
            let mut workers = 3usize;
            for kind in plan(seed, 40, 3, 2) {
                match kind {
                    FaultKind::AddWorker => workers += 1,
                    FaultKind::RemoveWorker => {
                        assert!(workers > 3, "never removes an initial worker");
                        workers -= 1;
                    }
                    FaultKind::CrashWorker { idx }
                    | FaultKind::PartitionLink { idx, .. }
                    | FaultKind::SlowLink { idx, .. }
                    | FaultKind::LossyLink { idx, .. }
                    | FaultKind::StallCheckpoint { idx, .. } => {
                        assert!(idx < workers, "target {idx} out of {workers}");
                    }
                    FaultKind::MigratePartition { .. } => {}
                }
            }
            assert!((3..=5).contains(&workers));
        }
    }

    #[test]
    fn forced_prefix_covers_crash_partition_churn() {
        let p = plan(7, 8, 3, 2);
        assert!(matches!(p[0], FaultKind::CrashWorker { .. }));
        assert!(matches!(p[1], FaultKind::PartitionLink { .. }));
        assert!(matches!(p[2], FaultKind::AddWorker));
        assert!(matches!(p[3], FaultKind::MigratePartition { .. }));
    }
}
