//! Calibrated latency injection for simulated devices.
//!
//! The absolute numbers below are scaled for a laptop-size reproduction; what
//! matters for the paper's figures is the *ratios*: null ≪ local ≪ cloud,
//! with cloud flushes 2–3× (or more) slower than local ones (§7.2: "we
//! observed that checkpoints over Premium SSD took 2 to 3 times longer to
//! complete than local SSD", and a DPR checkpoint on cloud storage taking
//! ~50 ms on average, §7.2 "Sensitivity to Storage Latency").

use std::time::Duration;

/// Named storage profiles matching the paper's three backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageProfile {
    /// Completes every I/O instantaneously but exercises all code paths —
    /// the theoretical upper bound for the recoverability model (§7.2).
    Null,
    /// The VM-attached temporary disk.
    LocalSsd,
    /// Replicated, highly available cloud storage (Azure Premium SSD).
    CloudSsd,
}

impl StorageProfile {
    /// Short label used in benchmark output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StorageProfile::Null => "null",
            StorageProfile::LocalSsd => "local-ssd",
            StorageProfile::CloudSsd => "cloud-ssd",
        }
    }

    /// The latency model for this profile.
    #[must_use]
    pub fn latency(self) -> LatencyModel {
        match self {
            StorageProfile::Null => LatencyModel::zero(),
            StorageProfile::LocalSsd => LatencyModel {
                flush_fixed: Duration::from_millis(2),
                flush_per_mib: Duration::from_micros(800),
            },
            StorageProfile::CloudSsd => LatencyModel {
                // Cloud flushes carry replication round trips: the paper
                // measured DPR checkpoints of ~50 ms on Premium SSD (§7.2),
                // which at laptop data volumes is dominated by this fixed
                // cost (log flush + manifest write ≈ 40 ms per checkpoint).
                flush_fixed: Duration::from_millis(20),
                flush_per_mib: Duration::from_micros(2400),
            },
        }
    }
}

/// Flush-latency model: `flush_fixed + bytes/MiB * flush_per_mib`.
///
/// Buffered writes are free (they land in the device cache); durability is
/// paid at flush time, which is where the checkpoint critical path sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per flush call (seek/replication round trip).
    pub flush_fixed: Duration,
    /// Additional cost per MiB of dirty data flushed.
    pub flush_per_mib: Duration,
}

impl LatencyModel {
    /// No injected latency.
    #[must_use]
    pub fn zero() -> LatencyModel {
        LatencyModel {
            flush_fixed: Duration::ZERO,
            flush_per_mib: Duration::ZERO,
        }
    }

    /// The latency to charge for flushing `dirty_bytes`.
    #[must_use]
    pub fn flush_cost(&self, dirty_bytes: u64) -> Duration {
        let mib = dirty_bytes as f64 / (1024.0 * 1024.0);
        self.flush_fixed + Duration::from_nanos((self.flush_per_mib.as_nanos() as f64 * mib) as u64)
    }

    /// Block the calling thread for the flush cost. The injected sleep runs
    /// on the *flusher* thread, never on operation threads — matching real
    /// devices where only the party waiting on `fsync` stalls.
    pub fn charge_flush(&self, dirty_bytes: u64) {
        let d = self.flush_cost(dirty_bytes);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered() {
        let n = StorageProfile::Null.latency().flush_cost(1 << 20);
        let l = StorageProfile::LocalSsd.latency().flush_cost(1 << 20);
        let c = StorageProfile::CloudSsd.latency().flush_cost(1 << 20);
        assert!(n < l, "null < local");
        assert!(l < c, "local < cloud");
        // Cloud should be at least 2x local per the paper's observation.
        assert!(c.as_nanos() >= 2 * l.as_nanos());
    }

    #[test]
    fn flush_cost_scales_with_bytes() {
        let m = StorageProfile::LocalSsd.latency();
        assert!(m.flush_cost(8 << 20) > m.flush_cost(1 << 20));
        assert_eq!(m.flush_cost(0), m.flush_fixed);
    }

    #[test]
    fn zero_model_never_sleeps() {
        let m = LatencyModel::zero();
        assert_eq!(m.flush_cost(u64::MAX / 2), Duration::ZERO);
        // Must return without sleeping.
        m.charge_flush(1 << 30);
    }
}
