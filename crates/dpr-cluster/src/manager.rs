//! The cluster manager (§4.1).
//!
//! An external entity (Kubernetes / Service Fabric in the paper) detects
//! failures and orchestrates recovery: it assigns a serial id to each
//! failure (the new world-line), halts DPR progress, asks every worker to
//! roll back to the guaranteed cut, and resumes progress once all workers
//! report completion. Here the manager drives the shared metadata store;
//! workers participate by polling it (see `Worker::check_recovery`).

use dpr_core::{DprError, Result, ShardId};
use dpr_metadata::{MetadataStore, RecoveryState};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Failure detection and recovery orchestration.
pub struct ClusterManager {
    meta: Arc<dyn MetadataStore>,
    /// When the last recovery this manager triggered began, until a wait
    /// sees it complete.
    triggered: Mutex<Option<Instant>>,
}

impl ClusterManager {
    /// Manager over the shared metadata store.
    pub fn new(meta: Arc<dyn MetadataStore>) -> Self {
        ClusterManager {
            meta,
            triggered: Mutex::new(None),
        }
    }

    /// Report a detected failure at `crashed`: bumps the world-line,
    /// freezes DPR progress, and instructs every worker to roll back to the
    /// guaranteed cut. Returns the recovery state (workers complete it
    /// asynchronously). The `recovery_begin` span records which worker the
    /// detector blamed; the protocol itself does not depend on it (§4.1:
    /// every worker rolls back to the guaranteed cut).
    ///
    /// Mirrors §7.4's methodology: "we simulated a worker failure by
    /// notifying workers of a new world-line, forcing all workers to
    /// rollback to the latest DPR cut."
    pub fn trigger_failure_at(&self, crashed: ShardId) -> Result<RecoveryState> {
        let rec = self.meta.begin_recovery()?;
        *self.triggered.lock().unwrap() = Some(Instant::now());
        dpr_telemetry::global().span("dpr-cluster", "recovery_begin", || {
            format!(
                "crashed shard {}, world-line {} ({} shards to roll back)",
                crashed.0,
                rec.world_line.0,
                rec.pending.len()
            )
        });
        Ok(rec)
    }

    /// Block until any in-flight recovery completes. The first wait to see
    /// a triggered recovery complete counts it, records its duration and
    /// emits `recovery_complete`, before it returns (so before any failure
    /// its caller triggers next); a wait that finds none records nothing.
    pub fn wait_recovery_complete(&self, timeout: Duration) -> Result<()> {
        wait_no_recovery(&*self.meta, timeout)?;
        if let Some(started) = self.triggered.lock().unwrap().take() {
            crate::metrics::recoveries().inc();
            crate::metrics::recovery_duration().record_micros(started.elapsed());
            dpr_telemetry::global().span("dpr-cluster", "recovery_complete", || {
                "all pending shards rolled back; progress resumed".to_string()
            });
        }
        Ok(())
    }
}

/// Wait until `meta` has no recovery in progress, every 500 µs for up to
/// `timeout`: the manager's wait for a recovery to complete and a session's
/// before it recovers.
pub(crate) fn wait_no_recovery(meta: &dyn MetadataStore, timeout: Duration) -> Result<()> {
    let idle = || Ok(meta.recovery_in_progress()?.is_none().then_some(()));
    crate::poll_until(timeout, Duration::from_micros(500), idle)?.ok_or(DprError::Timeout)
}
