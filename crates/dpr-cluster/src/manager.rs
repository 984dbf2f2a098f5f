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
    /// Telemetry only: when the in-flight recovery was triggered.
    recovery_started: Mutex<Option<Instant>>,
}

impl ClusterManager {
    /// Manager over the shared metadata store.
    pub fn new(meta: Arc<dyn MetadataStore>) -> Self {
        ClusterManager {
            meta,
            recovery_started: Mutex::new(None),
        }
    }

    /// Report a detected failure: bumps the world-line, freezes DPR
    /// progress, and instructs every worker to roll back to the guaranteed
    /// cut. Returns the recovery state (workers complete it asynchronously).
    ///
    /// Mirrors §7.4's methodology: "we simulated a worker failure by
    /// notifying workers of a new world-line, forcing all workers to
    /// rollback to the latest DPR cut."
    pub fn trigger_failure(&self) -> Result<RecoveryState> {
        self.trigger_failure_at(None)
    }

    /// [`ClusterManager::trigger_failure`] with failure attribution: when
    /// `crashed` names a shard, the `recovery_begin` span records which
    /// worker the detector blamed (the recovery protocol itself is
    /// unchanged — per §4.1 every worker rolls back to the guaranteed cut
    /// regardless of which one failed).
    pub fn trigger_failure_at(&self, crashed: Option<ShardId>) -> Result<RecoveryState> {
        let rec = self.meta.begin_recovery()?;
        *self.recovery_started.lock().unwrap() = dpr_telemetry::enabled().then(Instant::now);
        dpr_telemetry::global().span("dpr-cluster", "recovery_begin", || {
            let blame = match crashed {
                Some(shard) => format!("crashed shard {}, ", shard.0),
                None => String::new(),
            };
            format!(
                "{}world-line {} ({} shards to roll back)",
                blame,
                rec.world_line.0,
                rec.pending.len()
            )
        });
        Ok(rec)
    }

    /// Block until any in-flight recovery completes.
    pub fn wait_recovery_complete(&self, timeout: Duration) -> Result<()> {
        wait_no_recovery(&*self.meta, timeout)?;
        crate::metrics::recoveries().inc();
        if let Some(started) = self.recovery_started.lock().unwrap().take() {
            crate::metrics::recovery_duration().record_micros(started.elapsed());
        }
        dpr_telemetry::global().span("dpr-cluster", "recovery_complete", || {
            "all pending shards rolled back; progress resumed".to_string()
        });
        Ok(())
    }

    /// Whether a recovery is currently in progress.
    pub fn recovering(&self) -> Result<bool> {
        Ok(self.meta.recovery_in_progress()?.is_some())
    }
}

/// Wait until `meta` has no recovery in progress, every 500 µs for up to
/// `timeout`: the manager's wait for a recovery to complete and a session's
/// before it recovers.
pub(crate) fn wait_no_recovery(meta: &dyn MetadataStore, timeout: Duration) -> Result<()> {
    let idle = || Ok(meta.recovery_in_progress()?.is_none().then_some(()));
    crate::poll_until(timeout, Duration::from_micros(500), idle)?.ok_or(DprError::Timeout)
}
