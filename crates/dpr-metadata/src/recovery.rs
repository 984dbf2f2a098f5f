//! Recovery state shared through the metadata store (§4).

use crate::store::Cut;
use dpr_core::{ShardId, WorldLine};
use std::collections::BTreeSet;

/// State of an in-flight cluster recovery.
///
/// The cluster manager creates this when a failure is detected: it bumps the
/// world-line, records the DPR cut everyone must roll back to, and lists the
/// workers that have not yet reported rollback completion. DPR progress is
/// halted while this exists (§4.1: "temporarily halting DPR progress ...
/// resuming progress only after all workers have reported back").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryState {
    /// The world-line the cluster is moving to.
    pub world_line: WorldLine,
    /// The guaranteed cut being restored.
    pub cut: Cut,
    /// Workers that still need to roll back.
    pub pending: BTreeSet<ShardId>,
}

impl RecoveryState {
    /// True once every worker has rolled back.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.pending.is_empty()
    }
}
