//! The `StateObject` abstraction (§3).

use dpr_core::{Backoff, DprError, Result, ShardId, Version};
use std::time::{Duration, Instant};

/// Description of one completed `Commit()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitDescriptor {
    /// The version the commit sealed (the token is `(shard, version)`).
    pub version: Version,
}

/// A shard of the distributed cache-store, as DPR sees it (§3):
///
/// * `Op()` — executing operations is the *embedding system's* job (the
///   worker forwards request bodies straight to its store); DPR only needs
///   the version each op executed in, which the store reports per op or per
///   batch.
/// * `Commit()` — [`StateObject::request_commit`] starts an asynchronous
///   group commit; completed commits are drained with
///   [`StateObject::take_commits`].
/// * `Restore()` — [`StateObject::restore`] returns the shard to a committed
///   version, discarding everything after it.
///
/// Implementations in this workspace: the FASTER adapter (deep integration,
/// non-blocking restore) and the Redis adapter (wrapped, restart-based
/// restore) in `dpr-cluster`.
pub trait StateObject: Send + Sync {
    /// This shard's id.
    fn shard(&self) -> ShardId;

    /// The version currently assigned to new operations.
    fn current_version(&self) -> Version;

    /// The latest locally durable (committed) version.
    fn durable_version(&self) -> Version;

    /// Request an asynchronous commit. With `target`, the shard
    /// fast-forwards its next version to at least `target` (§3.4 `Vmax`
    /// catch-up). Returns false if a commit is already in flight and the
    /// request was absorbed.
    fn request_commit(&self, target: Option<Version>) -> bool;

    /// Drain commits completed since the last call, oldest first.
    fn take_commits(&self) -> Vec<CommitDescriptor>;

    /// Restore the shard to `version`, discarding all later state. May be
    /// asynchronous; `durable_version`/`current_version` reflect completion.
    fn restore(&self, version: Version) -> Result<()>;

    /// Run the shard's background maintenance once — what moves a requested
    /// commit along — and return whether work is still in flight. Default:
    /// none, nothing in flight.
    fn maintain(&self) -> bool {
        false
    }

    /// Block until `version` is durable, requesting commits and running
    /// [`StateObject::maintain`] on the calling thread, backing off spin →
    /// yield → short sleep: a migration's wait and a synchronous-
    /// recoverability batch's (§7.6), which no other thread's schedule holds
    /// up.
    fn wait_durable(&self, version: Version, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        while self.durable_version() < version {
            self.request_commit(None);
            self.maintain();
            if backoff.is_waiting_long() && Instant::now() > deadline {
                return Err(DprError::Timeout);
            }
            backoff.snooze();
        }
        Ok(())
    }
}
