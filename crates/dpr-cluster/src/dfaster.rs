//! The D-FASTER shard: deep DPR integration with the FASTER-style store
//! (§5).
//!
//! `Commit()` maps to FASTER's CPR fold-over checkpoint (a lightweight
//! metadata-only operation over the already-flushing log) and `Restore()`
//! to the non-blocking THROW/PURGE rollback of §5.5. Per client session, the
//! worker keeps a corresponding FASTER session under the same globally
//! unique id (§5.2), in one map behind one lock that a batch takes twice: to
//! check its session out and back in.

use crate::message::{ClusterOp, OpResult};
use crate::worker::{ShardStore, VersionSpan};
use dpr_core::{Result, SessionId, ShardId, Value, Version};
use dpr_faster::{FasterKv, Op, OpOutcome, Session};
use libdpr::{CommitDescriptor, StateObject};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

enum Slot {
    Idle(Session),
    /// Checked out by an executor thread; batches for the same session
    /// queue behind it, preserving the sequential session discipline.
    Busy,
}

/// A FASTER-backed shard.
pub struct FasterShard {
    shard: ShardId,
    kv: Arc<FasterKv>,
    /// Server-side FASTER sessions, one per client session id (§5.2).
    sessions: Mutex<HashMap<SessionId, Slot>>,
}

impl FasterShard {
    /// Wrap a store as shard `shard`.
    pub fn new(shard: ShardId, kv: Arc<FasterKv>) -> Self {
        FasterShard {
            shard,
            kv,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying store (diagnostics/tests).
    #[must_use]
    pub fn kv(&self) -> &Arc<FasterKv> {
        &self.kv
    }

    fn checkout(&self, id: SessionId) -> Session {
        loop {
            {
                let mut sessions = self.sessions.lock();
                match sessions.get_mut(&id) {
                    Some(slot @ Slot::Idle(_)) => {
                        let Slot::Idle(s) = std::mem::replace(slot, Slot::Busy) else {
                            unreachable!()
                        };
                        return s;
                    }
                    Some(Slot::Busy) => { /* fall through to retry */ }
                    None => {
                        // First contact from this client session: create the
                        // corresponding store session (§5.2). Mark busy under
                        // the lock so no duplicate can be created.
                        sessions.insert(id, Slot::Busy);
                        drop(sessions);
                        return self.kv.start_session(id);
                    }
                }
            }
            std::thread::yield_now();
        }
    }

    fn checkin(&self, id: SessionId, session: Session) {
        self.sessions.lock().insert(id, Slot::Idle(session));
    }
}

/// A cluster operation as the store runs it; an increment reads a missing
/// key as 0.
fn store_op(op: &ClusterOp) -> Op<'_> {
    match op {
        ClusterOp::Read(k) => Op::Read(k),
        ClusterOp::Upsert(k, v) => Op::Upsert(k, v),
        ClusterOp::Incr(k) => Op::Rmw(
            k,
            Box::new(|old| Value::from_u64(old.and_then(Value::as_u64).unwrap_or(0) + 1)),
        ),
        ClusterOp::Delete(k) => Op::Delete(k),
    }
}

impl ShardStore for FasterShard {
    fn execute_batch_into(
        &self,
        session_id: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<VersionSpan> {
        let base = out.len();
        let session = self.checkout(session_id);
        let run = (|| {
            // Placeholder results written in place; `OpResult::Value(None)`
            // doubles as the "unresolved" marker a PENDING op leaves until
            // completion fills it in. Reused buffers make this allocation-
            // free in steady state.
            out.resize(base + ops.len(), OpResult::Value(None));
            let mut pending: Vec<(u64, usize)> = Vec::new();
            // Each operation refreshes the session, so a checkpoint that
            // starts mid-batch splits it over two versions.
            let mut span: Option<VersionSpan> = None;
            let mut ran_in = |v: Version| {
                let s = span.get_or_insert(VersionSpan::single(v));
                s.lowest = s.lowest.min(v);
                s.highest = s.highest.max(v);
            };
            // The batch enters the store once: one take of the session's
            // lock and one epoch guard for all of it.
            let mut at = base;
            session.execute(ops.iter().map(store_op), |outcome| {
                match outcome {
                    OpOutcome::Read { value, version, .. } => {
                        ran_in(version);
                        out[at] = OpResult::Value(value);
                    }
                    OpOutcome::Mutated { version, .. } => {
                        ran_in(version);
                        out[at] = OpResult::Done;
                    }
                    OpOutcome::Pending(t) => pending.push((t.serial, at - base)),
                }
                at += 1;
            })?;
            if !pending.is_empty() {
                // Remote execution resolves PENDINGs before replying (the
                // background-thread path of §5.2).
                let completed = session.complete_pending()?;
                for c in completed {
                    if let Some(&(_, idx)) = pending.iter().find(|(serial, _)| *serial == c.serial)
                    {
                        ran_in(c.version);
                        out[base + idx] = match &ops[idx] {
                            ClusterOp::Read(_) => OpResult::Value(c.value.clone()),
                            _ => OpResult::Done,
                        };
                    }
                }
            }
            Ok(span.unwrap_or_else(|| VersionSpan::single(self.kv.current_version())))
        })();
        self.checkin(session_id, session);
        if run.is_err() {
            out.truncate(base);
        }
        run
    }

    fn scan_live(&self) -> Result<Vec<(dpr_core::Key, Value)>> {
        self.kv.scan_live()
    }

    fn collect_garbage(&self, cut: &dyn Fn() -> Option<Version>) -> Result<()> {
        self.kv.collect_due_garbage(cut).map(drop)
    }

    fn faster(&self) -> Option<&Arc<FasterKv>> {
        Some(&self.kv)
    }

    fn inject_commit_stall(&self, duration: std::time::Duration) {
        self.kv.stall_checkpoints_for(duration);
    }

    fn clear_commit_stall(&self) {
        self.kv.clear_checkpoint_stall();
    }
}

impl StateObject for FasterShard {
    fn shard(&self) -> ShardId {
        self.shard
    }

    fn current_version(&self) -> Version {
        self.kv.current_version()
    }

    fn durable_version(&self) -> Version {
        self.kv.durable_version()
    }

    fn request_commit(&self, target: Option<Version>) -> bool {
        self.kv.request_checkpoint(target)
    }

    fn take_commits(&self) -> Vec<CommitDescriptor> {
        self.kv
            .take_completed_checkpoints()
            .into_iter()
            .map(|c| CommitDescriptor { version: c.version })
            .collect()
    }

    fn restore(&self, version: Version) -> Result<()> {
        self.kv.restore_sync(version, Duration::from_secs(30))
    }

    fn maintain(&self) -> bool {
        self.kv.maintain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::Key;
    use dpr_faster::FasterConfig;
    use dpr_storage::{MemBlobStore, MemLogDevice};

    fn shard() -> FasterShard {
        let kv = FasterKv::new(
            FasterConfig {
                memory_budget_records: 1 << 20,
                ..FasterConfig::default()
            },
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        FasterShard::new(ShardId(0), kv)
    }

    #[test]
    fn batch_execution_round_trip() {
        let s = shard();
        let ops = vec![
            ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(10)),
            ClusterOp::Read(Key::from_u64(1)),
            ClusterOp::Incr(Key::from_u64(2)),
            ClusterOp::Incr(Key::from_u64(2)),
            ClusterOp::Read(Key::from_u64(2)),
            ClusterOp::Delete(Key::from_u64(1)),
            ClusterOp::Read(Key::from_u64(1)),
        ];
        let (results, version) = s.execute_batch(SessionId(1), &ops).unwrap();
        assert_eq!(version, Version(1));
        assert_eq!(results[1], OpResult::Value(Some(Value::from_u64(10))));
        assert_eq!(results[4], OpResult::Value(Some(Value::from_u64(2))));
        assert_eq!(results[6], OpResult::Value(None));
    }

    #[test]
    fn state_object_commit_cycle() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        assert!(s.request_commit(None));
        assert!(s.kv().wait_for_durable(Version(1), Duration::from_secs(5)));
        let commits = s.take_commits();
        assert_eq!(
            commits,
            vec![CommitDescriptor {
                version: Version(1)
            }]
        );
    }

    #[test]
    fn restore_rolls_back_uncommitted_batches() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        s.request_commit(None);
        assert!(s.kv().wait_for_durable(Version(1), Duration::from_secs(5)));
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(99))],
        )
        .unwrap();
        s.restore(Version(1)).unwrap();
        let (results, _) = s
            .execute_batch(SessionId(2), &[ClusterOp::Read(Key::from_u64(1))])
            .unwrap();
        assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(1))));
    }
}
