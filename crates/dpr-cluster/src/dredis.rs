//! The D-Redis shard: DPR over an *unmodified* Redis-like store via the
//! libDPR wrapper pattern (§6).
//!
//! The wrapper owns one latch around the single-threaded store: `Commit()`
//! takes it exclusively to issue `BGSAVE`, and each incoming batch takes it
//! while executing — which also guarantees all ops of a batch land in the
//! same version, the invariant the D-Redis server wrapper maintains with
//! its shared/exclusive latch pair. A background `LASTSAVE` poll (here:
//! inspecting `lastsave()` inside `take_commits`) detects checkpoint
//! completion, and `Restore()` restarts the instance from a snapshot.

use crate::message::{ClusterOp, OpResult};
use crate::worker::{ShardStore, VersionSpan};
use dpr_core::{Result, SessionId, ShardId, Version};
use dpr_redis::{Command, RedisStore, Reply, SaveId};
use libdpr::{CommitDescriptor, StateObject};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct RedisInner {
    store: RedisStore,
    /// DPR version → save id of the BGSAVE that sealed it.
    version_saves: BTreeMap<Version, SaveId>,
    /// Versions whose BGSAVE was issued but not yet observed complete.
    unreported: Vec<Version>,
}

/// A Redis-backed shard (the D-Redis proxy + libDPR server side).
pub struct RedisShard {
    shard: ShardId,
    inner: Mutex<RedisInner>,
    /// Version ops currently execute in.
    current: AtomicU64,
}

impl RedisShard {
    /// Wrap an (unmodified) store as shard `shard`.
    pub fn new(shard: ShardId, store: RedisStore) -> Self {
        RedisShard {
            shard,
            inner: Mutex::new(RedisInner {
                store,
                version_saves: BTreeMap::new(),
                unreported: Vec::new(),
            }),
            current: AtomicU64::new(1),
        }
    }
}

impl ShardStore for RedisShard {
    fn execute_batch_into(
        &self,
        _session: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<VersionSpan> {
        // The batch latch: exclusive access to the single-threaded store for
        // the whole batch, so every op executes in one version.
        let base = out.len();
        let mut inner = self.inner.lock().unwrap();
        let version = Version(self.current.load(Ordering::Acquire));
        for op in ops {
            let cmd = match op {
                ClusterOp::Read(k) => Command::Get(k.clone()),
                ClusterOp::Upsert(k, v) => Command::Set(k.clone(), v.clone()),
                ClusterOp::Incr(k) => Command::Incr(k.clone()),
                ClusterOp::Delete(k) => Command::Del(k.clone()),
            };
            match inner.store.execute(&cmd) {
                Ok(Reply::Value(v)) => out.push(OpResult::Value(v)),
                Ok(Reply::Ok | Reply::Int(_)) => out.push(OpResult::Done),
                Err(e) => {
                    out.truncate(base);
                    return Err(e);
                }
            }
        }
        Ok(VersionSpan::single(version))
    }

    fn scan_live(&self) -> Result<Vec<(dpr_core::Key, dpr_core::Value)>> {
        Ok(self.inner.lock().unwrap().store.entries())
    }
}

impl StateObject for RedisShard {
    fn shard(&self) -> ShardId {
        self.shard
    }

    fn current_version(&self) -> Version {
        Version(self.current.load(Ordering::Acquire))
    }

    /// The newest version a finished save sealed: the `LASTSAVE` poll of
    /// `take_commits`, without taking what it finds.
    fn durable_version(&self) -> Version {
        let inner = self.inner.lock().unwrap();
        let last = inner.store.lastsave();
        let saved = inner.version_saves.iter().rev().find(|&(_, &s)| s <= last);
        saved.map_or(Version::ZERO, |(&v, _)| v)
    }

    fn request_commit(&self, target: Option<Version>) -> bool {
        // Exclusive latch for BGSAVE (§6).
        let mut inner = self.inner.lock().unwrap();
        let sealing = Version(self.current.load(Ordering::Acquire));
        match inner.store.bgsave() {
            Ok(save_id) => {
                inner.version_saves.insert(sealing, save_id);
                inner.unreported.push(sealing);
                let next = target.map_or(sealing.next(), |t| t.max(sealing.next()));
                self.current.store(next.0, Ordering::Release);
                true
            }
            // A save is already running; the request is absorbed.
            Err(_) => false,
        }
    }

    fn take_commits(&self) -> Vec<CommitDescriptor> {
        // The periodic LASTSAVE poll (§6).
        let mut inner = self.inner.lock().unwrap();
        let last = inner.store.lastsave();
        let mut done = Vec::new();
        let RedisInner {
            version_saves,
            unreported,
            ..
        } = &mut *inner;
        unreported.retain(|&v| {
            let complete = version_saves.get(&v).is_some_and(|&save| save <= last);
            if complete {
                done.push(CommitDescriptor { version: v });
            }
            !complete
        });
        done
    }

    fn restore(&self, version: Version) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        // Restart from the newest snapshot at or below the target.
        let save = inner
            .version_saves
            .range(..=version)
            .next_back()
            .map(|(_, &s)| s);
        match save {
            Some(save) => inner.store.restore(save)?,
            None => inner.store.restore_empty(),
        }
        // Discard doomed versions: their in-flight snapshots must never be
        // reported as commits.
        inner.version_saves.retain(|&v, _| v <= version);
        inner.unreported.retain(|&v| v <= version);
        let cur = self.current.load(Ordering::Acquire);
        self.current
            .store(cur.max(version.0 + 1), Ordering::Release);
        Ok(())
    }

    /// A save is in flight until the pump has reported it.
    fn maintain(&self) -> bool {
        !self.inner.lock().unwrap().unreported.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::{Key, Value};
    use dpr_redis::RedisConfig;
    use dpr_storage::MemBlobStore;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn shard() -> RedisShard {
        let store =
            RedisStore::new(RedisConfig::default(), Arc::new(MemBlobStore::new()), None).unwrap();
        RedisShard::new(ShardId(0), store)
    }

    fn wait_commits(s: &RedisShard) -> Vec<CommitDescriptor> {
        let start = Instant::now();
        loop {
            let c = s.take_commits();
            if !c.is_empty() || start.elapsed() > Duration::from_secs(5) {
                return c;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn batch_runs_in_one_version() {
        let s = shard();
        let (results, version) = s
            .execute_batch(
                SessionId(1),
                &[
                    ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1)),
                    ClusterOp::Read(Key::from_u64(1)),
                ],
            )
            .unwrap();
        assert_eq!(version, Version(1));
        assert_eq!(results[1], OpResult::Value(Some(Value::from_u64(1))));
    }

    #[test]
    fn commit_advances_version_and_reports() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        assert!(s.request_commit(None));
        assert_eq!(s.current_version(), Version(2));
        let commits = wait_commits(&s);
        assert_eq!(
            commits,
            vec![CommitDescriptor {
                version: Version(1)
            }]
        );
        assert_eq!(s.durable_version(), Version(1));
    }

    #[test]
    fn restore_returns_to_snapshot_state() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        s.request_commit(None);
        wait_commits(&s);
        // Version 2 writes, then failure.
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(99))],
        )
        .unwrap();
        s.restore(Version(1)).unwrap();
        let (results, v) = s
            .execute_batch(SessionId(1), &[ClusterOp::Read(Key::from_u64(1))])
            .unwrap();
        assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(1))));
        assert!(v >= Version(2), "post-restore ops in a later version");
    }

    #[test]
    fn restore_to_zero_empties_store() {
        let s = shard();
        s.execute_batch(
            SessionId(1),
            &[ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(1))],
        )
        .unwrap();
        s.restore(Version::ZERO).unwrap();
        let (results, _) = s
            .execute_batch(SessionId(1), &[ClusterOp::Read(Key::from_u64(1))])
            .unwrap();
        assert_eq!(results[0], OpResult::Value(None));
    }

    #[test]
    fn fast_forward_commit_target() {
        let s = shard();
        assert!(s.request_commit(Some(Version(9))));
        wait_commits(&s);
        assert_eq!(s.current_version(), Version(9));
    }
}
