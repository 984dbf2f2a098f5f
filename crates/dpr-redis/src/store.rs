//! The single-threaded Redis-like store.

use crate::command::{Command, Reply};
use crate::snapshot::Snapshot;
use dpr_core::{DprError, Key, Result, Value};
use dpr_storage::{BlobStore, LogDevice};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one completed background save (the DPR token for D-Redis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SaveId(pub u64);

/// Append-only-file fsync policy (maps onto §7.6's recoverability levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AofPolicy {
    /// No AOF at all (persistence via snapshots only, or none).
    Off,
    /// Append on every write, fsync in the background — *eventual*
    /// recoverability: the command returns before the data is durable.
    EverySec,
    /// Append and fsync before returning — *synchronous* recoverability.
    Always,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct RedisConfig {
    /// AOF policy.
    pub aof: AofPolicy,
}

impl Default for RedisConfig {
    fn default() -> Self {
        RedisConfig {
            aof: AofPolicy::Off,
        }
    }
}

/// The single-threaded store. All command execution goes through `&mut
/// self`; concurrency control is the caller's job (exactly the Redis
/// threading model the D-Redis wrapper exploits, §6).
///
/// ```
/// use dpr_core::{Key, Value};
/// use dpr_redis::{Command, RedisConfig, RedisStore, Reply};
/// use dpr_storage::MemBlobStore;
/// use std::sync::Arc;
///
/// let mut store = RedisStore::new(
///     RedisConfig::default(),
///     Arc::new(MemBlobStore::new()),
///     None,
/// ).unwrap();
/// store.execute(&Command::Set(Key::from_u64(1), Value::from_u64(7))).unwrap();
/// let id = store.bgsave().unwrap();      // async snapshot (BGSAVE)
/// store.wait_for_save(id).unwrap();      // the wrapper polls LASTSAVE instead
/// assert_eq!(store.lastsave(), id);
/// ```
pub struct RedisStore {
    map: HashMap<Key, Value>,
    config: RedisConfig,
    blobs: Arc<dyn BlobStore>,
    aof: Option<Arc<dyn LogDevice>>,
    /// Next save id to hand out.
    next_save: u64,
    /// Highest completed save id, written by background save threads.
    last_save: Arc<AtomicU64>,
    /// Handle of an in-flight background save, if any.
    bgsave_thread: Option<std::thread::JoinHandle<()>>,
}

impl RedisStore {
    /// Create a store persisting snapshots to `blobs`, with the AOF (if
    /// enabled) on `aof`.
    pub fn new(
        config: RedisConfig,
        blobs: Arc<dyn BlobStore>,
        aof: Option<Arc<dyn LogDevice>>,
    ) -> Result<RedisStore> {
        if config.aof != AofPolicy::Off && aof.is_none() {
            return Err(DprError::Invalid(
                "AOF policy requires an AOF device".into(),
            ));
        }
        Ok(RedisStore {
            map: HashMap::new(),
            config,
            blobs,
            aof,
            next_save: 1,
            last_save: Arc::new(AtomicU64::new(0)),
            bgsave_thread: None,
        })
    }

    fn snapshot_name(id: SaveId) -> String {
        format!("redis-snap-{:020}", id.0)
    }

    /// Execute one command.
    pub fn execute(&mut self, cmd: &Command) -> Result<Reply> {
        if cmd.is_write() {
            self.log_to_aof(cmd)?;
        }
        Ok(match cmd {
            Command::Get(k) => Reply::Value(self.map.get(k).cloned()),
            Command::Set(k, v) => {
                self.map.insert(k.clone(), v.clone());
                Reply::Ok
            }
            Command::Del(k) => {
                self.map.remove(k);
                Reply::Ok
            }
            Command::Incr(k) => {
                let next = self.map.get(k).and_then(|v| v.as_u64()).unwrap_or(0) + 1;
                self.map.insert(k.clone(), Value::from_u64(next));
                Reply::Int(next)
            }
        })
    }

    fn log_to_aof(&mut self, cmd: &Command) -> Result<()> {
        let Some(aof) = &self.aof else { return Ok(()) };
        match self.config.aof {
            AofPolicy::Off => Ok(()),
            AofPolicy::EverySec => {
                let mut buf = Vec::new();
                cmd.encode(&mut buf);
                aof.append(&buf)?;
                Ok(())
            }
            AofPolicy::Always => {
                let mut buf = Vec::new();
                cmd.encode(&mut buf);
                aof.append(&buf)?;
                aof.flush()?;
                Ok(())
            }
        }
    }

    /// The AOF device. Under `everysec` the store never flushes it: its
    /// owner does, once a second (D-Redis's shard, outside its latch).
    pub fn aof(&self) -> Option<&Arc<dyn LogDevice>> {
        self.aof.as_ref()
    }

    /// `BGSAVE`: start an asynchronous snapshot and return its id. The
    /// fork's copy-on-write image is modeled by cloning the map; the clone
    /// happens synchronously (Redis pays the fork + COW cost) and
    /// serialization + blob write happen on a background thread.
    pub fn bgsave(&mut self) -> Result<SaveId> {
        // At most one background save at a time (as in Redis).
        if let Some(h) = self.bgsave_thread.take() {
            if !h.is_finished() {
                self.bgsave_thread = Some(h);
                return Err(DprError::Invalid(
                    "background save already in progress".into(),
                ));
            }
            let _ = h.join();
        }
        let id = SaveId(self.next_save);
        self.next_save += 1;
        let image = Snapshot {
            map: self.map.clone(),
        };
        let blobs = self.blobs.clone();
        let last = self.last_save.clone();
        let handle = std::thread::Builder::new()
            .name("redis-bgsave".into())
            .spawn(move || {
                let data = image.encode();
                if blobs.put(&RedisStore::snapshot_name(id), &data).is_ok() {
                    last.fetch_max(id.0, Ordering::AcqRel);
                }
            })
            .map_err(|e| DprError::Storage(e.to_string()))?;
        self.bgsave_thread = Some(handle);
        Ok(id)
    }

    /// `LASTSAVE`: id of the last *completed* background save (0 if none).
    #[must_use]
    pub fn lastsave(&self) -> SaveId {
        SaveId(self.last_save.load(Ordering::Acquire))
    }

    /// Block until the given save completes (test convenience; the D-Redis
    /// wrapper polls `lastsave` instead).
    pub fn wait_for_save(&mut self, id: SaveId) -> Result<()> {
        if let Some(h) = self.bgsave_thread.take() {
            h.join()
                .map_err(|_| DprError::Storage("bgsave thread panicked".into()))?;
        }
        if self.lastsave() < id {
            return Err(DprError::Storage(format!("save {} never completed", id.0)));
        }
        Ok(())
    }

    /// Restart from the snapshot `id` — the D-Redis `Restore()` (§6).
    /// Discards all current state.
    pub fn restore(&mut self, id: SaveId) -> Result<()> {
        let data = self
            .blobs
            .get(&Self::snapshot_name(id))?
            .ok_or(DprError::NoSuchCheckpoint {
                shard: dpr_core::ShardId(0),
                version: dpr_core::Version(id.0),
            })?;
        self.map = Snapshot::decode(&data)?.map;
        Ok(())
    }

    /// Restart with an empty map (restore to "nothing saved").
    pub fn restore_empty(&mut self) {
        self.map.clear();
    }

    /// Replay the AOF from the device's durable prefix (crash recovery for
    /// the AOF persistence modes).
    pub fn recover_from_aof(&mut self) -> Result<usize> {
        let Some(aof) = &self.aof else {
            return Ok(0);
        };
        let durable = aof.durable_frontier();
        let mut buf = vec![0u8; 1 << 16];
        let mut carry: Vec<u8> = Vec::new();
        let mut offset = 0u64;
        let mut commands = Vec::new();
        while offset < durable {
            let want = ((durable - offset) as usize).min(buf.len());
            let n = aof.read(offset, &mut buf[..want])?;
            if n == 0 {
                break;
            }
            carry.extend_from_slice(&buf[..n]);
            offset += n as u64;
            let mut consumed = 0;
            while let Some((cmd, used)) = Command::decode(&carry[consumed..]) {
                consumed += used;
                commands.push(cmd);
            }
            carry.drain(..consumed);
        }
        let count = commands.len();
        self.map.clear();
        for cmd in commands {
            // Replay without re-logging.
            match cmd {
                Command::Set(k, v) => {
                    self.map.insert(k, v);
                }
                Command::Del(k) => {
                    self.map.remove(&k);
                }
                Command::Incr(k) => {
                    let next = self.map.get(&k).and_then(|v| v.as_u64()).unwrap_or(0) + 1;
                    self.map.insert(k, Value::from_u64(next));
                }
                Command::Get(_) => {}
            }
        }
        Ok(count)
    }

    /// Snapshot of all live key/value pairs (used by key migration, §5.3).
    #[must_use]
    pub fn entries(&self) -> Vec<(Key, Value)> {
        self.map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of keys resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_storage::{MemBlobStore, MemLogDevice};

    fn store(aof: AofPolicy) -> (RedisStore, Arc<MemLogDevice>) {
        let dev = Arc::new(MemLogDevice::null());
        let s = RedisStore::new(
            RedisConfig { aof },
            Arc::new(MemBlobStore::new()),
            Some(dev.clone()),
        )
        .unwrap();
        (s, dev)
    }

    #[test]
    fn basic_commands() {
        let (mut s, _) = store(AofPolicy::Off);
        assert_eq!(
            s.execute(&Command::Set(Key::from_u64(1), Value::from_u64(5)))
                .unwrap(),
            Reply::Ok
        );
        assert_eq!(
            s.execute(&Command::Get(Key::from_u64(1))).unwrap(),
            Reply::Value(Some(Value::from_u64(5)))
        );
        assert_eq!(
            s.execute(&Command::Incr(Key::from_u64(1))).unwrap(),
            Reply::Int(6)
        );
        assert_eq!(
            s.execute(&Command::Incr(Key::from_u64(2))).unwrap(),
            Reply::Int(1)
        );
        s.execute(&Command::Del(Key::from_u64(1))).unwrap();
        assert_eq!(
            s.execute(&Command::Get(Key::from_u64(1))).unwrap(),
            Reply::Value(None)
        );
    }

    #[test]
    fn bgsave_lastsave_restore_cycle() {
        let (mut s, _) = store(AofPolicy::Off);
        s.execute(&Command::Set(Key::from_u64(1), Value::from_u64(1)))
            .unwrap();
        assert_eq!(s.lastsave(), SaveId(0));
        let id = s.bgsave().unwrap();
        s.wait_for_save(id).unwrap();
        assert_eq!(s.lastsave(), id);
        // Mutations after the save are not in the snapshot.
        s.execute(&Command::Set(Key::from_u64(2), Value::from_u64(2)))
            .unwrap();
        s.restore(id).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.execute(&Command::Get(Key::from_u64(1))).unwrap(),
            Reply::Value(Some(Value::from_u64(1)))
        );
    }

    #[test]
    fn restore_unknown_snapshot_fails() {
        let (mut s, _) = store(AofPolicy::Off);
        assert!(s.restore(SaveId(99)).is_err());
    }

    #[test]
    fn aof_always_replays_after_crash() {
        let (mut s, dev) = store(AofPolicy::Always);
        for i in 0..10u64 {
            s.execute(&Command::Set(Key::from_u64(i), Value::from_u64(i)))
                .unwrap();
        }
        s.execute(&Command::Del(Key::from_u64(0))).unwrap();
        s.execute(&Command::Incr(Key::from_u64(1))).unwrap();
        dev.crash();
        let mut s2 = RedisStore::new(
            RedisConfig {
                aof: AofPolicy::Always,
            },
            Arc::new(MemBlobStore::new()),
            Some(dev),
        )
        .unwrap();
        let replayed = s2.recover_from_aof().unwrap();
        assert_eq!(replayed, 12);
        assert_eq!(s2.len(), 9, "key 0 deleted");
        assert_eq!(
            s2.execute(&Command::Get(Key::from_u64(1))).unwrap(),
            Reply::Value(Some(Value::from_u64(2)))
        );
    }

    #[test]
    fn aof_everysec_loses_unflushed_writes() {
        let (mut s, dev) = store(AofPolicy::EverySec);
        s.execute(&Command::Set(Key::from_u64(1), Value::from_u64(1)))
            .unwrap();
        s.aof().unwrap().flush().unwrap();
        s.execute(&Command::Set(Key::from_u64(2), Value::from_u64(2)))
            .unwrap();
        // No flush: the second write is volatile.
        dev.crash();
        let mut s2 = RedisStore::new(
            RedisConfig {
                aof: AofPolicy::EverySec,
            },
            Arc::new(MemBlobStore::new()),
            Some(dev),
        )
        .unwrap();
        s2.recover_from_aof().unwrap();
        assert_eq!(
            s2.len(),
            1,
            "unflushed write lost — eventual recoverability"
        );
    }

    #[test]
    fn aof_policy_requires_device() {
        assert!(RedisStore::new(
            RedisConfig {
                aof: AofPolicy::Always
            },
            Arc::new(MemBlobStore::new()),
            None,
        )
        .is_err());
    }
}
