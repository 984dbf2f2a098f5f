//! # dpr-cassandra
//!
//! A Cassandra-like single-node store: an in-memory *memtable* fronted by a
//! *commit log*. Built as the third system in the paper's
//! performance-vs-recoverability study (§7.6, Fig. 19), which exercises
//! Cassandra with its two commit-log modes:
//!
//! * `periodic` — writes return immediately; the commit log is fsynced on a
//!   timer (eventual recoverability);
//! * `group` — writes block until their commit-log entry is fsynced, with
//!   concurrent writers amortizing one fsync (synchronous recoverability /
//!   group commit).
//!
//! Replication is disabled, exactly as in the paper's configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpr_core::{Key, Result, Value};
use dpr_storage::LogDevice;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Commit-log durability mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitLogSync {
    /// Fsync on a timer; writes return before durability.
    Periodic,
    /// Writes wait for fsync; concurrent writers share one fsync.
    Group,
    /// No commit log at all (the "None" recoverability level).
    Off,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct CassandraConfig {
    /// Commit-log mode.
    pub sync: CommitLogSync,
}

/// The memtable + commit-log store. Thread-safe; all writes are logged
/// before being applied (write-ahead).
///
/// ```
/// use dpr_cassandra::{CassandraConfig, CassandraStore, CommitLogSync};
/// use dpr_core::{Key, Value};
/// use dpr_storage::MemLogDevice;
/// use std::sync::Arc;
///
/// let store = CassandraStore::new(
///     CassandraConfig { sync: CommitLogSync::Group },
///     Arc::new(MemLogDevice::null()),
/// );
/// store.write(Key::from_u64(1), Some(Value::from_u64(9))).unwrap();
/// // Group mode returned only after the entry was fsynced:
/// assert_eq!(store.recover().unwrap(), 1);
/// ```
pub struct CassandraStore {
    memtable: RwLock<HashMap<Key, Value>>,
    commitlog: Arc<dyn LogDevice>,
    config: CassandraConfig,
    /// Serializes group-commit fsyncs so one flush covers many writers.
    flush_gate: Mutex<()>,
}

/// One commit-log entry: `key_len u32 | key | val_len u32 | val` (val_len =
/// u32::MAX encodes a delete).
fn encode_entry(key: &Key, value: Option<&Value>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    match value {
        Some(v) => {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
    }
}

fn decode_entry(buf: &[u8]) -> Option<(Key, Option<Value>, usize)> {
    if buf.len() < 4 {
        return None;
    }
    let klen = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if buf.len() < 4 + klen + 4 {
        return None;
    }
    let key = Key(bytes::Bytes::copy_from_slice(&buf[4..4 + klen]));
    let vlen = u32::from_le_bytes(buf[4 + klen..8 + klen].try_into().unwrap());
    if vlen == u32::MAX {
        return Some((key, None, 8 + klen));
    }
    let vlen = vlen as usize;
    if buf.len() < 8 + klen + vlen {
        return None;
    }
    let value = Value(bytes::Bytes::copy_from_slice(
        &buf[8 + klen..8 + klen + vlen],
    ));
    Some((key, Some(value), 8 + klen + vlen))
}

impl CassandraStore {
    /// Create a store over the given commit-log device.
    #[must_use]
    pub fn new(config: CassandraConfig, commitlog: Arc<dyn LogDevice>) -> CassandraStore {
        CassandraStore {
            memtable: RwLock::new(HashMap::new()),
            commitlog,
            config,
            flush_gate: Mutex::new(()),
        }
    }

    /// Read a key.
    #[must_use]
    pub fn read(&self, key: &Key) -> Option<Value> {
        self.memtable.read().get(key).cloned()
    }

    /// Write (or delete, with `None`) a key, honoring the configured
    /// commit-log mode.
    pub fn write(&self, key: Key, value: Option<Value>) -> Result<()> {
        match self.config.sync {
            CommitLogSync::Off => {}
            CommitLogSync::Periodic => {
                let mut buf = Vec::new();
                encode_entry(&key, value.as_ref(), &mut buf);
                self.commitlog.append(&buf)?;
            }
            CommitLogSync::Group => {
                let mut buf = Vec::new();
                encode_entry(&key, value.as_ref(), &mut buf);
                let end = self.commitlog.append(&buf)? + buf.len() as u64;
                // Group commit: wait until our entry is durable; whoever
                // gets the gate performs the fsync for everyone behind it.
                while self.commitlog.durable_frontier() < end {
                    if let Some(_gate) = self.flush_gate.try_lock() {
                        if self.commitlog.durable_frontier() < end {
                            self.commitlog.flush()?;
                        }
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        let mut table = self.memtable.write();
        match value {
            Some(v) => {
                table.insert(key, v);
            }
            None => {
                table.remove(&key);
            }
        }
        Ok(())
    }

    /// Timer-driven fsync for `periodic` mode.
    pub fn flush_commitlog(&self) -> Result<()> {
        self.commitlog.flush()?;
        Ok(())
    }

    /// Rebuild the memtable by replaying the durable commit-log prefix.
    pub fn recover(&self) -> Result<usize> {
        let durable = self.commitlog.durable_frontier();
        let mut table = HashMap::new();
        let mut offset = 0u64;
        let mut carry: Vec<u8> = Vec::new();
        let mut buf = vec![0u8; 1 << 16];
        let mut count = 0;
        while offset < durable {
            let want = ((durable - offset) as usize).min(buf.len());
            let n = self.commitlog.read(offset, &mut buf[..want])?;
            if n == 0 {
                break;
            }
            carry.extend_from_slice(&buf[..n]);
            offset += n as u64;
            let mut consumed = 0;
            while let Some((key, value, used)) = decode_entry(&carry[consumed..]) {
                consumed += used;
                count += 1;
                match value {
                    Some(v) => {
                        table.insert(key, v);
                    }
                    None => {
                        table.remove(&key);
                    }
                }
            }
            carry.drain(..consumed);
        }
        *self.memtable.write() = table;
        Ok(count)
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memtable.read().len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memtable.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_storage::MemLogDevice;

    fn store(sync: CommitLogSync) -> (CassandraStore, Arc<MemLogDevice>) {
        let dev = Arc::new(MemLogDevice::null());
        (
            CassandraStore::new(CassandraConfig { sync }, dev.clone()),
            dev,
        )
    }

    #[test]
    fn read_write_delete() {
        let (s, _) = store(CommitLogSync::Group);
        s.write(Key::from_u64(1), Some(Value::from_u64(10)))
            .unwrap();
        assert_eq!(s.read(&Key::from_u64(1)).unwrap().as_u64(), Some(10));
        s.write(Key::from_u64(1), None).unwrap();
        assert!(s.read(&Key::from_u64(1)).is_none());
    }

    #[test]
    fn group_mode_survives_crash() {
        let (s, dev) = store(CommitLogSync::Group);
        for i in 0..50u64 {
            s.write(Key::from_u64(i), Some(Value::from_u64(i))).unwrap();
        }
        dev.crash();
        let s2 = CassandraStore::new(
            CassandraConfig {
                sync: CommitLogSync::Group,
            },
            dev,
        );
        let replayed = s2.recover().unwrap();
        assert_eq!(replayed, 50, "every group-committed write recovered");
        assert_eq!(s2.len(), 50);
    }

    #[test]
    fn periodic_mode_loses_unflushed_tail() {
        let (s, dev) = store(CommitLogSync::Periodic);
        s.write(Key::from_u64(1), Some(Value::from_u64(1))).unwrap();
        s.flush_commitlog().unwrap();
        s.write(Key::from_u64(2), Some(Value::from_u64(2))).unwrap();
        dev.crash();
        let s2 = CassandraStore::new(
            CassandraConfig {
                sync: CommitLogSync::Periodic,
            },
            dev,
        );
        s2.recover().unwrap();
        assert_eq!(s2.len(), 1, "unflushed write lost");
    }

    #[test]
    fn off_mode_recovers_nothing() {
        let (s, dev) = store(CommitLogSync::Off);
        s.write(Key::from_u64(1), Some(Value::from_u64(1))).unwrap();
        dev.crash();
        let s2 = CassandraStore::new(
            CassandraConfig {
                sync: CommitLogSync::Off,
            },
            dev,
        );
        assert_eq!(s2.recover().unwrap(), 0);
        assert!(s2.is_empty());
    }

    #[test]
    fn deletes_replay_correctly() {
        let (s, _) = store(CommitLogSync::Group);
        s.write(Key::from_u64(1), Some(Value::from_u64(1))).unwrap();
        s.write(Key::from_u64(2), Some(Value::from_u64(2))).unwrap();
        s.write(Key::from_u64(1), None).unwrap();
        s.recover().unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.read(&Key::from_u64(1)).is_none());
        assert!(s.read(&Key::from_u64(2)).is_some());
    }

    #[test]
    fn concurrent_group_writers_all_durable() {
        let dev = Arc::new(MemLogDevice::null());
        let s = Arc::new(CassandraStore::new(
            CassandraConfig {
                sync: CommitLogSync::Group,
            },
            dev.clone(),
        ));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        s.write(Key::from_u64(t * 1000 + i), Some(Value::from_u64(i)))
                            .unwrap();
                    }
                });
            }
        });
        dev.crash();
        let s2 = CassandraStore::new(
            CassandraConfig {
                sync: CommitLogSync::Group,
            },
            dev,
        );
        assert_eq!(s2.recover().unwrap(), 1600, "no group-committed write lost");
        assert_eq!(s2.len(), 1600);
    }
}
