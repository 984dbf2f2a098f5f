//! # dpr-log
//!
//! A Kafka-like persistent shared log as a DPR `StateObject` — the third
//! kind of cache-store the paper names ("logging systems such as Kafka",
//! §1) and the substrate of its serverless-workflow example (Example 2).
//!
//! One [`SharedLog`] is one shard (a topic partition): producers `enqueue`
//! entries that become visible to consumers *immediately*, before
//! durability; `Commit()` seals the current version by flushing the entry
//! prefix to the device; `Restore()` truncates back to a committed version.
//! Consumer offsets are part of the recovered state: a dequeue that read an
//! uncommitted entry is itself uncommitted, and rolls back with it —
//! exactly the dependency Example 2 relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use dpr_core::{DprError, Result, ShardId, Version};
use dpr_storage::{BlobStore, LogDevice};
use libdpr::{CommitDescriptor, StateObject};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConsumerId(pub u64);

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Dense offset within this log.
    pub offset: u64,
    /// Version the entry was enqueued in (its commit unit).
    pub version: Version,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Durable description of one sealed version, stored in the blob store:
/// [`MANIFEST_HEADER`], then fixed-width little-endian fields (`version u64
/// | until_offset u64 | device_until u64 | count u32 | (consumer u64, offset
/// u64) × count`), and nothing after them. The default is the empty log's.
#[derive(Debug, Default, PartialEq, Eq)]
struct LogManifest {
    version: Version,
    /// One past the last entry offset included in this version.
    until_offset: u64,
    /// One past the device bytes that hold it: entries rewritten after a
    /// rollback lie after the ones they replace, and the replay stops here.
    device_until: u64,
    /// Consumer offsets captured at the version boundary.
    consumers: BTreeMap<ConsumerId, u64>,
}

/// Leading bytes of a manifest blob: the magic, then format 2 as a `u16`.
const MANIFEST_HEADER: [u8; 6] = *b"DPRL\x02\x00";
/// Bytes before the consumer entries.
const MANIFEST_FIXED: usize = MANIFEST_HEADER.len() + 8 + 8 + 8 + 4;

impl LogManifest {
    fn blob_name(version: Version) -> String {
        format!("log-chkpt-{:020}", version.0)
    }

    /// The version a manifest blob of this name holds.
    fn version_of(name: &str) -> Result<Version> {
        name.trim_start_matches("log-chkpt-")
            .parse()
            .map(Version)
            .map_err(|_| DprError::Storage(format!("bad manifest {name}")))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_FIXED + 16 * self.consumers.len());
        out.extend_from_slice(&MANIFEST_HEADER);
        out.extend_from_slice(&self.version.0.to_le_bytes());
        out.extend_from_slice(&self.until_offset.to_le_bytes());
        out.extend_from_slice(&self.device_until.to_le_bytes());
        out.extend_from_slice(&(self.consumers.len() as u32).to_le_bytes());
        for (consumer, offset) in &self.consumers {
            out.extend_from_slice(&consumer.0.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out
    }

    /// Anything but a whole manifest of the known format is a storage
    /// error. The declared count is checked against the bytes present
    /// before an entry is read, so a forged one allocates nothing.
    fn decode(buf: &[u8]) -> Result<LogManifest> {
        let bad = |what: &str| DprError::Storage(format!("log manifest decode: {what}"));
        if buf.len() < MANIFEST_FIXED || !buf.starts_with(&MANIFEST_HEADER) {
            return Err(bad("cut short, or not a format-2 log manifest"));
        }
        let fields = &buf[MANIFEST_HEADER.len()..];
        let u64_at = |at: usize| u64::from_le_bytes(fields[at..at + 8].try_into().unwrap());
        let count = u32::from_le_bytes(fields[24..28].try_into().unwrap()) as usize;
        if count.checked_mul(16) != Some(fields.len() - 28) {
            return Err(bad("length does not match the consumer count"));
        }
        Ok(LogManifest {
            version: Version(u64_at(0)),
            until_offset: u64_at(8),
            device_until: u64_at(16),
            consumers: (0..count)
                .map(|i| 28 + 16 * i)
                .map(|at| (ConsumerId(u64_at(at)), u64_at(at + 8)))
                .collect(),
        })
    }
}

struct LogInner {
    entries: Vec<Entry>,
    consumers: BTreeMap<ConsumerId, u64>,
    /// Entry offset up to which the device holds serialized entries.
    flushed_entries: u64,
    /// One past the device bytes the last append wrote.
    device_end: u64,
    /// Versions sealed but whose flush has not completed (version → until).
    sealing: BTreeMap<Version, u64>,
    completed: Vec<CommitDescriptor>,
}

/// A Kafka-like shared log shard with DPR semantics.
///
/// ```
/// use dpr_log::{ConsumerId, SharedLog};
/// use dpr_core::ShardId;
/// use dpr_storage::{MemBlobStore, MemLogDevice};
/// use libdpr::StateObject;
/// use std::sync::Arc;
///
/// let log = SharedLog::new(
///     ShardId(0),
///     Arc::new(MemLogDevice::null()),
///     Arc::new(MemBlobStore::new()),
/// );
/// log.enqueue(bytes::Bytes::from_static(b"hello"));
/// // Visible to consumers before commit:
/// let (entries, _) = log.poll(ConsumerId(1), 10);
/// assert_eq!(entries.len(), 1);
/// // Committed lazily:
/// log.request_commit(None);
/// assert_eq!(log.take_commits().len(), 1);
/// ```
pub struct SharedLog {
    shard: ShardId,
    device: Arc<dyn LogDevice>,
    blobs: Arc<dyn BlobStore>,
    inner: Mutex<LogInner>,
    current_version: AtomicU64,
    durable_version: AtomicU64,
}

fn encode_entry(e: &Entry, out: &mut Vec<u8>) {
    out.extend_from_slice(&e.offset.to_le_bytes());
    out.extend_from_slice(&e.version.0.to_le_bytes());
    out.extend_from_slice(&(e.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&e.payload);
}

fn decode_entry(buf: &[u8]) -> Option<(Entry, usize)> {
    if buf.len() < 20 {
        return None;
    }
    let offset = u64::from_le_bytes(buf[0..8].try_into().unwrap());
    let version = Version(u64::from_le_bytes(buf[8..16].try_into().unwrap()));
    let len = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
    if buf.len() < 20 + len {
        return None;
    }
    Some((
        Entry {
            offset,
            version,
            payload: Bytes::copy_from_slice(&buf[20..20 + len]),
        },
        20 + len,
    ))
}

impl SharedLog {
    /// Create an empty log shard.
    pub fn new(shard: ShardId, device: Arc<dyn LogDevice>, blobs: Arc<dyn BlobStore>) -> Self {
        SharedLog {
            shard,
            device,
            blobs,
            inner: Mutex::new(LogInner {
                entries: Vec::new(),
                consumers: BTreeMap::new(),
                flushed_entries: 0,
                device_end: 0,
                sealing: BTreeMap::new(),
                completed: Vec::new(),
            }),
            current_version: AtomicU64::new(1),
            durable_version: AtomicU64::new(0),
        }
    }

    /// Enqueue a payload; visible to consumers immediately, committed
    /// lazily. Returns the entry offset and the version it executed in.
    pub fn enqueue(&self, payload: Bytes) -> (u64, Version) {
        let mut inner = self.inner.lock().unwrap();
        let version = Version(self.current_version.load(Ordering::Acquire));
        let offset = inner.entries.len() as u64;
        inner.entries.push(Entry {
            offset,
            version,
            payload,
        });
        (offset, version)
    }

    /// Read the entry at `offset`, if present.
    pub fn read(&self, offset: u64) -> Option<Entry> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(offset as usize)
            .cloned()
    }

    /// Dequeue up to `max` entries for `consumer`, advancing its offset.
    /// Returns the entries and the version the dequeue executed in (the
    /// dequeue is an operation too — it commits with the consumer-offset
    /// movement it caused).
    pub fn poll(&self, consumer: ConsumerId, max: usize) -> (Vec<Entry>, Version) {
        let mut inner = self.inner.lock().unwrap();
        let version = Version(self.current_version.load(Ordering::Acquire));
        let start = *inner.consumers.get(&consumer).unwrap_or(&0);
        let end = (start as usize + max).min(inner.entries.len());
        let out: Vec<Entry> = inner.entries[start as usize..end].to_vec();
        inner.consumers.insert(consumer, end as u64);
        (out, version)
    }

    /// Committed offset of `consumer`.
    pub fn consumer_offset(&self, consumer: ConsumerId) -> u64 {
        *self
            .inner
            .lock()
            .unwrap()
            .consumers
            .get(&consumer)
            .unwrap_or(&0)
    }

    /// Total entries (committed or not).
    pub fn len(&self) -> u64 {
        self.inner.lock().unwrap().entries.len() as u64
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drive sealed versions to durability: flush newly sealed entries and
    /// complete their manifests. Returns completed versions. (The embedding
    /// worker calls this from its control loop; the flush itself charges
    /// the device's latency model.)
    pub fn pump(&self) -> Result<Vec<Version>> {
        // Snapshot what to do under the lock, do I/O outside it.
        let (to_flush, pending): (u64, Vec<(Version, u64)>) = {
            let inner = self.inner.lock().unwrap();
            let max_until = inner.sealing.values().copied().max().unwrap_or(0);
            (
                max_until.saturating_sub(inner.flushed_entries),
                inner.sealing.iter().map(|(v, u)| (*v, *u)).collect(),
            )
        };
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        if to_flush > 0 {
            let mut buf = Vec::new();
            let (start, entries): (u64, Vec<Entry>) = {
                let inner = self.inner.lock().unwrap();
                let start = inner.flushed_entries;
                let until = inner.sealing.values().copied().max().unwrap_or(start);
                (
                    start,
                    inner.entries[start as usize..until as usize].to_vec(),
                )
            };
            for e in &entries {
                encode_entry(e, &mut buf);
            }
            let at = self.device.append(&buf)?;
            self.device.flush()?;
            let mut inner = self.inner.lock().unwrap();
            inner.flushed_entries = inner.flushed_entries.max(start + entries.len() as u64);
            inner.device_end = inner.device_end.max(at + buf.len() as u64);
        }
        let mut done = Vec::new();
        let mut inner = self.inner.lock().unwrap();
        let flushed = inner.flushed_entries;
        let consumers = inner.consumers.clone();
        let ready: Vec<(Version, u64)> = inner
            .sealing
            .iter()
            .filter(|&(_, &until)| until <= flushed)
            .map(|(v, u)| (*v, *u))
            .collect();
        for (version, until) in ready {
            let manifest = LogManifest {
                version,
                until_offset: until,
                device_until: inner.device_end,
                consumers: consumers.clone(),
            };
            if self
                .blobs
                .put(&LogManifest::blob_name(version), &manifest.encode())
                .is_ok()
            {
                self.durable_version.fetch_max(version.0, Ordering::AcqRel);
                inner.completed.push(CommitDescriptor { version });
                inner.sealing.remove(&version);
                done.push(version);
            }
        }
        Ok(done)
    }

    /// Recover a log shard from its device and manifests after a crash, at
    /// the newest version at or below `at_most`. What lies above it is rolled
    /// back as [`StateObject::restore`] does: its manifests are deleted, and
    /// versions continue above every one the old incarnation left, so that a
    /// later recovery adopts none of it.
    pub fn recover(
        shard: ShardId,
        device: Arc<dyn LogDevice>,
        blobs: Arc<dyn BlobStore>,
        at_most: Option<Version>,
    ) -> Result<SharedLog> {
        let mut manifest: Option<LogManifest> = None;
        let (mut above, mut newest) = (Vec::new(), Version::ZERO);
        for name in blobs.list("log-chkpt-")?.into_iter().rev() {
            let v = LogManifest::version_of(&name)?;
            if at_most.is_some_and(|m| v > m) {
                newest = newest.max(v);
                above.push(name);
                continue;
            }
            let data = blobs
                .get(&name)?
                .ok_or_else(|| DprError::Storage(format!("missing blob {name}")))?;
            manifest = Some(LogManifest::decode(&data)?);
            break;
        }
        let m = manifest.unwrap_or_default();
        // Replay the device to the manifest's bytes: an entry at offset `o`
        // replaces `o` and everything after it (a rewrite after a rollback).
        // Every entry on it counts towards the versions to continue above.
        let durable = device.durable_frontier();
        let mut entries: Vec<Entry> = Vec::new();
        let (mut at, mut carry) = (0u64, Vec::new());
        let mut buf = vec![0u8; 1 << 16];
        while at < durable {
            let n = device.read(at, &mut buf)?;
            if n == 0 {
                break;
            }
            let mut pos = at - carry.len() as u64;
            carry.extend_from_slice(&buf[..n]);
            at += n as u64;
            let mut consumed = 0;
            while let Some((e, used)) = decode_entry(&carry[consumed..]) {
                consumed += used;
                pos += used as u64;
                newest = newest.max(e.version);
                if pos > m.device_until {
                    continue;
                }
                if e.offset > entries.len() as u64 {
                    return Err(DprError::Storage(format!(
                        "log scan out of order at {}",
                        e.offset
                    )));
                }
                entries.truncate(e.offset as usize);
                entries.push(e);
            }
            carry.drain(..consumed);
        }
        entries.truncate(m.until_offset as usize);
        for name in &above {
            blobs.delete(name)?;
        }
        let flushed = entries.len() as u64;
        // Consumer offsets never point past the recovered entries.
        let consumers = m.consumers.into_iter().map(|(c, o)| (c, o.min(flushed)));
        Ok(SharedLog {
            shard,
            device,
            blobs,
            inner: Mutex::new(LogInner {
                entries,
                consumers: consumers.collect(),
                flushed_entries: flushed,
                device_end: m.device_until,
                sealing: BTreeMap::new(),
                completed: Vec::new(),
            }),
            current_version: AtomicU64::new(m.version.max(newest).0 + 1),
            durable_version: AtomicU64::new(m.version.0),
        })
    }

    /// Delete the manifests of the versions above `version`, which a
    /// rollback to it has lost.
    fn delete_manifests_above(&self, version: Version) -> Result<()> {
        for name in self.blobs.list("log-chkpt-")? {
            if LogManifest::version_of(&name)? > version {
                self.blobs.delete(&name)?;
            }
        }
        Ok(())
    }
}

impl StateObject for SharedLog {
    fn shard(&self) -> ShardId {
        self.shard
    }

    fn current_version(&self) -> Version {
        Version(self.current_version.load(Ordering::Acquire))
    }

    fn durable_version(&self) -> Version {
        Version(self.durable_version.load(Ordering::Acquire))
    }

    fn request_commit(&self, target: Option<Version>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let sealing = Version(self.current_version.load(Ordering::Acquire));
        if inner.sealing.contains_key(&sealing) {
            return false;
        }
        let until = inner.entries.len() as u64;
        inner.sealing.insert(sealing, until);
        let next = target.map_or(sealing.next(), |t| t.max(sealing.next()));
        self.current_version.store(next.0, Ordering::Release);
        true
    }

    fn take_commits(&self) -> Vec<CommitDescriptor> {
        // Opportunistically drive pending flushes.
        let _ = self.pump();
        std::mem::take(&mut self.inner.lock().unwrap().completed)
    }

    fn restore(&self, version: Version) -> Result<()> {
        // Find the boundary for `version` from its manifest (or empty).
        let boundary = if version == Version::ZERO {
            LogManifest::default()
        } else {
            let data = self.blobs.get(&LogManifest::blob_name(version))?.ok_or(
                DprError::NoSuchCheckpoint {
                    shard: self.shard,
                    version,
                },
            )?;
            LogManifest::decode(&data)?
        };
        let mut inner = self.inner.lock().unwrap();
        inner.entries.truncate(boundary.until_offset as usize);
        inner.flushed_entries = inner.flushed_entries.min(boundary.until_offset);
        inner.consumers = boundary.consumers;
        inner.sealing.retain(|&v, _| v <= version);
        inner.completed.retain(|d| d.version <= version);
        // Under the lock `pump` writes manifests under, once nothing above
        // `version` is left to seal.
        self.delete_manifests_above(version)?;
        let cur = self.current_version.load(Ordering::Acquire);
        self.current_version
            .store(cur.max(version.0 + 1), Ordering::Release);
        self.durable_version.store(
            self.durable_version.load(Ordering::Acquire).min(version.0),
            Ordering::Release,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_storage::{MemBlobStore, MemLogDevice};

    fn log() -> (SharedLog, Arc<MemLogDevice>, Arc<MemBlobStore>) {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        (
            SharedLog::new(ShardId(0), device.clone(), blobs.clone()),
            device,
            blobs,
        )
    }

    fn payload(i: u64) -> Bytes {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    #[test]
    fn enqueue_is_visible_before_commit() {
        let (log, _, _) = log();
        let (off, v) = log.enqueue(payload(1));
        assert_eq!(off, 0);
        assert_eq!(v, Version(1));
        assert_eq!(log.durable_version(), Version::ZERO, "not committed yet");
        let (got, _) = log.poll(ConsumerId(1), 10);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, payload(1));
    }

    #[test]
    fn poll_advances_consumer_offset_independently() {
        let (log, _, _) = log();
        for i in 0..10 {
            log.enqueue(payload(i));
        }
        let (a1, _) = log.poll(ConsumerId(1), 4);
        assert_eq!(a1.len(), 4);
        let (b1, _) = log.poll(ConsumerId(2), 7);
        assert_eq!(b1.len(), 7);
        let (a2, _) = log.poll(ConsumerId(1), 100);
        assert_eq!(a2.len(), 6);
        assert_eq!(log.consumer_offset(ConsumerId(1)), 10);
        assert_eq!(log.consumer_offset(ConsumerId(2)), 7);
    }

    #[test]
    fn commit_seals_and_reports() {
        let (log, _, _) = log();
        log.enqueue(payload(1));
        assert!(log.request_commit(None));
        assert_eq!(log.current_version(), Version(2));
        let commits = log.take_commits();
        assert_eq!(
            commits,
            vec![CommitDescriptor {
                version: Version(1)
            }]
        );
        assert_eq!(log.durable_version(), Version(1));
        // Nothing new to seal → absorbed as in-flight.
        assert!(log.request_commit(None));
        log.take_commits();
        // Re-sealing the same version is refused.
        let v = log.current_version();
        assert!(log.request_commit(Some(v)));
    }

    #[test]
    fn restore_truncates_uncommitted_entries_and_offsets() {
        let (log, _, _) = log();
        log.enqueue(payload(1)); // v1
        log.request_commit(None);
        log.take_commits();
        log.enqueue(payload(2)); // v2, uncommitted
        log.poll(ConsumerId(1), 10); // consumer read both (offset 2)
        log.restore(Version(1)).unwrap();
        assert_eq!(log.len(), 1, "uncommitted entry truncated");
        assert_eq!(
            log.consumer_offset(ConsumerId(1)),
            0,
            "offset rolled back to the committed boundary capture"
        );
        // New enqueues land in a later version.
        let (_, v) = log.enqueue(payload(3));
        assert!(v >= Version(2));
    }

    #[test]
    fn consumer_offset_commits_with_its_version() {
        let (log, _, _) = log();
        log.enqueue(payload(1));
        log.poll(ConsumerId(1), 10);
        // Commit v1: the boundary captures offset 1.
        log.request_commit(None);
        log.take_commits();
        // v2: read more... nothing to read; enqueue + read.
        log.enqueue(payload(2));
        log.poll(ConsumerId(1), 10);
        assert_eq!(log.consumer_offset(ConsumerId(1)), 2);
        log.restore(Version(1)).unwrap();
        assert_eq!(
            log.consumer_offset(ConsumerId(1)),
            1,
            "offset restored to the v1 capture"
        );
    }

    #[test]
    fn crash_recovery_replays_committed_prefix() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        {
            let log = SharedLog::new(ShardId(0), device.clone(), blobs.clone());
            for i in 0..5 {
                log.enqueue(payload(i));
            }
            log.poll(ConsumerId(9), 3);
            log.request_commit(None);
            log.take_commits();
            // Uncommitted tail.
            for i in 5..8 {
                log.enqueue(payload(i));
            }
        }
        device.crash();
        let log = SharedLog::recover(ShardId(0), device, blobs, None).unwrap();
        assert_eq!(log.durable_version(), Version(1));
        assert_eq!(log.len(), 5, "only committed entries recovered");
        assert_eq!(log.consumer_offset(ConsumerId(9)), 3);
        let (got, _) = log.poll(ConsumerId(9), 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, payload(3));
    }

    #[test]
    fn recovery_at_bound_picks_older_manifest() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        {
            let log = SharedLog::new(ShardId(0), device.clone(), blobs.clone());
            log.enqueue(payload(1));
            log.request_commit(None);
            log.take_commits();
            log.enqueue(payload(2));
            log.request_commit(None);
            log.take_commits();
        }
        let log = SharedLog::recover(ShardId(0), device, blobs, Some(Version(1))).unwrap();
        assert_eq!(log.durable_version(), Version(1));
        assert_eq!(log.len(), 1);
    }

    /// Commit `payload(i)` in a version of its own.
    fn commit(log: &SharedLog, i: u64) {
        log.enqueue(payload(i));
        log.request_commit(None);
        log.take_commits();
    }

    fn payloads(log: &SharedLog) -> Vec<Bytes> {
        (0..log.len())
            .map(|o| log.read(o).unwrap().payload)
            .collect()
    }

    /// A cold recovery below the newest checkpoint rolls back what is above
    /// it, as the in-memory rollback does: a second recovery adopts neither
    /// its manifests nor its entries.
    #[test]
    fn a_second_cold_recovery_does_not_adopt_a_rolled_back_checkpoint() {
        let (device, blobs) = (
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
        );
        let recover = |at_most| {
            device.crash();
            SharedLog::recover(ShardId(0), device.clone(), blobs.clone(), at_most).unwrap()
        };
        let log = SharedLog::new(ShardId(0), device.clone(), blobs.clone());
        for i in [10, 20, 30] {
            commit(&log, i);
        }
        let log = recover(Some(Version(1)));
        assert_eq!(
            (payloads(&log), log.current_version()),
            (vec![payload(10)], Version(4))
        );
        commit(&log, 40);
        let log = recover(None);
        assert_eq!(
            (log.durable_version(), payloads(&log)),
            (Version(4), vec![payload(10), payload(40)])
        );
    }

    /// Entries written after an in-memory rollback lie on the device after
    /// the ones they replace; a recovery reads the new ones.
    #[test]
    fn entries_rewritten_after_a_rollback_replace_the_rolled_back_ones() {
        let (log, device, blobs) = log();
        commit(&log, 10);
        commit(&log, 20);
        log.restore(Version(1)).unwrap();
        commit(&log, 30);
        device.crash();
        let log = SharedLog::recover(ShardId(0), device, blobs, None).unwrap();
        assert_eq!(payloads(&log), vec![payload(10), payload(30)]);
    }

    #[test]
    fn empty_recovery() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        let log = SharedLog::recover(ShardId(0), device, blobs, None).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.durable_version(), Version::ZERO);
    }

    #[test]
    fn manifest_decode_rejects_every_prefix_and_header_flip() {
        let manifest = LogManifest {
            version: Version(7),
            until_offset: 40,
            device_until: 1200,
            consumers: BTreeMap::from([(ConsumerId(1), 12), (ConsumerId(9), 40)]),
        };
        let buf = manifest.encode();
        assert_eq!(LogManifest::decode(&buf).unwrap(), manifest);
        let rejected =
            |bytes: &[u8]| matches!(LogManifest::decode(bytes), Err(DprError::Storage(_)));
        for len in 0..buf.len() {
            assert!(rejected(&buf[..len]), "prefix of {len} bytes");
        }
        // Magic and format word, then the consumer count: a forged count
        // disagrees with the bytes present and is refused before any entry
        // is read.
        for at in (0..6).chain(30..34) {
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            assert!(rejected(&bad), "byte {at} flipped");
        }
    }

    #[test]
    fn json_manifests_of_older_builds_are_storage_errors() {
        let json = br#"{"version":1,"until_offset":1,"consumers":{"9":1}}"#;
        let (log, device, blobs) = log();
        log.enqueue(payload(1));
        log.request_commit(None);
        log.take_commits();
        blobs
            .put(&LogManifest::blob_name(Version(1)), json)
            .unwrap();
        assert!(matches!(log.restore(Version(1)), Err(DprError::Storage(_))));
        assert!(matches!(
            SharedLog::recover(ShardId(0), device, blobs, None),
            Err(DprError::Storage(_))
        ));
    }
}
