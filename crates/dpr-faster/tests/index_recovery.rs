//! The hash index across restarts and below memory: recovery from a
//! manifest of the build before chains were keyed by upper hash bits, and
//! what a lookup of an evicted key costs the device.

use dpr_core::{Key, Result, SessionId, Value, Version};
use dpr_faster::{CheckpointManifest, FasterConfig, FasterKv, RecordLog, NONE_ADDRESS};
use dpr_storage::{BlobStore, LogDevice, MemBlobStore, MemLogDevice};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config(memory_budget_records: usize) -> FasterConfig {
    FasterConfig {
        memory_budget_records,
        auto_maintenance: false,
        ..FasterConfig::default()
    }
}

/// What the previous build left behind: a log whose `prev` pointers link
/// the records of one of 65,536 buckets of *low* hash bits, and a format-2
/// manifest that says `index_buckets = 65536`. Two keys of one of today's
/// chains are then on different old chains, so no walk along old links
/// finds both; recovery must not rely on them.
#[test]
fn recovers_from_a_manifest_of_low_bit_buckets() {
    const BUCKETS: u64 = 1 << 16;
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let mut expected: HashMap<u64, Option<u64>> = HashMap::new();
    let until = {
        let log = RecordLog::new(device.clone(), 1 << 24);
        let mut heads: HashMap<u64, u64> = HashMap::new();
        let mut write = |k: u64, v: Option<u64>, version: u64| {
            let key = Key::from_u64(k);
            let bucket = key.hash64() & (BUCKETS - 1);
            let prev = heads.get(&bucket).copied().unwrap_or(NONE_ADDRESS);
            let value = Value::from_u64(v.unwrap_or(0));
            let addr = log.append(&key, &value, Version(version), v.is_none(), prev);
            heads.insert(bucket, addr);
            expected.insert(k, v);
        };
        for k in 0..5000u64 {
            write(k, Some(k), 1);
        }
        for k in (0..5000u64).step_by(3) {
            write(k, Some(k + 10_000), 2);
        }
        for k in (0..5000u64).step_by(50) {
            write(k, None, 2);
        }
        let until = log.seal_to_tail();
        assert_eq!(log.flush_until(until).unwrap(), until);
        until
    };
    CheckpointManifest {
        version: Version(2),
        until_address: until,
        purged: Vec::new(),
        commit_points: BTreeMap::new(),
        snapshot_blob: None,
        device_scan_base: 0,
        index_buckets: BUCKETS,
        segments: vec![(0, 0, until)],
    }
    .write_to(blobs.as_ref())
    .unwrap();
    // The blob as that build wrote it: the same layout under format word 2.
    let name = CheckpointManifest::blob_name(Version(2));
    let mut blob = blobs.get(&name).unwrap().unwrap().to_vec();
    blob[4..6].copy_from_slice(&2u16.to_le_bytes());
    blobs.put(&name, &blob).unwrap();

    let check = |kv: &Arc<FasterKv>, expected: &HashMap<u64, Option<u64>>| {
        for (&k, &want) in expected {
            let got = kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64());
            assert_eq!(got, want, "key {k}");
        }
    };
    let kv = FasterKv::recover(config(1 << 16), device.clone(), blobs.clone(), None).unwrap();
    assert_eq!(kv.durable_version(), Version(2));
    check(&kv, &expected);

    // The recovered store carries on, and its own checkpoint recovers too.
    let s = kv.start_session(SessionId(1));
    for k in 4990..5010u64 {
        s.upsert(Key::from_u64(k), Value::from_u64(k + 20_000))
            .unwrap();
        expected.insert(k, Some(k + 20_000));
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(3), Duration::from_secs(10)));
    drop(s);
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config(1 << 16), device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(3));
    assert!(kv.recovered_manifest().unwrap().index_buckets > 0);
    check(&kv, &expected);
}

/// Counts the reads a store sends its device.
struct CountingDevice {
    inner: MemLogDevice,
    reads: AtomicU64,
}

impl LogDevice for CountingDevice {
    fn append(&self, data: &[u8]) -> Result<u64> {
        self.inner.append(data)
    }
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(addr, buf)
    }
    fn flush(&self) -> Result<u64> {
        self.inner.flush()
    }
    fn tail(&self) -> u64 {
        self.inner.tail()
    }
    fn durable_frontier(&self) -> u64 {
        self.inner.durable_frontier()
    }
    fn truncate_before(&self, addr: u64) -> Result<()> {
        self.inner.truncate_before(addr)
    }
}

/// 200k keys in a store budgeted a quarter of them: the index has 2^17
/// chains, so a chain holds a key or two, and a small record comes back in
/// one device read. A lookup of an evicted key therefore costs the device
/// one or two reads, where 65,536 shared buckets and two reads per record
/// cost it six.
#[test]
fn a_cold_lookup_costs_at_most_two_device_reads_at_the_median() {
    const KEYS: u64 = 200_000;
    let device = Arc::new(CountingDevice {
        inner: MemLogDevice::null(),
        reads: AtomicU64::new(0),
    });
    let kv = FasterKv::new(
        config(KEYS as usize / 4),
        device.clone(),
        Arc::new(MemBlobStore::new()),
    );
    let s = kv.start_session(SessionId(1));
    for k in 0..KEYS {
        s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(60)));
    assert!(kv.force_evict() > 0);

    let mut reads: Vec<u64> = (0..2000u64)
        .map(|i| {
            let k = i * 7919 % (KEYS / 2);
            let before = device.reads.load(Ordering::Relaxed);
            let got = kv.get(&Key::from_u64(k)).unwrap();
            assert_eq!(got.and_then(|v| v.as_u64()), Some(k));
            device.reads.load(Ordering::Relaxed) - before
        })
        .collect();
    reads.sort_unstable();
    assert!(reads[0] >= 1, "the sampled keys are evicted");
    let median = reads[reads.len() / 2];
    let mean = reads.iter().sum::<u64>() as f64 / reads.len() as f64;
    assert!(median <= 2, "median {median} device reads per cold lookup");
    assert!(mean < 3.0, "mean {mean:.2} device reads per cold lookup");
}
