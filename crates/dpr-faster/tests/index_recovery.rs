//! The hash index below memory: what a lookup of an evicted key costs the
//! device.

use dpr_core::{Key, Result, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_storage::{LogDevice, MemBlobStore, MemLogDevice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config(memory_budget_records: usize) -> FasterConfig {
    FasterConfig {
        memory_budget_records,
        ..FasterConfig::default()
    }
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
