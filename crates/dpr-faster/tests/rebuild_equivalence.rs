//! Recovery-rebuild equivalence: recovering the same durable log with a
//! single-threaded index rebuild and with a heavily parallel one must
//! produce byte-identical observable state. The parallel rebuild races
//! page-partitioned scans into the index with last-writer-wins-by-address
//! publishes, and the index doubles under them as chains appear (6,000 keys
//! take it from 512 slots to 16,384), so the outcome must be independent of
//! the thread count and of where the doublings fall.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv};
use dpr_storage::{MemBlobStore, MemLogDevice};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn config(rebuild_threads: usize) -> FasterConfig {
    FasterConfig {
        recovery_rebuild_threads: rebuild_threads,
        ..FasterConfig::default()
    }
}

const KEYS: u64 = 6000;

#[test]
fn parallel_rebuild_equals_sequential_rebuild() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let mut expected: HashMap<u64, u64> = HashMap::new();
    {
        let kv = FasterKv::new(config(1), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        // Several generations of overwrites and deletes across two
        // checkpointed versions, so chains have depth and the log spans
        // enough pages (12) to give each of eight threads its own.
        for i in 0..16_000u64 {
            s.upsert(Key::from_u64(i % KEYS), Value::from_u64(i))
                .unwrap();
            expected.insert(i % KEYS, i);
        }
        for i in 0..200u64 {
            s.delete(Key::from_u64(i * 7 % KEYS)).unwrap();
            expected.remove(&(i * 7 % KEYS));
        }
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
        for i in 0..8000u64 {
            s.upsert(Key::from_u64(i % 3600), Value::from_u64(i + 100_000))
                .unwrap();
            expected.insert(i % 3600, i + 100_000);
        }
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(2), Duration::from_secs(10)));
    }

    // (log tail, sorted scan_live pairs, point reads for every key)
    type Observed = (u64, Vec<(u64, u64)>, Vec<(u64, Option<u64>)>);
    let observe = |threads: usize| -> Observed {
        let kv = FasterKv::recover(config(threads), device.clone(), blobs.clone(), None).unwrap();
        let mut live: Vec<(u64, u64)> = kv
            .scan_live()
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.as_u64().unwrap(), v.as_u64().unwrap()))
            .collect();
        live.sort_unstable();
        let gets: Vec<(u64, Option<u64>)> = (0..KEYS)
            .map(|k| {
                (
                    k,
                    kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64()),
                )
            })
            .collect();
        (kv.log_tail(), live, gets)
    };

    let (tail_seq, live_seq, gets_seq) = observe(1);
    let (tail_par, live_par, gets_par) = observe(8);

    assert_eq!(tail_seq, tail_par, "recovered tails diverge");
    assert_eq!(live_seq, live_par, "scan_live diverges");
    assert_eq!(gets_seq, gets_par, "point reads diverge");

    // And both must match what was actually committed.
    for (k, got) in &gets_seq {
        assert_eq!(
            *got,
            expected.get(k).copied(),
            "key {k} diverges from the written state"
        );
    }
    let mut want: Vec<(u64, u64)> = expected.into_iter().collect();
    want.sort_unstable();
    assert_eq!(live_seq, want, "scan_live diverges from the written state");
}
