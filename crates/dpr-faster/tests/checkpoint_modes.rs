//! Snapshot-mode checkpoints, strict CPR, and DPR-tied log garbage
//! collection.

use dpr_core::{CheckpointMode, Key, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_storage::{BlobStore, LogDevice, MemBlobStore, MemLogDevice};
use std::sync::Arc;
use std::time::Duration;

fn snapshot_config() -> FasterConfig {
    FasterConfig {
        memory_budget_records: 1 << 20,
        checkpoint_mode: CheckpointMode::Snapshot,
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

/// The one truncation the store used to ship cut the log below a snapshot
/// checkpoint, and with it the only copy the *running* store had of a key
/// nobody wrote again: `get` answered `Invalid("address .. is not on the
/// device")`.
#[test]
fn a_key_never_rewritten_is_readable_after_gc() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        unflushed_limit_records: Some(1 << 10),
        ..snapshot_config()
    };
    let kv = FasterKv::new(config, device, blobs);
    let s = kv.start_session(SessionId(1));
    for i in 0..50_000u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
        kv.continuous_flush();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
    for i in 50_000..100_000u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
        kv.continuous_flush();
    }
    assert!(kv.force_evict() > 0);
    // A log of distinct keys has no garbage: nothing to copy, nothing to free.
    assert_eq!(kv.collect_garbage(Version(1)).unwrap(), None);
    assert_eq!(kv.log_begin(), 0);
    for i in [5, 49_999, 50_000, 99_999] {
        let v = kv.get(&Key::from_u64(i)).unwrap();
        assert_eq!(v.and_then(|v| v.as_u64()), Some(i), "key {i}");
    }
}

/// Writes `rounds` values to each of `keys` keys, a checkpoint after each
/// round, so that every write is an append (CPR: the first write of a key in
/// a version) and every round but the last is garbage. Returns the last
/// version made durable.
fn rewrite(kv: &Arc<FasterKv>, s: &dpr_faster::Session, keys: u64, rounds: u64) -> Version {
    for round in 0..rounds {
        for i in 0..keys {
            s.upsert(Key::from_u64(i), Value::from_u64(i + round))
                .unwrap();
        }
        let v = kv.current_version();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(v, Duration::from_secs(10)));
    }
    kv.durable_version()
}

#[test]
fn gc_truncates_device_below_snapshot_checkpoint() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    // A snapshot checkpoint does not flush the log; the bounded volatile
    // region does, and only a flushed prefix can be freed. An append at the
    // bound flushes for itself, the pass's own appends too.
    let config = FasterConfig {
        unflushed_limit_records: Some(1 << 10),
        ..snapshot_config()
    };
    let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    s.upsert(Key::from_u64(7777), Value::from_u64(7)).unwrap();
    let (keys, rounds) = (5_000u64, 4u64);
    assert_eq!(rewrite(&kv, &s, keys, rounds), Version(rounds));
    // Three of four rounds are garbage: the first call runs the pass, which
    // frees nothing yet — its copies are records of version 5.
    assert_eq!(kv.collect_garbage(Version(rounds)).unwrap(), None);
    let totals = kv.compaction_totals();
    assert_eq!(totals.passes, 1);
    assert!(totals.copied_bytes > 0 && totals.freed_bytes == 0);
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(rounds + 1), Duration::from_secs(10)));
    // The cut is still below the copies.
    assert_eq!(kv.collect_garbage(Version(rounds)).unwrap(), None);
    let begin = kv.collect_garbage(Version(rounds + 1)).unwrap();
    assert_eq!(begin, Some(kv.log_begin()));
    assert!(kv.log_begin() > 0);
    assert_eq!(device.truncated_before(), kv.log_begin());
    let totals = kv.compaction_totals();
    assert_eq!(totals.freed_bytes, kv.log_begin());
    assert!(totals.copied_bytes <= totals.freed_bytes);
    // The running store and a recovery from the snapshot agree, the key
    // written once included.
    drop(s);
    let check = |kv: &Arc<FasterKv>| {
        for i in (0..keys).chain([7777]) {
            let want = if i == 7777 { 7 } else { i + rounds - 1 };
            let got = kv.get(&Key::from_u64(i)).unwrap();
            assert_eq!(got.and_then(|v| v.as_u64()), Some(want), "key {i}");
        }
    };
    check(&kv);
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config, device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(rounds + 1));
    check(&kv);
}

#[test]
fn gc_truncates_foldover_log_below_an_emptied_prefix_and_refuses_future_versions() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        checkpoint_mode: CheckpointMode::FoldOver,
        ..snapshot_config()
    };
    let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    let keys = 3_000u64;
    let durable = rewrite(&kv, &s, keys, 3);
    assert_eq!(durable, Version(3));
    // GC beyond the durable version is an error, and frees nothing.
    assert!(kv.collect_garbage(Version(9)).is_err());
    assert_eq!(kv.compaction_totals().passes, 0);
    // Two of three rounds are garbage: a pass, then a checkpoint that covers
    // its copies, then the truncation.
    assert_eq!(kv.collect_garbage(durable).unwrap(), None);
    assert_eq!(kv.compaction_totals().passes, 1);
    let durable = rewrite(&kv, &s, 1, 1);
    let begin = kv.collect_garbage(durable).unwrap();
    assert!(begin.is_some_and(|b| b > 0 && b == kv.log_begin()));
    assert_eq!(device.truncated_before(), kv.log_begin());
    // The fold-over log IS the state: what is left of it recovers all of it.
    drop(s);
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config, device, blobs, None).unwrap();
    assert_eq!(kv.log_begin(), begin.unwrap());
    for i in 0..keys {
        let want = if i == 0 { 0 } else { i + 2 };
        let got = kv.get(&Key::from_u64(i)).unwrap();
        assert_eq!(got.and_then(|v| v.as_u64()), Some(want), "key {i}");
    }
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
        // Nothing is freed: the pass this runs copies at version 201, which
        // the cut does not cover...
        assert_eq!(kv.collect_garbage(Version(cut)).unwrap(), None);
        assert_eq!(kv.log_begin(), 0);
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
        checkpoint_mode: CheckpointMode::FoldOver,
        strict_cpr: true,
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
