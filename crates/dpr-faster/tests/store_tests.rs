//! Behavioral tests for the FASTER-style store: checkpoints, rollback,
//! crash recovery, pending operations.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::record::record_footprint;
use dpr_faster::{EvictionTotals, FasterConfig, FasterKv, OpOutcome, Phase, PAGE_SIZE};
use dpr_storage::{MemBlobStore, MemLogDevice, StorageProfile};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::Maintainer;

fn manual_config() -> FasterConfig {
    FasterConfig {
        memory_budget_records: 1 << 20,
        ..FasterConfig::default()
    }
}

fn new_store() -> (Arc<FasterKv>, Arc<MemLogDevice>, Arc<MemBlobStore>) {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(manual_config(), device.clone(), blobs.clone());
    (kv, device, blobs)
}

#[test]
fn upsert_read_delete_round_trip() {
    let (kv, _, _) = new_store();
    let s = kv.start_session(SessionId(1));
    s.upsert(Key::from_u64(1), Value::from_u64(10)).unwrap();
    match s.read(&Key::from_u64(1)).unwrap() {
        OpOutcome::Read { value, .. } => assert_eq!(value.unwrap().as_u64(), Some(10)),
        other => panic!("unexpected {other:?}"),
    }
    s.upsert(Key::from_u64(1), Value::from_u64(20)).unwrap();
    match s.read(&Key::from_u64(1)).unwrap() {
        OpOutcome::Read { value, .. } => assert_eq!(value.unwrap().as_u64(), Some(20)),
        other => panic!("unexpected {other:?}"),
    }
    s.delete(Key::from_u64(1)).unwrap();
    match s.read(&Key::from_u64(1)).unwrap() {
        OpOutcome::Read { value, .. } => assert!(value.is_none()),
        other => panic!("unexpected {other:?}"),
    }
    // Absent key.
    match s.read(&Key::from_u64(999)).unwrap() {
        OpOutcome::Read { value, .. } => assert!(value.is_none()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn rmw_counter_accumulates() {
    let (kv, _, _) = new_store();
    let s = kv.start_session(SessionId(1));
    for _ in 0..10 {
        s.rmw(Key::from_u64(5), |old| {
            Value::from_u64(old.and_then(|v| v.as_u64()).unwrap_or(0) + 1)
        })
        .unwrap();
    }
    match s.read(&Key::from_u64(5)).unwrap() {
        OpOutcome::Read { value, .. } => assert_eq!(value.unwrap().as_u64(), Some(10)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn checkpoint_commits_version_and_captures_session_serials() {
    let (kv, _, _) = new_store();
    let s = kv.start_session(SessionId(7));
    for i in 0..5u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    assert_eq!(kv.durable_version(), Version::ZERO);
    assert!(kv.request_checkpoint(None));
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
    assert_eq!(kv.durable_version(), Version(1));
    assert_eq!(kv.current_version(), Version(2));
    let infos = kv.take_completed_checkpoints();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].version, Version(1));
    let cp = &infos[0].commit_points[&SessionId(7)];
    assert_eq!(cp.serial, 5, "all 5 ops inside version 1");
    assert!(cp.exceptions.is_empty());
}

#[test]
fn duplicate_checkpoint_requests_are_rejected() {
    let (kv, _, _) = new_store();
    assert!(kv.request_checkpoint(None));
    assert!(!kv.request_checkpoint(None), "one already queued");
}

#[test]
fn ops_after_boundary_are_in_next_version() {
    let (kv, _, _) = new_store();
    let s = kv.start_session(SessionId(1));
    let before = s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
    assert_eq!(before.version(), Some(Version(1)));
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
    let after = s.upsert(Key::from_u64(2), Value::from_u64(2)).unwrap();
    assert_eq!(after.version(), Some(Version(2)));
}

#[test]
fn checkpoint_fast_forward_reaches_target_version() {
    let (kv, _, _) = new_store();
    kv.request_checkpoint(Some(Version(10)));
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
    assert_eq!(
        kv.current_version(),
        Version(10),
        "fast-forwarded past 2..9"
    );
    let s = kv.start_session(SessionId(1));
    let out = s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
    assert_eq!(out.version(), Some(Version(10)));
}

#[test]
fn crash_recovery_restores_committed_prefix_only() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    {
        let kv = FasterKv::new(manual_config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        for i in 0..20u64 {
            s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
        }
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
        // Uncommitted writes in version 2 — should vanish on crash.
        for i in 0..20u64 {
            s.upsert(Key::from_u64(i), Value::from_u64(i + 1000))
                .unwrap();
        }
        s.upsert(Key::from_u64(777), Value::from_u64(777)).unwrap();
    }
    device.crash();
    let kv = FasterKv::recover(manual_config(), device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(1));
    for i in 0..20u64 {
        let v = kv.get(&Key::from_u64(i)).unwrap().unwrap();
        assert_eq!(v.as_u64(), Some(i), "committed value for key {i}");
    }
    assert!(
        kv.get(&Key::from_u64(777)).unwrap().is_none(),
        "v2 write lost"
    );
    // The recovered store keeps working.
    let s = kv.start_session(SessionId(2));
    s.upsert(Key::from_u64(777), Value::from_u64(1)).unwrap();
    assert!(kv.get(&Key::from_u64(777)).unwrap().is_some());
}

#[test]
fn recovery_of_empty_store_is_empty() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::recover(manual_config(), device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version::ZERO);
    assert!(kv.get(&Key::from_u64(1)).unwrap().is_none());
}

#[test]
fn rollback_discards_versions_above_safe_point() {
    let (kv, _, _) = new_store();
    let s = kv.start_session(SessionId(1));
    for i in 0..10u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
    // Version-2 writes that will be rolled back.
    for i in 0..10u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i + 500))
            .unwrap();
    }
    s.upsert(Key::from_u64(42), Value::from_u64(42)).unwrap();
    kv.request_rollback(Version(1));
    // Drive the rollback machine: Throw needs the session to observe.
    for _ in 0..100 {
        kv.tick();
        s.refresh();
        if kv.current_phase() == Phase::Rest && kv.current_version() == Version(3) {
            break;
        }
    }
    assert_eq!(kv.current_phase(), Phase::Rest);
    assert_eq!(kv.current_version(), Version(3), "ops resume in v+1");
    // Rolled-back values invisible; version-1 values restored.
    for i in 0..10u64 {
        match s.read(&Key::from_u64(i)).unwrap() {
            OpOutcome::Read { value, .. } => {
                assert_eq!(value.unwrap().as_u64(), Some(i), "key {i} back to v1")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    match s.read(&Key::from_u64(42)).unwrap() {
        OpOutcome::Read { value, .. } => assert!(value.is_none(), "v2-only key erased"),
        other => panic!("unexpected {other:?}"),
    }
    // New writes post-rollback are visible.
    s.upsert(Key::from_u64(42), Value::from_u64(4242)).unwrap();
    match s.read(&Key::from_u64(42)).unwrap() {
        OpOutcome::Read { value, .. } => assert_eq!(value.unwrap().as_u64(), Some(4242)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn rollback_then_checkpoint_then_crash_recovery() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    {
        let kv = FasterKv::new(manual_config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
        s.upsert(Key::from_u64(1), Value::from_u64(2)).unwrap(); // v2, doomed
        kv.request_rollback(Version(1));
        for _ in 0..100 {
            kv.tick();
            s.refresh();
            if kv.current_phase() == Phase::Rest && kv.current_version() == Version(3) {
                break;
            }
        }
        s.upsert(Key::from_u64(2), Value::from_u64(3)).unwrap(); // v3
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(3), Duration::from_secs(5)));
    }
    device.crash();
    let kv = FasterKv::recover(manual_config(), device, blobs, None).unwrap();
    assert_eq!(kv.durable_version(), Version(3));
    assert_eq!(
        kv.get(&Key::from_u64(1)).unwrap().unwrap().as_u64(),
        Some(1),
        "purged v2 write must not resurrect"
    );
    assert_eq!(
        kv.get(&Key::from_u64(2)).unwrap().unwrap().as_u64(),
        Some(3)
    );
}

/// A cold recovery rolls back what lies above the version it recovers as
/// the in-memory rollback does, or the next checkpoint reuses a version
/// whose rolled-back manifest is still above it and the next recovery
/// adopts that manifest.
#[test]
fn a_second_cold_recovery_does_not_adopt_a_rolled_back_checkpoint() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let key = Key::from_u64(1);
    let write_and_checkpoint = |kv: &Arc<FasterKv>, value: u64| {
        let s = kv.start_session(SessionId(value));
        s.upsert(key.clone(), Value::from_u64(value)).unwrap();
        let version = kv.current_version();
        assert!(kv.request_checkpoint(None));
        assert!(kv.wait_for_durable(version, Duration::from_secs(5)));
    };
    let recover = |at_most| {
        device.crash();
        FasterKv::recover(manual_config(), device.clone(), blobs.clone(), at_most).unwrap()
    };
    let read = |kv: &Arc<FasterKv>| kv.get(&key).unwrap().and_then(|v| v.as_u64());
    let kv = FasterKv::new(manual_config(), device.clone(), blobs.clone());
    for value in [10, 20, 30] {
        write_and_checkpoint(&kv, value);
    }
    let kv = recover(Some(Version(1)));
    assert_eq!((read(&kv), kv.current_version()), (Some(10), Version(4)));
    write_and_checkpoint(&kv, 40);
    let kv = recover(None);
    assert_eq!((kv.durable_version(), read(&kv)), (Version(4), Some(40)));
}

#[test]
fn pending_read_resolves_from_device_after_eviction() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 0, // floor is 2 pages = 4,096 records
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config, device, blobs);
    let s = kv.start_session(SessionId(1));
    // Write enough records to overflow the memory budget several times.
    let n = 40_000u64;
    for i in 0..n {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    // Seal and flush so eviction can happen, then evict.
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(30)));
    kv.force_evict();
    // Old keys now live on the device.
    let mut pending = 0;
    let mut direct = 0;
    for i in 0..100u64 {
        match s.read(&Key::from_u64(i)).unwrap() {
            OpOutcome::Pending(_) => pending += 1,
            OpOutcome::Read { value, .. } => {
                assert_eq!(value.unwrap().as_u64(), Some(i));
                direct += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        pending > 0,
        "expected evicted keys to go pending (direct={direct})"
    );
    let done = s.complete_pending().unwrap();
    assert_eq!(done.len(), pending);
    for c in &done {
        assert!(!c.lost);
        assert!(c.value.is_some());
    }
}

#[test]
fn commit_point_exceptions_include_outstanding_pendings() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 0,
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config, device, blobs);
    let s = kv.start_session(SessionId(3));
    for i in 0..40_000u64 {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(1), Duration::from_secs(30)));
    kv.force_evict();
    // Issue reads that go pending, then checkpoint with them outstanding.
    let mut pending_serials = Vec::new();
    for i in 0..50u64 {
        if let OpOutcome::Pending(t) = s.read(&Key::from_u64(i)).unwrap() {
            pending_serials.push(t.serial);
        }
    }
    assert!(!pending_serials.is_empty());
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(2), Duration::from_secs(30)));
    let infos = kv.take_completed_checkpoints();
    let cp = &infos.last().unwrap().commit_points[&SessionId(3)];
    for serial in &pending_serials {
        assert!(
            cp.exceptions.contains(serial),
            "pending serial {serial} must be excepted from the commit"
        );
    }
    // Relaxed CPR: the session can still resolve them afterwards.
    let done = s.complete_pending().unwrap();
    assert_eq!(done.len(), pending_serials.len());
}

#[test]
fn concurrent_sessions_with_checkpoints_under_load() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 1 << 22,
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config, device, blobs);
    let _maintainer = Maintainer::start(&kv);
    let threads = 4;
    let ops_per_thread = 20_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let kv = kv.clone();
            scope.spawn(move || {
                let s = kv.start_session(SessionId(t));
                for i in 0..ops_per_thread {
                    let key = Key::from_u64((t * ops_per_thread + i) % 1000);
                    if i % 2 == 0 {
                        s.upsert(key, Value::from_u64(i)).unwrap();
                    } else {
                        s.read(&key).unwrap();
                    }
                }
            });
        }
        // Trigger checkpoints while the workers run.
        let kv2 = kv.clone();
        scope.spawn(move || {
            for _ in 0..5 {
                kv2.request_checkpoint(None);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    });
    // Let the last checkpoint finish.
    let target = kv.durable_version().next();
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(target, Duration::from_secs(10)));
    assert!(kv.durable_version() >= Version(1));
}

#[test]
fn restore_to_earlier_checkpoint_after_restart() {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    {
        let kv = FasterKv::new(manual_config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        s.upsert(Key::from_u64(1), Value::from_u64(1)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
        s.upsert(Key::from_u64(1), Value::from_u64(2)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(2), Duration::from_secs(5)));
    }
    // Restore(token v1): the DPR cut said v1, even though v2 is durable.
    let kv = FasterKv::recover(manual_config(), device, blobs, Some(Version(1))).unwrap();
    assert_eq!(kv.durable_version(), Version(1));
    assert_eq!(
        kv.get(&Key::from_u64(1)).unwrap().unwrap().as_u64(),
        Some(1)
    );
}

/// A budget of B records keeps B records of the paper's size resident, not
/// twice that: a store budgeted 16,384 records (eight pages) and preloaded
/// with four times as many keys holds at most its budget and a page after
/// every write, and every key reads back, the cold ones from the device.
#[test]
fn a_record_budget_keeps_the_records_it_names_resident() {
    const BUDGET: u64 = 1 << 14;
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: BUDGET as usize,
            unflushed_limit_records: Some(BUDGET),
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let bound = BUDGET * record_footprint(8, 8) as u64 + PAGE_SIZE as u64;
    let s = kv.start_session(SessionId(1));
    for k in 0..4 * BUDGET {
        s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
        let resident = kv.log_resident_bytes();
        assert!(
            resident <= bound,
            "{resident} bytes resident after {k} writes"
        );
    }
    assert!(kv.log_tail() >= 4 * BUDGET * record_footprint(8, 8) as u64);
    for k in 0..4 * BUDGET {
        assert_eq!(kv.get(&Key::from_u64(k)).unwrap(), Some(Value::from_u64(k)));
    }
}

/// Evictions are counted: a store budgeted 4,096 records (two pages) and
/// preloaded with 16 times as many has evicted at least what it wrote beyond
/// its budget and its unflushed bound, in calls that each paid a `quiesce`.
#[test]
fn evictions_count_their_calls_and_bytes() {
    const BUDGET: u64 = 1 << 12;
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: BUDGET as usize,
            unflushed_limit_records: Some(BUDGET),
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    assert_eq!(kv.eviction_totals(), EvictionTotals::default());
    let s = kv.start_session(SessionId(1));
    for k in 0..16 * BUDGET {
        s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
    }
    let totals = kv.eviction_totals();
    let budget_bytes = BUDGET * record_footprint(8, 8) as u64;
    assert!(totals.evictions > 0);
    assert!(
        totals.evicted_bytes >= kv.log_tail() - 2 * budget_bytes,
        "{totals:?} of a {}-byte log",
        kv.log_tail()
    );
    assert_eq!(totals.evicted_bytes % PAGE_SIZE as u64, 0);
}

/// An unflushed bound above the memory budget is held to the budget:
/// eviction stops at the durable frontier, so a volatile region of 16,384
/// records (512 KiB) over a two-page budget would keep up to four times the
/// budget resident. On a device that charges every flush 2 ms, and with no
/// owner that maintains the store, the resident log never exceeds the budget
/// and a page, read after every write: the writes hold it themselves.
#[test]
fn an_unflushed_bound_above_the_budget_keeps_the_budget() {
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 0, // two pages
            unflushed_limit_records: Some(1 << 14),
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::with_profile(StorageProfile::LocalSsd)),
        Arc::new(MemBlobStore::new()),
    );
    let bound = 3 * PAGE_SIZE as u64;
    let s = kv.start_session(SessionId(1));
    let records = 16 * PAGE_SIZE as u64 / record_footprint(8, 8) as u64;
    for k in 0..records {
        s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
        let resident = kv.log_resident_bytes();
        assert!(
            resident <= bound,
            "{resident} bytes resident after {k} writes"
        );
    }
}
