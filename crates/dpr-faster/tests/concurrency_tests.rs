//! Concurrency correctness under checkpoints: RMW atomicity, read
//! linearization against a monotone counter, and commit-point consistency
//! across racing sessions.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::{FasterConfig, FasterKv, OpOutcome};
use dpr_storage::{MemBlobStore, MemLogDevice};
use std::sync::Arc;
use std::time::Duration;

fn store() -> Arc<FasterKv> {
    FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 22,
            auto_maintenance: true,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

#[test]
fn rmw_increments_are_never_lost_across_threads_and_checkpoints() {
    let kv = store();
    let threads = 4u64;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let kv = kv.clone();
            scope.spawn(move || {
                let session = kv.start_session(SessionId(t));
                for _ in 0..per_thread {
                    session
                        .rmw(Key::from_u64(0), |old| {
                            Value::from_u64(old.and_then(|v| v.as_u64()).unwrap_or(0) + 1)
                        })
                        .unwrap();
                }
            });
        }
        // Checkpoints race the increments.
        let kv2 = kv.clone();
        scope.spawn(move || {
            for _ in 0..20 {
                kv2.request_checkpoint(None);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    });
    assert_eq!(
        kv.get(&Key::from_u64(0)).unwrap().unwrap().as_u64(),
        Some(threads * per_thread),
        "every RMW increment must survive checkpoint boundaries"
    );
}

/// An RMW whose result outgrows its record copies the value into a new one;
/// an in-place RMW that lands on the old record between that copy's read and
/// its publish would be lost under it. One session appends a byte to the
/// value per RMW (every eighth leaves the record's size class), the other
/// increments the value's first eight bytes, both in one version.
#[test]
fn an_rmw_that_outgrows_its_record_loses_no_concurrent_in_place_rmw() {
    const GROWTHS: usize = 2_000;
    const INCREMENTS: u64 = 400_000;
    let kv = FasterKv::new(
        FasterConfig {
            auto_maintenance: false,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let key = Key::from_u64(0);
    let counter = |v: &Value| u64::from_be_bytes(v.as_bytes()[..8].try_into().unwrap());
    kv.start_session(SessionId(0))
        .upsert(key.clone(), Value::from_u64(0))
        .unwrap();
    let both_started = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let session = kv.start_session(SessionId(1));
            both_started.wait();
            for _ in 0..GROWTHS {
                session
                    .rmw(key.clone(), |old| {
                        let mut bytes = old.expect("written above").as_bytes().to_vec();
                        bytes.push(0xAB);
                        Value(bytes.into())
                    })
                    .unwrap();
                std::thread::yield_now();
            }
        });
        scope.spawn(|| {
            let session = kv.start_session(SessionId(2));
            both_started.wait();
            for _ in 0..INCREMENTS {
                session
                    .rmw(key.clone(), move |old| {
                        let mut bytes = old.expect("written above").as_bytes().to_vec();
                        let next = counter(old.unwrap()) + 1;
                        bytes[..8].copy_from_slice(&next.to_be_bytes());
                        Value(bytes.into())
                    })
                    .unwrap();
            }
        });
    });
    let value = kv.get(&key).unwrap().unwrap();
    assert_eq!(counter(&value), INCREMENTS, "increments lost");
    assert_eq!(value.len(), 8 + GROWTHS, "appended bytes lost");
    assert_eq!(kv.current_version(), Version(1), "one version throughout");
}

#[test]
fn reads_of_a_monotone_counter_never_go_backwards() {
    // One writer increments a counter; one reader must observe a
    // non-decreasing sequence even across version boundaries.
    let kv = store();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        let writer_kv = kv.clone();
        let writer_stop = stop.clone();
        scope.spawn(move || {
            let session = writer_kv.start_session(SessionId(1));
            let mut v = 0u64;
            while !writer_stop.load(std::sync::atomic::Ordering::Acquire) {
                v += 1;
                session
                    .upsert(Key::from_u64(9), Value::from_u64(v))
                    .unwrap();
            }
        });
        let chk_kv = kv.clone();
        let chk_stop = stop.clone();
        scope.spawn(move || {
            while !chk_stop.load(std::sync::atomic::Ordering::Acquire) {
                chk_kv.request_checkpoint(None);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let reader_kv = kv.clone();
        scope.spawn(move || {
            let session = reader_kv.start_session(SessionId(2));
            let mut last = 0u64;
            for _ in 0..50_000 {
                if let OpOutcome::Read { value: Some(v), .. } =
                    session.read(&Key::from_u64(9)).unwrap()
                {
                    let now = v.as_u64().unwrap();
                    assert!(now >= last, "monotone counter regressed: {last} -> {now}");
                    last = now;
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
    });
}

#[test]
fn racing_sessions_get_consistent_commit_points() {
    // Two sessions race a checkpoint; each commit point must equal a serial
    // the session actually reached, and replaying that many ops of each
    // session against a model must match the recovered state.
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 22,
            auto_maintenance: true,
            ..FasterConfig::default()
        },
        device.clone(),
        blobs.clone(),
    );
    let per_session = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let kv = kv.clone();
            scope.spawn(move || {
                let session = kv.start_session(SessionId(t));
                for i in 0..per_session {
                    // Session t writes value i to its own key range.
                    session
                        .upsert(Key::from_u64(t * 100_000 + (i % 64)), Value::from_u64(i))
                        .unwrap();
                }
            });
        }
        let kv2 = kv.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            kv2.request_checkpoint(None);
        });
    });
    // Seal everything that's still volatile so the manifest is final.
    let target = kv.durable_version().next();
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(target, Duration::from_secs(10)));
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(
        FasterConfig {
            memory_budget_records: 1 << 22,
            auto_maintenance: false,
            ..FasterConfig::default()
        },
        device,
        blobs,
        None,
    )
    .unwrap();
    let manifest = kv.recovered_manifest().expect("manifest").clone();
    for t in 0..2u64 {
        let n = manifest
            .commit_points
            .get(&SessionId(t))
            .map(|cp| cp.serial)
            .unwrap_or(0);
        assert!(n <= per_session, "commit point bounded by issued ops");
        // Model: key (t, k) holds the LAST i < n with i % 64 == k.
        for k in 0..64u64 {
            let expect = if n == 0 {
                None
            } else {
                let last = n - 1;
                let candidate = last - ((last % 64 + 64 - k) % 64);
                Some(candidate).filter(|_| candidate < n)
            };
            let got = kv
                .get(&Key::from_u64(t * 100_000 + k))
                .unwrap()
                .and_then(|v| v.as_u64());
            assert_eq!(
                got, expect,
                "session {t} key {k}: commit point {n} must match recovered state"
            );
        }
    }
    assert_eq!(kv.durable_version(), Version(manifest.version.0));
}
