//! Concurrency correctness under checkpoints: RMW atomicity, read
//! linearization against a monotone counter, commit-point consistency
//! across racing sessions, and chain links that racing publishes leave on
//! the device.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::record::record_footprint;
use dpr_faster::{FasterConfig, FasterKv, Op, OpOutcome};
use dpr_storage::{LatencyModel, MemBlobStore, MemLogDevice};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Maintainer;

fn store() -> Arc<FasterKv> {
    FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 22,
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

#[test]
fn rmw_increments_are_never_lost_across_threads_and_checkpoints() {
    let kv = store();
    let _maintainer = Maintainer::start(&kv);
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
        FasterConfig::default(),
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
    let _maintainer = Maintainer::start(&kv);
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let writer_kv = kv.clone();
        let writer_stop = stop.clone();
        scope.spawn(move || {
            let session = writer_kv.start_session(SessionId(1));
            let mut v = 0u64;
            while !writer_stop.load(Ordering::Acquire) {
                v += 1;
                session
                    .upsert(Key::from_u64(9), Value::from_u64(v))
                    .unwrap();
            }
        });
        let chk_kv = kv.clone();
        let chk_stop = stop.clone();
        scope.spawn(move || {
            while !chk_stop.load(Ordering::Acquire) {
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
            stop.store(true, Ordering::Release);
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
            ..FasterConfig::default()
        },
        device.clone(),
        blobs.clone(),
    );
    let maintainer = Maintainer::start(&kv);
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
    drop(maintainer);
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(
        FasterConfig {
            memory_budget_records: 1 << 22,
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

/// A session whose publish loses the race to another key of its chain
/// appends its record again over the head it lost to. Relinking the first
/// one in memory instead is too late if a flush has copied it already: the
/// device keeps the old link, and recovery walks the chain from it past the
/// record that won. Eight writers put 4,000 keys of one chain with the
/// flusher right behind the tail; after a crash every key reads its write.
#[test]
fn a_lost_publish_race_leaves_no_stale_link_on_the_device() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 500;
    let config = FasterConfig {
        // 2^12 chain identities: a key's chain is its hash's top 12 bits.
        memory_budget_records: 0,
        // Flush to two records below the tail.
        unflushed_limit_records: Some(2),
        ..FasterConfig::default()
    };
    let keys: Vec<Key> = (0u64..)
        .map(Key::from_u64)
        .filter(|k| k.hash64() >> 52 == 0)
        .take(WRITERS * PER_WRITER)
        .collect();
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = keys
            .chunks(PER_WRITER)
            .enumerate()
            .map(|(t, mine)| {
                let kv = kv.clone();
                scope.spawn(move || {
                    let s = kv.start_session(SessionId(t as u64));
                    for (i, key) in mine.iter().enumerate() {
                        s.upsert(key.clone(), Value::from_u64(i as u64)).unwrap();
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                kv.continuous_flush();
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    let sealing = kv.current_version();
    while !kv.request_checkpoint(None) {
        kv.maintain();
    }
    assert!(kv.wait_for_durable(sealing, Duration::from_secs(30)));
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config, device, blobs, None).unwrap();
    for (i, key) in keys.iter().enumerate() {
        let got = kv.get(key).unwrap().and_then(|v| v.as_u64());
        assert_eq!(got, Some((i % PER_WRITER) as u64), "key {i} of the chain");
    }
}

/// A batch runs under one epoch guard, and an append of it that waits for
/// the flusher refreshes the guard while it waits: an eviction waits for
/// every guard, so a guard held through the waits would hold eviction off
/// until the batch's own next refresh, 64 operations on. Here each 16 KiB
/// record of one batch waits for a 10 ms flush (a one-page unflushed bound)
/// while a second session reads a missing key again and again, each read
/// evicting once the log is over its four pages: the longest read takes
/// under 200 ms (15–40 ms measured; ~650 with the refresh in the wait
/// removed). The bound is the property, and an unoptimised build on a
/// loaded host can miss it: it runs in release only, 20 times in
/// `scripts/check.sh`.
#[test]
#[cfg_attr(debug_assertions, ignore = "a wall-clock bound, held in release")]
fn a_batch_that_waits_for_the_flusher_does_not_hold_off_eviction() {
    let flush_fixed = Duration::from_millis(10);
    let device = MemLogDevice::new(LatencyModel {
        flush_fixed,
        flush_per_mib: Duration::ZERO,
    });
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 4 * dpr_faster::PAGE_SIZE / record_footprint(8, 8),
            unflushed_limit_records: Some(4),
            ..FasterConfig::default()
        },
        Arc::new(device),
        Arc::new(MemBlobStore::new()),
    );
    let value = Value::from("v".repeat(16 << 10).as_str());
    let keys: Vec<Key> = (0..300).map(|i| Key::from_u64(i % 100)).collect();
    let done = AtomicBool::new(false);
    let longest = std::thread::scope(|scope| {
        scope.spawn(|| {
            let ops = keys.iter().map(|k| Op::Upsert(k, &value));
            kv.start_session(SessionId(1)).execute(ops, |_| {}).unwrap();
            done.store(true, Ordering::Release);
        });
        let (reader, missing) = (kv.start_session(SessionId(2)), Key::from_u64(u64::MAX));
        let mut longest = Duration::ZERO;
        while !done.load(Ordering::Acquire) {
            let began = Instant::now();
            reader.read(&missing).unwrap();
            longest = longest.max(began.elapsed());
        }
        longest
    });
    let evicted = kv.log_resident_bytes() < kv.log_tail() / 2;
    assert!(evicted && longest < 20 * flush_fixed, "{longest:?}");
}
