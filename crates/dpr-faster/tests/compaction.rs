//! The log has a beginning: copy-forward passes and the truncations that
//! follow them (`FasterKv::collect_garbage`), under concurrent writers, across
//! a rollback, by the numbers, and on the device.
//!
//! The three invariants of `docs/PROTOCOL.md` §5 — a copy is a record of its
//! own version, nothing is freed above the cut, every kept manifest recovers
//! — are each checked here or in `log_crash_points.rs`.

use dpr_core::{Key, Rng, SessionId, Value, Version};
use dpr_faster::{CompactionTotals, FasterConfig, FasterKv, OpOutcome, Session, PAGE_SIZE};
use dpr_storage::file::MIN_SEGMENT_BYTES;
use dpr_storage::{FileLogDevice, LatencyModel, LogDevice, MemBlobStore, MemLogDevice};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config(auto_maintenance: bool) -> FasterConfig {
    FasterConfig {
        memory_budget_records: 0, // two pages: 4,096 records of the paper's size
        auto_maintenance,
        ..FasterConfig::default()
    }
}

fn read(kv: &Arc<FasterKv>, k: u64) -> Option<u64> {
    kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64())
}

/// Checkpoint the current version and wait for it.
fn checkpoint(kv: &Arc<FasterKv>) -> Version {
    let v = kv.current_version();
    assert!(kv.request_checkpoint(None));
    assert!(kv.wait_for_durable(v, Duration::from_secs(10)));
    v
}

/// One value per key and round, a checkpoint after each round: every write
/// is the first of its key in its version, so an append.
fn rewrite(kv: &Arc<FasterKv>, s: &Session, keys: u64, rounds: std::ops::Range<u64>) {
    for round in rounds {
        for k in 0..keys {
            s.upsert(Key::from_u64(k), Value::from_u64(k + 1000 * round))
                .unwrap();
        }
        checkpoint(kv);
    }
}

/// What one writer did to one of its keys last.
type Model = HashMap<u64, Option<u64>>;

/// A writer's operations on keys no other writer touches, so that every read
/// has one right answer: upsert, `Incr`, delete and read, the last two through
/// `complete_pending` when the chain has left memory. It writes until `stop`.
fn write(kv: &Arc<FasterKv>, writer: u64, keys: u64, stop: &AtomicBool) -> Model {
    let s = kv.start_session(SessionId(writer));
    let mut model = Model::new();
    let mut rng = Rng::new(writer);
    for i in 0.. {
        if i % 32 == 0 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            // A checkpoint moves on when it finds every session between two
            // operations: leave it a gap to find.
            std::thread::sleep(Duration::from_micros(200));
        }
        let k = writer * keys + rng.below(keys);
        let key = Key::from_u64(k);
        let was = model.get(&k).copied().flatten();
        let (outcome, reads) = match rng.below(10) {
            0..=3 => {
                model.insert(k, Some(i));
                (s.upsert(key, Value::from_u64(i)).unwrap(), false)
            }
            4..=6 => {
                model.insert(k, Some(was.unwrap_or(0) + 1));
                let incr = |old: Option<&Value>| {
                    Value::from_u64(old.and_then(|v| v.as_u64()).unwrap_or(0) + 1)
                };
                (s.rmw(key, incr).unwrap(), false)
            }
            7 => {
                model.insert(k, None);
                (s.delete(key).unwrap(), false)
            }
            _ => (s.read(&key).unwrap(), true),
        };
        let got = match outcome {
            OpOutcome::Read { value, .. } => value,
            OpOutcome::Mutated { .. } => continue,
            OpOutcome::Pending(token) => {
                let done = s.complete_pending().unwrap();
                let done = done.iter().find(|c| c.serial == token.serial);
                let done = done.expect("the pending operation completes");
                assert!(!done.lost, "no rollback runs here");
                done.value.clone()
            }
        };
        if reads {
            assert_eq!(got.and_then(|v| v.as_u64()), was, "writer {writer} key {k}");
        }
    }
    model
}

/// (a) Four writers on a store of two resident pages while a fifth thread
/// checkpoints, runs passes and truncates as fast as it can, until the log
/// has been truncated five times, and a sixth scans the live state.
#[test]
fn writers_racing_passes_and_truncations_keep_every_key_exact() {
    const WRITERS: u64 = 4;
    const KEYS: u64 = 3_000;
    const TRUNCATIONS: u32 = 5;
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(config(true), device.clone(), blobs.clone());
    let done = AtomicBool::new(false);
    let models: Vec<Model> = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let started = std::time::Instant::now();
            let (mut begin, mut truncations) = (0, 0);
            while truncations < TRUNCATIONS {
                if started.elapsed() > Duration::from_secs(60) {
                    done.store(true, Ordering::Release);
                    panic!("{truncations} truncations: {:?}", kv.compaction_totals());
                }
                kv.request_checkpoint(None);
                std::thread::sleep(Duration::from_millis(1));
                let durable = kv.durable_version();
                if durable > Version::ZERO {
                    let freed = kv.collect_garbage(durable).unwrap();
                    assert!(kv.log_begin() >= begin, "begin moved back");
                    assert!(freed.is_none_or(|b| b == kv.log_begin() && b > begin));
                    truncations += u32::from(freed.is_some());
                    begin = kv.log_begin();
                }
            }
            done.store(true, Ordering::Release);
        });
        // A scan of the live state (key migration) meets the truncations
        // too, mostly on the device: it must skip what they take, not fail.
        let scanner = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let live = kv.scan_live().unwrap();
                assert!(live.len() as u64 <= WRITERS * KEYS);
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (kv, done) = (&kv, &done);
                scope.spawn(move || write(kv, w, KEYS, done))
            })
            .collect();
        collector.join().unwrap();
        scanner.join().unwrap();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let totals = kv.compaction_totals();
    assert!(totals.passes >= u64::from(TRUNCATIONS) && totals.copied_bytes > 0);
    let check = |kv: &Arc<FasterKv>| {
        for (k, want) in models.iter().flatten() {
            assert_eq!(read(kv, *k), *want, "key {k}");
        }
    };
    check(&kv);
    // And what is left of the log is the whole state.
    checkpoint(&kv);
    drop(kv);
    device.crash();
    check(&FasterKv::recover(config(false), device, blobs, None).unwrap());
}

/// (b) A pass skips a record a newer one has superseded. If a rollback then
/// purges the newer one, the older is live again, in a prefix the pass had
/// marked for freeing: the pass is void.
#[test]
fn a_rollback_between_a_pass_and_its_truncation_loses_no_key() {
    const KEYS: u64 = 3_000;
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(config(false), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    // Versions 1 and 2, both durable; the cut is at 1.
    rewrite(&kv, &s, KEYS, 0..2);
    assert_eq!(kv.collect_garbage(Version(1)).unwrap(), None);
    let pass = kv.compaction_totals();
    assert_eq!((pass.passes, pass.freed_bytes), (1, 0));
    // Every record of version 1 was superseded: the pass copied those of
    // version 2 and marked all of it for freeing. Version 2 is rolled back.
    kv.restore_sync(Version(1), Duration::from_secs(10))
        .unwrap();
    for k in 0..KEYS {
        assert_eq!(read(&kv, k), Some(k), "key {k} after the rollback");
    }
    // The cut moves past the version the void pass ended in. Its prefix
    // holds the only records of version 1 and must stay...
    let durable = checkpoint(&kv);
    assert_eq!(kv.collect_garbage(durable).unwrap(), None);
    assert_eq!(kv.log_begin(), 0);
    // ...until a new pass has copied them, and the cut covers that one.
    assert_eq!(kv.compaction_totals().passes, 2);
    let durable = checkpoint(&kv);
    assert!(kv.collect_garbage(durable).unwrap().is_some());
    assert!(kv.log_begin() > 0);
    let totals = kv.compaction_totals();
    assert!(totals.copied_bytes - pass.copied_bytes >= 32 * KEYS);
    for k in 0..KEYS {
        assert_eq!(read(&kv, k), Some(k), "key {k} after the truncation");
    }
    drop(s);
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config(false), device, blobs, None).unwrap();
    for k in 0..KEYS {
        assert_eq!(read(&kv, k), Some(k), "key {k} after recovery");
    }
}

/// (c) A log without garbage never runs a pass, and a pass appends no more
/// than its truncation frees.
#[test]
fn a_pass_copies_no_more_than_it_frees_and_a_preload_runs_none() {
    const KEYS: u64 = 20_000;
    let kv = FasterKv::new(
        config(false),
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let s = kv.start_session(SessionId(1));
    // Distinct keys over several versions, most of them evicted: no write
    // supersedes another.
    for chunk in 0..4 {
        for k in chunk * KEYS / 4..(chunk + 1) * KEYS / 4 {
            s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
        }
        let durable = checkpoint(&kv);
        kv.force_evict();
        assert_eq!(kv.collect_garbage(durable).unwrap(), None);
    }
    assert_eq!(kv.compaction_totals(), CompactionTotals::default());
    // Now a tenth of the keys is rewritten, round after round, until the
    // log has been through three truncations.
    let mut last = CompactionTotals::default();
    let mut copied_by_pending_pass = 0;
    let mut truncations = 0;
    let mut round = 0;
    while truncations < 3 {
        round += 1;
        assert!(round < 200, "no truncation in sight: {last:?}");
        rewrite(&kv, &s, KEYS / 10, round..round + 1);
        let begin = kv.log_begin();
        let freed = kv.collect_garbage(kv.durable_version()).unwrap();
        let now = kv.compaction_totals();
        if let Some(new_begin) = freed {
            assert_eq!(now.freed_bytes - last.freed_bytes, new_begin - begin);
            assert!(
                copied_by_pending_pass <= new_begin - begin,
                "a pass copied {copied_by_pending_pass} bytes to free {}",
                new_begin - begin
            );
            truncations += 1;
        }
        if now.passes > last.passes {
            assert_eq!(now.passes, last.passes + 1, "one pass at a time");
            copied_by_pending_pass = now.copied_bytes - last.copied_bytes;
        }
        last = now;
    }
    // All told, but for a pass the last call began.
    let waiting = kv.pending_pass().map_or(0, |_| copied_by_pending_pass);
    assert!(last.copied_bytes - waiting <= last.freed_bytes, "{last:?}");
    for k in 0..KEYS {
        let want = if k < KEYS / 10 { k + 1000 * round } else { k };
        assert_eq!(read(&kv, k), Some(want), "key {k}");
    }
}

/// (d) A resident log is at most a quarter garbage: a hot set rewritten every
/// round and cold keys written once, a checkpoint and a collection at it
/// after each round. Past the warm-up, `tail - begin` stays within 4/3 of
/// the live records and two pages: the copies of the pass that waits for the
/// next cut, and the page a pass ends on.
#[test]
fn a_resident_log_holds_at_most_a_quarter_garbage() {
    // A quarter page of hot keys. The cold ones come a hot set's worth a
    // round over the first 64 rounds, so that they lie among garbage as
    // after a run of random writes, not in one block that a pass copies
    // whole.
    const HOT: u64 = (PAGE_SIZE / 32 / 4) as u64;
    const COLD_ROUNDS: u64 = 64;
    const KEYS: u64 = HOT * (COLD_ROUNDS + 1);
    const ROUNDS: u64 = 200;
    let kv = FasterKv::new(
        FasterConfig {
            memory_budget_records: 1 << 16,
            ..config(false)
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let s = kv.start_session(SessionId(1));
    // Sixteen pages and a quarter of records of the paper's size.
    let live = 32 * KEYS;
    let bound = 4 * live / 3 + 2 * PAGE_SIZE as u64;
    for round in 0..ROUNDS {
        for k in 0..HOT {
            s.upsert(Key::from_u64(k), Value::from_u64(k + 1000 * round))
                .unwrap();
        }
        let cold = HOT * (round + 1);
        for k in cold..(cold + HOT).min(KEYS) {
            s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
        }
        kv.collect_garbage(checkpoint(&kv)).unwrap();
        let extent = kv.log_tail() - kv.log_begin();
        assert!(
            round < 2 * COLD_ROUNDS || extent <= bound,
            "round {round}: a {extent}-byte log of {live} live bytes, {:?}",
            kv.compaction_totals()
        );
    }
    assert!(kv.compaction_totals().freed_bytes > 0);
    for k in 0..KEYS {
        let want = if k < HOT { k + 1000 * (ROUNDS - 1) } else { k };
        assert_eq!(read(&kv, k), Some(want), "key {k}");
    }
}

/// (e) A log whose beginning has left memory keeps the half bound: on a store
/// of two resident pages, a dead share between a quarter and a half starts no
/// pass, and half starts none either until a memory's worth of garbage has
/// been counted.
#[test]
fn a_log_that_has_left_memory_waits_for_half_and_a_memorys_worth() {
    // A page of cold keys, evicted; a hot set of a quarter page above them.
    const COLD: u64 = (PAGE_SIZE / 32) as u64;
    const HOT: u64 = COLD / 4;
    // Two pages, the memory budget of `config`.
    const MEMORY: u64 = 2 * PAGE_SIZE as u64;
    let kv = FasterKv::new(
        config(false),
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let s = kv.start_session(SessionId(1));
    let cold = |k: u64| Key::from_u64(HOT + k);
    for k in 0..COLD {
        s.upsert(cold(k), Value::from_u64(k)).unwrap();
    }
    checkpoint(&kv);
    assert_eq!(kv.force_evict(), PAGE_SIZE as u64);
    // Each rewrite of the hot set after the first supersedes resident
    // records: a quarter page of garbage a round.
    let mut round = 0;
    while kv.compaction_totals().passes == 0 {
        rewrite(&kv, &s, HOT, round..round + 1);
        let (dead, extent) = (32 * HOT * round, kv.log_tail() - kv.log_begin());
        assert_eq!(extent, 32 * (COLD + HOT * (round + 1)));
        kv.collect_garbage(kv.durable_version()).unwrap();
        assert_eq!(
            kv.compaction_totals().passes > 0,
            2 * dead >= extent && dead >= MEMORY,
            "round {round}: {dead} of {extent} bytes dead"
        );
        round += 1;
    }
    // Rounds 2 to 4 were between a quarter and a half, 5 to 7 at half or
    // more with less than a memory's worth.
    assert_eq!(round, 9);
    for k in 0..COLD {
        assert_eq!(read(&kv, HOT + k), Some(k), "cold key {k}");
    }
}

/// (f) What a truncation frees from the log it frees from the device, in
/// whatever unit the device frees: after each truncation the device holds no
/// more than `tail - begin` and one unit. Returns how many truncations ran.
fn truncations_free_the_device(
    device: Arc<dyn LogDevice>,
    held: impl Fn() -> u64,
    unit: u64,
    rounds: u64,
) -> usize {
    // A round of them is one page: every pass ends on a page boundary.
    const KEYS: u64 = (PAGE_SIZE / 32) as u64;
    let kv = FasterKv::new(config(false), device, Arc::new(MemBlobStore::new()));
    let s = kv.start_session(SessionId(1));
    let mut truncations = 0;
    for round in 0..rounds {
        rewrite(&kv, &s, KEYS, round..round + 1);
        if kv.collect_garbage(kv.durable_version()).unwrap().is_some() {
            truncations += 1;
            let (held, log) = (held(), kv.log_tail() - kv.log_begin());
            assert!(
                held <= log + unit,
                "the device holds {held} bytes of a {log}-byte log"
            );
        }
    }
    truncations
}

/// The in-memory device's pages are the size of the log's.
#[test]
fn after_a_truncation_the_device_holds_the_log_and_at_most_a_page_more() {
    let device = Arc::new(MemLogDevice::null());
    let held = || device.held_bytes();
    let truncations = truncations_free_the_device(device.clone(), held, PAGE_SIZE as u64, 20);
    assert!(truncations >= 3, "{truncations} truncations");
}

/// A file device closes the segment files wholly below the truncation
/// point, which frees them: of a log that writes four segments and more, it
/// keeps one or two.
#[test]
fn after_a_truncation_a_file_device_holds_the_log_and_at_most_a_segment_more() {
    let device = Arc::new(FileLogDevice::temporary(LatencyModel::zero()));
    let held = || device.held_bytes();
    truncations_free_the_device(device.clone(), held, MIN_SEGMENT_BYTES, 64);
    assert!(
        device.tail() >= 4 * MIN_SEGMENT_BYTES,
        "{} appended",
        device.tail()
    );
    assert!(device.held_bytes() <= 2 * MIN_SEGMENT_BYTES);
}
