//! Crash points of the log: the device image a store left behind, cut short
//! or with one byte flipped, at every record boundary and inside records.
//! `FasterKv::recover` must refuse it or recover from it — never panic, never
//! hang, never run off a page — and what it recovers is a prefix: with the
//! tail cut off, exactly the newest checkpoint the remaining bytes cover;
//! with a byte flipped where it changes no length, no link and no key, every
//! other record; and with any byte flipped, no record reads as another's.
//! A log that copy-forward passes have shortened is cut the same way: every
//! manifest `collect_garbage` kept recovers its own checkpoint, from a device
//! that has nothing below the truncation point.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::record::record_footprint;
use dpr_faster::{FasterConfig, FasterKv, PAGE_SIZE};
use dpr_storage::{read_exact, BlobStore, LogDevice, MemBlobStore, MemLogDevice};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const RECORDS: u64 = 200;
/// The one record that is not of the paper's size; it does not fit what is
/// left of page 0, and leaves one word of page 1 unused.
const BIG: u64 = 100;
const BIG_VALUE: usize = 64_000;
/// The first checkpoint covers the records below this one.
const FIRST_CHECKPOINT: u64 = 120;

/// No single flipped byte turns one key into another.
fn key(i: u64) -> Key {
    Key::from_u64(i * 0x0101)
}

fn value(i: u64) -> Value {
    if i == BIG {
        Value(vec![i as u8; BIG_VALUE].into())
    } else {
        Value::from_u64(0x1000 + i)
    }
}

fn config() -> FasterConfig {
    FasterConfig {
        memory_budget_records: 0, // two pages: recovery leaves page 0 on the device
        ..FasterConfig::default()
    }
}

const SMALL: usize = record_footprint(8, 8);

/// Where record `i` starts: the big one at the start of page 1 (a pad fills
/// page 0 behind record 99), those that fit behind it there (a pad of one
/// word is left), the rest on page 2.
fn address(i: u64) -> usize {
    let big = record_footprint(8, BIG_VALUE);
    let on_page_1 = (PAGE_SIZE - big) / SMALL;
    match (i as usize).checked_sub(BIG as usize + 1) {
        None if i == BIG => PAGE_SIZE,
        None => SMALL * i as usize,
        Some(after) if after < on_page_1 => PAGE_SIZE + big + SMALL * after,
        Some(after) => 2 * PAGE_SIZE + SMALL * (after - on_page_1),
    }
}

/// Where the two pads start.
const PADS: [usize; 2] = [SMALL * BIG as usize, 2 * PAGE_SIZE - 8];

struct Image {
    bytes: Vec<u8>,
    blobs: Arc<MemBlobStore>,
    /// Log length at the first and at the second checkpoint.
    until: [usize; 2],
}

fn build() -> Image {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(config(), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    let mut until = [0; 2];
    for i in 0..RECORDS {
        if i == FIRST_CHECKPOINT {
            until[0] = kv.log_tail() as usize;
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
        }
        s.upsert(key(i), value(i)).unwrap();
        let end = address(i) + record_footprint(8, value(i).len());
        assert_eq!(kv.log_tail() as usize, end, "record {i}");
    }
    until[1] = kv.log_tail() as usize;
    assert!(until[1] > 2 * PAGE_SIZE, "three pages, two pads");
    kv.request_checkpoint(None);
    assert!(kv.wait_for_durable(Version(2), Duration::from_secs(10)));
    let mut bytes = vec![0u8; device.tail() as usize];
    assert_eq!(bytes.len(), until[1]);
    read_exact(device.as_ref(), 0, &mut bytes).unwrap();
    Image {
        bytes,
        blobs,
        until,
    }
}

fn recover(image: &Image, bytes: &[u8], at_most: Option<Version>) -> Option<Arc<FasterKv>> {
    let device = Arc::new(MemLogDevice::null());
    device.append(bytes).unwrap();
    device.flush().unwrap();
    let blobs = Arc::new(MemBlobStore::clone(&image.blobs));
    FasterKv::recover(config(), device, blobs, at_most).ok()
}

/// How record `i` reads: `Ok(true)` its own value, `Ok(false)` absent or
/// refused, `Err` another value.
fn reads(kv: &Arc<FasterKv>, i: u64) -> Result<bool, Value> {
    match kv.get(&key(i)) {
        Ok(Some(v)) if v == value(i) => Ok(true),
        Ok(Some(v)) => Err(v),
        Ok(None) | Err(_) => Ok(false),
    }
}

#[test]
fn a_log_cut_short_recovers_the_newest_checkpoint_it_still_covers() {
    let image = build();
    let mut cuts: Vec<usize> = (0..RECORDS).map(address).collect();
    cuts.extend([address(BIG) + 8, address(BIG) + 30_000, address(7) + 20]);
    cuts.extend([PADS[0], PADS[0] + 8, PADS[1], image.until[1]]);
    for cut in cuts {
        let bytes = &image.bytes[..cut];
        let newest = recover(&image, bytes, None);
        assert_eq!(newest.is_some(), cut >= image.until[1], "cut at {cut}");
        let first = recover(&image, bytes, Some(Version(1)));
        assert_eq!(first.is_some(), cut >= image.until[0], "cut at {cut}");
        for (kv, records) in [(first, FIRST_CHECKPOINT), (newest, RECORDS)] {
            let Some(kv) = kv else { continue };
            for i in 0..RECORDS {
                assert_eq!(reads(&kv, i), Ok(i < records), "cut at {cut}, record {i}");
            }
        }
    }
}

#[test]
fn a_flipped_byte_is_refused_or_costs_the_records_it_names() {
    let image = build();
    // (start of a record or pad, offset in it, the record it belongs to)
    let mut flips: Vec<(usize, usize, Option<u64>)> = Vec::new();
    for i in 0..RECORDS {
        let inside = if i == BIG {
            SMALL + 1
        } else if i % 8 == 0 {
            SMALL
        } else {
            1 // the boundary
        };
        flips.extend((0..inside).map(|off| (address(i), off, Some(i))));
    }
    flips.extend([30_000, BIG_VALUE + 23].map(|off| (address(BIG), off, Some(BIG))));
    flips.extend(
        PADS.iter()
            .flat_map(|&pad| (0..8).map(move |off| (pad, off, None))),
    );

    let (mut refused, mut recovered) = (0, 0);
    for (start, off, record) in flips {
        let mut bytes = image.bytes.clone();
        bytes[start + off] ^= 0xFF;
        let Some(kv) = recover(&image, &bytes, None) else {
            refused += 1;
            continue;
        };
        recovered += 1;
        // A byte of the version (which takes the record out of the
        // checkpoint), of the slack or of the value changes what this record
        // says, and nothing about where the others are or what links them. A
        // byte of the key moves the record to the head of another chain, in
        // front of that chain's older records.
        let contained = record.is_some() && matches!(off, 0..=5 | 9 | 24..);
        for i in (0..RECORDS).filter(|&i| Some(i) != record) {
            match reads(&kv, i) {
                Ok(true) => {}
                Ok(false) => assert!(!contained, "flip at {start}+{off} lost record {i}"),
                Err(v) => panic!("flip at {start}+{off}: record {i} reads {v:?}"),
            }
        }
        if let Some(i) = record {
            let _ = kv.get(&key(i));
        }
    }
    eprintln!("{refused} flips refused, {recovered} recovered from");
    assert!(refused > 0 && recovered > 0);
}

/// Keys of the compacted log; all of its records are of the paper's size, so
/// every multiple of `SMALL` is a record boundary and no page has a pad. A
/// round is half a page: each pass below starts at half garbage, past the
/// quarter that starts one, and empties a page, two rounds.
const KEYS: u64 = 1024;
const ROUND: usize = SMALL * KEYS as usize;

fn round_value(k: u64, round: u64) -> u64 {
    0x10_0000 * round + k
}

/// Rounds 1 to 4 write every key, each in a version of its own. The first
/// `collect_garbage`, at 2, runs pass 1: round 2 goes to the tail as records
/// of version 3 — which round 3 then writes in place. The second, at 3,
/// frees the two rounds below them. The third, at 4, runs pass 2: round 4
/// goes to the tail as records of version 5, and round 5 writes half of them
/// in place. Two passes, one truncation, and the second pass still waits for
/// the cut:
///
/// ```text
///   0        2R            3R         4R            5R
///   [ freed  ][ copies, v3 ][ round 4 ][ copies, v5 ]
///             (hold round 3)  until of v4 (half hold round 5)  until of v5
/// ```
struct Compacted {
    /// The device image from the truncation point on.
    bytes: Vec<u8>,
    truncated: usize,
    blobs: Arc<MemBlobStore>,
    /// Every manifest `collect_garbage` kept: its version, the log address
    /// it covers up to, and the state it commits.
    kept: Vec<(Version, usize, HashMap<u64, u64>)>,
}

fn build_compacted() -> Compacted {
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let kv = FasterKv::new(config(), device.clone(), blobs.clone());
    let s = kv.start_session(SessionId(1));
    let mut state = HashMap::new();
    let mut kept = Vec::new();
    let mut round = |round: u64, keys: u64, gc: Option<Option<u64>>| {
        for k in 0..keys {
            let v = round_value(k, round);
            s.upsert(Key::from_u64(k), Value::from_u64(v)).unwrap();
            state.insert(k, v);
        }
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(round), Duration::from_secs(10)));
        kept.push((Version(round), kv.log_tail() as usize, state.clone()));
        if let Some(freed) = gc {
            assert_eq!(kv.collect_garbage(Version(round)).unwrap(), freed);
        }
    };
    round(1, KEYS, None);
    round(2, KEYS, Some(None));
    round(3, KEYS, Some(Some(2 * ROUND as u64)));
    assert_eq!(
        kv.log_tail() as usize,
        3 * ROUND,
        "round 3 is in pass 1's copies"
    );
    round(4, KEYS, Some(None));
    round(5, KEYS / 2, None);
    assert_eq!(
        kv.log_tail() as usize,
        5 * ROUND,
        "round 5 is in pass 2's copies"
    );
    let totals = kv.compaction_totals();
    assert_eq!((totals.passes, totals.freed_bytes), (2, 2 * ROUND as u64));
    assert_eq!(totals.copied_bytes, 2 * ROUND as u64);
    // The manifests below the last cut, 4, went with it.
    kept.drain(..3);
    let names = blobs.list("chkpt-").unwrap();
    assert_eq!(names.len(), kept.len());
    let truncated = device.truncated_before() as usize;
    assert_eq!(truncated, 2 * ROUND);
    let mut bytes = vec![0u8; device.tail() as usize - truncated];
    assert_eq!(device.tail() as usize, kept[1].1);
    read_exact(device.as_ref(), truncated as u64, &mut bytes).unwrap();
    Compacted {
        bytes,
        truncated,
        blobs,
        kept,
    }
}

#[test]
fn a_compacted_log_cut_short_recovers_every_manifest_it_still_covers() {
    let image = build_compacted();
    let tail = image.truncated + image.bytes.len();
    // Every record boundary that is left, and inside copies of both passes.
    let mut cuts: Vec<usize> = (image.truncated..=tail).step_by(SMALL).collect();
    cuts.extend([2 * ROUND + 8, 3 * ROUND - 12, 4 * ROUND + 20, 5 * ROUND - 8]);
    assert_eq!(
        image.kept[0].1,
        4 * ROUND,
        "pass 2's copies lie above the cut's manifest"
    );
    let (mut refused, mut recovered) = (0, 0);
    for cut in cuts {
        let device = Arc::new(MemLogDevice::null());
        // Nothing reads below the truncation point, whatever lies there.
        device.append(&vec![0xAA; image.truncated]).unwrap();
        device
            .append(&image.bytes[..cut - image.truncated])
            .unwrap();
        device.flush().unwrap();
        device.truncate_before(image.truncated as u64).unwrap();
        for (version, until, state) in &image.kept {
            let kv = FasterKv::recover(
                config(),
                device.clone(),
                Arc::new(MemBlobStore::clone(&image.blobs)),
                Some(*version),
            );
            assert_eq!(kv.is_ok(), cut >= *until, "cut at {cut}, {version}");
            let Ok(kv) = kv else {
                refused += 1;
                continue;
            };
            recovered += 1;
            assert_eq!(kv.durable_version(), *version);
            assert_eq!(kv.log_begin() as usize, image.truncated);
            for k in 0..KEYS {
                let got = kv.get(&Key::from_u64(k)).unwrap();
                let got = got.and_then(|v| v.as_u64());
                assert_eq!(
                    got,
                    state.get(&k).copied(),
                    "cut at {cut}, {version}, key {k}"
                );
            }
            // A scan of the live state starts where the log does.
            if cut % (64 * SMALL) == 0 {
                let live: HashMap<u64, u64> = kv
                    .scan_live()
                    .unwrap()
                    .into_iter()
                    .map(|(k, v)| (k.as_u64().unwrap(), v.as_u64().unwrap()))
                    .collect();
                assert_eq!(&live, state, "cut at {cut}, {version}");
            }
        }
    }
    eprintln!("{refused} recoveries refused, {recovered} recovered");
    assert!(refused > 0 && recovered > KEYS);
}
