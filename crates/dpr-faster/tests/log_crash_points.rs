//! Crash points of the log: the device image a store left behind, cut short
//! or with one byte flipped, at every record boundary and inside records.
//! `FasterKv::recover` must refuse it or recover from it — never panic, never
//! hang, never run off a page — and what it recovers is a prefix: with the
//! tail cut off, exactly the newest checkpoint the remaining bytes cover;
//! with a byte flipped where it changes no length, no link and no key, every
//! other record; and with any byte flipped, no record reads as another's.

use dpr_core::{Key, SessionId, Value, Version};
use dpr_faster::record::record_footprint;
use dpr_faster::{FasterConfig, FasterKv, PAGE_SIZE};
use dpr_storage::{read_exact, LogDevice, MemBlobStore, MemLogDevice};
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
        auto_maintenance: false,
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
    FasterKv::recover(config(), device, image.blobs.clone(), at_most).ok()
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
