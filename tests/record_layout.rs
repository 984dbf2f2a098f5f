//! The log's record format, byte by byte: one record and one pad,
//! hand-assembled from the layout table of `docs/PROTOCOL.md` (*In-place
//! record layout and the page arena*), asserted equal to what a flush puts on
//! the device and decoded back — so the engine is checked against the written
//! specification, and tier-1 fails when either drifts. Then the limits the
//! packing has: what is refused, and that the largest of each field fits.

use dpr::core::{DprError, Key, SessionId, Value, Version};
use dpr::faster::record::{record_footprint, HEADER_LEN, MAX_ADDRESS, MAX_VERSION};
use dpr::faster::{
    FasterConfig, FasterKv, GetOutcome, Record, RecordLog, MAX_RECORD_LEN, NONE_ADDRESS, PAGE_SIZE,
};
use dpr::storage::{read_exact, LogDevice, MemBlobStore, MemLogDevice};
use std::sync::Arc;

mod common;
use common::hex;

fn value(bytes: &[u8]) -> Value {
    Value(bytes.to_vec().into())
}

/// Seal and flush everything appended, and return the device's bytes.
fn flushed_image(log: &RecordLog, device: &MemLogDevice) -> Vec<u8> {
    let sealed = log.seal_to_tail();
    assert_eq!(log.flush_until(sealed).unwrap(), sealed);
    let mut image = vec![0u8; device.tail() as usize];
    read_exact(device, 0, &mut image).unwrap();
    image
}

#[test]
fn one_record_and_one_pad_are_the_documented_bytes() {
    assert_eq!(HEADER_LEN, 16);
    assert_eq!(
        record_footprint(8, 8),
        32,
        "the paper's record is half a line"
    );

    let device = Arc::new(MemLogDevice::null());
    let log = RecordLog::new(device.clone(), 1 << 20);
    let key = Key(b"paper".as_slice().into());
    let version = Version(0x01_0203_0405);
    let g = log.protect();
    let at = log.append(&g, &key, &value(b"hello world"), version, false, 0x1230);
    assert_eq!(at, 0);
    {
        // One in-place write of the same 8-byte class: 13 bytes into 16.
        let guard = log.protect();
        let Ok(GetOutcome::Resident(view)) = log.get(&guard, at) else {
            panic!("resident");
        };
        assert!(!view.try_write_value(&value(b"seventeen bytes!!")));
        assert!(view.try_write_value(&value(b"hello, world!")));
        view.invalidate();
    }
    // A record that does not fit the rest of the page: a pad, then page 1.
    let big = value(&[0xEE; 65_480]);
    let tomb = log.append(&g, &Key::from_u64(7), &big, Version(2), true, NONE_ADDRESS);
    drop(g);
    assert_eq!(tomb, PAGE_SIZE as u64);

    let record = hex(&[
        // meta: version 0x01_0203_0405 in bits 0..44, key_len 5 in bits
        // 44..60, READY (bit 61) and INVALID (bit 63)
        "05 04 03 02 01 50 00 a0",
        // link: seq 2 (one write, none in flight) in bits 0..13, slack
        // 16 - 13 = 3 in bits 13..16, val_cap / 8 = 2 in bits 16..29,
        // prev / 8 + 1 = 0x247 in bits 29..64
        "02 60 02 e0 48 00 00 00",
        "70 61 70 65 72 00*3",                         // "paper", padded to 8
        "68 65 6c 6c 6f 2c 20 77 6f 72 6c 64 21 00*3", // "hello, world!", to 16
    ]);
    assert_eq!(record.len(), record_footprint(5, 13));
    // The rest of page 0: length 65536 - 40 = 0xffd8 where a record has its
    // version, PAD (bit 60) and READY; one word, then nothing.
    let pad = hex(&["d8 ff 00 00 00 00 00 30", "00*65488"]);
    let second = hex(&[
        // version 2, key_len 8, READY and TOMBSTONE (bit 62)
        "02 00 00 00 00 80 00 60",
        // never written (seq 0), no slack, val_cap / 8 = 8185 = 0x1ff9,
        // no predecessor (0)
        "00 00 f9 1f 00 00 00 00",
        "00*7 07",
        "ee*65480",
    ]);
    let image = flushed_image(&log, &device);
    assert_eq!(image.len(), PAGE_SIZE + second.len());
    assert_eq!(
        image[..40],
        record[..],
        "record bytes differ from docs/PROTOCOL.md"
    );
    assert_eq!(
        image[40..PAGE_SIZE],
        pad[..],
        "pad bytes differ from docs/PROTOCOL.md"
    );
    assert_eq!(
        image[PAGE_SIZE..],
        second[..],
        "second record differs from docs/PROTOCOL.md"
    );

    let (decoded, used) = Record::decode(&record, 0).expect("a whole record");
    assert_eq!(used, 40);
    assert_eq!(decoded.key(), &key);
    assert_eq!(decoded.read_value(), value(b"hello, world!"));
    assert_eq!(decoded.prev(), 0x1230);
    let meta = decoded.meta();
    assert_eq!(
        (meta.version, meta.tombstone, meta.invalid),
        (version, false, true)
    );
    assert!(Record::decode(&pad, 40).is_none(), "a pad is not a record");
    let (decoded, used) = Record::decode(&second, tomb).expect("a whole record");
    assert_eq!((used, decoded.prev()), (second.len(), NONE_ADDRESS));
    assert!(decoded.meta().tombstone && !decoded.meta().invalid);
    // What the log reads back from its device is the same records.
    assert!(log.evict_to(u64::MAX) > 0);
    let cold = log.read_from_device(at).unwrap();
    assert_eq!(cold.read_value(), value(b"hello, world!"));
    assert_eq!((cold.key(), cold.prev()), (&key, 0x1230));
    assert!(log.read_from_device(40).is_err(), "the pad");
}

#[test]
fn the_largest_predecessor_and_version_round_trip() {
    let device = Arc::new(MemLogDevice::null());
    let log = RecordLog::new(device.clone(), 1 << 20);
    let (key, val) = (Key::from_u64(1), Value::from_u64(2));
    let at = log.append(&log.protect(), &key, &val, MAX_VERSION, false, MAX_ADDRESS);
    {
        let guard = log.protect();
        let Ok(GetOutcome::Resident(view)) = log.get(&guard, at) else {
            panic!("resident");
        };
        assert_eq!(view.prev(), MAX_ADDRESS);
        assert_eq!(view.meta().version, MAX_VERSION);
        assert_eq!(view.read_value(), val);
    }
    let image = flushed_image(&log, &device);
    assert_eq!(image[8..16], hex(&["00 00 01 e0 ff ff ff ff"])[..]);
    let (decoded, _) = Record::decode(&image, at).unwrap();
    assert_eq!(decoded.prev(), MAX_ADDRESS);
    assert_eq!(decoded.meta().version, MAX_VERSION);
    assert_eq!((decoded.key(), decoded.read_value()), (&key, val));
    // The log's 64 GiB of addresses all fit.
    const { assert!(MAX_ADDRESS >= (64 << 30) - 8) };
}

#[test]
fn a_key_or_value_beyond_the_page_is_refused_as_invalid() {
    let kv = FasterKv::new(
        FasterConfig {
            ..FasterConfig::default()
        },
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    );
    let s = kv.start_session(SessionId(1));
    let bytes = |n: usize| vec![0x5A; n];
    // The largest of each that fits: header + key + value is one page.
    let most = MAX_RECORD_LEN - HEADER_LEN - 8;
    let largest_value = value(&bytes(most));
    s.upsert(Key::from_u64(1), largest_value.clone()).unwrap();
    assert_eq!(kv.get(&Key::from_u64(1)).unwrap(), Some(largest_value));
    let largest_key = Key(bytes(most).into());
    s.upsert(largest_key.clone(), Value::from_u64(9)).unwrap();
    assert_eq!(kv.get(&largest_key).unwrap(), Some(Value::from_u64(9)));
    // One byte more of either is refused, and so is an RMW that makes one.
    let tail = kv.log_tail();
    for (key, val) in [
        (Key::from_u64(2), value(&bytes(most + 1))),
        (Key(bytes(most + 1).into()), Value::from_u64(9)),
        (Key(bytes(1 << 16).into()), Value(Vec::new().into())),
        (Key::from_u64(2), value(&bytes(1 << 20))),
    ] {
        assert!(matches!(s.upsert(key, val), Err(DprError::Invalid(_))));
    }
    let grown = s.rmw(Key::from_u64(1), |old| {
        let mut bytes = old.expect("written above").as_bytes().to_vec();
        bytes.push(0);
        Value(bytes.into())
    });
    assert!(matches!(grown, Err(DprError::Invalid(_))));
    assert_eq!(kv.log_tail(), tail, "a refused write reserves nothing");
    // A version no header holds is refused where it would enter the store.
    assert!(!kv.request_checkpoint(Some(MAX_VERSION)));
    assert!(kv.request_checkpoint(None));
}
