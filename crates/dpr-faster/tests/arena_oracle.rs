//! Differential property test: the in-place page-arena log against a pure
//! model of the chain semantics it must implement.
//!
//! A random program of upserts, deletes, version bumps and rollbacks runs
//! against:
//!
//! * the arena log ([`dpr_faster::RecordLog`]) with the real
//!   [`HashIndex`],
//! * a Vec-of-writes model.
//!
//! After every rollback (`purge_versions`), reads must "travel back" the
//! hash chain past invalidated versions (§5.5) exactly as the model says,
//! and tombstones must read as absent without terminating the walk early.

use dpr_core::{Key, Value, Version};
use dpr_faster::index::HashIndex;
use dpr_faster::{GetOutcome, RecordLog, NONE_ADDRESS};
use dpr_storage::MemLogDevice;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Upsert(u8, u16),
    Delete(u8),
    NewVersion,
    /// Roll back to `current_version - (1 + n % current_version)` … i.e.
    /// some strictly earlier version.
    Rollback(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..24u8, 0..u16::MAX).prop_map(|(k, v)| Op::Upsert(k, v)),
        2 => (0..24u8).prop_map(Op::Delete),
        2 => Just(Op::NewVersion),
        1 => (0..255u8).prop_map(Op::Rollback),
    ]
}

/// What a read of `key` must observe after the program: the newest write
/// whose version survives every purge, interpreted through tombstones.
fn model_visible(
    writes: &HashMap<u8, Vec<(u64, Option<u16>)>>,
    purged: &[(u64, u64)],
    key: u8,
) -> Option<u16> {
    let chain = writes.get(&key)?;
    for &(version, value) in chain.iter().rev() {
        if purged.iter().any(|&(lo, hi)| version > lo && version <= hi) {
            continue;
        }
        return value;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_matches_model(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let arena = RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 22);
        // 16 chains for 24 keys: walks pass records of other keys.
        let index = HashIndex::new(Arc::clone(arena.epoch()), 16);
        let mut writes: HashMap<u8, Vec<(u64, Option<u16>)>> = HashMap::new();
        let mut purged: Vec<(u64, u64)> = Vec::new();
        let mut version = 1u64;

        let apply_write = |k: u8, v: Option<u16>, version: u64,
                               writes: &mut HashMap<u8, Vec<(u64, Option<u16>)>>| {
            let key = Key::from_u64(u64::from(k));
            let value = Value::from_u64(u64::from(v.unwrap_or(0)));
            let tomb = v.is_none();
            // Arena: append with prev = current chain head, publish.
            let guard = arena.protect();
            let prev = index.head(&guard, &key);
            let addr = arena.append(&guard, &key, &value, Version(version), tomb, prev);
            index.try_publish(&guard, &key, prev, addr).unwrap();
            writes.entry(k).or_default().push((version, v));
        };

        for op in &ops {
            match *op {
                Op::Upsert(k, v) => apply_write(k, Some(v), version, &mut writes),
                Op::Delete(k) => apply_write(k, None, version, &mut writes),
                Op::NewVersion => version += 1,
                Op::Rollback(n) => {
                    let v_safe = version - 1 - (u64::from(n) % version).min(version - 1);
                    purged.push((v_safe, version));
                    arena.purge_versions(Version(v_safe), Version(version));
                    version += 1;
                }
            }
        }

        // Every key must resolve as the model says.
        for k in 0..24u8 {
            let expected = model_visible(&writes, &purged, k);
            let key = Key::from_u64(u64::from(k));

            // Arena: travel back the chain past invalidated records.
            let guard = arena.protect();
            let mut addr = index.head(&guard, &key);
            let mut got_arena = None;
            while addr != NONE_ADDRESS {
                match arena.get_ready(&guard, addr).unwrap() {
                    GetOutcome::Resident(view) => {
                        let m = view.meta();
                        if view.key_matches(&key) && !m.invalid {
                            got_arena = (!m.tombstone).then(|| view.read_value());
                            break;
                        }
                        addr = view.prev();
                    }
                    _ => panic!("record at {addr} must be resident (nothing was evicted)"),
                }
            }
            drop(guard);

            let expected_value = expected.map(u64::from);
            prop_assert_eq!(
                got_arena.as_ref().and_then(|v| v.as_u64()), expected_value,
                "arena diverges from model at key {}", k
            );
        }
    }
}
