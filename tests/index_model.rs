//! The hash index against its model, and a store whose index grows under
//! concurrent sessions.
//!
//! The model of the index is a map from chain identity (the top bits of
//! the key's hash) to the chain's head address: `try_publish` is a
//! compare-and-swap on that head, `publish_max` a maximum. Doubling the
//! table must never show through either.

use dpr::core::{Key, LightEpoch, SessionId, Value, Version};
use dpr::faster::index::{HashIndex, INITIAL_SLOTS};
use dpr::faster::{FasterConfig, FasterKv, NONE_ADDRESS};
use dpr::storage::{MemBlobStore, MemLogDevice};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    /// Publish a fresh address on top of the head the index reports.
    Publish(u64),
    /// Publish with this expected head, which is usually stale.
    PublishExpecting(u64, u64),
    /// `publish_max` of this address.
    PublishMax(u64, u64),
    /// Bring in this many keys nobody used before: the table doubles when
    /// they fill it.
    NewKeys(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..400u64).prop_map(Op::Publish),
        2 => (0..400u64, 0..5000u64).prop_map(|(k, e)| Op::PublishExpecting(k, e)),
        3 => (0..400u64, 0..5000u64).prop_map(|(k, a)| Op::PublishMax(k, a)),
        1 => (100..700u64).prop_map(Op::NewKeys),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_matches_its_model_across_doublings(
        ops in prop::collection::vec(op_strategy(), 1..200),
        identity_bits in 5u32..16,
    ) {
        let epoch = Arc::new(LightEpoch::new(4));
        let index = HashIndex::new(Arc::clone(&epoch), 1 << identity_bits);
        prop_assert_eq!(index.identities(), 1 << identity_bits);
        let identity = |k: u64| Key::from_u64(k).hash64() >> (64 - identity_bits);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next_addr = 5000u64;
        let mut next_key = 1000u64;
        let guard = epoch.protect();
        let head_of = |model: &HashMap<u64, u64>, k: u64| {
            model.get(&identity(k)).copied().unwrap_or(NONE_ADDRESS)
        };
        for op in &ops {
            match *op {
                Op::Publish(k) => {
                    let key = Key::from_u64(k);
                    let head = index.head(&guard, &key);
                    prop_assert_eq!(head, head_of(&model, k));
                    next_addr += 8;
                    prop_assert_eq!(index.try_publish(&guard, &key, head, next_addr), Ok(()));
                    model.insert(identity(k), next_addr);
                }
                Op::PublishExpecting(k, expected) => {
                    let key = Key::from_u64(k);
                    let head = head_of(&model, k);
                    next_addr += 8;
                    let got = index.try_publish(&guard, &key, expected, next_addr);
                    if expected == head {
                        prop_assert_eq!(got, Ok(()));
                        model.insert(identity(k), next_addr);
                    } else {
                        prop_assert_eq!(got, Err(head));
                    }
                }
                Op::PublishMax(k, addr) => {
                    index.publish_max(&guard, &Key::from_u64(k), addr);
                    let head = model.entry(identity(k)).or_insert(addr);
                    *head = addr.max(*head);
                }
                Op::NewKeys(n) => {
                    for k in next_key..next_key + n {
                        next_addr += 8;
                        index.publish_max(&guard, &Key::from_u64(k), next_addr);
                        model.insert(identity(k), next_addr);
                    }
                    next_key += n;
                }
            }
            // The epoch frees retired tables as this guard moves on.
            guard.refresh();
        }
        prop_assert_eq!(index.entries(), model.len() as u64);
        for k in (0..400).chain(1000..next_key) {
            prop_assert_eq!(index.head(&guard, &Key::from_u64(k)), head_of(&model, k));
        }
        // Never more than 7/8 full unless there is a slot per identity.
        let slots = index.slots(&guard);
        prop_assert!(slots >= index.slots_for(index.entries()));
        prop_assert!(slots as u64 <= index.identities());
    }
}

/// Four sessions fill a store of 60,000 keys while checkpoints run, moved by
/// the test's thread, which maintains the store as a shard loop would: the
/// index starts at 512 slots and doubles eight times under them. Every key
/// then reads its last write, before and after a crash.
#[test]
fn index_grows_under_concurrent_sessions() {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 15_000;
    let device = Arc::new(MemLogDevice::null());
    let blobs = Arc::new(MemBlobStore::new());
    let config = FasterConfig {
        memory_budget_records: 1 << 20,
        ..FasterConfig::default()
    };
    let kv = FasterKv::new(config.clone(), device.clone(), blobs.clone());
    assert_eq!(kv.index_occupancy().0, INITIAL_SLOTS);
    std::thread::scope(|scope| {
        let sessions: Vec<_> = (0..THREADS)
            .map(|t| {
                let kv = kv.clone();
                scope.spawn(move || {
                    let s = kv.start_session(SessionId(t));
                    for i in 0..KEYS_PER_THREAD {
                        // Own keys, and every fourth op one all threads write.
                        let k = t * KEYS_PER_THREAD + i;
                        s.upsert(Key::from_u64(k), Value::from_u64(k + 1)).unwrap();
                        if i % 4 == 0 {
                            let shared = Key::from_u64(1_000_000 + i);
                            s.upsert(shared, Value::from_u64(i)).unwrap();
                        }
                        if i % 2500 == 0 {
                            kv.request_checkpoint(None);
                        }
                    }
                })
            })
            .collect();
        while !sessions.iter().all(|s| s.is_finished()) {
            kv.maintain();
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    // ~62,800 chains (63,750 keys over 2^21 identities), more than 7/8 of
    // 2^16 slots: 2^17, eight doublings from 2^9. This store's own table, not
    // a process-wide count that other tests of this binary add to.
    let (slots, chains) = kv.index_occupancy();
    assert!(chains > 7 << 13, "{chains} chains");
    assert_eq!(
        slots,
        INITIAL_SLOTS << 8,
        "{chains} chains in {slots} slots"
    );
    let check = |kv: &Arc<FasterKv>| {
        for k in 0..THREADS * KEYS_PER_THREAD {
            let got = kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64());
            assert_eq!(got, Some(k + 1), "key {k}");
        }
        for i in (0..KEYS_PER_THREAD).step_by(4) {
            let got = kv.get(&Key::from_u64(1_000_000 + i)).unwrap();
            assert_eq!(got.and_then(|v| v.as_u64()), Some(i), "shared key {i}");
        }
    };
    check(&kv);
    let sealing = kv.current_version();
    while !kv.request_checkpoint(None) {
        kv.maintain();
    }
    assert!(kv.wait_for_durable(sealing, Duration::from_secs(30)));
    drop(kv);
    device.crash();
    let kv = FasterKv::recover(config, device, blobs, None).unwrap();
    assert!(kv.durable_version() >= Version(1));
    check(&kv);
}
