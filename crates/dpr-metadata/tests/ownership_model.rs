//! The ownership table against a model of the map it used to be: a
//! `BTreeMap` from partition to row, driven through seeded sequences of
//! assignments, transfers, lease renewals and clock advances. After every
//! step each read of the table — `owner_of`, `owners_into`, `validate_all`,
//! `partitions_of` — answers as the model does. And under a transfer that
//! runs in a loop, a batch is read and validated as one state of the table.

use dpr_core::{Clock, Key, Rng, ShardId, SimClock};
use dpr_metadata::{OwnershipEntry, OwnershipTable, Partitioner, VirtualPartition};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: u32 = 12;
const SHARDS: u32 = 3;
const LEASE: Duration = Duration::from_millis(50);

struct Model {
    rows: BTreeMap<VirtualPartition, OwnershipEntry>,
    clock: SimClock,
}

impl Model {
    fn owner(&self, vp: VirtualPartition) -> Option<ShardId> {
        self.rows.get(&vp).and_then(|e| e.owner)
    }

    fn valid(&self, shard: ShardId, vp: VirtualPartition) -> bool {
        let now = self.clock.now_nanos();
        self.rows
            .get(&vp)
            .is_some_and(|e| e.owner == Some(shard) && e.lease_until_nanos >= now)
    }
}

/// Every read of `table` answers as `model` does, for `keys`.
fn agree(table: &OwnershipTable, model: &Model, keys: &[Key], step: &str) {
    let partition = |k: &Key| table.partitioner().partition_of(k);
    for p in 0..PARTITIONS {
        let vp = VirtualPartition(p);
        assert_eq!(
            table.owner_of_partition(vp).ok(),
            model.owner(vp),
            "{step}: {vp:?}"
        );
    }
    for key in keys {
        assert_eq!(
            table.owner_of(key).ok(),
            model.owner(partition(key)),
            "{step}"
        );
    }
    // The batch read: every owner, or those before the first un-owned key.
    let mut owners = Vec::new();
    let read = table.owners_into(keys, &mut owners);
    let want: Vec<ShardId> = keys
        .iter()
        .map_while(|k| model.owner(partition(k)))
        .collect();
    assert_eq!(owners, want, "{step}: owners_into");
    assert_eq!(
        read.is_ok(),
        want.len() == keys.len(),
        "{step}: owners_into"
    );
    for s in 0..SHARDS + 1 {
        let shard = ShardId(s);
        let owned: Vec<VirtualPartition> = model
            .rows
            .iter()
            .filter(|(_, e)| e.owner == Some(shard))
            .map(|(vp, _)| *vp)
            .collect();
        assert_eq!(
            table.partitions_of(shard),
            owned,
            "{step}: partitions_of({shard})"
        );
        // Whole batches and every one-key batch.
        let whole = keys.iter().all(|k| model.valid(shard, partition(k)));
        assert_eq!(table.validate_all(shard, keys), whole, "{step}: {shard}");
        for key in keys {
            let one = model.valid(shard, partition(key));
            assert_eq!(
                table.validate_all(shard, [key]),
                one,
                "{step}: {shard} {key}"
            );
        }
    }
}

#[test]
fn the_flat_table_answers_as_the_map_did() {
    let keys: Vec<Key> = (0..48u64).map(Key::from_u64).collect();
    for seed in 1..=40u64 {
        let clock = SimClock::new();
        let table = OwnershipTable::new(
            Partitioner::Hash {
                partitions: PARTITIONS,
            },
            Arc::new(clock.clone()),
            LEASE,
        );
        let mut model = Model {
            rows: BTreeMap::new(),
            clock: clock.clone(),
        };
        let mut draw = Rng::new(seed);
        agree(&table, &model, &keys, &format!("seed {seed}, empty"));
        for i in 0..300 {
            let vp = VirtualPartition(draw.below(u64::from(PARTITIONS)) as u32);
            let shard = ShardId(draw.below(u64::from(SHARDS) + 1) as u32);
            let lease_until = |clock: &SimClock| clock.now_nanos() + LEASE.as_nanos() as u64;
            let step = match draw.below(12) {
                0 => {
                    let workers: Vec<ShardId> = (0..1 + draw.below(u64::from(SHARDS)) as u32)
                        .map(ShardId)
                        .collect();
                    table.assign_round_robin(&workers);
                    let until = lease_until(&clock);
                    model.rows = (0..PARTITIONS)
                        .map(|p| {
                            let owner = Some(workers[p as usize % workers.len()]);
                            let row = OwnershipEntry {
                                owner,
                                lease_until_nanos: until,
                            };
                            (VirtualPartition(p), row)
                        })
                        .collect();
                    format!("assign over {}", workers.len())
                }
                1..=3 => {
                    let done = table.renounce(vp, shard);
                    let row = model.rows.get_mut(&vp);
                    let owned = row.as_ref().is_some_and(|e| e.owner == Some(shard));
                    assert_eq!(done.is_ok(), owned, "seed {seed}, step {i}: renounce");
                    if let Some(e) = row.filter(|_| owned) {
                        e.owner = None;
                    }
                    format!("renounce {vp:?} by {shard}")
                }
                4..=6 => {
                    let done = table.claim(vp, shard);
                    let until = lease_until(&clock);
                    let row = model.rows.get_mut(&vp);
                    let free = row.as_ref().is_some_and(|e| e.owner.is_none());
                    assert_eq!(done.is_ok(), free, "seed {seed}, step {i}: claim");
                    if let Some(e) = row.filter(|_| free) {
                        e.owner = Some(shard);
                        e.lease_until_nanos = until;
                    }
                    format!("claim {vp:?} by {shard}")
                }
                7..=8 => {
                    table.renew_leases(shard);
                    let until = lease_until(&clock);
                    for e in model.rows.values_mut() {
                        if e.owner == Some(shard) {
                            e.lease_until_nanos = until;
                        }
                    }
                    format!("renew {shard}")
                }
                _ => {
                    let by = Duration::from_millis(draw.below(40));
                    clock.advance(by);
                    format!("advance {by:?}")
                }
            };
            agree(
                &table,
                &model,
                &keys,
                &format!("seed {seed}, step {i}: {step}"),
            );
        }
    }
}

/// One thread moves a partition from shard 0 to shard 1 and back in a
/// loop while another reads and validates batches that straddle it: keys of
/// the moving partition among keys of one that shard 0 keeps. The batch
/// read sees the moving keys under one owner, never some under each; and a
/// validation for shard 0 is refused whenever the whole of it fell while
/// shard 0 did not own the moving partition.
#[test]
fn a_transfer_lands_between_batches_not_inside_one() {
    let clock = SimClock::new();
    let table = OwnershipTable::new(
        Partitioner::Hash {
            partitions: PARTITIONS,
        },
        Arc::new(clock),
        Duration::from_secs(60),
    );
    table.assign_round_robin(&[ShardId(0), ShardId(1)]);
    let partitioner = table.partitioner().clone();
    let partitioner = &partitioner;
    let of = |p: u32| {
        (0..)
            .map(Key::from_u64)
            .filter(move |k| partitioner.partition_of(k) == VirtualPartition(p))
    };
    let (moving, kept) = (VirtualPartition(0), 2);
    let batch: Vec<Key> = of(moving.0)
        .take(32)
        .zip(of(kept))
        .flat_map(|(a, b)| [a, b])
        .collect();
    // Odd while shard 0 does not own the moving partition: bumped after it
    // renounces and before it claims again.
    let away = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Each state held for a moment, so that the reader meets them all.
            let hold = || std::thread::sleep(Duration::from_micros(100));
            while !stop.load(Ordering::SeqCst) {
                table.renounce(moving, ShardId(0)).unwrap();
                away.fetch_add(1, Ordering::SeqCst);
                hold();
                table.claim(moving, ShardId(1)).unwrap();
                hold();
                table.renounce(moving, ShardId(1)).unwrap();
                away.fetch_add(1, Ordering::SeqCst);
                hold();
                table.claim(moving, ShardId(0)).unwrap();
                hold();
            }
        });
        let (mut admitted, mut refused, mut mixed) = (0u64, 0u64, 0u64);
        let mut owners = Vec::new();
        for _ in 0..2_000 {
            owners.clear();
            // A slow reader: a transfer would land inside its batch if the
            // read let one in.
            let slow = batch.iter().inspect(|_| std::thread::yield_now());
            if table.owners_into(slow, &mut owners).is_ok() {
                let moved: Vec<ShardId> = owners.iter().copied().step_by(2).collect();
                assert!(moved.iter().all(|&o| o == moved[0]), "{moved:?}");
                assert!(owners.iter().skip(1).step_by(2).all(|&o| o == ShardId(0)));
                mixed += u64::from(moved[0] != ShardId(0));
            }
            let before = away.load(Ordering::SeqCst);
            let valid = table.validate_all(
                ShardId(0),
                batch.iter().inspect(|_| std::thread::yield_now()),
            );
            let after = away.load(Ordering::SeqCst);
            if before == after && before % 2 == 1 {
                assert!(!valid, "admitted while shard 0 did not own the partition");
            }
            if valid {
                admitted += 1;
            } else {
                refused += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
        assert!(
            admitted > 0 && refused > 0,
            "admitted {admitted}, refused {refused}"
        );
        assert!(
            mixed > 0,
            "the batch read never saw the partition at shard 1"
        );
    });
}
