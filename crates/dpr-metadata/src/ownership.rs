//! Key-ownership tracking with virtual partitions and leases (§5.3).
//!
//! It is unrealistic to track ownership per key, so keys map to *virtual
//! partitions* (hash-based; the paper supports ranges as well, which no
//! deployment here uses) and the ownership table maps partitions to workers. Workers validate each batch
//! against the table and guard staleness with leases; transfers renounce
//! first, leaving the partition briefly un-owned while clients retry.

use dpr_core::{Clock, DprError, Key, Result, ShardId};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A virtual partition id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPartition(pub u32);

/// How keys map to virtual partitions: by hash, one of the two schemes §5.3
/// supports by default.
///
/// ```
/// use dpr_metadata::Partitioner;
/// use dpr_core::Key;
///
/// let h = Partitioner::Hash { partitions: 8 };
/// assert!(h.partition_of(&Key::from_u64(150)).0 < 8);
/// ```
#[derive(Debug, Clone)]
pub enum Partitioner {
    /// `hash(key) % partitions`.
    Hash {
        /// Number of virtual partitions.
        partitions: u32,
    },
}

impl Partitioner {
    /// Number of partitions this scheme produces.
    #[must_use]
    pub fn partitions(&self) -> u32 {
        match self {
            Partitioner::Hash { partitions } => *partitions,
        }
    }

    /// The virtual partition owning `key`.
    #[must_use]
    pub fn partition_of(&self, key: &Key) -> VirtualPartition {
        match self {
            Partitioner::Hash { partitions } => {
                VirtualPartition((key.hash64() % u64::from(*partitions)) as u32)
            }
        }
    }
}

/// One row of the ownership table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipEntry {
    /// Current owner; `None` mid-transfer.
    pub owner: Option<ShardId>,
    /// Lease expiry in clock nanos; owners must revalidate after this.
    pub lease_until_nanos: u64,
}

/// The ownership table, shared between workers and clients.
///
/// In this in-process reproduction a worker's "local view" is the shared
/// table itself, read once per batch ([`OwnershipTable::validate_all`]);
/// lease checks model the staleness guard. A client reads the owners of a
/// batch once too ([`OwnershipTable::owners_into`]).
///
/// The rows are a flat vector indexed by partition, empty until the first
/// [`OwnershipTable::assign_round_robin`], which fills every partition.
pub struct OwnershipTable {
    partitioner: Partitioner,
    entries: RwLock<Vec<OwnershipEntry>>,
    clock: Arc<dyn Clock>,
    lease: Duration,
}

impl OwnershipTable {
    /// Build a table with the given partitioner and lease duration.
    pub fn new(partitioner: Partitioner, clock: Arc<dyn Clock>, lease: Duration) -> Self {
        OwnershipTable {
            partitioner,
            entries: RwLock::new(Vec::new()),
            clock,
            lease,
        }
    }

    /// The partitioner in use.
    #[must_use]
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Assign every partition round-robin across `workers` — the initial
    /// "keyspace sharded by hash value into equal chunks" layout (§7.1).
    pub fn assign_round_robin(&self, workers: &[ShardId]) {
        let lease_until_nanos = self.clock.now_nanos() + self.lease.as_nanos() as u64;
        let rows = (0..self.partitioner.partitions() as usize).map(|p| OwnershipEntry {
            owner: Some(workers[p % workers.len()]),
            lease_until_nanos,
        });
        let mut entries = self.entries.write().unwrap();
        entries.clear();
        entries.extend(rows);
    }

    /// Where to send `key`: the owner of its partition, or an error while
    /// the partition is un-owned (mid-transfer). This only routes: it reads
    /// no lease. The owner's own check before it executes a batch,
    /// [`OwnershipTable::validate_all`], is the one that does.
    pub fn owner_of(&self, key: &Key) -> Result<ShardId> {
        let vp = self.partitioner.partition_of(key);
        self.owner_of_partition(vp)
    }

    /// The owner of a partition, routing only as [`OwnershipTable::owner_of`].
    pub fn owner_of_partition(&self, vp: VirtualPartition) -> Result<ShardId> {
        owner_in(&self.entries.read().unwrap(), vp)
    }

    /// Append to `out` the owner of each of `keys`, in order, read under one
    /// read lock: the owners of a batch as one state of the table, routing
    /// only as [`OwnershipTable::owner_of`]. On an un-owned partition the
    /// error names it, and `out` holds the owners of the keys before it.
    pub fn owners_into<'a>(
        &self,
        keys: impl IntoIterator<Item = &'a Key>,
        out: &mut Vec<ShardId>,
    ) -> Result<()> {
        let entries = self.entries.read().unwrap();
        for key in keys {
            out.push(owner_in(&entries, self.partitioner.partition_of(key))?);
        }
        Ok(())
    }

    /// Validate that `shard` owns `key` under a live lease (§5.3).
    pub fn validate(&self, shard: ShardId, key: &Key) -> bool {
        self.validate_all(shard, std::iter::once(key))
    }

    /// Validate that `shard` owns every one of `keys` under a live lease —
    /// the check a worker performs before executing a batch (§5.3). One read
    /// lock and one clock read for the batch, which is admitted whole or not
    /// at all: a `renounce` or `claim` lands before it or after it, never
    /// between two of its operations.
    pub fn validate_all<'a>(
        &self,
        shard: ShardId,
        keys: impl IntoIterator<Item = &'a Key>,
    ) -> bool {
        let entries = self.entries.read().unwrap();
        let now = self.clock.now_nanos();
        keys.into_iter().all(|key| {
            entries
                .get(self.partitioner.partition_of(key).0 as usize)
                .is_some_and(|e| e.owner == Some(shard) && e.lease_until_nanos >= now)
        })
    }

    /// Renew the lease on every partition owned by `shard`.
    pub fn renew_leases(&self, shard: ShardId) {
        let until = self.clock.now_nanos() + self.lease.as_nanos() as u64;
        let mut entries = self.entries.write().unwrap();
        for e in entries.iter_mut() {
            if e.owner == Some(shard) {
                e.lease_until_nanos = until;
            }
        }
    }

    /// Begin transferring a partition: the old owner renounces locally
    /// before the table is updated, so the partition is temporarily
    /// un-owned and clients retry (§5.3).
    pub fn renounce(&self, vp: VirtualPartition, old_owner: ShardId) -> Result<()> {
        let mut entries = self.entries.write().unwrap();
        let e = entries
            .get_mut(vp.0 as usize)
            .ok_or_else(|| DprError::Invalid(format!("unknown partition {vp:?}")))?;
        if e.owner != Some(old_owner) {
            return Err(DprError::Invalid(format!(
                "{old_owner} does not own {vp:?}"
            )));
        }
        // What fences the old owner: its next batch reads the table after
        // this write and is refused.
        e.owner = None;
        Ok(())
    }

    /// Complete a transfer by installing the new owner.
    pub fn claim(&self, vp: VirtualPartition, new_owner: ShardId) -> Result<()> {
        let now = self.clock.now_nanos();
        let mut entries = self.entries.write().unwrap();
        let e = entries
            .get_mut(vp.0 as usize)
            .ok_or_else(|| DprError::Invalid(format!("unknown partition {vp:?}")))?;
        if e.owner.is_some() {
            return Err(DprError::Invalid(format!("{vp:?} still owned")));
        }
        e.owner = Some(new_owner);
        e.lease_until_nanos = now + self.lease.as_nanos() as u64;
        Ok(())
    }

    /// Partitions currently owned by `shard`.
    #[must_use]
    pub fn partitions_of(&self, shard: ShardId) -> Vec<VirtualPartition> {
        self.entries
            .read()
            .unwrap()
            .iter()
            .zip(0..)
            .filter(|(e, _)| e.owner == Some(shard))
            .map(|(_, p)| VirtualPartition(p))
            .collect()
    }
}

/// The owner of `vp` in `entries`, or why there is none.
fn owner_in(entries: &[OwnershipEntry], vp: VirtualPartition) -> Result<ShardId> {
    match entries.get(vp.0 as usize).and_then(|e| e.owner) {
        Some(owner) => Ok(owner),
        None => Err(DprError::Invalid(format!("partition {vp:?} un-owned"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::SimClock;

    fn table(partitions: u32) -> (OwnershipTable, SimClock) {
        let clock = SimClock::new();
        let t = OwnershipTable::new(
            Partitioner::Hash { partitions },
            Arc::new(clock.clone()),
            Duration::from_secs(10),
        );
        (t, clock)
    }

    #[test]
    fn hash_partitioning_is_stable_and_total() {
        let p = Partitioner::Hash { partitions: 8 };
        for k in 0..1000u64 {
            let key = Key::from_u64(k);
            let a = p.partition_of(&key);
            assert_eq!(a, p.partition_of(&key));
            assert!(a.0 < 8);
        }
    }

    #[test]
    fn round_robin_covers_all_partitions() {
        let (t, _) = table(16);
        let workers = [ShardId(0), ShardId(1), ShardId(2)];
        t.assign_round_robin(&workers);
        for p in 0..16 {
            let owner = t.owner_of_partition(VirtualPartition(p)).unwrap();
            assert_eq!(owner, workers[(p as usize) % 3]);
        }
    }

    #[test]
    fn validate_fails_after_lease_expiry_until_renewed() {
        let (t, clock) = table(4);
        t.assign_round_robin(&[ShardId(0)]);
        let batch = [Key::from_u64(1), Key::from_u64(7)];
        let valid = || {
            (
                t.validate(ShardId(0), &batch[0]),
                t.validate_all(ShardId(0), &batch),
            )
        };
        assert_eq!(valid(), (true, true));
        clock.advance(Duration::from_secs(11));
        assert_eq!(valid(), (false, false), "lease expired");
        t.renew_leases(ShardId(0));
        assert_eq!(valid(), (true, true));
    }

    /// A key of partition `vp`.
    fn key_in(t: &OwnershipTable, vp: u32) -> Key {
        (0..1000u64)
            .map(Key::from_u64)
            .find(|k| t.partitioner().partition_of(k) == VirtualPartition(vp))
            .expect("some key hashes to the partition")
    }

    #[test]
    fn validate_all_agrees_with_validate_key_by_key() {
        let (t, _) = table(16);
        t.assign_round_robin(&[ShardId(0), ShardId(1)]);
        let keys: Vec<Key> = (0..200u64).map(Key::from_u64).collect();
        for shard in [ShardId(0), ShardId(1)] {
            let (own, foreign): (Vec<&Key>, Vec<&Key>) =
                keys.iter().partition(|k| t.owner_of(k).unwrap() == shard);
            assert!(!own.is_empty() && !foreign.is_empty());
            assert!(own.iter().all(|k| t.validate(shard, k)));
            assert!(t.validate_all(shard, own.iter().copied()));
            assert!(t.validate_all(shard, []), "an empty batch is admitted");
            for k in foreign {
                assert!(!t.validate(shard, k));
                // One foreign key, wherever it sits, refuses the whole batch.
                assert!(!t.validate_all(shard, own.iter().copied().chain([k])));
                assert!(!t.validate_all(shard, [k].into_iter().chain(own.iter().copied())));
            }
        }
    }

    /// The migration fence: once `renounce` returns, the old owner's very
    /// next batch is refused, and after `claim` only the new owner's passes.
    #[test]
    fn renounce_refuses_the_next_batch_and_claim_admits_the_new_owner_only() {
        let (t, _) = table(4);
        t.assign_round_robin(&[ShardId(0)]);
        let batch = [key_in(&t, 1), key_in(&t, 2), key_in(&t, 3)];
        assert!(t.validate_all(ShardId(0), &batch));
        t.renounce(VirtualPartition(2), ShardId(0)).unwrap();
        assert!(!t.validate_all(ShardId(0), &batch), "un-owned mid-transfer");
        assert!(!t.validate_all(ShardId(1), &batch[1..2]));
        t.claim(VirtualPartition(2), ShardId(1)).unwrap();
        assert!(t.validate_all(ShardId(1), &batch[1..2]));
        assert!(
            !t.validate_all(ShardId(0), &batch),
            "old owner still fenced"
        );
        assert!(t.validate_all(ShardId(0), [&batch[0], &batch[2]]));
    }

    #[test]
    fn transfer_renounce_then_claim() {
        let (t, _) = table(4);
        t.assign_round_robin(&[ShardId(0)]);
        let vp = VirtualPartition(2);
        // Wrong owner cannot renounce.
        assert!(t.renounce(vp, ShardId(9)).is_err());
        t.renounce(vp, ShardId(0)).unwrap();
        // Mid-transfer: lookups fail, clients retry.
        assert!(t.owner_of_partition(vp).is_err());
        // Cannot claim an owned partition.
        assert!(t.claim(VirtualPartition(1), ShardId(1)).is_err());
        t.claim(vp, ShardId(1)).unwrap();
        assert_eq!(t.owner_of_partition(vp).unwrap(), ShardId(1));
        assert_eq!(t.partitions_of(ShardId(1)), vec![vp]);
    }
}
