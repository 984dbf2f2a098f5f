//! Key-ownership tracking with virtual partitions and leases (§5.3).
//!
//! It is unrealistic to track ownership per key, so keys map to *virtual
//! partitions* (hash- or range-based, both supported per the paper) and the
//! ownership table maps partitions to workers. Workers validate ownership
//! against a local view and guard staleness with leases; transfers renounce
//! first, leaving the partition briefly un-owned while clients retry.

use dpr_core::{Clock, DprError, Key, Result, ShardId};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A virtual partition id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPartition(pub u32);

/// How keys map to virtual partitions.
///
/// "Hash- and range-based partitioning schemes are supported by default"
/// (§5.3). Range partitioning interprets 8-byte keys as big-endian integers.
///
/// ```
/// use dpr_metadata::Partitioner;
/// use dpr_core::Key;
///
/// let p = Partitioner::Range { partitions: 4, keyspace: 400 };
/// assert_eq!(p.partition_of(&Key::from_u64(150)).0, 1);
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
    /// Split a `u64` keyspace into equal contiguous ranges.
    Range {
        /// Number of virtual partitions.
        partitions: u32,
        /// Exclusive upper bound of the keyspace.
        keyspace: u64,
    },
}

impl Partitioner {
    /// Number of partitions this scheme produces.
    #[must_use]
    pub fn partitions(&self) -> u32 {
        match self {
            Partitioner::Hash { partitions } | Partitioner::Range { partitions, .. } => *partitions,
        }
    }

    /// The virtual partition owning `key`.
    #[must_use]
    pub fn partition_of(&self, key: &Key) -> VirtualPartition {
        match self {
            Partitioner::Hash { partitions } => {
                VirtualPartition((key.hash64() % u64::from(*partitions)) as u32)
            }
            Partitioner::Range {
                partitions,
                keyspace,
            } => {
                let k = key.as_u64().unwrap_or_else(|| key.hash64());
                let width = (keyspace / u64::from(*partitions)).max(1);
                VirtualPartition(((k / width).min(u64::from(*partitions) - 1)) as u32)
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
/// Workers cache a local view; in this in-process reproduction the "cache"
/// is the shared table itself, and lease checks model the staleness guard.
pub struct OwnershipTable {
    partitioner: Partitioner,
    entries: RwLock<BTreeMap<VirtualPartition, OwnershipEntry>>,
    clock: Arc<dyn Clock>,
    lease: Duration,
    /// Assignment epoch: bumped on every ownership *change* (assignment,
    /// renounce, claim) but **not** on lease renewal. Worker-side caches
    /// ([`dpr-cluster`'s `OwnershipLease`]) compare one atomic load against
    /// their cached epoch to detect a stale view; the bump happens inside
    /// the write-locked section, so a snapshot taken under the read lock is
    /// always consistent with the epoch it reads.
    ///
    /// [`dpr-cluster`'s `OwnershipLease`]: OwnershipTable::snapshot
    epoch: AtomicU64,
}

impl OwnershipTable {
    /// Build a table with the given partitioner and lease duration.
    pub fn new(partitioner: Partitioner, clock: Arc<dyn Clock>, lease: Duration) -> Self {
        OwnershipTable {
            partitioner,
            entries: RwLock::new(BTreeMap::new()),
            clock,
            lease,
            epoch: AtomicU64::new(0),
        }
    }

    /// The partitioner in use.
    #[must_use]
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The table's clock (shared with worker-side lease caches so lease
    /// expiry is judged on the same timeline).
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Current assignment epoch (see the field docs). One relaxed-cost
    /// atomic load — the per-operation staleness probe for cached views.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Consistent `(epoch, entries)` snapshot for worker-side lease caches.
    /// Taken under the read lock, which excludes every epoch-bumping writer,
    /// so the entries always correspond to the returned epoch.
    #[must_use]
    pub fn snapshot(&self) -> (u64, BTreeMap<VirtualPartition, OwnershipEntry>) {
        let entries = self.entries.read();
        let epoch = self.epoch.load(Ordering::Acquire);
        (epoch, entries.clone())
    }

    /// Assign every partition round-robin across `workers` — the initial
    /// "keyspace sharded by hash value into equal chunks" layout (§7.1).
    pub fn assign_round_robin(&self, workers: &[ShardId]) {
        let now = self.clock.now_nanos();
        let mut entries = self.entries.write();
        for p in 0..self.partitioner.partitions() {
            let owner = workers[(p as usize) % workers.len()];
            entries.insert(
                VirtualPartition(p),
                OwnershipEntry {
                    owner: Some(owner),
                    lease_until_nanos: now + self.lease.as_nanos() as u64,
                },
            );
        }
        // Ownership changed: fence every cached view.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The owner of `key`, if the partition is owned and the lease is live.
    pub fn owner_of(&self, key: &Key) -> Result<ShardId> {
        let vp = self.partitioner.partition_of(key);
        self.owner_of_partition(vp)
    }

    /// The owner of a partition.
    pub fn owner_of_partition(&self, vp: VirtualPartition) -> Result<ShardId> {
        let entries = self.entries.read();
        match entries.get(&vp).and_then(|e| e.owner) {
            Some(owner) => Ok(owner),
            None => Err(DprError::Invalid(format!("partition {vp:?} un-owned"))),
        }
    }

    /// Validate that `shard` owns `key` under a live lease — the check every
    /// worker performs before executing an operation (§5.3).
    pub fn validate(&self, shard: ShardId, key: &Key) -> bool {
        let vp = self.partitioner.partition_of(key);
        let entries = self.entries.read();
        match entries.get(&vp) {
            Some(e) => e.owner == Some(shard) && e.lease_until_nanos >= self.clock.now_nanos(),
            None => false,
        }
    }

    /// Renew the lease on every partition owned by `shard`.
    pub fn renew_leases(&self, shard: ShardId) {
        let until = self.clock.now_nanos() + self.lease.as_nanos() as u64;
        let mut entries = self.entries.write();
        for e in entries.values_mut() {
            if e.owner == Some(shard) {
                e.lease_until_nanos = until;
            }
        }
    }

    /// Begin transferring a partition: the old owner renounces locally
    /// before the table is updated, so the partition is temporarily
    /// un-owned and clients retry (§5.3).
    pub fn renounce(&self, vp: VirtualPartition, old_owner: ShardId) -> Result<()> {
        let mut entries = self.entries.write();
        let e = entries
            .get_mut(&vp)
            .ok_or_else(|| DprError::Invalid(format!("unknown partition {vp:?}")))?;
        if e.owner != Some(old_owner) {
            return Err(DprError::Invalid(format!(
                "{old_owner} does not own {vp:?}"
            )));
        }
        e.owner = None;
        // The epoch bump is what fences the old owner's cached lease: its
        // next validation sees the new epoch and refills before it can
        // accept another operation for this partition.
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Complete a transfer by installing the new owner.
    pub fn claim(&self, vp: VirtualPartition, new_owner: ShardId) -> Result<()> {
        let now = self.clock.now_nanos();
        let mut entries = self.entries.write();
        let e = entries
            .get_mut(&vp)
            .ok_or_else(|| DprError::Invalid(format!("unknown partition {vp:?}")))?;
        if e.owner.is_some() {
            return Err(DprError::Invalid(format!("{vp:?} still owned")));
        }
        e.owner = Some(new_owner);
        e.lease_until_nanos = now + self.lease.as_nanos() as u64;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Partitions currently owned by `shard`.
    #[must_use]
    pub fn partitions_of(&self, shard: ShardId) -> Vec<VirtualPartition> {
        self.entries
            .read()
            .iter()
            .filter(|(_, e)| e.owner == Some(shard))
            .map(|(vp, _)| *vp)
            .collect()
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
    fn range_partitioning_splits_keyspace() {
        let p = Partitioner::Range {
            partitions: 4,
            keyspace: 400,
        };
        assert_eq!(p.partition_of(&Key::from_u64(0)).0, 0);
        assert_eq!(p.partition_of(&Key::from_u64(150)).0, 1);
        assert_eq!(p.partition_of(&Key::from_u64(399)).0, 3);
        // Keys beyond the declared keyspace clamp to the last partition.
        assert_eq!(p.partition_of(&Key::from_u64(10_000)).0, 3);
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
        let key = Key::from_u64(1);
        assert!(t.validate(ShardId(0), &key));
        clock.advance(Duration::from_secs(11));
        assert!(!t.validate(ShardId(0), &key), "lease expired");
        t.renew_leases(ShardId(0));
        assert!(t.validate(ShardId(0), &key));
    }

    #[test]
    fn epoch_bumps_on_assignment_changes_but_not_renewal() {
        let (t, clock) = table(4);
        let e0 = t.epoch();
        t.assign_round_robin(&[ShardId(0)]);
        let e1 = t.epoch();
        assert!(e1 > e0, "assignment bumps the epoch");
        clock.advance(Duration::from_secs(1));
        t.renew_leases(ShardId(0));
        assert_eq!(t.epoch(), e1, "renewal must NOT fence cached views");
        t.renounce(VirtualPartition(2), ShardId(0)).unwrap();
        let e2 = t.epoch();
        assert!(e2 > e1, "renounce fences the old owner");
        t.claim(VirtualPartition(2), ShardId(1)).unwrap();
        assert!(t.epoch() > e2, "claim fences again");
        // Snapshot is consistent with its epoch.
        let (epoch, entries) = t.snapshot();
        assert_eq!(epoch, t.epoch());
        assert_eq!(
            entries[&VirtualPartition(2)].owner,
            Some(ShardId(1)),
            "snapshot reflects the post-claim assignment"
        );
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
