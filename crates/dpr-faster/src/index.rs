//! The lock-free hash index.
//!
//! A growable open-addressing table of 8-byte entries,
//!
//! ```text
//!   63 ........ 40 | 39     | 38 ............... 0
//!   chain identity | FROZEN | head address + 1 (0 = empty slot)
//! ```
//!
//! one entry per *chain identity*: the top `identity_bits` bits of
//! [`Key::hash64`], a width fixed when the log is created. The upper bits
//! are the ones ownership partitioning (`hash % partitions`) leaves alone,
//! so the keys of one shard still spread over every identity. All records
//! of one identity form one `prev`-linked chain in the log; keys that share
//! an identity share the chain, and lookups compare full keys while walking
//! it — which is also how rollback reads "travel back" past invalidated
//! versions (§5.5: "one can access all versions that are not
//! garbage-collected by traversing the hash chain"). Because the identity
//! never depends on the table's size, growing the table never touches a
//! record: `prev` pointers stay valid and an entry is rehashed from its own
//! word.
//!
//! The table starts at [`INITIAL_SLOTS`] and doubles when it is more than
//! 7/8 full ([`HashIndex::slots_for`]), up to one slot per identity. 7/8 is
//! the share of a FASTER 64-byte bucket that holds entries; a linear probe
//! that hits then reads at most about 4.5 slots on average, within one
//! cache line of them, and the long runs of a nearly full table are walked
//! mostly by the insert of a new chain. At one slot per identity an
//! identity's home slot is its own, so the table is direct-mapped and
//! cannot fill up. The number of identities is derived from the store's
//! memory budget ([`HashIndex::identities_for`]), which caps the index at
//! half the bytes the budget allows the resident log (two 8-byte slots per
//! 32-byte record of the paper's size).
//!
//! ## Growth
//!
//! One thread at a time grows the table. It *freezes* each slot of the old
//! table (`fetch_or` of the `FROZEN` bit), which makes every later CAS on
//! that slot fail, copies the frozen entry into a table twice the size, and
//! finally swaps the table pointer. Operations on slots not yet frozen
//! proceed in the old table and are carried over when the grower reaches
//! them; an operation that meets a frozen slot waits for the swap and
//! retries in the new table. The old table is freed through the log's
//! epoch ([`LightEpoch::bump_with`]) once every guard that could have read
//! its pointer is gone, which is why every operation takes the caller's
//! [`EpochGuard`].

use crate::record::NONE_ADDRESS;
use dpr_core::epoch::EpochGuard;
use dpr_core::{Backoff, Key, LightEpoch};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Most identity bits an entry can hold.
pub const MAX_IDENTITY_BITS: u32 = 24;

/// Slots of a new index (4 KiB), or one per identity if that is fewer.
pub const INITIAL_SLOTS: usize = 1 << 9;

const FROZEN: u64 = 1 << 39;
const ADDRESS_MASK: u64 = FROZEN - 1;
const IDENTITY_SHIFT: u32 = 40;

/// The entries gauge moves in steps of this many, so that a new chain costs
/// the process-wide gauge's cache line one RMW in 256.
const GAUGE_STEP: u64 = 256;

fn entry(identity: u64, addr: u64) -> u64 {
    assert!(addr < ADDRESS_MASK, "log address {addr} exceeds the index");
    identity << IDENTITY_SHIFT | (addr + 1)
}

/// Head address of a non-empty entry.
fn address(entry: u64) -> u64 {
    (entry & ADDRESS_MASK) - 1
}

struct Table {
    slots: Box<[AtomicU64]>,
    /// `identity >> shift` is the identity's home slot: its top bits, so
    /// doubling the table sends the entries of slot `i` to `2i` and `2i+1`.
    shift: u32,
}

enum Probe<'t> {
    /// The identity's entry and the word read from it.
    Found(&'t AtomicU64, u64),
    /// The identity has no entry; this is where it would go.
    Vacant(&'t AtomicU64),
    /// The probe met a frozen slot: the table is being replaced.
    Frozen,
}

impl Table {
    fn new(slots: usize, identity_bits: u32) -> Box<Table> {
        debug_assert!(slots.is_power_of_two());
        Box::new(Table {
            slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            shift: identity_bits - slots.trailing_zeros(),
        })
    }

    /// Linear probe from the identity's home slot. Slots never empty out,
    /// so every thread passes the same occupied run and stops at the same
    /// first vacant slot: two threads inserting one identity race for one
    /// slot, and the loser finds the winner's entry there.
    fn probe(&self, identity: u64) -> Probe<'_> {
        let mask = self.slots.len() - 1;
        let mut i = (identity >> self.shift) as usize;
        loop {
            let slot = &self.slots[i & mask];
            let e = slot.load(Ordering::Acquire);
            if e & FROZEN != 0 {
                return Probe::Frozen;
            }
            if e == 0 {
                return Probe::Vacant(slot);
            }
            if e >> IDENTITY_SHIFT == identity {
                return Probe::Found(slot, e);
            }
            i += 1;
        }
    }

    /// Place a carried-over entry. Only the grower calls this, on a table
    /// no other thread can see yet.
    fn place(&self, e: u64) {
        let mask = self.slots.len() - 1;
        let mut i = (e >> IDENTITY_SHIFT >> self.shift) as usize;
        while self.slots[i & mask].load(Ordering::Relaxed) != 0 {
            i += 1;
        }
        self.slots[i & mask].store(e, Ordering::Relaxed);
    }
}

/// The hash index.
pub struct HashIndex {
    /// Never null. Replaced only by [`HashIndex::grow`], which retires the
    /// old table through `epoch`.
    table: AtomicPtr<Table>,
    epoch: Arc<LightEpoch>,
    identity_bits: u32,
    growing: AtomicBool,
    entries: Entries,
}

/// Identities that have an entry. Written by every insert, so kept off the
/// cache line of the table pointer, which every operation reads.
#[repr(align(128))]
struct Entries(AtomicU64);

impl HashIndex {
    /// Chain identities for a store budgeted `resident_records` in memory:
    /// two per record, a power of two. The budget is floored at 2,048
    /// records (a page of them at the paper's size) and the result capped at
    /// what an entry holds.
    #[must_use]
    pub fn identities_for(resident_records: usize) -> u64 {
        let records = (resident_records as u64).clamp(1 << 11, 1 << (MAX_IDENTITY_BITS - 1));
        (2 * records).next_power_of_two()
    }

    /// Create an empty index of `identities` chains (rounded up to a power
    /// of two, between 2 and 2^24). `epoch` must be the one its callers
    /// protect themselves with — the log's.
    #[must_use]
    pub fn new(epoch: Arc<LightEpoch>, identities: u64) -> Self {
        let identity_bits = identities
            .clamp(2, 1 << MAX_IDENTITY_BITS)
            .next_power_of_two()
            .trailing_zeros();
        let slots = INITIAL_SLOTS.min(1 << identity_bits);
        crate::metrics::index_slots().add(slots as i64);
        HashIndex {
            table: AtomicPtr::new(Box::into_raw(Table::new(slots, identity_bits))),
            epoch,
            identity_bits,
            growing: AtomicBool::new(false),
            entries: Entries(AtomicU64::new(0)),
        }
    }

    /// Number of chain identities: what a checkpoint manifest records, and
    /// the most slots the table grows to.
    #[must_use]
    pub fn identities(&self) -> u64 {
        1 << self.identity_bits
    }

    /// Identities that currently have a chain.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries.0.load(Ordering::Relaxed)
    }

    /// Current table size.
    #[must_use]
    pub fn slots(&self, guard: &EpochGuard<'_>) -> usize {
        self.current(guard).slots.len()
    }

    fn identity(&self, key: &[u8]) -> u64 {
        Key::hash_bytes(key) >> (64 - self.identity_bits)
    }

    fn current<'g>(&self, guard: &'g EpochGuard<'_>) -> &'g Table {
        assert!(
            guard.protects(&self.epoch),
            "guard is not on the index's epoch"
        );
        // SAFETY: the pointer is never null, and a table it once held is
        // freed only by the action `grow` hands to `self.epoch` after the
        // swap, which runs when no guard taken before the swap is left.
        // `guard` is on that epoch (asserted) and was taken before this
        // load, so either the load sees the new table or `guard` keeps the
        // old one alive for `'g`. The SeqCst load pairs with the swap and
        // with the SeqCst slot accesses in `LightEpoch`.
        unsafe { &*self.table.load(Ordering::SeqCst) }
    }

    /// Wait until `old` has been replaced.
    fn await_swap(&self, old: &Table) {
        let mut backoff = Backoff::new();
        while std::ptr::eq(self.table.load(Ordering::SeqCst), old) {
            backoff.snooze();
        }
    }

    /// Head address of the chain `key` is on, or [`NONE_ADDRESS`].
    #[must_use]
    pub fn head(&self, guard: &EpochGuard<'_>, key: &Key) -> u64 {
        self.head_of(guard, key.as_bytes())
    }

    /// [`HashIndex::head`] from the key's bytes, as a record in place holds
    /// them.
    pub(crate) fn head_of(&self, guard: &EpochGuard<'_>, key: &[u8]) -> u64 {
        let identity = self.identity(key);
        loop {
            let table = self.current(guard);
            match table.probe(identity) {
                Probe::Found(_, e) => return address(e),
                Probe::Vacant(_) => return NONE_ADDRESS,
                Probe::Frozen => self.await_swap(table),
            }
        }
    }

    /// Publish `new_addr` as the head of `key`'s chain iff the head is still
    /// `expected` (no chain yet when `expected == NONE_ADDRESS`). Returns
    /// the observed head on failure so the caller can re-link and retry.
    pub fn try_publish(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        expected: u64,
        new_addr: u64,
    ) -> Result<(), u64> {
        self.publish_if(guard, key, new_addr, |head| head == expected)
    }

    /// Publish `addr` as the head of `key`'s chain unless the chain already
    /// has a higher head. Used by the parallel recovery rebuild: threads
    /// scanning disjoint address ranges race their records into the index,
    /// and keeping the maximum gives last-writer-wins by address order —
    /// the same head the sequential scan-and-publish would produce.
    pub fn publish_max(&self, guard: &EpochGuard<'_>, key: &Key, addr: u64) {
        let _ = self.publish_if(guard, key, addr, |head| head == NONE_ADDRESS || head < addr);
    }

    /// Make `new_addr` the head of `key`'s chain if `wanted` accepts the
    /// head it replaces ([`NONE_ADDRESS`] when the chain has no entry yet);
    /// otherwise return the head that `wanted` turned down.
    fn publish_if(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        new_addr: u64,
        wanted: impl Fn(u64) -> bool,
    ) -> Result<(), u64> {
        let identity = self.identity(key.as_bytes());
        let new = entry(identity, new_addr);
        loop {
            let table = self.current(guard);
            // A lost CAS means the slot was published to, taken or frozen
            // since the probe: look again.
            match table.probe(identity) {
                Probe::Found(slot, e) => {
                    if !wanted(address(e)) {
                        return Err(address(e));
                    }
                    if slot
                        .compare_exchange(e, new, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Ok(());
                    }
                }
                Probe::Vacant(slot) => {
                    if !wanted(NONE_ADDRESS) {
                        return Err(NONE_ADDRESS);
                    }
                    if slot
                        .compare_exchange(0, new, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.inserted(table);
                        return Ok(());
                    }
                }
                Probe::Frozen => self.await_swap(table),
            }
        }
    }

    /// The table size `chains` entries need: the smallest power of two they
    /// fill to at most 7/8, or one slot per identity if that is fewer. The
    /// one growth rule, for [`HashIndex::reserve`] and for the doubling an
    /// insert triggers.
    #[must_use]
    pub fn slots_for(&self, chains: u64) -> usize {
        (chains * 8)
            .div_ceil(7)
            .next_power_of_two()
            .min(self.identities()) as usize
    }

    /// Account for a new entry in `table` and double it if that made it
    /// more than 7/8 full.
    fn inserted(&self, table: &Table) {
        let entries = self.entries.0.fetch_add(1, Ordering::Relaxed) + 1;
        if entries.is_multiple_of(GAUGE_STEP) {
            crate::metrics::index_entries().add(GAUGE_STEP as i64);
        }
        let slots = self.slots_for(entries);
        if slots > table.slots.len() {
            self.grow(table, slots);
        }
    }

    /// Make room for `chains` entries ahead of a bulk load (the recovery
    /// rebuild), so that the load does not rehash its way up from
    /// [`INITIAL_SLOTS`]. A hint: it gives way to a growth already running.
    pub fn reserve(&self, guard: &EpochGuard<'_>, chains: u64) {
        let table = self.current(guard);
        let slots = self.slots_for(chains);
        if slots > table.slots.len() {
            self.grow(table, slots);
        }
    }

    /// Replace `old` by a table of `slots`, unless another thread is already
    /// growing or has done so.
    fn grow(&self, old: &Table, slots: usize) {
        if self.growing.swap(true, Ordering::Acquire) {
            return;
        }
        if !std::ptr::eq(self.table.load(Ordering::SeqCst), old) {
            self.growing.store(false, Ordering::Release);
            return;
        }
        let new = Table::new(slots, self.identity_bits);
        for slot in old.slots.iter() {
            let e = slot.fetch_or(FROZEN, Ordering::AcqRel);
            if e != 0 {
                new.place(e);
            }
        }
        let added = slots - old.slots.len();
        let retired = self.table.swap(Box::into_raw(new), Ordering::SeqCst);
        self.growing.store(false, Ordering::Release);
        // SAFETY: `retired` came from `Box::into_raw` (in `new` or an
        // earlier `grow`) and the swap above removed the only shared copy,
        // so this is its sole owner.
        let retired = unsafe { Box::from_raw(retired) };
        // Threads that loaded the pointer before the swap may still be
        // probing it or waiting in `await_swap`; their guards are on
        // `self.epoch`, so it frees the table after the last of them.
        self.epoch.bump_with(move || drop(retired));
        crate::metrics::index_slots().add(added as i64);
        crate::metrics::index_grows().inc();
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no operation is in flight, and the pointer
        // is the sole owner of the current table (see `grow`).
        let table = unsafe { Box::from_raw(*self.table.get_mut()) };
        crate::metrics::index_slots().sub(table.slots.len() as i64);
        let entries = *self.entries.0.get_mut();
        crate::metrics::index_entries().sub((entries - entries % GAUGE_STEP) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn index(identities: u64) -> (Arc<LightEpoch>, HashIndex) {
        let epoch = Arc::new(LightEpoch::new(64));
        let idx = HashIndex::new(Arc::clone(&epoch), identities);
        (epoch, idx)
    }

    #[test]
    fn empty_index_has_no_heads() {
        let (epoch, idx) = index(1 << 12);
        assert_eq!(idx.head(&epoch.protect(), &Key::from_u64(5)), NONE_ADDRESS);
    }

    #[test]
    fn publish_and_lookup() {
        let (epoch, idx) = index(1 << 12);
        let g = epoch.protect();
        let k = Key::from_u64(1);
        idx.try_publish(&g, &k, NONE_ADDRESS, 10).unwrap();
        assert_eq!(idx.head(&g, &k), 10);
        idx.try_publish(&g, &k, 10, 20).unwrap();
        assert_eq!(idx.head(&g, &k), 20);
        assert_eq!(idx.entries(), 1);
    }

    #[test]
    fn stale_publish_fails_with_observed_head() {
        let (epoch, idx) = index(1 << 12);
        let g = epoch.protect();
        let k = Key::from_u64(1);
        idx.try_publish(&g, &k, NONE_ADDRESS, 10).unwrap();
        assert_eq!(idx.try_publish(&g, &k, NONE_ADDRESS, 20), Err(10));
        assert_eq!(idx.try_publish(&g, &k, 7, 20), Err(10));
        // An expected head on a chain that does not exist is stale too.
        assert_eq!(
            idx.try_publish(&g, &Key::from_u64(2), 7, 20),
            Err(NONE_ADDRESS)
        );
    }

    #[test]
    fn publish_max_is_last_writer_by_address() {
        let (epoch, idx) = index(1 << 12);
        let g = epoch.protect();
        let k = Key::from_u64(3);
        idx.publish_max(&g, &k, 10);
        assert_eq!(idx.head(&g, &k), 10);
        // A lower address never displaces a higher one, in any order.
        idx.publish_max(&g, &k, 5);
        assert_eq!(idx.head(&g, &k), 10);
        idx.publish_max(&g, &k, 42);
        assert_eq!(idx.head(&g, &k), 42);
    }

    #[test]
    fn identities_follow_the_memory_budget() {
        // colo_store's 250k resident records: 2^19 chains, a 4 MiB table.
        assert_eq!(HashIndex::identities_for(250_000), 1 << 19);
        assert_eq!(HashIndex::identities_for(1 << 22), 1 << 23);
        // Floored at a page of records, capped by the entry.
        assert_eq!(HashIndex::identities_for(0), 1 << 12);
        assert_eq!(
            HashIndex::identities_for(usize::MAX),
            1 << MAX_IDENTITY_BITS
        );
        let (_, idx) = index(100);
        assert_eq!(idx.identities(), 128);
    }

    #[test]
    fn keys_of_one_identity_share_one_entry() {
        let (epoch, idx) = index(16);
        let g = epoch.protect();
        for k in 0..1000u64 {
            let key = Key::from_u64(k);
            let head = idx.head(&g, &key);
            idx.try_publish(&g, &key, head, k).unwrap();
        }
        assert_eq!(idx.entries(), 16);
        assert_eq!(idx.slots(&g), 16, "one slot per identity at most");
        // Each chain's head is the last key published on it.
        let heads: HashSet<u64> = (0..1000).map(|k| idx.head(&g, &Key::from_u64(k))).collect();
        assert_eq!(heads.len(), 16);
    }

    #[test]
    fn grows_with_the_keyspace_and_keeps_every_head() {
        let (epoch, idx) = index(1 << 20);
        let g = epoch.protect();
        assert_eq!(idx.slots(&g), INITIAL_SLOTS);
        let n = 20_000u64;
        for k in 0..n {
            idx.try_publish(&g, &Key::from_u64(k), NONE_ADDRESS, k)
                .or_else(|head| idx.try_publish(&g, &Key::from_u64(k), head, k))
                .unwrap();
        }
        assert!(idx.slots(&g) >= idx.slots_for(idx.entries()));
        assert!(
            idx.slots(&g) >= 8 * INITIAL_SLOTS,
            "at least three doublings"
        );
        // 20k keys over 2^20 identities: a few share, none is lost.
        let mut newest = std::collections::HashMap::new();
        for k in 0..n {
            newest.insert(Key::from_u64(k).hash64() >> 44, k);
        }
        assert_eq!(idx.entries(), newest.len() as u64);
        for k in 0..n {
            let id = Key::from_u64(k).hash64() >> 44;
            assert_eq!(idx.head(&g, &Key::from_u64(k)), newest[&id]);
        }
    }

    /// The memory rule and its cost: 100,000 chains take 2^17 slots (1 MiB;
    /// a table that doubles at half full takes 2^18), the table fills to
    /// exactly 7/8 before it doubles, and there a hit probes a cache line's
    /// worth of slots at most, on average over the entries.
    #[test]
    fn a_table_fills_to_seven_eighths_before_it_doubles() {
        let (epoch, idx) = index(1 << 23);
        let g = epoch.protect();
        let mut keys = (0u64..).map(Key::from_u64);
        let mut fill_to = |chains: u64| {
            while idx.entries() < chains {
                idx.publish_max(&g, &keys.next().unwrap(), 1);
            }
        };
        fill_to(100_000);
        assert_eq!(idx.slots(&g), 1 << 17);
        fill_to(7 << 14);
        assert_eq!(idx.slots(&g), 1 << 17, "7/8 full and not doubled");
        let table = idx.current(&g);
        let mask = table.slots.len() - 1;
        // Slots a hit reads: from its identity's home to its entry.
        let probed: usize = table
            .slots
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .enumerate()
            .filter(|&(_, e)| e != 0)
            .map(|(i, e)| {
                (i.wrapping_sub((e >> IDENTITY_SHIFT >> table.shift) as usize) & mask) + 1
            })
            .sum();
        let mean = probed as f64 / idx.entries() as f64;
        assert!(mean <= 4.5, "a hit probes {mean:.2} slots on average");
        fill_to((7 << 14) + 1);
        assert_eq!(idx.slots(&g), 1 << 18, "one chain past 7/8 doubles");
    }

    #[test]
    fn reserve_sizes_the_table_once_and_keeps_its_entries() {
        let (epoch, idx) = index(1 << 12);
        let g = epoch.protect();
        for k in 0..100u64 {
            idx.publish_max(&g, &Key::from_u64(k), k);
        }
        idx.reserve(&g, 1000);
        assert_eq!(idx.slots(&g), 2048);
        idx.reserve(&g, 10);
        assert_eq!(idx.slots(&g), 2048, "never shrinks");
        idx.reserve(&g, 1 << 20);
        assert_eq!(idx.slots(&g), 1 << 12, "one slot per identity at most");
        for k in 0..100u64 {
            assert_ne!(idx.head(&g, &Key::from_u64(k)), NONE_ADDRESS, "key {k}");
        }
    }

    /// Hash partitioning takes `hash % 64` and a 2-shard cluster gives the
    /// even partitions to shard 0, so every key of that shard has hash bit
    /// 0 clear. An index keyed by low hash bits would leave half its chains
    /// unused on each shard.
    #[test]
    fn one_shards_keys_spread_over_nearly_every_identity() {
        let (epoch, idx) = index(256);
        let g = epoch.protect();
        let owned = (0..100_000u64)
            .map(Key::from_u64)
            .filter(|k| k.hash64() % 64 % 2 == 0)
            .take(4096);
        for (i, key) in owned.enumerate() {
            idx.publish_max(&g, &key, i as u64);
        }
        assert!(
            idx.entries() * 10 > idx.identities() * 9,
            "{} of {} identities used",
            idx.entries(),
            idx.identities()
        );
    }

    #[test]
    fn concurrent_publishes_linearize() {
        let (epoch, idx) = index(1 << 12);
        let k = Key::from_u64(99);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (epoch, idx, k) = (&epoch, &idx, &k);
                s.spawn(move || {
                    let g = epoch.protect();
                    for i in 0..100u64 {
                        let mine = t * 1000 + i;
                        let mut expected = idx.head(&g, k);
                        while let Err(seen) = idx.try_publish(&g, k, expected, mine) {
                            expected = seen;
                        }
                    }
                });
            }
        });
        // Some thread's last publish won; head must be one of the published
        // addresses (t * 1000 + i with t < 8, i < 100).
        let head = idx.head(&epoch.protect(), &k);
        assert!(head < 8000, "head {head} out of range");
        assert!(head % 1000 < 100, "head {head} not a published address");
        assert_eq!(idx.entries(), 1);
    }

    /// Publishers race each other through at least three doublings, every
    /// key's first insert contended by all of them (the barrier lines the
    /// threads up on the same key range). Afterwards there is exactly one
    /// entry per identity and every head is the highest address published
    /// on its chain.
    #[test]
    fn racing_publishers_across_doublings_lose_nothing() {
        const THREADS: u64 = 4;
        const KEYS: u64 = 6000;
        let (epoch, idx) = index(1 << 20);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (epoch, idx, barrier) = (&epoch, &idx, &barrier);
                s.spawn(move || {
                    for round in 0..KEYS / 500 {
                        barrier.wait();
                        let g = epoch.protect();
                        for k in round * 500..(round + 1) * 500 {
                            // Thread t publishes address k * THREADS + t.
                            idx.publish_max(&g, &Key::from_u64(k), k * THREADS + t);
                        }
                    }
                });
            }
        });
        let g = epoch.protect();
        assert!(
            idx.slots(&g) >= 8 * INITIAL_SLOTS,
            "at least three doublings"
        );
        let mut want = std::collections::HashMap::new();
        for k in 0..KEYS {
            let id = Key::from_u64(k).hash64() >> 44;
            let top = k * THREADS + THREADS - 1;
            let e = want.entry(id).or_insert(top);
            *e = top.max(*e);
        }
        assert_eq!(idx.entries(), want.len() as u64, "one entry per identity");
        for k in 0..KEYS {
            let id = Key::from_u64(k).hash64() >> 44;
            assert_eq!(idx.head(&g, &Key::from_u64(k)), want[&id], "key {k}");
        }
        // No identity sits in two slots of the final table.
        let table = idx.current(&g);
        let ids: Vec<u64> = table
            .slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&e| e != 0)
            .map(|e| e >> IDENTITY_SHIFT)
            .collect();
        assert_eq!(ids.len(), ids.iter().collect::<HashSet<_>>().len());
        assert_eq!(ids.len() as u64, idx.entries());
    }
}
