//! The simulated fault-tolerant SQL metadata store, sharded into
//! independently locked partitions.
//!
//! The paper's deployment keeps this state in Azure SQL; the store is
//! assumed fault-tolerant (as in the paper), so it has no crash mode, and an
//! optional injected per-statement latency models the network round trip.
//!
//! The paper's §6 scalability argument requires the metadata plane to stay
//! off the critical path as shard counts grow; a single mutex over every
//! table would serialize all DPR-table writes, graph inserts, and cut reads
//! behind one cache line. [`PartitionedSqlStore`] keys the DPR table, the
//! precedence graph, and the published cut by `shard % partitions`, so
//! reports from disjoint shard groups touch disjoint locks (the same move
//! as a partitioned SQL table with per-partition row locks).
//!
//! Consistency is preserved where DPR needs it:
//!
//! * **Cut atomicity.** The published cut lives as per-partition slices, so
//!   a naive reader could observe partition 0's slice from a new cut and
//!   partition 1's from an old one — a *torn cut* that is not downward
//!   closed even though both source cuts were. A seqlock (`cut_seq`)
//!   prevents this: cut writers serialize on the control lock, bump the
//!   sequence to odd, write every slice, and bump it back to even; readers
//!   retry whenever the sequence is odd or changes across their scan.
//!   `read_cut` therefore always returns some cut that was wholly published.
//! * **Transactional batches.** Group-committed writes
//!   ([`MetadataStore::update_persisted_versions`],
//!   [`MetadataStore::add_graph_versions`]) lock every touched partition in
//!   ascending index order (deadlock-free), validate, then apply — an abort
//!   leaves no partition modified.
//! * **Conservative aggregates.** `min`/`max`/`persisted_versions` scan
//!   partitions one lock at a time. Because persisted versions are
//!   monotone, a racing writer can only *raise* rows after the scan passed
//!   them, so the returned minimum is ≤ the true post-scan minimum — safe
//!   for cut computation, which only ever uses it as a floor.
//! * **Recovery / world-line state** is rare and global, so it stays under
//!   one small control lock; cut writers hold it too, which keeps
//!   `begin_recovery`'s frozen cut mutually exclusive with cut publication
//!   (no cut can land between the freeze and the halt).
//!
//! Statement accounting: one *charged* statement per logical operation (a
//! batch is one round trip no matter how many partitions it touches).
//! Per-partition touch counters
//! ([`PartitionedSqlStore::partition_statement_counts`]) additionally
//! record how evenly load spreads — the benchmark reports both, as
//! `metadata.statements_per_version` and `metadata.partition_imbalance`.

use crate::recovery::RecoveryState;
use crate::store::{Cut, MetadataStore};
use dpr_core::{DprError, Result, ShardId, Token, Version, WorldLine};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

#[derive(Default)]
struct PartitionTables {
    dpr: BTreeMap<ShardId, Version>,
    graph: BTreeMap<Token, Vec<Token>>,
    /// This partition's slice of the published cut. Only written under the
    /// control lock with the seqlock odd (see module docs).
    cut: Cut,
}

/// One metadata partition: its own lock, its own touch counter. Aligned to
/// two cache lines so neighbouring partitions never false-share.
#[repr(align(128))]
struct Partition {
    tables: Mutex<PartitionTables>,
    /// Logical statements that touched this partition. A cross-partition
    /// batch bumps several of these but is *charged* globally as one.
    touched: AtomicU64,
}

impl Default for Partition {
    fn default() -> Self {
        Partition {
            tables: Mutex::new(PartitionTables::default()),
            touched: AtomicU64::new(0),
        }
    }
}

/// Rare global state: world-line, in-flight recovery, frozen recovery cuts.
/// Also serializes all cut writers (see module docs).
#[derive(Default)]
struct Control {
    world_line: WorldLine,
    recovery: Option<RecoveryState>,
    recovery_cuts: BTreeMap<WorldLine, Cut>,
}

/// Partitioned in-process metadata store (see module docs): linearizable
/// tables behind [`MetadataStore`], with per-statement latency injection.
pub struct PartitionedSqlStore {
    partitions: Box<[Partition]>,
    control: Mutex<Control>,
    /// Seqlock generation for the published cut: odd while a writer is
    /// mid-update, even otherwise. Readers retry on odd or on a change
    /// across their scan.
    cut_seq: AtomicU64,
    latency: Duration,
    statements: AtomicU64,
    dpr_rows: AtomicI64,
    graph_rows: AtomicI64,
}

impl PartitionedSqlStore {
    /// Store with `partitions` independent metadata partitions and no
    /// injected latency. `partitions` is clamped to at least 1.
    #[must_use]
    pub fn new(partitions: usize) -> Self {
        Self::with_latency(partitions, Duration::ZERO)
    }

    /// Store with `partitions` partitions, charging `latency` per statement.
    #[must_use]
    pub fn with_latency(partitions: usize, latency: Duration) -> Self {
        let n = partitions.max(1);
        PartitionedSqlStore {
            partitions: (0..n).map(|_| Partition::default()).collect(),
            control: Mutex::new(Control::default()),
            cut_seq: AtomicU64::new(0),
            latency,
            statements: AtomicU64::new(0),
            dpr_rows: AtomicI64::new(0),
            graph_rows: AtomicI64::new(0),
        }
    }

    /// Number of metadata partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total statements executed so far — the metadata write/read volume.
    /// Batched operations ([`MetadataStore::update_persisted_versions`],
    /// [`MetadataStore::add_graph_versions`]) count as **one** statement
    /// regardless of row or partition count, which is exactly the saving
    /// they exist to provide.
    #[must_use]
    pub fn statement_count(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    /// Per-partition touch counts (how many logical statements reached each
    /// partition) — the load-balance signal behind the benchmark's
    /// `metadata.partition_imbalance`.
    #[must_use]
    pub fn partition_statement_counts(&self) -> Vec<u64> {
        self.partitions
            .iter()
            .map(|p| p.touched.load(Ordering::Relaxed))
            .collect()
    }

    fn part_of(&self, shard: ShardId) -> usize {
        shard.0 as usize % self.partitions.len()
    }

    fn charge(&self) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        crate::metrics::statements().inc();
        if !self.latency.is_zero() {
            let timer = crate::metrics::statement_latency().start_timer();
            std::thread::sleep(self.latency);
            drop(timer);
        }
    }

    fn touch(&self, partition: usize) {
        self.partitions[partition]
            .touched
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Lock every partition in `touched` (sorted, deduped by the caller) in
    /// ascending index order — the global lock order that keeps
    /// multi-partition transactions deadlock-free.
    fn lock_ascending<'a>(
        &'a self,
        touched: &[usize],
    ) -> BTreeMap<usize, MutexGuard<'a, PartitionTables>> {
        touched
            .iter()
            .map(|&p| (p, self.partitions[p].tables.lock()))
            .collect()
    }

    fn touched_partitions(&self, shards: impl Iterator<Item = ShardId>) -> Vec<usize> {
        let mut touched: Vec<usize> = shards.map(|s| self.part_of(s)).collect();
        touched.sort_unstable();
        touched.dedup();
        for &p in &touched {
            self.touch(p);
        }
        touched
    }

    /// Merge every partition's cut slice, one lock at a time. Callers that
    /// need cross-partition atomicity must wrap this in the seqlock reader
    /// loop or hold the control lock (which excludes all cut writers).
    fn collect_cut_slices(&self) -> Cut {
        let mut cut = Cut::new();
        for p in self.partitions.iter() {
            for (&shard, &v) in &p.tables.lock().cut {
                cut.insert(shard, v);
            }
        }
        cut
    }
}

impl MetadataStore for PartitionedSqlStore {
    fn register_worker(&self, shard: ShardId) -> Result<()> {
        self.charge();
        let p = self.part_of(shard);
        self.touch(p);
        // Membership changes write a cut slice, so they serialize with cut
        // writers (control lock) and run under the seqlock like any other
        // cut write.
        let _ctl = self.control.lock();
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        {
            let mut t = self.partitions[p].tables.lock();
            if !t.dpr.contains_key(&shard) {
                self.dpr_rows.fetch_add(1, Ordering::Relaxed);
            }
            t.dpr.entry(shard).or_insert(Version::ZERO);
            t.cut.entry(shard).or_insert(Version::ZERO);
        }
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        crate::metrics::dpr_table_rows().set(self.dpr_rows.load(Ordering::Relaxed));
        Ok(())
    }

    fn remove_worker(&self, shard: ShardId) -> Result<()> {
        self.charge();
        let p = self.part_of(shard);
        self.touch(p);
        let _ctl = self.control.lock();
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        {
            let mut t = self.partitions[p].tables.lock();
            if t.dpr.remove(&shard).is_some() {
                self.dpr_rows.fetch_sub(1, Ordering::Relaxed);
            }
            t.cut.remove(&shard);
        }
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        crate::metrics::dpr_table_rows().set(self.dpr_rows.load(Ordering::Relaxed));
        Ok(())
    }

    fn members(&self) -> Result<Vec<ShardId>> {
        self.charge();
        let mut members = Vec::new();
        for p in self.partitions.iter() {
            members.extend(p.tables.lock().dpr.keys().copied());
        }
        members.sort_unstable();
        Ok(members)
    }

    fn update_persisted_versions(&self, updates: &[(ShardId, Version)]) -> Result<()> {
        if updates.is_empty() {
            return Ok(());
        }
        // One multi-row `UPDATE ... FROM (VALUES ...)`: a single round trip
        // no matter how many rows ride in it.
        self.charge();
        let touched = self.touched_partitions(updates.iter().map(|&(s, _)| s));
        let mut guards = self.lock_ascending(&touched);
        // Validate the whole batch before touching any row: an abort must
        // leave every partition unmodified (transactional semantics).
        if let Some(&(missing, _)) = updates
            .iter()
            .find(|&&(s, _)| !guards[&self.part_of(s)].dpr.contains_key(&s))
        {
            return Err(DprError::Metadata(format!("{missing} not registered")));
        }
        for &(shard, version) in updates {
            let g = guards
                .get_mut(&self.part_of(shard))
                .expect("partition locked above");
            let v = g.dpr.get_mut(&shard).expect("checked above");
            *v = (*v).max(version);
        }
        Ok(())
    }

    fn min_persisted_version(&self) -> Result<Option<Version>> {
        self.charge();
        // Partition-at-a-time scan: conservative under races because rows
        // only ever rise (see module docs).
        let mut min = None;
        for p in self.partitions.iter() {
            if let Some(&v) = p.tables.lock().dpr.values().min() {
                min = Some(min.map_or(v, |m: Version| m.min(v)));
            }
        }
        Ok(min)
    }

    fn max_persisted_version(&self) -> Result<Option<Version>> {
        self.charge();
        let mut max = None;
        for p in self.partitions.iter() {
            if let Some(&v) = p.tables.lock().dpr.values().max() {
                max = Some(max.map_or(v, |m: Version| m.max(v)));
            }
        }
        Ok(max)
    }

    fn persisted_versions(&self) -> Result<Cut> {
        self.charge();
        let mut cut = Cut::new();
        for p in self.partitions.iter() {
            for (&shard, &v) in &p.tables.lock().dpr {
                cut.insert(shard, v);
            }
        }
        Ok(cut)
    }

    fn add_graph_versions(&self, entries: Vec<(Token, Vec<Token>)>) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        self.charge();
        let touched = self.touched_partitions(entries.iter().map(|(t, _)| t.shard));
        let mut guards = self.lock_ascending(&touched);
        let mut added = 0i64;
        for (token, deps) in entries {
            let g = guards
                .get_mut(&self.part_of(token.shard))
                .expect("partition locked above");
            if g.graph.insert(token, deps).is_none() {
                added += 1;
            }
        }
        drop(guards);
        self.graph_rows.fetch_add(added, Ordering::Relaxed);
        crate::metrics::graph_rows().set(self.graph_rows.load(Ordering::Relaxed));
        Ok(())
    }

    fn graph_snapshot(&self) -> Result<Vec<(Token, Vec<Token>)>> {
        self.charge();
        let mut snap = Vec::new();
        for p in self.partitions.iter() {
            snap.extend(p.tables.lock().graph.iter().map(|(k, v)| (*k, v.clone())));
        }
        snap.sort_unstable_by_key(|&(t, _)| t);
        Ok(snap)
    }

    fn prune_graph_below(&self, cut: &Cut) -> Result<()> {
        self.charge();
        let mut removed = 0i64;
        for p in self.partitions.iter() {
            let mut t = p.tables.lock();
            let before = t.graph.len();
            t.graph.retain(|token, _| {
                cut.get(&token.shard)
                    .is_none_or(|&committed| token.version > committed)
            });
            removed += (before - t.graph.len()) as i64;
        }
        self.graph_rows.fetch_sub(removed, Ordering::Relaxed);
        crate::metrics::graph_rows().set(self.graph_rows.load(Ordering::Relaxed));
        Ok(())
    }

    fn update_cut_atomically(&self, cut: Cut) -> Result<()> {
        self.charge();
        let ctl = self.control.lock();
        if ctl.recovery.is_some() {
            return Err(DprError::Recovering);
        }
        // Seqlock writer: readers scanning the slices while the sequence is
        // odd (or across the bump) retry, so no reader ever observes a mix
        // of this cut and the previous one.
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        // The cut never regresses: a later cut dominates per-shard.
        let mut by_partition: BTreeMap<usize, Vec<(ShardId, Version)>> = BTreeMap::new();
        for (shard, v) in cut {
            by_partition
                .entry(self.part_of(shard))
                .or_default()
                .push((shard, v));
        }
        for (p, rows) in by_partition {
            self.touch(p);
            let mut t = self.partitions[p].tables.lock();
            for (shard, v) in rows {
                let entry = t.cut.entry(shard).or_insert(Version::ZERO);
                *entry = (*entry).max(v);
            }
        }
        self.cut_seq.fetch_add(1, Ordering::AcqRel);
        drop(ctl);
        Ok(())
    }

    fn read_cut(&self) -> Result<Cut> {
        self.charge();
        loop {
            let seq = self.cut_seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let cut = self.collect_cut_slices();
            if self.cut_seq.load(Ordering::Acquire) == seq {
                return Ok(cut);
            }
        }
    }

    fn telemetry_frontier(&self) -> Result<(Option<Version>, Cut)> {
        // Telemetry-only: no charge, no latency, no touch accounting — this
        // read does not model a protocol round trip.
        let vmax = {
            let mut max = None;
            for p in self.partitions.iter() {
                if let Some(&v) = p.tables.lock().dpr.values().max() {
                    max = Some(max.map_or(v, |m: Version| m.max(v)));
                }
            }
            max
        };
        loop {
            let seq = self.cut_seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let cut = self.collect_cut_slices();
            if self.cut_seq.load(Ordering::Acquire) == seq {
                return Ok((vmax, cut));
            }
        }
    }

    fn world_line(&self) -> Result<WorldLine> {
        self.charge();
        Ok(self.control.lock().world_line)
    }

    fn begin_recovery(&self) -> Result<RecoveryState> {
        self.charge();
        let mut ctl = self.control.lock();
        ctl.world_line = ctl.world_line.next();
        // Holding the control lock excludes every cut writer, so the
        // partition-at-a-time scans below see one frozen cut / membership.
        let cut = self.collect_cut_slices();
        let mut pending = BTreeSet::new();
        for p in self.partitions.iter() {
            pending.extend(p.tables.lock().dpr.keys().copied());
        }
        let state = RecoveryState {
            world_line: ctl.world_line,
            cut: cut.clone(),
            pending,
        };
        ctl.recovery = Some(state.clone());
        ctl.recovery_cuts.insert(state.world_line, cut);
        Ok(state)
    }

    fn report_rollback_complete(&self, shard: ShardId) -> Result<RecoveryState> {
        self.charge();
        let mut ctl = self.control.lock();
        let Some(rec) = ctl.recovery.as_mut() else {
            return Err(DprError::Metadata("no recovery in progress".into()));
        };
        rec.pending.remove(&shard);
        let state = rec.clone();
        if state.complete() {
            ctl.recovery = None;
        }
        Ok(state)
    }

    fn recovery_in_progress(&self) -> Result<Option<RecoveryState>> {
        self.charge();
        Ok(self.control.lock().recovery.clone())
    }

    fn recovery_cut(&self, world_line: WorldLine) -> Result<Option<Cut>> {
        self.charge();
        Ok(self.control.lock().recovery_cuts.get(&world_line).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(i: u32) -> ShardId {
        ShardId(i)
    }

    fn token(sh: u32, v: u64) -> Token {
        Token::new(shard(sh), Version(v))
    }

    /// Run a store-semantics test against one partition (every row behind
    /// one lock) and against four (the test's shards spread over several).
    fn at_1_and_4_partitions(test: impl Fn(PartitionedSqlStore)) {
        for partitions in [1, 4] {
            test(PartitionedSqlStore::new(partitions));
        }
    }

    #[test]
    fn routes_shards_across_partitions_and_aggregates() {
        at_1_and_4_partitions(|s| {
            for i in 0..8 {
                s.register_worker(shard(i)).unwrap();
            }
            for i in 0..8 {
                s.update_persisted_version(shard(i), Version(u64::from(i) + 1))
                    .unwrap();
            }
            assert_eq!(s.min_persisted_version().unwrap(), Some(Version(1)));
            assert_eq!(s.max_persisted_version().unwrap(), Some(Version(8)));
            assert_eq!(s.persisted_versions().unwrap().len(), 8);
            assert_eq!(s.members().unwrap().len(), 8);
            // Every partition saw some of the traffic.
            let counts = s.partition_statement_counts();
            assert_eq!(counts.len(), s.partition_count());
            assert!(counts.iter().all(|&c| c > 0), "unbalanced: {counts:?}");
        });
    }

    #[test]
    fn persisted_version_never_regresses() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.update_persisted_version(shard(0), Version(9)).unwrap();
            s.update_persisted_version(shard(0), Version(4)).unwrap();
            assert_eq!(s.min_persisted_version().unwrap(), Some(Version(9)));
        });
    }

    #[test]
    fn update_unregistered_worker_fails() {
        at_1_and_4_partitions(|s| {
            assert!(s.update_persisted_version(shard(9), Version(1)).is_err());
        });
    }

    #[test]
    fn batched_update_is_one_statement() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.register_worker(shard(1)).unwrap();
            s.register_worker(shard(2)).unwrap();
            let before = s.statement_count();
            s.update_persisted_versions(&[
                (shard(0), Version(4)),
                (shard(1), Version(7)),
                (shard(2), Version(5)),
            ])
            .unwrap();
            assert_eq!(s.statement_count() - before, 1, "one round trip, 3 rows");
            assert_eq!(s.max_persisted_version().unwrap(), Some(Version(7)));
            assert_eq!(s.min_persisted_version().unwrap(), Some(Version(4)));
            // Still monotone per row.
            s.update_persisted_versions(&[(shard(1), Version(2))])
                .unwrap();
            assert_eq!(s.max_persisted_version().unwrap(), Some(Version(7)));
        });
    }

    #[test]
    fn batched_update_aborts_atomically_on_unregistered_shard() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.register_worker(shard(1)).unwrap();
            // At four partitions shard 9 routes to partition 1 — a different
            // partition from shard 0.
            assert!(s
                .update_persisted_versions(&[(shard(0), Version(4)), (shard(9), Version(1))])
                .is_err());
            // The whole transaction rolled back: shard 0 untouched.
            assert_eq!(s.min_persisted_version().unwrap(), Some(Version::ZERO));
            assert_eq!(s.max_persisted_version().unwrap(), Some(Version::ZERO));
        });
    }

    #[test]
    fn batched_graph_insert_is_one_statement() {
        at_1_and_4_partitions(|s| {
            let before = s.statement_count();
            s.add_graph_versions(vec![
                (token(0, 1), vec![]),
                (token(1, 1), vec![token(0, 1)]),
                (token(5, 2), vec![token(1, 1)]),
            ])
            .unwrap();
            assert_eq!(s.statement_count() - before, 1);
            let snap = s.graph_snapshot().unwrap();
            assert_eq!(snap.len(), 3);
            // Snapshot is token-sorted regardless of partition layout.
            assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
            // Empty batches are free.
            let before = s.statement_count();
            s.add_graph_versions(Vec::new()).unwrap();
            s.update_persisted_versions(&[]).unwrap();
            assert_eq!(s.statement_count(), before);
        });
    }

    #[test]
    fn graph_prune_respects_cut() {
        at_1_and_4_partitions(|s| {
            s.add_graph_version(token(0, 1), vec![]).unwrap();
            s.add_graph_version(token(0, 2), vec![token(1, 1)]).unwrap();
            s.add_graph_version(token(1, 1), vec![]).unwrap();
            let cut = Cut::from([(shard(0), Version(1)), (shard(1), Version(1))]);
            s.prune_graph_below(&cut).unwrap();
            let g = s.graph_snapshot().unwrap();
            assert_eq!(g.len(), 1);
            assert_eq!(g[0].0, token(0, 2));
        });
    }

    #[test]
    fn telemetry_frontier_is_uncharged() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.update_persisted_version(shard(0), Version(5)).unwrap();
            s.update_cut_atomically(Cut::from([(shard(0), Version(3))]))
                .unwrap();
            let before = s.statement_count();
            let (vmax, cut) = s.telemetry_frontier().unwrap();
            assert_eq!(s.statement_count(), before, "telemetry reads are free");
            assert_eq!(vmax, Some(Version(5)));
            assert_eq!(cut[&shard(0)], Version(3));
        });
    }

    #[test]
    fn cut_updates_are_monotone() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.register_worker(shard(1)).unwrap();
            s.update_cut_atomically(Cut::from([(shard(0), Version(4)), (shard(1), Version(3))]))
                .unwrap();
            s.update_cut_atomically(Cut::from([(shard(0), Version(2))]))
                .unwrap();
            assert_eq!(
                s.read_cut().unwrap(),
                Cut::from([(shard(0), Version(4)), (shard(1), Version(3))])
            );
        });
    }

    #[test]
    fn recovery_halts_cut_progress_and_resumes() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.register_worker(shard(1)).unwrap();
            let published = Cut::from([(shard(0), Version(4)), (shard(1), Version(3))]);
            s.update_cut_atomically(published.clone()).unwrap();
            let rec = s.begin_recovery().unwrap();
            assert_eq!(rec.world_line, WorldLine(1));
            assert_eq!(rec.pending.len(), 2);
            assert_eq!(rec.cut, published, "recovery freezes the whole cut");
            assert!(matches!(
                s.update_cut_atomically(Cut::new()),
                Err(DprError::Recovering)
            ));
            let st = s.report_rollback_complete(shard(0)).unwrap();
            assert!(!st.complete());
            let st = s.report_rollback_complete(shard(1)).unwrap();
            assert!(st.complete());
            assert!(s.recovery_in_progress().unwrap().is_none());
            s.update_cut_atomically(Cut::from([(shard(0), Version(5))]))
                .unwrap();
        });
    }

    #[test]
    fn recovery_cut_is_retained_per_world_line() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.update_cut_atomically(Cut::from([(shard(0), Version(4))]))
                .unwrap();
            assert_eq!(s.recovery_cut(WorldLine(0)).unwrap(), None);
            let rec = s.begin_recovery().unwrap();
            s.report_rollback_complete(shard(0)).unwrap();
            // The cut advances again after recovery...
            s.update_cut_atomically(Cut::from([(shard(0), Version(9))]))
                .unwrap();
            // ...but the transition's frozen cut stays pinned at the rollback
            // target, so late-recovering clients can still compute a sound
            // surviving prefix.
            assert_eq!(
                s.recovery_cut(rec.world_line).unwrap(),
                Some(Cut::from([(shard(0), Version(4))]))
            );
        });
    }

    #[test]
    fn nested_failure_bumps_world_line_again() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            let r1 = s.begin_recovery().unwrap();
            // Second failure while the first recovery is still pending.
            let r2 = s.begin_recovery().unwrap();
            assert_eq!(r2.world_line, r1.world_line.next());
            assert_eq!(r2.pending.len(), 1);
        });
    }

    #[test]
    fn membership_add_remove() {
        at_1_and_4_partitions(|s| {
            s.register_worker(shard(0)).unwrap();
            s.register_worker(shard(1)).unwrap();
            assert_eq!(s.members().unwrap().len(), 2);
            s.remove_worker(shard(0)).unwrap();
            assert_eq!(s.members().unwrap(), vec![shard(1)]);
            // min over the remaining member only
            s.update_persisted_version(shard(1), Version(2)).unwrap();
            assert_eq!(s.min_persisted_version().unwrap(), Some(Version(2)));
        });
    }

    /// The seqlock property: readers racing a writer that publishes cuts
    /// spanning several partitions never observe a torn mix of two cuts.
    #[test]
    fn read_cut_is_never_torn_across_partitions() {
        use std::sync::Arc;
        let s = Arc::new(PartitionedSqlStore::new(4));
        const SHARDS: u32 = 8;
        for i in 0..SHARDS {
            s.register_worker(shard(i)).unwrap();
        }
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                // Each published cut has every shard at the same version, so
                // any mixed-version read is a torn one.
                for v in 1..=200u64 {
                    let cut: Cut = (0..SHARDS).map(|i| (shard(i), Version(v))).collect();
                    s.update_cut_atomically(cut).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..400 {
                        let cut = s.read_cut().unwrap();
                        let mut versions: Vec<_> = cut.values().copied().collect();
                        versions.dedup();
                        assert_eq!(versions.len(), 1, "torn cut: {cut:?}");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
