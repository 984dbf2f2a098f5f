//! The simulated fault-tolerant SQL metadata store: one set of tables behind
//! one lock.
//!
//! The paper's deployment keeps this state in Azure SQL, off the operation
//! path: a shard touches it a few times per checkpoint (§3.3–3.4, Fig. 4).
//! The store is assumed fault-tolerant (as in the paper), so it has no crash
//! mode, and an optional injected per-statement latency models the network
//! round trip. That latency is the store's whole cost and `charge()` pays it
//! *outside* the lock, so concurrent callers model independent round trips;
//! under the lock a statement is a few map operations. One mutex therefore
//! serves, and it makes what DPR needs of the store true by construction:
//!
//! * **Cut atomicity.** A cut is published and read under the same lock: a
//!   reader sees a cut that was wholly published, never a mix of two.
//! * **Transactional batches.** A batch validates every row before it writes
//!   any, under the lock: an abort leaves the table unmodified and no reader
//!   sees part of a batch.
//! * **Recovery freeze.** [`MetadataStore::begin_recovery`] bumps the
//!   world-line, freezes cut and membership and halts cut publication in one
//!   critical section: no cut lands between the freeze and the halt.
//!
//! Statement accounting: one *charged* statement per logical operation (a
//! batch is one round trip however many rows ride in it). The `partitions`
//! argument sizes only a set of touch counters, one per `shard % partitions`
//! ([`PartitionedSqlStore::partition_statement_counts`]), which the benchmark
//! reports as `metadata.partition_imbalance`.

use crate::recovery::RecoveryState;
use crate::store::{Cut, MetadataStore};
use dpr_core::{DprError, Result, ShardId, Token, Version, WorldLine};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Everything the store holds, behind its one lock.
#[derive(Default)]
struct Tables {
    dpr: BTreeMap<ShardId, Version>,
    graph: BTreeMap<Token, Vec<Token>>,
    cut: Cut,
    world_line: WorldLine,
    recovery: Option<RecoveryState>,
    recovery_cuts: BTreeMap<WorldLine, Cut>,
}

/// In-process metadata store (see module docs): linearizable tables behind
/// [`MetadataStore`], with per-statement latency injection.
pub struct PartitionedSqlStore {
    tables: Mutex<Tables>,
    /// Statements that named a shard with `shard % len == i`: a batch over
    /// several such groups bumps each once and is *charged* as one.
    touched: Box<[AtomicU64]>,
    latency: Duration,
    statements: AtomicU64,
}

impl PartitionedSqlStore {
    /// Store with `partitions` touch counters (at least 1) and no latency.
    #[must_use]
    pub fn new(partitions: usize) -> Self {
        Self::with_latency(partitions, Duration::ZERO)
    }

    /// Store with `partitions` touch counters and `latency` per statement.
    #[must_use]
    pub fn with_latency(partitions: usize, latency: Duration) -> Self {
        PartitionedSqlStore {
            tables: Mutex::new(Tables::default()),
            touched: (0..partitions.max(1)).map(|_| AtomicU64::new(0)).collect(),
            latency,
            statements: AtomicU64::new(0),
        }
    }

    /// Number of touch counters.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.touched.len()
    }

    /// Total statements executed so far — the metadata write/read volume.
    /// A batch ([`MetadataStore::update_persisted_versions`],
    /// [`MetadataStore::add_graph_versions`]) counts as **one** statement
    /// whatever its row count, which is the saving it exists to provide.
    #[must_use]
    pub fn statement_count(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    /// How many statements named a shard of each `shard % partitions` group:
    /// the signal behind the benchmark's `metadata.partition_imbalance`.
    #[must_use]
    pub fn partition_statement_counts(&self) -> Vec<u64> {
        self.touched
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// One statement: count it and pay its round trip, before the lock.
    fn charge(&self) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        crate::metrics::statements().inc();
        if !self.latency.is_zero() {
            let timer = crate::metrics::statement_latency().start_timer();
            std::thread::sleep(self.latency);
            drop(timer);
        }
    }

    /// Bump the touch counter of every group `shards` falls in, once each.
    fn touch(&self, shards: impl Iterator<Item = ShardId>) {
        let groups: BTreeSet<usize> = shards.map(|s| s.0 as usize % self.touched.len()).collect();
        for g in groups {
            self.touched[g].fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl MetadataStore for PartitionedSqlStore {
    fn register_worker(&self, shard: ShardId) -> Result<()> {
        self.charge();
        self.touch(std::iter::once(shard));
        let mut t = self.tables.lock();
        t.dpr.entry(shard).or_insert(Version::ZERO);
        t.cut.entry(shard).or_insert(Version::ZERO);
        crate::metrics::dpr_table_rows().set(t.dpr.len() as i64);
        Ok(())
    }

    fn remove_worker(&self, shard: ShardId) -> Result<()> {
        self.charge();
        self.touch(std::iter::once(shard));
        let mut t = self.tables.lock();
        t.dpr.remove(&shard);
        t.cut.remove(&shard);
        crate::metrics::dpr_table_rows().set(t.dpr.len() as i64);
        Ok(())
    }

    fn members(&self) -> Result<Vec<ShardId>> {
        self.charge();
        Ok(self.tables.lock().dpr.keys().copied().collect())
    }

    fn update_persisted_versions(&self, updates: &[(ShardId, Version)]) -> Result<()> {
        if updates.is_empty() {
            return Ok(());
        }
        // One multi-row `UPDATE ... FROM (VALUES ...)`: a single round trip.
        self.charge();
        self.touch(updates.iter().map(|&(s, _)| s));
        let mut t = self.tables.lock();
        // Validate the whole batch before touching any row: an abort must
        // leave the table unmodified (transactional semantics).
        if let Some(&(missing, _)) = updates.iter().find(|&&(s, _)| !t.dpr.contains_key(&s)) {
            return Err(DprError::Metadata(format!("{missing} not registered")));
        }
        for &(shard, version) in updates {
            let v = t.dpr.get_mut(&shard).expect("checked above");
            *v = (*v).max(version);
        }
        Ok(())
    }

    fn min_persisted_version(&self) -> Result<Option<Version>> {
        self.charge();
        Ok(self.tables.lock().dpr.values().copied().min())
    }

    fn max_persisted_version(&self) -> Result<Option<Version>> {
        self.charge();
        Ok(self.tables.lock().dpr.values().copied().max())
    }

    fn persisted_versions(&self) -> Result<Cut> {
        self.charge();
        Ok(self.tables.lock().dpr.clone())
    }

    fn add_graph_versions(&self, entries: Vec<(Token, Vec<Token>)>) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        self.charge();
        self.touch(entries.iter().map(|(t, _)| t.shard));
        let mut t = self.tables.lock();
        t.graph.extend(entries);
        crate::metrics::graph_rows().set(t.graph.len() as i64);
        Ok(())
    }

    fn graph_snapshot(&self) -> Result<Vec<(Token, Vec<Token>)>> {
        self.charge();
        let t = self.tables.lock();
        Ok(t.graph.iter().map(|(k, v)| (*k, v.clone())).collect())
    }

    fn prune_graph_below(&self, cut: &Cut) -> Result<()> {
        self.charge();
        let mut t = self.tables.lock();
        t.graph.retain(|token, _| {
            cut.get(&token.shard)
                .is_none_or(|&committed| token.version > committed)
        });
        crate::metrics::graph_rows().set(t.graph.len() as i64);
        Ok(())
    }

    fn update_cut_atomically(&self, cut: Cut) -> Result<(WorldLine, Cut)> {
        self.charge();
        let mut t = self.tables.lock();
        if t.recovery.is_some() {
            return Err(DprError::Recovering);
        }
        self.touch(cut.keys().copied());
        // The cut never regresses: a later cut dominates per-shard.
        for (shard, v) in cut {
            let entry = t.cut.entry(shard).or_insert(Version::ZERO);
            *entry = (*entry).max(v);
        }
        Ok((t.world_line, t.cut.clone()))
    }

    fn read_cut(&self) -> Result<Cut> {
        self.charge();
        Ok(self.tables.lock().cut.clone())
    }

    fn telemetry_frontier(&self) -> Result<(Option<Version>, Cut)> {
        // Telemetry-only, not a protocol round trip: no charge, no latency.
        let t = self.tables.lock();
        Ok((t.dpr.values().copied().max(), t.cut.clone()))
    }

    fn world_line(&self) -> Result<WorldLine> {
        self.charge();
        Ok(self.tables.lock().world_line)
    }

    fn begin_recovery(&self) -> Result<RecoveryState> {
        self.charge();
        let mut t = self.tables.lock();
        t.world_line = t.world_line.next();
        let state = RecoveryState {
            world_line: t.world_line,
            cut: t.cut.clone(),
            pending: t.dpr.keys().copied().collect(),
        };
        t.recovery = Some(state.clone());
        t.recovery_cuts.insert(state.world_line, state.cut.clone());
        Ok(state)
    }

    fn report_rollback_complete(&self, shard: ShardId) -> Result<RecoveryState> {
        self.charge();
        let mut t = self.tables.lock();
        let Some(rec) = t.recovery.as_mut() else {
            return Err(DprError::Metadata("no recovery in progress".into()));
        };
        rec.pending.remove(&shard);
        let state = rec.clone();
        if state.complete() {
            t.recovery = None;
        }
        Ok(state)
    }

    fn recovery_in_progress(&self) -> Result<Option<RecoveryState>> {
        self.charge();
        Ok(self.tables.lock().recovery.clone())
    }

    fn recovery_cut(&self, world_line: WorldLine) -> Result<Option<Cut>> {
        self.charge();
        Ok(self.tables.lock().recovery_cuts.get(&world_line).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn shard(i: u32) -> ShardId {
        ShardId(i)
    }

    fn token(sh: u32, v: u64) -> Token {
        Token::new(shard(sh), Version(v))
    }

    fn store() -> PartitionedSqlStore {
        PartitionedSqlStore::new(4)
    }

    #[test]
    fn routes_shards_across_partitions_and_aggregates() {
        for partitions in [1, 4] {
            let s = PartitionedSqlStore::new(partitions);
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
            // The sixteen single-shard statements, spread; reads touch none.
            let counts = s.partition_statement_counts();
            assert_eq!(counts.len(), s.partition_count());
            assert_eq!(counts, vec![16 / partitions as u64; partitions]);
            // A batch is one touch per group it names, not one per row.
            s.update_persisted_versions(&[(shard(0), Version(9)), (shard(4), Version(9))])
                .unwrap();
            assert_eq!(s.partition_statement_counts()[0], counts[0] + 1);
        }
    }

    #[test]
    fn persisted_version_never_regresses() {
        let s = store();
        s.register_worker(shard(0)).unwrap();
        s.update_persisted_version(shard(0), Version(9)).unwrap();
        s.update_persisted_version(shard(0), Version(4)).unwrap();
        assert_eq!(s.min_persisted_version().unwrap(), Some(Version(9)));
    }

    #[test]
    fn update_unregistered_worker_fails() {
        assert!(store()
            .update_persisted_version(shard(9), Version(1))
            .is_err());
    }

    #[test]
    fn batched_update_is_one_statement() {
        let s = store();
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
    }

    #[test]
    fn batched_update_aborts_atomically_on_unregistered_shard() {
        let s = store();
        s.register_worker(shard(0)).unwrap();
        s.register_worker(shard(1)).unwrap();
        assert!(s
            .update_persisted_versions(&[(shard(0), Version(4)), (shard(9), Version(1))])
            .is_err());
        // The whole transaction rolled back: shard 0 untouched.
        assert_eq!(s.min_persisted_version().unwrap(), Some(Version::ZERO));
        assert_eq!(s.max_persisted_version().unwrap(), Some(Version::ZERO));
    }

    #[test]
    fn batched_graph_insert_is_one_statement() {
        let s = store();
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
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "token-sorted");
        // Empty batches are free.
        let before = s.statement_count();
        s.add_graph_versions(Vec::new()).unwrap();
        s.update_persisted_versions(&[]).unwrap();
        assert_eq!(s.statement_count(), before);
    }

    #[test]
    fn graph_prune_respects_cut() {
        let s = store();
        s.add_graph_version(token(0, 1), vec![]).unwrap();
        s.add_graph_version(token(0, 2), vec![token(1, 1)]).unwrap();
        s.add_graph_version(token(1, 1), vec![]).unwrap();
        let cut = Cut::from([(shard(0), Version(1)), (shard(1), Version(1))]);
        s.prune_graph_below(&cut).unwrap();
        let g = s.graph_snapshot().unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].0, token(0, 2));
    }

    #[test]
    fn telemetry_frontier_is_uncharged() {
        let s = store();
        s.register_worker(shard(0)).unwrap();
        s.update_persisted_version(shard(0), Version(5)).unwrap();
        s.update_cut_atomically(Cut::from([(shard(0), Version(3))]))
            .unwrap();
        let before = s.statement_count();
        let (vmax, cut) = s.telemetry_frontier().unwrap();
        assert_eq!(s.statement_count(), before, "telemetry reads are free");
        assert_eq!(vmax, Some(Version(5)));
        assert_eq!(cut[&shard(0)], Version(3));
    }

    #[test]
    fn cut_updates_are_monotone() {
        let s = store();
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
    }

    #[test]
    fn recovery_halts_cut_progress_and_resumes() {
        let s = store();
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
    }

    #[test]
    fn recovery_cut_is_retained_per_world_line() {
        let s = store();
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
    }

    #[test]
    fn nested_failure_bumps_world_line_again() {
        let s = store();
        s.register_worker(shard(0)).unwrap();
        let r1 = s.begin_recovery().unwrap();
        // Second failure while the first recovery is still pending.
        let r2 = s.begin_recovery().unwrap();
        assert_eq!(r2.world_line, r1.world_line.next());
        assert_eq!(r2.pending.len(), 1);
    }

    #[test]
    fn membership_add_remove() {
        let s = store();
        s.register_worker(shard(0)).unwrap();
        s.register_worker(shard(1)).unwrap();
        assert_eq!(s.members().unwrap().len(), 2);
        s.remove_worker(shard(0)).unwrap();
        assert_eq!(s.members().unwrap(), vec![shard(1)]);
        // min over the remaining member only
        s.update_persisted_version(shard(1), Version(2)).unwrap();
        assert_eq!(s.min_persisted_version().unwrap(), Some(Version(2)));
    }

    const SHARDS: u32 = 8;

    /// Every row of a table a racing reader saw holds the same version.
    fn assert_whole(what: &str, rows: &Cut) {
        let first = rows[&shard(0)];
        assert!(rows.values().all(|&v| v == first), "{what}: {rows:?}");
    }

    /// Readers racing a writer that publishes cuts over every shard never
    /// observe a mix of two cuts.
    #[test]
    fn read_cut_is_never_torn_across_partitions() {
        let s = store();
        for i in 0..SHARDS {
            s.register_worker(shard(i)).unwrap();
        }
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                // Each published cut has every shard at the same version, so
                // any mixed-version read is a torn one.
                for v in 1..=200u64 {
                    let cut: Cut = (0..SHARDS).map(|i| (shard(i), Version(v))).collect();
                    s.update_cut_atomically(cut).unwrap();
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..400 {
                        assert_whole("torn cut", &s.read_cut().unwrap());
                    }
                });
            }
        });
    }

    /// A batch lands whole or not at all, also as a racing reader sees it:
    /// one writer raises every row to the same version per batch, another
    /// ends each batch that would raise two rows with an unregistered one.
    #[test]
    fn racing_batches_apply_whole_or_abort_whole() {
        const POISON: Version = Version(u64::MAX);
        let s = store();
        for i in 0..SHARDS {
            s.register_worker(shard(i)).unwrap();
        }
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for v in 1..=300u64 {
                    let batch: Vec<_> = (0..SHARDS).map(|i| (shard(i), Version(v))).collect();
                    s.update_persisted_versions(&batch).unwrap();
                }
            });
            scope.spawn(|| {
                start.wait();
                for _ in 0..300 {
                    let batch = [(shard(0), POISON), (shard(5), POISON), (shard(99), POISON)];
                    assert!(s.update_persisted_versions(&batch).is_err());
                }
            });
            scope.spawn(|| {
                start.wait();
                for _ in 0..600 {
                    assert_whole("part of a batch", &s.persisted_versions().unwrap());
                }
            });
        });
        assert_eq!(s.max_persisted_version().unwrap(), Some(Version(300)));
    }
}
