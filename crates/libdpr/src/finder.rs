//! DPR-cut finding (§3.3–3.4, Fig. 4).
//!
//! Three algorithms with an accuracy/scalability trade-off:
//!
//! * [`ExactFinder`] persists the full precedence graph in the metadata
//!   store and computes maximal transitive closures — precise, but the graph
//!   write traffic can bottleneck very large clusters.
//! * [`ApproximateFinder`] persists only committed version numbers; the cut
//!   is everything at or below the cluster-wide minimum version (`Vmin`),
//!   correct because the version clock makes dependencies monotone (§3.2).
//!   `Vmax` lets lagging shards fast-forward and catch up in bounded time.
//! * [`HybridFinder`] keeps the exact graph *in memory only* and uses the
//!   approximate algorithm as its fault-tolerant floor: after a coordinator
//!   crash, the cut keeps advancing at approximate precision until it passes
//!   the lost subgraph, then exact precision resumes.

use dpr_core::{DprError, Result, ShardId, Token, Version, WorldLine};
use dpr_metadata::{Cut, MetadataStore};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Record the cut lag (`Vmax - min(Vsafe)`, the §3.4 fast-forward
/// pressure): how far the persisted frontier has run ahead of the published
/// cut. Sampled at the *start* of each refresh, against the cut the previous
/// refresh published — i.e. the gap this refresh is about to close, which is
/// the lag clients actually observe between refreshes. Goes through the
/// store's **uncharged** [`MetadataStore::telemetry_frontier`] path, so
/// enabling telemetry never inflates the `statements/version` protocol-cost
/// metric; errors are swallowed — the metric is best-effort.
fn observe_cut_lag(meta: &dyn MetadataStore) {
    if !dpr_telemetry::enabled() {
        return;
    }
    let Ok((vmax, cut)) = meta.telemetry_frontier() else {
        return;
    };
    let vmax = vmax.unwrap_or(Version::ZERO);
    let vsafe = cut.values().min().copied().unwrap_or(Version::ZERO);
    let lag = vmax.0.saturating_sub(vsafe.0);
    crate::metrics::cut_lag().record(lag);
}

/// What a finder's last successful `update_cut_atomically` wrote: the
/// world-line it published on and the cut as the store then held it, which
/// the finder serves without a metadata statement. A finder's refreshes run
/// one at a time (its service thread), so this is the latest written.
type Published = Mutex<Option<Arc<(WorldLine, Cut)>>>;

/// Publish `cut`, show the audit tap and keep in `last` what the store
/// wrote, its cut; `None` while a recovery halts publication (§4.1).
fn publish(
    meta: &dyn MetadataStore,
    last: &Published,
    cut: Cut,
) -> Result<Option<Arc<(WorldLine, Cut)>>> {
    let written = match meta.update_cut_atomically(cut) {
        Err(DprError::Recovering) => return Ok(None),
        written => Arc::new(written?),
    };
    crate::audit::cut_published(&written.1);
    *last.lock() = Some(Arc::clone(&written));
    Ok(Some(written))
}

/// The cut-finding service interface.
///
/// Shards call [`DprFinder::report_commit`] after each local commit; a
/// periodic [`DprFinder::refresh`] advances the durable cut; clients and
/// workers read it with [`DprFinder::current_cut`] or, with the world-line
/// it was published on, [`DprFinder::published`].
pub trait DprFinder: Send + Sync {
    /// Report a locally committed version and its cross-shard dependencies:
    /// a group of one.
    fn report_commit(&self, token: Token, deps: Vec<Token>) -> Result<()> {
        self.report_commits(vec![(token, deps)])
    }

    /// Report a *group* of locally committed versions in one shot.
    ///
    /// This is the batched-metadata half of the scalable gate (§6): when the
    /// server drain has several sealed versions queued, reporting them
    /// together costs O(1) metadata round trips instead of one per version.
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()>;

    /// Recompute and persist the DPR cut (the coordinator pass). A no-op
    /// while cluster recovery has progress halted.
    fn refresh(&self) -> Result<()>;

    /// The `(world-line, cut)` this finder's last publication wrote, held in
    /// memory: `None` before the first (and always, for a finder that does
    /// not publish). A reader that must not use a cut of another world-line
    /// checks it against its own (`docs/PROTOCOL.md` §11).
    fn published(&self) -> Option<Arc<(WorldLine, Cut)>> {
        None
    }

    /// The current guaranteed cut: the one [`DprFinder::published`] holds,
    /// read without a metadata statement; empty before the first
    /// publication.
    fn current_cut(&self) -> Cut {
        self.published().map_or_else(Cut::new, |p| p.1.clone())
    }

    /// The largest committed version in the cluster (`Vmax`), used to
    /// fast-forward lagging shards (§3.4).
    fn max_version(&self) -> Result<Version>;
}

/// What every finder does first with a group of commit reports: show them
/// to the audit tap, so the chaos checker verifies cuts against the
/// dependencies the servers really reported whatever the finder keeps of
/// them, and raise the DPR table in **one** `update_persisted_versions`
/// statement of a row per shard, its max version (lossless: persisted
/// versions are monotone). An empty group costs no statement.
fn persist_reports(meta: &dyn MetadataStore, reports: &[(Token, Vec<Token>)]) -> Result<()> {
    let mut rows: BTreeMap<ShardId, Version> = BTreeMap::new();
    for (token, deps) in reports {
        crate::audit::commit_reported(*token, deps);
        let e = rows.entry(token.shard).or_insert(Version::ZERO);
        *e = (*e).max(token.version);
    }
    meta.update_persisted_versions(&rows.into_iter().collect::<Vec<_>>())
}

/// Compute the maximal dependency-closed cut from a precedence graph.
///
/// `floor` is a known-valid cut (never regressed below); `graph` maps each
/// committed token to its dependency tokens. A token may be included iff all
/// its dependencies are at or below the chosen cut; the fixpoint lowers each
/// shard's candidate until closure holds.
///
/// Shards whose floor has not yet passed `lost_ceiling` are pinned at the
/// floor: the graph may be missing entries for their versions at or below
/// the ceiling (a crashed coordinator, §3.4), so their dependency sets
/// cannot be trusted. Pass an empty ceiling for the uncapped closure.
///
/// Run over the complete reported history this is the reference algorithm —
/// the property-test oracle that [`CutEngine`], which runs it over the
/// pending subgraph only, must agree with.
#[must_use]
pub fn compute_closure_cut_capped(
    graph: &BTreeMap<Token, Vec<Token>>,
    floor: &Cut,
    lost_ceiling: &Cut,
) -> Cut {
    use std::ops::Bound;
    let mut cut = floor.clone();
    // Candidates start at each shard's max committed version — except
    // shards with a possibly-lost subgraph, which stay at the floor. Tokens
    // sort shard-major, so each shard's entries are contiguous: a skip-scan
    // visits one `range` per *shard* (O(shards · log n)) instead of every
    // token, and the floor/ceiling pin check runs once per shard rather
    // than once per token.
    let mut next = graph.keys().next().copied();
    while let Some(first) = next {
        let shard = first.shard;
        let shard_max = Token::new(shard, Version(u64::MAX));
        let last = *graph
            .range(first..=shard_max)
            .next_back()
            .expect("range contains `first`")
            .0;
        next = graph
            .range((Bound::Excluded(shard_max), Bound::Unbounded))
            .next()
            .map(|(t, _)| *t);
        let floor_v = floor.get(&shard).copied().unwrap_or(Version::ZERO);
        let ceiling = lost_ceiling.get(&shard).copied().unwrap_or(Version::ZERO);
        if floor_v < ceiling {
            continue;
        }
        let e = cut.entry(shard).or_insert(Version::ZERO);
        *e = (*e).max(last.version);
    }
    loop {
        let mut changed = false;
        for (token, deps) in graph {
            let current = cut.get(&token.shard).copied().unwrap_or(Version::ZERO);
            let floor_v = floor.get(&token.shard).copied().unwrap_or(Version::ZERO);
            if token.version <= floor_v || token.version > current {
                continue;
            }
            let unsatisfied = deps
                .iter()
                .any(|d| d.version > cut.get(&d.shard).copied().unwrap_or(Version::ZERO));
            if unsatisfied {
                // Exclude this token (and implicitly everything above it on
                // this shard).
                let lowered = Version(token.version.0 - 1).max(floor_v);
                if lowered < current {
                    cut.insert(token.shard, lowered);
                    changed = true;
                }
            }
        }
        if !changed {
            return cut;
        }
    }
}

/// The shared cut-computation core of [`ExactFinder`] and [`HybridFinder`]:
/// an incremental delta closure. The engine keeps only the *pending*
/// subgraph — tokens above the last committed cut — and runs the lowering
/// fixpoint over it in place, so work per refresh is bounded by the cut
/// lag, not by history.
///
/// Two structural properties matter beyond raw speed:
///
/// * **No lost reports.** Commit reports land in a *mailbox* (its own
///   lock), never directly in the closure graph. A compute pass drains the
///   mailbox into the graph and runs the fixpoint under one graph-lock
///   hold; [`CutEngine::commit`] prunes only tokens that participated in a
///   pass. A report racing a refresh therefore either joins this pass or
///   waits intact in the mailbox for the next one — the
///   snapshot-then-retain window of the old `HybridFinder::refresh`
///   (where a racing report could be pruned without ever being
///   closure-checked) no longer exists.
/// * **Delta ≡ full recompute.** Pruning tokens at or below a *published*
///   cut `C` preserves the fixpoint: the store's cut is monotone, so every
///   later floor satisfies `floor ≥ read_cut ≥ C`, which means (a) a pruned
///   token's own closure check is skipped anyway (`version ≤ floor`), and
///   (b) its contribution to candidate seeding is dominated by the floor.
///   Note an *incremental admission* scheme would **not** be equivalent:
///   mutually dependent same-version tokens (A:1 ⇄ B:1) are admitted
///   atomically by the lowering fixpoint but never one-at-a-time — which is
///   why the delta engine re-runs the fixpoint over the pending subgraph
///   instead of raising the cut edge by edge. `tests/cut_properties.rs`
///   checks the equivalence against [`compute_closure_cut_capped`] over
///   random graphs, prune interleavings, and lost-ceiling caps.
#[derive(Default)]
pub struct CutEngine {
    /// Incoming reports; appended by the report hot path without ever
    /// contending with a running closure pass.
    mailbox: Mutex<Vec<(Token, Vec<Token>)>>,
    /// The closure graph: tokens not yet covered by a published cut.
    graph: Mutex<BTreeMap<Token, Vec<Token>>>,
}

impl CutEngine {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue one commit report.
    pub fn ingest_one(&self, token: Token, deps: Vec<Token>) {
        self.mailbox.lock().push((token, deps));
    }

    /// Enqueue a group of commit reports.
    pub fn ingest(&self, reports: Vec<(Token, Vec<Token>)>) {
        self.mailbox.lock().extend(reports);
    }

    /// Load entries straight into the closure graph (initial seeding from a
    /// durable snapshot; a restarted coordinator resumes from what the
    /// store kept).
    pub fn seed(&self, entries: Vec<(Token, Vec<Token>)>) {
        self.graph.lock().extend(entries);
    }

    /// Drain the mailbox and compute the maximal closed cut over the graph,
    /// capped by `lost_ceiling` (see [`compute_closure_cut_capped`]).
    #[must_use]
    pub fn compute(&self, floor: &Cut, lost_ceiling: &Cut) -> Cut {
        let mut graph = self.graph.lock();
        {
            let mut mailbox = self.mailbox.lock();
            if !mailbox.is_empty() {
                for (token, deps) in mailbox.drain(..) {
                    graph.insert(token, deps);
                }
            }
        }
        crate::metrics::delta_pending_tokens().set(graph.len() as i64);
        compute_closure_cut_capped(&graph, floor, lost_ceiling)
    }

    /// Acknowledge a **published** cut: drop graph tokens at or below it.
    /// Only sound for cuts that actually reached the store (publication
    /// makes every later floor dominate them — see the type docs); callers
    /// must skip this when `update_cut_atomically` fails.
    pub fn commit(&self, cut: &Cut) {
        let mut graph = self.graph.lock();
        graph.retain(|t, _| cut.get(&t.shard).copied().unwrap_or(Version::ZERO) < t.version);
        crate::metrics::delta_pending_tokens().set(graph.len() as i64);
    }

    /// Forget everything (coordinator crash: the in-memory graph is lost).
    pub fn clear(&self) {
        self.mailbox.lock().clear();
        self.graph.lock().clear();
        crate::metrics::delta_pending_tokens().set(0);
    }

    /// Tokens currently held (graph + undrained mailbox) — the engine's
    /// working-set size, bounded by cut lag.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.graph.lock().len() + self.mailbox.lock().len()
    }
}

/// The exact algorithm: durable precedence graph + coordinator traversal.
pub struct ExactFinder {
    meta: Arc<dyn MetadataStore>,
    engine: CutEngine,
    published: Published,
}

impl ExactFinder {
    /// Finder over the shared metadata store.
    pub fn new(meta: Arc<dyn MetadataStore>) -> Self {
        let engine = CutEngine::new();
        // One durable snapshot at construction seeds the in-memory mirror;
        // afterwards the refresh path never re-reads the graph table.
        if let Ok(snapshot) = meta.graph_snapshot() {
            engine.seed(snapshot);
        }
        ExactFinder {
            meta,
            engine,
            published: Published::default(),
        }
    }
}

impl DprFinder for ExactFinder {
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        crate::metrics::graph_dep_tokens().add(reports.iter().map(|(_, d)| d.len() as u64).sum());
        // One DPR-table statement (which also keeps Vmax and membership
        // accurate) + one graph insert.
        persist_reports(&*self.meta, &reports)?;
        self.meta.add_graph_versions(reports.clone())?;
        self.engine.ingest(reports);
        Ok(())
    }

    fn refresh(&self) -> Result<()> {
        let _timer = crate::metrics::finder_refresh().start_timer();
        observe_cut_lag(&*self.meta);
        let floor = self.meta.read_cut()?;
        let cut = self.engine.compute(&floor, &Cut::new());
        if let Some(written) = publish(&*self.meta, &self.published, cut)? {
            self.engine.commit(&written.1);
            self.meta.prune_graph_below(&written.1)?;
        }
        Ok(())
    }

    fn published(&self) -> Option<Arc<(WorldLine, Cut)>> {
        self.published.lock().clone()
    }

    fn max_version(&self) -> Result<Version> {
        Ok(self.meta.max_persisted_version()?.unwrap_or(Version::ZERO))
    }
}

/// The approximate algorithm: `SELECT min(persistedVersion) FROM dpr`.
///
/// ```
/// use libdpr::{ApproximateFinder, DprFinder};
/// use dpr_metadata::{MetadataStore, PartitionedSqlStore};
/// use dpr_core::{ShardId, Token, Version};
/// use std::sync::Arc;
///
/// let meta = Arc::new(PartitionedSqlStore::new(8));
/// meta.register_worker(ShardId(0)).unwrap();
/// meta.register_worker(ShardId(1)).unwrap();
/// let finder = ApproximateFinder::new(meta);
/// finder.report_commit(Token::new(ShardId(0), Version(3)), vec![]).unwrap();
/// finder.report_commit(Token::new(ShardId(1), Version(5)), vec![]).unwrap();
/// finder.refresh().unwrap();
/// // The cut is Vmin for everyone; Vmax drives fast-forwarding.
/// assert_eq!(finder.current_cut()[&ShardId(1)], Version(3));
/// assert_eq!(finder.max_version().unwrap(), Version(5));
/// ```
pub struct ApproximateFinder {
    meta: Arc<dyn MetadataStore>,
    published: Published,
}

impl ApproximateFinder {
    /// Finder over the shared metadata store.
    pub fn new(meta: Arc<dyn MetadataStore>) -> Self {
        ApproximateFinder {
            meta,
            published: Published::default(),
        }
    }
}

/// `Vmin` for every member: the approximate cut, and the hybrid's floor.
fn min_cut(meta: &dyn MetadataStore) -> Result<Cut> {
    let vmin = meta.min_persisted_version()?.unwrap_or(Version::ZERO);
    Ok(meta.members()?.into_iter().map(|s| (s, vmin)).collect())
}

impl DprFinder for ApproximateFinder {
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        // Dependency information is discarded: monotonicity makes Vmin safe.
        persist_reports(&*self.meta, &reports)
    }

    fn refresh(&self) -> Result<()> {
        let _timer = crate::metrics::finder_refresh().start_timer();
        observe_cut_lag(&*self.meta);
        let cut = min_cut(&*self.meta)?;
        publish(&*self.meta, &self.published, cut).map(drop)
    }

    fn published(&self) -> Option<Arc<(WorldLine, Cut)>> {
        self.published.lock().clone()
    }

    fn max_version(&self) -> Result<Version> {
        Ok(self.meta.max_persisted_version()?.unwrap_or(Version::ZERO))
    }
}

/// The hybrid: exact precision from an in-memory graph, approximate floor
/// for fault tolerance (§3.4).
pub struct HybridFinder {
    meta: Arc<dyn MetadataStore>,
    engine: CutEngine,
    /// Per shard, the highest version whose graph entry may have been lost
    /// (coordinator crash/restart). The exact component may not advance a
    /// shard past its floor until the floor passes this ceiling — the
    /// coordinator "cannot be certain of its dependency set in the lost
    /// subgraph" (§3.4).
    lost_ceiling: Mutex<Cut>,
    published: Published,
}

impl HybridFinder {
    /// Finder over the shared metadata store. A freshly constructed
    /// coordinator treats everything already persisted as possibly-lost (it
    /// has no graph for it), so a restarted coordinator is safe by
    /// construction.
    pub fn new(meta: Arc<dyn MetadataStore>) -> Self {
        let lost_ceiling = meta.persisted_versions().unwrap_or_default();
        HybridFinder {
            meta,
            engine: CutEngine::new(),
            lost_ceiling: Mutex::new(lost_ceiling),
            published: Published::default(),
        }
    }

    /// Simulate a coordinator crash: the in-memory precedence graph is lost.
    /// The cut keeps advancing via the approximate floor, and exact
    /// precision resumes per shard once the floor passes the lost region.
    pub fn simulate_coordinator_crash(&self) {
        self.engine.clear();
        *self.lost_ceiling.lock() = self.meta.persisted_versions().unwrap_or_default();
    }

    /// Tokens the delta engine currently holds (graph + mailbox): its
    /// working set.
    #[must_use]
    pub fn pending_tokens(&self) -> usize {
        self.engine.pending_len()
    }
}

impl DprFinder for HybridFinder {
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        crate::metrics::graph_dep_tokens().add(reports.iter().map(|(_, d)| d.len() as u64).sum());
        // One durable statement for the whole group; the graph is in-memory,
        // but its write volume (counted above) is still the signal the
        // hybrid exists to reduce durably (§3.4).
        persist_reports(&*self.meta, &reports)?;
        self.engine.ingest(reports);
        Ok(())
    }

    fn refresh(&self) -> Result<()> {
        let _timer = crate::metrics::finder_refresh().start_timer();
        observe_cut_lag(&*self.meta);
        // Approximate floor first (durable, crash-safe)...
        let approx_floor = min_cut(&*self.meta)?;
        let mut floor = self.meta.read_cut()?;
        for (s, v) in approx_floor {
            let e = floor.entry(s).or_insert(Version::ZERO);
            *e = (*e).max(v);
        }
        // ...then exact refinement over the engine's pending subgraph,
        // holding back shards whose lost subgraph the floor has not yet
        // cleared. Commit reporting (the per-batch hot path) lands in the
        // engine mailbox and is never blocked behind the fixpoint; a report
        // racing this pass either joins it or waits intact for the next —
        // nothing is pruned without being closure-checked.
        let ceiling = self.lost_ceiling.lock().clone();
        let cut = self.engine.compute(&floor, &ceiling);
        if let Some(written) = publish(&*self.meta, &self.published, cut)? {
            self.engine.commit(&written.1);
        }
        Ok(())
    }

    fn published(&self) -> Option<Arc<(WorldLine, Cut)>> {
        self.published.lock().clone()
    }

    fn max_version(&self) -> Result<Version> {
        Ok(self.meta.max_persisted_version()?.unwrap_or(Version::ZERO))
    }
}

/// Check that `cut` is closed under the dependency relation of `graph` —
/// the defining property of a DPR cut (Definition 3.1). Exposed for tests
/// and property checks.
#[must_use]
pub fn cut_is_closed(graph: &BTreeMap<Token, Vec<Token>>, cut: &Cut) -> bool {
    graph.iter().all(|(token, deps)| {
        let included = token.version <= cut.get(&token.shard).copied().unwrap_or(Version::ZERO);
        !included
            || deps
                .iter()
                .all(|d| d.version <= cut.get(&d.shard).copied().unwrap_or(Version::ZERO))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::ShardId;
    use dpr_metadata::PartitionedSqlStore;

    fn t(s: u32, v: u64) -> Token {
        Token::new(ShardId(s), Version(v))
    }

    fn setup(shards: u32) -> (Arc<PartitionedSqlStore>, Vec<ShardId>) {
        let meta = Arc::new(PartitionedSqlStore::new(8));
        let ids: Vec<ShardId> = (0..shards).map(ShardId).collect();
        for &s in &ids {
            meta.register_worker(s).unwrap();
        }
        (meta, ids)
    }

    #[test]
    fn fig3_staggered_commits_never_form_a_cut() {
        // The Fig. 3 counter-example: every token depends on a future token
        // of the other shard, so no non-trivial cut exists.
        let (meta, _) = setup(2);
        let finder = ExactFinder::new(meta);
        finder.report_commit(t(0, 1), vec![t(1, 1)]).unwrap();
        finder.report_commit(t(1, 1), vec![t(0, 2)]).unwrap();
        finder.report_commit(t(0, 2), vec![t(1, 2)]).unwrap();
        finder.report_commit(t(1, 2), vec![t(0, 3)]).unwrap();
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version::ZERO);
        assert_eq!(cut[&ShardId(1)], Version::ZERO);
    }

    #[test]
    fn monotone_dependencies_allow_progress() {
        // With the §3.2 version clock, dependencies never point upward, so
        // the cut advances.
        let (meta, _) = setup(2);
        let finder = ExactFinder::new(meta);
        finder.report_commit(t(0, 1), vec![]).unwrap();
        finder.report_commit(t(1, 1), vec![t(0, 1)]).unwrap();
        finder.report_commit(t(0, 2), vec![t(1, 1)]).unwrap();
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version(2));
        assert_eq!(cut[&ShardId(1)], Version(1));
    }

    #[test]
    fn exact_excludes_tokens_with_uncommitted_deps() {
        let (meta, _) = setup(2);
        let finder = ExactFinder::new(meta);
        // Shard 0 committed v1, v2; v2 depends on shard 1's v1 which has
        // NOT committed yet.
        finder.report_commit(t(0, 1), vec![]).unwrap();
        finder.report_commit(t(0, 2), vec![t(1, 1)]).unwrap();
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version(1), "v2 held back");
        assert_eq!(cut[&ShardId(1)], Version::ZERO);
        // Once shard 1 commits, v2 is admitted.
        finder.report_commit(t(1, 1), vec![]).unwrap();
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version(2));
        assert_eq!(cut[&ShardId(1)], Version(1));
    }

    #[test]
    fn exact_prunes_graph_below_cut() {
        let (meta, _) = setup(1);
        let finder = ExactFinder::new(meta.clone());
        finder.report_commit(t(0, 1), vec![]).unwrap();
        finder.report_commit(t(0, 2), vec![]).unwrap();
        finder.refresh().unwrap();
        assert!(
            meta.graph_snapshot().unwrap().is_empty(),
            "all committed → pruned"
        );
    }

    #[test]
    fn approximate_cut_is_vmin_everywhere() {
        let (meta, _) = setup(3);
        let finder = ApproximateFinder::new(meta.clone());
        finder.report_commit(t(0, 3), vec![]).unwrap();
        finder.report_commit(t(1, 5), vec![]).unwrap();
        finder.report_commit(t(2, 4), vec![]).unwrap();
        finder.refresh().unwrap();
        // The finder keeps what it published: reading it is no statement.
        let before = meta.statement_count();
        let cut = finder.current_cut();
        assert_eq!(meta.statement_count(), before);
        assert_eq!(
            *finder.published().unwrap(),
            (dpr_core::WorldLine(0), cut.clone())
        );
        for s in 0..3 {
            assert_eq!(cut[&ShardId(s)], Version(3));
        }
        assert_eq!(finder.max_version().unwrap(), Version(5));
    }

    #[test]
    fn approximate_false_dependency_holds_back_fast_shard() {
        // The §3.4 caveat: a slow shard drags everyone to its pace.
        let (meta, _) = setup(2);
        let finder = ApproximateFinder::new(meta);
        finder.report_commit(t(0, 10), vec![]).unwrap();
        // Shard 1 never commits (version 0).
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version::ZERO, "held hostage by shard 1");
    }

    #[test]
    fn hybrid_survives_coordinator_crash_via_approximate_floor() {
        let (meta, _) = setup(2);
        let finder = HybridFinder::new(meta);
        finder.report_commit(t(0, 1), vec![]).unwrap();
        finder.report_commit(t(1, 1), vec![t(0, 1)]).unwrap();
        finder.refresh().unwrap();
        assert_eq!(finder.current_cut()[&ShardId(1)], Version(1));
        // Coordinator crashes; the in-memory graph is lost.
        finder.simulate_coordinator_crash();
        // New commits arrive whose deps reference the lost subgraph region.
        finder.report_commit(t(0, 3), vec![t(1, 2)]).unwrap();
        finder.report_commit(t(1, 2), vec![t(0, 2)]).unwrap();
        // t(0,2)'s graph entry was lost before ever being reported — but
        // shard 0's persisted version (3) floors Vmin handling.
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        // Approximate floor: Vmin = min(3, 2) = 2 → both shards at ≥ 2.
        assert!(cut[&ShardId(0)] >= Version(2));
        assert!(cut[&ShardId(1)] >= Version(2));
    }

    #[test]
    fn hybrid_is_exact_in_failure_free_operation() {
        let (meta, _) = setup(2);
        let finder = HybridFinder::new(meta);
        // Shard 0 is far ahead; approximate alone would hold it at Vmin=1,
        // but the exact graph shows no dependencies, so it advances.
        finder.report_commit(t(0, 5), vec![]).unwrap();
        finder.report_commit(t(1, 1), vec![]).unwrap();
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version(5), "exact precision preserved");
        assert_eq!(cut[&ShardId(1)], Version(1));
    }

    #[test]
    fn grouped_reports_match_sequential_reports_for_every_finder() {
        // The batched path must produce the same cut the per-commit path
        // would; Exact/Hybrid keep dependency precision, Approximate keeps
        // Vmin semantics.
        let reports = vec![
            (t(0, 1), vec![]),
            (t(1, 1), vec![t(0, 1)]),
            (t(0, 2), vec![t(1, 1)]),
        ];
        type MakeFinder = fn(Arc<PartitionedSqlStore>) -> Box<dyn DprFinder>;
        // (constructor, expected shard-0 cut: Approximate stays at Vmin=1,
        // the graph-bearing finders reach the exact 2).
        let make: [(MakeFinder, Version); 3] = [
            (|m| Box::new(ExactFinder::new(m)), Version(2)),
            (|m| Box::new(ApproximateFinder::new(m)), Version(1)),
            (|m| Box::new(HybridFinder::new(m)), Version(2)),
        ];
        for (mk, expected) in make {
            let (meta_seq, _) = setup(2);
            let seq = mk(meta_seq);
            for (tok, deps) in reports.clone() {
                seq.report_commit(tok, deps).unwrap();
            }
            seq.refresh().unwrap();

            let (meta_grp, _) = setup(2);
            let grp = mk(meta_grp.clone());
            let before = meta_grp.statement_count();
            grp.report_commits(reports.clone()).unwrap();
            assert!(
                meta_grp.statement_count() - before <= 2,
                "a grouped report is O(1) statements, not one per commit"
            );
            grp.refresh().unwrap();

            assert_eq!(seq.current_cut(), grp.current_cut());
            assert_eq!(grp.current_cut()[&ShardId(0)], expected);
        }
    }

    #[test]
    fn grouped_report_held_back_like_sequential_when_dep_missing() {
        let (meta, _) = setup(2);
        let finder = ExactFinder::new(meta);
        // v2 depends on shard 1's v1, which never arrives in this group.
        finder
            .report_commits(vec![(t(0, 1), vec![]), (t(0, 2), vec![t(1, 1)])])
            .unwrap();
        finder.refresh().unwrap();
        assert_eq!(finder.current_cut()[&ShardId(0)], Version(1));
    }

    /// Satellite fix: the seeding pass pins a shard at the floor while the
    /// floor is below its lost ceiling, and releases it the moment the
    /// floor passes the ceiling mid-refresh-cycle — with the pin check now
    /// hoisted to once per shard, both sides must still hold.
    #[test]
    fn capped_seeding_pins_until_floor_passes_lost_ceiling() {
        let graph: BTreeMap<Token, Vec<Token>> =
            [(t(0, 5), vec![]), (t(0, 6), vec![]), (t(1, 4), vec![])]
                .into_iter()
                .collect();
        let ceiling: Cut = [(ShardId(0), Version(4))].into_iter().collect();

        // Floor below the ceiling: shard 0 pinned at its floor even though
        // the graph reaches v6; shard 1 (no ceiling) seeds freely.
        let floor: Cut = [(ShardId(0), Version(2)), (ShardId(1), Version(1))]
            .into_iter()
            .collect();
        let cut = compute_closure_cut_capped(&graph, &floor, &ceiling);
        assert_eq!(cut[&ShardId(0)], Version(2), "pinned at the floor");
        assert_eq!(cut[&ShardId(1)], Version(4));

        // The floor passes the ceiling (the approximate component caught
        // up between refreshes): the pin releases and exact precision
        // resumes from the graph.
        let floor: Cut = [(ShardId(0), Version(4)), (ShardId(1), Version(1))]
            .into_iter()
            .collect();
        let cut = compute_closure_cut_capped(&graph, &floor, &ceiling);
        assert_eq!(cut[&ShardId(0)], Version(6), "exact precision resumed");
    }

    /// Satellite fix: telemetry reads ride the uncharged
    /// `telemetry_frontier` path, so enabling telemetry must not change the
    /// charged statement count of a refresh (the `statements/version`
    /// headline number).
    #[test]
    fn telemetry_does_not_inflate_charged_statements() {
        let run = |telemetry: bool| -> u64 {
            let (meta, _) = setup(2);
            let finder = HybridFinder::new(meta.clone());
            finder.report_commit(t(0, 1), vec![]).unwrap();
            finder.report_commit(t(1, 1), vec![t(0, 1)]).unwrap();
            let before = meta.statement_count();
            let was = dpr_telemetry::enabled();
            dpr_telemetry::set_enabled(telemetry);
            finder.refresh().unwrap();
            dpr_telemetry::set_enabled(was);
            meta.statement_count() - before
        };
        assert_eq!(
            run(false),
            run(true),
            "telemetry-enabled refresh must charge the same statements"
        );
    }

    /// The finder's delta engine publishes the cut the reference algorithm
    /// computes over the complete history, across report → refresh → report
    /// → refresh cycles (the unit-sized version of the property test in
    /// tests/cut_properties.rs).
    #[test]
    fn delta_finder_agrees_with_full_history_oracle() {
        let rounds: [Vec<(Token, Vec<Token>)>; 3] = [
            vec![(t(0, 1), vec![]), (t(1, 1), vec![t(0, 1)])],
            // Mutually dependent same-version pair: only the lowering
            // fixpoint admits these atomically.
            vec![(t(0, 2), vec![t(1, 2)]), (t(1, 2), vec![t(0, 2)])],
            vec![(t(0, 3), vec![t(1, 2)])],
        ];
        let (meta, ids) = setup(2);
        let finder = HybridFinder::new(meta.clone());
        let mut history: BTreeMap<Token, Vec<Token>> = BTreeMap::new();
        for round in rounds {
            history.extend(round.iter().cloned());
            finder.report_commits(round).unwrap();
            // The floor `refresh` starts from: the published cut joined
            // with Vmin on every member. No ceiling: no crash happened.
            let vmin = meta.min_persisted_version().unwrap().unwrap();
            let mut floor = meta.read_cut().unwrap();
            for s in &ids {
                let e = floor.entry(*s).or_insert(Version::ZERO);
                *e = (*e).max(vmin);
            }
            let oracle = compute_closure_cut_capped(&history, &floor, &Cut::new());
            finder.refresh().unwrap();
            assert_eq!(finder.current_cut(), oracle);
        }
        // The delta engine pruned what it published; the history keeps all.
        assert_eq!(finder.pending_tokens(), 0);
    }

    /// The engine never loses a report that races a refresh: a token
    /// sitting in the mailbox during a compute pass survives (un-pruned)
    /// into the next pass and is closure-checked there.
    #[test]
    fn mailbox_report_during_refresh_is_not_lost() {
        let engine = CutEngine::new();
        engine.ingest_one(t(0, 1), vec![]);
        let floor = Cut::new();
        let cut = engine.compute(&floor, &Cut::new());
        // Report lands after the pass but before commit — the old
        // snapshot-then-retain window.
        engine.ingest_one(t(1, 1), vec![t(0, 2)]);
        engine.commit(&cut);
        assert_eq!(cut[&ShardId(0)], Version(1));
        // The racing report is intact and held back by its unmet dep.
        let cut2 = engine.compute(&cut, &Cut::new());
        assert_eq!(cut2.get(&ShardId(1)).copied(), Some(Version::ZERO));
        engine.ingest_one(t(0, 2), vec![]);
        let cut3 = engine.compute(&cut2, &Cut::new());
        assert_eq!(cut3[&ShardId(1)], Version(1));
    }

    /// `ExactFinder` must keep exact semantics on non-monotone graphs with
    /// the delta engine: a restarted coordinator re-seeds its mirror from
    /// the durable graph.
    #[test]
    fn exact_finder_reseeds_mirror_from_durable_graph() {
        let (meta, _) = setup(2);
        {
            let finder = ExactFinder::new(meta.clone());
            finder.report_commit(t(0, 1), vec![]).unwrap();
            finder.report_commit(t(0, 2), vec![t(1, 1)]).unwrap();
            // No refresh: the durable graph still holds both tokens.
        }
        // A new coordinator instance over the same store.
        let finder = ExactFinder::new(meta);
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        assert_eq!(cut[&ShardId(0)], Version(1), "v2 held back by unmet dep");
        finder.report_commit(t(1, 1), vec![]).unwrap();
        finder.refresh().unwrap();
        assert_eq!(finder.current_cut()[&ShardId(0)], Version(2));
    }

    #[test]
    fn closure_checker_accepts_and_rejects() {
        let graph: BTreeMap<Token, Vec<Token>> = [
            (t(0, 1), vec![]),
            (t(1, 1), vec![t(0, 1)]),
            (t(0, 2), vec![t(1, 2)]),
        ]
        .into_iter()
        .collect();
        let good: Cut = [(ShardId(0), Version(1)), (ShardId(1), Version(1))]
            .into_iter()
            .collect();
        assert!(cut_is_closed(&graph, &good));
        let bad: Cut = [(ShardId(0), Version(2)), (ShardId(1), Version(1))]
            .into_iter()
            .collect();
        assert!(
            !cut_is_closed(&graph, &bad),
            "includes t(0,2) with unmet dep"
        );
    }
}
