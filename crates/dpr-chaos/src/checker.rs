//! The online DPR invariant checker.
//!
//! Runs *beside* a live cluster and continuously asserts the paper's
//! correctness properties from two independent observation channels:
//!
//! * the [`libdpr::audit`] tap — every commit report (token + dependency
//!   set) and every cut the finder publishes, from which the checker keeps
//!   its own shadow precedence graph;
//! * the metadata store itself — the published cut, the per-shard
//!   persisted watermarks, the world-line, the recovery in progress and
//!   the cut each recovery froze ([`MetadataStore::recovery_cut`]), polled
//!   each tick.
//!
//! Checked invariants (each maps to a §9 row in `docs/PROTOCOL.md`):
//!
//! 1. **Cut monotonicity** — `read_cut()` never regresses per shard while
//!    the shard stays a member (Definition 3.1's cuts form a chain).
//! 2. **Downward closure** — every published cut, merged with the floor,
//!    is dependency-closed over the shadow graph (Definition 3.1, modulo
//!    dependencies on drained-and-removed workers — see
//!    `closed_modulo_removed`).
//! 3. **Prefix recoverability** — every entry of a finished recovery's cut
//!    is at or above the last cut the checker saw for that shard: committed
//!    operations are never lost by recovery.
//! 4. **Recovery completeness** — once a recovery's pending set empties,
//!    the cut every worker rolled back to is itself closed. Recoveries that
//!    finished before the checker's first tick are not checked; one in
//!    progress at its first tick is.
//! 5. **Bounded cut lag** — per-shard `persisted − cut` stays under a
//!    bound except while an injected stall / membership change legitimately
//!    freezes the cut (the driver registers exemption windows) or a
//!    recovery is in progress.
//! 6. **Monotone reports** — no commit report carries a dependency above
//!    its own token's version (§3.2: "no version ever depends on a larger
//!    version"), so the shadow graph is exactly the graph the servers
//!    reported.
//!
//! Exactly-once session replay (invariant 7) is driven by the ledger in
//! [`crate::driver`], which reports violations here via
//! [`InvariantChecker::report_violation`].

use dpr_core::{ShardId, Token, Version, WorldLine};
use dpr_metadata::{Cut, MetadataStore};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on stored violation strings (counts keep accumulating).
const MAX_STORED_VIOLATIONS: usize = 64;

#[derive(Default)]
struct CheckerState {
    /// Shadow precedence graph: token → cross-shard dependency set.
    graph: BTreeMap<Token, Vec<Token>>,
    /// Per-shard high-water of the metadata cut (pruned on membership
    /// removal).
    cut_floor: Cut,
    /// Commit reports at or below this per-shard version are pre-recovery
    /// stragglers (rolled back, or already covered) and are not added to
    /// the shadow graph; see `finish_recovery`.
    stale_floor: Cut,
    /// Every world-line up to this one has finished recovering and been
    /// checked (or finished before the first tick); `None` before it.
    checked_world_line: Option<u64>,
    lag_exempt_until: Option<Instant>,
    max_lag: u64,
    checks: u64,
    violation_count: u64,
    violations: Vec<String>,
}

/// The checker. Install it as the process-global [`libdpr::audit`] sink
/// and call [`InvariantChecker::tick`] periodically from a dedicated
/// thread.
pub struct InvariantChecker {
    lag_bound: u64,
    state: Mutex<CheckerState>,
    /// Audit events are buffered here by the (hot) finder threads and
    /// drained on the (cold) checker tick, keeping sink calls cheap.
    pending_commits: Mutex<Vec<(Token, Vec<Token>)>>,
    pending_cuts: Mutex<Vec<Cut>>,
}

impl InvariantChecker {
    /// A checker asserting `lag_bound` as the maximum tolerated per-shard
    /// cut lag (in versions).
    #[must_use]
    pub fn new(lag_bound: u64) -> InvariantChecker {
        InvariantChecker {
            lag_bound,
            state: Mutex::default(),
            pending_commits: Mutex::default(),
            pending_cuts: Mutex::default(),
        }
    }

    /// Suppress the lag-bound assertion for `window` from now (injected
    /// checkpoint stalls and membership changes legitimately freeze the
    /// cut). Lag is still *measured* during the window.
    pub fn exempt_lag(&self, window: Duration) {
        let until = Instant::now() + window;
        let mut s = self.state.lock().unwrap();
        s.lag_exempt_until = Some(match s.lag_exempt_until {
            Some(existing) => existing.max(until),
            None => until,
        });
    }

    /// The driver removed `shard` from the cluster: drop its monotonicity
    /// floor and purge it from the shadow graph (its durable data was
    /// migrated away before removal, so dependencies on it are satisfied).
    pub fn note_shard_removed(&self, shard: ShardId) {
        let mut s = self.state.lock().unwrap();
        s.cut_floor.remove(&shard);
        s.stale_floor.remove(&shard);
        s.graph.retain(|t, _| t.shard != shard);
        for deps in s.graph.values_mut() {
            deps.retain(|d| d.shard != shard);
        }
    }

    /// Record an externally detected violation (ledger bounds, fault
    /// execution errors, recovery timeouts).
    pub fn report_violation(&self, msg: impl Into<String>) {
        self.state.lock().unwrap().record(msg.into());
    }

    /// Number of tick passes performed.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.state.lock().unwrap().checks
    }

    /// Total violations detected (stored strings are capped).
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.state.lock().unwrap().violation_count
    }

    /// The stored violation descriptions.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().unwrap().violations.clone()
    }

    /// Maximum per-shard cut lag (versions) observed so far.
    #[must_use]
    pub fn max_lag(&self) -> u64 {
        self.state.lock().unwrap().max_lag
    }

    /// One checking pass: drain buffered audit events and poll the
    /// metadata store.
    pub fn tick(&self, meta: &Arc<dyn MetadataStore>) {
        let commits = std::mem::take(&mut *self.pending_commits.lock().unwrap());
        let cuts = std::mem::take(&mut *self.pending_cuts.lock().unwrap());
        // The world-line before the recovery: one that begins between the
        // two reads is then seen in progress, never as finished.
        let world_line = meta.world_line();
        let recovery = meta.recovery_in_progress();

        let mut s = self.state.lock().unwrap();
        for (token, deps) in commits {
            // Invariant 6: the §3.2 lower-bound discipline as the servers
            // report it. Checked on every report, stragglers included.
            for d in deps.iter().filter(|d| d.version > token.version) {
                s.record(format!(
                    "reported dependency above its token: shard {} v{} depends on shard {} v{}",
                    token.shard.0, token.version.0, d.shard.0, d.version.0
                ));
            }
            let stale = s
                .stale_floor
                .get(&token.shard)
                .is_some_and(|&f| token.version <= f);
            if !stale {
                s.graph.insert(token, deps);
            }
        }

        // Invariant 2: downward closure of every published cut (merged
        // with the floor — published cuts form a chain, so the merge is
        // just the later of the two and remains a genuine cut).
        for cut in cuts {
            let mut merged = cut;
            raise(&mut merged, &s.cut_floor);
            if !closed_modulo_removed(&s.graph, &merged) {
                s.record(format!(
                    "downward closure violated: published cut {merged:?} includes a token \
                     whose dependency is outside the cut"
                ));
            }
        }

        // Invariants 3 and 4, for every world-line whose recovery finished
        // since the last tick. A recovery in progress is the current
        // world-line's; every one below it has finished (a nested failure
        // supersedes the one it interrupts, with the same frozen cut).
        if let (Ok(world_line), Ok(recovery)) = (world_line, &recovery) {
            let finished = match recovery {
                Some(rec) => world_line.0.min(rec.world_line.0.saturating_sub(1)),
                None => world_line.0,
            };
            let from = *s.checked_world_line.get_or_insert(finished);
            for w in from + 1..=finished {
                s.finish_recovery(meta, WorldLine(w));
            }
            s.checked_world_line = Some(finished);
        }

        // Invariant 1: the metadata cut never regresses per shard.
        if let Ok(cut) = meta.read_cut() {
            for (shard, v) in &cut {
                let floor = s.cut_floor.get(shard).copied().unwrap_or(Version::ZERO);
                if *v < floor {
                    s.record(format!(
                        "cut monotonicity violated: shard {} regressed v{} -> v{}",
                        shard.0, floor.0, v.0
                    ));
                } else {
                    s.cut_floor.insert(*shard, *v);
                }
            }
            // Shards absent from the cut left the membership.
            let members: Vec<ShardId> = cut.keys().copied().collect();
            s.cut_floor.retain(|shard, _| members.contains(shard));
            // Drop shadow-graph entries the floor already covers: their
            // closure was asserted when their covering cut was published.
            let floor = s.cut_floor.clone();
            s.graph.retain(|t, _| {
                floor
                    .get(&t.shard)
                    .is_none_or(|&committed| t.version > committed)
            });

            // Invariant 5: bounded per-shard cut lag.
            if let Ok(persisted) = meta.persisted_versions() {
                let mut lag = 0u64;
                for (shard, p) in &persisted {
                    if let Some(c) = cut.get(shard) {
                        lag = lag.max(p.0.saturating_sub(c.0));
                    }
                }
                s.max_lag = s.max_lag.max(lag);
                let exempt = s.lag_exempt_until.is_some_and(|t| Instant::now() < t)
                    || matches!(recovery, Ok(Some(_)));
                if !exempt && lag > self.lag_bound {
                    s.record(format!(
                        "cut lag bound violated: {lag} versions > bound {}",
                        self.lag_bound
                    ));
                }
            }
        }

        s.checks += 1;
    }
}

impl CheckerState {
    fn record(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// Check the cut the recovery into `world_line` rolled every worker
    /// back to, then start the shadow graph afresh on its far side.
    fn finish_recovery(&mut self, meta: &Arc<dyn MetadataStore>, world_line: WorldLine) {
        let Ok(rec_cut) = meta.recovery_cut(world_line) else {
            return;
        };
        let Some(rec_cut) = rec_cut else {
            let w = world_line.0;
            return self.record(format!(
                "recovery into world-line {w} finished but its cut is gone"
            ));
        };
        // Invariant 3: never roll back below the guaranteed cut the checker
        // already saw published.
        for (shard, v) in &rec_cut {
            let floor = self.cut_floor.get(shard).copied().unwrap_or(Version::ZERO);
            if *v < floor {
                self.record(format!(
                    "prefix recoverability violated: world-line {} rolled shard {} back to \
                     v{} below the guaranteed cut v{}",
                    world_line.0, shard.0, v.0, floor.0
                ));
            }
        }
        // Invariant 4: the restored cut must itself be closed over
        // everything reported before the crash.
        if !closed_modulo_removed(&self.graph, &rec_cut) {
            self.record(format!(
                "recovery cut {rec_cut:?} of world-line {} is not dependency-closed",
                world_line.0
            ));
        }
        // Pre-recovery tokens are now either committed (≤ rec_cut) or rolled
        // back (> rec_cut, their version numbers are skipped, never reused);
        // both classes leave the shadow graph. Straggler reports of
        // pre-recovery checkpoints are fenced off by the persisted watermark:
        // post-recovery versions start strictly above it.
        self.graph.clear();
        if let Ok(persisted) = meta.persisted_versions() {
            raise(&mut self.stale_floor, &persisted);
        }
        raise(&mut self.cut_floor, &rec_cut);
    }
}

impl libdpr::audit::AuditSink for InvariantChecker {
    fn commit_reported(&self, token: Token, deps: &[Token]) {
        self.pending_commits
            .lock()
            .unwrap()
            .push((token, deps.to_vec()));
    }

    fn cut_published(&self, cut: &Cut) {
        self.pending_cuts.lock().unwrap().push(cut.clone());
    }
}

/// Raise each entry of `floor` to `by`'s, adding the shards it lacks.
fn raise(floor: &mut Cut, by: &Cut) {
    for (shard, v) in by {
        let e = floor.entry(*shard).or_insert(Version::ZERO);
        *e = (*e).max(*v);
    }
}

/// Definition 3.1 closure over the shadow graph, modulo membership: a
/// dependency on a shard with no entry in `cut` refers to a worker that
/// was *removed* — `Cluster::remove_worker` migrates all of its durable
/// state away before dropping its metadata row, so every version a client
/// can still depend on is permanently durable and the dependency is
/// vacuously satisfied. (Client sessions keep carrying such shards in
/// their dependency vectors long after the removal, so the reported graph
/// legitimately references shards no cut will ever contain again.)
fn closed_modulo_removed(graph: &BTreeMap<Token, Vec<Token>>, cut: &Cut) -> bool {
    graph.iter().all(|(token, deps)| {
        let included = cut.get(&token.shard).is_some_and(|&v| token.version <= v);
        !included
            || deps.iter().all(|d| match cut.get(&d.shard) {
                Some(&v) => d.version <= v,
                None => true,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::Result;
    use dpr_metadata::{PartitionedSqlStore, RecoveryState};
    use libdpr::audit::AuditSink;

    /// A real store whose recovery cuts a test can forge: the one it holds
    /// is the published cut frozen at `begin_recovery`, which no cluster
    /// bug can make wrong by itself.
    struct Forged {
        inner: PartitionedSqlStore,
        recovery_cuts: Mutex<BTreeMap<WorldLine, Cut>>,
    }

    /// Forward each named method to the real store.
    macro_rules! delegate {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            fn $name(&self, $($arg: $ty),*) -> Result<$ret> {
                self.inner.$name($($arg),*)
            }
        )*};
    }

    impl MetadataStore for Forged {
        delegate! {
            register_worker(shard: ShardId) -> ();
            remove_worker(shard: ShardId) -> ();
            members() -> Vec<ShardId>;
            update_persisted_versions(updates: &[(ShardId, Version)]) -> ();
            min_persisted_version() -> Option<Version>;
            max_persisted_version() -> Option<Version>;
            persisted_versions() -> Cut;
            add_graph_versions(entries: Vec<(Token, Vec<Token>)>) -> ();
            graph_snapshot() -> Vec<(Token, Vec<Token>)>;
            prune_graph_below(cut: &Cut) -> ();
            update_cut_atomically(cut: Cut) -> (WorldLine, Cut);
            read_cut() -> Cut;
            telemetry_frontier() -> (Option<Version>, Cut);
            world_line() -> WorldLine;
            begin_recovery() -> RecoveryState;
            report_rollback_complete(shard: ShardId) -> RecoveryState;
            recovery_in_progress() -> Option<RecoveryState>;
        }

        fn recovery_cut(&self, world_line: WorldLine) -> Result<Option<Cut>> {
            match self.recovery_cuts.lock().unwrap().get(&world_line) {
                Some(cut) => Ok(Some(cut.clone())),
                None => self.inner.recovery_cut(world_line),
            }
        }
    }

    impl Forged {
        fn forge(&self, world_line: WorldLine, entries: &[(u32, u64)]) {
            let mut cuts = self.recovery_cuts.lock().unwrap();
            cuts.insert(world_line, cut(entries));
        }
    }

    /// `checker` recorded one violation, and it names `what`.
    fn assert_only(checker: &InvariantChecker, what: &str) {
        let violations = checker.violations();
        let only = violations.len() == 1 && violations[0].contains(what);
        assert!(only, "{violations:?}");
    }

    fn token(shard: u32, v: u64) -> Token {
        Token::new(ShardId(shard), Version(v))
    }

    fn cut(entries: &[(u32, u64)]) -> Cut {
        entries
            .iter()
            .map(|&(shard, v)| (ShardId(shard), Version(v)))
            .collect()
    }

    /// Two shards with `published` as their guaranteed cut.
    fn store(published: &[(u32, u64)]) -> (Arc<Forged>, Arc<dyn MetadataStore>) {
        let forged = Arc::new(Forged {
            inner: PartitionedSqlStore::new(1),
            recovery_cuts: Mutex::default(),
        });
        for &(shard, v) in published {
            let shard = ShardId(shard);
            forged.register_worker(shard).unwrap();
            forged.update_persisted_version(shard, Version(v)).unwrap();
        }
        forged.update_cut_atomically(cut(published)).unwrap();
        let meta: Arc<dyn MetadataStore> = forged.clone();
        (forged, meta)
    }

    /// Run a whole recovery: every member rolls back and reports.
    fn recover(meta: &Arc<dyn MetadataStore>) -> WorldLine {
        let rec = meta.begin_recovery().unwrap();
        for shard in rec.pending {
            meta.report_rollback_complete(shard).unwrap();
        }
        rec.world_line
    }

    #[test]
    fn a_recovery_cut_below_the_published_cut_loses_committed_operations() {
        let (forged, meta) = store(&[(0, 5), (1, 5)]);
        let checker = InvariantChecker::new(100);
        checker.tick(&meta);
        let w = recover(&meta);
        forged.forge(w, &[(0, 3), (1, 5)]);
        checker.tick(&meta);
        assert_only(&checker, "prefix recoverability violated");
    }

    #[test]
    fn a_recovery_cut_without_a_reported_dependency_is_not_closed() {
        let (forged, meta) = store(&[(0, 2), (1, 2)]);
        let checker = InvariantChecker::new(100);
        checker.commit_reported(token(0, 3), &[token(1, 3)]);
        checker.tick(&meta);
        let w = recover(&meta);
        forged.forge(w, &[(0, 3), (1, 2)]);
        meta.update_cut_atomically(cut(&[(0, 3), (1, 2)])).unwrap();
        checker.tick(&meta);
        assert_only(&checker, "not dependency-closed");
    }

    /// A recovery that finished before the first tick is not checked, so a
    /// forged cut there goes unseen; the one in progress at the first tick
    /// is, and it is sound. The cut lags the persisted versions by more
    /// than the bound only while that recovery runs.
    #[test]
    fn a_checker_that_starts_mid_recovery_records_nothing_spurious() {
        let (forged, meta) = store(&[(0, 5), (1, 5)]);
        let before = recover(&meta);
        forged.forge(before, &[(0, 1), (1, 1)]);
        let rec = meta.begin_recovery().unwrap();
        meta.update_persisted_version(ShardId(0), Version(50))
            .unwrap();
        let checker = InvariantChecker::new(10);
        checker.commit_reported(token(0, 6), &[token(1, 6)]);
        checker.tick(&meta);
        for shard in rec.pending {
            meta.report_rollback_complete(shard).unwrap();
        }
        meta.update_cut_atomically(cut(&[(0, 50), (1, 50)]))
            .unwrap();
        checker.tick(&meta);
        assert_eq!(checker.violations(), Vec::<String>::new());
        assert_eq!(checker.checks(), 2);
    }
}
