//! Server-side batch gate (§6).
//!
//! `libDPR is invoked before and after each request batch is processed`: the
//! *before* hook ([`DprServer::validate`]) checks world-lines and the
//! version lower bound (triggering a commit when a client is ahead, the
//! §3.2 progress rule); the *after* hook ([`GateGuard::record`], on the
//! guard [`DprServer::enter`] hands out before the batch executes)
//! accumulates dependency edges for the version the batch executed in and
//! [`DprServer::make_reply`] builds the reply header.
//!
//! ## The dependency table
//!
//! Recorded dependencies live in one table behind one lock, and a record
//! holds that lock for a binary search per dependency:
//!
//! * The table keeps one entry per (executed version, dependent shard), with
//!   the **max version** depended on. Prefix semantics make this lossless for
//!   safety: a cut that admits a token `(s, v)` admits every `(s, v' ≤ v)`,
//!   so the largest dependency per shard subsumes all smaller ones.
//! * A record writes only the entries of the version its batch executed in,
//!   so a version's dependencies are never mixed with a later version's.
//! * A worker holds its [`GateGuard`] (a [`LightEpoch`] guard) from before
//!   the batch executes until its dependencies are recorded. A version's
//!   commit descriptor appears only after every batch executing in it has
//!   returned, and the drain quiesces after taking the descriptors, so no
//!   version is reported between a batch's execution in it and the recording
//!   of that batch's dependencies. The drain quiesces *before* it takes the
//!   table lock: a guard takes that lock to record. A batch whose operations
//!   straddle a checkpoint records at the lowest version it touched: the
//!   higher one rests on the lower.
//! * A drain ([`DprServer::pump_commits`]) reports every version `v` with
//!   the entries recorded at or below `v` that no earlier report carried,
//!   and nothing else: no reported dependency was recorded at a version
//!   above its token, which keeps the reported graph monotone (§3.2) and
//!   lets the exact finder's closure close at every checkpoint.
//!
//! Queued commit reports leave the drain as **one** grouped
//! [`DprFinder::report_commits`] call — O(1) metadata round trips per pump
//! instead of one per version (the §3.4 metadata-write bottleneck).

use crate::finder::DprFinder;
use crate::header::{BatchHeader, BatchReply};
use crate::state_object::StateObject;
use dpr_core::epoch::EpochGuard;
use dpr_core::{Backoff, DprError, LightEpoch, Result, ShardId, Token, Version, WorldLine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Epoch-table capacity: max threads concurrently inside the gate.
const MAX_GATE_THREADS: usize = 256;

/// What to do with an incoming batch.
#[derive(Debug)]
pub enum BatchDisposition {
    /// Safe to execute now.
    Execute,
    /// The client is on a later version than the shard; a commit has been
    /// requested — re-validate after it completes.
    Delay,
    /// The batch must be rejected (world-line problems).
    Reject(DprError),
}

/// What the gate has recorded and no drain has taken. Both vectors are
/// sorted and keep their capacity across drains, so a steady-state record
/// allocates nothing.
#[derive(Default)]
struct Table {
    /// `(executed version, dependent shard, max dependency version)`, one
    /// entry per pair, ascending by the pair.
    deps: Vec<(Version, ShardId, Version)>,
    /// Telemetry only: `(executed version, micros since server start)` of
    /// the first batch recorded in each version, ascending.
    first_exec_us: Vec<(Version, u64)>,
}

impl Table {
    /// Raise the entry of `(executed, shard)` to `version`, making it on
    /// first sight.
    fn note(&mut self, executed: Version, shard: ShardId, version: Version) {
        match self
            .deps
            .binary_search_by_key(&(executed, shard), |&(e, s, _)| (e, s))
        {
            Ok(at) => self.deps[at].2 = self.deps[at].2.max(version),
            Err(at) => self.deps.insert(at, (executed, shard, version)),
        }
    }

    /// Move everything recorded at executed versions up to `upto` to `out`.
    fn take_upto(&mut self, upto: Version, out: &mut Table) {
        let n = self.deps.partition_point(|d| d.0 <= upto);
        out.deps.extend(self.deps.drain(..n));
        let n = self.first_exec_us.partition_point(|f| f.0 <= upto);
        out.first_exec_us.extend(self.first_exec_us.drain(..n));
    }
}

/// Per-shard server-side DPR state.
pub struct DprServer {
    shard: ShardId,
    world_line: AtomicU64,
    /// Recorded, not yet reported dependencies.
    table: Mutex<Table>,
    /// Spans a batch's execution and the recording of its dependencies;
    /// drains bump-and-wait so they observe no mid-flight writer.
    epoch: LightEpoch,
    /// Serializes drains against each other (pump vs. restore) — never
    /// touched by a record — and holds what a drain takes from the table,
    /// reused across pumps.
    drain: Mutex<Table>,
    /// Timestamp base for the commit-latency telemetry.
    started: Instant,
}

/// A thread's pass through the gate: it keeps the drain from reporting the
/// version a batch executes in until that batch's dependencies are
/// recorded. Take it ([`DprServer::enter`]) once the batch is admitted and
/// before it executes; [`GateGuard::record`] ends the pass.
pub struct GateGuard<'a> {
    server: &'a DprServer,
    _epoch: EpochGuard<'a>,
}

impl GateGuard<'_> {
    /// The *after* hook: record the batch's dependency edges against the
    /// version it executed in — the lowest, for a batch whose operations
    /// straddle a checkpoint, so that no version holding one of them is
    /// reported without the edges.
    pub fn record(self, header: &BatchHeader, executed_version: Version) {
        let server = self.server;
        let mut deps = header
            .deps
            .iter()
            .filter(|d| d.shard != server.shard && d.version > Version::ZERO)
            .peekable();
        let stamp = dpr_telemetry::enabled();
        if deps.peek().is_none() && !stamp {
            return;
        }
        let mut table = server.table.lock().unwrap();
        if stamp {
            if let Err(at) = table
                .first_exec_us
                .binary_search_by_key(&executed_version, |f| f.0)
            {
                let now = server.started.elapsed().as_micros() as u64;
                table.first_exec_us.insert(at, (executed_version, now));
            }
        }
        for d in deps {
            table.note(executed_version, d.shard, d.version);
        }
    }
}

impl DprServer {
    /// Server state for `shard`, starting on the initial world-line.
    #[must_use]
    pub fn new(shard: ShardId) -> Self {
        DprServer {
            shard,
            world_line: AtomicU64::new(WorldLine::INITIAL.0),
            table: Mutex::new(Table::default()),
            epoch: LightEpoch::new(MAX_GATE_THREADS),
            drain: Mutex::new(Table::default()),
            started: Instant::now(),
        }
    }

    /// This shard's id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The world-line this shard is on.
    #[must_use]
    pub fn world_line(&self) -> WorldLine {
        WorldLine(self.world_line.load(Ordering::Acquire))
    }

    /// Advance the world-line after a restore (§4.2: "a StateObject
    /// advances its world-line by calling Restore()").
    pub fn set_world_line(&self, wl: WorldLine) {
        self.world_line.fetch_max(wl.0, Ordering::AcqRel);
    }

    /// The *before* hook: decide whether a batch may execute.
    pub fn validate(&self, header: &BatchHeader, so: &dyn StateObject) -> BatchDisposition {
        let ours = self.world_line();
        if header.world_line < ours {
            // Client is behind a failure it has not seen yet.
            crate::metrics::validate_reject().inc();
            return BatchDisposition::Reject(DprError::WorldLineMismatch {
                requested: header.world_line,
                current: ours,
            });
        }
        if header.world_line > ours {
            // We are still recovering; the client must retry.
            crate::metrics::validate_reject().inc();
            return BatchDisposition::Reject(DprError::Recovering);
        }
        if header.version_lower_bound > so.current_version() {
            // §3.2: execute only once our version has caught up; trigger a
            // commit that fast-forwards to the client's clock.
            so.request_commit(Some(header.version_lower_bound));
            crate::metrics::validate_delay().inc();
            return BatchDisposition::Delay;
        }
        crate::metrics::validate_execute().inc();
        BatchDisposition::Execute
    }

    /// Convenience for in-process deployments: validate, waiting out any
    /// `Delay` by ticking the store's commit machinery. The wait escalates
    /// spin → yield → short sleep ([`Backoff`]) so a delayed batch does not
    /// burn a core while the fast-forward commit completes.
    pub fn validate_blocking(
        &self,
        header: &BatchHeader,
        so: &dyn StateObject,
        timeout: Duration,
    ) -> Result<()> {
        let start = Instant::now();
        let mut backoff = Backoff::new();
        loop {
            match self.validate(header, so) {
                BatchDisposition::Execute => return Ok(()),
                BatchDisposition::Reject(e) => return Err(e),
                BatchDisposition::Delay => {
                    if start.elapsed() > timeout {
                        return Err(DprError::Timeout);
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// Enter the gate for one batch (see [`GateGuard`]): call after
    /// [`DprServer::validate`] admits the batch and before it executes, and
    /// do not wait on the commit pipeline while holding the guard — the
    /// drain waits for it.
    #[must_use]
    pub fn enter(&self) -> GateGuard<'_> {
        GateGuard {
            server: self,
            _epoch: self.epoch.protect(),
        }
    }

    /// Enter the gate only to record: for tests and probes, whose batches
    /// do not execute concurrently with the drain that reports
    /// `executed_version`. A store adapter must hold [`DprServer::enter`]'s
    /// guard across execution instead, or that drain can overtake it.
    #[doc(hidden)]
    pub fn record_batch(&self, header: &BatchHeader, executed_version: Version) {
        self.enter().record(header, executed_version);
    }

    /// Build the reply header for a batch executed at `version`.
    #[must_use]
    pub fn make_reply(&self, header: &BatchHeader, version: Version) -> BatchReply {
        BatchReply {
            shard: self.shard,
            world_line: self.world_line(),
            version,
            first_serial: header.first_serial,
            op_count: header.op_count,
        }
    }

    /// Quiesce in-flight writers, then take everything recorded at executed
    /// versions up to `upto` into the drain scratch.
    fn quiesce_and_take(&self, upto: Version, scratch: &mut Table) {
        // Writers protected at the pre-bump epoch may still be recording;
        // wait them out. Writers entering after the bump execute in versions
        // the caller is not draining (see the module docs). Quiesce before
        // locking: a writer takes the table lock inside its guard, so a
        // drain holding the lock while it waited would wait forever.
        self.epoch.quiesce();
        scratch.deps.clear();
        scratch.first_exec_us.clear();
        self.table.lock().unwrap().take_upto(upto, scratch);
    }

    /// Drain completed local commits to the finder, each with the
    /// dependencies recorded at its own version. Call periodically
    /// (background thread); callers on other threads are serialised, so a
    /// version is never reported ahead of a lower one another call took.
    /// Returns the versions reported.
    ///
    /// All queued commits leave as **one** [`DprFinder::report_commits`]
    /// group. An entry recorded at executed version `e` rides the lowest
    /// reported version at or above `e` — its own version whenever that
    /// version is in the group, which is always the case for a batch
    /// executed under a [`GateGuard`].
    pub fn pump_commits(
        &self,
        so: &dyn StateObject,
        finder: &dyn DprFinder,
    ) -> Result<Vec<Version>> {
        let mut scratch = self.drain.lock().unwrap();
        let mut commits = so.take_commits();
        if commits.is_empty() {
            return Ok(Vec::new());
        }
        commits.sort_by_key(|d| d.version);
        let upto = commits[commits.len() - 1].version;
        self.quiesce_and_take(upto, &mut scratch);
        // Each entry rides the lowest reported version at or above the one
        // it was recorded at.
        let rides =
            |executed: Version| commits[commits.partition_point(|c| c.version < executed)].version;
        for d in &mut scratch.deps {
            d.0 = rides(d.0);
        }
        for f in &mut scratch.first_exec_us {
            f.0 = rides(f.0);
        }
        scratch.deps.sort_unstable_by_key(|&(v, s, _)| (v, s));
        let mut deps = scratch.deps.iter().peekable();
        let reports: Vec<(Token, Vec<Token>)> = commits
            .iter()
            .map(|desc| {
                let mut tokens: Vec<Token> = Vec::new();
                while let Some(&(_, s, v)) = deps.next_if(|d| d.0 == desc.version) {
                    match tokens.last_mut() {
                        Some(t) if t.shard == s => t.version = t.version.max(v),
                        _ => tokens.push(Token::new(s, v)),
                    }
                }
                (Token::new(self.shard, desc.version), tokens)
            })
            .collect();
        finder.report_commits(reports)?;
        crate::metrics::commit_reports().add(commits.len() as u64);
        if dpr_telemetry::enabled() {
            // Every version sealed by this drain has reached its commit
            // point: record how long it trailed its first execution.
            let now = self.started.elapsed().as_micros() as u64;
            for desc in &commits {
                let first = scratch
                    .first_exec_us
                    .iter()
                    .filter(|&&(v, _)| v == desc.version)
                    .map(|&(_, us)| us)
                    .min();
                if let Some(us) = first {
                    crate::metrics::commit_latency().record(now.saturating_sub(us));
                }
            }
        }
        Ok(commits.into_iter().map(|d| d.version).collect())
    }

    /// Discard accumulated dependency state after a restore.
    ///
    /// Everything still pending belongs to versions above the guaranteed cut
    /// (versions at or below it were reported — and their entries taken —
    /// before the cut could include them), so the whole table is dropped.
    pub fn on_restore(&self) {
        let mut scratch = self.drain.lock().unwrap();
        self.quiesce_and_take(Version(u64::MAX), &mut scratch);
    }

    /// Snapshot of the accumulated (max-per-shard compressed) dependency
    /// tokens per open executed version, lowest version first —
    /// diagnostics and tests; does not drain.
    #[must_use]
    pub fn pending_deps(&self) -> Vec<(Version, Vec<Token>)> {
        let mut out: Vec<(Version, Vec<Token>)> = Vec::new();
        for &(executed, shard, v) in &self.table.lock().unwrap().deps {
            match out.last_mut() {
                Some((e, tokens)) if *e == executed => tokens.push(Token::new(shard, v)),
                _ => out.push((executed, vec![Token::new(shard, v)])),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::ApproximateFinder;
    use crate::state_object::CommitDescriptor;
    use dpr_core::SessionId;
    use dpr_metadata::{MetadataStore, PartitionedSqlStore};
    use std::sync::Arc;

    /// Minimal StateObject mock.
    struct MockSo {
        shard: ShardId,
        current: AtomicU64,
        durable: AtomicU64,
        pending_commits: Mutex<Vec<CommitDescriptor>>,
    }

    impl MockSo {
        fn new(shard: u32) -> Self {
            MockSo {
                shard: ShardId(shard),
                current: AtomicU64::new(1),
                durable: AtomicU64::new(0),
                pending_commits: Mutex::new(Vec::new()),
            }
        }

        fn complete_commit(&self) {
            let v = self.current.fetch_add(1, Ordering::SeqCst);
            self.durable.store(v, Ordering::SeqCst);
            self.pending_commits.lock().unwrap().push(CommitDescriptor {
                version: Version(v),
            });
        }
    }

    impl StateObject for MockSo {
        fn shard(&self) -> ShardId {
            self.shard
        }
        fn current_version(&self) -> Version {
            Version(self.current.load(Ordering::SeqCst))
        }
        fn durable_version(&self) -> Version {
            Version(self.durable.load(Ordering::SeqCst))
        }
        fn request_commit(&self, target: Option<Version>) -> bool {
            // Complete instantly, jumping to the target.
            let v = self.current.load(Ordering::SeqCst);
            self.durable.store(v, Ordering::SeqCst);
            self.pending_commits.lock().unwrap().push(CommitDescriptor {
                version: Version(v),
            });
            let next = target.map_or(v + 1, |t| t.0.max(v + 1));
            self.current.store(next, Ordering::SeqCst);
            true
        }
        fn take_commits(&self) -> Vec<CommitDescriptor> {
            std::mem::take(&mut *self.pending_commits.lock().unwrap())
        }
        fn restore(&self, version: Version) -> Result<()> {
            self.durable.store(version.0, Ordering::SeqCst);
            self.current.store(version.0 + 1, Ordering::SeqCst);
            Ok(())
        }
    }

    /// Finder that records every report it receives.
    #[derive(Default)]
    struct CapturingFinder {
        reports: Mutex<Vec<(Token, Vec<Token>)>>,
    }

    impl DprFinder for CapturingFinder {
        fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
            self.reports.lock().unwrap().extend(reports);
            Ok(())
        }
        fn refresh(&self) -> Result<()> {
            Ok(())
        }
        fn max_version(&self) -> Result<Version> {
            Ok(Version::ZERO)
        }
    }

    fn header(wl: u64, lb: u64, deps: Vec<Token>) -> BatchHeader {
        BatchHeader {
            session: SessionId(1),
            world_line: WorldLine(wl),
            version_lower_bound: Version(lb),
            deps,
            first_serial: 0,
            acked_below: 0,
            op_count: 1,
        }
    }

    #[test]
    fn validate_world_lines() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        server.set_world_line(WorldLine(2));
        // Stale client.
        match server.validate(&header(1, 0, vec![]), &so) {
            BatchDisposition::Reject(DprError::WorldLineMismatch { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Client ahead of a recovering shard.
        match server.validate(&header(3, 0, vec![]), &so) {
            BatchDisposition::Reject(DprError::Recovering) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Matching world-line.
        match server.validate(&header(2, 0, vec![]), &so) {
            BatchDisposition::Execute => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_lower_bound_triggers_commit_and_delay() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        assert_eq!(so.current_version(), Version(1));
        match server.validate(&header(0, 5, vec![]), &so) {
            BatchDisposition::Delay => {}
            other => panic!("unexpected {other:?}"),
        }
        // The mock commit fast-forwarded to 5; validation now passes.
        assert!(so.current_version() >= Version(5));
        match server.validate(&header(0, 5, vec![]), &so) {
            BatchDisposition::Execute => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validate_blocking_waits_out_delay() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        server
            .validate_blocking(&header(0, 3, vec![]), &so, Duration::from_secs(1))
            .unwrap();
        assert!(so.current_version() >= Version(3));
    }

    #[test]
    fn pump_commits_reports_accumulated_deps() {
        let meta = Arc::new(PartitionedSqlStore::new(8));
        meta.register_worker(ShardId(0)).unwrap();
        meta.register_worker(ShardId(1)).unwrap();
        let finder = ApproximateFinder::new(meta.clone());
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(2))]),
            Version(1),
        );
        so.complete_commit();
        let reported = server.pump_commits(&so, &finder).unwrap();
        assert_eq!(reported, vec![Version(1)]);
        assert_eq!(meta.persisted_versions().unwrap()[&ShardId(0)], Version(1));
        // Deps for version 1 were drained.
        assert!(server.pending_deps().is_empty());
    }

    #[test]
    fn self_and_zero_deps_filtered() {
        let server = DprServer::new(ShardId(0));
        server.record_batch(
            &header(
                0,
                0,
                vec![
                    Token::new(ShardId(0), Version(9)),    // self
                    Token::new(ShardId(1), Version::ZERO), // trivial
                    Token::new(ShardId(2), Version(1)),
                ],
            ),
            Version(1),
        );
        let pending = server.pending_deps();
        assert_eq!(
            pending,
            vec![(Version(1), vec![Token::new(ShardId(2), Version(1))])]
        );
    }

    #[test]
    fn deps_compress_to_max_version_per_shard_and_executed_version() {
        let server = DprServer::new(ShardId(0));
        for v in [3u64, 7, 5] {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(1),
            );
        }
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(2), Version(4))]),
            Version(2),
        );
        assert_eq!(
            server.pending_deps(),
            vec![
                (Version(1), vec![Token::new(ShardId(1), Version(7))]),
                (Version(2), vec![Token::new(ShardId(2), Version(4))]),
            ],
            "only the max per dependent shard is kept, per executed version"
        );
    }

    #[test]
    fn each_version_reports_only_its_own_deps() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        let finder = CapturingFinder::default();
        // Batches of v1 and of v2 are recorded before v1 is pumped.
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(1))]),
            Version(1),
        );
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(2))]),
            Version(2),
        );
        so.complete_commit();
        assert_eq!(server.pump_commits(&so, &finder).unwrap(), vec![Version(1)]);
        assert_eq!(
            *finder.reports.lock().unwrap(),
            vec![(
                Token::new(ShardId(0), Version(1)),
                vec![Token::new(ShardId(1), Version(1))]
            )],
            "v1's report carries none of v2's dependencies"
        );
        assert_eq!(
            server.pending_deps(),
            vec![(Version(2), vec![Token::new(ShardId(1), Version(2))])],
            "v2's stay open until v2 is reported"
        );
        // v2 and an empty v3 in one group: each with its own set.
        so.complete_commit();
        so.complete_commit();
        assert_eq!(
            server.pump_commits(&so, &finder).unwrap(),
            vec![Version(2), Version(3)]
        );
        let reports = finder.reports.lock().unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports[1],
            (
                Token::new(ShardId(0), Version(2)),
                vec![Token::new(ShardId(1), Version(2))]
            )
        );
        assert_eq!(reports[2], (Token::new(ShardId(0), Version(3)), vec![]));
        assert!(server.pending_deps().is_empty());
    }

    #[test]
    fn late_record_rides_the_next_reported_version() {
        // A record for a version that was already reported (no guard held
        // across execution) is not lost: the next report carries it.
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        let finder = CapturingFinder::default();
        so.complete_commit();
        server.pump_commits(&so, &finder).unwrap();
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(1))]),
            Version(1),
        );
        so.complete_commit();
        so.complete_commit();
        server.pump_commits(&so, &finder).unwrap();
        let reports = finder.reports.lock().unwrap();
        assert_eq!(
            reports[1],
            (
                Token::new(ShardId(0), Version(2)),
                vec![Token::new(ShardId(1), Version(1))]
            )
        );
        assert!(reports[2].1.is_empty());
    }

    #[test]
    fn five_open_versions_each_report_their_own_deps() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        let finder = CapturingFinder::default();
        let open = 5u64;
        for v in 1..=open {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        assert_eq!(server.pending_deps().len(), open as usize);
        for _ in 0..open {
            so.complete_commit();
        }
        server.pump_commits(&so, &finder).unwrap();
        let reports = finder.reports.lock().unwrap().clone();
        assert_eq!(reports.len(), open as usize);
        for (i, (token, deps)) in reports.iter().enumerate() {
            let v = Version(i as u64 + 1);
            assert_eq!(*token, Token::new(ShardId(0), v));
            assert_eq!(*deps, vec![Token::new(ShardId(1), v)]);
        }
        // The next versions record into the emptied table as before.
        for v in open + 1..=2 * open {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(2), Version(v))]),
                Version(v),
            );
        }
        let pending = server.pending_deps();
        assert_eq!(pending.len(), open as usize);
        for (v, deps) in pending {
            assert_eq!(deps, vec![Token::new(ShardId(2), v)]);
        }
    }

    #[test]
    fn sixty_four_dependent_shards_are_all_kept() {
        let server = DprServer::new(ShardId(0));
        let n = 64u32;
        for s in 1..=n {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(s), Version(u64::from(s)))]),
                Version(1),
            );
        }
        let pending = server.pending_deps();
        assert_eq!(pending.len(), 1);
        let (executed, deps) = &pending[0];
        assert_eq!(*executed, Version(1));
        assert_eq!(deps.len(), n as usize, "no dependency dropped");
        for t in deps {
            assert_eq!(t.version.0, u64::from(t.shard.0));
        }
    }

    #[test]
    fn restore_empties_the_table_and_the_gate_keeps_working() {
        let server = DprServer::new(ShardId(0));
        for v in 1..=5u64 {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        server.on_restore();
        // Anything pending belonged to versions above the guaranteed cut
        // (committed versions drained at report time), so the table
        // empties entirely.
        assert!(server.pending_deps().is_empty());
        for v in 6..=9u64 {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        let pending = server.pending_deps();
        assert_eq!(pending.len(), 4);
        for (v, deps) in pending {
            assert_eq!(deps, vec![Token::new(ShardId(1), v)]);
        }
    }
}
