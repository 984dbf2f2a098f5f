//! Server-side batch gate (§6).
//!
//! `libDPR is invoked before and after each request batch is processed`: the
//! *before* hook ([`DprServer::validate`]) checks world-lines and the
//! version lower bound (triggering a commit when a client is ahead, the
//! §3.2 progress rule); the *after* hook ([`DprServer::record_batch`] +
//! [`DprServer::make_reply`]) accumulates dependency edges for the version
//! the batch executed in and builds the reply header.
//!
//! ## Scalability (§6: "implemented scalably")
//!
//! Both hooks run on **every** batch, so their cross-thread footprint caps
//! cluster throughput. Dependency accumulation is therefore striped and
//! lock-free on the write side:
//!
//! * [`DprServer::record_batch`] publishes into one of N cache-padded
//!   *stripes*, selected by a per-thread index, using only atomic
//!   compare-and-swap / `fetch_max` — no locks, no allocation.
//! * Each stripe keeps only the **max version per dependent shard**.
//!   Prefix semantics make this lossless for safety: a cut that admits a
//!   token `(s, v)` admits every `(s, v' ≤ v)`, so the largest dependency
//!   per shard subsumes all smaller ones (and the whole accumulator stays a
//!   few cache lines regardless of batch volume).
//! * The drain side ([`DprServer::pump_commits`], [`DprServer::on_restore`])
//!   is guarded by a [`LightEpoch`]: the drainer bumps the epoch and waits
//!   for in-flight writers to pass, so writers never block on the drain
//!   (they only ever touch their own stripe's atomics).
//! * A drain attaches the merged dependency set to the **lowest** version
//!   being reported. This is conservative but safe: if the cut admits any
//!   higher version of this shard it also admits the lowest one, so the
//!   merged dependencies are always enforced.
//!
//! Queued commit reports leave the drain as **one** grouped
//! [`DprFinder::report_commits`] call — O(1) metadata round trips per pump
//! instead of one per version (the §3.4 metadata-write bottleneck).

use crate::finder::DprFinder;
use crate::header::{BatchHeader, BatchReply};
use crate::state_object::StateObject;
use dpr_core::{Backoff, DprError, LightEpoch, Result, ShardId, Token, Version, WorldLine};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Dependency slots per stripe (open-addressed; distinct dependent shards
/// beyond this spill to the stripe's locked side map).
const STRIPE_SLOTS: usize = 32;

/// Default stripe count (power of two). Executor threads map onto stripes by
/// a per-thread index, so this bounds hot-path sharing, not correctness.
const DEFAULT_STRIPES: usize = 16;

/// Epoch-table capacity: max threads concurrently inside `record_batch`.
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

/// Process-wide executor numbering: each thread that ever records a batch
/// gets a stable small id, used both for stripe selection and as the epoch
/// slot hint so a thread's gate traffic stays on its own cache lines.
static NEXT_GATE_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static GATE_THREAD_ID: usize = NEXT_GATE_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn gate_thread_id() -> usize {
    GATE_THREAD_ID.with(|id| *id)
}

/// One cache-padded dependency accumulator.
///
/// `keys[i]` is `0` (empty) or `shard.0 + 1`; once claimed, a key is never
/// removed, so `vers[i]` is owned by exactly one dependent shard for the
/// stripe's lifetime and plain `fetch_max` / `swap` suffice — a dependency
/// published concurrently with a drain lands either in this drain or the
/// next, never nowhere.
#[repr(align(128))]
struct Stripe {
    keys: [AtomicU64; STRIPE_SLOTS],
    vers: [AtomicU64; STRIPE_SLOTS],
    /// Rare path: more distinct dependent shards than slots.
    overflow: Mutex<BTreeMap<ShardId, Version>>,
    /// Telemetry only: micros-since-server-start (+1; 0 = unset) of the
    /// first batch recorded since the last drain, for commit latency.
    first_exec_us: AtomicU64,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            vers: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: Mutex::new(BTreeMap::new()),
            first_exec_us: AtomicU64::new(0),
        }
    }

    /// Lock-free max-merge of one dependency into this stripe.
    fn note_dep(&self, shard: ShardId, version: Version) {
        let key = u64::from(shard.0) + 1;
        // Cheap multiplicative hash so consecutive shard ids spread out.
        let mut idx = (shard.0 as usize).wrapping_mul(0x9E37_79B1) & (STRIPE_SLOTS - 1);
        for _ in 0..STRIPE_SLOTS {
            match self.keys[idx].load(Ordering::Acquire) {
                k if k == key => {
                    self.vers[idx].fetch_max(version.0, Ordering::AcqRel);
                    return;
                }
                0 => {
                    match self.keys[idx].compare_exchange(
                        0,
                        key,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            self.vers[idx].fetch_max(version.0, Ordering::AcqRel);
                            return;
                        }
                        Err(actual) if actual == key => {
                            // Another thread registered the same shard first.
                            self.vers[idx].fetch_max(version.0, Ordering::AcqRel);
                            return;
                        }
                        Err(_) => { /* claimed for a different shard — probe on */ }
                    }
                }
                _ => {}
            }
            idx = (idx + 1) & (STRIPE_SLOTS - 1);
        }
        // Every slot owned by some other shard: spill (bounded lock, rare).
        crate::metrics::gate_dep_spills().inc();
        let mut of = self.overflow.lock();
        let e = of.entry(shard).or_insert(Version::ZERO);
        *e = (*e).max(version);
    }

    /// Take (and reset) this stripe's accumulated deps, appending raw
    /// `(shard, version)` pairs to `pairs` (the caller max-merges). Caller
    /// must have quiesced in-flight writers via the epoch.
    fn drain_into(&self, pairs: &mut Vec<(ShardId, Version)>) {
        for i in 0..STRIPE_SLOTS {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == 0 {
                continue;
            }
            let v = self.vers[i].swap(0, Ordering::AcqRel);
            if v > 0 {
                pairs.push((ShardId((k - 1) as u32), Version(v)));
            }
        }
        let spilled = std::mem::take(&mut *self.overflow.lock());
        for (shard, v) in spilled {
            pairs.push((shard, v));
        }
    }

    /// Non-destructive read of the accumulated deps (tests/diagnostics).
    fn peek_into(&self, merged: &mut BTreeMap<ShardId, Version>) {
        for i in 0..STRIPE_SLOTS {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == 0 {
                continue;
            }
            let v = self.vers[i].load(Ordering::Acquire);
            if v > 0 {
                let shard = ShardId((k - 1) as u32);
                let e = merged.entry(shard).or_insert(Version::ZERO);
                *e = (*e).max(Version(v));
            }
        }
        for (&shard, &v) in self.overflow.lock().iter() {
            let e = merged.entry(shard).or_insert(Version::ZERO);
            *e = (*e).max(v);
        }
    }
}

/// Reusable drain-side buffers. Living inside the drain mutex, they are
/// reused across pumps, so a steady-state drain allocates only the report
/// vectors handed off to the finder — no per-pump map churn.
#[derive(Default)]
struct DrainScratch {
    /// Raw `(shard, version)` pairs drained from the stripes.
    pairs: Vec<(ShardId, Version)>,
    /// Max-merged dependency tokens built from `pairs`.
    tokens: Vec<Token>,
}

/// Per-shard server-side DPR state.
pub struct DprServer {
    shard: ShardId,
    world_line: AtomicU64,
    /// Striped lock-free dependency accumulator (max version per dependent
    /// shard, per stripe).
    stripes: Box<[Stripe]>,
    /// Protects the drain: writers publish under an epoch guard; drains
    /// bump-and-wait so they observe no mid-flight writer.
    epoch: LightEpoch,
    /// Serializes drains against each other (pump vs. restore) — never
    /// touched by `record_batch` — and holds the drain's reusable scratch.
    drain: Mutex<DrainScratch>,
    /// Timestamp base for the lock-free commit-latency tracking.
    started: Instant,
}

impl DprServer {
    /// Server state for `shard`, starting on the initial world-line.
    #[must_use]
    pub fn new(shard: ShardId) -> Self {
        Self::with_stripes(shard, DEFAULT_STRIPES)
    }

    /// Server state with an explicit stripe count (rounded up to a power of
    /// two; benchmarks and tests).
    #[must_use]
    pub fn with_stripes(shard: ShardId, stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        DprServer {
            shard,
            world_line: AtomicU64::new(WorldLine::INITIAL.0),
            stripes: (0..n).map(|_| Stripe::new()).collect(),
            epoch: LightEpoch::new(MAX_GATE_THREADS),
            drain: Mutex::new(DrainScratch::default()),
            started: Instant::now(),
        }
    }

    /// This shard's id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Number of dependency stripes.
    #[must_use]
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
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

    /// The *after* hook: record the batch's dependency edges against the
    /// version it executed in.
    ///
    /// Lock-free: an epoch guard plus a handful of atomic max-merges into
    /// this thread's stripe. `executed_version` no longer keys the storage —
    /// prefix compression (see the module docs) attaches dependencies to the
    /// lowest version of the next drain, which is always at or below the
    /// executing version.
    pub fn record_batch(&self, header: &BatchHeader, executed_version: Version) {
        let tid = gate_thread_id();
        let _guard = self.epoch.protect_hinted(tid);
        let stripe = &self.stripes[tid & (self.stripes.len() - 1)];
        if dpr_telemetry::enabled() && stripe.first_exec_us.load(Ordering::Relaxed) == 0 {
            let now = self.started.elapsed().as_micros() as u64 + 1;
            let _ =
                stripe
                    .first_exec_us
                    .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed);
        }
        let _ = executed_version;
        for d in &header.deps {
            if d.shard != self.shard && d.version > Version::ZERO {
                stripe.note_dep(d.shard, d.version);
            }
        }
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

    /// Quiesce in-flight writers, then take everything the stripes have
    /// accumulated into the drain scratch: the max-merged dependency
    /// tokens land in `scratch.tokens`, and the earliest first-execution
    /// timestamp (telemetry) is returned. Resets both stripe sides.
    fn quiesce_and_drain(&self, scratch: &mut DrainScratch) -> Option<u64> {
        // Writers protected at the pre-bump epoch may still be publishing
        // into stripes; wait them out. New writers (post-bump) may land
        // concurrently — their deps go to this drain or the next, either is
        // safe. The drainer waits on writers; writers never wait on it.
        self.epoch.quiesce();
        scratch.pairs.clear();
        scratch.tokens.clear();
        let mut earliest: Option<u64> = None;
        for stripe in self.stripes.iter() {
            stripe.drain_into(&mut scratch.pairs);
            let t = stripe.first_exec_us.swap(0, Ordering::AcqRel);
            if t > 0 {
                earliest = Some(earliest.map_or(t, |e| e.min(t)));
            }
        }
        scratch.pairs.sort_unstable_by_key(|&(s, _)| s);
        for &(s, v) in &scratch.pairs {
            match scratch.tokens.last_mut() {
                Some(t) if t.shard == s => t.version = t.version.max(v),
                _ => scratch.tokens.push(Token::new(s, v)),
            }
        }
        scratch.pairs.clear();
        earliest
    }

    /// Drain completed local commits to the finder, attaching accumulated
    /// dependencies. Call periodically (background thread). Returns the
    /// versions reported.
    ///
    /// All queued commits leave as **one** [`DprFinder::report_commits`]
    /// group; the merged dependency set rides on the lowest version (safe —
    /// prefix cuts admitting any reported version admit the lowest, so the
    /// dependencies stay enforced).
    pub fn pump_commits(
        &self,
        so: &dyn StateObject,
        finder: &dyn DprFinder,
    ) -> Result<Vec<Version>> {
        let mut commits = so.take_commits();
        if commits.is_empty() {
            return Ok(Vec::new());
        }
        let mut scratch = self.drain.lock();
        commits.sort_by_key(|d| d.version);
        let first_exec_us = self.quiesce_and_drain(&mut scratch);
        // The finder takes ownership of the deps; hand over the merged
        // tokens and let the scratch vector refill next pump.
        let mut dep_tokens = Some(std::mem::take(&mut scratch.tokens));
        let reports: Vec<(Token, Vec<Token>)> = commits
            .iter()
            .map(|desc| {
                let deps = dep_tokens.take().unwrap_or_default();
                (Token::new(self.shard, desc.version), deps)
            })
            .collect();
        finder.report_commits(reports)?;
        crate::metrics::commit_reports().add(commits.len() as u64);
        if dpr_telemetry::enabled() {
            if let Some(us) = first_exec_us {
                // Every version sealed by this drain has reached its commit
                // point: record how long it trailed its first execution.
                let elapsed = (self.started.elapsed().as_micros() as u64 + 1).saturating_sub(us);
                for _ in &commits {
                    crate::metrics::commit_latency().record(elapsed);
                }
            }
        }
        Ok(commits.into_iter().map(|d| d.version).collect())
    }

    /// Discard accumulated dependency state after a restore.
    ///
    /// Everything still pending belongs to versions above the guaranteed cut
    /// (versions at or below it were reported — and their dependencies
    /// drained — before the cut could include them), so the whole
    /// accumulator is dropped. `v_safe` is kept for interface clarity and
    /// debug assertions at call sites.
    pub fn on_restore(&self, v_safe: Version) {
        let _ = v_safe;
        let mut scratch = self.drain.lock();
        let _ = self.quiesce_and_drain(&mut scratch);
        scratch.tokens.clear();
    }

    /// Snapshot of the accumulated (max-per-shard compressed) dependency
    /// tokens awaiting the next drain — diagnostics and tests; does not
    /// drain.
    #[must_use]
    pub fn pending_deps(&self) -> Vec<Token> {
        let mut merged: BTreeMap<ShardId, Version> = BTreeMap::new();
        for stripe in self.stripes.iter() {
            stripe.peek_into(&mut merged);
        }
        merged.into_iter().map(|(s, v)| Token::new(s, v)).collect()
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
            self.pending_commits.lock().push(CommitDescriptor {
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
            self.pending_commits.lock().push(CommitDescriptor {
                version: Version(v),
            });
            let next = target.map_or(v + 1, |t| t.0.max(v + 1));
            self.current.store(next, Ordering::SeqCst);
            true
        }
        fn take_commits(&self) -> Vec<CommitDescriptor> {
            std::mem::take(&mut *self.pending_commits.lock())
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
        fn report_commit(&self, token: Token, deps: Vec<Token>) -> Result<()> {
            self.reports.lock().push((token, deps));
            Ok(())
        }
        fn refresh(&self) -> Result<()> {
            Ok(())
        }
        fn current_cut(&self) -> Result<dpr_metadata::Cut> {
            Ok(dpr_metadata::Cut::new())
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
        assert_eq!(pending, vec![Token::new(ShardId(2), Version(1))]);
    }

    #[test]
    fn deps_compress_to_max_version_per_shard() {
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
        let pending = server.pending_deps();
        assert_eq!(
            pending,
            vec![
                Token::new(ShardId(1), Version(7)),
                Token::new(ShardId(2), Version(4)),
            ],
            "only the max per dependent shard is kept"
        );
    }

    #[test]
    fn grouped_pump_attaches_deps_to_lowest_version() {
        let server = DprServer::new(ShardId(0));
        let so = MockSo::new(0);
        let finder = CapturingFinder::default();
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(2))]),
            Version(1),
        );
        so.complete_commit();
        so.complete_commit();
        let reported = server.pump_commits(&so, &finder).unwrap();
        assert_eq!(reported, vec![Version(1), Version(2)]);
        let reports = finder.reports.lock();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].0, Token::new(ShardId(0), Version(1)));
        assert_eq!(reports[0].1, vec![Token::new(ShardId(1), Version(2))]);
        assert_eq!(reports[1].0, Token::new(ShardId(0), Version(2)));
        assert!(reports[1].1.is_empty(), "merged deps ride the lowest token");
    }

    #[test]
    fn more_dependent_shards_than_slots_spill_losslessly() {
        // A single stripe forces every dep through one slot array.
        let server = DprServer::with_stripes(ShardId(0), 1);
        let n = (STRIPE_SLOTS * 2) as u32;
        for s in 1..=n {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(s), Version(u64::from(s)))]),
                Version(1),
            );
        }
        let pending = server.pending_deps();
        assert_eq!(pending.len(), n as usize, "no dependency dropped on spill");
        for t in pending {
            assert_eq!(t.version.0, u64::from(t.shard.0));
        }
    }

    #[test]
    fn restore_discards_pending_dependency_state() {
        let server = DprServer::new(ShardId(0));
        for v in 1..=5u64 {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        server.on_restore(Version(2));
        // Anything pending belonged to versions above the guaranteed cut
        // (committed versions drained at report time), so the accumulator
        // empties entirely.
        assert!(server.pending_deps().is_empty());
        // The gate keeps working after the restore.
        server.record_batch(
            &header(0, 0, vec![Token::new(ShardId(1), Version(9))]),
            Version(3),
        );
        assert_eq!(
            server.pending_deps(),
            vec![Token::new(ShardId(1), Version(9))]
        );
    }
}
