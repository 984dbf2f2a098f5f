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
//! ## Scalability (§6: "implemented scalably")
//!
//! Both hooks run on **every** batch, so their cross-thread footprint caps
//! cluster throughput. Dependency accumulation is therefore striped and
//! lock-free on the write side:
//!
//! * A record publishes into one of N cache-padded *stripes*, selected by a
//!   per-thread index, using only atomic compare-and-swap / `fetch_max` — no
//!   locks, no allocation.
//! * Each stripe keeps a small ring of **generations**, one per open
//!   executed version (a shard has the flushing, the executing and the next
//!   version open at once; the ring holds one more). A generation is
//!   claimed by tagging it with the version and freed by the drain that
//!   reports that version, so a version's dependencies are never mixed with
//!   a later version's.
//! * A generation keeps only the **max version per dependent shard**.
//!   Prefix semantics make this lossless for safety: a cut that admits a
//!   token `(s, v)` admits every `(s, v' ≤ v)`, so the largest dependency
//!   per shard subsumes all smaller ones (and a generation stays a few
//!   cache lines regardless of batch volume).
//! * The drain side ([`DprServer::pump_commits`], [`DprServer::on_restore`])
//!   is guarded by a [`LightEpoch`]: the drainer bumps the epoch and waits
//!   for in-flight writers to pass, so writers never block on the drain
//!   (they only ever touch their own stripe's atomics).
//! * A worker holds its [`GateGuard`] from before the batch executes until
//!   its dependencies are recorded. A version's commit descriptor appears
//!   only after every batch executing in it has returned, and the drain
//!   quiesces after taking the descriptors, so no version is reported
//!   between a batch's execution in it and the recording of that batch's
//!   dependencies. A batch whose operations straddle a checkpoint records
//!   at the lowest version it touched: the higher one rests on the lower.
//! * A drain reports every version `v` with the dependencies of the
//!   generations tagged at or below `v` that no earlier report carried, and
//!   nothing else: no reported dependency was recorded at a version above
//!   its token, which keeps the reported graph monotone (§3.2) and lets the
//!   exact finder's closure close at every checkpoint.
//!
//! Queued commit reports leave the drain as **one** grouped
//! [`DprFinder::report_commits`] call — O(1) metadata round trips per pump
//! instead of one per version (the §3.4 metadata-write bottleneck).

use crate::finder::DprFinder;
use crate::header::{BatchHeader, BatchReply};
use crate::state_object::StateObject;
use dpr_core::epoch::EpochGuard;
use dpr_core::{Backoff, DprError, LightEpoch, Result, ShardId, Token, Version, WorldLine};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Dependency slots per stripe (open-addressed; distinct dependent shards
/// beyond this spill to the stripe's locked side map).
const STRIPE_SLOTS: usize = 32;

/// Generations per stripe: the flushing, the executing and the next version,
/// plus one (versions open beyond that spill to the locked side map).
const GENERATIONS: usize = 4;

/// Tag of a generation no version holds.
const FREE: u64 = u64::MAX;

/// Drain bound that takes every generation: the largest tag a version can
/// have.
const EVERY_VERSION: Version = Version(FREE - 1);

/// Default stripe count (power of two). Executor threads map onto stripes by
/// a per-thread index, so this bounds hot-path sharing, not correctness.
const DEFAULT_STRIPES: usize = 16;

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

/// One cache-padded dependency accumulator: a directory of dependent shards
/// and, per *generation* (one open executed version), the max dependency
/// version on each of them.
///
/// `keys[i]` is `0` (empty) or `shard.0 + 1`; once claimed, a key is never
/// removed, so slot `i` of every generation is owned by exactly one
/// dependent shard for the stripe's lifetime.
///
/// `tags[g]` is [`FREE`] or the executed version that claimed generation
/// `g`. Only a drain frees a generation, after quiescing, and only once the
/// version is being reported — when no batch can still execute in it — so
/// between claim and free `vers[g]` belongs to that one version and plain
/// `fetch_max` / `swap` suffice. The tags sit together, ahead of the
/// directory, so finding a batch's generation reads one cache line.
#[repr(C, align(128))]
struct Stripe {
    tags: [AtomicU64; GENERATIONS],
    /// Telemetry only: micros-since-server-start (+1; 0 = unset) of the
    /// first batch recorded in each generation, for commit latency.
    first_exec_us: [AtomicU64; GENERATIONS],
    keys: [AtomicU64; STRIPE_SLOTS],
    vers: [[AtomicU64; STRIPE_SLOTS]; GENERATIONS],
    /// Rare path: more distinct dependent shards than slots, or more open
    /// versions than generations. `(executed version, dependent shard)` to
    /// the max dependency version.
    spill: Mutex<BTreeMap<(Version, ShardId), Version>>,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            tags: std::array::from_fn(|_| AtomicU64::new(FREE)),
            first_exec_us: std::array::from_fn(|_| AtomicU64::new(0)),
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            vers: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            spill: Mutex::new(BTreeMap::new()),
        }
    }

    /// The generation holding `executed`, claiming a free one if none does.
    /// `None`: every generation is held by another open version.
    fn generation_for(&self, executed: Version) -> Option<usize> {
        // Consecutive versions start their probe at consecutive generations,
        // so in steady state the first tag read is the batch's own.
        let ring = || (0..GENERATIONS).map(|i| (executed.0 as usize + i) % GENERATIONS);
        ring()
            .find(|&g| self.tags[g].load(Ordering::Acquire) == executed.0)
            .or_else(|| {
                ring().find(|&g| {
                    match self.tags[g].compare_exchange(
                        FREE,
                        executed.0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => true,
                        // Another thread of this stripe claimed it for the
                        // same version.
                        Err(actual) => actual == executed.0,
                    }
                })
            })
    }

    /// The slot owned by `shard`, claiming an empty one on first sight.
    /// `None`: every slot is owned by some other shard.
    fn slot_for(&self, shard: ShardId) -> Option<usize> {
        let key = u64::from(shard.0) + 1;
        // Cheap multiplicative hash so consecutive shard ids spread out.
        let mut idx = (shard.0 as usize).wrapping_mul(0x9E37_79B1) & (STRIPE_SLOTS - 1);
        for _ in 0..STRIPE_SLOTS {
            match self.keys[idx].load(Ordering::Acquire) {
                k if k == key => return Some(idx),
                0 => match self.keys[idx].compare_exchange(
                    0,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(idx),
                    // Another thread registered the same shard first.
                    Err(actual) if actual == key => return Some(idx),
                    Err(_) => { /* claimed for a different shard — probe on */ }
                },
                _ => {}
            }
            idx = (idx + 1) & (STRIPE_SLOTS - 1);
        }
        None
    }

    /// Max-merge one dependency of a batch executed at `executed`:
    /// lock-free into `generation` when the shard has a slot, else into the
    /// locked spill map (bounded lock, rare).
    fn note_dep(
        &self,
        generation: Option<usize>,
        executed: Version,
        shard: ShardId,
        version: Version,
    ) {
        if let Some(g) = generation {
            if let Some(slot) = self.slot_for(shard) {
                self.vers[g][slot].fetch_max(version.0, Ordering::AcqRel);
                return;
            }
            crate::metrics::gate_dep_spills().inc();
        }
        let mut spill = self.spill.lock();
        let e = spill.entry((executed, shard)).or_insert(Version::ZERO);
        *e = (*e).max(version);
    }

    /// Take (and free) everything recorded at executed versions up to
    /// `upto`, appending raw entries to `out` (the caller max-merges).
    /// Caller must have quiesced in-flight writers via the epoch.
    fn drain_into(&self, upto: Version, out: &mut DrainScratch) {
        for (g, tag) in self.tags.iter().enumerate() {
            let executed = Version(tag.load(Ordering::Acquire));
            if executed.0 == FREE || executed > upto {
                continue;
            }
            for (key, ver) in self.keys.iter().zip(&self.vers[g]) {
                let v = ver.swap(0, Ordering::AcqRel);
                if v > 0 {
                    let shard = ShardId((key.load(Ordering::Acquire) - 1) as u32);
                    out.deps.push((executed, shard, Version(v)));
                }
            }
            let first_exec_us = self.first_exec_us[g].swap(0, Ordering::AcqRel);
            if first_exec_us > 0 {
                out.first_exec_us.push((executed, first_exec_us));
            }
            // Emptied above; the next claimer's acquire sees it so.
            tag.store(FREE, Ordering::Release);
        }
        let mut spill = self.spill.lock();
        if spill.first_key_value().is_some_and(|(k, _)| k.0 <= upto) {
            let kept = spill.split_off(&(upto.next(), ShardId(0)));
            let taken = std::mem::replace(&mut *spill, kept);
            out.deps.extend(
                taken
                    .into_iter()
                    .map(|((executed, shard), v)| (executed, shard, v)),
            );
        }
    }

    /// Non-destructive read of the accumulated deps (tests/diagnostics).
    fn peek_into(&self, merged: &mut BTreeMap<(Version, ShardId), Version>) {
        let mut merge = |executed: Version, shard: ShardId, v: Version| {
            let e = merged.entry((executed, shard)).or_insert(Version::ZERO);
            *e = (*e).max(v);
        };
        for (g, tag) in self.tags.iter().enumerate() {
            let tag = tag.load(Ordering::Acquire);
            if tag == FREE {
                continue;
            }
            for (key, ver) in self.keys.iter().zip(&self.vers[g]) {
                let v = ver.load(Ordering::Acquire);
                if v > 0 {
                    let shard = ShardId((key.load(Ordering::Acquire) - 1) as u32);
                    merge(Version(tag), shard, Version(v));
                }
            }
        }
        for (&(executed, shard), &v) in self.spill.lock().iter() {
            merge(executed, shard, v);
        }
    }
}

/// Reusable drain-side buffers. Living inside the drain mutex, they are
/// reused across pumps, so a steady-state drain allocates only the report
/// vectors handed off to the finder — no per-pump map churn.
#[derive(Default)]
struct DrainScratch {
    /// Raw `(executed version, dependent shard, dependency version)`
    /// entries drained from the stripes; `pump_commits` rewrites the first
    /// field to the reported version the entry rides.
    deps: Vec<(Version, ShardId, Version)>,
    /// Telemetry only: `(executed version, first-execution micros)`, the
    /// first field rewritten likewise.
    first_exec_us: Vec<(Version, u64)>,
}

/// Per-shard server-side DPR state.
pub struct DprServer {
    shard: ShardId,
    world_line: AtomicU64,
    /// Striped lock-free dependency accumulator (per stripe and open
    /// executed version, max version per dependent shard).
    stripes: Box<[Stripe]>,
    /// Protects the drain: writers publish under an epoch guard; drains
    /// bump-and-wait so they observe no mid-flight writer.
    epoch: LightEpoch,
    /// Serializes drains against each other (pump vs. restore) — never
    /// touched by a record — and holds the drain's reusable scratch.
    drain: Mutex<DrainScratch>,
    /// Timestamp base for the lock-free commit-latency tracking.
    started: Instant,
}

/// A thread's pass through the gate: it keeps the drain from reporting the
/// version a batch executes in until that batch's dependencies are
/// recorded. Take it ([`DprServer::enter`]) once the batch is admitted and
/// before it executes; [`GateGuard::record`] ends the pass.
pub struct GateGuard<'a> {
    server: &'a DprServer,
    stripe: &'a Stripe,
    _epoch: EpochGuard<'a>,
}

impl GateGuard<'_> {
    /// The *after* hook: record the batch's dependency edges against the
    /// version it executed in — the lowest, for a batch whose operations
    /// straddle a checkpoint, so that no version holding one of them is
    /// reported without the edges.
    ///
    /// Lock-free and, outside the spill paths, allocation-free: a handful
    /// of atomic max-merges into this thread's stripe, in the generation
    /// tagged `executed_version`.
    pub fn record(self, header: &BatchHeader, executed_version: Version) {
        let generation = self.stripe.generation_for(executed_version);
        match generation {
            Some(g) => {
                let first_exec_us = &self.stripe.first_exec_us[g];
                if dpr_telemetry::enabled() && first_exec_us.load(Ordering::Relaxed) == 0 {
                    let now = self.server.started.elapsed().as_micros() as u64 + 1;
                    let _ =
                        first_exec_us.compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed);
                }
            }
            None => crate::metrics::gate_generation_spills().inc(),
        }
        for d in &header.deps {
            if d.shard != self.server.shard && d.version > Version::ZERO {
                self.stripe
                    .note_dep(generation, executed_version, d.shard, d.version);
            }
        }
    }
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

    /// Enter the gate for one batch (see [`GateGuard`]): call after
    /// [`DprServer::validate`] admits the batch and before it executes, and
    /// do not wait on the commit pipeline while holding the guard — the
    /// drain waits for it.
    #[must_use]
    pub fn enter(&self) -> GateGuard<'_> {
        let tid = gate_thread_id();
        GateGuard {
            server: self,
            stripe: &self.stripes[tid & (self.stripes.len() - 1)],
            _epoch: self.epoch.protect_hinted(tid),
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
    /// versions up to `upto` into the drain scratch, freeing those
    /// generations.
    fn quiesce_and_drain(&self, upto: Version, scratch: &mut DrainScratch) {
        // Writers protected at the pre-bump epoch may still be publishing
        // into stripes; wait them out. Writers entering after the bump
        // execute in versions the caller is not draining (see the module
        // docs) and touch other generations. The drainer waits on writers;
        // writers never wait on it.
        self.epoch.quiesce();
        scratch.deps.clear();
        scratch.first_exec_us.clear();
        for stripe in self.stripes.iter() {
            stripe.drain_into(upto, scratch);
        }
    }

    /// Drain completed local commits to the finder, each with the
    /// dependencies recorded at its own version. Call periodically
    /// (background thread). Returns the versions reported.
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
        let mut commits = so.take_commits();
        if commits.is_empty() {
            return Ok(Vec::new());
        }
        let mut scratch = self.drain.lock();
        commits.sort_by_key(|d| d.version);
        let upto = commits[commits.len() - 1].version;
        self.quiesce_and_drain(upto, &mut scratch);
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
            let now = self.started.elapsed().as_micros() as u64 + 1;
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
    /// (versions at or below it were reported — and their generations
    /// drained — before the cut could include them), so every generation is
    /// dropped.
    pub fn on_restore(&self) {
        let mut scratch = self.drain.lock();
        self.quiesce_and_drain(EVERY_VERSION, &mut scratch);
    }

    /// Snapshot of the accumulated (max-per-shard compressed) dependency
    /// tokens per open executed version, lowest version first —
    /// diagnostics and tests; does not drain.
    #[must_use]
    pub fn pending_deps(&self) -> Vec<(Version, Vec<Token>)> {
        let mut merged: BTreeMap<(Version, ShardId), Version> = BTreeMap::new();
        for stripe in self.stripes.iter() {
            stripe.peek_into(&mut merged);
        }
        let mut out: Vec<(Version, Vec<Token>)> = Vec::new();
        for ((executed, shard), v) in merged {
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
        fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
            self.reports.lock().extend(reports);
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
            *finder.reports.lock(),
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
        let reports = finder.reports.lock();
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
        let reports = finder.reports.lock();
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
    fn more_open_versions_than_generations_spill_losslessly() {
        // A single stripe, five versions open at once: the fifth finds the
        // ring full and goes through the locked map.
        let server = DprServer::with_stripes(ShardId(0), 1);
        let so = MockSo::new(0);
        let finder = CapturingFinder::default();
        let open = GENERATIONS as u64 + 1;
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
        let reports = finder.reports.lock().clone();
        assert_eq!(reports.len(), open as usize);
        for (i, (token, deps)) in reports.iter().enumerate() {
            let v = Version(i as u64 + 1);
            assert_eq!(*token, Token::new(ShardId(0), v));
            assert_eq!(*deps, vec![Token::new(ShardId(1), v)]);
        }
        // The ring wraps: freed generations serve the next versions.
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
        assert_eq!(pending.len(), 1);
        let (executed, deps) = &pending[0];
        assert_eq!(*executed, Version(1));
        assert_eq!(deps.len(), n as usize, "no dependency dropped on spill");
        for t in deps {
            assert_eq!(t.version.0, u64::from(t.shard.0));
        }
    }

    #[test]
    fn restore_clears_every_generation() {
        // Five open versions: four generations and the spill map.
        let server = DprServer::with_stripes(ShardId(0), 1);
        for v in 1..=5u64 {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        server.on_restore();
        // Anything pending belonged to versions above the guaranteed cut
        // (committed versions drained at report time), so the accumulator
        // empties entirely.
        assert!(server.pending_deps().is_empty());
        // The gate keeps working after the restore, with the whole ring
        // free again.
        for v in 6..=9u64 {
            server.record_batch(
                &header(0, 0, vec![Token::new(ShardId(1), Version(v))]),
                Version(v),
            );
        }
        let pending = server.pending_deps();
        assert_eq!(pending.len(), GENERATIONS);
        for (v, deps) in pending {
            assert_eq!(deps, vec![Token::new(ShardId(1), v)]);
        }
    }
}
