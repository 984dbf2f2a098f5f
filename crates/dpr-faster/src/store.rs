//! The FASTER-style key-value store with CPR checkpoints and non-blocking
//! rollback.
//!
//! Threads (sessions) coordinate loosely through the global
//! [`SystemState`]: each op refreshes the session's observed state, and the
//! checkpoint / rollback machines advance when every session has observed
//! the current phase. Idle sessions are advanced *on their behalf* (their
//! per-session lock is taken by the advancer), so a dormant session never
//! blocks a commit — the store-level half of relaxed CPR (§5.4).
//!
//! Hot-path operations resolve records as borrowed [`RecordView`]s inside
//! the log's page arena under an epoch guard — no per-record heap
//! allocation and no lock on the read or append path (see [`crate::log`]).

use crate::checkpoint::{CheckpointManifest, CommitPoint};
use crate::index::HashIndex;
use crate::log::{EvictionTotals, GetOutcome, RecordLog, MAX_RECORD_LEN, PAGE_SIZE};
use crate::record::{record_footprint, RecordMeta, RecordView, MAX_VERSION, NONE_ADDRESS};
use crate::session::{
    CompletedOp, Op, OpOutcome, PendingKind, PendingOp, PendingToken, RmwFn, Session, SessionCore,
    SessionShared,
};
use crate::state::{GlobalState, Phase, SystemState};
use dpr_core::epoch::EpochGuard;
use dpr_core::{DprError, Key, Result, SessionId, Value, Version};
use dpr_storage::{BlobStore, LogDevice};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::Duration;

const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// Versions a store that runs no copy-forward pass checkpoints before
/// [`FasterKv::collect_due_garbage`] asks for the cut to prune its manifests
/// with: a bound on the manifests such a store keeps. A store that runs
/// passes prunes them whenever a pass is freed.
const UNPRUNED_VERSIONS: u64 = 64;

/// The smallest record of the paper's workloads (8-byte key and value): what
/// bounds the number of records in a log of a given length, and the bytes the
/// record-denominated knobs (`memory_budget_records`,
/// `unflushed_limit_records`) stand for on the byte-denominated arena log.
const PAPER_RECORD_BYTES: u64 = record_footprint(8, 8) as u64;

/// Copies a pass appends under one epoch guard and one take of the copy
/// gate, which every transition of the checkpoint machine waits for: 1 KiB
/// of records of the paper's size.
const COPY_BATCH: usize = 32;

/// Operations a batch runs under one epoch guard before it refreshes it
/// (`FasterKv::op_batch`): what eviction and a copy-forward pass, which wait
/// for every guard, wait for at most, besides an operation's own I/O.
const GUARD_REFRESH_OPS: usize = 64;

/// Whether `v` lies in one of the rolled-back ranges `(lo, hi]` of `purged`.
fn is_purged(purged: &[(Version, Version)], v: Version) -> bool {
    purged.iter().any(|&(lo, hi)| v > lo && v <= hi)
}

/// [`FasterKv::is_dead`] with the rolled-back version ranges given: a copy
/// of them that a pass takes once, not a lock per record.
fn is_dead_given(purged: &[(Version, Version)], m: &RecordMeta) -> bool {
    m.invalid || is_purged(purged, m.version)
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct FasterConfig {
    /// Records of the paper's size (8-byte key and value: 32 bytes) kept
    /// resident before eviction to the device begins: a budget of 250,000
    /// keeps 8 MB of log resident, fewer records if they are larger, and
    /// two pages at least. The hash index takes its number of chains from
    /// it, two per record ([`HashIndex::identities_for`]).
    pub memory_budget_records: usize,
    /// Strict CPR (§5.4): operations that would go PENDING resolve
    /// synchronously instead, so the prefix guarantee has no exception
    /// lists. Default is relaxed, as in FASTER.
    pub strict_cpr: bool,
    /// Bound on unflushed records (HybridLog's volatile region), at the
    /// paper's record size like the memory budget, and held to at most that
    /// budget: eviction stops at the durable frontier, so a larger volatile
    /// region would keep more than the budget resident. When set,
    /// maintenance rolls the read-only boundary and flushes continuously,
    /// and appends beyond the bound stall until the device catches up —
    /// making device speed throughput-relevant, as in real
    /// FASTER. `None` = unbounded (no backpressure; the whole log above the
    /// last checkpoint is mutable).
    pub unflushed_limit_records: Option<u64>,
    /// Simulated latency of one device read (records below the head).
    /// Strict CPR pays it per operation; relaxed CPR pays it once per
    /// `complete_pending` batch, modeling FASTER's concurrent I/O issue.
    /// `None` = instantaneous reads.
    pub simulated_read_latency: Option<Duration>,
}

/// Threads of the recovery index rebuild. The durable scan is partitioned by
/// page range (pages are self-contained parse units) and each thread races
/// its records into the index with a last-writer-wins-by-address publish, so
/// any thread count produces the same index as the sequential scan.
const REBUILD_THREADS: u64 = 4;

impl Default for FasterConfig {
    fn default() -> Self {
        FasterConfig {
            memory_budget_records: 1 << 22,
            strict_cpr: false,
            unflushed_limit_records: None,
            simulated_read_latency: None,
        }
    }
}

/// A completed checkpoint, surfaced to the DPR layer.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// The version this checkpoint committed.
    pub version: Version,
    /// One past the last record address captured.
    pub until_address: u64,
    /// Per-session commit points at the version boundary.
    pub commit_points: BTreeMap<SessionId, CommitPoint>,
}

#[derive(Debug)]
enum Request {
    Checkpoint { target: Option<Version> },
    Rollback { v_safe: Version },
}

#[derive(Debug, Clone, Copy)]
enum MachineKind {
    /// Committing `commit_version`; ops move to `target`.
    Checkpoint {
        commit_version: Version,
        target: Version,
    },
    /// Discarding `(v_safe, v_lost]`; ops move to `v_lost + 1`.
    Rollback { v_safe: Version, v_lost: Version },
}

struct MachineCtx {
    kind: MachineKind,
    /// Fold-over capture boundary, set at the `InProgress → WaitFlush`
    /// transition.
    until_address: Option<u64>,
    /// Telemetry only (None while disabled): when the machine left Rest.
    started_at: Option<std::time::Instant>,
    /// Telemetry only: when the current phase was entered.
    phase_entered: Option<std::time::Instant>,
}

impl MachineCtx {
    fn now() -> Option<std::time::Instant> {
        dpr_telemetry::enabled().then(std::time::Instant::now)
    }

    /// Record the time spent in the phase being left and restart the
    /// phase clock.
    fn lap(&mut self, phase_histogram: &'static dpr_telemetry::Histogram) {
        if let Some(entered) = self.phase_entered.take() {
            phase_histogram.record_micros(entered.elapsed());
        }
        self.phase_entered = Self::now();
    }
}

/// A copy-forward pass that has run and whose prefix is not freed yet.
struct Pass {
    /// The pass emptied `[begin, until)`: every record there is dead, a
    /// tombstone, or has a copy above `until`.
    until: u64,
    /// The version current when the pass ended. No copy is of a later one,
    /// and neither is any record the pass took for the newer one of a key.
    version: Version,
    /// Footprints of the records it copied.
    copied: u64,
    /// Rollbacks the store had seen when the pass began. One more and the
    /// pass is void: a record it skipped as superseded may be live again.
    rollbacks: usize,
}

/// A live record of the prefix a pass is emptying, taken out of its page to
/// be appended again.
struct LiveRecord {
    /// Where the original lies.
    at: u64,
    /// The original's version: a rollback of it since kills the copy.
    version: Version,
    /// The chain head its liveness walk started from.
    head: u64,
    key: Key,
    value: Value,
}

/// What a store's copy-forward passes have done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionTotals {
    /// Passes run.
    pub passes: u64,
    /// Footprints of the records the passes copied to the tail.
    pub copied_bytes: u64,
    /// Log bytes freed below `begin` once the cut covered a pass.
    pub freed_bytes: u64,
}

#[derive(Default)]
struct Compaction {
    pending: Option<Pass>,
    totals: CompactionTotals,
    /// What truncations have taken off `dead_bytes`: with it, every byte
    /// the store has counted dead, a count that only grows.
    discounted: u64,
    /// That count when the last pass began. A pass frees as much garbage
    /// as was counted since, at most.
    counted_at_pass: u64,
    /// The version of the manifest the last collection at a cut kept.
    kept: Version,
}

/// Version-boundary capture state, consulted by sessions as they cross.
enum BoundaryKind {
    Checkpoint,
    Rollback,
}

struct Boundary {
    kind: BoundaryKind,
    points: BTreeMap<SessionId, CommitPoint>,
}

/// The store. Construct with [`FasterKv::new`] or [`FasterKv::recover`];
/// interact through [`Session`]s.
///
/// ```
/// use dpr_core::{Key, SessionId, Value, Version};
/// use dpr_faster::{FasterConfig, FasterKv};
/// use dpr_storage::{MemBlobStore, MemLogDevice};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let kv = FasterKv::new(
///     FasterConfig::default(),
///     Arc::new(MemLogDevice::null()),
///     Arc::new(MemBlobStore::new()),
/// );
/// let session = kv.start_session(SessionId(1));
/// session.upsert(Key::from_u64(1), Value::from_u64(42)).unwrap();
/// // Commit() — a non-blocking fold-over checkpoint:
/// kv.request_checkpoint(None);
/// assert!(kv.wait_for_durable(Version(1), Duration::from_secs(5)));
/// ```
pub struct FasterKv {
    config: FasterConfig,
    index: HashIndex,
    log: RecordLog,
    blobs: Arc<dyn BlobStore>,
    global: GlobalState,
    machine: Mutex<Option<MachineCtx>>,
    boundary: Mutex<Option<Boundary>>,
    requests: Mutex<VecDeque<Request>>,
    sessions: RwLock<HashMap<SessionId, Arc<SessionShared>>>,
    purged: RwLock<Vec<(Version, Version)>>,
    completed: Mutex<Vec<CheckpointInfo>>,
    durable_version: AtomicU64,
    recovered_manifest: Option<CheckpointManifest>,
    /// Final commit points of sessions that have ended: carried into every
    /// later manifest so a client can learn its surviving prefix even after
    /// its server-side session closed.
    departed: Mutex<BTreeMap<SessionId, CommitPoint>>,
    /// Chaos fault point: while `Some(deadline)` is in the future, the
    /// checkpoint machine parks in `WaitFlush` as if the flush device
    /// hung (see [`FasterKv::stall_checkpoints_for`]).
    checkpoint_stall: Mutex<Option<std::time::Instant>>,
    /// What this store has last added to the process-wide log gauges: tail,
    /// resident, durable, begin and dead bytes (see
    /// [`FasterKv::report_log_bytes`]).
    log_reported: [AtomicU64; 5],
    /// Footprints of the records above `begin` that the store has seen
    /// superseded: by an append, a read-copy-update or a delete that found
    /// the older record of its key. A statistic, and a lower bound: a blind
    /// write to a key whose chain has left memory counts nothing. A quarter
    /// of `tail - begin` starts a copy-forward pass (half, where the log's
    /// beginning has left memory).
    dead_bytes: DeadBytes,
    /// Held by the copy-forward pass from the moment it reads the current
    /// version until its copy of that version is appended and published:
    /// what a session's own lock is to its appends. The checkpoint machine
    /// takes it before every transition, so a copy lies below the seal of
    /// its version like any other record.
    copy_gate: Mutex<()>,
    /// Serializes [`FasterKv::collect_garbage`].
    compaction: Mutex<Compaction>,
}

/// Written by every append that supersedes a record, so kept off the cache
/// lines of the fields every operation reads.
#[repr(align(128))]
#[derive(Default)]
struct DeadBytes(AtomicU64);

/// Where a walk of a key's chain starts and where it may stop.
#[derive(Clone, Copy)]
struct Chain {
    /// The chain head; a record of the walk's key is published over it.
    head: u64,
    /// Where the log began before `head` was read. Every record live then
    /// lies at or above it, so a link that leads below it ends the walk.
    floor: u64,
}

enum Find {
    Found { value: Option<Value> },
    OnDisk(LeftMemory),
}

/// Where a chain walk left memory: the chain it is on and the first address
/// below the resident region.
struct LeftMemory {
    chain: Chain,
    addr: u64,
}

/// How a chain walk below memory ended.
enum Cold {
    /// At the newest live record of the key: its footprint and its value
    /// (`None`: a tombstone).
    Found(usize, Option<Value>),
    /// At the end of the chain: the key has no record.
    Miss,
    /// In a prefix freed since the walk began. What was live there has a
    /// copy above, which a walk from the present chain head meets.
    Freed,
}

impl FasterKv {
    /// Create an empty store.
    pub fn new(
        config: FasterConfig,
        device: Arc<dyn LogDevice>,
        blobs: Arc<dyn BlobStore>,
    ) -> Arc<FasterKv> {
        let identities = HashIndex::identities_for(config.memory_budget_records);
        Self::with_identities(config, device, blobs, identities)
    }

    /// [`FasterKv::new`] with the number of hash chains given instead of
    /// derived from the memory budget: tests use a handful, so that keys
    /// share chains and walks pass records of other keys.
    pub(crate) fn with_identities(
        config: FasterConfig,
        device: Arc<dyn LogDevice>,
        blobs: Arc<dyn BlobStore>,
        identities: u64,
    ) -> Arc<FasterKv> {
        let log = RecordLog::new(
            device,
            (config.memory_budget_records as u64).saturating_mul(PAPER_RECORD_BYTES),
        );
        let kv = Arc::new(FasterKv {
            index: HashIndex::new(Arc::clone(log.epoch()), identities),
            log,
            blobs,
            global: GlobalState::new(),
            machine: Mutex::new(None),
            boundary: Mutex::new(None),
            requests: Mutex::new(VecDeque::new()),
            sessions: RwLock::new(HashMap::new()),
            purged: RwLock::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
            durable_version: AtomicU64::new(0),
            recovered_manifest: None,
            departed: Mutex::new(BTreeMap::new()),
            checkpoint_stall: Mutex::new(None),
            log_reported: Default::default(),
            dead_bytes: DeadBytes::default(),
            copy_gate: Mutex::new(()),
            compaction: Mutex::new(Compaction::default()),
            config,
        });
        kv.bound_unflushed();
        kv
    }

    /// Recover a store from its durable log and the latest checkpoint
    /// manifest at or below `at_most` (the shard's entry in the DPR cut).
    /// What lies above that version is rolled back as the Purge phase of an
    /// in-memory rollback does it: the manifests above it are deleted, and
    /// versions continue above every one the old incarnation left (highest
    /// manifest deleted, highest record version skipped), a range purged so
    /// that no later recovery adopts or scans in what this one discarded.
    pub fn recover(
        config: FasterConfig,
        device: Arc<dyn LogDevice>,
        blobs: Arc<dyn BlobStore>,
        at_most: Option<Version>,
    ) -> Result<Arc<FasterKv>> {
        Self::recover_with(config, device, blobs, at_most, REBUILD_THREADS)
    }

    /// [`FasterKv::recover`] with the index rebuilt by `rebuild_threads`.
    pub(crate) fn recover_with(
        config: FasterConfig,
        device: Arc<dyn LogDevice>,
        blobs: Arc<dyn BlobStore>,
        at_most: Option<Version>,
        rebuild_threads: u64,
    ) -> Result<Arc<FasterKv>> {
        let manifest = CheckpointManifest::latest(blobs.as_ref(), at_most)?;
        let (version, until, mut purged) = match &manifest {
            Some(m) if m.version >= MAX_VERSION => {
                return Err(DprError::Storage(format!(
                    "manifest of {}: no record header holds that version",
                    m.version
                )))
            }
            Some(m) => (m.version, m.until_address, m.purged.clone()),
            None => (Version::ZERO, 0, Vec::new()),
        };
        let budget_bytes = (config.memory_budget_records as u64).saturating_mul(PAPER_RECORD_BYTES);
        let identities = HashIndex::identities_for(config.memory_budget_records);
        // Records recovery must not resurrect: rolled back, or in flight but
        // uncommitted at the crash.
        let skipped = AtomicU64::new(0);
        let dead = |_addr: u64, m: &RecordMeta| {
            if m.version > version {
                skipped.fetch_max(m.version.0, Ordering::Relaxed);
            }
            m.invalid || m.version > version || is_purged(&purged, m.version)
        };
        // The durable log prefix IS the state, `prev` links included. They
        // connect the chains of the identity count in the manifest; a larger
        // count only splits those chains, so a walk still passes every record
        // of its own, while a smaller one would merge chains that no link
        // joins. Hence never fewer than the manifest says.
        let (chained, spans) = manifest
            .as_ref()
            .map_or((0, &[][..]), |m| (m.index_buckets, &m.segments));
        let log = RecordLog::recover(device, budget_bytes, until, spans)?;
        let index = HashIndex::new(Arc::clone(log.epoch()), identities.max(chained));
        Self::rebuild_index(rebuild_threads, &index, &log, &dead)?;
        let deleted = CheckpointManifest::delete_above(blobs.as_ref(), version)?;
        let lost = deleted.max(Version(skipped.into_inner()));
        if lost > version {
            purged.push((version, lost));
        }
        let global = GlobalState::new();
        global.store(SystemState {
            phase: Phase::Rest,
            version: lost.max(version).next().max(Version::FIRST),
        });
        let kv = Arc::new(FasterKv {
            index,
            log,
            blobs,
            global,
            machine: Mutex::new(None),
            boundary: Mutex::new(None),
            requests: Mutex::new(VecDeque::new()),
            sessions: RwLock::new(HashMap::new()),
            purged: RwLock::new(purged),
            completed: Mutex::new(Vec::new()),
            durable_version: AtomicU64::new(version.0),
            departed: Mutex::new(
                manifest
                    .as_ref()
                    .map(|m| m.commit_points.clone())
                    .unwrap_or_default(),
            ),
            recovered_manifest: manifest,
            checkpoint_stall: Mutex::new(None),
            log_reported: Default::default(),
            dead_bytes: DeadBytes::default(),
            copy_gate: Mutex::new(()),
            compaction: Mutex::new(Compaction::default()),
            config,
        });
        kv.bound_unflushed();
        Ok(kv)
    }

    /// Rebuild the hash index from the recovered log in parallel.
    ///
    /// The scan of `[begin, until)` is partitioned by page range across
    /// `threads` threads — records never straddle pages, so every partition
    /// starts at a parse boundary (`begin` is one) and scans independently.
    /// Each thread publishes its records with [`HashIndex::publish_max`]
    /// (last-writer-wins by address), which commutes across threads and
    /// therefore yields exactly the heads a sequential scan-and-publish
    /// would produce, however the table grows meanwhile. `prev` pointers
    /// need no relinking: they were serialized with the records.
    fn rebuild_index(
        threads: u64,
        index: &HashIndex,
        log: &RecordLog,
        dead: &(dyn Fn(u64, &RecordMeta) -> bool + Sync),
    ) -> Result<()> {
        let (begin, until) = (log.begin(), log.tail());
        if until == begin {
            return Ok(());
        }
        // Sized once, for a log of distinct keys; one of many versions per
        // key gets more slots than it needs, within the index's bound.
        index.reserve(&log.protect(), (until - begin) / PAPER_RECORD_BYTES);
        let first_page = begin / PAGE_BYTES;
        let pages = until.div_ceil(PAGE_BYTES) - first_page;
        let threads = threads.clamp(1, pages);
        let pages_per = pages.div_ceil(threads);
        std::thread::scope(|s| -> Result<()> {
            let mut handles = Vec::new();
            for t in 0..threads {
                let page = |n: u64| ((first_page + n * pages_per) * PAGE_BYTES).min(until);
                let (from, to) = (page(t).max(begin), page(t + 1));
                if from >= to {
                    continue;
                }
                handles.push(s.spawn(move || {
                    // One guard for the whole range: nothing waits on this
                    // epoch during recovery.
                    let guard = log.protect();
                    log.scan_range(from, to, &mut |rec| {
                        if !dead(rec.address(), &rec.meta()) {
                            index.publish_max(&guard, rec.key(), rec.address());
                        }
                        Ok(())
                    })
                }));
            }
            for h in handles {
                h.join()
                    .map_err(|_| DprError::Storage("recovery rebuild thread panicked".into()))??;
            }
            Ok(())
        })
    }

    /// Bound the unflushed log, to the memory budget at most.
    fn bound_unflushed(&self) {
        if let Some(limit) = self.config.unflushed_limit_records {
            self.log
                .set_unflushed_limit(limit.saturating_mul(PAPER_RECORD_BYTES));
        }
    }

    /// Does nothing: a store runs no thread of its own, and its owner stops
    /// maintaining it by no longer calling [`FasterKv::maintain`].
    pub fn shutdown(&self) {}

    // ---------------------------------------------------------------- sessions

    /// Open a session with the given globally unique id.
    pub fn start_session(self: &Arc<Self>, id: SessionId) -> Session {
        let shared = Arc::new(SessionShared::new(id, self.global.load()));
        self.sessions.write().unwrap().insert(id, shared.clone());
        Session {
            store: self.clone(),
            shared,
        }
    }

    pub(crate) fn drop_session(&self, shared: &Arc<SessionShared>) {
        {
            let mut core = shared.core.lock().unwrap();
            let global = self.global.load();
            if core.observed != global {
                self.apply_crossing(shared.id, &mut core, global);
                core.observed = global;
            }
            // Ops still outstanding at departure never complete; keep the
            // gauge honest.
            crate::metrics::pending_ops().sub(core.outstanding.len() as i64);
            // Record the session's final prefix so later checkpoints keep
            // reporting it (a departed session's ops are all in versions at
            // or below its departure version).
            self.departed.lock().unwrap().insert(
                shared.id,
                CommitPoint {
                    serial: core.next_serial,
                    exceptions: core.outstanding.keys().copied().collect(),
                },
            );
        }
        self.sessions.write().unwrap().remove(&shared.id);
    }

    pub(crate) fn session_refresh(&self, shared: &Arc<SessionShared>) {
        let mut core = shared.core.lock().unwrap();
        self.refresh_locked(shared.id, &mut core);
        drop(core);
        self.try_advance(false);
    }

    fn refresh_locked(&self, id: SessionId, core: &mut SessionCore) {
        let global = self.global.load();
        if core.observed != global {
            self.apply_crossing(id, core, global);
            core.observed = global;
        }
    }

    /// Apply version-boundary side effects as a session's observed state
    /// moves to `new`.
    fn apply_crossing(&self, id: SessionId, core: &mut SessionCore, new: SystemState) {
        if new.version <= core.observed.version {
            return;
        }
        let mut boundary = self.boundary.lock().unwrap();
        if let Some(b) = boundary.as_mut() {
            match b.kind {
                BoundaryKind::Checkpoint => {
                    b.points.entry(id).or_insert_with(|| CommitPoint {
                        serial: core.next_serial,
                        exceptions: core.outstanding.keys().copied().collect(),
                    });
                }
                BoundaryKind::Rollback => {
                    // PENDING ops issued before the failure are lost.
                    let lost: Vec<u64> = core.outstanding.keys().copied().collect();
                    crate::metrics::pending_ops().sub(lost.len() as i64);
                    core.outstanding.clear();
                    core.lost.extend(lost);
                }
            }
        }
    }

    /// True when every registered session has observed `target`, advancing
    /// idle sessions on their behalf.
    fn all_sessions_at(&self, target: SystemState) -> bool {
        // A copy in flight is of the version it read under the gate.
        match self.copy_gate.try_lock() {
            Err(TryLockError::WouldBlock) => return false,
            held => drop(held.unwrap()),
        }
        let sessions: Vec<Arc<SessionShared>> =
            self.sessions.read().unwrap().values().cloned().collect();
        for s in sessions {
            let mut core = match s.core.try_lock() {
                Err(TryLockError::WouldBlock) => return false,
                held => held.unwrap(),
            };
            if core.observed != target {
                self.apply_crossing(s.id, &mut core, target);
                core.observed = target;
            }
        }
        true
    }

    // ---------------------------------------------------------------- ops

    /// Whether a record must be skipped by every read: marked invalid in
    /// place, or of a version rolled back — by a rollback, or by the
    /// recovery that discarded the versions above the one it adopted.
    fn is_dead(&self, m: &RecordMeta) -> bool {
        is_dead_given(&self.purged.read().unwrap(), m)
    }

    /// Where a walk for `key` under `guard` starts and may stop. The floor
    /// is read first: a prefix freed after that had its live records copied
    /// above it before the head was read, or the walk finds it gone and
    /// starts again ([`Cold::Freed`]).
    fn chain(&self, guard: &EpochGuard<'_>, key: &Key) -> Chain {
        let floor = self.log.begin();
        Chain {
            head: self.index.head(guard, key),
            floor,
        }
    }

    /// Walk the in-memory part of `chain` for `key` under `guard`, the one
    /// the chain was read under: the newest live resident record as a
    /// borrowed view (`Ok(Some)`), a miss (`Ok(None)`), or the address where
    /// the chain left memory (`Err(addr)`).
    fn find_resident_view<'g>(
        &'g self,
        guard: &'g EpochGuard<'_>,
        key: &Key,
        chain: Chain,
    ) -> Result<std::result::Result<Option<RecordView<'g>>, u64>> {
        let mut addr = chain.head;
        let mut hops = 0u64;
        let out = loop {
            if addr == NONE_ADDRESS || addr < chain.floor {
                break Ok(None);
            }
            match self.log.get_ready(guard, addr)? {
                GetOutcome::Resident(view) => {
                    hops += 1;
                    if view.key_matches(key) {
                        let m = view.meta();
                        if self.is_dead(&m) {
                            addr = view.prev();
                            continue;
                        }
                        break Ok(Some(view));
                    }
                    addr = view.prev();
                }
                GetOutcome::OnDisk => break Err(addr),
                // `get_ready` spins until the record is published.
                GetOutcome::NotReady => unreachable!("get_ready resolved NotReady"),
            }
        };
        if dpr_telemetry::enabled() {
            crate::metrics::index_chain_len().record(hops);
        }
        Ok(out)
    }

    /// Walk the in-memory chain for `key` under `guard` and resolve it to a
    /// value (or a disk handoff address). Tombstones read as `None`.
    fn find_resident(&self, guard: &EpochGuard<'_>, key: &Key) -> Result<Find> {
        let chain = self.chain(guard, key);
        Ok(match self.find_resident_view(guard, key, chain)? {
            Ok(None) => Find::Found { value: None },
            Ok(Some(view)) => Find::Found {
                value: if view.meta().tombstone {
                    None
                } else {
                    Some(view.read_value())
                },
            },
            Err(addr) => Find::OnDisk(LeftMemory { chain, addr }),
        })
    }

    /// The value of `key`, through memory and the device.
    fn find(&self, guard: &EpochGuard<'_>, key: &Key) -> Result<Option<Value>> {
        loop {
            match self.find_resident(guard, key)? {
                Find::Found { value } => return Ok(value),
                Find::OnDisk(left) => match self.find_from_disk(guard, key, &left)? {
                    Cold::Found(_, value) => return Ok(value),
                    Cold::Miss => return Ok(None),
                    Cold::Freed => {}
                },
            }
        }
    }

    /// Continue a chain walk below the in-memory region by reading records
    /// from the device. `guard` is refreshed before each device read: the
    /// caller uses no view it took under `guard` after the call.
    fn find_from_disk(&self, guard: &EpochGuard<'_>, key: &Key, left: &LeftMemory) -> Result<Cold> {
        let mut addr = left.addr;
        loop {
            if addr == NONE_ADDRESS || addr < left.chain.floor {
                return Ok(Cold::Miss);
            }
            if addr >= self.log.head() {
                // The walk climbed back into memory (possible when eviction
                // raced the handoff); resolve this hop as a resident view.
                match self.log.get_ready(guard, addr)? {
                    GetOutcome::Resident(view) => {
                        if view.key_matches(key) {
                            let m = view.meta();
                            if !self.is_dead(&m) {
                                let value = (!m.tombstone).then(|| view.read_value());
                                return Ok(Cold::Found(view.footprint(), value));
                            }
                        }
                        addr = view.prev();
                        continue;
                    }
                    GetOutcome::OnDisk => {}
                    GetOutcome::NotReady => unreachable!("get_ready resolved NotReady"),
                }
            }
            // A device read may block: the caller's guard is refreshed
            // first, so that eviction and a pass waiting for it go ahead.
            guard.refresh();
            let rec = match self.log.read_from_device(addr) {
                Ok(rec) => rec,
                Err(_) if addr < self.log.begin() => return Ok(Cold::Freed),
                Err(e) => return Err(e),
            };
            if rec.key() == key {
                let m = rec.meta();
                if !self.is_dead(&m) {
                    let value = (!m.tombstone).then(|| rec.read_value());
                    return Ok(Cold::Found(rec.footprint(), value));
                }
            }
            addr = rec.prev();
        }
    }

    /// Reject records whose arena footprint exceeds a page before the log
    /// would panic on them.
    fn check_record_size(key: &Key, value: &Value) -> Result<()> {
        let fp = record_footprint(key.len(), value.len());
        if fp > MAX_RECORD_LEN {
            return Err(DprError::Invalid(format!(
                "record footprint {fp} exceeds the {MAX_RECORD_LEN}-byte page limit"
            )));
        }
        Ok(())
    }

    /// Count `bytes` of a record that a newer one of its key now hides.
    fn count_dead(&self, bytes: usize) {
        if bytes > 0 {
            self.dead_bytes.0.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Append a record and publish it at the head of `key`'s chain, again
    /// over the new head each time the CAS loses, under the caller's `guard`
    /// and starting from `expected`, the chain head the caller read under
    /// it: an operation takes one guard and probes the index once. The
    /// caller has validated the record size. Returns the published address.
    fn append_and_publish(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        value: &Value,
        version: Version,
        tombstone: bool,
        mut expected: u64,
    ) -> u64 {
        loop {
            let addr = self
                .log
                .append(guard, key, value, version, tombstone, expected);
            match self.index.try_publish(guard, key, expected, addr) {
                Ok(()) => return addr,
                Err(observed) => {
                    // Lost to another record of the chain: the orphan dies
                    // where it lies (as in `rcu_publish`) and a new record
                    // links to the head that won. Relinking the orphan
                    // instead would come too late for a flush that has
                    // already copied it: the device would keep the old link,
                    // and a recovered chain would pass over the winner.
                    if let Ok(GetOutcome::Resident(view)) = self.log.get(guard, addr) {
                        view.invalidate();
                    }
                    expected = observed;
                }
            }
        }
    }

    /// Charge the configured device-read latency (one I/O round trip).
    fn charge_read(&self) {
        if let Some(d) = self.config.simulated_read_latency {
            std::thread::sleep(d);
        }
    }

    /// Whether `view` may be updated in place by a session at `version`:
    /// the CPR rule — same version, above the read-only boundary, live.
    fn in_place_ok(&self, view: &RecordView<'_>, m: &RecordMeta, version: Version) -> bool {
        view.address() >= self.log.read_only() && m.version == version && !m.tombstone && !m.invalid
    }

    /// Hold the memory budget ([`RecordLog::maybe_evict`]) after every
    /// session call, its guard and lock released, and every `collect_garbage`,
    /// whether or not an owner calls [`FasterKv::maintain`].
    pub(crate) fn hold_budget(&self) {
        self.log.maybe_evict();
    }

    /// Run a batch of operations for a session (`Session::execute`): one take
    /// of its lock and one epoch guard for the batch. Each operation picks up
    /// the global state first, so a checkpoint that starts mid-batch splits
    /// the batch over two versions; while a transition waits for every
    /// session, the lock is given up between two operations, as a session
    /// of single operations gives it up. The guard is refreshed every
    /// [`GUARD_REFRESH_OPS`] operations, by an append while it waits for the
    /// flusher (`RecordLog::append`), and before each read of the device.
    pub(crate) fn op_batch<'a>(
        &self,
        shared: &SessionShared,
        ops: impl IntoIterator<Item = Op<'a>>,
        mut each: impl FnMut(OpOutcome),
    ) -> Result<()> {
        let mut core = shared.core.lock().unwrap();
        let guard = self.log.protect();
        for (i, op) in ops.into_iter().enumerate() {
            if i > 0 && i % GUARD_REFRESH_OPS == 0 {
                guard.refresh();
            }
            if i > 0 && self.global.load().phase.waits_for_sessions() {
                // A transition waits for every session to be found between
                // two operations, as it finds a session of single operations:
                // give it that here, and drive it, as `Session::refresh` does.
                drop(core);
                self.try_advance(false);
                core = shared.core.lock().unwrap();
            }
            each(self.run_op(&guard, shared.id, &mut core, op)?);
        }
        Ok(())
    }

    /// A batch of one operation (`Session`'s per-operation methods): the
    /// same lock, guard and operation as [`FasterKv::op_batch`], without its
    /// loop. Through `op_batch`, a single-session probe of 25,600 resident
    /// reads and upserts ran 50–100 ns (a tenth) slower per operation.
    pub(crate) fn op_one(&self, shared: &SessionShared, op: Op<'_>) -> Result<OpOutcome> {
        let mut core = shared.core.lock().unwrap();
        let guard = self.log.protect();
        self.run_op(&guard, shared.id, &mut core, op)
    }

    /// One operation of a batch, under the session's lock (`core`) and the
    /// batch's guard: it picks up the global state, takes the next serial
    /// and runs in the observed version.
    #[inline(always)]
    fn run_op(
        &self,
        guard: &EpochGuard<'_>,
        session: SessionId,
        core: &mut SessionCore,
        op: Op<'_>,
    ) -> Result<OpOutcome> {
        if let Op::Upsert(key, value) = &op {
            Self::check_record_size(key, value)?;
        }
        self.refresh_locked(session, core);
        let version = core.observed.version;
        let serial = core.next_serial;
        core.next_serial += 1;
        let mutated = || OpOutcome::Mutated { version, serial };
        Ok(match op {
            Op::Read(key) => self.op_read(guard, core, key, version, serial)?,
            Op::Upsert(key, value) => {
                self.op_upsert(guard, key, value, version)?;
                mutated()
            }
            Op::Delete(key) => {
                self.op_delete(guard, key, version)?;
                mutated()
            }
            Op::Rmw(key, f) => match self.rmw_attempt(guard, key, &f, version)? {
                None => mutated(),
                Some(_) if self.config.strict_cpr => {
                    // As a strict read: the guard is refreshed before the I/O.
                    guard.refresh();
                    self.charge_read();
                    self.resolve_rmw_from_disk(guard, key, &f, version)?;
                    mutated()
                }
                Some(_) => {
                    core.outstanding.insert(
                        serial,
                        PendingOp {
                            key: key.clone(),
                            kind: PendingKind::Rmw(f),
                            addr: 0,
                        },
                    );
                    crate::metrics::pending_ops().add(1);
                    OpOutcome::Pending(PendingToken { serial })
                }
            },
        })
    }

    fn op_read(
        &self,
        guard: &EpochGuard<'_>,
        core: &mut SessionCore,
        key: &Key,
        version: Version,
        serial: u64,
    ) -> Result<OpOutcome> {
        let value = match self.find_resident(guard, key)? {
            Find::Found { value } => value,
            Find::OnDisk(_) if self.config.strict_cpr => {
                // Strict CPR (§5.4): resolve the I/O inline so the serial
                // order is exactly the completion order — paying a full I/O
                // round trip per operation. The guard is refreshed first, as
                // before every read of the device.
                guard.refresh();
                self.charge_read();
                self.find(guard, key)?
            }
            Find::OnDisk(left) => {
                core.outstanding.insert(
                    serial,
                    PendingOp {
                        key: key.clone(),
                        kind: PendingKind::Read,
                        addr: left.addr,
                    },
                );
                crate::metrics::pending_ops().add(1);
                return Ok(OpOutcome::Pending(PendingToken { serial }));
            }
        };
        Ok(OpOutcome::Read {
            value,
            version,
            serial,
        })
    }

    fn op_upsert(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        value: &Value,
        version: Version,
    ) -> Result<()> {
        // Try in-place against the newest resident record for this key;
        // otherwise append (blind upserts never need the disk), onto the
        // head the walk started from.
        let chain = self.chain(guard, key);
        let mut superseded = 0;
        if let Ok(Some(view)) = self.find_resident_view(guard, key, chain)? {
            let m = view.meta();
            if self.in_place_ok(&view, &m, version) && view.try_write_value(value) {
                return Ok(());
            }
            // Capacity exceeded or CPR forbids in-place: fall through to an
            // append.
            superseded = view.footprint();
        }
        self.append_and_publish(guard, key, value, version, false, chain.head);
        self.count_dead(superseded);
        Ok(())
    }

    fn op_delete(&self, guard: &EpochGuard<'_>, key: &Key, version: Version) -> Result<()> {
        let chain = self.chain(guard, key);
        // A tombstone is garbage from the start: the next pass over it
        // copies neither it nor what it hides.
        let mut superseded = record_footprint(key.len(), 0);
        if let Ok(Some(view)) = self.find_resident_view(guard, key, chain)? {
            superseded += view.footprint();
        }
        let tombstone = Value(bytes::Bytes::new());
        self.append_and_publish(guard, key, &tombstone, version, true, chain.head);
        self.count_dead(superseded);
        Ok(())
    }

    /// Resolve an RMW whose chain leads to the device, synchronously.
    fn resolve_rmw_from_disk(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        f: &RmwFn,
        version: Version,
    ) -> Result<()> {
        while let Some(left) = self.rmw_attempt(guard, key, f, version)? {
            let (superseded, old) = match self.find_from_disk(guard, key, &left)? {
                Cold::Found(footprint, old) => (footprint, old),
                Cold::Miss => (0, None),
                Cold::Freed => continue,
            };
            let new = f(old.as_ref());
            if self.rcu_publish(guard, key, new, version, left.chain.head, superseded)? {
                break;
            }
        }
        Ok(())
    }

    /// One RMW attempt against resident state; `Some` means the chain went
    /// to disk and the op must go PENDING.
    ///
    /// A read-copy-update publishes only over the chain head its walk
    /// started from, so no record of the key has been appended since the
    /// value it copied was read; and where a session of this version could
    /// still have written that value in place — the copy is made because the
    /// result is of another size class — [`RecordView::try_modify_value`]
    /// has sealed the record first. Nothing seals a record that is copied
    /// because CPR forbids in place: a session one version ahead can still
    /// copy a value a session of the record's own version is writing.
    fn rmw_attempt(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        f: &RmwFn,
        version: Version,
    ) -> Result<Option<LeftMemory>> {
        loop {
            let chain = self.chain(guard, key);
            let (old, superseded) = match self.find_resident_view(guard, key, chain)? {
                Ok(Some(view)) => {
                    let m = view.meta();
                    if self.in_place_ok(&view, &m, version) && view.try_modify_value(|v| f(Some(v)))
                    {
                        return Ok(None);
                    }
                    // CPR forbids in-place, or the record is sealed (by now
                    // if not before: the result is of another size class):
                    // read-copy-update.
                    let old = (!m.tombstone).then(|| view.read_value());
                    (old, view.footprint())
                }
                Ok(None) => (None, 0),
                Err(addr) => return Ok(Some(LeftMemory { chain, addr })),
            };
            let new = f(old.as_ref());
            if self.rcu_publish(guard, key, new, version, chain.head, superseded)? {
                return Ok(None);
            }
            // Chain head changed under us; retry from the top.
        }
    }

    /// Publish an RCU record if the chain head is still `expected`, the one
    /// the caller's walk started from, over a record of `superseded` bytes;
    /// on failure the orphaned record is invalidated in place and the caller
    /// retries.
    fn rcu_publish(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        value: Value,
        version: Version,
        expected: u64,
        superseded: usize,
    ) -> Result<bool> {
        Self::check_record_size(key, &value)?;
        let addr = self
            .log
            .append(guard, key, &value, version, false, expected);
        match self.index.try_publish(guard, key, expected, addr) {
            Ok(()) => {
                self.count_dead(superseded);
                Ok(true)
            }
            Err(_) => {
                if let Ok(GetOutcome::Resident(view)) = self.log.get(guard, addr) {
                    view.invalidate();
                }
                // If the orphan was already flushed and evicted (extreme
                // memory pressure), its device copy is unreachable: nothing
                // published points at it.
                Ok(false)
            }
        }
    }

    pub(crate) fn op_complete_pending(
        &self,
        shared: &Arc<SessionShared>,
    ) -> Result<Vec<CompletedOp>> {
        let mut core = shared.core.lock().unwrap();
        self.refresh_locked(shared.id, &mut core);
        let version = core.observed.version;
        let mut out = Vec::new();
        for serial in core.lost.drain(..) {
            out.push(CompletedOp {
                serial,
                value: None,
                version,
                lost: true,
            });
        }
        let pending: Vec<(u64, PendingOp)> =
            std::mem::take(&mut core.outstanding).into_iter().collect();
        crate::metrics::pending_ops().sub(pending.len() as i64);
        if !pending.is_empty() {
            // Relaxed CPR issues the batched I/Os concurrently; the batch
            // completes in ~one device round trip.
            self.charge_read();
        }
        for (serial, op) in pending {
            // A guard per operation: each may wait on the device.
            let guard = self.log.protect();
            let value = match op.kind {
                // Re-check memory first (the key may have been written
                // since), then chase the chain through the device.
                PendingKind::Read => self.find(&guard, &op.key)?,
                PendingKind::Rmw(f) => {
                    self.resolve_rmw_from_disk(&guard, &op.key, &f, version)?;
                    None
                }
            };
            out.push(CompletedOp {
                serial,
                value,
                version,
                lost: false,
            });
        }
        out.sort_by_key(|c| c.serial);
        Ok(out)
    }

    // ---------------------------------------------------------------- control

    /// Request a checkpoint (the `Commit()` of the StateObject API). If
    /// `target` is given, operations fast-forward to at least that version
    /// afterwards (§3.4 `Vmax` catch-up). Returns false if a machine or
    /// request is already queued, or if `target` — another shard's word — is
    /// a version no record header can hold.
    pub fn request_checkpoint(&self, target: Option<Version>) -> bool {
        if target.is_some_and(|t| t >= MAX_VERSION) {
            return false;
        }
        // Check the machine first and drop its guard before touching the
        // request queue: `try_advance` acquires machine → requests, so
        // holding requests while waiting on machine would deadlock.
        if self.machine.lock().unwrap().is_some() {
            return false;
        }
        let mut reqs = self.requests.lock().unwrap();
        if !reqs.is_empty() {
            return false;
        }
        reqs.push_back(Request::Checkpoint { target });
        true
    }

    /// Request a rollback of all versions above `v_safe` (the `Restore()`
    /// of the StateObject API, non-blocking per §5.5).
    pub fn request_rollback(&self, v_safe: Version) {
        self.requests
            .lock()
            .unwrap()
            .push_back(Request::Rollback { v_safe });
    }

    /// Chaos fault point: park checkpoint completion for `duration`, as if
    /// the flush device hung. The CPR machine stays in `WaitFlush` (ops
    /// keep executing, versions keep advancing) so the cluster cut lag
    /// `Vmax − Vsafe` grows until the stall expires; calling again
    /// extends the stall to the later deadline.
    pub fn stall_checkpoints_for(&self, duration: Duration) {
        let deadline = std::time::Instant::now() + duration;
        let mut stall = self.checkpoint_stall.lock().unwrap();
        *stall = Some(match *stall {
            Some(existing) => existing.max(deadline),
            None => deadline,
        });
    }

    /// Lift any active checkpoint stall (chaos harness heals the device).
    pub fn clear_checkpoint_stall(&self) {
        *self.checkpoint_stall.lock().unwrap() = None;
    }

    /// Drive the state machine one step, performing heavy work (flush,
    /// purge) inline. [`FasterKv::maintain`], [`FasterKv::wait_for_durable`]
    /// and [`FasterKv::restore_sync`] call it on their caller's thread: a
    /// store runs no thread of its own.
    pub fn tick(&self) {
        self.try_advance(true);
        self.report_log_bytes([
            self.log.tail(),
            self.log.resident_bytes(),
            self.log.flushed(),
            self.log.begin(),
            self.dead_bytes.0.load(Ordering::Relaxed),
        ]);
    }

    /// Move the log gauges, which sum over every store in the process, by
    /// what this store's tail, resident, durable, begin and dead bytes have
    /// changed since it last reported them. Called from `tick`, so that an
    /// operation pays nothing for them.
    fn report_log_bytes(&self, now: [u64; 5]) {
        let gauges = [
            crate::metrics::log_tail_bytes(),
            crate::metrics::log_resident_bytes(),
            crate::metrics::log_durable_bytes(),
            crate::metrics::log_begin_bytes(),
            crate::metrics::log_dead_bytes(),
        ];
        for ((gauge, reported), now) in gauges.into_iter().zip(&self.log_reported).zip(now) {
            let last = reported.swap(now, Ordering::Relaxed);
            if now != last {
                gauge.add(now as i64 - last as i64);
            }
        }
    }

    /// With a bounded volatile region, roll the read-only boundary and
    /// flush sealed pages continuously (real FASTER flushes closed pages as
    /// the tail advances, not only at checkpoints):
    /// [`RecordLog::flush_volatile`].
    pub fn continuous_flush(&self) {
        let _ = self.log.flush_volatile();
    }

    /// The store's background maintenance, once, for its owner to call (a
    /// cluster shard's loop): [`FasterKv::tick`] while the state machine
    /// moves, [`FasterKv::continuous_flush`], eviction (which every batch
    /// does as well). Returns whether work is in flight, for which the
    /// caller comes back soon: a phase other than REST or a request queued,
    /// a flush or an eviction that moved (appends may follow it), a finished
    /// pass waiting for its cut. A log that neither moves stays as it is
    /// until appended to.
    pub fn maintain(&self) -> bool {
        loop {
            let before = self.global.load();
            self.tick();
            if self.global.load() == before {
                break;
            }
        }
        let (flushed, head) = (self.log.flushed(), self.log.head());
        self.continuous_flush();
        self.log.maybe_evict();
        !self.machine_idle()
            || self.log.flushed() > flushed
            || self.log.head() > head
            || self.pending_pass().is_some()
    }

    /// Version of the latest durable checkpoint.
    #[must_use]
    pub fn durable_version(&self) -> Version {
        Version(self.durable_version.load(Ordering::Acquire))
    }

    /// Version operations currently execute in.
    #[must_use]
    pub fn current_version(&self) -> Version {
        self.global.load().version
    }

    /// Current phase (for tests and metrics).
    #[must_use]
    pub fn current_phase(&self) -> Phase {
        self.global.load().phase
    }

    /// Drain completed checkpoints since the last call.
    #[must_use]
    pub fn take_completed_checkpoints(&self) -> Vec<CheckpointInfo> {
        std::mem::take(&mut *self.completed.lock().unwrap())
    }

    /// The manifest this store was recovered from, if any.
    #[must_use]
    pub fn recovered_manifest(&self) -> Option<&CheckpointManifest> {
        self.recovered_manifest.as_ref()
    }

    /// Block until `version` is durable, ticking the machine. Returns false
    /// on timeout.
    pub fn wait_for_durable(&self, version: Version, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        self.tick_until(|| self.durable_version() >= version, deadline)
    }

    /// Tick the machine until `done`, yielding in between; false once
    /// `deadline` has passed.
    fn tick_until(&self, done: impl Fn() -> bool, deadline: std::time::Instant) -> bool {
        while !done() {
            self.tick();
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    fn try_advance(&self, heavy: bool) {
        let mut machine = match self.machine.try_lock() {
            Err(TryLockError::WouldBlock) => return,
            held => held.unwrap(),
        };
        let state = self.global.load();
        match state.phase {
            Phase::Rest => {
                let req = self.requests.lock().unwrap().pop_front();
                match req {
                    None => {}
                    Some(Request::Checkpoint { target }) => {
                        let commit_version = state.version;
                        let target = target.unwrap_or(Version::ZERO).max(commit_version.next());
                        let now = MachineCtx::now();
                        *machine = Some(MachineCtx {
                            kind: MachineKind::Checkpoint {
                                commit_version,
                                target,
                            },
                            until_address: None,
                            started_at: now,
                            phase_entered: now,
                        });
                        crate::metrics::phase_span(Phase::Rest, Phase::Prepare, commit_version);
                        *self.boundary.lock().unwrap() = Some(Boundary {
                            kind: BoundaryKind::Checkpoint,
                            points: BTreeMap::new(),
                        });
                        self.global.store(SystemState {
                            phase: Phase::Prepare,
                            version: commit_version,
                        });
                    }
                    Some(Request::Rollback { v_safe }) => {
                        let v_lost = state.version;
                        if v_safe >= v_lost {
                            // Nothing beyond the safe point exists.
                            return;
                        }
                        self.purged.write().unwrap().push((v_safe, v_lost));
                        let now = MachineCtx::now();
                        *machine = Some(MachineCtx {
                            kind: MachineKind::Rollback { v_safe, v_lost },
                            until_address: None,
                            started_at: now,
                            phase_entered: now,
                        });
                        crate::metrics::rollback_throw().inc();
                        crate::metrics::phase_span(Phase::Rest, Phase::Throw, v_lost);
                        *self.boundary.lock().unwrap() = Some(Boundary {
                            kind: BoundaryKind::Rollback,
                            points: BTreeMap::new(),
                        });
                        self.global.store(SystemState {
                            phase: Phase::Throw,
                            version: v_lost.next(),
                        });
                    }
                }
            }
            Phase::Prepare => {
                if self.all_sessions_at(state) {
                    let Some(ctx) = machine.as_mut() else { return };
                    let MachineKind::Checkpoint { target, .. } = ctx.kind else {
                        return;
                    };
                    ctx.lap(crate::metrics::phase_prepare());
                    crate::metrics::phase_span(Phase::Prepare, Phase::InProgress, target);
                    self.global.store(SystemState {
                        phase: Phase::InProgress,
                        version: target,
                    });
                }
            }
            Phase::InProgress => {
                if self.all_sessions_at(state) {
                    let Some(ctx) = machine.as_mut() else { return };
                    // All sessions are in the new version: the old version's
                    // records all sit below the current tail. Seal it.
                    ctx.until_address = Some(self.log.seal_to_tail());
                    ctx.lap(crate::metrics::phase_in_progress());
                    crate::metrics::phase_span(Phase::InProgress, Phase::WaitFlush, state.version);
                    self.global.store(SystemState {
                        phase: Phase::WaitFlush,
                        version: state.version,
                    });
                }
            }
            Phase::WaitFlush => {
                // Chaos fault point: a stalled flush device parks the
                // machine here; ops keep executing in the in-progress
                // version and the cut lag grows until the stall expires.
                {
                    let mut stall = self.checkpoint_stall.lock().unwrap();
                    if let Some(deadline) = *stall {
                        if std::time::Instant::now() < deadline {
                            return;
                        }
                        *stall = None;
                    }
                }
                let Some(ctx) = machine.as_mut() else { return };
                let until = ctx.until_address.expect("sealed before WaitFlush");
                let MachineKind::Checkpoint {
                    commit_version,
                    target,
                } = ctx.kind
                else {
                    return;
                };
                if heavy && self.log.flushed() < until {
                    if let Err(e) = self.log.flush_until(until) {
                        // Flush failures leave the machine parked; retried
                        // next tick.
                        debug_assert!(false, "flush failed: {e}");
                        return;
                    }
                }
                if self.log.flushed() >= until {
                    ctx.lap(crate::metrics::phase_wait_flush());
                    if let Some(started) = ctx.started_at.take() {
                        crate::metrics::checkpoint_total().record_micros(started.elapsed());
                    }
                    crate::metrics::checkpoints().inc();
                    crate::metrics::phase_span(Phase::WaitFlush, Phase::Rest, commit_version);
                    let mut points = self
                        .boundary
                        .lock()
                        .unwrap()
                        .take()
                        .map(|b| b.points)
                        .unwrap_or_default();
                    // Departed sessions keep their final prefix in every
                    // later manifest.
                    for (id, cp) in self.departed.lock().unwrap().iter() {
                        points.entry(*id).or_insert_with(|| cp.clone());
                    }
                    let manifest = CheckpointManifest {
                        version: commit_version,
                        until_address: until,
                        purged: self.purged.read().unwrap().clone(),
                        commit_points: points,
                        index_buckets: self.index.identities(),
                        segments: self.log.segment_spans_until(until),
                    };
                    if manifest.write_to(self.blobs.as_ref()).is_ok() {
                        self.durable_version
                            .fetch_max(commit_version.0, Ordering::AcqRel);
                        // Hand the commit points to the DPR layer without
                        // cloning the per-session map.
                        self.completed.lock().unwrap().push(CheckpointInfo {
                            version: commit_version,
                            until_address: until,
                            commit_points: manifest.commit_points,
                        });
                    }
                    *machine = None;
                    self.global.store(SystemState {
                        phase: Phase::Rest,
                        version: target,
                    });
                }
            }
            Phase::Throw => {
                if self.all_sessions_at(state) {
                    crate::metrics::phase_span(Phase::Throw, Phase::Purge, state.version);
                    self.global.store(SystemState {
                        phase: Phase::Purge,
                        version: state.version,
                    });
                }
            }
            Phase::Purge => {
                if !heavy {
                    return;
                }
                let Some(ctx) = machine.as_ref() else { return };
                let MachineKind::Rollback { v_safe, v_lost } = ctx.kind else {
                    return;
                };
                // In-place invalidation covers resident records; device
                // copies of lost versions are filtered at read time by
                // `is_dead` (the purged ranges are persisted in every later
                // manifest).
                self.log.purge_versions(v_safe, v_lost);
                // Stale manifests for discarded versions must not be used
                // for future recovery.
                for v in (v_safe.0 + 1)..=v_lost.0 {
                    let _ = self
                        .blobs
                        .delete(&CheckpointManifest::blob_name(Version(v)));
                }
                // The durable version cannot exceed the safe point anymore.
                let cur = self.durable_version.load(Ordering::Acquire);
                if cur > v_safe.0 {
                    self.durable_version.store(v_safe.0, Ordering::Release);
                }
                crate::metrics::rollback_purge().inc();
                crate::metrics::phase_span(Phase::Purge, Phase::Rest, state.version);
                *self.boundary.lock().unwrap() = None;
                *machine = None;
                self.global.store(SystemState {
                    phase: Phase::Rest,
                    version: state.version,
                });
            }
        }
    }

    /// Direct read for tests/examples outside any session: walks memory and
    /// device, honoring tombstones and purges.
    pub fn get(self: &Arc<Self>, key: &Key) -> Result<Option<Value>> {
        self.find(&self.log.protect(), key)
    }

    /// Scan the live state: the newest valid value per key, skipping
    /// tombstoned, invalid, and purged records. Used by key migration
    /// (§5.3) — an O(log) pass, not a hot-path operation.
    pub fn scan_live(&self) -> Result<Vec<(Key, Value)>> {
        let mut newest: HashMap<Key, (u64, Option<Value>)> = HashMap::new();
        let (begin, tail) = (self.log.begin(), self.log.tail());
        self.log.scan_range(begin, tail, &mut |rec| {
            let m = rec.meta();
            if self.is_dead(&m) {
                return Ok(());
            }
            let value = if m.tombstone {
                None
            } else {
                Some(rec.read_value())
            };
            match newest.entry(rec.key().clone()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if rec.address() >= e.get().0 {
                        e.insert((rec.address(), value));
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((rec.address(), value));
                }
            }
            Ok(())
        })?;
        Ok(newest
            .into_iter()
            .filter_map(|(k, (_, v))| v.map(|v| (k, v)))
            .collect())
    }

    /// One past the last log address allocated (diagnostics).
    #[must_use]
    pub fn log_tail(&self) -> u64 {
        self.log.tail()
    }

    /// Bytes of the log resident in memory, `tail - head` (diagnostics).
    #[must_use]
    pub fn log_resident_bytes(&self) -> u64 {
        self.log.resident_bytes()
    }

    /// The address the log begins at: everything below it has been freed
    /// by [`FasterKv::collect_garbage`] (diagnostics).
    #[must_use]
    pub fn log_begin(&self) -> u64 {
        self.log.begin()
    }

    /// The hash index's table size in slots, and the chains that have an
    /// entry in it (diagnostics).
    #[must_use]
    pub fn index_occupancy(&self) -> (usize, u64) {
        (self.index.slots(&self.log.protect()), self.index.entries())
    }

    /// What this store's copy-forward passes have done so far.
    #[must_use]
    pub fn compaction_totals(&self) -> CompactionTotals {
        self.compaction.lock().unwrap().totals
    }

    /// What this store's evictions have done so far: the calls that
    /// reclaimed pages, each waiting once for every epoch guard, and their
    /// bytes.
    #[must_use]
    pub fn eviction_totals(&self) -> EvictionTotals {
        self.log.eviction_totals()
    }

    /// The version a finished pass waits for: its prefix is freed by the
    /// first [`FasterKv::collect_garbage`] at a cut whose manifest is of
    /// that version or a later one. `None` when no pass is waiting.
    #[must_use]
    pub fn pending_pass(&self) -> Option<Version> {
        self.compaction
            .lock()
            .unwrap()
            .pending
            .as_ref()
            .map(|p| p.version)
    }

    /// Evict every flushed, sealed page from memory (tests and memory
    /// pressure simulations). Returns the new head address.
    pub fn force_evict(&self) -> u64 {
        self.log.evict_to(self.log.flushed())
    }

    /// Garbage-collect durable state the DPR cut has moved past: `version`
    /// must be covered by the cut — "D-FASTER only garbage-collects FASTER
    /// log entries that are in the DPR guarantee", §5.5.
    ///
    /// Recovery at the cut uses the newest manifest at or below it
    /// ([`CheckpointManifest::latest`]), so that one and everything above
    /// it are kept and the older manifests deleted. The log is shortened in
    /// two steps, each a call of this function:
    ///
    /// * a *copy-forward pass* once the dead bytes the store has counted are
    ///   a quarter of `tail - begin` (half, and a memory's worth since the
    ///   previous pass, once the log's beginning has left memory): the live
    ///   records of the flushed prefix — of as much of it as frees
    ///   the garbage counted since the previous pass began, or less
    ///   (`pass_budget`) — are appended again at the tail, as records of the
    ///   version current at that moment. On a store with a bounded volatile
    ///   region those appends wait for the flusher like any other;
    /// * the *truncation* of that prefix once the kept manifest is of the
    ///   version the pass ended in, or a later one. Every manifest kept then
    ///   covers the copies, and no rollback goes below the cut, so neither a
    ///   recovery nor a `Restore()` can need a record of the prefix again. A
    ///   rollback before that voids the pass: what it skipped as superseded
    ///   may be live again.
    ///
    /// Returns the address the log now begins at if this call freed a
    /// prefix, `None` if it freed nothing.
    pub fn collect_garbage(&self, version: Version) -> Result<Option<u64>> {
        let _round = crate::metrics::compaction_round().start_timer();
        let freed = self.collect_garbage_at(version);
        self.hold_budget();
        if freed.is_err() {
            crate::metrics::gc_errors().inc();
        }
        freed
    }

    /// [`FasterKv::collect_garbage`] for a caller that calls it whenever
    /// there may be something to collect and pays for each read of the cut:
    /// a worker's shard loop. It collects when a pass is due, and calls
    /// `cut`, which reads this store's entry of the DPR cut, only when what
    /// waits for the cut is durable — a finished pass, or, while none is,
    /// manifests `UNPRUNED_VERSIONS` versions past the last one kept — since
    /// a cut covers no more of a store than it has made durable.
    pub fn collect_due_garbage(
        &self,
        cut: impl FnOnce() -> Option<Version>,
    ) -> Result<Option<u64>> {
        let (waits_for, due) = {
            let c = self.compaction.lock().unwrap();
            let manifests = Version(c.kept.0 + UNPRUNED_VERSIONS);
            let waits_for = c.pending.as_ref().map_or(manifests, |pass| pass.version);
            (waits_for, self.pass_budget(&c).is_some())
        };
        let durable = self.durable_version();
        if waits_for <= durable {
            if let Some(at) = cut().filter(|&at| at >= waits_for) {
                return self.collect_garbage(at.min(durable));
            }
        }
        if due {
            return self.collect_garbage(Version::ZERO);
        }
        Ok(None)
    }

    /// The garbage a pass is to free, if one is due — none waits, a flushed
    /// prefix lies above `begin`, and the dead bytes are a quarter
    /// of `extent = tail - begin` or more: what was counted dead since the
    /// previous pass began, and no more than takes the dead bytes back under
    /// a quarter, so a store's first pass covers a page or so. Freeing `g`
    /// bytes of garbage takes both the dead bytes and the extent down by `g`
    /// (the rest of the prefix comes back as copies), so that is
    /// `(4 * dead - extent) / 3`. A resident log is thus at most a quarter
    /// garbage, for up to three bytes copied per byte of garbage freed.
    ///
    /// A log whose beginning has left memory is emptied from the device, a
    /// device read for each record and for each cold link its liveness walks
    /// pass — ten times the cost of a resident page, to free device space
    /// rather than memory — so a pass there starts at half garbage, frees no
    /// more than takes it back under half (`2 * dead - extent`), and waits
    /// until a memory's worth of garbage pays for it.
    fn pass_budget(&self, c: &Compaction) -> Option<u64> {
        let (begin, tail) = (self.log.begin(), self.log.tail());
        let dead = self.dead_bytes.0.load(Ordering::Relaxed);
        let frontier = self.log.flushed();
        if c.pending.is_some() || dead == 0 || frontier <= begin {
            return None;
        }
        let (extent, paid) = (tail - begin, dead + c.discounted - c.counted_at_pass);
        if begin < self.log.head() {
            let excess = (2 * dead).checked_sub(extent)?;
            (paid >= self.log.memory_budget()).then_some(paid.min(excess))
        } else {
            Some(paid.min((4 * dead).checked_sub(extent)? / 3))
        }
    }

    fn collect_garbage_at(&self, version: Version) -> Result<Option<u64>> {
        if version > self.durable_version() {
            return Err(DprError::Invalid(format!(
                "cannot GC at {version}: durable only to {}",
                self.durable_version()
            )));
        }
        // No checkpoint is of version 0: a call there only runs a pass.
        let manifest = match version {
            Version::ZERO => None,
            _ => CheckpointManifest::latest(self.blobs.as_ref(), Some(version))?,
        };
        if let Some(m) = &manifest {
            let kept = CheckpointManifest::blob_name(m.version);
            for name in self.blobs.list("chkpt-")? {
                if name < kept {
                    let _ = self.blobs.delete(&name);
                }
            }
        }
        let mut compaction = self.compaction.lock().unwrap();
        let kept = manifest.map(|m| m.version);
        compaction.kept = compaction.kept.max(kept.unwrap_or(Version::ZERO));
        let mut freed = None;
        if let Some(pass) = compaction.pending.take() {
            if pass.rollbacks != self.purged.read().unwrap().len() {
                // Void. Its copies stay where they are, ordinary records;
                // the originals they hide are garbage for the next pass.
                self.dead_bytes.0.fetch_add(pass.copied, Ordering::Relaxed);
            } else if kept.is_none_or(|kept| kept < pass.version) {
                compaction.pending = Some(pass);
            } else {
                let bytes = pass.until - self.log.begin();
                freed = Some(self.log.truncate_below(pass.until)?);
                // All of the prefix but the originals of the copies was
                // dead, counted or not.
                let garbage = bytes.saturating_sub(pass.copied);
                let dead =
                    self.dead_bytes
                        .0
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |dead| {
                            Some(dead.saturating_sub(garbage))
                        });
                compaction.discounted += dead.map_or(0, |dead| dead.min(garbage));
                compaction.totals.freed_bytes += bytes;
                crate::metrics::compaction_freed_bytes().add(bytes);
            }
        }
        if let Some(budget) = self.pass_budget(&compaction) {
            let counted = self.dead_bytes.0.load(Ordering::Relaxed) + compaction.discounted;
            if let Some(pass) = self.copy_forward(budget)? {
                compaction.counted_at_pass = counted;
                compaction.totals.passes += 1;
                compaction.totals.copied_bytes += pass.copied;
                crate::metrics::compaction_passes().inc();
                crate::metrics::compaction_copied_bytes().add(pass.copied);
                compaction.pending = Some(pass);
            }
        }
        Ok(freed)
    }

    /// One copy-forward pass over `[begin, until)`, a prefix of the flushed
    /// log: a flush stops at the safe read-only frontier
    /// ([`RecordLog::safe_read_only`]), so nothing in it is written in place
    /// any more. A record there is live iff it is the newest record of its
    /// key that no rollback or lost race has killed; a live record that is not a tombstone is
    /// appended again at the tail and published over the chain head its
    /// liveness walk started from. A live tombstone is not: all it hides lies
    /// below it, in the prefix that goes with it.
    ///
    /// Liveness is decided where the record lies: a resident page is walked
    /// in place and the index probed with the key's bytes, and a key and a
    /// value are taken out only of the records the pass copies. A page below
    /// `head` is read from the device as owned records.
    ///
    /// The pass frees nothing. It ends at the flushed frontier or
    /// at the first page boundary by which the bytes it has not copied reach
    /// `budget` (a page's first byte is a record boundary like the
    /// frontier), or after a page below `head`. `None` when there is no
    /// prefix.
    fn copy_forward(&self, budget: u64) -> Result<Option<Pass>> {
        let begin = self.log.begin();
        let frontier = self.log.flushed();
        if frontier <= begin {
            return Ok(None);
        }
        let rollbacks = self.purged.read().unwrap().len();
        // The rollbacks the pass began with: one more voids it, and each copy
        // checks its original against them again (`append_copies`).
        let purged = self.purged.read().unwrap().clone();
        let (mut copied, mut visited) = (0, 0);
        let mut live = Vec::new();
        let mut until = begin;
        while until < frontier {
            // A page at a time: the walk holds a guard, and an append under
            // it that waits for the flusher would keep the flusher's
            // eviction waiting for the guard.
            let to = frontier.min((until / PAGE_BYTES + 1) * PAGE_BYTES);
            let cold = until < self.log.head();
            let walked = if cold {
                until
            } else {
                self.log.walk_resident(until, to, &mut |guard, view| {
                    visited += 1;
                    let (at, key) = (view.address(), view.key_bytes());
                    let value = || view.read_value();
                    live.extend(self.take_if_live(guard, &purged, at, view.meta(), key, value)?);
                    Ok(())
                })?
            };
            // What eviction has taken, from the start or since the walk.
            self.log.scan_range(walked, to, &mut |rec| {
                visited += 1;
                let (at, key) = (rec.address(), rec.key().as_bytes());
                let value = || rec.read_value();
                let guard = self.log.protect();
                live.extend(self.take_if_live(&guard, &purged, at, rec.meta(), key, value)?);
                Ok(())
            })?;
            copied += self.append_copies(&mut live)?;
            until = to;
            if cold || until - begin - copied >= budget {
                break;
            }
        }
        crate::metrics::compaction_visited_records().add(visited);
        Ok(Some(Pass {
            until,
            version: self.global.load().version,
            copied,
            rollbacks,
        }))
    }

    /// The record at `at`, of `m` and `key`, taken out of the log to be
    /// copied — its value read by `value` — if it is the newest live record
    /// of its key and no tombstone. `purged` is the pass's copy of the
    /// rolled-back version ranges.
    fn take_if_live(
        &self,
        guard: &EpochGuard<'_>,
        purged: &[(Version, Version)],
        at: u64,
        m: RecordMeta,
        key: &[u8],
        value: impl FnOnce() -> Value,
    ) -> Result<Option<LiveRecord>> {
        if m.tombstone || is_dead_given(purged, &m) {
            return Ok(None);
        }
        let head = self.index.head_of(guard, key);
        if !self.is_newest(guard, purged, key, head, at)? {
            return Ok(None);
        }
        Ok(Some(LiveRecord {
            at,
            version: m.version,
            head,
            key: Key(bytes::Bytes::copy_from_slice(key)),
            value: value(),
        }))
    }

    /// Append the records of `live` at the tail again, [`COPY_BATCH`] at a
    /// time under one guard and one take of the copy gate, and empty it.
    /// Returns the bytes appended.
    ///
    /// A copy is a record of the version current under the gate, so it lies
    /// below that version's seal. An original a rollback has purged since
    /// its walk is not copied: the rollback publishes its range before the
    /// version past it, so a version read under the gate without the range
    /// is one the rollback purges, the copy with it.
    fn append_copies(&self, live: &mut Vec<LiveRecord>) -> Result<u64> {
        let mut copied = 0;
        for batch in live.chunks(COPY_BATCH) {
            let guard = self.log.protect();
            let _gate = self.copy_gate.lock().unwrap();
            let version = self.global.load().version;
            let purged = self.purged.read().unwrap().clone();
            for rec in batch.iter().filter(|rec| !is_purged(&purged, rec.version)) {
                copied += self.publish_copy(&guard, &purged, rec, version)?;
            }
        }
        live.clear();
        Ok(copied)
    }

    /// Append `rec` as a record of `version` and publish it by a CAS over the
    /// head its liveness walk started from, so that no record of the chain,
    /// of this key or another, has come between the walk and the copy. The
    /// walk is made again from a head that has moved since — the pass's own
    /// copies move the heads of the chains they share. Returns the bytes
    /// appended.
    fn publish_copy(
        &self,
        guard: &EpochGuard<'_>,
        purged: &[(Version, Version)],
        rec: &LiveRecord,
        version: Version,
    ) -> Result<u64> {
        let key = rec.key.as_bytes();
        let mut walked = rec.head;
        loop {
            let head = self.index.head_of(guard, key);
            if head != walked && !self.is_newest(guard, purged, key, head, rec.at)? {
                return Ok(0);
            }
            walked = head;
            let addr = self
                .log
                .append(guard, &rec.key, &rec.value, version, false, head);
            if self.index.try_publish(guard, &rec.key, head, addr).is_ok() {
                return Ok(record_footprint(key.len(), rec.value.len()) as u64);
            }
            // Lost to a session's record: the orphan dies where it lies (as
            // in `rcu_publish`), and that record may be of this key.
            if let Ok(GetOutcome::Resident(view)) = self.log.get(guard, addr) {
                view.invalidate();
            }
        }
    }

    /// Whether the record of `key` at `at`, itself alive, is the newest of
    /// its key on the chain from `head`: no live record of the key lies
    /// above it. A record the chain does not lead to (the orphan of a lost
    /// publish race whose invalidation missed the flush) is not.
    fn is_newest(
        &self,
        guard: &EpochGuard<'_>,
        purged: &[(Version, Version)],
        key: &[u8],
        head: u64,
        at: u64,
    ) -> Result<bool> {
        let mut addr = head;
        while addr != NONE_ADDRESS && addr > at {
            let (newer, prev) = match self.log.get_ready(guard, addr)? {
                GetOutcome::Resident(view) => (
                    view.key_bytes() == key && !is_dead_given(purged, &view.meta()),
                    view.prev(),
                ),
                GetOutcome::OnDisk => {
                    let rec = self.log.read_from_device(addr)?;
                    (
                        rec.key().as_bytes() == key && !is_dead_given(purged, &rec.meta()),
                        rec.prev(),
                    )
                }
                GetOutcome::NotReady => unreachable!("get_ready resolved NotReady"),
            };
            if newer {
                return Ok(false);
            }
            addr = prev;
        }
        Ok(addr == at)
    }

    /// True when no checkpoint/rollback machine is running or queued.
    #[must_use]
    pub fn machine_idle(&self) -> bool {
        // Lock order machine → requests, matching `try_advance` (the guards
        // of a `&&` chain live to the end of the statement).
        self.machine.lock().unwrap().is_none()
            && self.requests.lock().unwrap().is_empty()
            && self.global.load().phase == Phase::Rest
    }

    /// Request a rollback to `v_safe` and wait for the machine to finish
    /// (the worker-facing synchronous `Restore()`; the store-internal
    /// machine is still non-blocking for sessions).
    pub fn restore_sync(&self, v_safe: Version, timeout: Duration) -> Result<()> {
        // Wait out any in-flight checkpoint first so the rollback is queued
        // against an idle machine.
        let deadline = std::time::Instant::now() + timeout;
        let idle = || self.machine_idle();
        if !self.tick_until(idle, deadline) {
            return Err(DprError::Timeout);
        }
        self.request_rollback(v_safe);
        if self.tick_until(idle, deadline) {
            Ok(())
        } else {
            Err(DprError::Timeout)
        }
    }
}

impl Drop for FasterKv {
    fn drop(&mut self) {
        self.report_log_bytes([0; 5]);
    }
}

#[cfg(test)]
mod tests {
    //! Stores of 16 hash chains, so that every chain is shared by several
    //! keys and each walk passes records of other keys — the path a store
    //! of budget-derived size takes only for the few keys that collide.

    use super::*;
    use dpr_storage::{MemBlobStore, MemLogDevice};

    const CHAINS: u64 = 16;
    /// Two versions of them fill more than one page, so one can be evicted.
    const KEYS: u64 = 1500;

    fn config() -> FasterConfig {
        FasterConfig {
            memory_budget_records: 0,
            ..FasterConfig::default()
        }
    }

    fn read(kv: &Arc<FasterKv>, k: u64) -> Option<u64> {
        kv.get(&Key::from_u64(k)).unwrap().and_then(|v| v.as_u64())
    }

    #[test]
    fn rollback_travels_back_past_records_of_other_keys() {
        let kv = FasterKv::with_identities(
            config(),
            Arc::new(MemLogDevice::null()),
            Arc::new(MemBlobStore::new()),
            CHAINS,
        );
        assert_eq!(kv.index.identities(), CHAINS);
        let s = kv.start_session(SessionId(1));
        for k in 0..KEYS {
            s.upsert(Key::from_u64(k), Value::from_u64(k)).unwrap();
        }
        s.delete(Key::from_u64(7)).unwrap();
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
        // Version 2, rolled back below: every chain now starts with ninety
        // invalid records of assorted keys.
        for k in 0..KEYS {
            s.upsert(Key::from_u64(k), Value::from_u64(k + 1000))
                .unwrap();
        }
        s.upsert(Key::from_u64(7), Value::from_u64(7)).unwrap();
        assert_eq!(read(&kv, 3), Some(1003));
        kv.restore_sync(Version(1), Duration::from_secs(10))
            .unwrap();
        for k in 0..KEYS {
            assert_eq!(read(&kv, k), (k != 7).then_some(k), "key {k}");
        }
        assert_eq!(kv.index.entries(), CHAINS);
        // The same walks through the device.
        kv.request_checkpoint(None);
        assert!(kv.wait_for_durable(kv.current_version(), Duration::from_secs(10)));
        assert!(kv.force_evict() > 0);
        for k in 0..KEYS {
            assert_eq!(read(&kv, k), (k != 7).then_some(k), "evicted key {k}");
        }
    }

    /// Six versions of every key, of which four have been freed: recovery
    /// sizes the index by the log that is left, not by its tail address.
    #[test]
    fn recovery_reserves_the_index_by_the_log_that_is_left() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        // 16,384 chains: more than either size asks for.
        let config = || FasterConfig {
            memory_budget_records: 1 << 13,
            ..config()
        };
        let kv = FasterKv::new(config(), device.clone(), blobs.clone());
        let s = kv.start_session(SessionId(1));
        for round in 1..=6u64 {
            for k in 0..KEYS {
                s.upsert(Key::from_u64(k), Value::from_u64(k + round))
                    .unwrap();
            }
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(round), Duration::from_secs(10)));
            kv.collect_garbage(Version(round)).unwrap();
        }
        let begin = kv.log.begin();
        drop(s);
        drop(kv);
        device.crash();
        let kv = FasterKv::recover(config(), device, blobs, None).unwrap();
        let until = kv.log.tail();
        assert_eq!(kv.log.begin(), begin);
        assert!(begin > until / 2, "begin {begin} of {until}");
        let reserved = |bytes: u64| kv.index.slots_for(bytes / PAPER_RECORD_BYTES);
        assert!(reserved(until - begin) < reserved(until));
        assert_eq!(kv.index.slots(&kv.log.protect()), reserved(until - begin));
        for k in 0..KEYS {
            assert_eq!(read(&kv, k), Some(k + 6), "key {k}");
        }
    }

    /// Recovering one durable log with a single-threaded index rebuild and
    /// with a parallel one gives identical observable state. The parallel
    /// rebuild races page-partitioned scans into the index with
    /// last-writer-wins-by-address publishes, and the index doubles under
    /// them as chains appear (6,000 keys take it from 512 slots to 16,384),
    /// so the outcome must not depend on the thread count or on where the
    /// doublings fall.
    #[test]
    fn parallel_rebuild_equals_sequential_rebuild() {
        const KEYS: u64 = 6000;
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        let mut expected = std::collections::HashMap::new();
        {
            let kv = FasterKv::new(FasterConfig::default(), device.clone(), blobs.clone());
            let s = kv.start_session(SessionId(1));
            // Several generations of overwrites and deletes across two
            // checkpointed versions, so chains have depth and the log spans
            // enough pages (12) to give each of eight threads its own.
            for i in 0..16_000u64 {
                s.upsert(Key::from_u64(i % KEYS), Value::from_u64(i))
                    .unwrap();
                expected.insert(i % KEYS, i);
            }
            for i in 0..200u64 {
                s.delete(Key::from_u64(i * 7 % KEYS)).unwrap();
                expected.remove(&(i * 7 % KEYS));
            }
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
            for i in 0..8000u64 {
                s.upsert(Key::from_u64(i % 3600), Value::from_u64(i + 100_000))
                    .unwrap();
                expected.insert(i % 3600, i + 100_000);
            }
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(2), Duration::from_secs(10)));
        }

        // The log tail, the sorted live pairs and a point read of every key.
        let observe = |threads: u64| {
            let config = FasterConfig::default();
            let kv = FasterKv::recover_with(config, device.clone(), blobs.clone(), None, threads)
                .unwrap();
            let mut live: Vec<(u64, u64)> = (kv.scan_live().unwrap().into_iter())
                .map(|(k, v)| (k.as_u64().unwrap(), v.as_u64().unwrap()))
                .collect();
            live.sort_unstable();
            let gets: Vec<Option<u64>> = (0..KEYS).map(|k| read(&kv, k)).collect();
            (kv.log_tail(), live, gets)
        };
        let sequential = observe(1);
        assert_eq!(sequential, observe(8), "the rebuilds diverge");

        // And both match what was committed.
        let (_, live, gets) = sequential;
        for (k, got) in gets.into_iter().enumerate() {
            assert_eq!(got, expected.get(&(k as u64)).copied(), "key {k}");
        }
        let mut want: Vec<(u64, u64)> = expected.into_iter().collect();
        want.sort_unstable();
        assert_eq!(live, want, "scan_live diverges from the written state");
    }

    /// A record of version 2 below the seal of checkpoint 1, and after it on
    /// its chain a record of version 1 of another key, appended by hand. The
    /// rebuild makes that record the chain's head, which links to the
    /// version-2 one: recovery at 1 must read past it (its purge range
    /// `(1, 2]` hides it) to the key's value of 1.
    #[test]
    fn recovery_reads_past_a_later_versions_record_under_a_live_one() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        // Two keys on one chain of the recovered index too.
        let bits = HashIndex::identities_for(0).trailing_zeros();
        let chain = |k: u64| Key::hash_bytes(Key::from_u64(k).as_bytes()) >> (64 - bits);
        let (a, b) = (1, (2..).find(|&k| chain(k) == chain(1)).unwrap());
        {
            let kv = FasterKv::with_identities(config(), device.clone(), blobs.clone(), CHAINS);
            let s = kv.start_session(SessionId(1));
            s.upsert(Key::from_u64(a), Value::from_u64(1)).unwrap();
            kv.request_checkpoint(None);
            while kv.current_phase() != Phase::InProgress {
                kv.tick();
            }
            s.upsert(Key::from_u64(a), Value::from_u64(2)).unwrap();
            let guard = kv.log.protect();
            let key = Key::from_u64(b);
            let head = kv.index.head(&guard, &key);
            let addr = kv
                .log
                .append(&guard, &key, &Value::from_u64(1), Version(1), false, head);
            kv.index.try_publish(&guard, &key, head, addr).unwrap();
            drop(guard);
            assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
            assert!(kv.log.flushed() > addr);
        }
        device.crash();
        let kv = FasterKv::recover(config(), device, blobs, Some(Version(1))).unwrap();
        assert_eq!(read(&kv, b), Some(1));
        assert_eq!(read(&kv, a), Some(1), "recovery at 1 read version 2");
    }

    #[test]
    fn recovery_splits_shared_chains_and_still_finds_every_key() {
        let device = Arc::new(MemLogDevice::null());
        let blobs = Arc::new(MemBlobStore::new());
        {
            let kv = FasterKv::with_identities(config(), device.clone(), blobs.clone(), CHAINS);
            let s = kv.start_session(SessionId(1));
            for round in 0..3u64 {
                for k in 0..KEYS {
                    s.upsert(Key::from_u64(k), Value::from_u64(k + round))
                        .unwrap();
                }
            }
            s.delete(Key::from_u64(7)).unwrap();
            kv.request_checkpoint(None);
            assert!(kv.wait_for_durable(Version(1), Duration::from_secs(10)));
            // Lost with the crash.
            s.upsert(Key::from_u64(3), Value::from_u64(9999)).unwrap();
        }
        device.crash();
        // The manifest says 16 chains; the budget asks for 4096. Each of
        // those is part of one of the 16, whose links it inherits.
        let kv = FasterKv::recover(config(), device, blobs, None).unwrap();
        assert_eq!(kv.recovered_manifest().unwrap().index_buckets, CHAINS);
        assert_eq!(kv.index.identities(), HashIndex::identities_for(0));
        assert!(kv.index.entries() > CHAINS);
        for k in 0..KEYS {
            assert_eq!(read(&kv, k), (k != 7).then_some(k + 2), "key {k}");
        }
    }
}
