//! Shard workers: batch execution + libDPR server hooks + background
//! checkpointing, commit pumping, and recovery participation.

use crate::dedupe::{Admit, ReplyCache};
use crate::message::{ClusterOp, OpResult};
use crate::transport::{BusFrame, BusInbox, EndpointId, SimNetwork};
use crate::wire::{self, FrameKind, ProtoError, ProtoErrorCode};
use bytes::Bytes;
use dpr_core::{DprError, Result, Rng, SessionId, ShardId, Version, WorldLine};
use dpr_metadata::{MetadataStore, OwnershipTable};
use libdpr::{BatchDisposition, BatchHeader, BatchReply, DprFinder, DprServer, StateObject};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// The lowest and highest version the operations of one batch executed in.
/// A store whose sessions pick up a checkpoint between operations (CPR, §5)
/// runs the operations before the boundary in `v` and the rest in `v + 1`;
/// a store that latches a batch into one version has `lowest == highest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionSpan {
    /// Where the batch's dependencies are recorded: every version from here
    /// up holds an operation that rests on them (a version rests on its
    /// predecessors), and no lower one does.
    pub lowest: Version,
    /// What the reply carries: the session depends on all of the batch.
    pub highest: Version,
}

impl VersionSpan {
    /// A batch that executed entirely in `version`.
    #[must_use]
    pub fn single(version: Version) -> VersionSpan {
        VersionSpan {
            lowest: version,
            highest: version,
        }
    }
}

/// A cache-store shard as the worker drives it: the libDPR
/// [`StateObject`] plus batch execution.
pub trait ShardStore: StateObject {
    /// Execute a batch of operations for `session`, returning per-op results
    /// and the version a reply to the batch carries (the highest an
    /// operation executed in).
    fn execute_batch(
        &self,
        session: SessionId,
        ops: &[ClusterOp],
    ) -> Result<(Vec<OpResult>, Version)> {
        let mut results = Vec::with_capacity(ops.len());
        let span = self.execute_batch_into(session, ops, &mut results)?;
        Ok((results, span.highest))
    }

    /// Execute a batch, appending results to a caller-provided buffer, so
    /// steady-state callers (the network plane) can reuse one allocation
    /// across batches. Returns the versions the operations executed in.
    fn execute_batch_into(
        &self,
        session: SessionId,
        ops: &[ClusterOp],
        out: &mut Vec<OpResult>,
    ) -> Result<VersionSpan>;

    /// Snapshot the live key/value pairs (key migration, §5.3).
    fn scan_live(&self) -> Result<Vec<(dpr_core::Key, dpr_core::Value)>>;

    /// Garbage-collect durable state the DPR cut has moved past (§5.5), if
    /// there is any: `cut` reads this shard's entry of the cut, and a store
    /// calls it only when freeing something waits for it. Default: stores
    /// with no log to truncate do nothing.
    fn collect_garbage(&self, cut: &dyn Fn() -> Option<Version>) -> Result<()> {
        let _ = cut;
        Ok(())
    }

    /// The FASTER store behind this shard, if that is what it is: for
    /// diagnostics and tests that look at its log (`FasterKv::log_begin`,
    /// `FasterKv::compaction_totals`).
    fn faster(&self) -> Option<&Arc<dpr_faster::FasterKv>> {
        None
    }

    /// Chaos fault point: delay in-flight and future checkpoint
    /// completion for `duration`, simulating a hung flush device.
    /// Default: stores without a checkpoint machine ignore it.
    fn inject_commit_stall(&self, duration: Duration) {
        let _ = duration;
    }

    /// Lift any active commit stall ("the device recovers"). The chaos
    /// harness must call this before injecting a crash: rollback waits
    /// for the checkpoint machine to go idle, which a stalled `WaitFlush`
    /// phase would block. Default: no-op.
    fn clear_commit_stall(&self) {}
}

/// Worker behavior knobs (these map onto the paper's experiment axes).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Checkpoint trigger period; `None` disables checkpoints entirely
    /// ("No Chkpts" in Figs. 10–11).
    pub checkpoint_interval: Option<Duration>,
    /// Track dependencies and report commits to the DPR finder. Disabling
    /// this with checkpoints still on gives the "No DPR" / eventual
    /// configurations.
    pub dpr_enabled: bool,
    /// Make every batch wait for durability before replying (the
    /// synchronous recoverability level of §7.6).
    pub sync_commit: bool,
    /// Executor threads serving the worker's bus endpoint, each its own
    /// lane of it: one sender's frames are all served by one of them, in
    /// the order sent.
    pub executors: usize,
    /// Validate key ownership per batch (§5.3).
    pub validate_ownership: bool,
    /// Fast-forward lagging checkpoints to the cluster `Vmax` (§3.4).
    pub fast_forward: bool,
    /// The most batches, over all sessions, whose replies this worker
    /// remembers so that a retransmitted batch is answered again and not
    /// executed again. A reply is remembered until its session acknowledges
    /// it (`BatchHeader::acked_below`), so a live session needs room for
    /// what it has unanswered and no more; at the bound the session heard
    /// from least recently is forgotten whole, and a session that fills it
    /// alone is refused until it acknowledges (`docs/NETWORK.md` §6). `0`
    /// (the default) disables the cache; turn it on wherever clients
    /// retransmit.
    pub dedupe_window: usize,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            checkpoint_interval: Some(Duration::from_millis(100)),
            dpr_enabled: true,
            sync_commit: false,
            executors: 2,
            validate_ownership: true,
            fast_forward: true,
            dedupe_window: 0,
        }
    }
}

/// Decode and execute buffers of the request path, one per serving thread
/// (a connection's thread or a bus executor) and reused across frames, so a
/// warm request allocates nothing. The ops are zero-copy views of the frame
/// body they were decoded from: [`RequestScratch::clear`] them before the
/// connection's reader is asked for the next frame (`docs/NETWORK.md` §9).
pub(crate) struct RequestScratch {
    ops: Vec<ClusterOp>,
    results: Vec<OpResult>,
    /// Its `deps` vector is reused across frames.
    header: BatchHeader,
}

impl RequestScratch {
    pub(crate) fn new() -> RequestScratch {
        RequestScratch {
            ops: Vec::new(),
            results: Vec::new(),
            header: BatchHeader {
                session: SessionId(0),
                world_line: WorldLine(0),
                version_lower_bound: Version::ZERO,
                deps: Vec::new(),
                first_serial: 0,
                acked_below: 0,
                op_count: 0,
            },
        }
    }

    /// Drop the views of the last frame's body.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.results.clear();
    }
}

/// One shard worker.
pub struct Worker {
    shard: ShardId,
    store: Arc<dyn ShardStore>,
    server: Arc<DprServer>,
    net: Arc<SimNetwork>,
    endpoint: EndpointId,
    ownership: Arc<OwnershipTable>,
    meta: Arc<dyn MetadataStore>,
    finder: Arc<dyn DprFinder>,
    config: WorkerConfig,
    stopped: AtomicBool,
    /// The shard loop's thread, which `stop` unparks.
    shard_loop: OnceLock<Thread>,
    /// Up while the shard loop sleeps longer than it does with work in
    /// flight: a delayed batch wakes it only then.
    parked_idle: AtomicBool,
    wakeups: AtomicU64,
    /// Operations executed (all sessions) — worker-side throughput counter.
    executed_ops: AtomicU64,
    /// Duplicate suppression for retransmitted remote batches; `None` at a
    /// `dedupe_window` of 0. A rollback clears it, which is safe because
    /// the new world-line forces clients to rebuild their sessions anyway.
    dedupe: Option<ReplyCache>,
}

impl Worker {
    /// Create and start a worker: registers on the bus and metadata store,
    /// spawns executor and control threads.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        shard: ShardId,
        store: Arc<dyn ShardStore>,
        net: Arc<SimNetwork>,
        ownership: Arc<OwnershipTable>,
        meta: Arc<dyn MetadataStore>,
        finder: Arc<dyn DprFinder>,
        config: WorkerConfig,
    ) -> Result<Arc<Worker>> {
        let (endpoint, lanes) = net.register_lanes(config.executors);
        meta.register_worker(shard)?;
        // A worker started during or after a recovery takes the cluster's
        // world-line: it is not in that recovery's `pending`, and it has
        // nothing to roll back.
        let server = DprServer::new(shard);
        server.set_world_line(meta.world_line()?);
        let dedupe = (config.dedupe_window > 0).then(|| ReplyCache::new(config.dedupe_window));
        let worker = Arc::new(Worker {
            shard,
            store,
            server: Arc::new(server),
            net,
            endpoint,
            ownership,
            meta,
            finder,
            config,
            stopped: AtomicBool::new(false),
            shard_loop: OnceLock::new(),
            parked_idle: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            executed_ops: AtomicU64::new(0),
            dedupe,
        });
        for (i, rx) in lanes.into_iter().enumerate() {
            let weak = Arc::downgrade(&worker);
            std::thread::Builder::new()
                .name(format!("worker-{}-exec-{i}", shard.0))
                .spawn(move || executor_loop(&weak, &rx))
                .expect("spawn executor");
        }
        let (weak, now) = (Arc::downgrade(&worker), Instant::now());
        let due = Due {
            checkpoint: now + worker.config.checkpoint_interval.unwrap_or_default(),
            recovery: now,
            jitter: Rng::new(u64::from(shard.0)),
        };
        let shard_loop = std::thread::Builder::new()
            .name(format!("worker-{}-ctl", shard.0))
            .spawn(move || shard_loop(&weak, due))
            .expect("spawn shard loop");
        let _ = worker.shard_loop.set(shard_loop.thread().clone());
        Ok(worker)
    }

    /// This worker's shard id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This worker's bus address.
    #[must_use]
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The world-line this worker is on.
    #[must_use]
    pub fn world_line(&self) -> WorldLine {
        self.server.world_line()
    }

    /// Total operations executed by this worker.
    #[must_use]
    pub fn executed_ops(&self) -> u64 {
        self.executed_ops.load(Ordering::Relaxed)
    }

    /// The underlying store (tests/diagnostics).
    #[must_use]
    pub fn store(&self) -> &Arc<dyn ShardStore> {
        &self.store
    }

    /// Execute a batch on the calling thread: the inside of the request path
    /// (`serve_request`) and what a co-located application calls directly
    /// (§5.2's local execution). Results are appended to the
    /// caller's buffer, which a steady-state caller reuses across batches.
    pub fn execute_local_into(
        &self,
        header: &BatchHeader,
        ops: &[ClusterOp],
        results: &mut Vec<OpResult>,
    ) -> Result<BatchReply> {
        match self.server.validate(header, self.store.as_ref()) {
            BatchDisposition::Execute => {}
            BatchDisposition::Reject(e) => return Err(e),
            // The fast-forward commit it queued moves on the shard loop:
            // wake the loop if it is idle; a busy one is back within
            // `MAINTAIN_EVERY` (`docs/PROTOCOL.md` §12).
            BatchDisposition::Delay => {
                if self.parked_idle.swap(false, Ordering::AcqRel) {
                    self.wake_loop();
                }
                let (store, wait) = (self.store.as_ref(), Duration::from_secs(10));
                self.server.validate_blocking(header, store, wait)?;
            }
        }
        if self.config.validate_ownership {
            let keys = ops.iter().map(ClusterOp::key);
            if !self.ownership.validate_all(self.shard, keys) {
                return Err(DprError::NotOwner { shard: self.shard });
            }
        }
        // Held from before the batch executes until its dependencies are
        // recorded, so the commit pump cannot report a version the batch
        // executes in without them.
        let gate = self.config.dpr_enabled.then(|| self.server.enter());
        let executed = self
            .store
            .execute_batch_into(header.session, ops, results)?;
        if let Some(gate) = gate {
            // At the lowest version: a batch in flight at a checkpoint runs
            // its first operations in `v` and the rest in `v + 1`, and the
            // report of `v` must carry what those first operations rest on.
            gate.record(header, executed.lowest);
        }
        let version = executed.highest;
        self.executed_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        crate::metrics::batches().inc();
        crate::metrics::batch_ops().record(ops.len() as u64);
        if self.config.sync_commit {
            // Synchronous recoverability: group-commit and wait (§7.6).
            self.store.wait_durable(version, Duration::from_secs(10))?;
        }
        Ok(self.server.make_reply(header, version))
    }

    /// Stop background threads: wake the shard loop to end, and close the
    /// bus lanes the executors block on.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.wake_loop();
        self.net.close(self.endpoint);
    }

    /// Report the store's completed commits to the finder now, not at the
    /// shard loop's next wake-up: the last thing a worker leaving the
    /// cluster does (`Cluster::remove_worker`), lest the versions its
    /// migrations made durable go unreported.
    pub(crate) fn pump_commits(&self) {
        if self.config.dpr_enabled {
            let _ = self
                .server
                .pump_commits(self.store.as_ref(), self.finder.as_ref());
        }
    }

    /// Wake the shard loop before its next due time.
    fn wake_loop(&self) {
        if let Some(shard_loop) = self.shard_loop.get() {
            shard_loop.unpark();
        }
    }

    /// How often this worker's shard loop has woken.
    #[must_use]
    pub fn loop_wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// The DPR cut and its world-line, as a `CutReq` is answered (remote
    /// clients track commits without a side channel) and garbage collected:
    /// the finder's last publication, held in memory, while that is on this
    /// worker's world-line; between a rollback and the finder's next
    /// publication, the metadata store's, two statements. Never a cut of a
    /// world-line this worker has left (`docs/PROTOCOL.md` §11).
    pub fn read_cut(&self) -> Result<Arc<(WorldLine, dpr_metadata::Cut)>> {
        match self.finder.published() {
            Some(published) if published.0 == self.world_line() => Ok(published),
            _ => {
                let cut = self.meta.read_cut()?;
                Ok(Arc::new((self.meta.world_line()?, cut)))
            }
        }
    }

    /// The request path, the same on both planes: answer the `Request`
    /// frame `seq` carrying `body` by appending one frame to `out`. Decode
    /// into `scratch`, duplicate check, execute, encode, keep the encoded
    /// answer for duplicates to come: a `Response` with the batch's outcome,
    /// or `Error(DuplicateInFlight)` while an earlier copy still executes or
    /// while the session alone fills the reply cache, or `Error(BadFrame)`
    /// for a body that does not parse. Returns the code of an `Error`
    /// answer, for the link's own policy (a socket closes on an
    /// unrecoverable one). Nothing is allocated once the buffers are warm.
    pub(crate) fn serve_request(
        &self,
        seq: u64,
        body: &Bytes,
        scratch: &mut RequestScratch,
        out: &mut Vec<u8>,
    ) -> Option<ProtoErrorCode> {
        let refuse = |out: &mut Vec<u8>, code, detail: &str| {
            let detail = detail.into();
            ProtoError { code, detail }.encode(out, seq);
            Some(code)
        };
        scratch.clear();
        let RequestScratch {
            ops,
            results,
            header,
        } = scratch;
        if let Err(e) = wire::decode_request_body_into(body, ops, header) {
            return refuse(out, ProtoErrorCode::BadFrame, &e.to_string());
        }
        let start = out.len();
        let busy = ProtoErrorCode::DuplicateInFlight;
        // An empty batch has no effect to repeat, and no serial of its own to
        // be remembered by: the next batch starts where it does.
        let cache = self.dedupe.as_ref().filter(|_| header.op_count > 0);
        match cache.map(|c| c.admit(header, seq, out)) {
            None | Some(Admit::Fresh) => {}
            Some(Admit::Replayed) => return None,
            // Its connection died mid-batch, or a retransmission raced the
            // first copy: the client retries.
            Some(Admit::Executing) => return refuse(out, busy, "batch already executing"),
            Some(Admit::Refused) => {
                return refuse(out, busy, "the session alone fills dedupe_window")
            }
        }
        let outcome = self.execute_local_into(header, ops, results);
        let outcome = outcome.as_ref().map(|reply| (reply, &results[..]));
        wire::encode_response(out, self.shard.0, seq, outcome);
        if let Some(cache) = cache {
            cache.record(header, outcome.is_ok().then(|| &out[start..]));
        }
        None
    }

    /// The bus side of the request path. An endpoint is its own connection:
    /// there is no handshake, a `Request` frame is served and any other
    /// kind, or bytes that are no frame, answered `Error(BadFrame)`.
    fn serve_frame(&self, frame: &Bytes, scratch: &mut RequestScratch, out: &mut Vec<u8>) {
        let (seq, detail) = match wire::decode_header(frame) {
            Ok(Some(h)) if h.frame_len() != frame.len() => {
                (h.seq, "frame length differs from its header's".into())
            }
            Ok(Some(h)) if h.kind == FrameKind::Request => {
                let body = frame.slice(wire::FRAME_HEADER_LEN..frame.len());
                self.serve_request(h.seq, &body, scratch, out);
                return;
            }
            Ok(Some(h)) => (h.seq, format!("{:?} frame at a worker endpoint", h.kind)),
            Ok(None) => (0, "truncated frame header".into()),
            Err(e) => (0, e.to_string()),
        };
        let code = ProtoErrorCode::BadFrame;
        ProtoError { code, detail }.encode(out, seq);
    }

    /// One wake-up of the shard loop: the store's maintenance, then each duty
    /// that is due (`docs/PROTOCOL.md` §12). Returns when it is next due.
    fn loop_step(&self, due: &mut Due, now: Instant) -> Instant {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        crate::metrics::shard_loop_wakeups().inc();
        let mut busy = self.store.maintain();
        if let Some(interval) = self.config.checkpoint_interval {
            if now >= due.checkpoint {
                let target = if self.config.dpr_enabled && self.config.fast_forward {
                    self.finder.max_version().ok()
                } else {
                    None
                };
                let requested = self.store.request_commit(target);
                let period = interval + Duration::from_micros(due.jitter.below(2000));
                due.checkpoint = now + if requested { period } else { MAINTAIN_EVERY };
                busy |= requested;
            }
        }
        if self.config.dpr_enabled {
            self.pump_commits();
            // GC what the DPR cut has moved past (§5.5) — manifests, and the
            // log prefix a copy-forward pass has emptied — as soon as there
            // is any, reading the cut only then, as a `CutReq` reads it. A
            // failure is counted where it happens (`dpr_faster_gc_errors_total`)
            // and the next wake-up tries again.
            let cut = || self.read_cut().ok()?.1.get(&self.shard).copied();
            let _ = self.store.collect_garbage(&cut);
        }
        if now >= due.recovery {
            self.ownership.renew_leases(self.shard);
            self.check_recovery();
            due.recovery = now + RECOVERY_EVERY;
        }
        let mut next = due.recovery;
        if self.config.checkpoint_interval.is_some() {
            next = next.min(due.checkpoint);
        }
        if busy {
            next = next.min(now + MAINTAIN_EVERY);
        }
        next
    }

    /// Participate in cluster recovery (§4.1): if the cluster manager has
    /// begun a recovery we have not completed, roll back to the guaranteed
    /// cut, advance the world-line, and report completion.
    fn check_recovery(&self) {
        let Ok(Some(rec)) = self.meta.recovery_in_progress() else {
            return;
        };
        if !rec.pending.contains(&self.shard) || rec.world_line <= self.server.world_line() {
            return;
        }
        let target = rec.cut.get(&self.shard).copied().unwrap_or(Version::ZERO);
        if self.store.restore(target).is_ok() {
            self.server.on_restore();
            self.server.set_world_line(rec.world_line);
            // Cached replies carry the old world-line; never replay them
            // into the new one. (The finder's cut is fenced in `read_cut`.)
            if let Some(cache) = &self.dedupe {
                cache.clear();
            }
            crate::metrics::worker_rollbacks().inc();
            dpr_telemetry::global().span("dpr-cluster", "worker_rollback", || {
                format!(
                    "shard {} -> v{} (world-line {})",
                    self.shard.0, target.0, rec.world_line.0
                )
            });
            let _ = self.meta.report_rollback_complete(self.shard);
        }
    }
}

/// How often the shard loop wakes while work is in flight, and how often,
/// always, it renews its leases and checks for a recovery.
const MAINTAIN_EVERY: Duration = Duration::from_micros(200);
const RECOVERY_EVERY: Duration = Duration::from_millis(4);

/// When the shard loop's checkpoint request and recovery check are due.
struct Due {
    checkpoint: Instant,
    recovery: Instant,
    /// The checkpoint period's jitter, seeded by the shard: up to 2 ms,
    /// uniform, about what the poll this loop replaced (a 1 ms sleep plus
    /// the tick's own work) added to each period. Independent timers drift
    /// apart; exact ones would keep shards started together in step for
    /// good, which halves the fast-forward checkpoints on `crash` and
    /// doubles its `recommit_p50_ms` (`docs/PROTOCOL.md` §12).
    jitter: Rng,
}

/// Serve the frames of one lane, each once it is due, blocking until one is;
/// ends when the bus closes the lane ([`Worker::stop`]) or the worker is gone.
fn executor_loop(worker: &Weak<Worker>, inbox: &BusInbox) {
    let mut scratch = RequestScratch::new();
    let mut out = Vec::new();
    while let Ok(frame) = inbox.recv() {
        let Some(w) = worker.upgrade() else { return };
        out.clear();
        w.serve_frame(&frame.bytes, &mut scratch, &mut out);
        let answer = BusFrame {
            from: w.endpoint,
            bytes: Bytes::copy_from_slice(&out),
        };
        let _ = w.net.send(frame.from, answer);
    }
}

/// The shard's one background loop: a [`Worker::loop_step`] at each
/// wake-up, parked in between until the next due time or [`Worker::stop`].
fn shard_loop(worker: &Weak<Worker>, mut due: Due) {
    loop {
        let Some(w) = worker.upgrade() else { return };
        if w.stopped.load(Ordering::Acquire) {
            return;
        }
        let wait = w
            .loop_step(&mut due, Instant::now())
            .saturating_duration_since(Instant::now());
        w.parked_idle
            .store(wait > MAINTAIN_EVERY, Ordering::Release);
        drop(w);
        std::thread::park_timeout(wait);
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}
