//! Client-side session handle: routing, batching, windowing, commit
//! tracking, and failure recovery.
//!
//! A [`SessionHandle`] is the session core (`session.rs`: in-flight table,
//! reply handling, retransmission — the code a socket client runs too) over
//! the bus link, plus what belongs to a cluster session and to neither
//! plane: it knows who owns each key, reaches remote shards through the bus
//! and — in co-located mode — the local worker by direct call, which is the
//! "local execution" fast path of §5.2 (no frame, completes on the calling
//! thread), re-routes what an ownership change bounced, collects results,
//! and recovers against the metadata store.

use crate::message::{ClusterOp, OpResult};
use crate::session::{Link, PipelinedClient};
use crate::transport::{BusFrame, BusInbox, EndpointId, SimNetwork};
use crate::wire;
use crate::worker::Worker;
use bytes::Bytes;
use dpr_core::{DprError, Result, SessionId, ShardId, Version, WorldLine};
use dpr_metadata::{Cut, MetadataStore, OwnershipTable};
use libdpr::{BatchHeader, DprClientSession};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative per-session counters (the series of Fig. 16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Ops whose replies have arrived (completed, possibly uncommitted).
    pub completed: u64,
    /// Ops known durably committed via the DPR cut.
    pub committed: u64,
    /// Ops aborted by failures.
    pub aborted: u64,
}

type WorkerEndpoints = Arc<std::sync::RwLock<HashMap<ShardId, EndpointId>>>;

/// The ops of one [`SessionHandle::issue`] call bound for one shard, and
/// where in the call each came from.
struct Group {
    shard: ShardId,
    ops: Vec<ClusterOp>,
    positions: Vec<usize>,
}

/// The bus as a [`Link`]: this session's endpoint and inbox, and where each
/// shard's worker (or the proxy in front of it) listens. There is no
/// handshake: the endpoint is the connection.
pub(crate) struct BusLink {
    net: Arc<SimNetwork>,
    endpoint: EndpointId,
    inbox: BusInbox,
    workers: WorkerEndpoints,
}

impl Link for BusLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let shard = wire::decode_header(frame)?.map_or(wire::NO_SHARD, |h| h.shard);
        let to = self.workers.read().unwrap().get(&ShardId(shard)).copied();
        let to = to.ok_or_else(|| DprError::Invalid(format!("no worker for shard {shard}")))?;
        let frame = BusFrame {
            from: self.endpoint,
            bytes: Bytes::copy_from_slice(frame),
        };
        self.net.send(to, frame)
    }

    fn recv(&mut self, wait: Duration, rd: &mut Vec<u8>) -> Result<()> {
        let rest = std::iter::from_fn(|| self.inbox.try_recv().ok());
        for frame in self.inbox.recv_timeout(wait).ok().into_iter().chain(rest) {
            rd.extend_from_slice(&frame.bytes);
        }
        Ok(())
    }
}

/// A session's endpoint leaves the bus with it.
impl Drop for BusLink {
    fn drop(&mut self) {
        self.net.close(self.endpoint);
    }
}

/// A client session on a DPR cluster.
pub struct SessionHandle {
    core: PipelinedClient<BusLink>,
    ownership: Arc<OwnershipTable>,
    meta: Arc<dyn MetadataStore>,
    /// Co-located worker, if any: batches for its shard bypass the network.
    local: Option<Arc<Worker>>,
    completed_ops: u64,
    /// Results of completed ops not yet taken, by serial.
    last_results: Vec<(u64, OpResult)>,
    /// Buffers of `issue` and of the co-located call, kept between calls:
    /// a batch's owners, one group per shard seen so far (a handful), and a
    /// batch's results.
    owners: Vec<ShardId>,
    groups: Vec<Group>,
    local_results: Vec<OpResult>,
}

impl SessionHandle {
    /// Internal constructor — use `Cluster::open_session`.
    pub(crate) fn new(
        id: SessionId,
        world_line: WorldLine,
        net: Arc<SimNetwork>,
        ownership: Arc<OwnershipTable>,
        meta: Arc<dyn MetadataStore>,
        workers: WorkerEndpoints,
        local: Option<Arc<Worker>>,
    ) -> Self {
        let (endpoint, inbox) = net.register();
        let link = BusLink {
            net,
            endpoint,
            inbox,
            workers,
        };
        SessionHandle {
            core: PipelinedClient::new(DprClientSession::on_world_line(id, world_line), link),
            ownership,
            meta,
            local,
            completed_ops: 0,
            last_results: Vec::new(),
            owners: Vec::new(),
            groups: Vec::new(),
            local_results: Vec::new(),
        }
    }

    /// Session id.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.core.session().id()
    }

    /// This session's bus endpoint (chaos harness: install reply-dropping
    /// link faults with [`crate::SimNetwork::set_link_fault`] to exercise
    /// the resend/dedupe path).
    #[must_use]
    pub fn endpoint(&self) -> EndpointId {
        self.core.link.endpoint
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            completed: self.completed_ops,
            committed: self.core.session().committed_count(),
            aborted: self.core.session().aborted(),
        }
    }

    /// Ops issued but with no reply yet.
    #[must_use]
    pub fn inflight_ops(&self) -> u64 {
        self.core.inflight_ops()
    }

    /// Issue a batch of operations without waiting for completion. Ops are
    /// grouped by owning shard, read for the whole batch at once; groups for
    /// a co-located shard execute immediately on this thread, remote groups
    /// go over the bus.
    ///
    /// Returns the serial number assigned to each input op (grouping means
    /// serials are not in input order).
    pub fn issue(&mut self, ops: Vec<ClusterOp>) -> Result<Vec<u64>> {
        resolve_owners(&self.ownership, &ops, &mut self.owners)?;
        let Some(&shard) = self.owners.first() else {
            return Ok(Vec::new());
        };
        if self.owners.iter().all(|&owner| owner == shard) {
            // One owner (a co-located session's every batch): the batch is
            // the caller's vector, as it stands.
            let first_serial = self.core.session().issued();
            self.dispatch(shard, None, &ops)?;
            return Ok((first_serial..first_serial + ops.len() as u64).collect());
        }
        // Group ops by owner, preserving intra-shard order and remembering
        // where each op came from.
        let mut serials = vec![0u64; ops.len()];
        let mut groups = std::mem::take(&mut self.groups);
        for (idx, (op, &owner)) in ops.into_iter().zip(&self.owners).enumerate() {
            let at = groups.iter().position(|g| g.shard == owner);
            let at = at.unwrap_or_else(|| {
                groups.push(Group {
                    shard: owner,
                    ops: Vec::new(),
                    positions: Vec::new(),
                });
                groups.len() - 1
            });
            groups[at].ops.push(op);
            groups[at].positions.push(idx);
        }
        let mut sent = Ok(());
        for group in &mut groups {
            if sent.is_ok() && !group.ops.is_empty() {
                let first_serial = self.core.session().issued();
                for (pos, &idx) in group.positions.iter().enumerate() {
                    serials[idx] = first_serial + pos as u64;
                }
                sent = self.dispatch(group.shard, None, &group.ops);
            }
            group.ops.clear();
            group.positions.clear();
        }
        self.groups = groups;
        sent.map(|()| serials)
    }

    /// Send `ops` to `shard` as one batch: a fresh one, or with `rebatch` a
    /// re-route under the serials they already hold, starting there. A batch
    /// the co-located worker refuses for ownership keeps the serials it
    /// holds, so that the session's committed prefix can pass them: it is
    /// re-routed at once to the owners the table names now, as a remote
    /// refusal is when it comes back. Where the table still names this
    /// worker, its lease has lapsed until its shard loop renews it
    /// (`docs/PROTOCOL.md` §7): the batch is retried here after a wait, as
    /// an un-owned partition is, and `NotOwner` is returned if the lease is
    /// not renewed in time.
    fn dispatch(&mut self, shard: ShardId, rebatch: Option<u64>, ops: &[ClusterOp]) -> Result<()> {
        if self.local.as_ref().is_none_or(|w| w.shard() != shard) {
            return self.core.issue_as(shard, rebatch, ops).map(|_| ());
        }
        // Co-located fast path: execute synchronously in-thread, no frame.
        let session = self.core.session_mut();
        let header = match rebatch {
            Some(serial) => session.rebatch_header(shard, serial, ops.len() as u32),
            None => session.begin_batch(shard, ops.len() as u32)?,
        };
        let mut owners = Vec::new();
        let sent = crate::poll_until(OWNER_RETRY_FOR, OWNER_RETRY_WAIT, || {
            match self.execute_local(&header, ops) {
                Err(DprError::NotOwner { .. }) => {}
                done => return done.map(Some),
            }
            resolve_owners(&self.ownership, ops, &mut owners)?;
            if owners.iter().any(|&owner| owner != shard) {
                // What goes back to this worker is a strict part of `ops`,
                // so a refusal recurses at most once per op.
                return self.reroute(header.first_serial, ops, &owners).map(Some);
            }
            Ok(None)
        })?;
        sent.ok_or(DprError::NotOwner { shard })
    }

    /// Execute a batch on the co-located worker and take in its reply.
    fn execute_local(&mut self, header: &BatchHeader, ops: &[ClusterOp]) -> Result<()> {
        let local = self.local.as_ref().expect("a co-located session");
        let results = &mut self.local_results;
        results.clear();
        match local.execute_local_into(header, ops, results) {
            Ok(reply) => {
                self.core.session_mut().process_reply(&reply)?;
                self.completed_ops += u64::from(reply.op_count);
                let serials = header.first_serial..;
                self.last_results.extend(serials.zip(results.drain(..)));
                Ok(())
            }
            Err(e) => {
                if let DprError::WorldLineMismatch { current, .. } = e {
                    // Surface failure exactly like a remote rejection.
                    self.core.world_line_moved(current);
                }
                Err(e)
            }
        }
    }

    /// Drain available replies. With `block`, waits up to `timeout` for
    /// replies to arrive if any ops are in flight. Returns the number of ops
    /// completed by this call.
    ///
    /// Once a world-line mismatch has been seen (failure detected), returns
    /// [`DprError::WorldLineMismatch`] until [`SessionHandle::recover`] has
    /// run.
    pub fn poll(&mut self, block: bool, timeout: Duration) -> Result<u64> {
        let wait = if block && self.core.inflight_ops() > 0 {
            timeout
        } else {
            Duration::ZERO
        };
        let mut completed = 0u64;
        let mut failure = None;
        // Request frames of batches an ownership change bounced (§5.3).
        let mut bounced = Vec::new();
        let results = &mut self.last_results;
        let polled = self.core.poll_each(wait, |done| match done.result {
            Ok(ops) => {
                completed += ops.len() as u64;
                results.extend((done.first_serial..).zip(ops.iter().cloned()));
            }
            Err(DprError::NotOwner { .. }) => bounced.push(done.request.to_vec()),
            Err(e @ DprError::WorldLineMismatch { .. }) => failure = Some(e),
            // Other rejections: the batch is dropped; its serial hole
            // resolves at the next failure handling or is retried by the
            // application.
            Err(_) => {}
        });
        self.completed_ops += completed;
        for frame in bounced {
            self.reroute_frame(&frame)?;
        }
        polled?;
        failure.map_or(Ok(completed), Err)
    }

    /// Re-route `ops`, which hold the serials from `first_serial` on, to
    /// `owners`, theirs now (§5.3): each run of ops with one owner as one
    /// batch under its original serials.
    fn reroute(&mut self, first_serial: u64, ops: &[ClusterOp], owners: &[ShardId]) -> Result<()> {
        let mut at = 0;
        while at < ops.len() {
            let shard = owners[at];
            let run = owners[at..].iter().take_while(|&&o| o == shard).count();
            self.dispatch(shard, Some(first_serial + at as u64), &ops[at..at + run])?;
            at += run;
        }
        Ok(())
    }

    /// [`SessionHandle::reroute`] the ops of an encoded `Request` frame to
    /// whoever owns their keys now.
    fn reroute_frame(&mut self, frame: &[u8]) -> Result<()> {
        let body = Bytes::copy_from_slice(&frame[wire::FRAME_HEADER_LEN..]);
        let mut header = self.core.session().rebatch_header(ShardId(0), 0, 0);
        let mut ops = Vec::new();
        wire::decode_request_body_into(&body, &mut ops, &mut header)?;
        let mut owners = Vec::with_capacity(ops.len());
        resolve_owners(&self.ownership, &ops, &mut owners)?;
        self.reroute(header.first_serial, &ops, &owners)
    }

    /// Retransmit every in-flight batch whose reply has been outstanding
    /// for at least `older_than` — the request or its reply may have been
    /// dropped by a lossy link, or the shard was mid-recovery when it
    /// arrived. Retransmitting non-idempotent ops is safe only when workers
    /// run duplicate suppression (a [`crate::ClusterConfig::dedupe_window`]
    /// above 0). Batches whose worker endpoint disappeared (membership
    /// churn) are re-routed by current ownership instead. Returns the number
    /// of batches resent.
    pub fn resend_stalled(&mut self, older_than: Duration) -> Result<usize> {
        let workers = self.core.link.workers.clone();
        let gone = |shard| !workers.read().unwrap().contains_key(&shard);
        let (departed, resent) = self.core.retransmit_stalled_unless(older_than, gone);
        // Every departed frame is re-routed before an error is returned:
        // nothing else holds their serials now.
        let mut rerouted = Ok(departed.len());
        for frame in &departed {
            if let Err(e) = self.reroute_frame(frame) {
                rerouted = rerouted.and(Err(e));
            }
        }
        Ok(resent? + rerouted?)
    }

    /// Take the results accumulated by completed ops (serial, result),
    /// sorted by serial.
    pub fn take_results(&mut self) -> Vec<(u64, OpResult)> {
        let mut out = std::mem::take(&mut self.last_results);
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Execute ops synchronously, returning results in op order.
    pub fn execute(&mut self, ops: Vec<ClusterOp>) -> Result<Vec<OpResult>> {
        let n = ops.len();
        self.take_results();
        let serials = self.issue(ops)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.core.inflight_ops() > 0 {
            self.poll(true, Duration::from_millis(100))?;
            if Instant::now() > deadline {
                return Err(DprError::Timeout);
            }
        }
        let by_serial: HashMap<u64, OpResult> = self.take_results().into_iter().collect();
        let mut out = Vec::with_capacity(n);
        for s in serials {
            match by_serial.get(&s) {
                Some(r) => out.push(r.clone()),
                None => return Err(DprError::Invalid(format!("missing result for serial {s}"))),
            }
        }
        Ok(out)
    }

    /// Advance the committed prefix against `cut`, a DPR cut the caller has
    /// just read, returning the resolved watermark — but only while the
    /// cluster is on this session's world-line, which this reads from the
    /// metadata store next. On a mismatch nothing is applied and the prefix
    /// stands; call [`SessionHandle::recover`]. Read in that order, the pair
    /// is safe: a cut read before any transition the session has not seen
    /// cannot cover the post-rollback version numbers that alias purged ones.
    pub fn refresh_commit(&mut self, cut: &Cut) -> u64 {
        let prefix = self.core.session().committed_prefix();
        self.refresh_on_world_line(cut).unwrap_or(prefix)
    }

    /// Read the current cut from the metadata store and apply it as
    /// [`SessionHandle::refresh_commit`] does, saying so on a world-line
    /// mismatch.
    pub fn refresh_commit_safe(&mut self) -> Result<u64> {
        let cut = self.meta.read_cut()?;
        self.refresh_on_world_line(&cut)
    }

    fn refresh_on_world_line(&mut self, cut: &Cut) -> Result<u64> {
        let current = self.meta.world_line()?;
        let mine = self.core.session().world_line();
        if current != mine {
            return Err(DprError::WorldLineMismatch {
                requested: mine,
                current,
            });
        }
        Ok(self.core.session_mut().refresh_commit(cut))
    }

    /// Wait until every issued op is committed per the cut source `read`,
    /// applied as [`SessionHandle::refresh_commit`] does: a recovery the
    /// session has not seen ends the wait with a world-line mismatch.
    pub fn wait_all_committed(
        &mut self,
        read_cut: impl Fn() -> Cut,
        timeout: Duration,
    ) -> Result<()> {
        let committed = crate::poll_until(timeout, Duration::from_micros(200), || {
            let _ = self.poll(false, Duration::ZERO);
            let prefix = self.refresh_on_world_line(&read_cut())?;
            Ok((prefix >= self.core.session().issued()).then_some(()))
        })?;
        committed.ok_or(DprError::Timeout)
    }

    /// Recover from a failure: wait for cluster recovery to finish, adopt
    /// the new world-line, and compute the surviving prefix. Returns the
    /// number of this session's ops that survived.
    pub fn recover(&mut self, timeout: Duration) -> Result<u64> {
        // Wait until the cluster manager reports recovery complete.
        crate::manager::wait_no_recovery(&*self.meta, timeout)?;
        let world_line = self.meta.world_line()?;
        let mut cut = self.meta.read_cut()?;
        // Version numbers are ambiguous across world-lines: after rollback,
        // shards resume at `v_lost + 1` and the cut advances again the
        // moment recovery completes, so by now it may cover version numbers
        // the rollback *purged*. Cap each shard's entry by the cut frozen at
        // every world-line transition this session is crossing — only
        // operations below all of those survived.
        let prev = self.core.session().world_line();
        for w in (prev.0 + 1)..=world_line.0 {
            if let Some(frozen) = self.meta.recovery_cut(WorldLine(w))? {
                for (shard, v) in cut.iter_mut() {
                    // A shard absent from the frozen cut did not exist at
                    // the transition, so nothing from before it survives.
                    let cap = frozen.get(shard).copied().unwrap_or(Version::ZERO);
                    *v = (*v).min(cap);
                }
            }
        }
        // What was in flight is resolved by the recovery; late replies to
        // it are discarded as duplicates.
        self.core.abandon_inflight();
        Ok(self.core.session_mut().handle_failure(world_line, &cut))
    }

    /// The session's current world-line.
    #[must_use]
    pub fn world_line(&self) -> WorldLine {
        self.core.session().world_line()
    }
}

/// How long a client waits for ownership to settle (a partition
/// mid-transfer, a co-located worker's lapsed lease) before it gives up, and
/// how often it looks again meanwhile.
const OWNER_RETRY_FOR: Duration = Duration::from_secs(1);
const OWNER_RETRY_WAIT: Duration = Duration::from_micros(500);

/// Resolve the owners of `ops` into `owners` with one read of the table per
/// attempt, retrying while a partition of theirs is mid-transfer
/// (temporarily un-owned, §5.3: "the client retries until the transfer is
/// complete").
fn resolve_owners(
    ownership: &OwnershipTable,
    ops: &[ClusterOp],
    owners: &mut Vec<ShardId>,
) -> Result<()> {
    let resolved = crate::poll_until(OWNER_RETRY_FOR, OWNER_RETRY_WAIT, || {
        owners.clear();
        let keys = ops.iter().map(ClusterOp::key);
        Ok(ownership.owners_into(keys, owners).is_ok().then_some(()))
    })?;
    resolved.ok_or_else(|| {
        DprError::Invalid(format!(
            "partition for {} stuck un-owned",
            ops[owners.len()].key()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::{Key, SimClock, Value};

    /// The bus carries the format `docs/NETWORK.md` specifies: what the core
    /// encodes reaches the endpoint its shard maps to byte for byte, with
    /// the sender's address on it. (What a worker's endpoint answers is
    /// checked against the document in `tests/wire_format.rs`.)
    #[test]
    fn the_bus_link_delivers_wire_frames_untouched() {
        let net = SimNetwork::new(Duration::ZERO);
        let (worker, worker_inbox) = net.register(); // stands in for shard 3
        let (endpoint, inbox) = net.register();
        let link = BusLink {
            net,
            endpoint,
            inbox,
            workers: Arc::new(std::sync::RwLock::new([(ShardId(3), worker)].into())),
        };
        let mut core = PipelinedClient::new(DprClientSession::new(SessionId(7)), link);
        let ops = [
            ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(2)),
            ClusterOp::Read(Key::from_u64(1)),
        ];
        let seq = core.issue(ShardId(3), &ops).unwrap();
        let header = DprClientSession::new(SessionId(7)).begin_batch(ShardId(3), 2);
        let mut want = Vec::new();
        wire::encode_request(&mut want, ShardId(3), seq, &header.unwrap(), &ops);
        let got = worker_inbox.try_recv().unwrap();
        assert_eq!((got.from, &got.bytes[..]), (endpoint, &want[..]));
        assert!(
            core.issue(ShardId(4), &ops).is_err(),
            "no endpoint, no send"
        );
    }

    /// A co-located worker whose lease has lapsed refuses batches the table
    /// still routes to it (`docs/PROTOCOL.md` §7). Its session waits for the
    /// lease to be renewed, retrying the batch under the serials it holds,
    /// and gives up with `NotOwner` if it is not: it neither sends the batch
    /// back to the same worker without end nor hands the caller a refusal
    /// the shard loop is about to lift.
    #[test]
    fn a_colocated_batch_waits_out_a_lapsed_lease() {
        let net = SimNetwork::new(Duration::ZERO);
        let clock = SimClock::new();
        let lease = Duration::from_secs(10);
        let ownership = Arc::new(OwnershipTable::new(
            dpr_metadata::Partitioner::Hash { partitions: 4 },
            Arc::new(clock.clone()),
            lease,
        ));
        let meta: Arc<dyn MetadataStore> = Arc::new(dpr_metadata::PartitionedSqlStore::new(1));
        let kv = dpr_faster::FasterKv::new(
            dpr_faster::FasterConfig::default(),
            Arc::new(dpr_storage::MemLogDevice::null()),
            Arc::new(dpr_storage::MemBlobStore::new()),
        );
        let worker = Worker::start(
            ShardId(0),
            Arc::new(crate::dfaster::FasterShard::new(ShardId(0), kv)),
            net.clone(),
            ownership.clone(),
            meta.clone(),
            Arc::new(libdpr::ExactFinder::new(meta.clone())),
            crate::worker::WorkerConfig::default(),
        )
        .unwrap();
        ownership.assign_round_robin(&[ShardId(0)]);
        let mut session = SessionHandle::new(
            SessionId(1),
            meta.world_line().unwrap(),
            net,
            ownership.clone(),
            meta,
            Arc::default(),
            Some(worker.clone()),
        );
        // No shard loop renews the lease from here on.
        worker.stop();
        std::thread::sleep(Duration::from_millis(20));
        let batch = |v| {
            (0..256)
                .map(|i| ClusterOp::Upsert(Key::from_u64(i), Value::from_u64(v)))
                .collect::<Vec<_>>()
        };
        session.issue(batch(1)).unwrap();

        // Lapsed, and renewed 50 ms later: the batch goes through.
        clock.advance(lease + Duration::from_secs(1));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                ownership.renew_leases(ShardId(0));
            });
            let serials = session.issue(batch(2)).unwrap();
            assert_eq!(serials, (256..512).collect::<Vec<_>>());
        });
        assert_eq!(session.take_results().len(), 512);

        // Lapsed for good: `NotOwner`, after the owner retries' wait.
        clock.advance(lease + Duration::from_secs(1));
        let t0 = Instant::now();
        match session.issue(batch(3)) {
            Err(DprError::NotOwner { shard }) => assert_eq!(shard, ShardId(0)),
            other => panic!("expected NotOwner, got {other:?}"),
        }
        assert!(t0.elapsed() >= OWNER_RETRY_FOR);
    }

    /// A dropped session leaves the bus: after 1,000 sessions, each with a
    /// round trip, it holds the workers' endpoints and their floors alone.
    #[test]
    fn a_dropped_session_leaves_the_bus() {
        let cluster = crate::Cluster::start(crate::ClusterConfig::default()).unwrap();
        for k in 0..1000 {
            let read = vec![ClusterOp::Read(Key::from_u64(k))];
            cluster.open_session().unwrap().execute(read).unwrap();
        }
        let [endpoints, floors] = cluster.network().tables();
        assert_eq!(endpoints, cluster.workers().len());
        assert!(floors <= endpoints, "{floors} FIFO floors");
    }
}
