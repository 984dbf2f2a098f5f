//! The client half of the protocol, written once for both planes.
//!
//! [`PipelinedClient`] drives one [`DprClientSession`] over a [`Link`]: it
//! stamps and encodes batches ([`crate::wire`]), keeps every unanswered one
//! in an in-flight table keyed by the frame's `seq` (the record *is* the
//! encoded frame, so a retransmission rewrites the identical bytes), matches
//! answers to it, feeds replies to the session and discards duplicates. Each
//! batch carries the acknowledgement the server's reply cache is emptied by:
//! the lowest first serial in that table (`docs/NETWORK.md` §6).
//! What differs between a socket and the simulated bus is how bytes move,
//! the link's two methods: over [`crate::tcp::TcpLink`] this is the client
//! the benchmark's TCP workloads drive, over the bus link it is the inside
//! of a [`crate::SessionHandle`]. One reply policy on both
//! (`docs/NETWORK.md` §6–§7; [`PipelinedClient::poll_each`]), and nothing
//! allocated per batch in steady state: frames encode into recycled
//! buffers, and the session's [`FrameReader`] hands out response bodies as
//! views of the one allocation it reuses.

use crate::message::{ClusterOp, OpResult};
use crate::wire::{self, CutResponse, FrameKind, FrameReader, ProtoError, ProtoErrorCode};
use dpr_core::{DprError, Result, ShardId, Version, WorldLine};
use libdpr::{BatchHeader, BatchReply, DprClientSession, SessionStatus};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Encoded-request buffers a core keeps for reuse once their batch completes.
const SPARE_BUFFERS: usize = 256;

/// How encoded frames reach the server side and come back.
pub(crate) trait Link {
    /// Write one encoded frame; its header's `shard` says where it goes.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Append whatever arrives within `wait` to `rd`. A zero `wait` takes
    /// what is already there and never blocks.
    fn recv(&mut self, wait: Duration, rd: &mut Vec<u8>) -> Result<()>;
}

/// One batch awaiting its response.
///
/// Holds the *encoded frame bytes* — which double as the retransmission
/// record, so retries rewrite the identical frame without re-encoding —
/// plus the scalar header facts the completion path needs. The buffer is
/// recycled into the core's spare list when the batch completes.
struct InflightBatch {
    /// The encoded `Request` frame, exactly as first sent.
    bytes: Vec<u8>,
    shard: ShardId,
    first_serial: u64,
    op_count: u32,
    issued_at: Instant,
    sent_at: Instant,
}

/// A completed batch surfaced by [`PipelinedClient::poll_each`] —
/// results borrow the client's reused decode scratch, so the steady-state
/// completion path allocates nothing.
pub struct CompletedRef<'a> {
    /// The wire sequence number (as returned by [`PipelinedClient::issue`]).
    pub seq: u64,
    /// Serial of the first op in the batch.
    pub first_serial: u64,
    /// When the batch was first issued (for latency accounting).
    pub issued_at: Instant,
    /// The encoded `Request` frame this answers: a caller that must send a
    /// rejected batch elsewhere decodes its ops back out of it.
    pub request: &'a [u8],
    /// Per-op results, or the batch's rejection.
    pub result: std::result::Result<&'a [OpResult], DprError>,
}

/// A pipelined client session over one link to the server side: many
/// batches in flight, explicit polling, duplicate-safe retransmission. The
/// windowing policy (how many batches to keep in flight) belongs to the
/// caller — typically the benchmark's generator. Without a type argument it
/// is the TCP client ([`PipelinedClient::connect`]).
pub struct PipelinedClient<L = crate::tcp::TcpLink> {
    session: DprClientSession,
    pub(crate) link: L,
    /// Received bytes, split into frames.
    rd: FrameReader,
    next_seq: u64,
    inflight: HashMap<u64, InflightBatch>,
    /// Sum of `op_count` over `inflight`.
    inflight_ops: u64,
    /// `(first_serial, seq)` of every batch issued, lowest serial on top; an
    /// answered batch's pair stays until it surfaces or the heap is swept
    /// (see [`PipelinedClient::lowest_unanswered`]).
    by_serial: BinaryHeap<Reverse<(u64, u64)>>,
    /// Recycled encode buffers from completed batches.
    spare: Vec<Vec<u8>>,
    /// Reused header for issuing (deps vector rebuilt in place).
    header_scratch: BatchHeader,
    /// Reused results buffer for decoding responses.
    results_scratch: Vec<OpResult>,
}

#[allow(private_bounds)] // `Link` is sealed: the two links are this crate's
impl<L: Link> PipelinedClient<L> {
    pub(crate) fn new(session: DprClientSession, link: L) -> PipelinedClient<L> {
        PipelinedClient {
            header_scratch: session.rebatch_header(ShardId(0), 0, 0),
            session,
            link,
            rd: FrameReader::default(),
            next_seq: 1,
            inflight: HashMap::new(),
            inflight_ops: 0,
            by_serial: BinaryHeap::new(),
            spare: Vec::new(),
            results_scratch: Vec::new(),
        }
    }

    pub(crate) fn session(&self) -> &DprClientSession {
        &self.session
    }

    /// The underlying DPR session.
    pub fn session_mut(&mut self) -> &mut DprClientSession {
        &mut self.session
    }

    /// Batches issued but not yet completed.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Ops in those batches.
    pub(crate) fn inflight_ops(&self) -> u64 {
        self.inflight_ops
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS {
            bytes.clear();
            self.spare.push(bytes);
        }
    }

    /// The lowest first serial in the in-flight table, found without a scan
    /// of it: pairs of answered batches are popped off the heap as they
    /// surface, one or two an issue in steady state.
    fn lowest_unanswered(&mut self) -> Option<u64> {
        while let Some(&Reverse((serial, seq))) = self.by_serial.peek() {
            if self.inflight.contains_key(&seq) {
                return Some(serial);
            }
            self.by_serial.pop();
        }
        None
    }

    /// Issue one batch without waiting; returns its wire sequence number.
    ///
    /// The ops are encoded straight into a recycled buffer (kept as the
    /// retransmission record until the batch completes), so callers can
    /// reuse their own op buffers across calls — steady state allocates
    /// nothing.
    pub fn issue(&mut self, shard: ShardId, ops: &[ClusterOp]) -> Result<u64> {
        self.issue_as(shard, None, ops)
    }

    /// [`PipelinedClient::issue`], or with `rebatch` a re-send of ops under
    /// the serials they already hold, starting there (a re-route after an
    /// ownership change).
    pub(crate) fn issue_as(
        &mut self,
        shard: ShardId,
        rebatch: Option<u64>,
        ops: &[ClusterOp],
    ) -> Result<u64> {
        let op_count = ops.len() as u32;
        match rebatch {
            Some(serial) => {
                self.header_scratch = self.session.rebatch_header(shard, serial, op_count)
            }
            None => self
                .session
                .begin_batch_into(shard, op_count, &mut self.header_scratch)?,
        }
        let seq = self.take_seq();
        // The minimum over the table with this batch in it, taken anew at
        // every issue: a re-routed batch comes back under its old serial and
        // pulls the acknowledgement down again.
        let first_serial = self.header_scratch.first_serial;
        let lowest = self.lowest_unanswered();
        self.header_scratch.acked_below = lowest.map_or(first_serial, |s| s.min(first_serial));
        let mut bytes = self.spare.pop().unwrap_or_default();
        wire::encode_request(&mut bytes, shard, seq, &self.header_scratch, ops);
        let now = Instant::now();
        let record = InflightBatch {
            bytes,
            shard,
            first_serial,
            op_count,
            issued_at: now,
            sent_at: now,
        };
        // In the table before the write: a send the link refuses leaves a
        // batch that holds serials, and the stall scan owns it from here.
        let sent = self.link.send(&record.bytes);
        self.inflight_ops += u64::from(op_count);
        self.inflight.insert(seq, record);
        self.by_serial.push(Reverse((first_serial, seq)));
        if self.by_serial.len() > 2 * self.inflight.len() + 64 {
            // One batch stuck below a stream of answered ones, whose pairs
            // therefore never surface: sweep them, at a cost per issue that
            // stays constant.
            let inflight = &self.inflight;
            self.by_serial
                .retain(|&Reverse((_, seq))| inflight.contains_key(&seq));
        }
        sent.map(|()| seq)
    }

    /// Fire-and-forget cut query; the answer is applied to the session's
    /// committed prefix inside [`PipelinedClient::poll_each`] when it arrives.
    pub fn request_cut(&mut self) -> Result<()> {
        let seq = self.take_seq();
        let mut frame = self.spare.pop().unwrap_or_default();
        wire::encode_control(&mut frame, FrameKind::CutReq, seq);
        let sent = self.link.send(&frame);
        self.recycle(frame);
        sent
    }

    fn remove(&mut self, seq: u64) -> Option<InflightBatch> {
        let batch = self.inflight.remove(&seq)?;
        self.inflight_ops -= u64::from(batch.op_count);
        Some(batch)
    }

    /// Drain ready responses, waiting up to `wait` for bytes to arrive; a
    /// zero `wait` takes what has already arrived and never blocks.
    ///
    /// Each completion (in order of completion) is handed to `f` as a
    /// [`CompletedRef`] whose results borrow a reused decode buffer, so the
    /// steady state allocates nothing; returns the number delivered. A
    /// `Response` to a batch no longer in flight is a duplicate and dropped;
    /// a `CutResp` advances the session's committed prefix; a batch the
    /// server cannot take yet (`Error(DuplicateInFlight)`, a `Recovering`
    /// rejection) stays in flight for
    /// [`PipelinedClient::retransmit_stalled`]; any other rejection
    /// completes its batch with that error. A world-line mismatch — the
    /// cluster failed and recovered underneath us — also moves the session
    /// to `NeedsRecovery`, and is then returned by every idle call until the
    /// caller has moved the session ([`PipelinedClient::session_mut`]) to
    /// the new world-line with `handle_failure`.
    pub fn poll_each(
        &mut self,
        wait: Duration,
        mut f: impl FnMut(CompletedRef<'_>),
    ) -> Result<usize> {
        self.link.recv(wait, self.rd.buffer())?;
        let mut delivered = 0usize;
        loop {
            // The last body's views go before the next body is asked for, or
            // the reader cannot reuse its allocation (`docs/NETWORK.md` §9).
            self.results_scratch.clear();
            let Some((header, body)) = self.rd.next_frame()? else {
                break;
            };
            match header.kind {
                FrameKind::Response => {
                    // Scratch is moved out so the borrow handed to `f`
                    // cannot alias the core while it runs.
                    let mut results = std::mem::take(&mut self.results_scratch);
                    let completed = match wire::decode_response_body(&body, &mut results) {
                        Ok(outcome) => self.complete(header.seq, outcome),
                        Err(e) => {
                            self.results_scratch = results;
                            return Err(e);
                        }
                    };
                    if let Some((batch, verdict)) = completed {
                        f(CompletedRef {
                            seq: header.seq,
                            first_serial: batch.first_serial,
                            issued_at: batch.issued_at,
                            request: &batch.bytes,
                            result: verdict.map(|()| results.as_slice()),
                        });
                        delivered += 1;
                        self.recycle(batch.bytes);
                    }
                    self.results_scratch = results;
                }
                FrameKind::CutResp => {
                    let resp = CutResponse::from_body(&body)?;
                    if resp.world_line == self.session.world_line() {
                        self.session.refresh_commit(&resp.cut);
                    }
                }
                FrameKind::Error => {
                    let err = ProtoError::from_body(&body)?;
                    // Retryable: the batch stays in flight and will be
                    // retransmitted by `retransmit_stalled`.
                    if err.code != ProtoErrorCode::DuplicateInFlight {
                        return Err(err.to_dpr_error());
                    }
                }
                FrameKind::Goodbye => return Err(DprError::Closed),
                k => {
                    return Err(DprError::Invalid(format!(
                        "unexpected frame {k:?} at a client"
                    )))
                }
            }
        }
        match self.session.status() {
            SessionStatus::NeedsRecovery { new_world_line } if delivered == 0 => {
                Err(DprError::WorldLineMismatch {
                    requested: self.session.world_line(),
                    current: new_world_line,
                })
            }
            _ => Ok(delivered),
        }
    }

    /// Apply the answer to batch `seq`: `None` when it completes nothing (a
    /// duplicate answer, or a refusal that leaves the batch in flight), else
    /// the batch taken out of the table and what its caller is told.
    fn complete(
        &mut self,
        seq: u64,
        outcome: std::result::Result<BatchReply, DprError>,
    ) -> Option<(InflightBatch, std::result::Result<(), DprError>)> {
        if matches!(outcome, Err(DprError::Recovering)) {
            return None; // server mid-recovery: not executed, retry later
        }
        let batch = self.remove(seq)?;
        let verdict = match outcome {
            Ok(reply) => self.session.process_reply(&reply),
            Err(e) => {
                if let DprError::WorldLineMismatch { current, .. } = e {
                    self.world_line_moved(current);
                }
                Err(e)
            }
        };
        Some((batch, verdict))
    }

    /// A world-line rejection carries no reply header: tell the session
    /// itself that the cluster is on `current` now.
    pub(crate) fn world_line_moved(&mut self, current: WorldLine) {
        if current > self.session.world_line() {
            let _ = self.session.process_reply(&BatchReply {
                shard: ShardId(u32::MAX),
                world_line: current,
                version: Version::ZERO,
                first_serial: 0,
                op_count: 0,
            });
        }
    }

    /// Retransmit every batch whose response has been outstanding for at
    /// least `older_than`. Safe for non-idempotent ops only when the
    /// server runs duplicate suppression (`dedupe_window > 0`); see
    /// `docs/NETWORK.md` §6. Returns the number retransmitted.
    ///
    /// Resends are the stored frame bytes verbatim — same seq, same
    /// serials — which is what makes them safe to dedupe server-side.
    pub fn retransmit_stalled(&mut self, older_than: Duration) -> Result<usize> {
        let resent = self.retransmit_stalled_unless(older_than, |_| false)?;
        Ok(resent.0)
    }

    /// [`PipelinedClient::retransmit_stalled`], except that a stalled batch
    /// addressed to a shard `gone` says nobody answers for any more is taken
    /// out of the table instead; returns how many were resent, and the
    /// frames of those taken.
    pub(crate) fn retransmit_stalled_unless(
        &mut self,
        older_than: Duration,
        gone: impl Fn(ShardId) -> bool,
    ) -> Result<(usize, Vec<Vec<u8>>)> {
        let now = Instant::now();
        let stalled: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, b)| now.duration_since(b.sent_at) >= older_than)
            .map(|(&seq, _)| seq)
            .collect();
        let mut taken = Vec::new();
        for &seq in &stalled {
            let batch = self.inflight.get_mut(&seq).expect("collected above");
            if gone(batch.shard) {
                taken.extend(self.remove(seq).map(|batch| batch.bytes));
            } else {
                batch.sent_at = now;
                self.link.send(&batch.bytes)?;
            }
        }
        Ok((stalled.len() - taken.len(), taken))
    }

    /// Forget every in-flight batch (the session's recovery resolves their
    /// serials); late answers to them are discarded as duplicates.
    pub(crate) fn abandon_inflight(&mut self) {
        self.inflight.clear();
        self.inflight_ops = 0;
        self.by_serial.clear();
    }

    /// Carry on over a fresh link: unparsed bytes of the old one are dropped
    /// and every in-flight batch is retransmitted.
    pub(crate) fn relink(&mut self, link: L) -> Result<()> {
        self.link = link;
        self.rd = FrameReader::default();
        self.retransmit_stalled(Duration::ZERO).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::{Key, Rng, SessionId, Value};

    /// A link that keeps what is written and delivers what the test queues.
    #[derive(Default)]
    struct Scripted {
        sent: Vec<Vec<u8>>,
        arriving: Vec<u8>,
    }

    impl Link for Scripted {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.sent.push(frame.to_vec());
            Ok(())
        }

        fn recv(&mut self, _wait: Duration, rd: &mut Vec<u8>) -> Result<()> {
            rd.append(&mut self.arriving);
            Ok(())
        }
    }

    const SHARD: ShardId = ShardId(3);

    type Core = PipelinedClient<Scripted>;

    /// Queue the shard's answer to batch `seq` (first serial `seq - 1`).
    fn answer(core: &mut Core, seq: u64, world_line: u64, outcome: Option<DprError>) {
        let reply = BatchReply {
            shard: SHARD,
            world_line: WorldLine(world_line),
            version: Version(1),
            first_serial: seq - 1,
            op_count: 1,
        };
        let outcome = outcome
            .as_ref()
            .map_or(Ok((&reply, &[OpResult::Done][..])), Err);
        wire::encode_response(&mut core.link.arriving, SHARD.0, seq, outcome);
    }

    /// Poll once; the seqs completed, each with whether it succeeded.
    fn poll(core: &mut Core) -> Result<Vec<(u64, bool)>> {
        let mut done = Vec::new();
        core.poll_each(Duration::ZERO, |c| done.push((c.seq, c.result.is_ok())))?;
        Ok(done)
    }

    #[test]
    fn one_reply_policy_over_a_scripted_link() {
        let mut core = Core::new(DprClientSession::new(SessionId(7)), Scripted::default());
        let ops = [ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(2))];
        for _ in 0..4 {
            core.issue(SHARD, &ops).unwrap();
        }
        // What the link is handed is the documented frame, byte for byte.
        let header = DprClientSession::new(SessionId(7))
            .begin_batch(SHARD, 1)
            .unwrap();
        let mut want = Vec::new();
        wire::encode_request(&mut want, SHARD, 1, &header, &ops);
        assert_eq!(core.link.sent[0], want);

        // Out of order, and one of them twice: the second copy is discarded.
        answer(&mut core, 3, 0, None);
        answer(&mut core, 1, 0, None);
        answer(&mut core, 3, 0, None);
        assert_eq!(poll(&mut core).unwrap(), [(3, true), (1, true)]);
        assert_eq!((core.inflight(), core.inflight_ops()), (2, 2));

        // "Not now" twice over, and no answer at all: everything stays in
        // flight, and the stall scan rewrites the stored bytes verbatim.
        answer(&mut core, 2, 0, Some(DprError::Recovering));
        let busy = ProtoError {
            code: ProtoErrorCode::DuplicateInFlight,
            detail: String::new(),
        };
        busy.encode(&mut core.link.arriving, 2);
        assert_eq!(poll(&mut core).unwrap(), []);
        assert_eq!(core.inflight(), 2);
        let first = std::mem::take(&mut core.link.sent);
        assert_eq!(core.retransmit_stalled(Duration::ZERO).unwrap(), 2);
        core.link.sent.sort(); // by seq: the frames agree up to that field
        assert_eq!(core.link.sent, [first[1].clone(), first[3].clone()]);

        // A world-line rejection completes its batch, flips the session, and
        // idle polls repeat it until the session has handled the failure.
        let moved = DprError::WorldLineMismatch {
            requested: WorldLine(0),
            current: WorldLine(1),
        };
        answer(&mut core, 2, 0, Some(moved.clone()));
        assert_eq!(poll(&mut core).unwrap(), [(2, false)]);
        let needs = SessionStatus::NeedsRecovery {
            new_world_line: WorldLine(1),
        };
        assert_eq!(core.session().status(), needs);
        assert_eq!(poll(&mut core), Err(moved.clone()));
        assert_eq!(poll(&mut core), Err(moved));
        assert!(core.issue(SHARD, &ops).is_err(), "no issue before recovery");
        core.session_mut()
            .handle_failure(WorldLine(1), &Default::default());
        assert_eq!(poll(&mut core).unwrap(), []);
        // The batch never answered is still the stall scan's to resend.
        assert_eq!(core.retransmit_stalled(Duration::ZERO).unwrap(), 1);
    }

    /// `acked_below` as each issued frame carries it, against a model of the
    /// in-flight table, over seeded schedules of loss, reordered and repeated
    /// answers, `NotOwner` re-routes and `taken` batches: it is the lowest
    /// first serial in flight at that issue, the issued batch included, so
    /// never above an unanswered batch, and it comes back down when a batch
    /// re-enters under its old serial.
    #[test]
    fn acked_below_is_the_lowest_unanswered_serial_at_every_issue() {
        const OTHER: ShardId = ShardId(4);
        let one = [ClusterOp::Incr(Key::from_u64(1))];
        let op = &one[0];
        // Issue (fresh, or under `rebatch`) and check the frame just sent.
        fn issue(
            core: &mut Core,
            model: &mut Vec<(u64, u64, u32, ShardId)>,
            shard: ShardId,
            rebatch: Option<u64>,
            ops: &[ClusterOp],
        ) {
            let seq = core.issue_as(shard, rebatch, ops).unwrap();
            let frame = core.link.sent.last().unwrap();
            let body = bytes::Bytes::copy_from_slice(&frame[wire::FRAME_HEADER_LEN..]);
            let mut header = core.session().rebatch_header(shard, 0, 0);
            wire::decode_request_body_into(&body, &mut Vec::new(), &mut header).unwrap();
            model.push((seq, header.first_serial, header.op_count, shard));
            let lowest = model.iter().map(|b| b.1).min().unwrap();
            assert_eq!(header.acked_below, lowest, "seq {seq}, in flight {model:?}");
            assert_eq!(core.inflight(), model.len());
            assert_eq!(rebatch.unwrap_or(header.first_serial), header.first_serial);
        }
        for seed in 1..=20u64 {
            let mut core = Core::new(DprClientSession::new(SessionId(seed)), Scripted::default());
            let mut model: Vec<(u64, u64, u32, ShardId)> = Vec::new();
            let mut rng = Rng::new(seed);
            let mut draw = |n: usize| rng.below(n as u64) as usize;
            for _ in 0..600 {
                let pick = draw(model.len().max(1));
                match draw(10) {
                    0..=3 => {
                        let ops = vec![op.clone(); 1 + draw(3)];
                        let shard = [SHARD, OTHER][draw(2)];
                        issue(&mut core, &mut model, shard, None, &ops);
                    }
                    // Answered, in any order; some answers arrive twice.
                    4..=5 if !model.is_empty() => {
                        let (seq, first_serial, op_count, shard) = model.swap_remove(pick);
                        let reply = BatchReply {
                            shard,
                            world_line: WorldLine(0),
                            version: Version(1),
                            first_serial,
                            op_count,
                        };
                        let results = vec![OpResult::Done; op_count as usize];
                        for _ in 0..1 + draw(2) {
                            let outcome = Ok((&reply, &results[..]));
                            wire::encode_response(&mut core.link.arriving, shard.0, seq, outcome);
                        }
                        assert_eq!(poll(&mut core).unwrap(), [(seq, true)]);
                    }
                    // Bounced (§5.3): re-routed op by op under the old
                    // serials, maybe after a fresh batch has gone out.
                    6 if !model.is_empty() => {
                        let (seq, first_serial, op_count, shard) = model.swap_remove(pick);
                        let bounced = DprError::NotOwner { shard };
                        wire::encode_response(&mut core.link.arriving, shard.0, seq, Err(&bounced));
                        assert_eq!(poll(&mut core).unwrap(), [(seq, false)]);
                        if draw(2) == 0 {
                            issue(&mut core, &mut model, shard, None, &one);
                        }
                        for serial in first_serial..first_serial + u64::from(op_count) {
                            issue(&mut core, &mut model, OTHER, Some(serial), &one);
                        }
                    }
                    // Its worker left: taken out of the table, sent elsewhere.
                    7 => {
                        let gone = [SHARD, OTHER][draw(2)];
                        let (_, taken) = core
                            .retransmit_stalled_unless(Duration::ZERO, |s| s == gone)
                            .unwrap();
                        let (left, stay): (Vec<_>, Vec<_>) =
                            model.iter().partition(|b| b.3 == gone);
                        assert_eq!(taken.len(), left.len());
                        model = stay;
                        let to = if gone == SHARD { OTHER } else { SHARD };
                        for (_, first_serial, op_count, _) in left {
                            let ops = vec![op.clone(); op_count as usize];
                            issue(&mut core, &mut model, to, Some(first_serial), &ops);
                        }
                    }
                    // Lost: nothing arrives, and the stall scan resends.
                    _ => {
                        core.retransmit_stalled(Duration::ZERO).unwrap();
                        assert_eq!(poll(&mut core).unwrap(), []);
                    }
                }
            }
            // The heap of issued pairs stays within a constant of the table.
            assert!(core.by_serial.len() <= 2 * model.len() + 65);
        }
    }
}
