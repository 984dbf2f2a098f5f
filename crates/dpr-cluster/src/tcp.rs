//! The TCP client of the real network plane.
//!
//! The server side lives in [`crate::net`] (non-blocking fan-in
//! [`crate::NetServer`]); the byte-level contract lives in [`crate::wire`]
//! and is specified in `docs/NETWORK.md`.
//!
//! [`PipelinedClient`] is one connection with many batches in flight
//! (windowing is the caller's policy), duplicate-safe retransmission and
//! reconnect-with-epoch-bump. It is the client the benchmark's TCP workloads
//! drive, and its request/response path is allocation-free in steady state:
//! frames encode into recycled buffers that double as the retransmission
//! record, receive buffers are pooled, and response bodies land in pooled
//! shared buffers whose values are zero-copy views ([`bytes::Bytes`]).

use crate::message::{ClusterOp, OpResult};
use crate::wire::{self, CutResponse, FrameKind, Hello, HelloAck, ProtoError, ProtoErrorCode};
use bytes::Bytes;
use dpr_core::{BufferPool, DprError, Result, ScratchLease, ShardId, WorldLine};
use libdpr::{BatchHeader, DprClientSession};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A server that accepts a connection but never answers the handshake
/// surfaces as a typed [`DprError::Timeout`] after this long.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Encoded-request buffers a [`PipelinedClient`] keeps for reuse once their
/// batch completes.
const SPARE_BUFFERS: usize = 256;

/// One framed connection with pooled receive and encode buffers.
struct FramedConn {
    addr: SocketAddr,
    stream: TcpStream,
    /// Received-but-unparsed bytes (pooled).
    rd: ScratchLease,
    /// Outbound encode staging (pooled), cleared per send.
    enc: ScratchLease,
    next_seq: u64,
}

impl FramedConn {
    fn dial(addr: SocketAddr) -> Result<FramedConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let pool = BufferPool::global();
        Ok(FramedConn {
            addr,
            stream,
            rd: pool.acquire_scratch(16 << 10),
            enc: pool.acquire_scratch(4 << 10),
            next_seq: 1,
        })
    }

    /// Encode one frame via `f` into the recycled staging buffer and write
    /// it out — no per-send allocation.
    fn send_with<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) -> Result<()> {
        self.enc.clear();
        f(&mut self.enc);
        self.stream.write_all(&self.enc)?;
        Ok(())
    }

    /// Write an already-encoded frame (a [`PipelinedClient`] in-flight
    /// record) verbatim.
    fn send_bytes(&mut self, frame: &[u8]) -> Result<()> {
        self.stream.write_all(frame)?;
        Ok(())
    }

    /// Pop the next complete frame, lifting its body into a pooled shared
    /// buffer: result values decoded from it are zero-copy views, and the
    /// buffer recycles when they drop.
    fn pop_frame_pooled(&mut self) -> Result<Option<(wire::FrameHeader, Bytes)>> {
        let header = match wire::decode_header(&self.rd)? {
            Some(h) => h,
            None => return Ok(None),
        };
        let total = header.frame_len();
        if self.rd.len() < total {
            return Ok(None);
        }
        let body = &self.rd[wire::FRAME_HEADER_LEN..total];
        let mut lease = BufferPool::global().acquire_shared(body.len());
        lease.data_mut()[..body.len()].copy_from_slice(body);
        let body = lease.freeze(body.len());
        self.rd.drain(..total);
        Ok(Some((header, body)))
    }

    /// Read whatever is available without exceeding `wait`.
    fn recv_available(&mut self, wait: Duration) -> Result<()> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        let mut chunk = [0u8; 64 << 10];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(DprError::Closed),
            Ok(n) => {
                self.rd.extend_from_slice(&chunk[..n]);
                // Drain the rest of the ready bytes without waiting again.
                self.stream.set_read_timeout(None)?;
                self.stream.set_nonblocking(true)?;
                loop {
                    match self.stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => self.rd.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            self.stream.set_nonblocking(false)?;
                            return Err(e.into());
                        }
                    }
                }
                self.stream.set_nonblocking(false)?;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Run the handshake on a fresh connection.
    fn handshake(&mut self, session: &DprClientSession, epoch: u32) -> Result<HelloAck> {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let hello = Hello {
            session: session.id(),
            epoch,
            world_line: session.world_line(),
        };
        self.send_with(|out| hello.encode(out))?;
        let (header, body) = loop {
            if let Some(frame) = self.pop_frame_pooled()? {
                break frame;
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(DprError::Timeout)?;
            self.recv_available(remaining)?;
        };
        match header.kind {
            FrameKind::HelloAck => {
                let ack = HelloAck::from_body(&body)?;
                if ack.epoch != epoch {
                    return Err(DprError::Invalid(format!(
                        "handshake echoed epoch {} != {epoch}",
                        ack.epoch
                    )));
                }
                Ok(ack)
            }
            FrameKind::Error => Err(ProtoError::from_body(&body)?.to_dpr_error()),
            k => Err(DprError::Invalid(format!("expected HelloAck, got {k:?}"))),
        }
    }
}

/// One batch awaiting its response on a [`PipelinedClient`].
///
/// Holds the *encoded frame bytes* — which double as the retransmission
/// record, so retries rewrite the identical frame without re-encoding —
/// plus the scalar header facts the completion path needs. The buffer is
/// recycled into the client's spare list when the batch completes.
struct InflightBatch {
    /// The encoded `Request` frame, exactly as first sent.
    bytes: Vec<u8>,
    /// Serial of the first op (for the caller's completion accounting).
    first_serial: u64,
    /// World-line the batch was issued on (for mismatch reporting).
    world_line: WorldLine,
    issued_at: Instant,
    sent_at: Instant,
}

/// A completed batch surfaced by [`PipelinedClient::poll_each`] — results
/// borrow the client's reused decode scratch, so the steady-state
/// completion path allocates nothing.
pub struct CompletedRef<'a> {
    /// The wire sequence number (as returned by [`PipelinedClient::issue`]).
    pub seq: u64,
    /// Serial of the first op in the batch.
    pub first_serial: u64,
    /// When the batch was first issued (for latency accounting).
    pub issued_at: Instant,
    /// Per-op results, or the batch's rejection.
    pub result: std::result::Result<&'a [OpResult], DprError>,
}

/// A pipelined client session over one connection to a fan-in server: many
/// batches in flight, explicit polling, duplicate-safe retransmission, and
/// reconnect with an epoch bump. The windowing policy (how many batches to
/// keep in flight) belongs to the caller — typically the benchmark's
/// generator.
pub struct PipelinedClient {
    session: DprClientSession,
    epoch: u32,
    conn: FramedConn,
    /// Shards reachable through this connection (from the handshake).
    shards: Vec<ShardId>,
    inflight: HashMap<u64, InflightBatch>,
    /// Recycled encode buffers from completed batches.
    spare: Vec<Vec<u8>>,
    /// Reused header for issuing (deps vector rebuilt in place).
    header_scratch: BatchHeader,
    /// Reused results buffer for decoding responses.
    results_scratch: Vec<OpResult>,
    /// World-line the cluster moved to underneath us. Idle polls report it
    /// until the session's `handle_failure` has caught up with it.
    world_line_failure: Option<WorldLine>,
}

impl PipelinedClient {
    /// Dial `addr` and run the session handshake.
    pub fn connect(session: DprClientSession, addr: SocketAddr) -> Result<PipelinedClient> {
        let mut conn = FramedConn::dial(addr)?;
        let ack = conn.handshake(&session, 1)?;
        let world_line = session.world_line();
        let id = session.id();
        Ok(PipelinedClient {
            session,
            epoch: 1,
            conn,
            shards: ack.shards,
            inflight: HashMap::new(),
            spare: Vec::new(),
            header_scratch: BatchHeader {
                session: id,
                world_line,
                version_lower_bound: dpr_core::Version::ZERO,
                deps: Vec::new(),
                first_serial: 0,
                op_count: 0,
            },
            results_scratch: Vec::new(),
            world_line_failure: None,
        })
    }

    /// Shards the server advertised in its handshake.
    #[must_use]
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
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

    /// Issue one batch without waiting; returns its wire sequence number.
    ///
    /// The ops are encoded straight into a recycled buffer (kept as the
    /// retransmission record until the batch completes), so callers can
    /// reuse their own op buffers across calls — steady state allocates
    /// nothing.
    pub fn issue(&mut self, shard: ShardId, ops: &[ClusterOp]) -> Result<u64> {
        self.session
            .begin_batch_into(shard, ops.len() as u32, &mut self.header_scratch)?;
        let header = &self.header_scratch;
        let seq = self.conn.next_seq;
        self.conn.next_seq += 1;
        let mut bytes = self.spare.pop().unwrap_or_default();
        wire::encode_request(&mut bytes, shard, seq, header, ops);
        let record = InflightBatch {
            bytes,
            first_serial: header.first_serial,
            world_line: header.world_line,
            issued_at: Instant::now(),
            sent_at: Instant::now(),
        };
        self.conn.send_bytes(&record.bytes)?;
        self.inflight.insert(seq, record);
        Ok(seq)
    }

    /// Fire-and-forget cut query; the answer is applied to the session's
    /// committed prefix inside [`PipelinedClient::poll_each`] when it arrives.
    pub fn request_cut(&mut self) -> Result<()> {
        let seq = self.conn.next_seq;
        self.conn.next_seq += 1;
        self.conn
            .send_with(|out| wire::encode_control(out, FrameKind::CutReq, seq))
    }

    /// Return a completed batch's encode buffer to the spare list.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS {
            bytes.clear();
            self.spare.push(bytes);
        }
    }

    /// Drain ready responses, waiting up to `wait` for bytes to arrive.
    ///
    /// Each completion (in order of completion) is handed to `f` as a
    /// [`CompletedRef`] whose results borrow a reused decode buffer, so the
    /// steady state allocates nothing; returns the number delivered. A
    /// `CutResp` advances the session's committed prefix; a retryable
    /// protocol error leaves its batch in flight. A world-line mismatch —
    /// the cluster failed and recovered underneath us — is surfaced as
    /// [`DprError::WorldLineMismatch`] *after* the completions that preceded
    /// it have been delivered by earlier calls, and on every idle call until
    /// the caller has moved the session ([`PipelinedClient::session_mut`])
    /// to the new world-line with `handle_failure`.
    pub fn poll_each(
        &mut self,
        wait: Duration,
        mut f: impl FnMut(CompletedRef<'_>),
    ) -> Result<usize> {
        self.conn.recv_available(wait)?;
        let mut delivered = 0usize;
        while let Some((header, body)) = self.conn.pop_frame_pooled()? {
            match header.kind {
                FrameKind::Response => {
                    let Some(batch) = self.inflight.remove(&header.seq) else {
                        continue; // response to a superseded transmission
                    };
                    // Scratch is moved out so the borrow handed to `f`
                    // cannot alias the client while it runs.
                    let mut results = std::mem::take(&mut self.results_scratch);
                    results.clear();
                    let outcome = match wire::decode_response_body(&body, &mut results) {
                        Ok(o) => o,
                        Err(e) => {
                            self.results_scratch = results;
                            return Err(e);
                        }
                    };
                    let result: std::result::Result<&[OpResult], DprError> = match outcome {
                        Ok(reply) => match self.session.process_reply(&reply) {
                            Ok(()) => Ok(results.as_slice()),
                            Err(DprError::WorldLineMismatch { current, .. }) => {
                                self.world_line_failure = Some(current);
                                Err(DprError::WorldLineMismatch {
                                    requested: batch.world_line,
                                    current,
                                })
                            }
                            Err(e) => Err(e),
                        },
                        Err(e) => {
                            if let DprError::WorldLineMismatch { current, .. } = e {
                                self.world_line_failure = Some(current);
                            }
                            Err(e)
                        }
                    };
                    f(CompletedRef {
                        seq: header.seq,
                        first_serial: batch.first_serial,
                        issued_at: batch.issued_at,
                        result,
                    });
                    delivered += 1;
                    self.results_scratch = results;
                    self.recycle(batch.bytes);
                }
                FrameKind::CutResp => {
                    let resp = CutResponse::from_body(&body)?;
                    if resp.world_line == self.session.world_line() {
                        self.session.refresh_commit(&resp.cut);
                    }
                }
                FrameKind::Error => {
                    let err = ProtoError::from_body(&body)?;
                    match err.code {
                        // Retryable: the batch stays in flight and will be
                        // retransmitted by `retransmit_stalled`.
                        ProtoErrorCode::DuplicateInFlight => {}
                        _ => return Err(err.to_dpr_error()),
                    }
                }
                FrameKind::Goodbye => return Err(DprError::Closed),
                k => {
                    return Err(DprError::Invalid(format!(
                        "unexpected frame {k:?} on pipelined connection"
                    )))
                }
            }
        }
        if delivered == 0 {
            if let Some(current) = self.world_line_failure {
                if self.session.world_line() < current {
                    return Err(DprError::WorldLineMismatch {
                        requested: self.session.world_line(),
                        current,
                    });
                }
                // The caller ran `handle_failure` on the session.
                self.world_line_failure = None;
            }
        }
        Ok(delivered)
    }

    /// Retransmit every batch whose response has been outstanding for at
    /// least `older_than`. Safe for non-idempotent ops only when the
    /// server runs duplicate suppression (`dedupe_window > 0`); see
    /// `docs/NETWORK.md` §6. Returns the number retransmitted.
    ///
    /// Resends are the stored frame bytes verbatim — same seq, same
    /// serials — which is what makes them safe to dedupe server-side.
    pub fn retransmit_stalled(&mut self, older_than: Duration) -> Result<usize> {
        let now = Instant::now();
        let mut resent = 0usize;
        let stalled: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, b)| now.duration_since(b.sent_at) >= older_than)
            .map(|(&s, _)| s)
            .collect();
        for seq in stalled {
            let batch = self.inflight.get_mut(&seq).expect("collected above");
            batch.sent_at = now;
            self.conn.send_bytes(&batch.bytes)?;
            resent += 1;
        }
        Ok(resent)
    }

    /// Drop the connection, dial again with a bumped epoch, and retransmit
    /// every in-flight batch. The server's dedupe cache replays batches
    /// that executed before the disconnect, keeping them exactly-once.
    pub fn reconnect(&mut self) -> Result<()> {
        self.epoch += 1;
        let mut fresh = FramedConn::dial(self.conn.addr)?;
        let ack = fresh.handshake(&self.session, self.epoch)?;
        fresh.next_seq = self.conn.next_seq;
        self.conn = fresh;
        self.shards = ack.shards;
        let now = Instant::now();
        let seqs: Vec<u64> = self.inflight.keys().copied().collect();
        for seq in seqs {
            let batch = self.inflight.get_mut(&seq).expect("own key");
            batch.sent_at = now;
            self.conn.send_bytes(&batch.bytes)?;
        }
        Ok(())
    }
}
