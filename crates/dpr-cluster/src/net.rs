//! The real network plane: a non-blocking, multi-worker TCP server.
//!
//! One [`NetServer`] hosts *all* of a process's shard workers behind a
//! single listener. An acceptor thread hands new connections round-robin to
//! a fixed pool of I/O threads; each I/O thread owns many non-blocking
//! connections and pumps them in a readiness loop (read → parse frames →
//! execute → queue responses → flush). Requests are routed to workers by
//! the frame header's `shard` field, so thousands of client connections
//! fan in to a handful of threads.
//!
//! Frames on one connection are processed strictly in arrival order and
//! responses to them are queued in completion order, which for the inline
//! execution model below means *request order per connection*. Clients
//! pipeline by writing many `Request` frames before reading any
//! `Response`; cross-connection order is unspecified.
//!
//! # Steady-state allocation discipline
//!
//! The request path is allocation-free in steady state, and every buffer on
//! it has one owner:
//!
//! * A connection lives and dies on one I/O thread, and owns its
//!   [`wire::FrameReader`] (received bytes and the one recycled body) and
//!   its write buffer, a plain `Vec<u8>`; the thread owns the read chunk.
//! * A frame's body is copied once from the received bytes into the
//!   reader's body allocation and handed out as a [`bytes::Bytes`] view; op
//!   keys and values are zero-copy slices of it
//!   ([`wire::decode_request_body_into`]).
//! * The request path itself is the worker's
//!   (`Worker::serve_request`, shared with the bus executors): ops and
//!   results decode into the thread's reusable `RequestScratch`,
//!   execution appends results in place, and the response is encoded
//!   straight into the connection write buffer ([`wire::encode_response`])
//!   with a back-patched length — no intermediate frame or body `Vec`.
//! * The per-session epoch fence is one map behind one lock, shared by the
//!   I/O threads and taken once per handshake, never per request.
//!
//! The full wire contract (byte layout, handshake, dedupe across
//! reconnect, failure modes) is specified in `docs/NETWORK.md`, including
//! who owns which buffer (§9).

use crate::metrics;
use crate::wire::{self, FrameHeader, FrameKind, FrameReader, Hello, HelloAck};
use crate::wire::{ProtoError, ProtoErrorCode};
use crate::worker::{RequestScratch, Worker};
use bytes::Bytes;
use dpr_core::{DprError, Result, SessionId, ShardId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// I/O threads sharing the connection set. The paper's deployment runs
    /// thread-per-core; default is the host's parallelism capped at 4 so
    /// test clusters with several in-process servers do not oversubscribe.
    pub io_threads: usize,
}

/// Socket read chunk size.
const READ_CHUNK: usize = 64 << 10;

impl Default for NetServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        NetServerConfig {
            io_threads: cores.min(4),
        }
    }
}

/// Shared server state consulted by every I/O thread.
struct ServerCtx {
    /// Shard-routed workers (`frame.shard` → worker).
    workers: HashMap<u32, Arc<Worker>>,
    /// Hosted shards in id order, echoed in every `HelloAck`.
    shards: Vec<ShardId>,
    /// Highest epoch accepted per session, for zombie-connection fencing.
    /// Shared across I/O threads because a reconnect may land elsewhere.
    epochs: Mutex<HashMap<SessionId, u32>>,
}

/// Per-I/O-thread reusable buffers: one read chunk plus the request path's
/// scratch, so a steady-state request allocates nothing on this thread.
struct IoScratch {
    /// Socket read staging.
    read: Vec<u8>,
    request: RequestScratch,
}

/// One client connection owned by an I/O thread.
struct Conn {
    stream: TcpStream,
    /// Received bytes, split into frames.
    rd: FrameReader,
    /// Encoded-but-unsent bytes (`wr[wr_pos..]` is pending).
    wr: Vec<u8>,
    wr_pos: usize,
    /// Set by a successful `Hello`.
    session: Option<(SessionId, u32)>,
    open: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rd: FrameReader::default(),
            wr: Vec::new(),
            wr_pos: 0,
            session: None,
            open: true,
        }
    }

    /// Encode one outbound frame into the write buffer via `f` and record
    /// it as transmitted (the flush loop below drains the buffer as the
    /// socket allows).
    fn queue_with<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) {
        let before = self.wr.len();
        f(&mut self.wr);
        metrics::net_frames_tx().inc();
        metrics::net_frame_bytes().record((self.wr.len() - before) as u64);
    }

    /// Write pending bytes without blocking. Returns whether progress was
    /// made. Closes the connection on a hard error.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.wr_pos < self.wr.len() {
            match self.stream.write(&self.wr[self.wr_pos..]) {
                Ok(0) => {
                    self.open = false;
                    break;
                }
                Ok(n) => {
                    self.wr_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.open = false;
                    break;
                }
            }
        }
        if self.wr_pos == self.wr.len() && self.wr_pos > 0 {
            self.wr.clear();
            self.wr_pos = 0;
        } else if self.wr_pos > 64 << 10 {
            // Reclaim the sent prefix of a long-lived backlog.
            self.wr.drain(..self.wr_pos);
            self.wr_pos = 0;
        }
        progressed
    }

    /// Read whatever the socket has ready, a `chunk` at a time. Returns
    /// whether bytes arrived.
    fn fill(&mut self, chunk: &mut [u8]) -> bool {
        let mut progressed = false;
        let rd = self.rd.buffer();
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    // EOF: peer closed. Remaining parsed frames still get
                    // handled; a dangling partial frame is simply dropped
                    // (the truncation is the peer's, not ours to answer).
                    self.open = false;
                    break;
                }
                Ok(n) => {
                    rd.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.open = false;
                    break;
                }
            }
        }
        progressed
    }

    /// Send a protocol error; close the connection unless the code is
    /// recoverable.
    fn proto_error(&mut self, code: ProtoErrorCode, seq: u64, detail: impl Into<String>) {
        let err = ProtoError {
            code,
            detail: detail.into(),
        };
        self.queue_with(|wr| err.encode(wr, seq));
        self.rejected(code);
    }

    /// Account for an `Error` frame just queued; an unrecoverable one closes
    /// the connection once it is flushed.
    fn rejected(&mut self, code: ProtoErrorCode) {
        metrics::net_frame_rejects().inc();
        if !code.recoverable() {
            self.open = false;
        }
    }
}

/// Handle every complete frame the connection has received. Returns whether
/// any frame was handled.
fn drain_frames(conn: &mut Conn, ctx: &ServerCtx, scratch: &mut IoScratch) -> bool {
    let mut progressed = false;
    loop {
        // Drop the last frame's zero-copy views before asking for the next
        // one: while decoded ops still view the reader's body it cannot be
        // reused, and the next frame pays for a fresh allocation.
        scratch.request.clear();
        let (header, body) = match conn.rd.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                // Malformed header: the stream cannot be resynchronised.
                conn.proto_error(ProtoErrorCode::BadFrame, 0, e.to_string());
                break;
            }
        };
        metrics::net_frames_rx().inc();
        metrics::net_frame_bytes().record(header.frame_len() as u64);
        progressed = true;
        apply_frame(conn, ctx, &header, &body, scratch);
        if !conn.open {
            break;
        }
    }
    progressed
}

fn apply_frame(
    conn: &mut Conn,
    ctx: &ServerCtx,
    header: &FrameHeader,
    body: &Bytes,
    scratch: &mut IoScratch,
) {
    let seq = header.seq;
    match header.kind {
        FrameKind::Hello => {
            let hello = match Hello::from_body(body) {
                Ok(hello) => hello,
                Err(e) => return conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string()),
            };
            {
                let mut epochs = ctx.epochs.lock();
                let latest = epochs.entry(hello.session).or_insert(0);
                if hello.epoch < *latest {
                    drop(epochs);
                    conn.proto_error(
                        ProtoErrorCode::StaleEpoch,
                        0,
                        format!("epoch {} < accepted", hello.epoch),
                    );
                    return;
                }
                *latest = hello.epoch;
            }
            conn.session = Some((hello.session, hello.epoch));
            let world_line = ctx
                .workers
                .values()
                .next()
                .map(|w| w.world_line())
                .unwrap_or(hello.world_line);
            let ack = HelloAck {
                epoch: hello.epoch,
                world_line,
                shards: ctx.shards.clone(),
            };
            conn.queue_with(|wr| ack.encode(wr));
        }
        FrameKind::Request => handle_request(conn, ctx, header.shard, seq, body, scratch),
        FrameKind::CutReq => {
            let outcome = ctx
                .workers
                .values()
                .next()
                .ok_or(DprError::Closed)
                .and_then(|w| w.read_cut());
            match outcome {
                Ok(cut) => conn.queue_with(|wr| wire::encode_cut_response(wr, seq, cut.0, &cut.1)),
                Err(e) => conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string()),
            }
        }
        FrameKind::Goodbye => {
            conn.open = false;
        }
        kind @ (FrameKind::HelloAck
        | FrameKind::Response
        | FrameKind::CutResp
        | FrameKind::Error) => {
            conn.proto_error(
                ProtoErrorCode::BadFrame,
                seq,
                format!("client sent server-only frame {kind:?}"),
            );
        }
    }
}

/// Route a `Request` frame to its shard's worker, whose request path
/// answers it straight into the connection's write buffer.
fn handle_request(
    conn: &mut Conn,
    ctx: &ServerCtx,
    shard: u32,
    seq: u64,
    body: &Bytes,
    scratch: &mut IoScratch,
) {
    if conn.session.is_none() {
        conn.proto_error(
            ProtoErrorCode::HandshakeRequired,
            seq,
            "Request before Hello",
        );
        return;
    }
    let Some(worker) = ctx.workers.get(&shard) else {
        conn.proto_error(
            ProtoErrorCode::UnknownShard,
            seq,
            format!("shard {shard} not hosted here"),
        );
        return;
    };
    let mut refused = None;
    conn.queue_with(|wr| refused = worker.serve_request(seq, body, &mut scratch.request, wr));
    if let Some(code) = refused {
        conn.rejected(code);
    }
}

fn io_loop(rx: &Receiver<TcpStream>, ctx: &Arc<ServerCtx>, stop: &Arc<AtomicBool>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = IoScratch {
        read: vec![0; READ_CHUNK],
        request: RequestScratch::new(),
    };
    let mut backoff = dpr_core::Backoff::new();
    loop {
        let mut progressed = false;
        // Fan-in: adopt connections the acceptor has assigned to us.
        while let Ok(stream) = rx.try_recv() {
            stream.set_nonblocking(true).ok();
            stream.set_nodelay(true).ok();
            conns.push(Conn::new(stream));
            metrics::net_conns_active().add(1);
            progressed = true;
        }
        if stop.load(Ordering::Acquire) {
            // Clean shutdown: tell every peer, best-effort flush, exit.
            for conn in &mut conns {
                conn.queue_with(|wr| wire::encode_control(wr, FrameKind::Goodbye, 0));
                conn.flush();
            }
            metrics::net_conns_active().sub(conns.len() as i64);
            return;
        }
        for conn in &mut conns {
            progressed |= conn.fill(&mut scratch.read);
            progressed |= drain_frames(conn, ctx, &mut scratch);
            progressed |= conn.flush();
        }
        let before = conns.len();
        conns.retain(|c| c.open || c.wr_pos < c.wr.len());
        metrics::net_conns_active().sub((before - conns.len()) as i64);
        if progressed {
            backoff.reset();
        } else {
            backoff.snooze();
        }
    }
}

/// How long the acceptor waits before it calls `accept` again after the
/// error `e`, or `None` when there is no point. `accept(2)` reports three
/// kinds of error through one return value, and only the last is a reason to
/// end every session of the process.
fn retry_accept_after(e: &std::io::Error) -> Option<Duration> {
    use std::io::ErrorKind as Kind;
    // Linux errno values `std` has no `ErrorKind` for.
    const EBADF: i32 = 9;
    const ENOTSOCK: i32 = 88;
    match (e.kind(), e.raw_os_error()) {
        // The connection being accepted, or the moment: a client that reset
        // before it was accepted, a signal. The next one may be waiting.
        (Kind::ConnectionAborted | Kind::Interrupted, _) => Some(Duration::ZERO),
        // The listener itself: closed, not listening, not a socket.
        (Kind::InvalidInput, _) | (_, Some(EBADF | ENOTSOCK)) => None,
        // Nothing to accept yet; out of descriptors, buffers or memory for
        // now (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`); a network error
        // pending on the new socket (`ENETDOWN`, `EPROTO`, `EHOSTUNREACH`,
        // ...), which Linux hands to `accept`; or one not known here, which
        // must not spin.
        _ => Some(Duration::from_millis(1)),
    }
}

/// A running network-plane server. Dropping it without calling
/// [`NetServer::shutdown`] stops the threads but does not join them.
pub struct NetServer {
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    io: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Serve `workers` on `listener` until [`NetServer::shutdown`].
    ///
    /// Every worker is reachable through the one listener; requests route
    /// by the frame header's `shard` field.
    pub fn start(
        workers: Vec<Arc<Worker>>,
        listener: TcpListener,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        let stop = Arc::new(AtomicBool::new(false));
        if workers.is_empty() {
            return Err(DprError::Invalid(
                "NetServer needs at least one worker".into(),
            ));
        }
        listener.set_nonblocking(false)?;
        let local_addr = listener.local_addr()?;
        let mut shards: Vec<ShardId> = workers.iter().map(|w| w.shard()).collect();
        shards.sort_unstable();
        let ctx = Arc::new(ServerCtx {
            workers: workers.into_iter().map(|w| (w.shard().0, w)).collect(),
            shards,
            epochs: Mutex::new(HashMap::new()),
        });
        let io_threads = config.io_threads.max(1);
        let mut senders = Vec::with_capacity(io_threads);
        let mut io = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let (tx, rx) = channel::<TcpStream>();
            senders.push(tx);
            let ctx = ctx.clone();
            let stop = stop.clone();
            io.push(
                std::thread::Builder::new()
                    .name(format!("dpr-net-io-{i}"))
                    .spawn(move || io_loop(&rx, &ctx, &stop))
                    .expect("spawn net io thread"),
            );
        }
        let accept = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("dpr-net-accept".into())
                .spawn(move || {
                    let mut next = 0usize;
                    // Blocks in `accept`: a stop wakes it with a connection
                    // of its own (`NetServer`'s `Drop`).
                    loop {
                        let accepted = listener.accept();
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        match accepted {
                            Ok((stream, _)) => {
                                // Round-robin fan-out to the I/O pool.
                                let _ = senders[next % senders.len()].send(stream);
                                next = next.wrapping_add(1);
                            }
                            Err(e) => match retry_accept_after(&e) {
                                Some(wait) => std::thread::sleep(wait),
                                // Stop the whole server rather than leaking
                                // a dead acceptor — I/O threads observe the
                                // flag too.
                                None => {
                                    stop.store(true, Ordering::Release);
                                    return;
                                }
                            },
                        }
                    }
                })
                .expect("spawn net accept thread")
        };
        Ok(NetServer {
            stop,
            local_addr,
            accept: Some(accept),
            io,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signal shutdown and join every thread: the acceptor, then each I/O
    /// thread after it has sent `Goodbye` to its connections. No detached
    /// threads survive.
    pub fn shutdown(mut self) {
        let (accept, io) = (self.accept.take(), std::mem::take(&mut self.io));
        drop(self);
        for h in accept.into_iter().chain(io) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    /// Raise the stop flag and wake the acceptor out of `accept` with a
    /// connection of its own, unless it has stopped the server itself.
    fn drop(&mut self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.local_addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_unusable_listener_stops_the_acceptor() {
        let (now, later) = (Some(Duration::ZERO), Some(Duration::from_millis(1)));
        // Linux errno values, in the order of the comment above each row.
        let verdicts = [
            // ECONNABORTED, EINTR
            (now, &[103, 4][..]),
            // EAGAIN; ENOMEM, ENFILE, EMFILE, ENOBUFS; the pending network
            // errors ENETDOWN, EPROTO, ENOPROTOOPT, EHOSTDOWN, ENONET,
            // EHOSTUNREACH, EOPNOTSUPP, ENETUNREACH; EPERM (a firewall)
            (
                later,
                &[11, 12, 23, 24, 105, 100, 71, 92, 112, 64, 113, 95, 101, 1],
            ),
            // EBADF, EINVAL, ENOTSOCK
            (None, &[9, 22, 88]),
        ];
        for (want, errnos) in verdicts {
            for &errno in errnos {
                let e = std::io::Error::from_raw_os_error(errno);
                assert_eq!(retry_accept_after(&e), want, "errno {errno}: {e}");
            }
        }
    }
}
