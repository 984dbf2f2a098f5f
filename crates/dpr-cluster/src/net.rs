//! The real network plane: a blocking TCP server, a thread per connection.
//!
//! One [`NetServer`] hosts *all* of a process's shard workers behind one
//! listener, routing requests by the frame header's `shard` field. An
//! acceptor gives each connection a thread of its own, which blocks in
//! `read`, handles every complete frame received in arrival order, and sends
//! their answers with one `write_all`. That suits the traffic the server
//! carries: two connections per TCP workload of the benchmark, a handful per
//! test. Clients pipeline by writing many `Request` frames before reading
//! any `Response`; cross-connection order is unspecified. The answers are
//! TCP's to pace: a thread reads no further while its peer leaves its
//! answers unread, which stalls that connection only (`docs/NETWORK.md` §3).
//!
//! # Steady-state allocation discipline
//!
//! The request path is allocation-free in steady state, and every buffer on
//! it has one owner:
//!
//! * A connection's thread owns its [`wire::FrameReader`] (received bytes
//!   and the one recycled body), its write buffer (a plain `Vec<u8>`), the
//!   read chunk and the request path's `RequestScratch`.
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
//!   connections and taken once per handshake, never per request.
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
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a [`NetServer`]: none, since a connection is a thread.
#[derive(Debug, Clone, Default)]
pub struct NetServerConfig {}

/// Shared server state consulted by every connection's thread.
struct ServerCtx {
    /// Shard-routed workers (`frame.shard` → worker).
    workers: HashMap<u32, Arc<Worker>>,
    /// Hosted shards in id order, echoed in every `HelloAck`.
    shards: Vec<ShardId>,
    /// Highest epoch accepted per session, for zombie-connection fencing.
    /// Shared by the connections because a reconnect arrives on a new one.
    epochs: Mutex<HashMap<SessionId, u32>>,
}

impl ServerCtx {
    /// A hosted worker (`NetServer::start` refuses none): the workers of a
    /// process share their cluster's world-line and cut.
    fn any_worker(&self) -> &Worker {
        self.workers
            .values()
            .next()
            .expect("a server hosts a worker")
    }
}

/// One client connection, served by a thread of its own.
struct Conn {
    /// The thread's is the only strong handle, so the socket closes when
    /// the thread ends; the server keeps a weak one to stop it.
    stream: Arc<TcpStream>,
    /// Received bytes, split into frames.
    rd: FrameReader,
    /// The answers to the frames of one read, sent with one write.
    wr: Vec<u8>,
    /// Set by a successful `Hello`.
    session: Option<(SessionId, u32)>,
    open: bool,
}

impl Conn {
    fn new(stream: Arc<TcpStream>) -> Conn {
        Conn {
            stream,
            rd: FrameReader::default(),
            wr: Vec::new(),
            session: None,
            open: true,
        }
    }

    /// Serve the connection until the peer closes it, an unrecoverable
    /// `Error` is sent, or the server stops: block in `read`, handle every
    /// complete frame received, send their answers. A stop shuts the
    /// socket's read side down, which ends a blocked `read`; the thread then
    /// says `Goodbye` and shuts the socket down both ways.
    fn serve(mut self, ctx: &ServerCtx, stop: &AtomicBool) {
        let mut chunk = vec![0; wire::READ_CHUNK];
        let mut scratch = RequestScratch::new();
        while self.open && !stop.load(Ordering::Acquire) {
            match self.stream.as_ref().read(&mut chunk) {
                // End of file: the peer closed, or the server stops. A
                // dangling partial frame is simply dropped (the truncation
                // is the peer's, not ours to answer).
                Ok(0) => self.open = false,
                Ok(n) => self.rd.buffer().extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.open = false,
            }
            drain_frames(&mut self, ctx, &mut scratch);
            self.send();
        }
        if stop.load(Ordering::Acquire) {
            self.queue_with(|wr| wire::encode_control(wr, FrameKind::Goodbye, 0));
            self.send();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Encode one outbound frame into the write buffer via `f` and record
    /// it as transmitted (`send` writes the buffer out).
    fn queue_with<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) {
        let before = self.wr.len();
        f(&mut self.wr);
        metrics::net_frames_tx().inc();
        metrics::net_frame_bytes().record((self.wr.len() - before) as u64);
    }

    /// Write every queued answer, blocking while the peer's socket buffers
    /// are full. Closes the connection on an error.
    fn send(&mut self) {
        if !self.wr.is_empty() && self.stream.as_ref().write_all(&self.wr).is_err() {
            self.open = false;
        }
        self.wr.clear();
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
    /// the connection once it is sent.
    fn rejected(&mut self, code: ProtoErrorCode) {
        metrics::net_frame_rejects().inc();
        if !code.recoverable() {
            self.open = false;
        }
    }
}

/// Handle every complete frame the connection has received.
fn drain_frames(conn: &mut Conn, ctx: &ServerCtx, scratch: &mut RequestScratch) {
    loop {
        // Drop the last frame's zero-copy views before asking for the next
        // one: while decoded ops still view the reader's body it cannot be
        // reused, and the next frame pays for a fresh allocation.
        scratch.clear();
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
        apply_frame(conn, ctx, &header, &body, scratch);
        if !conn.open {
            break;
        }
    }
}

fn apply_frame(
    conn: &mut Conn,
    ctx: &ServerCtx,
    header: &FrameHeader,
    body: &Bytes,
    scratch: &mut RequestScratch,
) {
    let seq = header.seq;
    match header.kind {
        FrameKind::Hello => {
            let hello = match Hello::from_body(body) {
                Ok(hello) => hello,
                Err(e) => return conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string()),
            };
            let mut epochs = ctx.epochs.lock().unwrap();
            let latest = epochs.entry(hello.session).or_insert(0);
            if hello.epoch < *latest {
                drop(epochs);
                let detail = format!("epoch {} < accepted", hello.epoch);
                return conn.proto_error(ProtoErrorCode::StaleEpoch, 0, detail);
            }
            *latest = hello.epoch;
            drop(epochs);
            conn.session = Some((hello.session, hello.epoch));
            let ack = HelloAck {
                epoch: hello.epoch,
                world_line: ctx.any_worker().world_line(),
                shards: ctx.shards.clone(),
            };
            conn.queue_with(|wr| ack.encode(wr));
        }
        // Routed to its shard's worker, whose request path answers it
        // straight into the connection's write buffer.
        FrameKind::Request => {
            let shard = header.shard;
            if conn.session.is_none() {
                let detail = "Request before Hello";
                return conn.proto_error(ProtoErrorCode::HandshakeRequired, seq, detail);
            }
            let Some(worker) = ctx.workers.get(&shard) else {
                let detail = format!("shard {shard} not hosted here");
                return conn.proto_error(ProtoErrorCode::UnknownShard, seq, detail);
            };
            let mut refused = None;
            conn.queue_with(|wr| refused = worker.serve_request(seq, body, scratch, wr));
            if let Some(code) = refused {
                conn.rejected(code);
            }
        }
        FrameKind::CutReq => match ctx.any_worker().read_cut() {
            Ok(cut) => conn.queue_with(|wr| wire::encode_cut_response(wr, seq, cut.0, &cut.1)),
            Err(e) => conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string()),
        },
        FrameKind::Goodbye => conn.open = false,
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

/// The connections' threads, each beside a weak handle on its socket.
#[derive(Default)]
struct Conns {
    /// Threads started, for their names.
    started: u64,
    live: Vec<(Weak<TcpStream>, JoinHandle<()>)>,
}

impl Conns {
    /// Give `stream` a thread of its own, after pruning. Its connection
    /// closes at once if no thread can be had.
    fn start(&mut self, stream: TcpStream, ctx: &Arc<ServerCtx>, stop: &Arc<AtomicBool>) {
        self.prune();
        stream.set_nodelay(true).ok();
        let stream = Arc::new(stream);
        let handle = Arc::downgrade(&stream);
        let (ctx, stop) = (ctx.clone(), stop.clone());
        let thread = std::thread::Builder::new()
            .name(format!("dpr-net-conn-{}", self.started))
            .spawn(move || {
                metrics::net_conns_active().add(1);
                Conn::new(stream).serve(&ctx, &stop);
                metrics::net_conns_active().sub(1);
            });
        self.started += 1;
        if let Ok(thread) = thread {
            self.live.push((handle, thread));
        }
    }

    /// Join the threads whose connections have ended: `start` does, before
    /// each new connection, so what waits to be joined is at most the
    /// connections that ended since the last one arrived;
    /// `NetServer::shutdown` joins the rest.
    fn prune(&mut self) {
        while let Some(i) = self.live.iter().position(|(_, t)| t.is_finished()) {
            let _ = self.live.swap_remove(i).1.join();
        }
    }

    /// Shut down the read side of every open connection: its thread's
    /// blocked `read` returns end of file, and the thread says `Goodbye`.
    fn stop(&self) {
        for stream in self.live.iter().filter_map(|(stream, _)| stream.upgrade()) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running network-plane server. Dropping it without calling
/// [`NetServer::shutdown`] stops the threads but does not join them.
pub struct NetServer {
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Conns>>,
}

impl NetServer {
    /// Serve `workers` on `listener` until [`NetServer::shutdown`].
    ///
    /// Every worker is reachable through the one listener; requests route
    /// by the frame header's `shard` field. The acceptor blocks in `accept`,
    /// so `listener` should be in blocking mode, as `TcpListener::bind`
    /// makes it.
    pub fn start(
        workers: Vec<Arc<Worker>>,
        listener: TcpListener,
        _config: NetServerConfig,
    ) -> Result<NetServer> {
        let stop = Arc::new(AtomicBool::new(false));
        if workers.is_empty() {
            return Err(DprError::Invalid(
                "NetServer needs at least one worker".into(),
            ));
        }
        let local_addr = listener.local_addr()?;
        let mut shards: Vec<ShardId> = workers.iter().map(|w| w.shard()).collect();
        shards.sort_unstable();
        let ctx = Arc::new(ServerCtx {
            workers: workers.into_iter().map(|w| (w.shard().0, w)).collect(),
            shards,
            epochs: Mutex::new(HashMap::new()),
        });
        let conns = Arc::new(Mutex::new(Conns::default()));
        let accept = {
            let (stop, conns) = (stop.clone(), conns.clone());
            std::thread::Builder::new()
                .name("dpr-net-accept".into())
                .spawn(move || loop {
                    // Blocks in `accept`: a stop wakes it with a connection
                    // of its own (`NetServer`'s `Drop`).
                    let accepted = listener.accept();
                    // The flag is read under the lock that `Drop` stops the
                    // connections under, so no connection starts after that.
                    let mut conns = conns.lock().unwrap();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    match accepted {
                        Ok((stream, _)) => conns.start(stream, &ctx, &stop),
                        // A stop waits out the pause (1 ms at most).
                        Err(e) => match retry_accept_after(&e) {
                            Some(wait) => std::thread::sleep(wait),
                            // Stop the whole server rather than leave its
                            // connections behind a dead acceptor.
                            None => {
                                stop.store(true, Ordering::Release);
                                conns.stop();
                                return;
                            }
                        },
                    }
                })
                .expect("spawn net accept thread")
        };
        Ok(NetServer {
            stop,
            local_addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signal shutdown and join every thread: the acceptor, then each
    /// connection's after it has sent its peer `Goodbye`. No detached
    /// threads survive. A peer that leaves more answers unread than the
    /// socket buffers hold holds its thread, and so this call, until it
    /// reads or closes.
    pub fn shutdown(mut self) {
        let (accept, conns) = (self.accept.take(), self.conns.clone());
        drop(self);
        // `Drop` has stopped the connections: none starts after it.
        let live = std::mem::take(&mut conns.lock().unwrap().live);
        for thread in accept.into_iter().chain(live.into_iter().map(|(_, t)| t)) {
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    /// Raise the stop flag, wake the acceptor out of `accept` with a
    /// connection of its own (unless it has stopped the server itself), and
    /// stop every connection.
    fn drop(&mut self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.local_addr);
        }
        self.conns.lock().unwrap().stop();
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
