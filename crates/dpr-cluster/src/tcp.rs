//! The TCP link of the real network plane's client.
//!
//! The server side lives in [`crate::net`] (non-blocking fan-in
//! [`crate::NetServer`]); the byte-level contract lives in [`crate::wire`]
//! and is specified in `docs/NETWORK.md`. The client itself —
//! [`PipelinedClient`]: in-flight table, reply handling, retransmission — is
//! `session.rs`, the same code a bus session runs; this module adds what a
//! socket needs: dial, handshake, read timing, and reconnect with an epoch
//! bump.

use crate::session::Link;
use crate::wire::{FrameKind, FrameReader, Hello, HelloAck, ProtoError};
use dpr_core::{DprError, Result, ShardId};
use libdpr::DprClientSession;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub use crate::session::{CompletedRef, PipelinedClient};

/// A server that accepts a connection but never answers the handshake
/// surfaces as a typed [`DprError::Timeout`] after this long.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket read chunk size.
const READ_CHUNK: usize = 64 << 10;

/// One handshaken connection: what a [`PipelinedClient`] runs over when it
/// is not given another link. Nothing on it is for callers.
pub struct TcpLink {
    addr: SocketAddr,
    stream: TcpStream,
    /// 1 on the first dial, bumped by every reconnect.
    epoch: u32,
    /// Shards reachable through this connection (from the handshake).
    shards: Vec<ShardId>,
}

impl TcpLink {
    /// Dial `addr` and bind the connection to `session` at `epoch`.
    fn dial(addr: SocketAddr, session: &DprClientSession, epoch: u32) -> Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut link = TcpLink {
            addr,
            stream,
            epoch,
            shards: Vec::new(),
        };
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut buf = Vec::new();
        Hello {
            session: session.id(),
            epoch,
            world_line: session.world_line(),
        }
        .encode(&mut buf);
        link.send(&buf)?;
        let mut rd = FrameReader::default();
        let (header, body) = loop {
            if let Some(frame) = rd.next_frame()? {
                break frame;
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(DprError::Timeout)?;
            link.recv(remaining, rd.buffer())?;
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
                link.shards = ack.shards;
                Ok(link)
            }
            FrameKind::Error => Err(ProtoError::from_body(&body)?.to_dpr_error()),
            k => Err(DprError::Invalid(format!("expected HelloAck, got {k:?}"))),
        }
    }
}

impl Link for TcpLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.stream.write_all(frame)?;
        Ok(())
    }

    fn recv(&mut self, wait: Duration, rd: &mut Vec<u8>) -> Result<()> {
        // To a socket a zero timeout means "forever": a zero wait is a
        // non-blocking read instead. Any other wait is the read timeout as
        // given (the kernel rounds it up to its timer tick).
        if wait.is_zero() {
            self.stream.set_nonblocking(true)?;
        } else {
            self.stream.set_read_timeout(Some(wait))?;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let read = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(DprError::Closed),
                Ok(n) => {
                    rd.extend_from_slice(&chunk[..n]);
                    // A short read emptied the socket; a full one may have
                    // left more behind.
                    if n < chunk.len() {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break Ok(())
                }
                Err(e) => break Err(e.into()),
            }
        };
        if wait.is_zero() {
            self.stream.set_nonblocking(false)?;
        }
        read
    }
}

impl PipelinedClient {
    /// Dial `addr` and run the session handshake.
    pub fn connect(session: DprClientSession, addr: SocketAddr) -> Result<PipelinedClient> {
        let link = TcpLink::dial(addr, &session, 1)?;
        Ok(PipelinedClient::new(session, link))
    }

    /// Shards the server advertised in its handshake.
    #[must_use]
    pub fn shards(&self) -> &[ShardId] {
        &self.link.shards
    }

    /// Drop the connection, dial again with a bumped epoch, and retransmit
    /// every in-flight batch. The server's dedupe cache replays batches
    /// that executed before the disconnect, keeping them exactly-once.
    pub fn reconnect(&mut self) -> Result<()> {
        let link = TcpLink::dial(self.link.addr, self.session(), self.link.epoch + 1)?;
        self.relink(link)
    }
}
