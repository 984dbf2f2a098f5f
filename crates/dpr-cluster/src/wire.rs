//! The binary wire protocol of the real network plane.
//!
//! Every byte that crosses a socket is specified in `docs/NETWORK.md`; this
//! module is the one codec and that document its reference —
//! `tests/wire_format.rs` asserts a hand-assembled frame of each kind, copied
//! from its tables, against the encoders here. Keep the two in lockstep: the
//! bar is "a second implementation could interoperate from the document
//! alone".
//!
//! Framing is a fixed 24-byte little-endian header (magic, protocol
//! version, frame kind, flags, shard route, sequence number, body length)
//! followed by a kind-specific body. Bodies use fixed-width little-endian
//! integers and `u32`-length-prefixed byte strings — no varints, no
//! self-describing envelope — so offsets are computable from the spec
//! table.
//!
//! # One codec, no intermediate buffers
//!
//! [`FrameReader`] splits a connection's byte stream into frames — the one
//! splitter, for both ends of a socket and for a bus session. It validates
//! each header with [`decode_header`] (including the per-kind body-length
//! bound — *before* anything is sliced or copied) and hands out the body as a
//! [`Bytes`] view of the one allocation it recycles, for the kind's parser:
//! [`decode_request_body_into`] and [`decode_response_body`] cut keys/values
//! out of it with [`Bytes::slice`] and fill caller-owned buffers, so a warm
//! decode allocates nothing; the small control bodies have `from_body`
//! parsers. Encoding writes straight into a caller-supplied buffer via
//! [`begin_frame`] / [`end_frame`] (the body length is back-patched), so no
//! intermediate body `Vec` is built either. Buffer-ownership rules live in
//! `docs/NETWORK.md` §9.

use crate::message::{ClusterOp, OpResult};
use crate::metrics;
use bytes::Bytes;
use dpr_core::{DprError, Key, Result, SessionId, ShardId, Token, Value, Version, WorldLine};
use dpr_metadata::Cut;
use libdpr::{BatchHeader, BatchReply};
use std::sync::Arc;

/// Leading magic of every frame: the ASCII bytes `D P R 1`.
pub const MAGIC: [u8; 4] = *b"DPR1";

/// Protocol version carried in byte 4 of the header. Peers MUST reject
/// frames with any other value (see [`ProtoErrorCode::UnsupportedVersion`]).
pub const WIRE_VERSION: u8 = 2;

/// Fixed frame-header length in bytes.
pub const FRAME_HEADER_LEN: usize = 24;

/// Upper bound on a frame body. Oversized length prefixes are a protocol
/// error (the connection is poisoned — resynchronisation is impossible).
pub const MAX_FRAME_BODY: usize = 32 << 20;

/// `shard` header value for frames that are not routed to a shard
/// (handshake, cut queries, errors).
pub const NO_SHARD: u32 = u32::MAX;

/// Decode-side sanity bounds (a malicious length prefix must not cause a
/// huge allocation before the body bytes actually arrive).
const MAX_DEPS: usize = 1 << 16;
const MAX_OPS: usize = 1 << 20;

/// Upper bound on a [`FrameKind::Error`] detail string.
const MAX_ERROR_DETAIL: usize = 1 << 16;

/// Frame kinds (header byte 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server, first frame on a connection: binds it to a session.
    Hello = 1,
    /// Server → client: handshake accepted.
    HelloAck = 2,
    /// Client → server: one `(BatchHeader, ops)` batch.
    Request = 3,
    /// Server → client: the outcome of the request with the same `seq`.
    Response = 4,
    /// Client → server: ask for the current DPR cut.
    CutReq = 5,
    /// Server → client: the cut, for client-side commit tracking.
    CutResp = 6,
    /// Server → client: protocol-level rejection (not a batch outcome).
    Error = 7,
    /// Either direction: clean shutdown notice; the peer may close.
    Goodbye = 8,
}

impl FrameKind {
    /// Parse a kind byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Request,
            4 => FrameKind::Response,
            5 => FrameKind::CutReq,
            6 => FrameKind::CutResp,
            7 => FrameKind::Error,
            8 => FrameKind::Goodbye,
            _ => return None,
        })
    }

    /// Largest body this kind may legally carry. Checked by
    /// [`decode_header`] before any body byte is sliced or copied, so a
    /// forged length prefix is rejected as the typed protocol error
    /// instead of driving a copy or allocation.
    #[must_use]
    pub fn max_body_len(self) -> usize {
        match self {
            // session(8) + epoch(4) + world_line(8)
            FrameKind::Hello => 20,
            // epoch(4) + world_line(8) + count(4) + count × shard(4)
            FrameKind::HelloAck => 16 + 4 * MAX_DEPS,
            FrameKind::Request | FrameKind::Response => MAX_FRAME_BODY,
            FrameKind::CutReq | FrameKind::Goodbye => 0,
            // world_line(8) + count(4) + count × (shard(4) + version(8))
            FrameKind::CutResp => 12 + 12 * MAX_DEPS,
            // code(2) + len(4) + detail
            FrameKind::Error => 6 + MAX_ERROR_DETAIL,
        }
    }
}

/// A validated frame header: everything [`decode_header`] could check
/// without touching body bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: FrameKind,
    /// Shard route ([`NO_SHARD`] when not applicable).
    pub shard: u32,
    /// Client-assigned sequence number.
    pub seq: u64,
    /// Body length declared by the header (already bounds-checked against
    /// [`FrameKind::max_body_len`]).
    pub body_len: usize,
}

impl FrameHeader {
    /// Total encoded frame length (header + body).
    #[must_use]
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER_LEN + self.body_len
    }
}

/// Begin writing a frame directly into `out`: writes the header with a
/// zero body length and returns the body-start offset to pass to
/// [`end_frame`], which back-patches the real length. Between the two
/// calls, append body bytes to `out`. No intermediate body buffer is built.
#[must_use]
pub fn begin_frame(out: &mut Vec<u8>, kind: FrameKind, shard: u32, seq: u64) -> usize {
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&0u16.to_le_bytes()); // flags: reserved, zero
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // body length, patched below
    out.len()
}

/// Back-patch the body length of a frame begun with [`begin_frame`].
///
/// # Panics
/// If `body_start` does not point just past a frame header in `out`, or
/// the body exceeds `u32::MAX`.
pub fn end_frame(out: &mut [u8], body_start: usize) {
    assert!(body_start >= FRAME_HEADER_LEN && body_start <= out.len());
    let body_len = u32::try_from(out.len() - body_start).expect("frame body exceeds u32");
    out[body_start - 4..body_start].copy_from_slice(&body_len.to_le_bytes());
}

/// Overwrite the `seq` of an encoded frame in place — what a forwarding
/// proxy does to keep its own numbering on each side of the hop.
///
/// # Panics
/// If `frame` is shorter than a frame header.
pub fn set_seq(frame: &mut [u8], seq: u64) {
    frame[12..20].copy_from_slice(&seq.to_le_bytes());
}

/// Validate and decode one frame *header* from the front of `buf`.
///
/// Returns `Ok(None)` when fewer than [`FRAME_HEADER_LEN`] bytes are
/// available. On success the declared body length has already been checked
/// against both [`MAX_FRAME_BODY`] and the per-kind bound
/// ([`FrameKind::max_body_len`]) — callers may trust
/// [`FrameHeader::body_len`] before a single body byte has been sliced or
/// copied. `Err` means the stream is unrecoverable and the connection must
/// be closed.
pub fn decode_header(buf: &[u8]) -> Result<Option<FrameHeader>> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    if buf[0..4] != MAGIC {
        return Err(DprError::Invalid(format!(
            "bad frame magic {:02x?}",
            &buf[0..4]
        )));
    }
    if buf[4] != WIRE_VERSION {
        return Err(DprError::Invalid(format!(
            "unsupported wire version {}",
            buf[4]
        )));
    }
    let Some(kind) = FrameKind::from_u8(buf[5]) else {
        return Err(DprError::Invalid(format!("unknown frame kind {}", buf[5])));
    };
    let flags = u16::from_le_bytes([buf[6], buf[7]]);
    if flags != 0 {
        return Err(DprError::Invalid(format!("nonzero frame flags {flags:#x}")));
    }
    let shard = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&buf[12..20]);
    let seq = u64::from_le_bytes(seq);
    let body_len = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(DprError::Invalid(format!(
            "oversized frame body {body_len}"
        )));
    }
    if body_len > kind.max_body_len() {
        return Err(DprError::Invalid(format!(
            "{kind:?} body of {body_len} bytes exceeds the kind's bound {}",
            kind.max_body_len()
        )));
    }
    Ok(Some(FrameHeader {
        kind,
        shard,
        seq,
        body_len,
    }))
}

/// Smallest body allocation a [`FrameReader`] makes, so that frames whose
/// sizes differ by a few bytes (the paper's 8-byte keys and values, §7.1,
/// make bodies of ~150 B) are all served from the same one.
const MIN_BODY_ALLOC: usize = 1 << 10;

/// Splits one connection's received bytes into frames.
///
/// The reader owns the bytes its link appends ([`FrameReader::buffer`]), a
/// cursor into them, and **one** body allocation. [`FrameReader::next_frame`]
/// copies a frame's body into that allocation and returns a view of it, so
/// keys and values decoded from the body are zero-copy; when the views of the
/// previous frame are gone by then — the one rule of `docs/NETWORK.md` §9 —
/// the allocation is reused and a warm frame allocates nothing. A new reader
/// ([`Default`]) has nothing buffered.
#[derive(Default)]
pub struct FrameReader {
    /// Received bytes; `buf[pos..]` is not yet handed out.
    buf: Vec<u8>,
    pos: usize,
    /// The last frame's body, reused once nothing else views it.
    body: Arc<[u8]>,
}

impl FrameReader {
    /// Where the link appends what it received. The frames already handed out
    /// are dropped from the front here: once per read, not once per frame.
    pub fn buffer(&mut self) -> &mut Vec<u8> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        &mut self.buf
    }

    /// The next complete frame, or `None` until more bytes arrive. The header
    /// is checked by [`decode_header`] as soon as it is whole, so a forged
    /// length is refused before its body is waited for.
    ///
    /// # Errors
    /// On a malformed header: the stream cannot be resynchronised, and the
    /// connection must be closed.
    pub fn next_frame(&mut self) -> Result<Option<(FrameHeader, Bytes)>> {
        let rest = &self.buf[self.pos..];
        let Some(header) = decode_header(rest)? else {
            return Ok(None);
        };
        let Some(body) = rest.get(FRAME_HEADER_LEN..header.frame_len()) else {
            return Ok(None);
        };
        match Arc::get_mut(&mut self.body).filter(|b| b.len() >= body.len()) {
            Some(recycled) => {
                recycled[..body.len()].copy_from_slice(body);
                metrics::pool_hits().inc();
            }
            // Too small, or a view of the last frame is still alive (a large
            // value a shard kept): that allocation frees with its last view.
            None => {
                let mut fresh = vec![0u8; body.len().next_power_of_two().max(MIN_BODY_ALLOC)];
                fresh[..body.len()].copy_from_slice(body);
                self.body = Arc::from(fresh);
                metrics::pool_misses().inc();
            }
        }
        self.pos += header.frame_len();
        let body = Bytes::from_shared(self.body.clone(), 0..header.body_len);
        Ok(Some((header, body)))
    }
}

// ---------------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Bounds-checked body reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DprError::Invalid("truncated frame body".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_BODY {
            return Err(DprError::Invalid(format!("oversized byte string {len}")));
        }
        self.take(len)
    }

    /// Like [`Cursor::bytes`] but returns the *range* of the string within
    /// the body, so callers holding the body as [`Bytes`] can take a
    /// zero-copy [`Bytes::slice`] instead of copying.
    fn bytes_range(&mut self) -> Result<std::ops::Range<usize>> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_BODY {
            return Err(DprError::Invalid(format!("oversized byte string {len}")));
        }
        let start = self.pos;
        self.take(len)?;
        Ok(start..start + len)
    }

    fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DprError::Invalid("non-UTF-8 string".into()))
    }

    /// Every body byte must be consumed: trailing garbage is a protocol
    /// error, not padding.
    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DprError::Invalid(format!(
                "{} trailing bytes in frame body",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Body of a [`FrameKind::Hello`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The DPR session this connection will carry.
    pub session: SessionId,
    /// Connection epoch: 1 on the first dial, incremented on every
    /// reconnect of the same session. The server fences stale epochs so a
    /// zombie connection cannot race its replacement.
    pub epoch: u32,
    /// World-line the session believes it is on (diagnostic; batches carry
    /// their own world-line and are validated individually).
    pub world_line: WorldLine,
}

impl Hello {
    /// Append the encoded frame to `out` (no intermediate body buffer).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, FrameKind::Hello, NO_SHARD, 0);
        put_u64(out, self.session.0);
        put_u32(out, self.epoch);
        put_u64(out, self.world_line.0);
        end_frame(out, start);
    }

    /// Parse from a [`FrameKind::Hello`] body.
    pub fn from_body(body: &[u8]) -> Result<Hello> {
        let mut c = Cursor::new(body);
        let hello = Hello {
            session: SessionId(c.u64()?),
            epoch: c.u32()?,
            world_line: WorldLine(c.u64()?),
        };
        c.finish()?;
        Ok(hello)
    }
}

/// Body of a [`FrameKind::HelloAck`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Epoch echoed from the accepted [`Hello`].
    pub epoch: u32,
    /// World-line the server is on.
    pub world_line: WorldLine,
    /// Shards reachable through this connection (the fan-in server hosts
    /// many workers behind one listener; clients route with the frame
    /// header's `shard` field).
    pub shards: Vec<ShardId>,
}

impl HelloAck {
    /// Append the encoded frame to `out` (no intermediate body buffer).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, FrameKind::HelloAck, NO_SHARD, 0);
        put_u32(out, self.epoch);
        put_u64(out, self.world_line.0);
        put_u32(out, self.shards.len() as u32);
        for s in &self.shards {
            put_u32(out, s.0);
        }
        end_frame(out, start);
    }

    /// Parse from a [`FrameKind::HelloAck`] body.
    pub fn from_body(body: &[u8]) -> Result<HelloAck> {
        let mut c = Cursor::new(body);
        let epoch = c.u32()?;
        let world_line = WorldLine(c.u64()?);
        let n = c.u32()? as usize;
        if n > MAX_DEPS {
            return Err(DprError::Invalid(format!("absurd shard count {n}")));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(ShardId(c.u32()?));
        }
        c.finish()?;
        Ok(HelloAck {
            epoch,
            world_line,
            shards,
        })
    }
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>, h: &BatchHeader) {
    put_u64(out, h.session.0);
    put_u64(out, h.world_line.0);
    put_u64(out, h.version_lower_bound.0);
    put_u64(out, h.first_serial);
    put_u64(out, h.acked_below);
    put_u32(out, h.op_count);
    put_u32(out, h.deps.len() as u32);
    for t in &h.deps {
        put_u32(out, t.shard.0);
        put_u64(out, t.version.0);
    }
}

/// Decode a batch header into `h`, reusing its `deps` allocation.
fn get_header_into(c: &mut Cursor<'_>, h: &mut BatchHeader) -> Result<()> {
    h.session = SessionId(c.u64()?);
    h.world_line = WorldLine(c.u64()?);
    h.version_lower_bound = Version(c.u64()?);
    h.first_serial = c.u64()?;
    h.acked_below = c.u64()?;
    if h.acked_below > h.first_serial {
        // The batch that carries it is itself unanswered.
        return Err(DprError::Invalid(format!(
            "acknowledgement {} above the batch's first serial {}",
            h.acked_below, h.first_serial
        )));
    }
    h.op_count = c.u32()?;
    let ndeps = c.u32()? as usize;
    if ndeps > MAX_DEPS {
        return Err(DprError::Invalid(format!("absurd dep count {ndeps}")));
    }
    h.deps.clear();
    h.deps.reserve(ndeps);
    for _ in 0..ndeps {
        let shard = ShardId(c.u32()?);
        let version = Version(c.u64()?);
        h.deps.push(Token::new(shard, version));
    }
    Ok(())
}

fn put_op(out: &mut Vec<u8>, op: &ClusterOp) {
    match op {
        ClusterOp::Read(k) => {
            put_u8(out, 0);
            put_bytes(out, &k.0);
        }
        ClusterOp::Upsert(k, v) => {
            put_u8(out, 1);
            put_bytes(out, &k.0);
            put_bytes(out, &v.0);
        }
        ClusterOp::Incr(k) => {
            put_u8(out, 2);
            put_bytes(out, &k.0);
        }
        ClusterOp::Delete(k) => {
            put_u8(out, 3);
            put_bytes(out, &k.0);
        }
    }
}

/// Decode one op, slicing key/value out of `body` zero-copy. The cursor
/// must be positioned inside `body`'s slice.
fn get_op(c: &mut Cursor<'_>, body: &Bytes) -> Result<ClusterOp> {
    let tag = c.u8()?;
    let key = Key(body.slice(c.bytes_range()?));
    Ok(match tag {
        0 => ClusterOp::Read(key),
        1 => {
            let value = Value(body.slice(c.bytes_range()?));
            ClusterOp::Upsert(key, value)
        }
        2 => ClusterOp::Incr(key),
        3 => ClusterOp::Delete(key),
        t => return Err(DprError::Invalid(format!("unknown op tag {t}"))),
    })
}

fn put_op_result(out: &mut Vec<u8>, r: &OpResult) {
    match r {
        OpResult::Value(None) => put_u8(out, 0),
        OpResult::Value(Some(v)) => {
            put_u8(out, 1);
            put_bytes(out, &v.0);
        }
        OpResult::Done => put_u8(out, 2),
    }
}

/// Decode one op result, slicing values out of `body` zero-copy.
fn get_op_result(c: &mut Cursor<'_>, body: &Bytes) -> Result<OpResult> {
    Ok(match c.u8()? {
        0 => OpResult::Value(None),
        1 => OpResult::Value(Some(Value(body.slice(c.bytes_range()?)))),
        2 => OpResult::Done,
        t => return Err(DprError::Invalid(format!("unknown op-result tag {t}"))),
    })
}

fn put_reply(out: &mut Vec<u8>, r: &BatchReply) {
    put_u32(out, r.shard.0);
    put_u64(out, r.world_line.0);
    put_u64(out, r.version.0);
    put_u64(out, r.first_serial);
    put_u32(out, r.op_count);
}

fn get_reply(c: &mut Cursor<'_>) -> Result<BatchReply> {
    Ok(BatchReply {
        shard: ShardId(c.u32()?),
        world_line: WorldLine(c.u64()?),
        version: Version(c.u64()?),
        first_serial: c.u64()?,
        op_count: c.u32()?,
    })
}

fn put_dpr_error(out: &mut Vec<u8>, e: &DprError) {
    match e {
        DprError::WorldLineMismatch { requested, current } => {
            put_u8(out, 1);
            put_u64(out, requested.0);
            put_u64(out, current.0);
        }
        DprError::RolledBack {
            session,
            survived,
            world_line,
        } => {
            put_u8(out, 2);
            put_u64(out, session.0);
            put_u64(out, *survived);
            put_u64(out, world_line.0);
        }
        DprError::NotOwner { shard } => {
            put_u8(out, 3);
            put_u32(out, shard.0);
        }
        DprError::NoSuchCheckpoint { shard, version } => {
            put_u8(out, 4);
            put_u32(out, shard.0);
            put_u64(out, version.0);
        }
        DprError::Recovering => put_u8(out, 5),
        DprError::Closed => put_u8(out, 6),
        DprError::Storage(m) => {
            put_u8(out, 7);
            put_str(out, m);
        }
        DprError::Metadata(m) => {
            put_u8(out, 8);
            put_str(out, m);
        }
        DprError::Invalid(m) => {
            put_u8(out, 9);
            put_str(out, m);
        }
        DprError::Timeout => put_u8(out, 10),
    }
}

fn get_dpr_error(c: &mut Cursor<'_>) -> Result<DprError> {
    Ok(match c.u8()? {
        1 => DprError::WorldLineMismatch {
            requested: WorldLine(c.u64()?),
            current: WorldLine(c.u64()?),
        },
        2 => DprError::RolledBack {
            session: SessionId(c.u64()?),
            survived: c.u64()?,
            world_line: WorldLine(c.u64()?),
        },
        3 => DprError::NotOwner {
            shard: ShardId(c.u32()?),
        },
        4 => DprError::NoSuchCheckpoint {
            shard: ShardId(c.u32()?),
            version: Version(c.u64()?),
        },
        5 => DprError::Recovering,
        6 => DprError::Closed,
        7 => DprError::Storage(c.string()?),
        8 => DprError::Metadata(c.string()?),
        9 => DprError::Invalid(c.string()?),
        10 => DprError::Timeout,
        t => return Err(DprError::Invalid(format!("unknown error tag {t}"))),
    })
}

/// Append an encoded [`FrameKind::Request`] frame directly to `out` —
/// header, batch header, and ops, with no intermediate body buffer.
pub fn encode_request(
    out: &mut Vec<u8>,
    shard: ShardId,
    seq: u64,
    header: &BatchHeader,
    ops: &[ClusterOp],
) {
    let start = begin_frame(out, FrameKind::Request, shard.0, seq);
    put_header(out, header);
    put_u32(out, ops.len() as u32);
    for op in ops {
        put_op(out, op);
    }
    end_frame(out, start);
}

/// Decode a [`FrameKind::Request`] body into the caller's header (its `deps`
/// vector is reused) and ops buffer (appended). Keys and values are sliced
/// out of `body` zero-copy (small ones inline; larger ones share `body`'s
/// backing allocation), so with warm buffers the decode allocates nothing.
pub fn decode_request_body_into(
    body: &Bytes,
    ops: &mut Vec<ClusterOp>,
    header: &mut BatchHeader,
) -> Result<()> {
    let mut c = Cursor::new(body);
    get_header_into(&mut c, header)?;
    decode_ops(c, body, ops)
}

fn decode_ops(mut c: Cursor<'_>, body: &Bytes, ops: &mut Vec<ClusterOp>) -> Result<()> {
    let nops = c.u32()? as usize;
    if nops > MAX_OPS {
        return Err(DprError::Invalid(format!("absurd op count {nops}")));
    }
    ops.reserve(nops);
    for _ in 0..nops {
        ops.push(get_op(&mut c, body)?);
    }
    c.finish()
}

/// Append an encoded [`FrameKind::Response`] frame directly to `out` with
/// no intermediate body buffer: the server borrows the reply and results it
/// just computed.
pub fn encode_response(
    out: &mut Vec<u8>,
    shard: u32,
    seq: u64,
    outcome: std::result::Result<(&BatchReply, &[OpResult]), &DprError>,
) {
    let start = begin_frame(out, FrameKind::Response, shard, seq);
    match outcome {
        Ok((reply, results)) => {
            put_u8(out, 0);
            put_reply(out, reply);
            put_u32(out, results.len() as u32);
            for r in results {
                put_op_result(out, r);
            }
        }
        Err(e) => {
            put_u8(out, 1);
            put_dpr_error(out, e);
        }
    }
    end_frame(out, start);
}

/// Parse a [`FrameKind::Response`] body into a caller-owned results buffer:
/// result values are sliced out of `body` and appended to `results`, so a
/// reused buffer makes decoding allocation-free.
///
/// Returns `Ok(Ok(reply))` for a successful batch (results appended) or
/// `Ok(Err(e))` for a batch-level rejection (nothing appended).
///
/// # Errors
/// On a malformed body (the connection-fatal tier, distinct from the
/// in-band batch error).
pub fn decode_response_body(
    body: &Bytes,
    results: &mut Vec<OpResult>,
) -> Result<std::result::Result<BatchReply, DprError>> {
    let mut c = Cursor::new(body);
    let outcome = match c.u8()? {
        0 => {
            let reply = get_reply(&mut c)?;
            let n = c.u32()? as usize;
            if n > MAX_OPS {
                return Err(DprError::Invalid(format!("absurd result count {n}")));
            }
            results.reserve(n);
            for _ in 0..n {
                let r = get_op_result(&mut c, body)?;
                results.push(r);
            }
            Ok(reply)
        }
        1 => Err(get_dpr_error(&mut c)?),
        t => return Err(DprError::Invalid(format!("unknown outcome tag {t}"))),
    };
    c.finish()?;
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Cut transfer
// ---------------------------------------------------------------------------

/// Body of a [`FrameKind::CutResp`] frame: the metadata store's current cut
/// and world-line, so remote clients can advance their committed prefix
/// without any side channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutResponse {
    /// World-line the cut belongs to.
    pub world_line: WorldLine,
    /// The cut: guaranteed-recoverable version per shard.
    pub cut: Cut,
}

impl CutResponse {
    /// Parse from a [`FrameKind::CutResp`] body.
    pub fn from_body(body: &[u8]) -> Result<CutResponse> {
        let mut c = Cursor::new(body);
        let world_line = WorldLine(c.u64()?);
        let n = c.u32()? as usize;
        if n > MAX_DEPS {
            return Err(DprError::Invalid(format!("absurd cut size {n}")));
        }
        let mut cut = Cut::new();
        for _ in 0..n {
            let shard = ShardId(c.u32()?);
            let version = Version(c.u64()?);
            cut.insert(shard, version);
        }
        c.finish()?;
        Ok(CutResponse { world_line, cut })
    }
}

/// Append an encoded [`FrameKind::CutResp`] frame to `out` from borrowed
/// parts: the server serves its cached cut without cloning it per request
/// (the client parses it with [`CutResponse::from_body`]).
pub fn encode_cut_response(out: &mut Vec<u8>, seq: u64, world_line: WorldLine, cut: &Cut) {
    let start = begin_frame(out, FrameKind::CutResp, NO_SHARD, seq);
    put_u64(out, world_line.0);
    put_u32(out, cut.len() as u32);
    for (shard, version) in cut {
        put_u32(out, shard.0);
        put_u64(out, version.0);
    }
    end_frame(out, start);
}

// ---------------------------------------------------------------------------
// Protocol errors
// ---------------------------------------------------------------------------

/// Codes carried by [`FrameKind::Error`] frames — rejections of the *frame
/// stream itself*, as opposed to batch outcomes (which travel as
/// [`FrameKind::Response`] errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ProtoErrorCode {
    /// Header version byte differs from [`WIRE_VERSION`]. Connection closes.
    UnsupportedVersion = 1,
    /// Undecodable or ill-formed frame. Connection closes.
    BadFrame = 2,
    /// A routed frame arrived before [`Hello`]. Connection closes.
    HandshakeRequired = 3,
    /// [`Hello`] carried an epoch older than one already accepted for the
    /// session — the connection is a zombie. Connection closes.
    StaleEpoch = 4,
    /// The frame's `shard` route is not hosted here. Connection stays open.
    UnknownShard = 5,
    /// The batch is already executing from an earlier delivery; retry
    /// after a delay. Connection stays open.
    DuplicateInFlight = 6,
    /// Server is shutting down. Connection closes.
    Shutdown = 7,
}

impl ProtoErrorCode {
    /// Parse a code.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<ProtoErrorCode> {
        Some(match v {
            1 => ProtoErrorCode::UnsupportedVersion,
            2 => ProtoErrorCode::BadFrame,
            3 => ProtoErrorCode::HandshakeRequired,
            4 => ProtoErrorCode::StaleEpoch,
            5 => ProtoErrorCode::UnknownShard,
            6 => ProtoErrorCode::DuplicateInFlight,
            7 => ProtoErrorCode::Shutdown,
            _ => return None,
        })
    }

    /// Whether the server keeps the connection open after sending this code.
    #[must_use]
    pub fn recoverable(self) -> bool {
        matches!(
            self,
            ProtoErrorCode::UnknownShard | ProtoErrorCode::DuplicateInFlight
        )
    }
}

/// Body of a [`FrameKind::Error`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable code.
    pub code: ProtoErrorCode,
    /// Human-readable detail (may be empty).
    pub detail: String,
}

impl ProtoError {
    /// Append the encoded frame to `out` (no intermediate body buffer).
    pub fn encode(&self, out: &mut Vec<u8>, seq: u64) {
        let start = begin_frame(out, FrameKind::Error, NO_SHARD, seq);
        put_u16(out, self.code as u16);
        put_str(out, &self.detail);
        end_frame(out, start);
    }

    /// Parse from a [`FrameKind::Error`] body.
    pub fn from_body(body: &[u8]) -> Result<ProtoError> {
        let mut c = Cursor::new(body);
        let raw = c.u16()?;
        let code = ProtoErrorCode::from_u16(raw)
            .ok_or_else(|| DprError::Invalid(format!("unknown protocol error code {raw}")))?;
        let detail = c.string()?;
        c.finish()?;
        Ok(ProtoError { code, detail })
    }

    /// The [`DprError`] a client surfaces for this protocol rejection.
    #[must_use]
    pub fn to_dpr_error(&self) -> DprError {
        match self.code {
            ProtoErrorCode::Shutdown => DprError::Closed,
            ProtoErrorCode::DuplicateInFlight => DprError::Recovering,
            _ => DprError::Invalid(format!("protocol error {:?}: {}", self.code, self.detail)),
        }
    }
}

/// Append an empty-bodied frame of the given kind (`CutReq`, `Goodbye`)
/// directly to `out`.
pub fn encode_control(out: &mut Vec<u8>, kind: FrameKind, seq: u64) {
    let start = begin_frame(out, kind, NO_SHARD, seq);
    end_frame(out, start);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Vec<u8> {
        let header = BatchHeader {
            session: SessionId(7),
            world_line: WorldLine(2),
            version_lower_bound: Version(40),
            deps: vec![Token::new(ShardId(1), Version(39))],
            first_serial: 1000,
            acked_below: 992,
            op_count: 1,
        };
        let ops = [ClusterOp::Upsert(Key::from_u64(2), Value::from_u64(9))];
        let mut buf = Vec::new();
        encode_request(&mut buf, ShardId(3), 42, &header, &ops);
        buf
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        encode_control(&mut buf, FrameKind::CutReq, 5);
        // Magic, version, and (nonzero) flags.
        for (at, byte) in [(0, b'X'), (4, 99), (6, 1)] {
            let mut bad = buf.clone();
            bad[at] = byte;
            assert!(decode_header(&bad).is_err(), "byte {at}");
        }
    }

    #[test]
    fn per_kind_body_bounds_are_checked_before_slicing() {
        // A CutReq claiming a body, or a Hello with the wrong size, is
        // rejected from the header alone — even though the declared body
        // bytes are not present in the buffer at all.
        let mut buf = Vec::new();
        encode_control(&mut buf, FrameKind::CutReq, 5);
        buf[20..24].copy_from_slice(&64u32.to_le_bytes()); // claim 64-byte body
        assert!(
            decode_header(&buf).is_err(),
            "bodyful CutReq rejected without body bytes"
        );

        let mut buf = Vec::new();
        Hello {
            session: SessionId(1),
            epoch: 1,
            world_line: WorldLine(1),
        }
        .encode(&mut buf);
        buf[20..24].copy_from_slice(&1024u32.to_le_bytes());
        assert!(decode_header(&buf).is_err(), "oversize Hello rejected");

        // In-bounds headers still pass.
        assert!(decode_header(&sample_request()).unwrap().is_some());
    }
}
