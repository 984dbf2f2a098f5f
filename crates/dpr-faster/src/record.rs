//! In-place log records.
//!
//! A record is one version of one key, laid out **in place** inside a log
//! page (see [`crate::log`]): a 16-byte header of two atomic words followed
//! by the key and value bytes, each zero-padded to 8. The same byte layout
//! is used in memory and on the device, so flushing is a byte copy and
//! logical addresses are byte offsets into one contiguous address space. A
//! record of the paper's size (8-byte key, 8-byte value, §7.1) is 32 bytes:
//! two to a cache line, none across one.
//!
//! ```text
//!  offset  size  field
//!  ------  ----  ------------------------------------------------------
//!       0     8  meta  (atomic) bits  0..44  version (a pad: its length)
//!                               bits 44..60  key_len
//!                               bit 60 PAD, 61 READY, 62 TOMBSTONE,
//!                               bit 63 INVALID
//!       8     8  link  (atomic) bits  0..13  seq: bit 0 = writer in
//!                                            flight; 0x1FFE = SEALED
//!                               bits 13..16  slack = val_cap - val_len
//!                               bits 16..29  val_cap / 8
//!                               bits 29..64  prev / 8 + 1 (0 = none)
//!      16     …  key bytes, zero-padded to 8
//!       …     …  value bytes, zero-padded to val_cap
//! ```
//!
//! The `meta` word is written **last** with release ordering when a record
//! is created; pages are zero-filled when installed, so `meta == 0` means
//! "reserved but not yet visible" and scanners spin briefly (the typed
//! [`crate::log::GetOutcome::NotReady`] window). Rollback's THROW/PURGE
//! invalidation is a single `fetch_or` on the in-place meta word.
//!
//! Value updates in the mutable region go through the seqlock in `link`.
//! A writer takes `seq` from even to odd, writes, and stores the next even
//! number together with the new length, so one load tells a reader both how
//! many bytes to copy and whether its copy is whole. **`seq` never wraps**:
//! it counts up to `SEALED` and stays there. A sealed record is never
//! written in place again (the caller appends a copy, as for a value that
//! does not fit), so the same `link` word is never seen around two
//! different values. A value is written in place only if it stays in the
//! record's own 8-byte size class (`pad8(len) == val_cap`), which is what
//! lets the length be three bits of slack.

use dpr_core::{Key, Value, Version};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Sentinel logical address meaning "no previous record".
pub const NONE_ADDRESS: u64 = u64::MAX;

/// Size of the fixed record header.
pub const HEADER_LEN: usize = 16;

const VERSION_MASK: u64 = (1 << 44) - 1;
/// Largest version a record header can hold.
pub const MAX_VERSION: Version = Version(VERSION_MASK);
const KEY_LEN_SHIFT: u32 = 44;
/// Largest key a record header can describe.
pub(crate) const MAX_KEY_LEN: usize = (1 << 16) - 1;
/// The header word describes a pad region (rest of a page), not a record.
const PAD_BIT: u64 = 1 << 60;
/// Set (with release ordering) once the record's bytes are fully written.
const READY_BIT: u64 = 1 << 61;
const TOMBSTONE_BIT: u64 = 1 << 62;
const INVALID_BIT: u64 = 1 << 63;

const SEQ_MASK: u64 = (1 << 13) - 1;
/// Terminal `seq`: the largest even value. 4,095 in-place writes reach it.
const SEALED: u64 = SEQ_MASK - 1;
const SLACK_SHIFT: u32 = 13;
const SLACK_MASK: u64 = 7;
const CAP_SHIFT: u32 = 16;
const CAP_MASK: u64 = (1 << 13) - 1;
/// Largest value capacity a record header can describe.
pub(crate) const MAX_VAL_CAP: usize = CAP_MASK as usize * 8;
const PREV_SHIFT: u32 = 29;
/// Largest log address a record header can hold as its predecessor.
pub const MAX_ADDRESS: u64 = ((1 << (64 - PREV_SHIFT)) - 2) * 8;

/// Round `n` up to a multiple of 8 (the record alignment unit).
#[must_use]
pub const fn pad8(n: usize) -> usize {
    (n + 7) & !7
}

/// Total in-log footprint of a record with the given key/value-capacity
/// sizes. Both the in-memory arena and the device use this size.
#[must_use]
pub const fn record_footprint(key_len: usize, val_cap: usize) -> usize {
    HEADER_LEN + pad8(key_len) + pad8(val_cap)
}

/// Decoded view of a record's metadata word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// CPR version the record was written in.
    pub version: Version,
    /// True if the record is a delete marker.
    pub tombstone: bool,
    /// True if the record was invalidated by a rollback (§5.5 PURGE) or a
    /// failed read-copy-update publish.
    pub invalid: bool,
}

impl RecordMeta {
    pub(crate) fn unpack(w: u64) -> Self {
        RecordMeta {
            version: Version(w & VERSION_MASK),
            tombstone: w & TOMBSTONE_BIT != 0,
            invalid: w & INVALID_BIT != 0,
        }
    }
}

/// The two header words of a new, never-written record. The limits are
/// checked here, where the values enter a header — before the log reserves
/// the record's bytes; [`crate::FasterKv`] refuses a version, a key or a
/// value beyond them before it gets this far.
pub(crate) fn new_header(
    key_len: usize,
    val_len: usize,
    version: Version,
    tombstone: bool,
    prev: u64,
) -> [u64; 2] {
    [
        pack_meta(version, key_len, tombstone),
        pack_link(prev, val_len),
    ]
}

fn pack_meta(version: Version, key_len: usize, tombstone: bool) -> u64 {
    assert!(
        version <= MAX_VERSION,
        "{version} does not fit a record header"
    );
    assert!(
        key_len <= MAX_KEY_LEN,
        "a {key_len}-byte key does not fit a record header"
    );
    let flags = if tombstone { TOMBSTONE_BIT } else { 0 };
    READY_BIT | flags | ((key_len as u64) << KEY_LEN_SHIFT) | version.0
}

fn meta_key_len(w: u64) -> usize {
    ((w >> KEY_LEN_SHIFT) & MAX_KEY_LEN as u64) as usize
}

/// Footprint of the record whose header words are `meta` and `link`.
pub(crate) fn header_footprint(meta: u64, link: u64) -> usize {
    record_footprint(meta_key_len(meta), link_val_cap(link))
}

fn pack_link(prev: u64, val_len: usize) -> u64 {
    let val_cap = pad8(val_len);
    assert!(
        val_cap <= MAX_VAL_CAP,
        "a {val_len}-byte value does not fit a record header"
    );
    link_with_prev((val_cap as u64 / 8) << CAP_SHIFT, prev) | link_slack(val_cap - val_len)
}

fn link_with_prev(w: u64, prev: u64) -> u64 {
    let linked = if prev == NONE_ADDRESS {
        0
    } else {
        assert!(
            prev.is_multiple_of(8) && prev <= MAX_ADDRESS,
            "log address {prev} does not fit a record header"
        );
        prev / 8 + 1
    };
    (w & ((1 << PREV_SHIFT) - 1)) | (linked << PREV_SHIFT)
}

fn link_slack(slack: usize) -> u64 {
    debug_assert!(slack as u64 <= SLACK_MASK);
    (slack as u64) << SLACK_SHIFT
}

fn link_prev(w: u64) -> u64 {
    match w >> PREV_SHIFT {
        0 => NONE_ADDRESS,
        linked => (linked - 1) * 8,
    }
}

fn link_val_cap(w: u64) -> usize {
    ((w >> CAP_SHIFT) & CAP_MASK) as usize * 8
}

/// Whether a value of `len` bytes may replace, in place, the one of the
/// record whose `link` word is `w`: only one of the same 8-byte size class.
fn link_fits(w: u64, len: usize) -> bool {
    pad8(len) == link_val_cap(w)
}

/// `None` for a word no writer stores: more slack than capacity.
fn link_val_len(w: u64) -> Option<usize> {
    link_val_cap(w).checked_sub(((w >> SLACK_SHIFT) & SLACK_MASK) as usize)
}

/// Pack a pad header word covering `len` bytes.
pub(crate) fn pack_pad(len: usize) -> u64 {
    debug_assert!(len >= 8 && len.is_multiple_of(8));
    PAD_BIT | READY_BIT | len as u64
}

/// What a header's first word describes.
pub(crate) enum HeaderKind {
    /// A record header.
    Record,
    /// A pad region of the given total length (skip it).
    Pad(usize),
}

/// Classify a header's first word; `None` if no appender wrote it (not
/// READY, or a pad of a length that is not a positive multiple of 8).
pub(crate) fn header_kind(meta_word: u64) -> Option<HeaderKind> {
    if meta_word & READY_BIT == 0 {
        return None;
    }
    if meta_word & PAD_BIT == 0 {
        return Some(HeaderKind::Record);
    }
    let len = (meta_word & VERSION_MASK) as usize;
    (len >= 8 && len.is_multiple_of(8)).then_some(HeaderKind::Pad(len))
}

/// The fields of a record header, decoded from bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordHeader {
    pub(crate) meta: RecordMeta,
    pub(crate) prev: u64,
    pub(crate) key_len: usize,
    pub(crate) val_cap: usize,
    pub(crate) val_len: usize,
}

impl RecordHeader {
    pub(crate) fn footprint(&self) -> usize {
        record_footprint(self.key_len, self.val_cap)
    }
}

/// What [`parse_header`] found.
pub(crate) enum Header {
    /// A pad region of the given total length; eight bytes suffice.
    Pad(usize),
    /// A record header.
    Record(RecordHeader),
}

/// The one decoder of header bytes read from a device: `None` if `bytes`
/// is too short for what it starts with or holds a header no appender and
/// no flush writes (see [`header_kind`]; a writer in flight; more slack
/// than capacity). Whether the footprint fits the page is the caller's to
/// check.
pub(crate) fn parse_header(bytes: &[u8]) -> Option<Header> {
    let word = |at: usize| {
        let bytes = bytes.get(at..at + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
    };
    let meta = word(0)?;
    if let HeaderKind::Pad(len) = header_kind(meta)? {
        return Some(Header::Pad(len));
    }
    let link = word(8)?;
    if link & 1 != 0 {
        return None;
    }
    Some(Header::Record(RecordHeader {
        meta: RecordMeta::unpack(meta),
        prev: link_prev(link),
        key_len: meta_key_len(meta),
        val_cap: link_val_cap(link),
        val_len: link_val_len(link)?,
    }))
}

/// A borrowed view of an in-place record inside a resident page.
///
/// Views are only handed out by [`crate::log::RecordLog`] while the caller
/// holds an epoch guard on the log, which is what keeps the underlying
/// frame from being reclaimed. A view must not outlive the guard it was
/// obtained under (the lifetime parameter enforces this).
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    base: *const u8,
    address: u64,
    _guard: std::marker::PhantomData<&'a ()>,
}

// SAFETY: a view is a read-mostly window onto atomically-maintained record
// bytes; all mutation goes through atomics or the seqlock in `link`.
unsafe impl Send for RecordView<'_> {}
// SAFETY: as for `Send`: shared access goes through the same atomics.
unsafe impl Sync for RecordView<'_> {}

#[allow(clippy::cast_ptr_alignment)] // frames are page-aligned; all offsets are 8-aligned
impl<'a> RecordView<'a> {
    /// Construct a view over a record whose header starts at `base`.
    ///
    /// # Safety
    /// `base` must point at a record header, 8-byte aligned, whose
    /// [`RecordView::footprint`] lies inside a frame that stays mapped for
    /// `'a`.
    pub(crate) unsafe fn from_raw(base: *const u8, address: u64) -> RecordView<'a> {
        RecordView {
            base,
            address,
            _guard: std::marker::PhantomData,
        }
    }

    fn meta_atom(&self) -> &AtomicU64 {
        // SAFETY: `from_raw`'s contract: a header, 8-aligned, in a frame
        // mapped for `'a`; this word is only ever accessed atomically.
        unsafe { &*(self.base as *const AtomicU64) }
    }

    fn link_atom(&self) -> &AtomicU64 {
        // SAFETY: `from_raw`'s contract: a header, 8-aligned, in a frame
        // mapped for `'a`; this word is only ever accessed atomically.
        unsafe { &*(self.base.add(8) as *const AtomicU64) }
    }

    /// Length of the key; its bits of `meta` never change after creation.
    fn key_len(&self) -> usize {
        meta_key_len(self.meta_atom().load(Ordering::Relaxed))
    }

    /// Where the value bytes start.
    fn value_ptr(&self) -> *mut u8 {
        // SAFETY: the value region follows the padded key inside the
        // footprint (`from_raw`'s contract).
        unsafe { self.base.add(HEADER_LEN + pad8(self.key_len())) as *mut u8 }
    }

    /// The record's logical (byte) address.
    #[must_use]
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Total in-log footprint of this record.
    #[must_use]
    pub fn footprint(&self) -> usize {
        // Neither word's length bits change after creation.
        header_footprint(
            self.meta_atom().load(Ordering::Relaxed),
            self.link_atom().load(Ordering::Relaxed),
        )
    }

    /// Decoded metadata.
    #[must_use]
    pub fn meta(&self) -> RecordMeta {
        RecordMeta::unpack(self.meta_atom().load(Ordering::Acquire))
    }

    /// Mark the record invalid (rollback PURGE / failed RCU). Idempotent.
    pub fn invalidate(&self) {
        self.meta_atom().fetch_or(INVALID_BIT, Ordering::AcqRel);
    }

    /// Previous record in this hash chain, or [`NONE_ADDRESS`].
    #[must_use]
    pub fn prev(&self) -> u64 {
        link_prev(self.link_atom().load(Ordering::Acquire))
    }

    /// The key bytes (immutable after creation).
    #[must_use]
    pub fn key_bytes(&self) -> &'a [u8] {
        // SAFETY: `key_len` bytes follow the header inside the record's
        // footprint, never change after creation, and stay mapped for `'a`.
        unsafe { std::slice::from_raw_parts(self.base.add(HEADER_LEN), self.key_len()) }
    }

    /// True if this record's key equals `key` (no allocation).
    #[must_use]
    pub fn key_matches(&self, key: &Key) -> bool {
        self.key_bytes() == key.as_bytes()
    }

    /// Hand `copy` the current value, whole: taken under an even `link`
    /// that is the same word after the copy. Returns that word and what the
    /// accepted call of `copy` returned; an earlier call may have been handed
    /// bytes a writer was changing.
    fn read_value_with<T>(&self, mut copy: impl FnMut(&[u8]) -> T) -> (u64, T) {
        let (link, vbase) = (self.link_atom(), self.value_ptr());
        let mut backoff = dpr_core::Backoff::new();
        loop {
            let before = link.load(Ordering::Acquire);
            if before & 1 == 0 {
                // A resident header's slack never exceeds its capacity.
                let len = link_val_len(before).unwrap_or(0);
                // SAFETY: `len <= val_cap` bytes of the value region. A
                // writer holds `seq` odd while it writes them, so a copy it
                // tore is thrown away by the re-check below.
                let out = copy(unsafe { std::slice::from_raw_parts(vbase, len) });
                fence(Ordering::Acquire);
                if link.load(Ordering::Relaxed) == before {
                    return (before, out);
                }
            }
            backoff.snooze();
        }
    }

    /// Snapshot the current value through the seqlock. Values at or below
    /// the `bytes` inline threshold (24 bytes) are returned without heap
    /// allocation.
    #[must_use]
    pub fn read_value(&self) -> Value {
        self.read_value_with(|bytes| Value(bytes::Bytes::copy_from_slice(bytes)))
            .1
    }

    /// Write this record's device image into `dst`: `footprint()` zeroed
    /// bytes. The value goes through the seqlock, so the flusher never
    /// writes a torn one; the meta word is read after it, so an invalidation
    /// racing the capture is not lost on the device copy.
    pub(crate) fn serialize_into(&self, dst: &mut [u8]) {
        let key_end = HEADER_LEN + pad8(self.key_len());
        debug_assert_eq!(dst.len(), self.footprint());
        // SAFETY: the key and its zero padding follow the header inside the
        // record's footprint and never change after creation.
        dst[HEADER_LEN..key_end].copy_from_slice(unsafe {
            std::slice::from_raw_parts(self.base.add(HEADER_LEN), key_end - HEADER_LEN)
        });
        let (link, val_len) = self.read_value_with(|bytes| {
            dst[key_end..key_end + bytes.len()].copy_from_slice(bytes);
            bytes.len()
        });
        // A discarded attempt may have copied a longer value.
        dst[key_end + val_len..].fill(0);
        dst[0..8].copy_from_slice(&self.meta_atom().load(Ordering::Acquire).to_le_bytes());
        dst[8..16].copy_from_slice(&link.to_le_bytes());
    }

    /// Take the seqlock's writer lock: `seq` goes from even to odd. Returns
    /// the even word it replaced, or `None` if the record is sealed.
    fn lock_value(&self) -> Option<u64> {
        let link = self.link_atom();
        let mut backoff = dpr_core::Backoff::new();
        loop {
            let w = link.load(Ordering::Relaxed);
            if w & SEQ_MASK == SEALED {
                return None;
            }
            if w & 1 == 0
                && link
                    .compare_exchange_weak(w, w + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(w);
            }
            backoff.snooze();
        }
    }

    /// Release the writer lock taken from `locked`, publishing `val_len`
    /// bytes of value (`None`: the value is as it was, and the record is
    /// sealed). `seq` moves to the next even number, which is `SEALED` after
    /// 4,095 writes.
    fn unlock_value(&self, locked: u64, val_len: Option<usize>) {
        let next = match val_len {
            Some(len) => {
                let slack = link_slack(link_val_cap(locked) - len);
                ((locked & !(SLACK_MASK << SLACK_SHIFT)) | slack) + 2
            }
            None => locked | SEALED,
        };
        if next & SEQ_MASK == SEALED {
            crate::metrics::record_seals().inc();
        }
        self.link_atom().store(next, Ordering::Release);
    }

    /// Copy `v` over the value. The caller holds the writer lock and has
    /// checked that `v` is of the record's size class.
    fn write_locked(&self, v: &Value) {
        // SAFETY: `v.len() <= val_cap` bytes into the value region, with
        // `seq` odd: no other writer runs, and readers of these bytes retry.
        unsafe { std::ptr::copy_nonoverlapping(v.as_bytes().as_ptr(), self.value_ptr(), v.len()) };
    }

    /// Try to replace the value in place. Fails (returns `false`) if the new
    /// value is not of this record's size class or the record is sealed; the
    /// caller falls back to a read-copy-update append. The caller must have
    /// verified the CPR in-place-update rules first.
    pub fn try_write_value(&self, v: &Value) -> bool {
        if !link_fits(self.link_atom().load(Ordering::Relaxed), v.len()) {
            return false;
        }
        let Some(locked) = self.lock_value() else {
            return false;
        };
        self.write_locked(v);
        self.unlock_value(locked, Some(v.len()));
        true
    }

    /// Read-modify-write the value in place under the seqlock writer lock,
    /// so the read and write are atomic with respect to other updaters.
    /// Returns `false`, the value unchanged, if the record is sealed or the
    /// new value is not of its size class — and in the second case **seals
    /// the record** before it lets the lock go: the caller's
    /// read-copy-update then copies a value no in-place writer can change
    /// any more, so an update made between its read and its publish cannot
    /// be lost under the copy.
    pub fn try_modify_value(&self, f: impl FnOnce(&Value) -> Value) -> bool {
        let Some(locked) = self.lock_value() else {
            return false;
        };
        // We hold the writer lock: the value cannot change under us.
        let len = link_val_len(locked).unwrap_or(0);
        // SAFETY: `len <= val_cap` bytes of the value region, which only
        // the holder of the writer lock — this thread — may write.
        let old = Value(bytes::Bytes::copy_from_slice(unsafe {
            std::slice::from_raw_parts(self.value_ptr(), len)
        }));
        let new = f(&old);
        let fits = link_fits(locked, new.len());
        if fits {
            self.write_locked(&new);
        }
        self.unlock_value(locked, fits.then_some(new.len()));
        fits
    }

    /// Materialize an owned copy (used when handing records across the
    /// epoch-guard boundary, e.g. into checkpoints or tests).
    #[must_use]
    pub fn to_owned_record(&self) -> Record {
        Record {
            address: self.address,
            key: Key(bytes::Bytes::copy_from_slice(self.key_bytes())),
            value: self.read_value(),
            meta: self.meta(),
            prev: self.prev(),
        }
    }
}

impl std::fmt::Debug for RecordView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordView")
            .field("address", &self.address)
            .field("meta", &self.meta())
            .field("prev", &self.prev())
            .finish()
    }
}

/// Write a complete record into `dst` (which must have
/// `record_footprint(key.len(), value.len())` zeroed bytes available) under
/// the header [`new_header`] made for this key and value, setting the meta
/// word last with release ordering so concurrent scanners never observe a
/// partially written record.
///
/// # Safety
/// `dst` must be valid, 8-aligned, zero-filled writable memory of at least
/// the record footprint, exclusively reserved for this record.
#[allow(clippy::cast_ptr_alignment)]
pub(crate) unsafe fn write_record(dst: *mut u8, [meta, link]: [u64; 2], key: &Key, value: &Value) {
    (*(dst.add(8) as *const AtomicU64)).store(link, Ordering::Relaxed);
    std::ptr::copy_nonoverlapping(key.as_bytes().as_ptr(), dst.add(HEADER_LEN), key.len());
    std::ptr::copy_nonoverlapping(
        value.as_bytes().as_ptr(),
        dst.add(HEADER_LEN + pad8(key.len())),
        value.len(),
    );
    (*(dst as *const AtomicU64)).store(meta, Ordering::Release);
}

/// An owned record, materialized from the device (PENDING completion path)
/// or copied out of the arena.
#[derive(Debug, Clone)]
pub struct Record {
    address: u64,
    key: Key,
    value: Value,
    meta: RecordMeta,
    prev: u64,
}

impl Record {
    /// The record's key.
    #[must_use]
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// The record's logical (byte) address.
    #[must_use]
    pub fn address(&self) -> u64 {
        self.address
    }

    /// The value as written.
    #[must_use]
    pub fn read_value(&self) -> Value {
        self.value.clone()
    }

    /// Decoded metadata.
    #[must_use]
    pub fn meta(&self) -> RecordMeta {
        self.meta
    }

    /// Previous record in this hash chain, or [`NONE_ADDRESS`].
    #[must_use]
    pub fn prev(&self) -> u64 {
        self.prev
    }

    /// The log bytes a record of this key and value takes: the original's
    /// footprint less the spare value capacity it may have had.
    #[must_use]
    pub fn footprint(&self) -> usize {
        record_footprint(self.key.len(), self.value.len())
    }

    /// Decode a record from serialized log bytes (the same layout as the
    /// in-memory arena). Returns the record and its total footprint, or
    /// `None` if `buf` is truncated or does not start with a READY record
    /// header. Pad headers must be skipped by the caller.
    #[must_use]
    pub fn decode(buf: &[u8], address: u64) -> Option<(Record, usize)> {
        let Header::Record(header) = parse_header(buf)? else {
            return None;
        };
        Record::from_parts(header, buf, address)
    }

    /// [`Record::decode`] for a header the caller has parsed already.
    pub(crate) fn from_parts(
        header: RecordHeader,
        buf: &[u8],
        address: u64,
    ) -> Option<(Record, usize)> {
        let total = header.footprint();
        let key = buf.get(HEADER_LEN..HEADER_LEN + header.key_len)?;
        let vstart = HEADER_LEN + pad8(header.key_len);
        let value = buf.get(..total)?.get(vstart..vstart + header.val_len)?;
        Some((
            Record {
                address,
                key: Key(bytes::Bytes::copy_from_slice(key)),
                value: Value(bytes::Bytes::copy_from_slice(value)),
                meta: header.meta,
                prev: header.prev,
            },
            total,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_header_is_sixteen_bytes_and_a_paper_size_record_thirty_two() {
        assert_eq!(HEADER_LEN, 16);
        assert_eq!(record_footprint(8, 8), 32);
        assert_eq!(record_footprint(0, 0), 16);
        assert_eq!(record_footprint(9, 17), 16 + 16 + 24);
        assert_eq!(record_footprint(1, 1) % 8, 0);
    }

    #[test]
    fn header_words_pack_and_unpack() {
        for (ts, inv) in [(false, false), (true, false), (false, true), (true, true)] {
            let [mut meta, link] = new_header(300, 21, Version(123_456), ts, 4096);
            if inv {
                meta |= INVALID_BIT;
            }
            let want = RecordMeta {
                version: Version(123_456),
                tombstone: ts,
                invalid: inv,
            };
            assert_eq!(RecordMeta::unpack(meta), want);
            assert!(matches!(header_kind(meta), Some(HeaderKind::Record)));
            assert_eq!(meta_key_len(meta), 300);
            assert_eq!(link_prev(link), 4096);
            assert_eq!(link_val_cap(link), 24);
            assert_eq!(link_val_len(link), Some(21));
            assert_eq!(link & SEQ_MASK, 0);
            assert_eq!(header_footprint(meta, link), 16 + 304 + 24);
        }
    }

    #[test]
    fn the_largest_values_of_every_field_round_trip() {
        let [meta, link] = new_header(
            MAX_KEY_LEN,
            MAX_VAL_CAP - 7,
            MAX_VERSION,
            false,
            MAX_ADDRESS,
        );
        assert_eq!(RecordMeta::unpack(meta).version, MAX_VERSION);
        assert_eq!(meta_key_len(meta), MAX_KEY_LEN);
        assert_eq!(link_val_cap(link), MAX_VAL_CAP);
        assert_eq!(link_val_len(link), Some(MAX_VAL_CAP - 7));
        assert_eq!(link_prev(link), MAX_ADDRESS);
        let [_, link] = new_header(0, 0, Version::ZERO, false, NONE_ADDRESS);
        assert_eq!(link, 0);
        assert_eq!(link_prev(link), NONE_ADDRESS);
    }

    #[test]
    fn a_value_beyond_a_header_field_is_refused_where_it_enters() {
        let refused = |f: fn() -> [u64; 2]| std::panic::catch_unwind(f).is_err();
        assert!(refused(|| new_header(
            8,
            8,
            Version(MAX_VERSION.0 + 1),
            false,
            0
        )));
        assert!(refused(|| new_header(
            MAX_KEY_LEN + 1,
            8,
            Version(1),
            false,
            0
        )));
        assert!(refused(|| new_header(
            8,
            MAX_VAL_CAP + 1,
            Version(1),
            false,
            0
        )));
        assert!(refused(|| new_header(
            8,
            8,
            Version(1),
            false,
            MAX_ADDRESS + 8
        )));
        assert!(refused(|| new_header(8, 8, Version(1), false, 12)));
    }

    #[test]
    fn pad_header_round_trips() {
        assert!(matches!(
            header_kind(pack_pad(4096)),
            Some(HeaderKind::Pad(4096))
        ));
        assert!(matches!(header_kind(pack_pad(8)), Some(HeaderKind::Pad(8))));
        let bytes = pack_pad(8).to_le_bytes();
        assert!(
            matches!(parse_header(&bytes), Some(Header::Pad(8))),
            "one word is a whole pad"
        );
        // No appender writes these: unwritten, not READY, a pad of no length
        // or of a length that is not a multiple of 8.
        for word in [
            0,
            PAD_BIT | 64,
            PAD_BIT | READY_BIT,
            PAD_BIT | READY_BIT | 12,
        ] {
            assert!(header_kind(word).is_none(), "{word:#x}");
        }
    }

    /// Aligned scratch for record bytes (`u64` backing guarantees the
    /// 8-byte alignment the atomic header fields need).
    fn write_to_buf(key: &Key, value: &Value, version: Version, tombstone: bool) -> Vec<u64> {
        write_linked(key, value, version, tombstone, 56)
    }

    fn write_linked(
        key: &Key,
        value: &Value,
        version: Version,
        tombstone: bool,
        prev: u64,
    ) -> Vec<u64> {
        let total = record_footprint(key.len(), value.len());
        let mut buf = vec![0u64; total / 8];
        let header = new_header(key.len(), value.len(), version, tombstone, prev);
        // SAFETY: `buf` is zeroed, 8-aligned, exactly the footprint, and ours.
        unsafe { write_record(buf.as_mut_ptr().cast::<u8>(), header, key, value) };
        buf
    }

    fn as_bytes(buf: &[u64]) -> &[u8] {
        // SAFETY: the same memory, read as eight bytes per `u64`.
        unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) }
    }

    fn view(buf: &[u64]) -> RecordView<'_> {
        // SAFETY: `buf` holds a whole READY record, 8-aligned, and outlives
        // the view.
        unsafe { RecordView::from_raw(buf.as_ptr().cast::<u8>(), 0) }
    }

    #[test]
    fn write_then_decode_round_trip() {
        let key = Key::from("some-key");
        let value = Value::from("some-value-bytes!");
        let buf = write_to_buf(&key, &value, Version(9), true);
        let bytes = as_bytes(&buf);
        let (rec, used) = Record::decode(bytes, 42).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(used, 16 + 8 + 24);
        assert_eq!(rec.key(), &key);
        assert_eq!(rec.read_value(), value);
        assert_eq!(rec.prev(), 56);
        assert_eq!(rec.address(), 42);
        assert!(rec.meta().tombstone);
        assert!(!rec.meta().invalid);
        assert_eq!(rec.meta().version, Version(9));
        // The flusher's copy of the resident record is the same bytes.
        let mut image = vec![0u8; used];
        view(&buf).serialize_into(&mut image);
        assert_eq!(image, bytes);
    }

    #[test]
    fn decode_rejects_truncation_and_headers_nobody_writes() {
        let buf = write_to_buf(&Key::from_u64(1), &Value::from_u64(2), Version(1), false);
        let bytes = as_bytes(&buf);
        for cut in [0, 10, HEADER_LEN - 1, bytes.len() - 1] {
            assert!(Record::decode(&bytes[..cut], 0).is_none());
        }
        let zeros = vec![0u8; 64];
        assert!(Record::decode(&zeros, 0).is_none(), "meta 0 = unready");
        let with_link = |f: fn(u64) -> u64| {
            let mut bad = bytes.to_vec();
            let link = u64::from_le_bytes(bad[8..16].try_into().unwrap());
            bad[8..16].copy_from_slice(&f(link).to_le_bytes());
            Record::decode(&bad, 0)
        };
        assert!(with_link(|l| l).is_some());
        assert!(with_link(|l| l | 1).is_none(), "a writer in flight");
        assert!(
            with_link(|l| (l & !(CAP_MASK << CAP_SHIFT)) | link_slack(1)).is_none(),
            "more slack than capacity"
        );
        assert!(
            with_link(|l| l + (1 << CAP_SHIFT)).is_none(),
            "a capacity past the bytes there are"
        );
        assert!(
            Record::decode(&pack_pad(64).to_le_bytes(), 0).is_none(),
            "a pad"
        );
    }

    #[test]
    fn view_reads_and_updates_in_place() {
        let key = Key::from_u64(5);
        let value = Value::from_u64(50);
        // The largest link: an in-place write leaves every bit of it be.
        let buf = write_linked(&key, &value, Version(3), false, MAX_ADDRESS);
        let view = view(&buf);
        assert!(view.key_matches(&key));
        assert_eq!(view.footprint(), 32);
        assert_eq!(view.read_value().as_u64(), Some(50));
        assert_eq!(view.prev(), MAX_ADDRESS);
        assert!(view.try_write_value(&Value::from_u64(60)));
        assert_eq!(view.read_value().as_u64(), Some(60));
        // Any length of the record's own 8-byte class goes in place...
        assert!(view.try_write_value(&Value::from("abc")));
        assert_eq!(view.read_value(), Value::from("abc"));
        assert!(view.try_write_value(&Value::from_u64(61)));
        assert_eq!(view.read_value().as_u64(), Some(61));
        assert_eq!(view.prev(), MAX_ADDRESS);
        // ...and one of another class is refused, state unchanged.
        let big = Value(bytes::Bytes::copy_from_slice(&[0xAB; 100]));
        assert!(!view.try_write_value(&big));
        assert!(!view.try_write_value(&Value(bytes::Bytes::new())));
        assert_eq!(view.read_value().as_u64(), Some(61));
        view.invalidate();
        assert!(view.meta().invalid);
        assert_eq!(view.meta().version, Version(3));
        assert!(view.key_matches(&key));
    }

    #[test]
    fn modify_value_is_atomic_read_modify_write() {
        let key = Key::from_u64(1);
        let buf = write_to_buf(&key, &Value::from_u64(0), Version(1), false);
        let view = view(&buf);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        assert!(
                            view.try_modify_value(|v| Value::from_u64(v.as_u64().unwrap() + 1))
                        );
                    }
                });
            }
        });
        assert_eq!(view.read_value().as_u64(), Some(4000));
    }

    #[test]
    fn an_rmw_result_of_another_size_class_seals_the_record() {
        let buf = write_to_buf(&Key::from_u64(1), &Value::from_u64(7), Version(1), false);
        let view = view(&buf);
        let seals = crate::metrics::record_seals().get();
        assert!(!view.try_modify_value(|_| Value::from("nine bytes")));
        assert!(crate::metrics::record_seals().get() > seals);
        assert_eq!(
            view.read_value().as_u64(),
            Some(7),
            "the value is as it was"
        );
        assert!(!view.try_write_value(&Value::from_u64(8)), "sealed");
        assert!(!view.try_modify_value(|v| v.clone()), "sealed");
        assert_eq!(view.read_value().as_u64(), Some(7));
        let mut image = vec![0u8; 32];
        view.serialize_into(&mut image);
        assert_eq!(
            Record::decode(&image, 0).unwrap().0.read_value().as_u64(),
            Some(7)
        );
    }

    /// The never-wraps invariant of `docs/PROTOCOL.md`: 4,095 in-place
    /// writes take `seq` to `SEALED`, where it stays, so a reader's two loads
    /// of `link` can never agree around two different values. The reader
    /// here copies a 24-byte value (three words, so a torn copy would show)
    /// for as long as the writer writes.
    #[test]
    fn a_record_written_past_its_seal_is_never_read_torn() {
        use std::sync::atomic::AtomicBool;
        let fill = |b: u8| Value(bytes::Bytes::copy_from_slice(&[b; 24]));
        let buf = write_to_buf(&Key::from_u64(1), &fill(0), Version(1), false);
        let view = view(&buf);
        let (reading, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let reads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let value = view.read_value();
                    let bytes = value.as_bytes();
                    assert_eq!(bytes.len(), 24);
                    assert!(bytes.iter().all(|&b| b == bytes[0]), "torn: {bytes:?}");
                    reads += 1;
                    reading.store(true, Ordering::Release);
                }
                reads
            });
            while !reading.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let in_place = SEALED / 2;
            assert_eq!(in_place, 4095);
            for i in 1..=in_place {
                assert!(view.try_write_value(&fill(i as u8)), "write {i}");
            }
            for i in 0..100u8 {
                assert!(
                    !view.try_write_value(&fill(i)),
                    "sealed from write 4,096 on"
                );
                assert!(!view.try_modify_value(|v| v.clone()));
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        assert_eq!(view.read_value(), fill((SEALED / 2) as u8));
    }

    /// The store's side of the seal: an upsert that finds its record sealed
    /// appends a copy, as for a value that does not fit, and nothing else
    /// makes the log longer.
    #[test]
    fn a_store_appends_one_copy_per_4096_upserts_of_one_key() {
        use crate::{FasterConfig, FasterKv};
        use dpr_storage::{MemBlobStore, MemLogDevice};
        let kv = FasterKv::new(
            FasterConfig::default(),
            std::sync::Arc::new(MemLogDevice::null()),
            std::sync::Arc::new(MemBlobStore::new()),
        );
        let s = kv.start_session(dpr_core::SessionId(1));
        let key = Key::from_u64(1);
        let upserts = 3 * 4096 + 5;
        for i in 0..upserts {
            s.upsert(key.clone(), Value::from_u64(i)).unwrap();
            assert_eq!(kv.get(&key).unwrap().unwrap().as_u64(), Some(i));
        }
        // The first write of each record is its append; 4,095 more fit.
        assert_eq!(kv.log_tail(), 32 * upserts.div_ceil(4096));
    }
}
