//! In-place log records.
//!
//! A record is one version of one key, laid out **in place** inside a log
//! page (see [`crate::log`]): a fixed 32-byte header followed by the key and
//! value bytes, with every field 8-byte aligned. The same byte layout is
//! used in memory and on the device, so flushing is a byte copy and logical
//! addresses are byte offsets into one contiguous address space.
//!
//! ```text
//!  offset  size  field
//!  ------  ----  ------------------------------------------------------
//!       0     8  meta     (atomic: version | PAD | READY | TOMB | INVALID)
//!       8     8  prev     (atomic: byte address of chain predecessor)
//!      16     4  key_len
//!      20     4  val_cap  (value capacity, multiple of 8)
//!      24     4  val_len  (atomic: current value length, <= val_cap)
//!      28     4  vseq     (atomic seqlock: odd while a value write is
//!                          in flight; doubles as the writer lock)
//!      32     …  key bytes, zero-padded to 8
//!       …     …  value bytes, zero-padded to val_cap
//! ```
//!
//! The `meta` word is written **last** with release ordering when a record
//! is created; pages are zero-filled when installed, so `meta == 0` means
//! "reserved but not yet visible" and scanners spin briefly (the typed
//! [`crate::log::GetOutcome::NotReady`] window). Rollback's THROW/PURGE
//! invalidation is a single `fetch_or` on the in-place meta word. Value
//! updates in the mutable region go through the `vseq` seqlock so readers
//! and the flusher never observe a torn value.

use dpr_core::{Key, Value, Version};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel logical address meaning "no previous record".
pub const NONE_ADDRESS: u64 = u64::MAX;

const VERSION_MASK: u64 = (1 << 48) - 1;
/// The header word describes a pad region (rest of a page), not a record.
pub(crate) const PAD_BIT: u64 = 1 << 59;
/// Set (with release ordering) once the record's bytes are fully written.
pub(crate) const READY_BIT: u64 = 1 << 60;
const TOMBSTONE_BIT: u64 = 1 << 62;
const INVALID_BIT: u64 = 1 << 63;

/// Size of the fixed record header.
pub const HEADER_LEN: usize = 32;

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
    pub(crate) fn pack(self) -> u64 {
        let mut w = (self.version.0 & VERSION_MASK) | READY_BIT;
        if self.tombstone {
            w |= TOMBSTONE_BIT;
        }
        if self.invalid {
            w |= INVALID_BIT;
        }
        w
    }

    pub(crate) fn unpack(w: u64) -> Self {
        RecordMeta {
            version: Version(w & VERSION_MASK),
            tombstone: w & TOMBSTONE_BIT != 0,
            invalid: w & INVALID_BIT != 0,
        }
    }
}

/// Pack a pad header word covering `len` bytes.
pub(crate) fn pack_pad(len: usize) -> u64 {
    PAD_BIT | READY_BIT | (len as u64 & VERSION_MASK)
}

/// What a nonzero header word at a parse offset describes.
pub(crate) enum HeaderKind {
    /// A record header.
    Record,
    /// A pad region of the given total length (skip it).
    Pad(usize),
}

pub(crate) fn header_kind(meta_word: u64) -> HeaderKind {
    if meta_word & PAD_BIT != 0 {
        HeaderKind::Pad((meta_word & VERSION_MASK) as usize)
    } else {
        HeaderKind::Record
    }
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
// bytes; all mutation goes through atomics or the vseq seqlock.
unsafe impl Send for RecordView<'_> {}
// SAFETY: as for `Send`: shared access goes through the same atomics.
unsafe impl Sync for RecordView<'_> {}

#[allow(clippy::cast_ptr_alignment)] // frames are page-aligned; all offsets are 8-aligned
impl<'a> RecordView<'a> {
    /// Construct a view over a record whose header starts at `base`.
    ///
    /// # Safety
    /// `base` must point at a fully written (READY) record header inside a
    /// frame that stays mapped for `'a`, 8-byte aligned.
    pub(crate) unsafe fn from_raw(base: *const u8, address: u64) -> RecordView<'a> {
        RecordView {
            base,
            address,
            _guard: std::marker::PhantomData,
        }
    }

    fn meta_atom(&self) -> &AtomicU64 {
        // SAFETY: `from_raw`'s contract: a READY header, 8-aligned, in a frame
        // mapped for `'a`; this field is only ever accessed atomically.
        unsafe { &*(self.base as *const AtomicU64) }
    }

    fn prev_atom(&self) -> &AtomicU64 {
        // SAFETY: `from_raw`'s contract: a READY header, 8-aligned, in a frame
        // mapped for `'a`; this field is only ever accessed atomically.
        unsafe { &*(self.base.add(8) as *const AtomicU64) }
    }

    fn val_len_atom(&self) -> &AtomicU32 {
        // SAFETY: `from_raw`'s contract: a READY header, 8-aligned, in a frame
        // mapped for `'a`; this field is only ever accessed atomically.
        unsafe { &*(self.base.add(24) as *const AtomicU32) }
    }

    fn vseq_atom(&self) -> &AtomicU32 {
        // SAFETY: `from_raw`'s contract: a READY header, 8-aligned, in a frame
        // mapped for `'a`; this field is only ever accessed atomically.
        unsafe { &*(self.base.add(28) as *const AtomicU32) }
    }

    pub(crate) fn key_len(&self) -> usize {
        // SAFETY: `from_raw`'s contract; the field is at an 8-aligned offset
        // inside the header and never changes after creation.
        unsafe { u32::from_le_bytes(*(self.base.add(16) as *const [u8; 4])) as usize }
    }

    pub(crate) fn val_cap(&self) -> usize {
        // SAFETY: `from_raw`'s contract; the field is at an 8-aligned offset
        // inside the header and never changes after creation.
        unsafe { u32::from_le_bytes(*(self.base.add(20) as *const [u8; 4])) as usize }
    }

    /// The record's logical (byte) address.
    #[must_use]
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Total in-log footprint of this record.
    #[must_use]
    pub fn footprint(&self) -> usize {
        record_footprint(self.key_len(), self.val_cap())
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
        self.prev_atom().load(Ordering::Acquire)
    }

    /// Re-link the chain predecessor. Only called by the appending thread
    /// while retrying the publish CAS (the record is not yet reachable).
    pub fn set_prev(&self, prev: u64) {
        self.prev_atom().store(prev, Ordering::Release);
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

    /// Snapshot the current value through the seqlock. Values at or below
    /// the `bytes` inline threshold (24 bytes) are returned without heap
    /// allocation.
    #[must_use]
    pub fn read_value(&self) -> Value {
        // SAFETY: the value region follows the padded key inside the footprint.
        let vbase = unsafe { self.base.add(HEADER_LEN + pad8(self.key_len())) };
        let vseq = self.vseq_atom();
        let mut backoff = dpr_core::Backoff::new();
        loop {
            let s1 = vseq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let len = self.val_len_atom().load(Ordering::Acquire) as usize;
                // SAFETY: at most `val_cap` bytes of the value region. A
                // writer holds `vseq` odd while it writes them, so a copy it
                // tore is thrown away by the re-check below.
                let bytes = unsafe { std::slice::from_raw_parts(vbase, len.min(self.val_cap())) };
                let value = Value(bytes::Bytes::copy_from_slice(bytes));
                std::sync::atomic::fence(Ordering::Acquire);
                if vseq.load(Ordering::Relaxed) == s1 {
                    return value;
                }
            }
            backoff.snooze();
        }
    }

    /// Write this record's device image into `dst`: `footprint()` zeroed
    /// bytes. The value goes through the seqlock, so the flusher never
    /// writes a torn one; the meta word is read after it, so an invalidation
    /// racing the capture is not lost on the device copy.
    pub(crate) fn serialize_into(&self, dst: &mut [u8]) {
        let (key_len, val_cap) = (self.key_len(), self.val_cap());
        let key_end = HEADER_LEN + pad8(key_len);
        debug_assert_eq!(dst.len(), key_end + val_cap);
        // SAFETY: the key and its zero padding follow the header inside the
        // record's footprint and never change after creation.
        dst[HEADER_LEN..key_end].copy_from_slice(unsafe {
            std::slice::from_raw_parts(self.base.add(HEADER_LEN), pad8(key_len))
        });
        // SAFETY: the value region follows the key inside the footprint.
        let vbase = unsafe { self.base.add(key_end) };
        let vseq = self.vseq_atom();
        let mut backoff = dpr_core::Backoff::new();
        let val_len = loop {
            let s1 = vseq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let len = (self.val_len_atom().load(Ordering::Acquire) as usize).min(val_cap);
                // SAFETY: `len <= val_cap` bytes of the value region; a
                // concurrent writer is detected by the vseq re-check.
                dst[key_end..key_end + len]
                    .copy_from_slice(unsafe { std::slice::from_raw_parts(vbase, len) });
                std::sync::atomic::fence(Ordering::Acquire);
                if vseq.load(Ordering::Relaxed) == s1 {
                    break len;
                }
            }
            backoff.snooze();
        };
        // A discarded attempt may have copied a longer value.
        dst[key_end + val_len..].fill(0);
        dst[0..8].copy_from_slice(&self.meta_atom().load(Ordering::Acquire).to_le_bytes());
        dst[8..16].copy_from_slice(&self.prev().to_le_bytes());
        dst[16..20].copy_from_slice(&(key_len as u32).to_le_bytes());
        dst[20..24].copy_from_slice(&(val_cap as u32).to_le_bytes());
        dst[24..28].copy_from_slice(&(val_len as u32).to_le_bytes());
    }

    /// Try to replace the value in place. Fails (returns `false`) if the new
    /// value does not fit this record's capacity; the caller falls back to a
    /// read-copy-update append. The caller must have verified the CPR
    /// in-place-update rules first.
    pub fn try_write_value(&self, v: &Value) -> bool {
        if v.len() > self.val_cap() {
            return false;
        }
        // SAFETY: `v.len() <= val_cap` bytes into the value region, with
        // `vseq` odd: no other writer runs, and readers of these bytes retry.
        self.with_value_lock(|| unsafe {
            let vbase = self.base.add(HEADER_LEN + pad8(self.key_len())) as *mut u8;
            std::ptr::copy_nonoverlapping(v.as_bytes().as_ptr(), vbase, v.len());
            self.val_len_atom().store(v.len() as u32, Ordering::Release);
        });
        true
    }

    /// Read-modify-write the value in place under the seqlock writer lock,
    /// so the read and write are atomic with respect to other updaters.
    /// Returns `false` (state unchanged) if the new value exceeds capacity.
    pub fn try_modify_value(&self, f: impl FnOnce(&Value) -> Value) -> bool {
        let mut wrote = false;
        self.with_value_lock(|| {
            // We hold the writer lock: the value cannot change under us.
            // SAFETY: the value region follows the padded key inside the footprint.
            let vbase = unsafe { self.base.add(HEADER_LEN + pad8(self.key_len())) };
            let len = self.val_len_atom().load(Ordering::Acquire) as usize;
            // SAFETY: at most `val_cap` bytes, which only the holder of the
            // writer lock — this thread — may write.
            let old = Value(bytes::Bytes::copy_from_slice(unsafe {
                std::slice::from_raw_parts(vbase, len.min(self.val_cap()))
            }));
            let new = f(&old);
            if new.len() <= self.val_cap() {
                // SAFETY: `new.len() <= val_cap` bytes into the value region,
                // with `vseq` odd: readers of these bytes retry.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        new.as_bytes().as_ptr(),
                        vbase as *mut u8,
                        new.len(),
                    );
                }
                self.val_len_atom()
                    .store(new.len() as u32, Ordering::Release);
                wrote = true;
            }
        });
        wrote
    }

    /// Run `f` holding the seqlock writer lock (vseq odd).
    fn with_value_lock(&self, f: impl FnOnce()) {
        let vseq = self.vseq_atom();
        let mut backoff = dpr_core::Backoff::new();
        let s = loop {
            let s = vseq.load(Ordering::Relaxed);
            if s & 1 == 0
                && vseq
                    .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                break s;
            }
            backoff.snooze();
        };
        f();
        vseq.store(s.wrapping_add(2), Ordering::Release);
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
/// `record_footprint(key.len(), val_cap)` zeroed bytes available), setting
/// the meta word last with release ordering so concurrent scanners never
/// observe a partially written record.
///
/// # Safety
/// `dst` must be valid, 8-aligned, zero-filled writable memory of at least
/// the record footprint, exclusively reserved for this record.
pub(crate) unsafe fn write_record(
    dst: *mut u8,
    key: &Key,
    value: &Value,
    val_cap: usize,
    version: Version,
    tombstone: bool,
    prev: u64,
) {
    debug_assert!(value.len() <= val_cap);
    debug_assert_eq!(val_cap % 8, 0);
    let key_len = key.len();
    std::ptr::copy_nonoverlapping((key_len as u32).to_le_bytes().as_ptr(), dst.add(16), 4);
    std::ptr::copy_nonoverlapping((val_cap as u32).to_le_bytes().as_ptr(), dst.add(20), 4);
    (*(dst.add(24) as *const AtomicU32)).store(value.len() as u32, Ordering::Relaxed);
    (*(dst.add(28) as *const AtomicU32)).store(0, Ordering::Relaxed);
    (*(dst.add(8) as *const AtomicU64)).store(prev, Ordering::Relaxed);
    std::ptr::copy_nonoverlapping(key.as_bytes().as_ptr(), dst.add(HEADER_LEN), key_len);
    std::ptr::copy_nonoverlapping(
        value.as_bytes().as_ptr(),
        dst.add(HEADER_LEN + pad8(key_len)),
        value.len(),
    );
    let meta = RecordMeta {
        version,
        tombstone,
        invalid: false,
    }
    .pack();
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

    /// Decode a record from serialized log bytes (the same layout as the
    /// in-memory arena). Returns the record and its total footprint, or
    /// `None` if `buf` is truncated or does not start with a READY record
    /// header. Pad headers must be skipped by the caller.
    #[must_use]
    pub fn decode(buf: &[u8], address: u64) -> Option<(Record, usize)> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let meta_word = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        if meta_word & READY_BIT == 0 || meta_word & PAD_BIT != 0 {
            return None;
        }
        let prev = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let key_len = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
        let val_cap = u32::from_le_bytes(buf[20..24].try_into().unwrap()) as usize;
        let val_len = u32::from_le_bytes(buf[24..28].try_into().unwrap()) as usize;
        let total = record_footprint(key_len, val_cap);
        if val_len > val_cap || buf.len() < total {
            return None;
        }
        let key = Key(bytes::Bytes::copy_from_slice(
            &buf[HEADER_LEN..HEADER_LEN + key_len],
        ));
        let vstart = HEADER_LEN + pad8(key_len);
        let value = Value(bytes::Bytes::copy_from_slice(
            &buf[vstart..vstart + val_len],
        ));
        Some((
            Record {
                address,
                key,
                value,
                meta: RecordMeta::unpack(meta_word),
                prev,
            },
            total,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_packs_and_unpacks() {
        for (ts, inv) in [(false, false), (true, false), (false, true), (true, true)] {
            let m = RecordMeta {
                version: Version(123_456),
                tombstone: ts,
                invalid: inv,
            };
            assert_eq!(RecordMeta::unpack(m.pack()), m);
            assert_ne!(m.pack(), 0, "packed meta is never the unwritten word");
        }
    }

    #[test]
    fn pad_header_round_trips() {
        let w = pack_pad(4096);
        match header_kind(w) {
            HeaderKind::Pad(n) => assert_eq!(n, 4096),
            HeaderKind::Record => panic!("pad decoded as record"),
        }
        match header_kind(RecordMeta::unpack(0).pack()) {
            HeaderKind::Record => {}
            HeaderKind::Pad(_) => panic!("record decoded as pad"),
        }
    }

    #[test]
    fn footprint_is_aligned_and_covers_payload() {
        assert_eq!(record_footprint(8, 8), 48);
        assert_eq!(record_footprint(0, 0), 32);
        assert_eq!(record_footprint(9, 17), 32 + 16 + 24);
        assert_eq!(record_footprint(1, 1) % 8, 0);
    }

    /// Aligned scratch for record bytes (`u64` backing guarantees the
    /// 8-byte alignment the atomic header fields need).
    fn write_to_buf(key: &Key, value: &Value, version: Version, tombstone: bool) -> Vec<u64> {
        let cap = pad8(value.len());
        let total = record_footprint(key.len(), cap);
        let mut buf = vec![0u64; total / 8];
        // SAFETY: `buf` is zeroed, 8-aligned, exactly the footprint, and ours.
        unsafe {
            write_record(
                buf.as_mut_ptr().cast::<u8>(),
                key,
                value,
                cap,
                version,
                tombstone,
                7,
            );
        }
        buf
    }

    fn as_bytes(buf: &[u64]) -> &[u8] {
        // SAFETY: the same memory, read as eight bytes per `u64`.
        unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) }
    }

    #[test]
    fn write_then_decode_round_trip() {
        let key = Key::from("some-key");
        let value = Value::from("some-value-bytes");
        let buf = write_to_buf(&key, &value, Version(9), true);
        let bytes = as_bytes(&buf);
        let (rec, used) = Record::decode(bytes, 42).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(rec.key(), &key);
        assert_eq!(rec.read_value(), value);
        assert_eq!(rec.prev(), 7);
        assert_eq!(rec.address(), 42);
        assert!(rec.meta().tombstone);
        assert!(!rec.meta().invalid);
        assert_eq!(rec.meta().version, Version(9));
    }

    #[test]
    fn decode_rejects_truncation_and_unready() {
        let buf = write_to_buf(&Key::from_u64(1), &Value::from_u64(2), Version(1), false);
        let bytes = as_bytes(&buf);
        for cut in [0, 10, HEADER_LEN - 1, bytes.len() - 1] {
            assert!(Record::decode(&bytes[..cut], 0).is_none());
        }
        let zeros = vec![0u8; 64];
        assert!(Record::decode(&zeros, 0).is_none(), "meta 0 = unready");
    }

    #[test]
    fn view_reads_and_updates_in_place() {
        let key = Key::from_u64(5);
        let value = Value::from_u64(50);
        let buf = write_to_buf(&key, &value, Version(3), false);
        // SAFETY: `buf` holds a READY record, 8-aligned, and outlives the view.
        let view = unsafe { RecordView::from_raw(buf.as_ptr().cast::<u8>(), 0) };
        assert!(view.key_matches(&key));
        assert_eq!(view.read_value().as_u64(), Some(50));
        assert_eq!(view.prev(), 7);
        assert!(view.try_write_value(&Value::from_u64(60)));
        assert_eq!(view.read_value().as_u64(), Some(60));
        // Oversized in-place write is refused, state unchanged.
        let big = Value(bytes::Bytes::copy_from_slice(&[0xAB; 100]));
        assert!(!view.try_write_value(&big));
        assert_eq!(view.read_value().as_u64(), Some(60));
        view.invalidate();
        assert!(view.meta().invalid);
        assert_eq!(view.meta().version, Version(3));
    }

    #[test]
    fn modify_value_is_atomic_read_modify_write() {
        let key = Key::from_u64(1);
        let buf = write_to_buf(&key, &Value::from_u64(0), Version(1), false);
        // SAFETY: `buf` holds a READY record, 8-aligned, and outlives the view.
        let view = unsafe { RecordView::from_raw(buf.as_ptr().cast::<u8>(), 0) };
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
}
