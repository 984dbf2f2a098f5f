//! The HybridLog as an in-place page arena (§3 of the paper's FASTER
//! substrate).
//!
//! Records are serialized directly into fixed-size page frames at
//! CAS-reserved tail offsets — no per-record heap allocation, and no lock
//! on the read or append path. A logical byte address resolves to memory
//! with two atomic loads (page-directory chunk pointer, frame pointer)
//! plus pointer arithmetic.
//!
//! ## Address space
//!
//! Addresses are byte offsets from the birth of the log. The classic
//! HybridLog region pointers all hold byte addresses and only ever move
//! forward:
//!
//! ```text
//!   0 .... begin ........ head ........ read_only ........ tail
//!   [ freed ][ on device ][ immutable resident ][ mutable in place ]
//!                       (flushed tracks the durable frontier)
//! ```
//!
//! Below `begin` the log is gone, from memory and from the device
//! ([`RecordLog::truncate_below`]): the store frees a prefix once every
//! record in it is dead or has a newer copy, and a `prev` link that leads
//! there ends its chain.
//!
//! A record never straddles a page: an append that would cross a page
//! boundary bumps the tail to the next page and stamps a *pad header*
//! over the slack, so every page begins at a record (or pad) boundary.
//! That makes pages self-contained parse units, which is what lets
//! recovery partition the durable scan by page range across threads.
//!
//! ## Epoch-protected reclamation
//!
//! Readers resolve addresses under an [`EpochGuard`] from the log's
//! [`LightEpoch`]. Eviction flips a frame `RESIDENT → RECLAIMING`,
//! advances `head`, then calls `quiesce()` once for the whole batch
//! before freeing any buffer — so a [`RecordView`] obtained under a
//! guard stays valid until the guard is dropped or refreshed, even if
//! the page is concurrently evicted. The rules for callers:
//!
//! * acquire the guard **before** calling [`RecordLog::get`], and do not
//!   use a view after dropping or refreshing the guard;
//! * never call [`RecordLog::evict_to`] / [`RecordLog::maybe_evict`]
//!   while holding a guard (quiesce would wait on the caller itself);
//! * hold a guard across as little as an operation needs: a batch of
//!   operations under one guard refreshes it between operations, at least
//!   every few dozen (`FasterKv`'s batch entry; `docs/PROTOCOL.md` §5).
//!
//! An append does not need its guard for the page it writes: eviction is
//! clamped to the flushed frontier, and the flusher spins on the
//! not-yet-`READY` header of an in-flight record, so a page being appended
//! to can never reach the evictor. It takes the caller's guard anyway, to
//! refresh it while the append waits at the unflushed bound
//! ([`RecordLog::set_unflushed_limit`]): eviction waits for every guard, so
//! a guard held across that wait would hold off the eviction behind it.

use crate::record::{
    header_footprint, header_kind, new_header, pack_pad, parse_header, record_footprint,
    write_record, Header, HeaderKind, Record, RecordView, HEADER_LEN, MAX_ADDRESS, MAX_KEY_LEN,
    MAX_VAL_CAP, NONE_ADDRESS,
};
use dpr_core::epoch::EpochGuard;
use dpr_core::{Backoff, DprError, Key, LightEpoch, Result, Value, Version};
use dpr_storage::{read_exact, LogDevice};
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Size of one arena page frame. Also the upper bound on a single
/// record's footprint (header + key + value capacity).
pub const PAGE_SIZE: usize = 1 << 16;

/// Largest record footprint a log will accept (one full page).
pub const MAX_RECORD_LEN: usize = PAGE_SIZE;

const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// Pages per directory chunk (chunks are CAS-installed lazily).
const CHUNK_PAGES: usize = 128;
/// Directory slots; `CHUNK_PAGES * DIR_CHUNKS * PAGE_SIZE` = 64 GiB of
/// log address space per log instance.
const DIR_CHUNKS: usize = 8192;

// What a record header can describe covers what this log can hold: any
// key and value of a record that fits a page, and any address below the end
// of the directory.
const _: () = assert!(MAX_RECORD_LEN - HEADER_LEN <= MAX_KEY_LEN);
const _: () = assert!(MAX_RECORD_LEN - HEADER_LEN <= MAX_VAL_CAP);
const _: () = assert!((CHUNK_PAGES * DIR_CHUNKS) as u64 * PAGE_BYTES - 8 <= MAX_ADDRESS);

/// Read granularity for device-side scans.
const SCAN_CHUNK: usize = 4 * PAGE_SIZE;

/// First read of a cold record: header, key and value of a small record.
const COLD_BLOCK: usize = 64;

// Page lifecycle states, stored in `PageSlot::state`.
const P_ABSENT: u64 = 0;
const P_INSTALLING: u64 = 1;
const P_RESIDENT: u64 = 2;
const P_RECLAIMING: u64 = 3;
const P_EVICTED: u64 = 4;

fn frame_layout() -> Layout {
    // 64-byte alignment keeps frame starts cache-line aligned; record
    // headers only require 8.
    Layout::from_size_align(PAGE_SIZE, 64).expect("static frame layout")
}

/// One page's lifecycle state + frame pointer. Slots live forever once
/// their chunk is installed; only the frame buffer is recycled.
struct PageSlot {
    state: AtomicU64,
    buf: AtomicPtr<u8>,
}

type PageChunk = [PageSlot; CHUNK_PAGES];

/// Maps a contiguous range of logical addresses to a contiguous range of
/// device offsets. Segments only break where recovery rebases the device
/// mapping (post-crash appends land at the device tail, not at
/// `scan_from + addr`).
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    dev: u64,
    len: u64,
}

/// Reused scratch for [`RecordLog::flush_until`] (one flusher at a time;
/// the mutex is the flush lock).
#[derive(Default)]
struct FlushScratch {
    /// The device image of the page being flushed; never more than one page.
    page: Vec<u8>,
    /// Where the flush in progress put each page on the device.
    runs: Vec<Segment>,
}

/// Outcome of resolving a logical address under an epoch guard.
///
/// `NotReady` is the typed form of the transient "address reserved but
/// record bytes not yet published" window: the tail CAS that allocated
/// the address has succeeded but the appender has not yet stored the
/// `READY` header word. It is retryable by construction (the appender is
/// between two wait-free steps) and must not be confused with
/// corruption — see [`RecordLog::get_ready`] for the internal retry
/// loop.
pub enum GetOutcome<'g> {
    /// The record is resident; the view is valid while the guard lives.
    Resident(RecordView<'g>),
    /// The address is below `head`; fetch it with
    /// [`RecordLog::read_from_device`].
    OnDisk,
    /// Address allocated, record bytes not yet visible — retry.
    NotReady,
}

enum Parse<'g> {
    /// A record and its footprint, which ends inside the page.
    Rec(RecordView<'g>, usize),
    Pad(usize),
    NotReady,
    OnDisk,
    /// Not a header an appender wrote, one whose record would leave its
    /// page, or nothing at all below the flushed frontier: memory adopted
    /// from a damaged device, or an address a damaged `prev` named.
    Corrupt,
}

fn corrupt_at(addr: u64) -> DprError {
    DprError::Storage(format!("corrupt record at log address {addr}"))
}

/// A per-thread stable hint for epoch slot acquisition.
fn epoch_hint() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v
    })
}

/// The in-place page-arena HybridLog.
pub struct RecordLog {
    dir: Box<[AtomicPtr<PageChunk>]>,
    tail: AtomicU64,
    read_only: AtomicU64,
    head: AtomicU64,
    flushed: AtomicU64,
    begin: AtomicU64,
    /// Max bytes in `[flushed, tail)` before appends stall (backpressure):
    /// `u64::MAX`, or at most `memory_budget`.
    unflushed_limit: AtomicU64,
    /// Target resident bytes for [`RecordLog::maybe_evict`].
    memory_budget: u64,
    epoch: Arc<LightEpoch>,
    device: Arc<dyn LogDevice>,
    segments: RwLock<Vec<Segment>>,
    flush_state: Mutex<FlushScratch>,
    free_frames: Mutex<Vec<usize>>,
    /// [`RecordLog::evict_to`] calls that reclaimed pages, each one
    /// `quiesce`, and the bytes they reclaimed.
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

/// What a log's evictions have done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionTotals {
    /// Evictions that reclaimed pages; each paid one epoch `quiesce`.
    pub evictions: u64,
    /// Bytes of the pages they reclaimed.
    pub evicted_bytes: u64,
}

impl RecordLog {
    /// Create an empty log over `device`, targeting `memory_budget_bytes`
    /// of resident frames (floored at two pages).
    pub fn new(device: Arc<dyn LogDevice>, memory_budget_bytes: u64) -> Self {
        let dir: Vec<AtomicPtr<PageChunk>> = (0..DIR_CHUNKS)
            .map(|_| AtomicPtr::new(null_mut()))
            .collect();
        RecordLog {
            dir: dir.into_boxed_slice(),
            tail: AtomicU64::new(0),
            read_only: AtomicU64::new(0),
            head: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            begin: AtomicU64::new(0),
            unflushed_limit: AtomicU64::new(u64::MAX),
            memory_budget: memory_budget_bytes.max(2 * PAGE_BYTES),
            epoch: Arc::new(LightEpoch::new(256)),
            device,
            segments: RwLock::new(Vec::new()),
            flush_state: Mutex::new(FlushScratch::default()),
            free_frames: Mutex::new(Vec::new()),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// Bound the unflushed region `[flushed, tail)` to `bytes`, held
    /// between a page and the memory budget: eviction stops at the flushed
    /// frontier, so a larger unflushed region would keep more than the
    /// budget resident. Appends past the bound stall, calling
    /// [`RecordLog::flush_volatile`] on [`Backoff`] until the frontier
    /// catches up. Without a call (the default) there is no backpressure.
    pub fn set_unflushed_limit(&self, bytes: u64) {
        self.unflushed_limit.store(
            bytes.clamp(PAGE_BYTES, self.memory_budget),
            Ordering::Relaxed,
        );
    }

    /// Under an unflushed bound, roll the read-only boundary to half the
    /// bound below the tail and flush up to it. Safe because records below
    /// the read-only boundary are never updated in place.
    pub fn flush_volatile(&self) -> Result<()> {
        let limit = self.unflushed_limit.load(Ordering::Relaxed);
        if limit == u64::MAX {
            return Ok(());
        }
        self.advance_read_only(self.tail().saturating_sub(limit / 2));
        let read_only = self.read_only();
        if self.flushed() < read_only {
            self.flush_until(read_only)?;
        }
        Ok(())
    }

    /// One past the last reserved byte.
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Boundary below which records are immutable (fold-over boundary).
    pub fn read_only(&self) -> u64 {
        self.read_only.load(Ordering::Acquire)
    }

    /// Boundary below which frames may have been evicted to the device.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Durable frontier: everything below is on the device.
    pub fn flushed(&self) -> u64 {
        self.flushed.load(Ordering::Acquire)
    }

    /// Where the log begins: a record boundary below which nothing is left,
    /// in memory or on the device.
    pub fn begin(&self) -> u64 {
        self.begin.load(Ordering::Acquire)
    }

    /// Bytes currently resident in arena frames.
    pub fn resident_bytes(&self) -> u64 {
        self.tail().saturating_sub(self.head())
    }

    /// The resident bytes eviction keeps the log within, two pages or more.
    pub(crate) fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<dyn LogDevice> {
        &self.device
    }

    /// Advance the read-only boundary (never moves backwards).
    pub fn advance_read_only(&self, addr: u64) {
        let addr = addr.min(self.tail());
        self.read_only.fetch_max(addr, Ordering::AcqRel);
    }

    /// Seal the log at the current tail (CPR WaitFlush): everything below
    /// the returned address becomes immutable.
    pub fn seal_to_tail(&self) -> u64 {
        let t = self.tail();
        self.read_only.fetch_max(t, Ordering::AcqRel);
        t
    }

    /// Acquire an epoch guard for address resolution. Hold it across a
    /// chain walk; drop it before blocking or calling eviction.
    pub fn protect(&self) -> EpochGuard<'_> {
        self.epoch.protect_hinted(epoch_hint())
    }

    /// The epoch behind [`RecordLog::protect`], for structures that are
    /// read under the same guards and reclaim through it (the hash index).
    pub fn epoch(&self) -> &Arc<LightEpoch> {
        &self.epoch
    }

    // ------------------------------------------------------------------
    // Page directory
    // ------------------------------------------------------------------

    fn slot(&self, page: u64) -> &PageSlot {
        let chunk_idx = (page / CHUNK_PAGES as u64) as usize;
        assert!(
            chunk_idx < DIR_CHUNKS,
            "log address space exhausted (page {page})"
        );
        let within = (page % CHUNK_PAGES as u64) as usize;
        let mut ptr = self.dir[chunk_idx].load(Ordering::Acquire);
        if ptr.is_null() {
            let fresh: Box<PageChunk> = Box::new(std::array::from_fn(|_| PageSlot {
                state: AtomicU64::new(P_ABSENT),
                buf: AtomicPtr::new(null_mut()),
            }));
            let raw = Box::into_raw(fresh);
            match self.dir[chunk_idx].compare_exchange(
                null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => ptr = raw,
                Err(winner) => {
                    // Lost the install race; free ours.
                    // SAFETY: `raw` is the `Box::into_raw` above and, its CAS
                    // having failed, was never visible to another thread.
                    drop(unsafe { Box::from_raw(raw) });
                    ptr = winner;
                }
            }
        }
        // SAFETY: a chunk installed in `dir` is freed only by `Drop`, which
        // has `&mut self`, so it outlives `&self`; `within < CHUNK_PAGES`.
        unsafe { &(*ptr)[within] }
    }

    fn alloc_frame(&self) -> *mut u8 {
        if let Some(raw) = self.free_frames.lock().unwrap().pop() {
            let p = raw as *mut u8;
            // Frames must come back zero-filled: a zero header word is
            // the "not yet written" sentinel.
            // SAFETY: a frame on the free list is a whole `frame_layout()`
            // allocation that `evict_to` unlinked from its slot after
            // `quiesce()`, and this pop made it ours alone.
            unsafe { std::ptr::write_bytes(p, 0, PAGE_SIZE) };
            return p;
        }
        // SAFETY: `frame_layout()` has a nonzero size.
        let p = unsafe { alloc_zeroed(frame_layout()) };
        assert!(!p.is_null(), "arena frame allocation failed");
        p
    }

    /// Keep an evicted frame for the next page. A frame stays with its log
    /// until the log is dropped: an eviction or a truncation frees what the
    /// appends that follow need, the frames a log holds are bounded by what
    /// it has had resident (its memory budget), and a frame handed back to
    /// the allocator by the thread that evicts is, with an arena per thread,
    /// not the one an appender's next page would get (measured on `net_rate`:
    /// 6 MiB of the 14 a truncation freed came back as new allocations).
    fn release_frame(&self, p: *mut u8) {
        self.free_frames.lock().unwrap().push(p as usize);
    }

    /// Resolve (installing if needed) the frame for `page`. Only valid
    /// for pages in `[flushed-floor, tail]` — i.e. pages that cannot be
    /// concurrently reclaimed (appenders and the flusher qualify).
    fn frame_wait(&self, page: u64) -> *mut u8 {
        let slot = self.slot(page);
        let mut backoff = Backoff::new();
        loop {
            match slot.state.load(Ordering::Acquire) {
                P_RESIDENT => return slot.buf.load(Ordering::Acquire),
                P_ABSENT => {
                    if slot
                        .state
                        .compare_exchange(
                            P_ABSENT,
                            P_INSTALLING,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        let frame = self.alloc_frame();
                        slot.buf.store(frame, Ordering::Release);
                        slot.state.store(P_RESIDENT, Ordering::Release);
                        return frame;
                    }
                }
                P_INSTALLING => backoff.snooze(),
                s => panic!("frame_wait on reclaimed page {page} (state {s})"),
            }
        }
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Serialize a record into the arena at a CAS-reserved tail offset
    /// and return its address. Lock-free and allocation-free (modulo the
    /// amortized frame install when a page fills).
    ///
    /// The caller links the record into its hash chain afterwards
    /// (`prev` is stamped into the header here; publication is the
    /// index CAS). Values larger than [`MAX_RECORD_LEN`] minus header
    /// and key, and versions above [`crate::record::MAX_VERSION`], must be
    /// rejected by the caller; this method panics on them, before it
    /// reserves anything. `guard` is refreshed while the append waits for
    /// the flusher: a view the caller took under it is not used after.
    pub fn append(
        &self,
        guard: &EpochGuard<'_>,
        key: &Key,
        value: &Value,
        version: Version,
        tombstone: bool,
        prev: u64,
    ) -> u64 {
        let footprint = record_footprint(key.len(), value.len());
        assert!(
            footprint <= MAX_RECORD_LEN,
            "record footprint {footprint} exceeds page size {MAX_RECORD_LEN}"
        );
        let header = new_header(key.len(), value.len(), version, tombstone, prev);
        self.backpressure(guard, footprint as u64);
        let fp = footprint as u64;
        let start;
        loop {
            let cur = self.tail.load(Ordering::Relaxed);
            let off = cur % PAGE_BYTES;
            let (s, pad) = if off + fp <= PAGE_BYTES {
                (cur, 0u64)
            } else {
                (cur + (PAGE_BYTES - off), PAGE_BYTES - off)
            };
            if self
                .tail
                .compare_exchange_weak(cur, s + fp, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                if pad > 0 {
                    self.write_pad(cur, pad as usize);
                }
                start = s;
                break;
            }
        }
        let frame = self.frame_wait(start / PAGE_BYTES);
        // SAFETY: the tail CAS above reserved `[start, start + footprint)`
        // for this record alone, inside one page (the pad rule) and 8-aligned
        // (footprints and pads are multiples of 8); frames are installed
        // zeroed and each byte is written once. The frame cannot be evicted
        // yet: eviction stops at `flushed`, and the flusher waits for this
        // record's header word.
        unsafe {
            write_record(frame.add((start % PAGE_BYTES) as usize), header, key, value);
        }
        start
    }

    /// Stamp a pad header over `[addr, addr + len)`. The pad page is
    /// always already installed: `addr` is the old tail, which is either
    /// interior to a page holding at least one record, or page-aligned
    /// (in which case no pad is ever needed).
    #[allow(clippy::cast_ptr_alignment)]
    fn write_pad(&self, addr: u64, len: usize) {
        debug_assert!(len >= 8 && len.is_multiple_of(8));
        let frame = self.frame_wait(addr / PAGE_BYTES);
        // SAFETY: `addr` is the old tail: 8-aligned, inside the installed
        // frame of its page (above), in the range the caller's tail CAS
        // reserved, and at or above `flushed`, where nothing is evicted.
        let p = unsafe { frame.add((addr % PAGE_BYTES) as usize) };
        // SAFETY: as above; header words are only ever accessed atomically.
        unsafe { (*(p as *const AtomicU64)).store(pack_pad(len), Ordering::Release) };
    }

    fn backpressure(&self, guard: &EpochGuard<'_>, need: u64) {
        let limit = self.unflushed_limit.load(Ordering::Relaxed);
        if limit == u64::MAX {
            return;
        }
        let unflushed =
            |log: &Self| log.tail.load(Ordering::Relaxed) - log.flushed.load(Ordering::Relaxed);
        if unflushed(self) + need <= limit {
            return;
        }
        crate::metrics::backpressure_stalls().inc();
        let t0 = std::time::Instant::now();
        let mut backoff = Backoff::new();
        while unflushed(self) + need > limit {
            // Eviction, behind the flush this waits for, waits for guards.
            guard.refresh();
            let _ = self.flush_volatile();
            backoff.snooze();
        }
        crate::metrics::backpressure_stall_us().record_micros(t0.elapsed());
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    #[allow(clippy::cast_ptr_alignment)]
    fn parse_at<'g>(&self, _guard: &'g EpochGuard<'_>, addr: u64) -> Parse<'g> {
        if addr < self.head.load(Ordering::Acquire) {
            return Parse::OnDisk;
        }
        let slot = self.slot(addr / PAGE_BYTES);
        match slot.state.load(Ordering::Acquire) {
            P_RESIDENT => {
                let frame = slot.buf.load(Ordering::Acquire);
                let off = (addr % PAGE_BYTES) as usize;
                // SAFETY: the caller holds an epoch guard and the page read
                // RESIDENT under it: `evict_to` frees a frame only after
                // flipping that state and a `quiesce()` that waits for the
                // guard. The offset is inside the page.
                let base = unsafe { frame.add(off) };
                // SAFETY: the frame stays mapped (above). Callers pass only
                // 8-aligned addresses (`get` checks; a scan steps by multiples
                // of 8), so the word is inside it; header words are only
                // accessed atomically.
                let meta = unsafe { (*(base as *const AtomicU64)).load(Ordering::Acquire) };
                if meta == 0 {
                    // A flush waits for every header below the frontier it
                    // publishes, so only above it is a zero word an appender
                    // still at work.
                    return if addr < self.flushed.load(Ordering::Acquire) {
                        Parse::Corrupt
                    } else {
                        Parse::NotReady
                    };
                }
                match header_kind(meta) {
                    Some(HeaderKind::Pad(len)) => Parse::Pad(len),
                    Some(HeaderKind::Record) if off + HEADER_LEN <= PAGE_SIZE => {
                        // SAFETY: the second header word is inside the frame
                        // (the guard above), 8-aligned like the first.
                        let link =
                            unsafe { (*(base.add(8) as *const AtomicU64)).load(Ordering::Relaxed) };
                        let footprint = header_footprint(meta, link);
                        if off + footprint > PAGE_SIZE {
                            return Parse::Corrupt;
                        }
                        // SAFETY: a record header, 8-aligned, whose footprint
                        // ends inside a frame mapped while `'g` lives.
                        Parse::Rec(unsafe { RecordView::from_raw(base, addr) }, footprint)
                    }
                    _ => Parse::Corrupt,
                }
            }
            // Reserved past the current frontier of an installing page.
            P_ABSENT | P_INSTALLING => Parse::NotReady,
            // Reclaimed under us (head may not have advanced yet).
            _ => Parse::OnDisk,
        }
    }

    /// Resolve `addr` under `guard`. Returns the typed
    /// [`GetOutcome::NotReady`] for the reserved-but-unwritten window
    /// rather than conflating it with corruption.
    pub fn get<'g>(&'g self, guard: &'g EpochGuard<'_>, addr: u64) -> Result<GetOutcome<'g>> {
        if addr == NONE_ADDRESS || addr >= self.tail() || !addr.is_multiple_of(8) {
            return Err(DprError::Invalid(format!(
                "log address {addr} out of range"
            )));
        }
        match self.parse_at(guard, addr) {
            Parse::Rec(v, _) => Ok(GetOutcome::Resident(v)),
            Parse::Pad(_) => Err(DprError::Invalid(format!(
                "log address {addr} points at page padding"
            ))),
            Parse::NotReady => Ok(GetOutcome::NotReady),
            Parse::OnDisk => Ok(GetOutcome::OnDisk),
            Parse::Corrupt => Err(corrupt_at(addr)),
        }
    }

    /// Like [`RecordLog::get`], but retries the `NotReady` window with a
    /// [`Backoff`] until the appender publishes the record. The window
    /// is bounded by the appender's wait-free header store, so the spin
    /// always terminates.
    pub fn get_ready<'g>(&'g self, guard: &'g EpochGuard<'_>, addr: u64) -> Result<GetOutcome<'g>> {
        let mut backoff = Backoff::new();
        loop {
            match self.get(guard, addr)? {
                GetOutcome::NotReady => backoff.snooze(),
                done => return Ok(done),
            }
        }
    }

    // ------------------------------------------------------------------
    // Flush / device
    // ------------------------------------------------------------------

    /// Flush the records of `[flushed, min(until, tail))` to the device and
    /// advance the durable frontier, which only ever rests on a record
    /// boundary: a record that would cross `until` waits for the next call.
    /// Values are captured through the record seqlock, so concurrent in-place
    /// updates are never torn on the device.
    ///
    /// The range streams to the device a page at a time through a one-page
    /// scratch, and one `flush` at the end makes it durable.
    pub fn flush_until(&self, until: u64) -> Result<u64> {
        let mut st = self.flush_state.lock().unwrap();
        let start = self.flushed.load(Ordering::Acquire);
        let until = until.min(self.tail());
        let FlushScratch { page, runs } = &mut *st;
        runs.clear();
        let mut addr = start;
        let mut backoff = Backoff::new();
        let mut crossing = false;
        while addr < until && !crossing {
            page.clear();
            let run_start = addr;
            let stop = until.min((addr / PAGE_BYTES + 1) * PAGE_BYTES);
            let frame = self.frame_wait(addr / PAGE_BYTES);
            while addr < stop {
                // SAFETY: `addr` is a parse boundary (8-aligned) inside the
                // frame of a page at or above `flushed`, which eviction
                // cannot reclaim while this flush holds the flush lock.
                let base = unsafe { frame.add((addr % PAGE_BYTES) as usize) };
                // SAFETY: as above; header words are only accessed atomically.
                #[allow(clippy::cast_ptr_alignment)]
                let meta = unsafe { (*(base as *const AtomicU64)).load(Ordering::Acquire) };
                if meta == 0 {
                    // Reserved but not yet written — the appender is between
                    // its tail CAS and its header store.
                    backoff.snooze();
                    continue;
                }
                backoff.reset();
                let at = page.len();
                match header_kind(meta).ok_or_else(|| corrupt_at(addr))? {
                    HeaderKind::Pad(len) => {
                        if addr + len as u64 > until {
                            crossing = true;
                            break;
                        }
                        page.resize(at + len, 0);
                        page[at..at + 8].copy_from_slice(&pack_pad(len).to_le_bytes());
                        addr += len as u64;
                    }
                    HeaderKind::Record => {
                        // SAFETY: a READY record header at or above `flushed`
                        // is one `append` wrote, whole and inside its page,
                        // and the frame stays mapped (above).
                        let view = unsafe { RecordView::from_raw(base, addr) };
                        let len = view.footprint();
                        if addr + len as u64 > until {
                            crossing = true;
                            break;
                        }
                        page.resize(at + len, 0);
                        view.serialize_into(&mut page[at..]);
                        addr += len as u64;
                    }
                }
            }
            if addr > run_start {
                runs.push(Segment {
                    start: run_start,
                    dev: self.device.append(page)?,
                    len: addr - run_start,
                });
            }
        }
        if addr == start {
            return Ok(start);
        }
        self.device.flush()?;
        {
            // Published only now: a failed flush is retried from `start`.
            let mut segs = self.segments.write().unwrap();
            for run in runs.drain(..) {
                match segs.last_mut() {
                    Some(last)
                        if last.start + last.len == run.start && last.dev + last.len == run.dev =>
                    {
                        last.len += run.len;
                    }
                    _ => segs.push(run),
                }
            }
        }
        self.flushed.fetch_max(addr, Ordering::AcqRel);
        Ok(addr)
    }

    /// Device offset for `addr`, plus the end address of its segment.
    fn device_span(&self, addr: u64) -> Option<(u64, u64)> {
        let segs = self.segments.read().unwrap();
        let i = segs.partition_point(|s| s.start <= addr);
        if i == 0 {
            return None;
        }
        let s = segs[i - 1];
        if addr < s.start + s.len {
            Some((s.dev + (addr - s.start), s.start + s.len))
        } else {
            None
        }
    }

    /// First flushed address at or above `addr` (for scans across
    /// truncation gaps).
    fn next_segment_start(&self, addr: u64) -> Option<u64> {
        let segs = self.segments.read().unwrap();
        segs.iter().map(|s| s.start).find(|&s| s >= addr)
    }

    /// The durable segment map clamped to addresses below `until`, as
    /// `(start_address, device_offset, len)` spans. Persisted in checkpoint
    /// manifests so a later [`RecordLog::recover`] can rebuild a device
    /// mapping that is no longer linear (post-recovery rebase leaves dead
    /// device bytes between segments; GC truncation leaves gaps).
    pub fn segment_spans_until(&self, until: u64) -> Vec<(u64, u64, u64)> {
        self.segments
            .read()
            .unwrap()
            .iter()
            .filter(|s| s.start < until)
            .map(|s| (s.start, s.dev, s.len.min(until - s.start)))
            .collect()
    }

    /// Materialize the record at an evicted address from the device: one
    /// device read for a record of up to 64 bytes (the paper's 8-byte key
    /// and value make 32), a second one for the rest of a larger record.
    pub fn read_from_device(&self, addr: u64) -> Result<Record> {
        let (dev, seg_end) = self
            .device_span(addr)
            .ok_or_else(|| DprError::Invalid(format!("address {addr} is not on the device")))?;
        let corrupt = || corrupt_at(addr);
        let mut block = [0u8; COLD_BLOCK];
        // A record never leaves its segment; the bytes after it may.
        let have = (COLD_BLOCK as u64).min(seg_end - addr) as usize;
        read_exact(self.device.as_ref(), dev, &mut block[..have])?;
        let header = match parse_header(&block[..have]).ok_or_else(corrupt)? {
            Header::Record(header) => header,
            Header::Pad(_) => {
                return Err(DprError::Invalid(format!(
                    "device address {addr} points at page padding"
                )))
            }
        };
        let total = header.footprint();
        if total > MAX_RECORD_LEN {
            return Err(corrupt());
        }
        let parts = if total <= have {
            Record::from_parts(header, &block[..total], addr)
        } else {
            let mut buf = vec![0u8; total];
            buf[..have].copy_from_slice(&block[..have]);
            read_exact(self.device.as_ref(), dev + have as u64, &mut buf[have..])?;
            Record::from_parts(header, &buf, addr)
        };
        parts.map(|(rec, _)| rec).ok_or_else(corrupt)
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Evict whole pages below `new_head` (clamped to the flushed and
    /// read-only frontiers, floored to a page boundary). Returns the new
    /// head. Must not be called while holding an epoch guard.
    pub fn evict_to(&self, new_head: u64) -> u64 {
        let limit = new_head.min(self.flushed()).min(self.read_only());
        let target = limit - limit % PAGE_BYTES;
        let cur = self.head.load(Ordering::Acquire);
        if target <= cur {
            return cur;
        }
        let mut reclaimed = Vec::new();
        for page in cur / PAGE_BYTES..target / PAGE_BYTES {
            let slot = self.slot(page);
            if slot
                .state
                .compare_exchange(
                    P_RESIDENT,
                    P_RECLAIMING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                reclaimed.push(page);
            }
        }
        self.head.fetch_max(target, Ordering::AcqRel);
        if !reclaimed.is_empty() {
            // One quiesce covers the whole batch: after it, no reader
            // guard predating the RECLAIMING flips can still be live.
            self.epoch.quiesce();
            let bytes = reclaimed.len() as u64 * PAGE_BYTES;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
            crate::metrics::log_evictions().inc();
            crate::metrics::log_evicted_bytes().add(bytes);
            for page in reclaimed {
                let slot = self.slot(page);
                let buf = slot.buf.swap(null_mut(), Ordering::AcqRel);
                slot.state.store(P_EVICTED, Ordering::Release);
                if !buf.is_null() {
                    self.release_frame(buf);
                }
            }
        }
        self.head.load(Ordering::Acquire)
    }

    /// What this log's evictions have done so far.
    #[must_use]
    pub fn eviction_totals(&self) -> EvictionTotals {
        EvictionTotals {
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }

    /// Evict down to the memory budget if the resident region overflows
    /// it, as far as the flushed and read-only frontiers allow: after every
    /// batch of the store's sessions and in every maintenance round. Must not
    /// be called while holding an epoch guard.
    pub fn maybe_evict(&self) -> u64 {
        let tail = self.tail();
        if tail.saturating_sub(self.head()) > self.memory_budget {
            self.evict_to(tail.saturating_sub(self.memory_budget / 2))
        } else {
            self.head()
        }
    }

    // ------------------------------------------------------------------
    // Rollback, truncation
    // ------------------------------------------------------------------

    /// Invalidate every resident record with `v_safe < version <= v_max`
    /// (§5.5 PURGE). Returns the number of records invalidated. Device
    /// copies are handled by the store's read-time purged-version filter.
    pub fn purge_versions(&self, v_safe: Version, v_max: Version) -> u64 {
        let (mut addr, tail) = (self.head(), self.tail());
        let mut purged = 0u64;
        while addr < tail {
            let walked = self.walk_resident(addr, tail, &mut |_, v| {
                let m = v.meta();
                if !m.invalid && m.version > v_safe && m.version <= v_max {
                    v.invalidate();
                    purged += 1;
                }
                Ok(())
            });
            match walked {
                // Concurrent eviction passed the walk; skip to the head.
                Ok(stopped) => addr = stopped.max(self.head()),
                // Invalidation in place only saves reads the version check
                // they make themselves (`FasterKv::is_dead`).
                Err(_) => break,
            }
        }
        purged
    }

    /// Free the log below `addr`, a record boundary at or below the flushed
    /// and read-only frontiers: `begin` moves there first, so that no chain
    /// walk starts into the prefix, then its frames are evicted (whole pages)
    /// and its device bytes truncated (whatever unit the device frees in).
    /// Returns the new `begin`. Must not be called while holding an epoch
    /// guard.
    pub fn truncate_below(&self, addr: u64) -> Result<u64> {
        let addr = addr.min(self.flushed()).min(self.read_only());
        if addr <= self.begin.fetch_max(addr, Ordering::AcqRel) {
            return Ok(self.begin());
        }
        self.evict_to(addr);
        let mut segs = self.segments.write().unwrap();
        let mut cutoff = None;
        segs.retain_mut(|s| {
            if s.start + s.len <= addr {
                return false;
            }
            if s.start < addr {
                let d = addr - s.start;
                s.start += d;
                s.dev += d;
                s.len -= d;
            }
            if cutoff.is_none() {
                cutoff = Some(s.dev);
            }
            true
        });
        let cutoff = cutoff.unwrap_or_else(|| self.device.tail());
        drop(segs);
        self.device.truncate_before(cutoff)?;
        Ok(addr)
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Walk records in `[from, to)` in address order, materializing each
    /// as an owned [`Record`] (pads are skipped, invalid records are
    /// *included* — callers filter). `from` must be a record or page
    /// boundary; a scan from below `begin` starts there.
    pub fn scan_range(
        &self,
        from: u64,
        to: u64,
        f: &mut dyn FnMut(Record) -> Result<()>,
    ) -> Result<()> {
        let to = to.min(self.tail());
        let mut addr = from.max(self.begin());
        while addr < to {
            // Below the head — from the start, or since eviction (or a
            // truncation, whose gap the device scan skips) overtook the walk
            // — the device has whatever lies there, pads too.
            let evicted = to.min(self.head());
            addr = if addr < evicted {
                self.scan_device(addr, evicted, f)?
            } else {
                self.walk_resident(addr, to, &mut |_, view| f(view.to_owned_record()))?
            };
        }
        Ok(())
    }

    /// Walk the resident records of `[from, to)` in address order, handing
    /// each to `f` as a view in place, valid for the call, with the guard it
    /// was resolved under (pads are skipped, invalid records included).
    /// `from` must be a record or page boundary at or above `head`. Returns
    /// `to`, or the first address below `head` once eviction has overtaken
    /// the walk: the rest is on the device. The guard is refreshed at each
    /// page boundary, so that a long walk does not stall eviction.
    pub(crate) fn walk_resident(
        &self,
        from: u64,
        to: u64,
        f: &mut dyn FnMut(&EpochGuard<'_>, RecordView<'_>) -> Result<()>,
    ) -> Result<u64> {
        let guard = self.protect();
        let mut backoff = Backoff::new();
        let mut addr = from;
        while addr < to {
            match self.parse_at(&guard, addr) {
                Parse::Rec(v, footprint) => {
                    f(&guard, v)?;
                    addr += footprint as u64;
                    backoff.reset();
                }
                Parse::Pad(len) => {
                    addr += len as u64;
                    backoff.reset();
                }
                Parse::NotReady => backoff.snooze(),
                Parse::Corrupt => return Err(corrupt_at(addr)),
                Parse::OnDisk if self.head() > addr => return Ok(addr),
                // The evictor has flipped the page and not yet moved `head`.
                Parse::OnDisk => backoff.snooze(),
            }
            if addr.is_multiple_of(PAGE_BYTES) {
                guard.refresh();
            }
        }
        Ok(addr)
    }

    /// Device-side portion of [`RecordLog::scan_range`]: chunked reads
    /// with a carry window, one device read per [`SCAN_CHUNK`] instead of
    /// one per record. Returns the first unscanned address (>= `end`).
    fn scan_device(
        &self,
        mut addr: u64,
        end: u64,
        f: &mut dyn FnMut(Record) -> Result<()>,
    ) -> Result<u64> {
        let mut win: Vec<u8> = Vec::with_capacity(SCAN_CHUNK);
        let mut win_start = addr;
        // Ensure `need` bytes at `addr` are in the window (refilling from
        // the device); yields false if the flushed range ends first.
        macro_rules! ensure {
            ($addr:expr, $need:expr) => {{
                let addr = $addr;
                let need = $need as u64;
                let mut ok = true;
                loop {
                    if addr >= win_start + win.len() as u64 {
                        win.clear();
                        win_start = addr;
                    } else if addr > win_start {
                        win.drain(..(addr - win_start) as usize);
                        win_start = addr;
                    }
                    let win_end = win_start + win.len() as u64;
                    if win_end >= addr + need {
                        break;
                    }
                    if win_end >= end {
                        ok = false;
                        break;
                    }
                    match self.device_span(win_end) {
                        Some((dev, seg_end)) => {
                            let n = (SCAN_CHUNK as u64)
                                .min(end - win_end)
                                .min(seg_end - win_end) as usize;
                            let base = win.len();
                            win.resize(base + n, 0);
                            match read_exact(self.device.as_ref(), dev, &mut win[base..]) {
                                Ok(()) => {}
                                // Truncated between the span lookup and the
                                // read: a gap like any other.
                                Err(_) if win_end < self.begin() => {
                                    win.truncate(base);
                                    ok = false;
                                    break;
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                ok
            }};
        }
        while addr < end {
            // A pad may be all that is left of the range, and is one word.
            let head = (end - addr).min(HEADER_LEN as u64);
            if !ensure!(addr, head) {
                // Truncated (or unflushed) gap: skip to the next segment.
                match self.next_segment_start(addr) {
                    Some(next) if next < end => {
                        addr = next;
                        continue;
                    }
                    _ => return Ok(end.max(addr)),
                }
            }
            let corrupt = || corrupt_at(addr);
            let at = (addr - win_start) as usize;
            let header = match parse_header(&win[at..at + head as usize]).ok_or_else(corrupt)? {
                Header::Pad(len) => {
                    addr += len as u64;
                    continue;
                }
                Header::Record(header) => header,
            };
            let total = header.footprint();
            if total > MAX_RECORD_LEN || !ensure!(addr, total) {
                if addr < self.begin() {
                    // The truncation took the rest of the record.
                    addr = self.begin();
                    continue;
                }
                return Err(corrupt());
            }
            let at = (addr - win_start) as usize;
            let (rec, len) =
                Record::from_parts(header, &win[at..at + total], addr).ok_or_else(corrupt)?;
            f(rec)?;
            addr += len as u64;
        }
        Ok(addr)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Reconstruct a log whose bytes below `until` live on `device` at the
    /// offsets described by `spans` (`(start_address, device_offset,
    /// len)` — from [`RecordLog::segment_spans_until`] in the recovered
    /// manifest; a freshly-created log's single span is `(0, base, until)`).
    /// The log begins where the spans do once they are clamped to what the
    /// device still has ([`LogDevice::truncated_before`]): a manifest written
    /// before a truncation names bytes that are gone. The suffix that fits
    /// the memory budget is loaded back into arena frames; everything below
    /// stays device-resident behind `head`. All other region pointers start
    /// at `until`.
    pub fn recover(
        device: Arc<dyn LogDevice>,
        memory_budget_bytes: u64,
        until: u64,
        spans: &[(u64, u64, u64)],
    ) -> Result<RecordLog> {
        let log = RecordLog::new(device, memory_budget_bytes);
        if until == 0 {
            return Ok(log);
        }
        let truncated = log.device.truncated_before();
        let begin = {
            let mut segs = log.segments.write().unwrap();
            for &(start, dev, len) in spans {
                let gone = truncated.saturating_sub(dev).min(len);
                let (start, dev, len) = (start + gone, dev + gone, len - gone);
                let len = len.min(until.saturating_sub(start));
                if len > 0 {
                    segs.push(Segment { start, dev, len });
                }
            }
            segs.sort_by_key(|s| s.start);
            segs.first().map(|s| s.start)
        };
        let begin = begin.ok_or_else(|| {
            DprError::Storage(format!(
                "recovery: the device has nothing left of the log below {until}"
            ))
        })?;
        log.begin.store(begin, Ordering::Release);
        log.tail.store(until, Ordering::Release);
        log.read_only.store(until, Ordering::Release);
        log.flushed.store(until, Ordering::Release);
        let last_page = (until - 1) / PAGE_BYTES;
        let budget_pages = (log.memory_budget / PAGE_BYTES).max(1);
        let first_page = (last_page + 1)
            .saturating_sub(budget_pages)
            .max(begin / PAGE_BYTES);
        log.head.store(first_page * PAGE_BYTES, Ordering::Release);
        for page in first_page..=last_page {
            let slot = log.slot(page);
            let frame = log.alloc_frame();
            slot.buf.store(frame, Ordering::Release);
            slot.state.store(P_RESIDENT, Ordering::Release);
            let pstart = page * PAGE_BYTES;
            let n = (until - pstart).min(PAGE_BYTES) as usize;
            // SAFETY: `frame` is a fresh `PAGE_SIZE` allocation, `n` is at
            // most that, and the log under recovery is not shared yet.
            let dst = unsafe { std::slice::from_raw_parts_mut(frame, n) };
            // The page `begin` lies in starts there; the bytes before it
            // stay zero and no walk or scan goes to them.
            let first = begin.saturating_sub(pstart).min(n as u64) as usize;
            // A page may cross a segment rebase boundary; read each piece
            // through the span map.
            let mut off = first;
            while off < n {
                let addr = pstart + off as u64;
                let (dev, seg_end) = log.device_span(addr).ok_or_else(|| {
                    DprError::Storage(format!(
                        "recovery: address {addr} is not covered by any durable segment"
                    ))
                })?;
                let chunk = ((n - off) as u64).min(seg_end - addr) as usize;
                read_exact(log.device.as_ref(), dev, &mut dst[off..off + chunk])?;
                off += chunk;
            }
            // Resident records are trusted where they lie (`parse_at` checks
            // a header, not what follows it), so what the device returned is
            // checked here, where it enters memory: whole records and pads,
            // none with a writer in flight, ending where the bytes end.
            let mut off = first;
            while off < n {
                off += match parse_header(&dst[off..]) {
                    Some(Header::Pad(len)) => len,
                    Some(Header::Record(header)) => header.footprint(),
                    None => return Err(corrupt_at(pstart + off as u64)),
                };
            }
            if off != n {
                return Err(corrupt_at(pstart + n as u64));
            }
        }
        Ok(log)
    }

    /// Test hook: reserve `footprint` bytes at the tail without writing a
    /// record, leaving the reserved-but-unwritten window observable.
    #[cfg(test)]
    pub(crate) fn debug_reserve(&self, footprint: usize) -> u64 {
        assert!(footprint.is_multiple_of(8) && footprint <= MAX_RECORD_LEN);
        let fp = footprint as u64;
        loop {
            let cur = self.tail.load(Ordering::Relaxed);
            let off = cur % PAGE_BYTES;
            let (s, pad) = if off + fp <= PAGE_BYTES {
                (cur, 0u64)
            } else {
                (cur + (PAGE_BYTES - off), PAGE_BYTES - off)
            };
            if self
                .tail
                .compare_exchange(cur, s + fp, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                if pad > 0 {
                    self.write_pad(cur, pad as usize);
                }
                // Install the frame so readers see NotReady, not a stuck
                // INSTALLING state.
                self.frame_wait(s / PAGE_BYTES);
                return s;
            }
        }
    }
}

impl Drop for RecordLog {
    fn drop(&mut self) {
        for chunk in self.dir.iter() {
            let ptr = chunk.load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            // SAFETY: `slot` installed it from `Box::into_raw`; with
            // `&mut self` no `&PageSlot` into it is left.
            let chunk = unsafe { Box::from_raw(ptr) };
            for slot in chunk.iter() {
                let buf = slot.buf.load(Ordering::Acquire);
                if !buf.is_null() {
                    // SAFETY: a slot's non-null `buf` is an `alloc_frame`
                    // allocation that only the slot still points at.
                    unsafe { dealloc(buf, frame_layout()) };
                }
            }
        }
        for raw in self.free_frames.lock().unwrap().drain(..) {
            // SAFETY: the free list holds `alloc_frame` allocations that no
            // slot points at (`release_frame`).
            unsafe { dealloc(raw as *mut u8, frame_layout()) };
        }
    }
}

impl std::fmt::Debug for RecordLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordLog")
            .field("tail", &self.tail())
            .field("read_only", &self.read_only())
            .field("head", &self.head())
            .field("begin", &self.begin())
            .field("flushed", &self.flushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_storage::MemLogDevice;

    fn key(i: u64) -> Key {
        Key::from_u64(i)
    }

    fn val(i: u64) -> Value {
        Value::from_u64(i)
    }

    /// An append under a guard of its own.
    fn put(log: &RecordLog, key: &Key, value: &Value, v: Version, tomb: bool, prev: u64) -> u64 {
        log.append(&log.protect(), key, value, v, tomb, prev)
    }

    fn new_log() -> RecordLog {
        RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 22)
    }

    #[test]
    fn append_get_round_trip() {
        let log = new_log();
        let mut addrs = Vec::new();
        let mut prev = NONE_ADDRESS;
        for i in 0..100u64 {
            let a = put(&log, &key(i), &val(i * 10), Version(3), i % 7 == 0, prev);
            addrs.push(a);
            prev = a;
        }
        let guard = log.protect();
        for (i, &a) in addrs.iter().enumerate() {
            let i = i as u64;
            match log.get(&guard, a).unwrap() {
                GetOutcome::Resident(v) => {
                    assert!(v.key_matches(&key(i)));
                    assert_eq!(v.read_value(), val(i * 10));
                    let m = v.meta();
                    assert_eq!(m.version, Version(3));
                    assert_eq!(m.tombstone, i.is_multiple_of(7));
                    assert!(!m.invalid);
                    if i > 0 {
                        assert_eq!(v.prev(), addrs[i as usize - 1]);
                    }
                }
                _ => panic!("expected resident record at {a}"),
            }
        }
    }

    #[test]
    fn page_straddle_inserts_pad() {
        let log = new_log();
        let big = Value(bytes::Bytes::copy_from_slice(&vec![7u8; 40_000]));
        let a0 = put(&log, &key(1), &big, Version(1), false, NONE_ADDRESS);
        let a1 = put(&log, &key(2), &big, Version(1), false, NONE_ADDRESS);
        assert_eq!(a0, 0);
        // The second record cannot fit the first page; it must start on
        // the next page boundary.
        assert_eq!(a1, PAGE_BYTES);
        let guard = log.protect();
        for (a, k) in [(a0, 1u64), (a1, 2)] {
            match log.get(&guard, a).unwrap() {
                GetOutcome::Resident(v) => {
                    assert!(v.key_matches(&key(k)));
                    assert_eq!(v.read_value().len(), 40_000);
                }
                _ => panic!("expected resident"),
            }
        }
        // The pad region is not a valid record address.
        let pad_addr = a0 + record_footprint(8, 40_000) as u64;
        assert!(log.get(&guard, pad_addr).is_err());
    }

    #[test]
    fn reserved_window_is_typed_not_ready() {
        let log = new_log();
        put(&log, &key(1), &val(1), Version(1), false, NONE_ADDRESS);
        let hole = log.debug_reserve(64);
        let after = put(&log, &key(2), &val(2), Version(1), false, NONE_ADDRESS);
        let guard = log.protect();
        assert!(matches!(
            log.get(&guard, hole).unwrap(),
            GetOutcome::NotReady
        ));
        // Real records around the hole still resolve.
        assert!(matches!(
            log.get(&guard, after).unwrap(),
            GetOutcome::Resident(_)
        ));
        // Out-of-range addresses are still hard errors, not NotReady.
        assert!(log.get(&guard, log.tail() + 8).is_err());
        assert!(log.get(&guard, NONE_ADDRESS).is_err());
    }

    #[test]
    fn flush_evict_and_read_back() {
        let log = RecordLog::new(Arc::new(MemLogDevice::null()), 1 << 22);
        let mut addrs = Vec::new();
        for i in 0..3000u64 {
            addrs.push(put(&log, &key(i), &val(i), Version(2), false, NONE_ADDRESS));
        }
        let sealed = log.seal_to_tail();
        log.flush_until(sealed).unwrap();
        assert_eq!(log.flushed(), sealed);
        let head = log.evict_to(sealed);
        assert!(head > 0, "expected at least one page evicted");
        assert_eq!(head % PAGE_BYTES, 0);
        let guard = log.protect();
        for (i, &a) in addrs.iter().enumerate() {
            let i = i as u64;
            if a < head {
                assert!(matches!(log.get(&guard, a).unwrap(), GetOutcome::OnDisk));
                let rec = log.read_from_device(a).unwrap();
                assert_eq!(rec.key(), &key(i));
                assert_eq!(rec.read_value(), val(i));
                assert_eq!(rec.meta().version, Version(2));
            } else {
                assert!(matches!(
                    log.get(&guard, a).unwrap(),
                    GetOutcome::Resident(_)
                ));
            }
        }
    }

    #[test]
    fn flush_rests_on_record_boundaries_and_streams_pages() {
        let log = new_log();
        // Records of three sizes over several pages, the largest beyond the
        // block a cold read fetches first.
        let value = |i: u64| {
            Value(bytes::Bytes::from(vec![
                i as u8;
                [8, 40, 3000][i as usize % 3]
            ]))
        };
        let addrs: Vec<u64> = (0..400u64)
            .map(|i| put(&log, &key(i), &value(i), Version(1), false, NONE_ADDRESS))
            .collect();
        // A target inside a record: the frontier stops before that record.
        let mid = addrs[200] + 16;
        log.advance_read_only(mid);
        assert_eq!(log.flush_until(mid).unwrap(), addrs[200]);
        assert_eq!(log.flushed(), addrs[200]);
        let sealed = log.seal_to_tail();
        assert_eq!(log.flush_until(sealed).unwrap(), sealed);
        assert!(log.evict_to(sealed) > PAGE_BYTES);
        for (i, &a) in addrs.iter().enumerate().filter(|(_, &a)| a < log.head()) {
            let rec = log.read_from_device(a).unwrap();
            assert_eq!(rec.key(), &key(i as u64));
            assert_eq!(rec.read_value(), value(i as u64));
        }
    }

    #[test]
    fn eviction_clamped_to_flush_and_read_only() {
        let log = new_log();
        for i in 0..3000u64 {
            put(&log, &key(i), &val(i), Version(1), false, NONE_ADDRESS);
        }
        // Nothing flushed: eviction is a no-op.
        assert_eq!(log.evict_to(log.tail()), 0);
        let sealed = log.seal_to_tail();
        log.flush_until(sealed).unwrap();
        let head = log.evict_to(log.tail());
        assert_eq!(head, sealed - sealed % PAGE_BYTES);
        assert_eq!(log.resident_bytes(), log.tail() - head);
    }

    #[test]
    fn epoch_guard_blocks_reclaim() {
        let log = Arc::new(new_log());
        for i in 0..3000u64 {
            put(&log, &key(i), &val(i), Version(1), false, NONE_ADDRESS);
        }
        let sealed = log.seal_to_tail();
        log.flush_until(sealed).unwrap();

        // A reader holding a guard and a view; eviction must not free the
        // frame under it.
        let guard = log.protect();
        let view = match log.get(&guard, 0).unwrap() {
            GetOutcome::Resident(v) => v,
            _ => panic!("expected resident"),
        };
        let evictor = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.evict_to(u64::MAX))
        };
        // Give the evictor time to flip states and enter quiesce; the
        // view must stay readable the whole time.
        for _ in 0..50 {
            assert_eq!(view.read_value(), val(0));
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        drop(guard);
        let head = evictor.join().unwrap();
        assert!(head > 0);
        let guard = log.protect();
        assert!(matches!(log.get(&guard, 0).unwrap(), GetOutcome::OnDisk));
    }

    #[test]
    fn purge_invalidates_version_range() {
        let log = new_log();
        let mut by_version: Vec<(u64, Version)> = Vec::new();
        for i in 0..300u64 {
            let v = Version(1 + i % 3);
            let a = put(&log, &key(i), &val(i), v, false, NONE_ADDRESS);
            by_version.push((a, v));
        }
        let purged = log.purge_versions(Version(1), Version(2));
        assert_eq!(purged, 100);
        let guard = log.protect();
        for (a, v) in by_version {
            match log.get(&guard, a).unwrap() {
                GetOutcome::Resident(view) => {
                    assert_eq!(view.meta().invalid, v == Version(2), "addr {a}");
                }
                _ => panic!("expected resident"),
            }
        }
        // Purge is idempotent: already-invalid records are not recounted.
        assert_eq!(log.purge_versions(Version(1), Version(2)), 0);
    }

    #[test]
    fn backpressure_stalls_until_flush() {
        let log = Arc::new(new_log());
        log.set_unflushed_limit(PAGE_BYTES);
        // Fill just under the limit.
        while log.tail() + 128 < PAGE_BYTES {
            put(&log, &key(1), &val(1), Version(1), false, NONE_ADDRESS);
        }
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                // These appends overflow the unflushed bound and stall
                // until they, or the main thread, flush the frontier up.
                for i in 0..2000u64 {
                    put(&log, &key(i), &val(i), Version(1), false, NONE_ADDRESS);
                }
            })
        };
        let t0 = std::time::Instant::now();
        while !appender.is_finished() {
            log.advance_read_only(log.tail());
            log.flush_until(log.tail()).unwrap();
            assert!(t0.elapsed() < std::time::Duration::from_secs(30));
            std::thread::yield_now();
        }
        appender.join().unwrap();
    }

    #[test]
    fn scan_range_covers_device_and_resident() {
        let log = new_log();
        let n = 6000u64;
        for i in 0..n {
            put(
                &log,
                &key(i),
                &val(i),
                Version(1),
                i % 11 == 0,
                NONE_ADDRESS,
            );
        }
        let sealed = log.seal_to_tail();
        log.flush_until(sealed).unwrap();
        // Evict roughly half the pages so the scan crosses the boundary.
        log.evict_to(sealed / 2);
        assert!(log.head() > 0);
        let mut seen = Vec::new();
        log.scan_range(0, log.tail(), &mut |rec| {
            seen.push(rec);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len() as u64, n);
        for (i, rec) in seen.iter().enumerate() {
            let i = i as u64;
            assert_eq!(rec.key(), &key(i));
            assert_eq!(rec.read_value(), val(i));
            assert_eq!(rec.meta().tombstone, i.is_multiple_of(11));
        }
    }

    #[test]
    fn recover_round_trip() {
        let device = Arc::new(MemLogDevice::null());
        // 32 bytes per record: enough to span several pages, so the
        // 2-page recovery budget leaves a non-trivial on-device prefix.
        let n = 9000u64;
        let (until, addrs) = {
            let log = RecordLog::new(Arc::clone(&device) as Arc<dyn LogDevice>, 1 << 22);
            let mut addrs = Vec::new();
            for i in 0..n {
                addrs.push(put(
                    &log,
                    &key(i),
                    &val(i * 3),
                    Version(4),
                    false,
                    NONE_ADDRESS,
                ));
            }
            let sealed = log.seal_to_tail();
            log.flush_until(sealed).unwrap();
            (sealed, addrs)
        };
        // Small budget: only a suffix comes back resident.
        let log = RecordLog::recover(device, 2 * PAGE_BYTES, until, &[(0, 0, until)]).unwrap();
        assert_eq!(log.tail(), until);
        assert_eq!(log.flushed(), until);
        assert!(log.head() > 0);
        assert_eq!(log.head() % PAGE_BYTES, 0);
        let guard = log.protect();
        for (i, &a) in addrs.iter().enumerate() {
            let i = i as u64;
            if a < log.head() {
                let rec = log.read_from_device(a).unwrap();
                assert_eq!(rec.key(), &key(i));
                assert_eq!(rec.read_value(), val(i * 3));
            } else {
                match log.get(&guard, a).unwrap() {
                    GetOutcome::Resident(v) => {
                        assert!(v.key_matches(&key(i)));
                        assert_eq!(v.read_value(), val(i * 3));
                    }
                    _ => panic!("expected resident suffix at {a}"),
                }
            }
        }
        drop(guard);
        // The recovered log keeps appending and scanning normally.
        let extra = put(&log, &key(n), &val(n), Version(5), false, NONE_ADDRESS);
        assert!(extra >= until);
        let mut count = 0u64;
        log.scan_range(0, log.tail(), &mut |_| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, n + 1);
    }

    #[test]
    fn recover_then_flush_creates_new_segment() {
        let device = Arc::new(MemLogDevice::null());
        let until = {
            let log = RecordLog::new(Arc::clone(&device) as Arc<dyn LogDevice>, 1 << 22);
            for i in 0..500u64 {
                put(&log, &key(i), &val(i), Version(1), false, NONE_ADDRESS);
            }
            let sealed = log.seal_to_tail();
            log.flush_until(sealed).unwrap();
            // Unsealed garbage past the recovery point, to force the
            // post-recovery device mapping to diverge from `addr +
            // scan_from`.
            put(&log, &key(999), &val(999), Version(1), false, NONE_ADDRESS);
            log.advance_read_only(log.tail());
            log.flush_until(log.tail()).unwrap();
            sealed
        };
        let log = RecordLog::recover(
            Arc::clone(&device) as Arc<dyn LogDevice>,
            1 << 22,
            until,
            &[(0, 0, until)],
        )
        .unwrap();
        let a = put(
            &log,
            &key(1000),
            &val(1000),
            Version(2),
            false,
            NONE_ADDRESS,
        );
        log.advance_read_only(log.tail());
        log.flush_until(log.tail()).unwrap();
        log.evict_to(u64::MAX);
        // The new record's device bytes live at the device tail, not at
        // `scan_from + a`; the segment map must resolve it.
        let rec = log.read_from_device(a).unwrap();
        assert_eq!(rec.key(), &key(1000));
        assert_eq!(rec.read_value(), val(1000));
    }

    #[test]
    fn truncate_below_moves_begin_and_frees_memory_and_device() {
        let device = Arc::new(MemLogDevice::null());
        let log = RecordLog::new(device.clone(), 1 << 22);
        // 32 bytes per record: cover well past the 3-page cut point.
        for i in 0..9000u64 {
            put(&log, &key(i), &val(i), Version(1), false, NONE_ADDRESS);
        }
        // Nothing is freed above the flushed, read-only frontier.
        assert_eq!(log.truncate_below(PAGE_BYTES).unwrap(), 0);
        let sealed = log.seal_to_tail();
        log.flush_until(sealed).unwrap();
        // A record boundary inside the fourth page: three frames go, the
        // fourth stays for the records above the cut.
        let cut = 3 * PAGE_BYTES + 320;
        assert_eq!(log.truncate_below(cut).unwrap(), cut);
        assert_eq!((log.begin(), log.head()), (cut, 3 * PAGE_BYTES));
        assert_eq!(device.truncated_before(), cut);
        assert!(log.read_from_device(0).is_err());
        assert!(log.read_from_device(cut - 32).is_err());
        assert_eq!(log.read_from_device(cut).unwrap().address(), cut);
        // `begin` never moves back, and a scan from below it starts at it.
        assert_eq!(log.truncate_below(PAGE_BYTES).unwrap(), cut);
        let mut first = None;
        log.scan_range(0, log.tail(), &mut |rec| {
            first.get_or_insert(rec.address());
            Ok(())
        })
        .unwrap();
        assert_eq!(first, Some(cut));
        // A manifest written before the truncation still names the whole
        // log; recovery begins where the device does.
        let back = RecordLog::recover(device, 2 * PAGE_BYTES, sealed, &[(0, 0, sealed)]).unwrap();
        assert_eq!((back.begin(), back.tail()), (cut, sealed));
        let mut count = 0u64;
        back.scan_range(0, sealed, &mut |rec| {
            assert_eq!(rec.key(), &key(rec.address() / 32));
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 9000 - cut / 32);
    }

    #[test]
    fn concurrent_appends_are_disjoint_and_parseable() {
        let log = Arc::new(new_log());
        let threads = 4;
        let per = 2000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut addrs = Vec::new();
                    for i in 0..per {
                        let k = key(t * per + i);
                        addrs.push(put(&log, &k, &val(i), Version(1), false, NONE_ADDRESS));
                    }
                    addrs
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per, "addresses must be unique");
        let mut count = 0u64;
        log.scan_range(0, log.tail(), &mut |_| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, threads * per);
    }
}
