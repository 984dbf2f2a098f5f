//! File-backed log device: the log in segment files that have no names, and
//! only the segments from the truncation point on.
//!
//! A segment is a file made in the system's temporary directory and unlinked
//! at once, so that closing it frees it and nothing is left behind however
//! the process ends. It is at least [`MIN_SEGMENT_BYTES`] long and at least
//! a sixteenth of the span the device holds when it is made: a truncated log
//! holds its span and little more, and a log that is never truncated holds a
//! number of files that grows with the logarithm of its length (about 150
//! at 64 GiB), not with the length.
//!
//! Bytes written are the kernel's to cache and write back, not the
//! process's heap, with one exception: the page a point read lands in stays
//! in the heap until it is truncated. A store whose records have left memory
//! reads them back at memory speed, and a store that never reads its log
//! back keeps no second copy of it.

use crate::device::LogDevice;
use crate::latency::LatencyModel;
use dpr_core::{DprError, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The shortest segment: sixteen 64 KiB pages of a `dpr-faster` log.
pub const MIN_SEGMENT_BYTES: u64 = 1 << 20;

/// The unit a point read keeps in the heap, a `dpr-faster` log page.
/// Segments are whole pages, so a page lies in one segment.
const PAGE_BYTES: u64 = 1 << 16;

/// A [`LogDevice`] that keeps the log in unlinked segment files.
///
/// Appends reserve their addresses with one atomic add and write with
/// `pwrite`, so appenders and readers of distinct bytes do not wait for one
/// another; the lock on the segment table is taken exclusively only to make
/// a segment or drop some. [`LogDevice::truncate_before`] closes the
/// segments wholly below the truncation point, which frees their files.
/// `flush` charges a [`LatencyModel`] in place of an `fsync`, as the
/// in-memory device does. A read that lies within one page below the durable
/// frontier reads the whole page and keeps it (bytes below the frontier are
/// written and never written again); other reads, a scan's, are `pread`s.
///
/// ```
/// use dpr_storage::{FileLogDevice, LatencyModel, LogDevice};
///
/// let dev = FileLogDevice::temporary(LatencyModel::zero());
/// let at = dev.append(b"durable").unwrap();
/// assert_eq!(dev.flush().unwrap(), 7);
/// let mut buf = [0u8; 7];
/// dev.read(at, &mut buf).unwrap();
/// assert_eq!(&buf, b"durable");
/// ```
pub struct FileLogDevice {
    segments: RwLock<Segments>,
    /// Pages point reads landed in, by page number; none below the
    /// truncation point.
    pages: RwLock<BTreeMap<u64, Box<[u8]>>>,
    min_segment: u64,
    tail: AtomicU64,
    durable: AtomicU64,
    truncated: AtomicU64,
    latency: LatencyModel,
}

/// The live segments in address order, contiguous, and where the last one
/// made ends. A segment below the first held was dropped by a truncation;
/// an append's bytes there lie below the truncation point, where nothing
/// reads them, and are dropped too.
struct Segments {
    held: VecDeque<Segment>,
    end: u64,
}

struct Segment {
    start: u64,
    end: u64,
    file: File,
}

impl Segments {
    /// Split `[addr, addr + len)` at segment boundaries: `f(segment, address,
    /// range of the caller's buffer)` for each piece, in address order, with
    /// no segment for a piece below the first one held or past the last.
    fn for_each_piece(
        &self,
        addr: u64,
        len: usize,
        mut f: impl FnMut(Option<&Segment>, u64, Range<usize>) -> Result<()>,
    ) -> Result<()> {
        let mut done = 0;
        while done < len {
            let at = addr + done as u64;
            let i = self.held.partition_point(|s| s.end <= at);
            let (segment, until) = match self.held.get(i) {
                Some(s) if s.start <= at => (Some(s), s.end),
                Some(s) => (None, s.start),
                None => (None, u64::MAX),
            };
            let n = (until - at).min((len - done) as u64) as usize;
            f(segment, at, done..done + n)?;
            done += n;
        }
        Ok(())
    }
}

impl FileLogDevice {
    /// A device in the system's temporary directory whose `flush` charges
    /// `latency`.
    #[must_use]
    pub fn temporary(latency: LatencyModel) -> Self {
        Self::with_min_segment(latency, MIN_SEGMENT_BYTES)
    }

    fn with_min_segment(latency: LatencyModel, min_segment: u64) -> Self {
        FileLogDevice {
            segments: RwLock::new(Segments {
                held: VecDeque::new(),
                end: 0,
            }),
            pages: RwLock::new(BTreeMap::new()),
            min_segment,
            tail: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            latency,
        }
    }

    /// Bytes of the segment files the device holds (diagnostics).
    #[must_use]
    pub fn held_bytes(&self) -> u64 {
        self.segments
            .read()
            .held
            .iter()
            .filter_map(|s| s.file.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    fn ensure_segments(&self, end: u64) -> Result<()> {
        // Nearly every append lands in a segment that exists.
        if self.segments.read().end >= end {
            return Ok(());
        }
        let mut segments = self.segments.write();
        while segments.end < end {
            let start = segments.end;
            let span = start - segments.held.front().map_or(start, |s| s.start);
            let len = (span / 16)
                .max(self.min_segment)
                .next_multiple_of(PAGE_BYTES);
            segments.held.push_back(Segment {
                start,
                end: start + len,
                file: unlinked_file()?,
            });
            segments.end = start + len;
        }
        Ok(())
    }

    /// `pread` `[addr, addr + buf.len())`, below the tail and not below the
    /// truncation point as the caller checked. Bytes reserved by an append
    /// that has not written them yet read as zeros, as on the in-memory
    /// device.
    fn read_files(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        let segments = self.segments.read();
        segments.for_each_piece(addr, buf.len(), |segment, at, range| {
            let dst = &mut buf[range];
            let Some(segment) = segment else {
                if at >= segments.end {
                    dst.fill(0);
                    return Ok(());
                }
                // Dropped by a truncation that came after the caller's check.
                return Err(DprError::Storage(format!("address {addr} truncated")));
            };
            let offset = at - segment.start;
            let mut got = 0;
            while got < dst.len() {
                match segment.file.read_at(&mut dst[got..], offset + got as u64) {
                    Ok(0) => {
                        dst[got..].fill(0);
                        break;
                    }
                    Ok(n) => got += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(())
        })
    }
}

/// A new file in the system's temporary directory, already unlinked.
fn unlinked_file() -> Result<File> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("dpr-log-{}-{n}.seg", std::process::id()));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

impl LogDevice for FileLogDevice {
    fn append(&self, data: &[u8]) -> Result<u64> {
        let addr = self.tail.fetch_add(data.len() as u64, Ordering::SeqCst);
        self.ensure_segments(addr + data.len() as u64)?;
        let segments = self.segments.read();
        segments.for_each_piece(addr, data.len(), |segment, at, range| {
            if let Some(segment) = segment {
                segment
                    .file
                    .write_all_at(&data[range], at - segment.start)?;
            }
            Ok(())
        })?;
        Ok(addr)
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<usize> {
        if addr < self.truncated.load(Ordering::Acquire) {
            return Err(DprError::Storage(format!("address {addr} truncated")));
        }
        let tail = self.tail.load(Ordering::Acquire);
        if addr >= tail {
            return Ok(0);
        }
        let avail = ((tail - addr) as usize).min(buf.len());
        let (page, at) = (addr / PAGE_BYTES, (addr % PAGE_BYTES) as usize);
        let point = at + avail <= PAGE_BYTES as usize;
        if !point || (page + 1) * PAGE_BYTES > self.durable.load(Ordering::Acquire) {
            self.read_files(addr, &mut buf[..avail])?;
            return Ok(avail);
        }
        if let Some(bytes) = self.pages.read().get(&page) {
            buf[..avail].copy_from_slice(&bytes[at..at + avail]);
            return Ok(avail);
        }
        let mut bytes = vec![0u8; PAGE_BYTES as usize].into_boxed_slice();
        self.read_files(page * PAGE_BYTES, &mut bytes)?;
        buf[..avail].copy_from_slice(&bytes[at..at + avail]);
        let mut pages = self.pages.write();
        // A truncation stores its point before it drops pages under this
        // lock, so a page it has passed is not kept after it.
        if (page + 1) * PAGE_BYTES > self.truncated.load(Ordering::Acquire) {
            pages.entry(page).or_insert(bytes);
        }
        Ok(avail)
    }

    fn flush(&self) -> Result<u64> {
        let tail = self.tail.load(Ordering::Acquire);
        let durable = self.durable.load(Ordering::Acquire);
        if tail > durable {
            self.latency.charge_flush(tail - durable);
            // Another flusher may have advanced past us; keep the max.
            self.durable.fetch_max(tail, Ordering::SeqCst);
        }
        Ok(self.durable.load(Ordering::Acquire))
    }

    fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    fn durable_frontier(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    fn truncate_before(&self, addr: u64) -> Result<()> {
        self.truncated.fetch_max(addr, Ordering::SeqCst);
        // Every read checks `truncated` first, so the segments and pages
        // wholly below it hold bytes nobody can ask for: closing a segment
        // frees its file.
        {
            let mut segments = self.segments.write();
            let below = segments.held.partition_point(|s| s.end <= addr);
            segments.held.drain(..below);
        }
        let mut pages = self.pages.write();
        *pages = pages.split_off(&(addr / PAGE_BYTES));
        Ok(())
    }

    fn truncated_before(&self) -> u64 {
        self.truncated.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::read_exact;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn appends_spanning_segments_and_reads_past_the_tail() {
        let dev = FileLogDevice::temporary(LatencyModel::zero());
        dev.append(&[1u8; 100]).unwrap();
        let big = pattern(2 * MIN_SEGMENT_BYTES as usize + 7);
        let at = dev.append(&big).unwrap();
        let mut buf = vec![0u8; big.len()];
        read_exact(&dev, at, &mut buf).unwrap();
        assert_eq!(buf, big);
        assert_eq!(dev.held_bytes(), dev.tail());
        assert_eq!(dev.read(dev.tail(), &mut buf).unwrap(), 0);
        assert_eq!(dev.read(dev.tail() - 7, &mut buf).unwrap(), 7);
    }

    /// Truncation closes the segments and drops the pages wholly below it,
    /// refuses reads there and serves the rest.
    #[test]
    fn truncation_drops_the_segments_and_pages_wholly_below_it() {
        let dev = FileLogDevice::temporary(LatencyModel::zero());
        let data = pattern(3 * MIN_SEGMENT_BYTES as usize + 100);
        dev.append(&data).unwrap();
        dev.flush().unwrap();
        let mut buf = [0u8; 64];
        // Point reads in the first and the third segment keep their pages.
        for at in [10, 2 * MIN_SEGMENT_BYTES + PAGE_BYTES + 5] {
            read_exact(&dev, at, &mut buf).unwrap();
        }
        assert_eq!(dev.pages.read().len(), 2);
        let cut = 2 * MIN_SEGMENT_BYTES + PAGE_BYTES + 10;
        dev.truncate_before(cut).unwrap();
        assert_eq!(dev.held_bytes(), MIN_SEGMENT_BYTES + 100);
        assert_eq!(dev.pages.read().len(), 1, "the page `cut` lies in stays");
        for below in [0, MIN_SEGMENT_BYTES - 1, 2 * MIN_SEGMENT_BYTES, cut - 1] {
            assert!(dev.read(below, &mut buf).is_err(), "read at {below}");
        }
        for at in [cut, 3 * MIN_SEGMENT_BYTES + 36] {
            read_exact(&dev, at, &mut buf).unwrap();
            assert_eq!(buf[..], data[at as usize..at as usize + 64]);
        }
        // Past the tail: every segment goes, and appends go on above it.
        dev.truncate_before(10 * MIN_SEGMENT_BYTES).unwrap();
        assert_eq!((dev.held_bytes(), dev.pages.read().len()), (0, 0));
        assert_eq!(dev.append(b"more").unwrap(), data.len() as u64);
    }

    /// Only a point read below the durable frontier keeps its page, and a
    /// kept page serves the reads that follow, its own bytes and not the
    /// files'.
    #[test]
    fn a_point_read_below_the_durable_frontier_keeps_its_page() {
        let dev = FileLogDevice::temporary(LatencyModel::zero());
        let data = pattern(4 * PAGE_BYTES as usize);
        dev.append(&data[..3 * PAGE_BYTES as usize]).unwrap();
        dev.flush().unwrap();
        dev.append(&data[3 * PAGE_BYTES as usize..]).unwrap();
        let mut scan = vec![0u8; 2 * PAGE_BYTES as usize];
        read_exact(&dev, 0, &mut scan).unwrap();
        let mut buf = [0u8; 64];
        read_exact(&dev, 3 * PAGE_BYTES + 8, &mut buf).unwrap();
        assert!(dev.pages.read().is_empty(), "a scan and an unflushed page");
        read_exact(&dev, PAGE_BYTES + 8, &mut buf).unwrap();
        assert_eq!(dev.pages.read().keys().collect::<Vec<_>>(), [&1]);
        dev.pages.write().get_mut(&1).unwrap()[8] ^= 0xff;
        read_exact(&dev, PAGE_BYTES + 8, &mut buf).unwrap();
        assert_eq!(buf[0], !data[PAGE_BYTES as usize + 8]);
    }

    /// A log never truncated holds few files: segments grow with it, so
    /// twice the 1,024 minimum segments that would reach a common limit on
    /// open files take 90.
    #[test]
    fn a_log_that_is_never_truncated_holds_few_files() {
        let dev = FileLogDevice::with_min_segment(LatencyModel::zero(), PAGE_BYTES);
        let page = pattern(PAGE_BYTES as usize);
        let pages = 2_048;
        for _ in 0..pages {
            dev.append(&page).unwrap();
        }
        let files = dev.segments.read().held.len();
        assert!(files <= 100, "{files} files for {pages} minimum segments");
        assert_eq!(dev.held_bytes(), pages * PAGE_BYTES);
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        for p in [0, 17, 1_000, pages - 1] {
            read_exact(&dev, p * PAGE_BYTES, &mut buf).unwrap();
            assert_eq!(buf, page, "page {p}");
        }
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let dev = &FileLogDevice::temporary(LatencyModel::zero());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u8)
                .map(|t| s.spawn(move || (t, [(); 200].map(|()| dev.append(&[t; 640]).unwrap()))))
                .collect();
            for h in handles {
                let (t, addrs) = h.join().unwrap();
                for a in addrs {
                    let mut buf = [0u8; 640];
                    read_exact(dev, a, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == t), "record torn at {a}");
                }
            }
        });
        assert_eq!(dev.tail(), 8 * 200 * 640);
    }
}
