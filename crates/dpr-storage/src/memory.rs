//! In-memory log device with latency injection and crash simulation. It
//! keeps the log in pages of the log's own size and only the pages from
//! the truncation point on: a `dpr-faster` log truncated at a page boundary
//! leaves it holding the log above `begin` and at most a page more.

use crate::device::LogDevice;
use crate::latency::{LatencyModel, StorageProfile};
use dpr_core::{DprError, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Page granularity of the backing store, that of a `dpr-faster` log page.
/// Appends may span pages.
const PAGE_SIZE: usize = 1 << 16;

/// An in-memory [`LogDevice`].
///
/// Data lives in 64 KiB pages, each behind its own lock (`append` holds it
/// exclusively for its copy, `read` shares it), and a page wholly below the
/// truncation point is released; `flush` charges the configured
/// [`LatencyModel`] for the dirty span and advances the durable frontier;
/// [`MemLogDevice::crash`] discards the volatile suffix, modeling power loss
/// on a buffered device.
///
/// ```
/// use dpr_storage::{LogDevice, MemLogDevice};
///
/// let dev = MemLogDevice::null();
/// dev.append(b"durable").unwrap();
/// dev.flush().unwrap();
/// dev.append(b"volatile").unwrap();
/// assert_eq!(dev.crash(), 7, "restart at the durable frontier");
/// ```
pub struct MemLogDevice {
    /// The outer lock covers only growth at the back and release at the
    /// front.
    pages: RwLock<Pages>,
    tail: AtomicU64,
    durable: AtomicU64,
    truncated: AtomicU64,
    latency: LatencyModel,
}

/// The live span of the device: page `first + i` is `held[i]`, and a page
/// below `first` is gone, table entry and all. A read that meets one is
/// refused like one below `truncated`; an append's bytes there are below
/// the truncation point, where nothing reads them, and are dropped.
#[derive(Default)]
struct Pages {
    first: usize,
    held: VecDeque<RwLock<Box<[u8]>>>,
}

impl Pages {
    fn get(&self, page: usize) -> Option<&RwLock<Box<[u8]>>> {
        self.held.get(page.checked_sub(self.first)?)
    }
}

impl MemLogDevice {
    /// Device with the given latency model.
    #[must_use]
    pub fn new(latency: LatencyModel) -> Self {
        MemLogDevice {
            pages: RwLock::new(Pages::default()),
            tail: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            latency,
        }
    }

    /// Device for a named profile.
    #[must_use]
    pub fn with_profile(profile: StorageProfile) -> Self {
        Self::new(profile.latency())
    }

    /// The null device: instantaneous I/O (§7.2's theoretical upper bound).
    #[must_use]
    pub fn null() -> Self {
        Self::new(LatencyModel::zero())
    }

    /// Simulate a crash: every byte beyond the durable frontier is lost.
    /// Returns the durable frontier the device restarts at.
    pub fn crash(&self) -> u64 {
        let durable = self.durable.load(Ordering::SeqCst);
        self.tail.store(durable, Ordering::SeqCst);
        durable
    }

    /// Bytes of the pages the device holds, whole pages from the one the
    /// truncation point lies in to the one the tail lies in (diagnostics).
    #[must_use]
    pub fn held_bytes(&self) -> u64 {
        (self.pages.read().unwrap().held.len() * PAGE_SIZE) as u64
    }

    fn ensure_pages(&self, end: u64) {
        let need = (end as usize).div_ceil(PAGE_SIZE);
        let has = |p: &Pages| p.first + p.held.len() >= need;
        // Nearly every append lands in pages that exist: check under the
        // read lock, which readers and other appenders share.
        if has(&self.pages.read().unwrap()) {
            return;
        }
        let mut pages = self.pages.write().unwrap();
        while !has(&pages) {
            pages
                .held
                .push_back(RwLock::new(vec![0u8; PAGE_SIZE].into_boxed_slice()));
        }
    }
}

impl LogDevice for MemLogDevice {
    fn append(&self, data: &[u8]) -> Result<u64> {
        let addr = self.tail.fetch_add(data.len() as u64, Ordering::SeqCst);
        let end = addr + data.len() as u64;
        self.ensure_pages(end);
        let pages = self.pages.read().unwrap();
        let mut off = addr as usize;
        let mut rest = data;
        while !rest.is_empty() {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = rest.len().min(PAGE_SIZE - in_page);
            if let Some(bytes) = pages.get(page) {
                bytes.write().unwrap()[in_page..in_page + n].copy_from_slice(&rest[..n]);
            }
            off += n;
            rest = &rest[n..];
        }
        Ok(addr)
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<usize> {
        let truncated = || DprError::Storage(format!("address {addr} truncated"));
        if addr < self.truncated.load(Ordering::Acquire) {
            return Err(truncated());
        }
        let tail = self.tail.load(Ordering::Acquire);
        if addr >= tail {
            return Ok(0);
        }
        let avail = ((tail - addr) as usize).min(buf.len());
        let pages = self.pages.read().unwrap();
        let mut off = addr as usize;
        let mut done = 0;
        while done < avail {
            let page = off / PAGE_SIZE;
            let in_page = off % PAGE_SIZE;
            let n = (avail - done).min(PAGE_SIZE - in_page);
            // Released by a truncation that came between the check above and
            // this lock.
            let bytes = pages.get(page).ok_or_else(truncated)?;
            buf[done..done + n].copy_from_slice(&bytes.read().unwrap()[in_page..in_page + n]);
            off += n;
            done += n;
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
        // Every read checks `truncated` first, so the pages that now lie
        // wholly below it hold bytes nobody can ask for: release them.
        let whole = addr as usize / PAGE_SIZE;
        let mut pages = self.pages.write().unwrap();
        let below = whole.saturating_sub(pages.first).min(pages.held.len());
        pages.held.drain(..below);
        // Past the last page held, `held` is empty and starts over there.
        pages.first = pages.first.max(whole);
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
    use std::sync::Arc;

    #[test]
    fn append_read_round_trip() {
        let dev = MemLogDevice::null();
        let a = dev.append(b"hello").unwrap();
        let b = dev.append(b"world!").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        let mut buf = [0u8; 6];
        read_exact(&dev, b, &mut buf).unwrap();
        assert_eq!(&buf, b"world!");
    }

    #[test]
    fn appends_spanning_pages() {
        let dev = MemLogDevice::null();
        let big = vec![0xAB; PAGE_SIZE + 123];
        let a = dev.append(&big).unwrap();
        let mut buf = vec![0u8; big.len()];
        read_exact(&dev, a, &mut buf).unwrap();
        assert_eq!(buf, big);
    }

    #[test]
    fn crash_loses_unflushed_suffix() {
        let dev = MemLogDevice::null();
        dev.append(b"durable").unwrap();
        dev.flush().unwrap();
        dev.append(b"volatile").unwrap();
        assert_eq!(dev.tail(), 15);
        let restart = dev.crash();
        assert_eq!(restart, 7);
        assert_eq!(dev.tail(), 7);
        let mut buf = [0u8; 16];
        assert_eq!(dev.read(7, &mut buf).unwrap(), 0, "lost data unreadable");
    }

    #[test]
    fn flush_advances_frontier() {
        let dev = MemLogDevice::null();
        assert_eq!(dev.durable_frontier(), 0);
        dev.append(b"abc").unwrap();
        assert_eq!(dev.durable_frontier(), 0);
        assert_eq!(dev.flush().unwrap(), 3);
        assert_eq!(dev.durable_frontier(), 3);
    }

    #[test]
    fn truncated_reads_fail() {
        let dev = MemLogDevice::null();
        dev.append(b"0123456789").unwrap();
        assert_eq!(dev.truncated_before(), 0);
        dev.truncate_before(5).unwrap();
        assert_eq!(dev.truncated_before(), 5);
        let mut buf = [0u8; 2];
        assert!(dev.read(3, &mut buf).is_err());
        assert!(dev.read(5, &mut buf).is_ok());
    }

    #[test]
    fn truncation_frees_the_pages_wholly_below_it() {
        let dev = MemLogDevice::null();
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        dev.append(&data).unwrap();
        let held = |dev: &MemLogDevice| {
            let pages = dev.pages.read().unwrap();
            (pages.first, pages.held.len())
        };
        assert_eq!(held(&dev), (0, 4));
        // Inside the third page: two pages go, the third keeps its tail.
        let cut = 2 * PAGE_SIZE + 10;
        dev.truncate_before(cut as u64).unwrap();
        assert_eq!(held(&dev), (2, 2));
        assert_eq!(dev.held_bytes(), 2 * PAGE_SIZE as u64);
        let mut buf = [0u8; 64];
        for below in [0, PAGE_SIZE - 1, 2 * PAGE_SIZE, cut - 1] {
            assert!(dev.read(below as u64, &mut buf).is_err(), "read at {below}");
        }
        for above in [cut, 3 * PAGE_SIZE - 32, 3 * PAGE_SIZE + 36] {
            read_exact(&dev, above as u64, &mut buf).unwrap();
            assert_eq!(buf[..], data[above..above + 64], "read at {above}");
        }
        // A truncation past the tail releases every page; the next append
        // makes only the pages from the truncation point on, and a lower
        // truncation afterwards does nothing.
        let past = 4 * PAGE_SIZE + 8;
        dev.truncate_before(past as u64).unwrap();
        dev.truncate_before(5).unwrap();
        assert_eq!(held(&dev), (4, 0));
        let at = dev.append(&vec![7u8; PAGE_SIZE]).unwrap();
        assert_eq!(held(&dev), (4, 1));
        assert!(dev.read(at, &mut buf).is_err());
        read_exact(&dev, past as u64, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
    }

    /// The page table is the live span, not every page ever written: a
    /// device truncated as it grows keeps as few entries as it holds pages.
    #[test]
    fn a_device_truncated_as_it_grows_forgets_its_released_pages() {
        let dev = MemLogDevice::null();
        for _ in 0..1000 {
            dev.append(&[1u8; PAGE_SIZE]).unwrap();
            dev.truncate_before(dev.tail() - 100).unwrap();
        }
        let pages = dev.pages.read().unwrap();
        assert_eq!((pages.first, pages.held.len()), (999, 1));
        assert_eq!(dev.held_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let dev = Arc::new(MemLogDevice::null());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let d = dev.clone();
            handles.push(std::thread::spawn(move || {
                let payload = [t; 64];
                let mut addrs = Vec::new();
                for _ in 0..200 {
                    addrs.push(d.append(&payload).unwrap());
                }
                (t, addrs)
            }));
        }
        for h in handles {
            let (t, addrs) = h.join().unwrap();
            for a in addrs {
                let mut buf = [0u8; 64];
                read_exact(dev.as_ref(), a, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == t), "record torn at {a}");
            }
        }
        assert_eq!(dev.tail(), 8 * 200 * 64);
    }

    /// Below an address `append` has returned a reader sees the whole
    /// record, while other records are being copied into the same page.
    #[test]
    fn a_reader_racing_appenders_on_one_page_sees_whole_records() {
        const RECORDS: usize = 250;
        let dev = MemLogDevice::null();
        let (returned, appended) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for t in 1..=4u8 {
                let (dev, returned) = (&dev, returned.clone());
                s.spawn(move || {
                    for _ in 0..RECORDS {
                        let addr = dev.append(&[t; 64]).unwrap();
                        returned.send((t, addr)).unwrap();
                    }
                });
            }
            drop(returned);
            for (t, addr) in appended {
                let mut buf = [0u8; 64];
                read_exact(&dev, addr, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == t), "record torn at {addr}");
            }
        });
        assert_eq!(dev.tail() as usize, 4 * RECORDS * 64);
        assert!(dev.tail() as usize <= PAGE_SIZE, "one page");
    }
}
