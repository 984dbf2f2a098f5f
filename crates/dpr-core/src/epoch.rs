//! Light epoch protection, after FASTER's `LightEpoch`.
//!
//! Threads working on a shared structure *protect* themselves by publishing
//! the global epoch into a per-thread slot. Maintenance that must wait for
//! all in-flight threads (e.g. freeing a log page, or firing a checkpoint
//! phase transition) bumps the global epoch and registers a *drain action*
//! that runs once every protected thread has advanced past the bump — i.e.
//! once the bumped epoch becomes *safe*.
//!
//! This is the substrate on which the CPR/DPR state machines (checkpoint,
//! rollback) coordinate threads "loosely" without blocking them (§5.5).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel meaning "slot unused / thread not protected".
const UNPROTECTED: u64 = 0;

/// A drain action: runs exactly once, when its trigger epoch becomes safe.
type DrainAction = Box<dyn FnOnce() + Send>;

struct Drain {
    epoch: u64,
    action: DrainAction,
}

/// One epoch slot, padded to its own cache line so threads publishing their
/// epoch (the per-batch hot path) never false-share with neighbours.
#[repr(align(128))]
#[derive(Default)]
struct Slot(AtomicU64);

/// Epoch table sized for `max_threads` concurrent participants.
pub struct LightEpoch {
    current: AtomicU64,
    slots: Box<[Slot]>,
    drains: Mutex<Vec<Drain>>,
    /// Registered-but-unfired drain actions, kept as a relaxed counter so the
    /// hot path can skip the `drains` mutex entirely when nothing is pending.
    pending: AtomicU64,
    /// Number of drain actions executed (observable for tests/metrics).
    drained: AtomicU64,
}

impl std::fmt::Debug for LightEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LightEpoch")
            .field("current", &self.current.load(Ordering::Relaxed))
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// Guard for a protected thread; drops protection when dropped.
pub struct EpochGuard<'a> {
    epoch: &'a LightEpoch,
    slot: usize,
}

impl LightEpoch {
    /// Create an epoch table with capacity for `max_threads` simultaneous
    /// participants.
    #[must_use]
    pub fn new(max_threads: usize) -> Self {
        let slots = (0..max_threads.max(1))
            .map(|_| Slot::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LightEpoch {
            current: AtomicU64::new(1),
            slots,
            drains: Mutex::new(Vec::new()),
            pending: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// The current global epoch.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Number of drain actions that have fired.
    #[must_use]
    pub fn drained_count(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Protect the calling thread in an unused slot; the returned guard keeps
    /// the protection alive. Also drains any ready actions.
    ///
    /// # Panics
    /// Panics if all slots are occupied — size the table for your thread
    /// count.
    pub fn protect(&self) -> EpochGuard<'_> {
        self.protect_hinted(0)
    }

    /// Like [`LightEpoch::protect`], but starts probing at `hint % slots`.
    ///
    /// Threads that pass a stable per-thread hint (e.g. an executor index)
    /// re-acquire "their" padded slot on every call, so the acquisition CAS
    /// stays on a core-local cache line instead of every thread fighting
    /// over the lowest free slots.
    ///
    /// # Panics
    /// Panics if all slots are occupied — size the table for your thread
    /// count.
    pub fn protect_hinted(&self, hint: usize) -> EpochGuard<'_> {
        let e = self.current.load(Ordering::Acquire);
        let n = self.slots.len();
        let start = hint % n;
        for off in 0..n {
            let i = (start + off) % n;
            let slot = &self.slots[i].0;
            // A reclaimer unlinks an object (SeqCst store), bumps, and
            // frees it once `safe_epoch` finds no older slot. This publish,
            // `refresh`'s and the scan's loads are SeqCst as well, so a
            // scan that misses this slot precedes it in the single order
            // of those accesses, and with it the unlinking store precedes
            // this thread's later SeqCst loads: they cannot return the
            // object the scan let go.
            if slot.load(Ordering::Relaxed) == UNPROTECTED
                && slot
                    .compare_exchange(UNPROTECTED, e, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                self.try_drain();
                return EpochGuard {
                    epoch: self,
                    slot: i,
                };
            }
        }
        panic!("LightEpoch: no free slot ({} threads)", self.slots.len());
    }

    /// Refresh an existing guard to the current epoch and drain ready
    /// actions. Threads in long-running loops call this periodically.
    pub fn refresh(&self, guard: &EpochGuard<'_>) {
        let e = self.current.load(Ordering::Acquire);
        self.slots[guard.slot].0.store(e, Ordering::SeqCst);
        self.try_drain();
    }

    /// Bump the global epoch and return the *new* epoch value.
    pub fn bump(&self) -> u64 {
        self.current.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Bump the global epoch and register `action` to run once every thread
    /// protected at the pre-bump epoch has moved on (i.e. the pre-bump epoch
    /// is safe). Returns the new epoch.
    pub fn bump_with(&self, action: impl FnOnce() + Send + 'static) -> u64 {
        let prior = self.current.fetch_add(1, Ordering::AcqRel);
        self.drains.lock().push(Drain {
            epoch: prior,
            action: Box::new(action),
        });
        self.pending.fetch_add(1, Ordering::Release);
        self.try_drain();
        prior + 1
    }

    /// Bump the global epoch and *wait* (bounded backoff) until every thread
    /// protected at the pre-bump epoch has released or refreshed — i.e. all
    /// writers that could still be mid-flight against pre-bump state are
    /// gone. Readers of that state can then proceed without ever having
    /// blocked the writers.
    pub fn quiesce(&self) {
        let target = self.bump();
        let mut backoff = crate::backoff::Backoff::new();
        while self.safe_epoch() < target - 1 {
            self.try_drain();
            backoff.snooze();
        }
    }

    /// The largest epoch `e` such that no thread is still protected at an
    /// epoch `<= e`.
    #[must_use]
    pub fn safe_epoch(&self) -> u64 {
        let mut min = self.current.load(Ordering::Acquire);
        for slot in self.slots.iter() {
            let v = slot.0.load(Ordering::SeqCst);
            if v != UNPROTECTED && v <= min {
                min = v - 1;
            }
        }
        min
    }

    /// Run any drain actions whose epoch is now safe.
    ///
    /// The common case — nothing registered — is a single relaxed load, so
    /// per-batch hot paths can call this unconditionally.
    pub fn try_drain(&self) {
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        let safe = self.safe_epoch();
        let mut ready = Vec::new();
        {
            let mut drains = self.drains.lock();
            let mut i = 0;
            while i < drains.len() {
                if drains[i].epoch <= safe {
                    ready.push(drains.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for d in ready {
            (d.action)();
            self.pending.fetch_sub(1, Ordering::Release);
            self.drained.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True if no thread is currently protected.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.0.load(Ordering::Acquire) == UNPROTECTED)
    }
}

impl EpochGuard<'_> {
    /// Refresh this guard's published epoch to the current global epoch.
    pub fn refresh(&self) {
        self.epoch.refresh(self);
    }

    /// Whether this guard was taken on `epoch`. A structure that defers
    /// reclamation to `epoch` checks this on the guards its callers pass
    /// as proof of protection.
    #[must_use]
    pub fn protects(&self, epoch: &LightEpoch) -> bool {
        std::ptr::eq(self.epoch, epoch)
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.epoch.slots[self.slot]
            .0
            .store(UNPROTECTED, Ordering::Release);
        self.epoch.try_drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn drain_fires_only_after_all_threads_pass() {
        let epoch = LightEpoch::new(4);
        let fired = Arc::new(AtomicBool::new(false));

        let g1 = epoch.protect();
        let g2 = epoch.protect();

        let f = fired.clone();
        epoch.bump_with(move || f.store(true, Ordering::SeqCst));
        assert!(!fired.load(Ordering::SeqCst), "g1/g2 still in old epoch");

        g1.refresh();
        epoch.try_drain();
        assert!(!fired.load(Ordering::SeqCst), "g2 still in old epoch");

        g2.refresh();
        epoch.try_drain();
        assert!(fired.load(Ordering::SeqCst), "all threads advanced");
    }

    #[test]
    fn drain_fires_on_drop() {
        let epoch = LightEpoch::new(2);
        let fired = Arc::new(AtomicBool::new(false));
        let g = epoch.protect();
        let f = fired.clone();
        epoch.bump_with(move || f.store(true, Ordering::SeqCst));
        assert!(!fired.load(Ordering::SeqCst));
        drop(g);
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn drain_fires_immediately_when_quiescent() {
        let epoch = LightEpoch::new(2);
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        epoch.bump_with(move || f.store(true, Ordering::SeqCst));
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn safe_epoch_tracks_min_protected() {
        let epoch = LightEpoch::new(4);
        let g = epoch.protect(); // protected at epoch 1
        epoch.bump(); // current = 2
        epoch.bump(); // current = 3
        assert_eq!(epoch.safe_epoch(), 0, "g pins epoch 1");
        g.refresh(); // now at 3
        assert_eq!(epoch.safe_epoch(), 2);
        drop(g);
        assert_eq!(epoch.safe_epoch(), 3);
    }

    #[test]
    fn hinted_protect_prefers_the_hinted_slot() {
        let epoch = LightEpoch::new(8);
        let g = epoch.protect_hinted(5);
        assert_eq!(g.slot, 5);
        // Occupied hint probes onward (wrapping).
        let g2 = epoch.protect_hinted(5);
        assert_eq!(g2.slot, 6);
        let g3 = epoch.protect_hinted(7);
        assert_eq!(g3.slot, 7);
        let g4 = epoch.protect_hinted(7);
        assert_eq!(g4.slot, 0, "wraps past the end");
    }

    #[test]
    fn quiesce_waits_for_inflight_guards() {
        let epoch = Arc::new(LightEpoch::new(4));
        let release = Arc::new(AtomicBool::new(false));
        let ep = epoch.clone();
        let rel = release.clone();
        let writer = std::thread::spawn(move || {
            let g = ep.protect();
            while !rel.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            drop(g);
        });
        // Give the writer time to protect, then ask it to release shortly
        // after quiesce starts waiting.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ep = epoch.clone();
        let waiter = std::thread::spawn(move || ep.quiesce());
        std::thread::sleep(std::time::Duration::from_millis(10));
        release.store(true, Ordering::Release);
        writer.join().unwrap();
        waiter.join().unwrap();
        assert!(epoch.quiescent());
    }

    #[test]
    fn concurrent_protect_refresh() {
        let epoch = Arc::new(LightEpoch::new(32));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ep = epoch.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let g = ep.protect();
                    g.refresh();
                    drop(g);
                }
            }));
        }
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = counter.clone();
            epoch.bump_with(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        for h in handles {
            h.join().unwrap();
        }
        epoch.try_drain();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        assert_eq!(epoch.drained_count(), 50);
    }
}
