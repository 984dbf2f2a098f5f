//! The worker-side lease on the published cut.
//!
//! A `CutReq` is answered on an I/O thread, and reading the cut and the
//! world-line from the metadata store costs two statements, each with the
//! store's injected round trip. [`CutLease`] bounds that to one read per TTL
//! per worker however many clients poll, and bounds what its staleness can
//! do with a world-line fence (`docs/PROTOCOL.md` §11): a cached cut is
//! served only while its world-line is the worker's, and recovery drops it
//! outright, so a rolled-back worker never hands out a cut of the abandoned
//! world-line, even within the TTL.

use dpr_core::{Result, WorldLine};
use dpr_metadata::Cut;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World-line-fenced, TTL-bounded cache of `(world_line, cut)`.
pub struct CutLease {
    ttl: Duration,
    inner: Mutex<CutLeaseState>,
}

#[derive(Default)]
struct CutLeaseState {
    at: Option<Instant>,
    value: Option<Arc<(WorldLine, Cut)>>,
}

impl CutLease {
    /// An empty lease with the given TTL.
    #[must_use]
    pub fn new(ttl: Duration) -> Self {
        CutLease {
            ttl,
            inner: Mutex::new(CutLeaseState::default()),
        }
    }

    /// Serve the cached value while it is within the TTL **and** on the
    /// caller's world-line `fence`; otherwise fetch, cache, and serve
    /// fresh. A fetched value from a different world-line (recovery racing
    /// the read) is served but never satisfies the fence, so every read
    /// during the transition sees the latest truth.
    pub fn get(
        &self,
        fence: WorldLine,
        fetch: impl FnOnce() -> Result<(WorldLine, Cut)>,
    ) -> Result<Arc<(WorldLine, Cut)>> {
        let mut s = self.inner.lock();
        let fresh = s.at.is_some_and(|at| at.elapsed() < self.ttl)
            && s.value.as_ref().is_some_and(|v| v.0 == fence);
        if !fresh {
            let value = Arc::new(fetch()?);
            s.at = Some(Instant::now());
            s.value = Some(value);
        }
        Ok(s.value.as_ref().expect("filled above").clone())
    }

    /// Drop the cached value (recovery rolled the world-line).
    pub fn invalidate(&self) {
        let mut s = self.inner.lock();
        s.at = None;
        s.value = None;
        crate::metrics::lease_invalidations().inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::{DprError, ShardId, Version};

    #[test]
    fn cut_lease_serves_within_ttl_and_fences_on_world_line() {
        let lease = CutLease::new(Duration::from_secs(60));
        let fetches = std::cell::Cell::new(0u32);
        let fetch = |wl: u64, v: u64| {
            fetches.set(fetches.get() + 1);
            Ok::<_, DprError>((WorldLine(wl), Cut::from([(ShardId(0), Version(v))])))
        };
        let a = lease.get(WorldLine(0), || fetch(0, 1)).unwrap();
        assert_eq!(a.1[&ShardId(0)], Version(1));
        // Within TTL + same world-line: served from cache.
        let b = lease.get(WorldLine(0), || fetch(0, 2)).unwrap();
        assert_eq!(b.1[&ShardId(0)], Version(1));
        assert_eq!(fetches.get(), 1);
        // World-line fence: the cached value is from world-line 0, the
        // caller is on 1 → refetch despite the TTL.
        let c = lease.get(WorldLine(1), || fetch(1, 5)).unwrap();
        assert_eq!(c.0, WorldLine(1));
        assert_eq!(fetches.get(), 2);
        // Invalidation drops the cache entirely.
        lease.invalidate();
        let d = lease.get(WorldLine(1), || fetch(1, 9)).unwrap();
        assert_eq!(d.1[&ShardId(0)], Version(9));
        assert_eq!(fetches.get(), 3);
    }
}
