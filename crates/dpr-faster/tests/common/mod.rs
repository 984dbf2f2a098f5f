//! What the store's concurrency tests share.

use dpr_faster::FasterKv;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The store's owner, as a cluster shard's loop is: a thread that calls
/// [`FasterKv::maintain`] every 200 µs until dropped. It holds the store, so
/// a test drops it before it drops the store to crash it.
pub struct Maintainer(Arc<AtomicBool>, Option<JoinHandle<()>>);

impl Maintainer {
    pub fn start(kv: &Arc<FasterKv>) -> Maintainer {
        let (kv, stop) = (Arc::clone(kv), Arc::new(AtomicBool::new(false)));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Acquire) {
                kv.maintain();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        Maintainer(stop, Some(thread))
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
        let joined = self.1.take().is_none_or(|thread| thread.join().is_ok());
        // No second panic in a test that unwinds already.
        assert!(
            joined || std::thread::panicking(),
            "the maintainer panicked"
        );
    }
}
