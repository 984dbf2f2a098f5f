//! Observation tap for online invariant checking.
//!
//! The chaos harness (`dpr-chaos`) needs to see the *inputs* of the
//! cut-finding service — every commit report with its dependency set, and
//! every cut the finder publishes — to maintain its own shadow precedence
//! graph and assert Definition 3.1's properties (downward closure, cut
//! monotonicity, prefix recoverability) independently of the finder under
//! test. Polling the metadata store alone cannot reconstruct dependency
//! sets (the approximate and hybrid finders discard or keep them only in
//! memory), so the finders feed this process-global sink directly.
//!
//! The tap is disabled by default and costs one relaxed atomic load per
//! report while off; it is not a general-purpose event bus — install a
//! sink only for checking/debugging, never on a measured benchmark path.

use dpr_core::Token;
use dpr_metadata::Cut;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Receiver of finder observations. Implementations must be cheap and
/// non-blocking: calls happen on the finder's commit-report path.
pub trait AuditSink: Send + Sync {
    /// A shard reported `token` locally committed with `deps` as its
    /// cross-shard dependency set.
    fn commit_reported(&self, token: Token, deps: &[Token]);
    /// The finder published `cut` to the metadata store (after a
    /// successful `update_cut_atomically`).
    fn cut_published(&self, cut: &Cut);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn AuditSink>>> = RwLock::new(None);

/// Install the process-global audit sink (replacing any previous one).
pub fn install(sink: Arc<dyn AuditSink>) {
    *SINK.write().unwrap() = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the audit sink; subsequent finder activity is unobserved.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *SINK.write().unwrap() = None;
}

/// Whether a sink is installed (guards loops over batched reports).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

#[inline]
pub(crate) fn commit_reported(token: Token, deps: &[Token]) {
    if enabled() {
        if let Some(sink) = SINK.read().unwrap().clone() {
            sink.commit_reported(token, deps);
        }
    }
}

#[inline]
pub(crate) fn cut_published(cut: &Cut) {
    if enabled() {
        if let Some(sink) = SINK.read().unwrap().clone() {
            sink.cut_published(cut);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_core::{ShardId, Version};
    use std::sync::Mutex;

    struct Recorder {
        commits: Mutex<Vec<Token>>,
        cuts: Mutex<Vec<Cut>>,
    }

    impl AuditSink for Recorder {
        fn commit_reported(&self, token: Token, _deps: &[Token]) {
            self.commits.lock().unwrap().push(token);
        }
        fn cut_published(&self, cut: &Cut) {
            self.cuts.lock().unwrap().push(cut.clone());
        }
    }

    #[test]
    fn sink_sees_reports_only_while_installed() {
        let rec = Arc::new(Recorder {
            commits: Mutex::new(Vec::new()),
            cuts: Mutex::new(Vec::new()),
        });
        let token = Token::new(ShardId(0), Version(1));
        commit_reported(token, &[]);
        assert!(rec.commits.lock().unwrap().is_empty(), "not yet installed");
        install(rec.clone());
        assert!(enabled());
        commit_reported(token, &[]);
        cut_published(&Cut::from([(ShardId(0), Version(1))]));
        uninstall();
        commit_reported(token, &[]);
        assert_eq!(rec.commits.lock().unwrap().len(), 1);
        assert_eq!(rec.cuts.lock().unwrap().len(), 1);
        assert!(!enabled());
    }
}
