//! Regression tests for the `report_commits` ↔ `refresh` race.
//!
//! The pre-delta-engine finders snapshotted the in-memory precedence graph
//! at the top of `refresh`, computed the cut, and then *rebuilt* the graph
//! from the snapshot's survivors — so any commit reported between the
//! snapshot and the rebuild was silently dropped from the in-memory graph.
//! A lost report either stalls the cut (its shard never advances) or, for
//! the hybrid finder, lets the approximate floor drag the cut past a token
//! whose dependencies were never admitted, breaking downward closure.
//!
//! The delta engine closes the window structurally: racing reports land in
//! a separately-locked mailbox and are drained into the working graph at
//! the start of the next compute pass, while `commit` (the prune after a
//! successful publish) only ever touches tokens that participated in a
//! pass. These tests race real reporter threads against a refresher thread
//! and assert, through the audit tap, that every published cut is closed
//! over the union of all reported edges and that no report is ever lost.

use dpr_core::{ShardId, Token, Version};
use dpr_metadata::{Cut, MetadataStore, PartitionedSqlStore};
use libdpr::audit::{self, AuditSink};
use libdpr::finder::cut_is_closed;
use libdpr::{DprFinder, ExactFinder, HybridFinder};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The audit sink is process-global; serialize the tests that install one.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

/// Shadow of everything the finder was told and everything it published.
#[derive(Default)]
struct Shadow {
    graph: Mutex<BTreeMap<Token, Vec<Token>>>,
    cuts: Mutex<Vec<Cut>>,
}

impl AuditSink for Shadow {
    fn commit_reported(&self, token: Token, deps: &[Token]) {
        self.graph.lock().insert(token, deps.to_vec());
    }
    fn cut_published(&self, cut: &Cut) {
        self.cuts.lock().push(cut.clone());
    }
}

const SHARDS: u32 = 4;
const VERSIONS_PER_SHARD: u64 = 300;

/// Drive one reporter thread per shard (in-order, monotone version clock,
/// cross-shard deps ≤ own version — what §3.2 guarantees) against a
/// refresher thread calling `refresh` as fast as it can.
///
/// With per-shard in-order reporting, closure over the *final* union of
/// edges is the right invariant for every intermediate cut: a cut can only
/// cover versions already reported on each shard, and later reports carry
/// strictly higher versions, so no late edge can invalidate an earlier
/// published cut — unless a report was dropped.
fn race(finder: Arc<dyn DprFinder>) {
    let _serial = AUDIT_LOCK.lock();
    let shadow = Arc::new(Shadow::default());
    audit::install(shadow.clone());

    let reporters: Vec<_> = (0..SHARDS)
        .map(|s| {
            let f = finder.clone();
            std::thread::spawn(move || {
                let mut rng: u64 = 0x9E37_79B9 ^ u64::from(s);
                for v in 1..=VERSIONS_PER_SHARD {
                    // Cheap xorshift for dep fan-out; deps stay ≤ v.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let deps: Vec<Token> = (0..SHARDS)
                        .filter(|d| *d != s && (rng >> d) & 1 == 1)
                        .map(|d| Token::new(ShardId(d), Version(rng % v + 1)))
                        .collect();
                    let token = Token::new(ShardId(s), Version(v));
                    if v % 3 == 0 {
                        f.report_commits(vec![(token, deps)]).unwrap();
                    } else {
                        f.report_commit(token, deps).unwrap();
                    }
                }
            })
        })
        .collect();
    let refresher = {
        let f = finder.clone();
        std::thread::spawn(move || loop {
            f.refresh().unwrap();
            let cut = f.current_cut();
            if (0..SHARDS)
                .all(|s| cut.get(&ShardId(s)).copied() >= Some(Version(VERSIONS_PER_SHARD)))
            {
                return;
            }
            std::thread::yield_now();
        })
    };
    for r in reporters {
        r.join().unwrap();
    }
    refresher.join().unwrap();
    audit::uninstall();

    let union = shadow.graph.lock();
    let cuts = shadow.cuts.lock();
    assert_eq!(
        union.len(),
        (SHARDS as usize) * (VERSIONS_PER_SHARD as usize),
        "audit tap missed reports"
    );
    assert!(!cuts.is_empty(), "refresher never published a cut");
    for cut in cuts.iter() {
        assert!(
            cut_is_closed(&union, cut),
            "published cut {cut:?} not closed over the union of reported edges"
        );
    }
    // No lost reports: the refresher only exits once the cut covers every
    // reported version on every shard, so reaching here already proves
    // progress; assert it explicitly on the last published cut anyway.
    let last = cuts.last().unwrap();
    for s in 0..SHARDS {
        assert_eq!(
            last.get(&ShardId(s)).copied(),
            Some(Version(VERSIONS_PER_SHARD)),
            "shard {s}: a racing report was dropped"
        );
    }
}

fn meta() -> Arc<PartitionedSqlStore> {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    for s in 0..SHARDS {
        meta.register_worker(ShardId(s)).unwrap();
    }
    meta
}

#[test]
fn hybrid_refresh_never_drops_racing_reports() {
    race(Arc::new(HybridFinder::new(meta())));
}

#[test]
fn exact_refresh_never_drops_racing_reports() {
    race(Arc::new(ExactFinder::new(meta())));
}
