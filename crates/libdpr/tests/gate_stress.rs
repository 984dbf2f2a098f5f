//! Concurrency stress for the striped server-side gate (§6).
//!
//! N executor threads hammer `record_batch` while a sealer thread seals
//! versions CPR-style (announce the version bump, wait for in-flight
//! batches to land, then expose the commit descriptor) and a pump thread
//! drains commits to an exact finder. Afterwards we assert the two
//! properties the lock-free rewrite must preserve:
//!
//! * **Exactly-once reporting** — every sealed version is reported to the
//!   finder exactly once, in order.
//! * **No dependency dropped** — for every dependency recorded at executed
//!   version `e`, some report with token version ≤ `e` carries that shard at
//!   an equal-or-larger version (max-per-shard compression may merge deps,
//!   never lose them), so any cut admitting `e` still enforces the
//!   dependency; and the full precedence graph plus the final cut satisfy
//!   [`libdpr::finder::cut_is_closed`].

use dpr_core::{Result, SessionId, ShardId, Token, Version, WorldLine};
use dpr_metadata::{MetadataStore, PartitionedSqlStore};
use libdpr::finder::cut_is_closed;
use libdpr::{BatchHeader, CommitDescriptor, DprFinder, DprServer, ExactFinder, StateObject};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 8;
const BATCHES_PER_WRITER: usize = 2_000;
const DEP_SHARDS: u32 = 4;
/// In-flight slot value meaning "not executing a batch".
const IDLE: u64 = u64::MAX;

/// StateObject whose versions are sealed externally by the test's sealer.
struct StressSo {
    current: AtomicU64,
    durable: AtomicU64,
    pending: Mutex<Vec<CommitDescriptor>>,
}

impl StressSo {
    fn new() -> Self {
        StressSo {
            current: AtomicU64::new(1),
            durable: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }
}

impl StateObject for StressSo {
    fn shard(&self) -> ShardId {
        ShardId(0)
    }
    fn current_version(&self) -> Version {
        Version(self.current.load(Ordering::SeqCst))
    }
    fn durable_version(&self) -> Version {
        Version(self.durable.load(Ordering::SeqCst))
    }
    fn request_commit(&self, _target: Option<Version>) -> bool {
        false // sealing is driven by the sealer thread
    }
    fn take_commits(&self) -> Vec<CommitDescriptor> {
        std::mem::take(&mut *self.pending.lock())
    }
    fn restore(&self, version: Version) -> Result<()> {
        self.durable.store(version.0, Ordering::SeqCst);
        self.current.store(version.0 + 1, Ordering::SeqCst);
        Ok(())
    }
}

/// Forwards to an inner finder while capturing every report.
struct CapturingFinder {
    inner: ExactFinder,
    reports: Mutex<Vec<(Token, Vec<Token>)>>,
}

impl DprFinder for CapturingFinder {
    fn report_commit(&self, token: Token, deps: Vec<Token>) -> Result<()> {
        self.reports.lock().push((token, deps.clone()));
        self.inner.report_commit(token, deps)
    }
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        self.reports.lock().extend(reports.clone());
        self.inner.report_commits(reports)
    }
    fn refresh(&self) -> Result<()> {
        self.inner.refresh()
    }
    fn current_cut(&self) -> Result<dpr_metadata::Cut> {
        self.inner.current_cut()
    }
    fn max_version(&self) -> Result<Version> {
        self.inner.max_version()
    }
}

fn header(deps: Vec<Token>) -> BatchHeader {
    BatchHeader {
        session: SessionId(7),
        world_line: WorldLine(0),
        version_lower_bound: Version::ZERO,
        deps,
        first_serial: 0,
        op_count: 1,
    }
}

/// Seal one version CPR-style: announce the bump, wait until no writer is
/// still executing in the sealed version, then expose the descriptor.
fn seal_one(so: &StressSo, inflight: &[AtomicU64]) -> u64 {
    let sealed = so.current.fetch_add(1, Ordering::SeqCst);
    for slot in inflight {
        while {
            let v = slot.load(Ordering::SeqCst);
            v != IDLE && v <= sealed
        } {
            // Single-core friendly: the straggling writer needs the CPU.
            std::thread::yield_now();
        }
    }
    so.pending.lock().push(CommitDescriptor {
        version: Version(sealed),
    });
    sealed
}

#[test]
fn concurrent_record_and_pump_lose_nothing() {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    meta.register_worker(ShardId(0)).unwrap();
    for s in 1..=DEP_SHARDS {
        meta.register_worker(ShardId(s)).unwrap();
    }
    let finder = Arc::new(CapturingFinder {
        inner: ExactFinder::new(meta.clone()),
        reports: Mutex::new(Vec::new()),
    });
    let server = Arc::new(DprServer::new(ShardId(0)));
    let so = Arc::new(StressSo::new());
    let inflight: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(IDLE)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: record batches with random-ish deps, tracking ground truth.
    let mut writer_handles = Vec::new();
    for w in 0..WRITERS {
        let server = server.clone();
        let so = so.clone();
        let inflight = inflight.clone();
        writer_handles.push(std::thread::spawn(move || {
            let mut truth: Vec<(Token, u64)> = Vec::with_capacity(BATCHES_PER_WRITER);
            let mut rng = (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..BATCHES_PER_WRITER {
                // Publish the executed version, then re-read (Dekker with the
                // sealer's bump-then-check) so a version is never sealed with
                // this batch still unrecorded.
                let mut e = so.current.load(Ordering::SeqCst);
                inflight[w].store(e, Ordering::SeqCst);
                e = so.current.load(Ordering::SeqCst);
                inflight[w].store(e, Ordering::SeqCst);
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dep_shard = ShardId(1 + (rng >> 33) as u32 % DEP_SHARDS);
                // Version-clock monotone: deps stay at or below the
                // executing version (§3.2).
                let dep_version = Version(1 + (rng >> 13) % e);
                let dep = Token::new(dep_shard, dep_version);
                server.record_batch(&header(vec![dep]), Version(e));
                truth.push((dep, e));
                inflight[w].store(IDLE, Ordering::SeqCst);
            }
            truth
        }));
    }

    // Sealer: seal versions as fast as writers allow.
    let sealer = {
        let so = so.clone();
        let inflight = inflight.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                seal_one(&so, &inflight);
                // Pace sealing so the version count stays test-sized.
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Pump: drain commits concurrently with everything else.
    let pump = {
        let server = server.clone();
        let so = so.clone();
        let finder = finder.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut reported: Vec<Version> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                reported.extend(server.pump_commits(so.as_ref(), finder.as_ref()).unwrap());
                std::thread::sleep(Duration::from_micros(200));
            }
            reported
        })
    };

    let truth: Vec<(Token, u64)> = writer_handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    stop.store(true, Ordering::Release);
    sealer.join().unwrap();
    let mut reported = pump.join().unwrap();

    // Seal every version batches executed in, then drain the tail.
    let max_executed = truth.iter().map(|&(_, e)| e).max().unwrap();
    while seal_one(&so, &inflight) < max_executed {}
    reported.extend(server.pump_commits(so.as_ref(), finder.as_ref()).unwrap());

    // Exactly-once, in-order reporting of every sealed version.
    let sealed_up_to = reported.iter().max().unwrap().0;
    assert!(sealed_up_to >= max_executed);
    let expected: Vec<Version> = (1..=sealed_up_to).map(Version).collect();
    assert_eq!(reported, expected, "every version reported exactly once");

    // No dependency dropped: each recorded dep is covered by a report at or
    // below its executed version with an equal-or-larger dep version.
    let reports = finder.reports.lock().clone();
    assert_eq!(truth.len(), WRITERS * BATCHES_PER_WRITER);
    for &(dep, e) in &truth {
        let covered = reports.iter().any(|(token, deps)| {
            token.version.0 <= e
                && deps
                    .iter()
                    .any(|d| d.shard == dep.shard && d.version >= dep.version)
        });
        assert!(covered, "dep {dep:?} recorded at v{e} lost by the gate");
    }

    // Let the dependent shards commit what shard 0 depends on, then check
    // the published cut is dependency-closed over the full reported graph
    // and admits everything.
    let mut dep_max: BTreeMap<ShardId, Version> = BTreeMap::new();
    for (_, deps) in &reports {
        for d in deps {
            let m = dep_max.entry(d.shard).or_insert(Version::ZERO);
            *m = (*m).max(d.version);
        }
    }
    let mut graph: BTreeMap<Token, Vec<Token>> = BTreeMap::new();
    for (token, deps) in &reports {
        graph.insert(*token, deps.clone());
    }
    for (&shard, &v) in &dep_max {
        finder.report_commit(Token::new(shard, v), vec![]).unwrap();
        graph.insert(Token::new(shard, v), vec![]);
    }
    finder.refresh().unwrap();
    let cut = finder.current_cut().unwrap();
    assert!(cut_is_closed(&graph, &cut), "published cut not closed");
    assert_eq!(
        cut[&ShardId(0)],
        Version(sealed_up_to),
        "cut admits every reported version once deps committed"
    );
}
