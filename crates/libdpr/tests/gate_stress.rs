//! Concurrency stress for the server-side gate (§6).
//!
//! N executor threads enter the gate, execute in the current version and
//! record the batch's dependencies — with a stall between executing and
//! recording — while a sealer thread seals versions CPR-style (announce the
//! version bump, wait for batches *executing* in the sealed version to
//! return, then expose the commit descriptor) and a pump thread drains
//! commits to an exact finder. Afterwards we assert the properties the gate
//! must preserve:
//!
//! * **Exactly-once reporting** — every sealed version is reported to the
//!   finder exactly once, in order.
//! * **Exact attribution** — the report of version `v` carries, per
//!   dependent shard, exactly the largest dependency recorded by a batch
//!   that executed in `v`: none dropped (any cut admitting `v` enforces
//!   every dependency of `v`), none recorded at an executed version above
//!   its token (the reported graph stays monotone, §3.2), and a writer that
//!   executes, stalls, then records is never overtaken by the report of its
//!   version. The full precedence graph plus the final cut satisfy
//!   [`libdpr::finder::cut_is_closed`].
//!
//! The whole binary runs under a per-thread counting allocator, for the
//! claim that a steady-state `record_batch` allocates nothing.

use dpr_core::{Result, Rng, SessionId, ShardId, Token, Version, WorldLine};
use dpr_metadata::{MetadataStore, PartitionedSqlStore};
use libdpr::finder::cut_is_closed;
use libdpr::{BatchHeader, CommitDescriptor, DprFinder, DprServer, ExactFinder, StateObject};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Per-thread counting allocator (as in `dpr-cluster/tests/zero_copy_codec.rs`):
/// each test thread reads only its own counter.
struct CountingAlloc;

// SAFETY: delegates to `System`; the only addition is a const-initialized
// thread-local counter bump (no lazy TLS init, so no recursive allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

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
    /// Set once a pump has taken a descriptor (it is then bound to report
    /// that version).
    taken: AtomicBool,
}

impl StressSo {
    fn new() -> Self {
        StressSo {
            current: AtomicU64::new(1),
            durable: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            taken: AtomicBool::new(false),
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
        let commits = std::mem::take(&mut *self.pending.lock().unwrap());
        if !commits.is_empty() {
            self.taken.store(true, Ordering::SeqCst);
        }
        commits
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
    fn report_commits(&self, reports: Vec<(Token, Vec<Token>)>) -> Result<()> {
        self.reports.lock().unwrap().extend(reports.clone());
        self.inner.report_commits(reports)
    }
    fn refresh(&self) -> Result<()> {
        self.inner.refresh()
    }
    fn published(&self) -> Option<Arc<(WorldLine, dpr_metadata::Cut)>> {
        self.inner.published()
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
        acked_below: 0,
        op_count: 1,
    }
}

/// Seal one version CPR-style: announce the bump, wait until no writer is
/// still executing in the sealed version, then expose the descriptor. Like
/// the store, it waits for execution only: a writer between executing and
/// recording is the gate's to wait for.
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
    so.pending.lock().unwrap().push(CommitDescriptor {
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
            let mut rng = Rng::new(w as u64);
            for i in 0..BATCHES_PER_WRITER {
                // In the gate from before the batch executes (the worker's
                // rule). Publish the executed version, then re-read (Dekker
                // with the sealer's bump-then-check) so a version is never
                // sealed with this batch still executing in it.
                let gate = server.enter();
                let mut e = so.current.load(Ordering::SeqCst);
                inflight[w].store(e, Ordering::SeqCst);
                e = so.current.load(Ordering::SeqCst);
                inflight[w].store(e, Ordering::SeqCst);
                let dep_shard = ShardId(1 + rng.below(u64::from(DEP_SHARDS)) as u32);
                // Version-clock monotone: deps stay at or below the
                // executing version (§3.2).
                let dep_version = Version(rng.range(1, e + 1));
                let dep = Token::new(dep_shard, dep_version);
                // Execution is over; the version may be sealed and its
                // descriptor taken while this writer stalls before
                // recording.
                inflight[w].store(IDLE, Ordering::SeqCst);
                if i % 64 == 0 {
                    // Longer than the sealer's and the pump's periods.
                    std::thread::sleep(Duration::from_micros(300));
                } else if i % 8 == 0 {
                    std::thread::yield_now();
                }
                gate.record(&header(vec![dep]), Version(e));
                truth.push((dep, e));
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

    // Exact attribution: the report of `v` is the max-per-shard merge of
    // what executed in `v` — nothing dropped, nothing from a later version.
    let reports = finder.reports.lock().unwrap().clone();
    assert_eq!(truth.len(), WRITERS * BATCHES_PER_WRITER);
    let mut expected: BTreeMap<u64, BTreeMap<ShardId, Version>> = BTreeMap::new();
    for &(dep, e) in &truth {
        let m = expected.entry(e).or_default().entry(dep.shard).or_default();
        *m = (*m).max(dep.version);
    }
    for (token, deps) in &reports {
        let reported: BTreeMap<ShardId, Version> =
            deps.iter().map(|d| (d.shard, d.version)).collect();
        assert_eq!(reported.len(), deps.len(), "one token per dependent shard");
        assert_eq!(
            reported,
            expected.remove(&token.version.0).unwrap_or_default(),
            "report of v{} is not what executed in it",
            token.version.0
        );
    }
    assert!(
        expected.is_empty(),
        "versions with dependencies never reported"
    );

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
    let cut = finder.current_cut();
    assert!(cut_is_closed(&graph, &cut), "published cut not closed");
    assert_eq!(
        cut[&ShardId(0)],
        Version(sealed_up_to),
        "cut admits every reported version once deps committed"
    );
}

/// A writer executes in a version and stalls; the version is sealed, the
/// pump takes its descriptor, and only then does the writer record. The
/// pump waits for it instead of reporting the version bare.
#[test]
fn stalled_writer_is_not_overtaken_by_its_versions_report() {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    meta.register_worker(ShardId(0)).unwrap();
    meta.register_worker(ShardId(1)).unwrap();
    let finder = CapturingFinder {
        inner: ExactFinder::new(meta),
        reports: Mutex::new(Vec::new()),
    };
    let server = Arc::new(DprServer::new(ShardId(0)));
    let so = Arc::new(StressSo::new());
    let executed = Arc::new(AtomicBool::new(false));
    let dep = Token::new(ShardId(1), Version(1));

    let writer = {
        let (server, so, executed) = (server.clone(), so.clone(), executed.clone());
        std::thread::spawn(move || {
            let gate = server.enter();
            let e = so.current_version();
            executed.store(true, Ordering::SeqCst);
            // Stall until the pump is past `take_commits` with this version.
            while !so.taken.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            gate.record(&header(vec![dep]), e);
        })
    };
    while !executed.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // The batch has executed: the store may seal its version.
    assert_eq!(seal_one(&so, &[]), 1);
    let reported = server.pump_commits(so.as_ref(), &finder).unwrap();
    writer.join().unwrap();
    assert_eq!(reported, vec![Version(1)]);
    assert_eq!(
        *finder.reports.lock().unwrap(),
        vec![(Token::new(ShardId(0), Version(1)), vec![dep])]
    );
}

/// `record_batch` is allocation-free once the table has grown to its
/// working size: 10,000 calls over three versions (two version changes),
/// the sealed ones pumped in between so the table's entries are taken and
/// made again in the capacity the drain left.
#[test]
fn steady_state_record_allocates_nothing() {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    meta.register_worker(ShardId(0)).unwrap();
    let finder = ExactFinder::new(meta);
    let server = DprServer::new(ShardId(0));
    let so = StressSo::new();
    let headers: Vec<BatchHeader> = (0..8u64)
        .map(|i| {
            header(
                (1..=DEP_SHARDS)
                    .map(|s| Token::new(ShardId(s), Version(1 + i)))
                    .collect(),
            )
        })
        .collect();
    // Warm up: the table's capacity for one version's entries.
    server.record_batch(&headers[0], Version(1));
    let mut allocs = 0;
    for round in 0..3 {
        let version = so.current_version();
        let before = my_allocs();
        for i in 0..3_334 {
            server.record_batch(&headers[i % headers.len()], version);
        }
        allocs += my_allocs() - before;
        if round < 2 {
            seal_one(&so, &[]);
            assert_eq!(server.pump_commits(&so, &finder).unwrap(), vec![version]);
        }
    }
    assert_eq!(
        allocs, 0,
        "10,002 steady-state records allocated {allocs} times"
    );
    assert_eq!(
        server.pending_deps().len(),
        1,
        "only the open version is left"
    );
}
