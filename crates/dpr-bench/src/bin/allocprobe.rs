//! Allocation attribution probe for the server-side request path.
//!
//! Runs the worker execute path (validate → store batch → gate record)
//! in-process under a per-thread counting allocator and prints allocations
//! per batch for read-only and write batches. This isolates the request
//! path from background pump/finder threads, which the benchmark's
//! process-wide `net.server_allocs_per_op` cannot do.
//!
//! Diagnostic only — not part of the benchmark suite or the CI gate.

use dpr_cluster::{Cluster, ClusterConfig, ClusterOp, OpResult};
use dpr_core::{Key, SessionId, Value};
use libdpr::BatchHeader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static GLOBAL_ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

struct CountingAlloc;

fn count_one() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    GLOBAL_ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with its arguments untouched;
// the counting touches a const-initialised thread-local and an atomic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

const BATCH: u64 = 8;
const KEYS: u64 = 10_000;

fn run_case(cluster: &Cluster, write: bool, rounds: u64) -> f64 {
    let worker = &cluster.workers()[0];
    let session = SessionId(if write { 71 } else { 72 });
    let mut results: Vec<OpResult> = Vec::with_capacity(BATCH as usize);
    let mut ops: Vec<ClusterOp> = Vec::with_capacity(BATCH as usize);
    let mut serial = 0u64;

    let mut cycle = |measure: bool, rounds: u64| -> u64 {
        let before = my_allocs();
        for r in 0..rounds {
            ops.clear();
            for i in 0..BATCH {
                let key = Key::from_u64((r * BATCH + i * 7919) % KEYS);
                ops.push(if write {
                    ClusterOp::Upsert(key, Value::from_u64(r))
                } else {
                    ClusterOp::Read(key)
                });
            }
            let header = BatchHeader {
                session,
                world_line: worker.world_line(),
                version_lower_bound: dpr_core::Version(1),
                deps: Vec::new(),
                first_serial: serial,
                acked_below: serial,
                op_count: BATCH as u32,
            };
            serial += BATCH;
            results.clear();
            let _ = worker.execute_local_into(&header, &ops, &mut results);
        }
        if measure {
            my_allocs() - before
        } else {
            0
        }
    };

    cycle(false, 256); // warm-up
    let allocated = cycle(true, rounds);
    allocated as f64 / rounds as f64
}

fn main() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 1,
        checkpoint_interval: Some(Duration::from_millis(10)),
        finder_interval: Duration::from_millis(2),
        dedupe_window: 4096,
        ..ClusterConfig::default()
    })
    .unwrap();

    let rounds = 4096;
    // Writes first so the read case measures reads of *present* keys (an
    // empty-store read is an index miss and trivially allocation-free).
    for (label, write) in [("write", true), ("read ", false)] {
        let per_batch = run_case(&cluster, write, rounds);
        println!(
            "server {label}  allocs/batch={per_batch:.3}  allocs/op={:.3}",
            per_batch / BATCH as f64
        );
    }

    // Client side: drive a PipelinedClient against an in-process NetServer
    // from this thread; the per-thread counter sees only the client path.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = dpr_cluster::NetServer::start(
        cluster.workers().to_vec(),
        listener,
        dpr_cluster::NetServerConfig { io_threads: 1 },
    )
    .unwrap();
    let addr = server.local_addr();
    let shard = cluster.workers()[0].shard();
    let mut client =
        dpr_cluster::PipelinedClient::connect(libdpr::DprClientSession::new(SessionId(99)), addr)
            .unwrap();

    let mut cycle = |measure: bool, rounds: u64, write: bool| -> u64 {
        let mut ops: Vec<ClusterOp> = Vec::with_capacity(BATCH as usize);
        let before = my_allocs();
        for r in 0..rounds {
            ops.clear();
            for i in 0..BATCH {
                let key = Key::from_u64((r * BATCH + i * 7919) % KEYS);
                ops.push(if write {
                    ClusterOp::Upsert(key, Value::from_u64(r))
                } else {
                    ClusterOp::Read(key)
                });
            }
            client.issue(shard, &ops).unwrap();
            while client.inflight() > 0 {
                client
                    .poll_each(Duration::from_millis(1), |done| {
                        std::hint::black_box(done.result.is_ok());
                    })
                    .unwrap();
            }
        }
        if measure {
            my_allocs() - before
        } else {
            0
        }
    };
    for (label, write) in [("read ", false), ("write", true)] {
        cycle(false, 512, write);
        let global_before = GLOBAL_ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
        let mine = cycle(true, rounds, write);
        let others =
            GLOBAL_ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - global_before - mine;
        let per_batch = mine as f64 / rounds as f64;
        // `others` covers the server I/O thread plus cluster background
        // (checkpoint/finder); with short intervals the background share is
        // a few percent of a saturated run.
        println!(
            "client {label}  allocs/batch={per_batch:.3}  allocs/op={:.3}  server-side/batch={:.3}",
            per_batch / BATCH as f64,
            others as f64 / rounds as f64
        );
    }

    // Aging probe: does the *idle* background allocation rate (checkpoint,
    // finder, flush machinery) grow with accumulated store state? Measure
    // idle rate, churn a large batch of writes through, measure again.
    let idle_rate = || {
        let before = GLOBAL_ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(500));
        (GLOBAL_ALLOCS.load(std::sync::atomic::Ordering::Relaxed) - before) * 2
    };
    println!("idle allocs/sec (fresh): {}", idle_rate());
    run_case(&cluster, true, 65_536);
    println!("idle allocs/sec (aged):  {}", idle_rate());

    server.shutdown();
    cluster.shutdown();
}
