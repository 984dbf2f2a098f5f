//! Allocation *attribution* probe: samples a backtrace on every Nth heap
//! allocation while driving `net_sat`-shaped traffic in-process, then prints
//! the top allocating stacks for an early ("fresh") and a late ("aged")
//! window. Built to chase allocation rates that grow with accumulated
//! store state, which a plain counter cannot localize.
//!
//! Run with debug info for useful symbols:
//! `cargo run --release --config 'profile.release.debug=1' -p dpr-bench --bin allocstacks`
//!
//! Diagnostic only — not part of the benchmark suite or the CI gate.

use dpr_cluster::{Cluster, ClusterConfig, ClusterOp, NetServer, NetServerConfig, PipelinedClient};
use dpr_core::{Key, SessionId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static SAMPLING: AtomicBool = AtomicBool::new(false);
const SAMPLE_EVERY: u64 = 512;

thread_local! {
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

fn stacks() -> &'static Mutex<HashMap<String, u64>> {
    static STACKS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Keep only the frames that name code in this workspace — enough to
/// attribute the allocation without megabytes of std frames.
fn compress(bt: &Backtrace) -> String {
    let full = format!("{bt}");
    let mut picked: Vec<&str> = Vec::new();
    for line in full.lines() {
        let t = line.trim();
        if t.contains("dpr_") || t.contains("libdpr") || t.contains("allocstacks") {
            if let Some(idx) = t.find(": ") {
                picked.push(&t[idx + 2..]);
            }
            if picked.len() >= 5 {
                break;
            }
        }
    }
    if picked.is_empty() {
        "<non-workspace>".to_owned()
    } else {
        picked.join(" <- ")
    }
}

fn on_alloc() {
    let n = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
    if !SAMPLING.load(Ordering::Relaxed) || !n.is_multiple_of(SAMPLE_EVERY) {
        return;
    }
    IN_HOOK.with(|g| {
        if g.get() {
            return;
        }
        g.set(true);
        let bt = Backtrace::force_capture();
        let key = compress(&bt);
        if let Ok(mut map) = stacks().lock() {
            *map.entry(key).or_insert(0) += 1;
        }
        g.set(false);
    });
}

struct SamplingAlloc;

// SAFETY: every method delegates to `System` with its arguments untouched;
// the sampling hook's own allocations re-enter behind the `IN_HOOK` guard.
unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: SamplingAlloc = SamplingAlloc;

fn snapshot() -> HashMap<String, u64> {
    stacks().lock().map(|m| m.clone()).unwrap_or_default()
}

fn dump_diff(label: &str, before: &HashMap<String, u64>, after: &HashMap<String, u64>) {
    let mut rows: Vec<(u64, &str)> = after
        .iter()
        .map(|(k, v)| (v - before.get(k).copied().unwrap_or(0), k.as_str()))
        .filter(|(d, _)| *d > 0)
        .collect();
    rows.sort_unstable_by_key(|&(d, _)| std::cmp::Reverse(d));
    println!("== {label} (samples x{SAMPLE_EVERY} allocs) ==");
    for (count, stack) in rows.iter().take(20) {
        println!("{count:>8}  {stack}");
    }
    println!();
}

fn main() {
    let shards = 8usize;
    let cluster = Cluster::start(ClusterConfig {
        shards,
        validate_ownership: false,
        dedupe_window: 4096,
        checkpoint_interval: Some(Duration::from_millis(50)),
        finder_interval: Duration::from_millis(5),
        ..ClusterConfig::default()
    })
    .expect("start cluster");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = NetServer::start(
        cluster.workers().to_vec(),
        listener,
        NetServerConfig::default(),
    )
    .expect("start server");
    let addr = server.local_addr();
    let shard_ids: Vec<_> = cluster.workers().iter().map(|w| w.shard()).collect();

    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let mut drivers = Vec::new();
    for t in 0..4u64 {
        let stop = stop.clone();
        let shard_ids = shard_ids.clone();
        drivers.push(std::thread::spawn(move || {
            let mut client =
                PipelinedClient::connect(libdpr::DprClientSession::new(SessionId(1000 + t)), addr)
                    .expect("connect");
            let mut ops: Vec<ClusterOp> = Vec::with_capacity(8);
            let mut r = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let shard = shard_ids[(r % shard_ids.len() as u64) as usize];
                ops.clear();
                for i in 0..8u64 {
                    let key = Key::from_u64((r.wrapping_mul(31) + i * 7919) % 10_000);
                    // 50/50 read-write mix, like the benchmark's `net_sat`.
                    ops.push(if (r + i).is_multiple_of(2) {
                        ClusterOp::Upsert(key, Value::from_u64(r))
                    } else {
                        ClusterOp::Read(key)
                    });
                }
                client.issue(shard, &ops).expect("issue");
                while client.inflight() >= 8 {
                    client
                        .poll_each(Duration::from_millis(1), |done| {
                            std::hint::black_box(done.result.is_ok());
                        })
                        .expect("poll");
                }
                r += 1;
            }
        }));
    }

    let rate_window = |secs: u64| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs(secs));
        let rate = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / t0.elapsed().as_secs_f64();
        rate as u64
    };

    // Fresh window: sample seconds 2-7 of the run.
    std::thread::sleep(Duration::from_secs(2));
    let base = snapshot();
    SAMPLING.store(true, Ordering::Relaxed);
    let fresh_rate = rate_window(5);
    let fresh = snapshot();
    SAMPLING.store(false, Ordering::Relaxed);
    println!("fresh allocs/sec: {fresh_rate}");
    dump_diff("fresh (t=2s..7s)", &base, &fresh);

    // Age the store, then sample an equally long late window.
    std::thread::sleep(Duration::from_secs(20));
    let mid = snapshot();
    SAMPLING.store(true, Ordering::Relaxed);
    let aged_rate = rate_window(5);
    let aged = snapshot();
    SAMPLING.store(false, Ordering::Relaxed);
    println!("aged allocs/sec:  {aged_rate}");
    dump_diff("aged (t=27s..32s)", &mid, &aged);

    stop.store(true, Ordering::Relaxed);
    for d in drivers {
        let _ = d.join();
    }
    server.shutdown();
    cluster.shutdown();
}
