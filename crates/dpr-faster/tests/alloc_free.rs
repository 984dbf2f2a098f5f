//! Allocation-freedom acceptance tests for the in-place page-arena hot
//! path.
//!
//! Two claims are checked with a per-thread counting allocator (the same
//! harness as `dpr-cluster`'s zero-copy codec tests):
//!
//! 1. **Reads**: a session read that hits a resident record performs
//!    *zero* heap allocations — the chain walk borrows `RecordView`s
//!    straight out of the page arena, and values at or below the `bytes`
//!    inline threshold (24 B) are returned inline.
//! 2. **Writes**: an in-place upsert (same version, mutable region) is
//!    also allocation-free, and append-path upserts amortize to far less
//!    than one allocation per record (pages are the only allocation unit).

use dpr_core::{Key, SessionId, Value};
use dpr_faster::{FasterConfig, FasterKv, Op};
use dpr_storage::{MemBlobStore, MemLogDevice};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

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

fn store() -> Arc<FasterKv> {
    FasterKv::new(
        FasterConfig::default(),
        Arc::new(MemLogDevice::null()),
        Arc::new(MemBlobStore::new()),
    )
}

const N: u64 = 1024;

#[test]
fn resident_read_hit_allocates_nothing() {
    let kv = store();
    let s = kv.start_session(SessionId(1));
    for i in 0..N {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    // Warm-up pass: lazy metric registration, epoch slot acquisition.
    for i in 0..N {
        s.read(&Key::from_u64(i)).unwrap();
    }
    let before = my_allocs();
    for i in 0..N {
        match s.read(&Key::from_u64(i)).unwrap() {
            dpr_faster::session::OpOutcome::Read { value, .. } => {
                assert_eq!(value.and_then(|v| v.as_u64()), Some(i));
            }
            other => panic!("resident read must complete inline: {other:?}"),
        }
    }
    let spent = my_allocs() - before;
    assert_eq!(spent, 0, "{spent} allocations across {N} resident reads");
}

#[test]
fn in_place_upsert_allocates_nothing() {
    let kv = store();
    let s = kv.start_session(SessionId(1));
    for i in 0..N {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    // Warm-up: same-version overwrites land in place via the seqlock.
    for i in 0..N {
        s.upsert(Key::from_u64(i), Value::from_u64(i + 1)).unwrap();
    }
    let before = my_allocs();
    for i in 0..N {
        s.upsert(Key::from_u64(i), Value::from_u64(i + 2)).unwrap();
    }
    let spent = my_allocs() - before;
    assert_eq!(spent, 0, "{spent} allocations across {N} in-place upserts");
    // And as one batch.
    let keys: Vec<Key> = (0..N).map(Key::from_u64).collect();
    let values: Vec<Value> = (0..N).map(|i| Value::from_u64(i + 3)).collect();
    let ops = || keys.iter().zip(&values).map(|(k, v)| Op::Upsert(k, v));
    let before = my_allocs();
    s.execute(ops(), drop).unwrap();
    let spent = my_allocs() - before;
    assert_eq!(spent, 0, "{spent} allocations in a batch of {N} upserts");
    match s.read(&Key::from_u64(0)).unwrap() {
        dpr_faster::session::OpOutcome::Read { value, .. } => {
            assert_eq!(value.and_then(|v| v.as_u64()), Some(3));
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn append_upserts_amortize_below_one_allocation_per_record() {
    let kv = store();
    let s = kv.start_session(SessionId(1));
    // Warm-up: fault in the first pages, the session, the metrics.
    for i in 0..N {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    let before = my_allocs();
    // Fresh keys: every one takes the append path (new arena offsets), but
    // only page-granularity structures allocate — frames, directory
    // chunks — at one page per 2,048 records of this size.
    for i in N..2 * N {
        s.upsert(Key::from_u64(i), Value::from_u64(i)).unwrap();
    }
    let spent = my_allocs() - before;
    assert!(
        spent < N / 8,
        "{spent} allocations across {N} append-path upserts (expected page-granular only)"
    );
}
