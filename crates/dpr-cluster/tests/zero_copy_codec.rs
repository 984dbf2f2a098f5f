//! Zero-copy wire codec acceptance tests.
//!
//! **Allocation-freedom**: steady-state encode (request + response) and
//! request decode perform *zero* heap allocations per frame once buffers are
//! warm, measured by a per-thread counting allocator (so concurrently running
//! tests cannot pollute the count). That the bytes are the specified ones is
//! checked by the golden vectors of the root `tests/wire_format.rs`; that
//! they round-trip, by the property tests of `net_plane_tests.rs`.

use bytes::Bytes;
use dpr_cluster::wire;
use dpr_cluster::{ClusterOp, OpResult};
use dpr_core::{BufferPool, Key, SessionId, ShardId, Value, Version, WorldLine};
use libdpr::{BatchHeader, BatchReply};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Per-thread counting allocator: the whole test binary runs under it, and
// each test thread reads only its own counter.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Allocation-freedom
// ---------------------------------------------------------------------------

fn steady_header(session: u64, first_serial: u64) -> BatchHeader {
    BatchHeader {
        session: SessionId(session),
        world_line: WorldLine(1),
        version_lower_bound: Version(1),
        // Empty deps: `Vec::new()` never allocates. (Batches carrying
        // cross-shard deps pay one Vec per batch on decode, by design.)
        deps: Vec::new(),
        first_serial,
        op_count: 4,
    }
}

/// One full server-side frame cycle out of warm buffers: encode a request,
/// lift the body into a pooled shared buffer, decode it zero-copy, then
/// encode the response. Returns the decoded op count (consumed by the
/// assertion so nothing is optimised away).
fn request_response_cycle(
    enc: &mut Vec<u8>,
    resp: &mut Vec<u8>,
    ops: &[ClusterOp],
    (decoded, decoded_header): &mut (Vec<ClusterOp>, BatchHeader),
    results: &[OpResult],
    serial: u64,
) -> usize {
    let header = steady_header(7, serial);
    enc.clear();
    wire::encode_request(enc, ShardId(3), serial, &header, ops);

    let h = wire::decode_header(enc).unwrap().expect("complete frame");
    let body_bytes = &enc[wire::FRAME_HEADER_LEN..h.frame_len()];
    let mut lease = BufferPool::global().acquire_shared(body_bytes.len());
    lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
    let body = lease.freeze(body_bytes.len());

    decoded.clear();
    wire::decode_request_body_into(&body, decoded, decoded_header).expect("decode request");
    assert_eq!(decoded_header.first_serial, serial);

    let reply = BatchReply {
        shard: ShardId(3),
        world_line: WorldLine(1),
        version: Version(2),
        first_serial: serial,
        op_count: ops.len() as u32,
    };
    resp.clear();
    wire::encode_response(resp, 3, serial, Ok((&reply, results)));
    decoded.len()
}

#[test]
fn steady_state_frame_cycle_allocates_nothing() {
    // Small (≤ 24 B) keys and values are inlined by `Bytes`, so neither
    // encoding nor zero-copy decoding of the paper's 8-byte workload
    // should ever touch the heap once buffers are warm.
    let ops = vec![
        ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(10)),
        ClusterOp::Read(Key::from_u64(2)),
        ClusterOp::Incr(Key::from_u64(3)),
        ClusterOp::Delete(Key::from_u64(4)),
    ];
    let results = vec![
        OpResult::Done,
        OpResult::Value(Some(Value::from_u64(10))),
        OpResult::Done,
        OpResult::Done,
    ];
    let mut enc: Vec<u8> = Vec::with_capacity(8 << 10);
    let mut resp: Vec<u8> = Vec::with_capacity(8 << 10);
    let mut decoded = (Vec::with_capacity(16), steady_header(0, 0));

    // Warm-up: pool stripes, scratch growth, telemetry registration.
    for i in 0..64 {
        request_response_cycle(&mut enc, &mut resp, &ops, &mut decoded, &results, i);
    }

    const ROUNDS: u64 = 1000;
    let before = my_allocs();
    let mut total = 0usize;
    for i in 0..ROUNDS {
        total += request_response_cycle(&mut enc, &mut resp, &ops, &mut decoded, &results, 64 + i);
    }
    let allocated = my_allocs() - before;
    assert_eq!(total, ops.len() * ROUNDS as usize);
    assert_eq!(
        allocated, 0,
        "steady-state encode/decode must not allocate ({allocated} allocations in {ROUNDS} frames)"
    );
}

#[test]
fn large_values_stay_zero_copy_views_of_the_pooled_body() {
    // A value above the inline cap decodes as a slice of the pooled body:
    // no copy, no per-value allocation.
    let big = Value(Bytes::copy_from_slice(&[0xAB; 100]));
    let ops = vec![ClusterOp::Upsert(Key::from_u64(1), big)];
    let header = steady_header(9, 1);
    let mut enc = Vec::new();
    wire::encode_request(&mut enc, ShardId(0), 1, &header, &ops);

    let h = wire::decode_header(&enc).unwrap().expect("complete");
    let body_bytes = &enc[wire::FRAME_HEADER_LEN..h.frame_len()];
    let mut lease = BufferPool::global().acquire_shared(body_bytes.len());
    lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
    let body = lease.freeze(body_bytes.len());

    let mut decoded = Vec::new();
    wire::decode_request_body_into(&body, &mut decoded, &mut steady_header(0, 0)).unwrap();
    let ClusterOp::Upsert(_, v) = &decoded[0] else {
        panic!("expected upsert");
    };
    let body_range = body.as_slice().as_ptr_range();
    let value_range = v.0.as_slice().as_ptr_range();
    assert!(
        body_range.contains(&value_range.start),
        "decoded value must point into the pooled frame body"
    );
}
