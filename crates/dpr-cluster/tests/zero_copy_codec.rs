//! Zero-copy wire codec acceptance tests, driven through the path both ends
//! of a connection run: bytes appended to a [`FrameReader`], frames taken out
//! of it, bodies handed to the kind's decoder.
//!
//! **Allocation-freedom**: a steady-state request/response cycle — encode,
//! split, decode, on both sides — performs *zero* heap allocations once
//! buffers are warm, measured by a per-thread counting allocator (so
//! concurrently running tests cannot pollute the count). **Ownership**: what
//! the reader's one body allocation does when a view of it is, or is not,
//! still alive at the next frame (`docs/NETWORK.md` §9). That the bytes are
//! the specified ones is checked by the golden vectors of the root
//! `tests/wire_format.rs`; that they round-trip, by the property tests of
//! `net_plane_tests.rs`.

use bytes::Bytes;
use dpr_cluster::wire::{self, FrameReader};
use dpr_cluster::{ClusterOp, OpResult};
use dpr_core::{Key, SessionId, ShardId, Value, Version, WorldLine};
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
        acked_below: first_serial,
        op_count: 4,
    }
}

/// One end of a connection: its reader and what it decodes into.
struct End {
    rd: FrameReader,
    ops: Vec<ClusterOp>,
    header: BatchHeader,
    results: Vec<OpResult>,
}

impl End {
    fn new() -> End {
        End {
            rd: FrameReader::default(),
            ops: Vec::new(),
            header: steady_header(0, 0),
            results: Vec::new(),
        }
    }

    /// The next frame's body, asked for the way `net.rs` and `session.rs`
    /// do: the views of the last one are dropped first.
    fn next_body(&mut self, kind: wire::FrameKind) -> Bytes {
        self.ops.clear();
        self.results.clear();
        let (header, body) = self.rd.next_frame().unwrap().expect("whole frame");
        assert_eq!(header.kind, kind);
        body
    }
}

/// One full cycle out of warm buffers: the client's request is encoded onto
/// the server's reader, split and decoded zero-copy there; the response is
/// encoded onto the client's reader, split and decoded there. Returns the
/// decoded op and result counts (consumed by the assertion so nothing is
/// optimised away).
fn request_response_cycle(
    server: &mut End,
    client: &mut End,
    ops: &[ClusterOp],
    results: &[OpResult],
    serial: u64,
) -> usize {
    let header = steady_header(7, serial);
    wire::encode_request(server.rd.buffer(), ShardId(3), serial, &header, ops);
    let body = server.next_body(wire::FrameKind::Request);
    wire::decode_request_body_into(&body, &mut server.ops, &mut server.header)
        .expect("decode request");
    assert_eq!(server.header.first_serial, serial);

    let reply = BatchReply {
        shard: ShardId(3),
        world_line: WorldLine(1),
        version: Version(2),
        first_serial: serial,
        op_count: ops.len() as u32,
    };
    wire::encode_response(client.rd.buffer(), 3, serial, Ok((&reply, results)));
    let body = client.next_body(wire::FrameKind::Response);
    let decoded = wire::decode_response_body(&body, &mut client.results).expect("decode response");
    assert_eq!(decoded, Ok(reply));
    server.ops.len() + client.results.len()
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
    let (mut server, mut client) = (End::new(), End::new());

    // Warm-up: the readers' buffers and bodies, scratch growth, telemetry
    // registration.
    for i in 0..64 {
        request_response_cycle(&mut server, &mut client, &ops, &results, i);
    }

    const ROUNDS: u64 = 1000;
    let before = my_allocs();
    let mut total = 0usize;
    for i in 0..ROUNDS {
        total += request_response_cycle(&mut server, &mut client, &ops, &results, 64 + i);
    }
    let allocated = my_allocs() - before;
    assert_eq!(total, (ops.len() + results.len()) * ROUNDS as usize);
    assert_eq!(
        allocated, 0,
        "a steady-state cycle must not allocate ({allocated} allocations in {ROUNDS} cycles)"
    );
}

// ---------------------------------------------------------------------------
// Ownership of the reader's body
// ---------------------------------------------------------------------------

fn counter(name: &'static str) -> u64 {
    dpr_telemetry::global()
        .counter(name, dpr_telemetry::Unit::Count, "")
        .get()
}

/// Append an `Upsert(1, value)` request to `end`'s reader, take it out again
/// and decode it; returns where the body lives, and the decoded value.
fn upsert_through(end: &mut End, value: &[u8]) -> (std::ops::Range<*const u8>, Value) {
    let ops = [ClusterOp::Upsert(
        Key::from_u64(1),
        Value(Bytes::copy_from_slice(value)),
    )];
    wire::encode_request(end.rd.buffer(), ShardId(0), 1, &steady_header(9, 1), &ops);
    let body = end.next_body(wire::FrameKind::Request);
    wire::decode_request_body_into(&body, &mut end.ops, &mut end.header).unwrap();
    let ClusterOp::Upsert(_, v) = &end.ops[0] else {
        panic!("expected upsert");
    };
    (body.as_slice().as_ptr_range(), v.clone())
}

#[test]
fn large_values_stay_zero_copy_views_of_the_body() {
    // A value above the inline cap decodes as a slice of the reader's body:
    // no copy, no per-value allocation.
    let (body, big) = upsert_through(&mut End::new(), &[0xAB; 100]);
    assert!(
        body.contains(&big.0.as_slice().as_ptr()),
        "decoded value must point into the reader's body"
    );
}

#[test]
fn a_view_kept_across_the_next_frame_costs_that_frame_an_allocation() {
    let mut end = End::new();
    let (first, big) = upsert_through(&mut end, &[0xAB; 100]);

    // Kept across the next frame, the view pins that allocation: the next
    // body gets a fresh one, counted as a miss, and the view still reads its
    // own bytes, not the new frame's.
    let misses = counter("dpr_pool_misses_total");
    let (second, small) = upsert_through(&mut end, &7u64.to_be_bytes());
    assert_ne!(second.start, first.start, "a viewed body is not reused");
    assert!(counter("dpr_pool_misses_total") > misses);
    assert_eq!(big.0.as_slice(), [0xAB; 100]);

    // An inline-sized value takes no claim on the body, so keeping it pins
    // nothing: the allocation is reused, counted as a hit.
    let hits = counter("dpr_pool_hits_total");
    let (third, _) = upsert_through(&mut end, &[0xCD; 100]);
    assert_eq!(third.start, second.start, "an unviewed body is reused");
    assert!(counter("dpr_pool_hits_total") > hits);
    assert_eq!(small.0.as_slice(), 7u64.to_be_bytes());

    // A body larger than the allocation gets a larger one, which then serves
    // the smaller frames after it.
    let (fourth, _) = upsert_through(&mut end, &[0xEF; 5000]);
    assert_ne!(fourth.start, third.start);
    let (fifth, _) = upsert_through(&mut end, &[0xEF; 100]);
    assert_eq!(fifth.start, fourth.start);
}
