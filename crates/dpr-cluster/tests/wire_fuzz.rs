//! A seeded fuzz loop over the bytes a peer controls: valid frames of every
//! kind are truncated, bit-flipped, given a false length, concatenated, fed
//! to a [`FrameReader`] in random-sized pieces, and every frame it hands out
//! goes on into the kind's body decoder. Whatever the bytes: no panic, no
//! more waiting in the reader than one frame of a kind whose header passed,
//! and every body it hands out is the stream's own bytes; an untouched stream
//! comes out whole and decodes. A failing case prints its seed.

use bytes::Bytes;
use dpr_cluster::wire::{self, CutResponse, FrameKind, FrameReader, Hello, HelloAck};
use dpr_cluster::wire::{ProtoError, ProtoErrorCode, FRAME_HEADER_LEN};
use dpr_cluster::{ClusterOp, OpResult};
use dpr_core::{DprError, Key, Rng, SessionId, ShardId, Token, Value, Version, WorldLine};
use libdpr::{BatchHeader, BatchReply, DprClientSession};

const CASES: u64 = 100_000;

/// A draw below `n`, as an index.
fn below(rng: &mut Rng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// Valid frames of every kind. Values come in the paper's 8 bytes, past the
/// inline cap (so that what is decoded views the body) and past the reader's
/// first allocation.
fn valid_frames() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut frame = |encode: &dyn Fn(&mut Vec<u8>)| {
        let mut out = Vec::new();
        encode(&mut out);
        frames.push(out);
    };
    let (session, world_line) = (SessionId(7), WorldLine(2));
    let (shard, version) = (ShardId(3), Version(40));
    let value = |len: usize| Value(Bytes::copy_from_slice(&vec![0xAB; len]));

    let mut header = DprClientSession::new(session).rebatch_header(shard, 1000, 5);
    let ops = [
        ClusterOp::Read(Key::from_u64(1)),
        ClusterOp::Upsert(Key::from_u64(2), value(8)),
        ClusterOp::Upsert(Key(value(30).0), value(100)),
        ClusterOp::Incr(Key::from_u64(3)),
        ClusterOp::Delete(Key::from_u64(4)),
    ];
    frame(&|out| wire::encode_request(out, shard, 42, &header, &ops));
    header.deps = vec![Token::new(ShardId(1), version); 3];
    header.acked_below = 996; // a flipped bit can put it past `first_serial`
    frame(&|out| wire::encode_request(out, shard, 43, &header, &[]));
    let big = [ClusterOp::Upsert(Key::from_u64(5), value(3000))];
    frame(&|out| wire::encode_request(out, shard, 44, &header, &big));

    let (first_serial, op_count) = (1000, 3);
    let reply = BatchReply {
        shard,
        world_line,
        version,
        first_serial,
        op_count,
    };
    let results = [
        OpResult::Done,
        OpResult::Value(None),
        OpResult::Value(Some(value(100))),
    ];
    frame(&|out| wire::encode_response(out, shard.0, 42, Ok((&reply, &results))));
    let (requested, current) = (world_line, WorldLine(3));
    for e in [
        DprError::WorldLineMismatch { requested, current },
        DprError::NotOwner { shard },
        DprError::NoSuchCheckpoint { shard, version },
        DprError::Recovering,
        DprError::Closed,
        DprError::Storage("disk".into()),
        DprError::Metadata("sql".into()),
        DprError::Invalid(String::new()),
        DprError::Timeout,
    ] {
        frame(&|out| wire::encode_response(out, shard.0, 43, Err(&e)));
    }

    frame(&|out| {
        Hello {
            session,
            epoch: 3,
            world_line,
        }
        .encode(out)
    });
    let shards = vec![shard; 2];
    frame(&|out| {
        HelloAck {
            epoch: 3,
            world_line,
            shards: shards.clone(),
        }
        .encode(out)
    });
    frame(&|out| wire::encode_control(out, FrameKind::CutReq, 9));
    frame(&|out| wire::encode_cut_response(out, 9, world_line, &[(shard, version)].into()));
    let code = ProtoErrorCode::DuplicateInFlight;
    frame(&|out| {
        ProtoError {
            code,
            detail: "busy".into(),
        }
        .encode(out, 42)
    });
    frame(&|out| wire::encode_control(out, FrameKind::Goodbye, 0));
    frames
}

/// Damage `stream`, whose frames start at `starts`, in one of three ways.
fn damage(rng: &mut Rng, stream: &mut Vec<u8>, starts: &[usize]) {
    match below(rng, 3) {
        0 => stream.truncate(below(rng, stream.len())),
        1 => {
            for _ in 0..=below(rng, 3) {
                let at = below(rng, stream.len());
                stream[at] ^= 1 << below(rng, 8);
            }
        }
        _ => {
            let len = starts[below(rng, starts.len())] + 20;
            let real = u32::from_le_bytes(stream[len..len + 4].try_into().expect("4 bytes"));
            let lie = [
                0,
                real / 2,
                real.wrapping_sub(1),
                real + 1,
                1 << 16,
                1 << 25,
                u32::MAX,
            ];
            stream[len..len + 4].copy_from_slice(&lie[below(rng, 7)].to_le_bytes());
        }
    }
}

/// The buffers a connection decodes into.
struct Scratch {
    ops: Vec<ClusterOp>,
    results: Vec<OpResult>,
    header: BatchHeader,
}

/// Hand a frame's body to its kind's decoder; whether it parsed.
fn decode(kind: FrameKind, body: &Bytes, scratch: &mut Scratch) -> bool {
    let Scratch {
        ops,
        results,
        header,
    } = scratch;
    match kind {
        FrameKind::Hello => Hello::from_body(body).is_ok(),
        FrameKind::HelloAck => HelloAck::from_body(body).is_ok(),
        FrameKind::Request => wire::decode_request_body_into(body, ops, header).is_ok(),
        FrameKind::Response => wire::decode_response_body(body, results).is_ok(),
        FrameKind::CutResp => CutResponse::from_body(body).is_ok(),
        FrameKind::Error => ProtoError::from_body(body).is_ok(),
        FrameKind::CutReq | FrameKind::Goodbye => body.is_empty(),
    }
}

fn case(seed: u64, valid: &[Vec<u8>], scratch: &mut Scratch) {
    let mut rng = Rng::new(seed);
    let (mut stream, mut starts) = (Vec::new(), Vec::new());
    for _ in 0..=below(&mut rng, 4) {
        starts.push(stream.len());
        stream.extend_from_slice(&valid[below(&mut rng, valid.len())]);
    }
    let untouched = below(&mut rng, 4) == 0;
    if !untouched {
        damage(&mut rng, &mut stream, &starts);
    }
    let piece = [1, 7, 64, 4096][below(&mut rng, 4)];
    let mut rd = FrameReader::default();
    let (mut fed, mut taken, mut frames) = (0, 0, 0);
    'stream: while fed < stream.len() {
        let upto = (fed + 1 + below(&mut rng, piece)).min(stream.len());
        rd.buffer().extend_from_slice(&stream[fed..upto]);
        fed = upto;
        loop {
            // Mostly by the rule (the last body's views go first); sometimes
            // not, and then the reader must leave the viewed body alone.
            if below(&mut rng, 4) != 0 {
                scratch.ops.clear();
                scratch.results.clear();
            }
            match rd.next_frame() {
                Ok(Some((h, body))) => {
                    let end = taken + h.frame_len();
                    assert_eq!(body.as_slice(), &stream[taken + FRAME_HEADER_LEN..end]);
                    assert!(decode(h.kind, &body, scratch) || !untouched);
                    (taken, frames) = (end, frames + 1);
                }
                Ok(None) => break,
                Err(_) if untouched => panic!("a valid stream was refused"),
                Err(_) => break 'stream, // the connection closes
            }
        }
        // What waits is a header's beginning, or less than one frame of a
        // kind whose checked header allows that much.
        let waiting = &stream[taken..fed];
        assert_eq!(rd.buffer().as_slice(), waiting);
        if let Some(h) = wire::decode_header(waiting).expect("the reader passed it") {
            assert!(waiting.len() < h.frame_len() && h.body_len <= h.kind.max_body_len());
        }
    }
    if untouched {
        assert_eq!((taken, frames), (stream.len(), starts.len()));
    }
}

#[test]
fn no_bytes_panic_the_reader_or_the_decoders_and_valid_streams_come_out_whole() {
    let valid = valid_frames();
    let header = DprClientSession::new(SessionId(0)).rebatch_header(ShardId(0), 0, 0);
    let mut scratch = Scratch {
        ops: Vec::new(),
        results: Vec::new(),
        header,
    };
    for seed in 0..CASES {
        let run = std::panic::AssertUnwindSafe(|| case(seed, &valid, &mut scratch));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("wire fuzz: failing case has seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}
