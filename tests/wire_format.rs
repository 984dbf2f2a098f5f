//! The on-wire contract, byte by byte: one hand-assembled frame per kind,
//! copied from the layout tables of `docs/NETWORK.md` (§1 header, §2
//! handshake, §3 request/response, §4 cut, §5 errors). Each is asserted equal
//! to the encoder's output and decoded back, so the codec is checked against
//! the written specification, and tier-1 fails when either drifts.

use bytes::Bytes;
use dpr::cluster::wire::{
    self, CutResponse, FrameKind, Hello, HelloAck, ProtoError, ProtoErrorCode, NO_SHARD,
};
use dpr::cluster::{BusFrame, Cluster, ClusterConfig, ClusterOp, OpResult};
use dpr::core::{DprError, Key, SessionId, ShardId, Token, Value, Version, WorldLine};
use dpr::metadata::Cut;
use dpr::protocol::{BatchHeader, BatchReply};
use std::time::Duration;

mod common;
use common::hex;

/// The §1 header around `body`.
fn frame(kind: &str, shard: &str, seq: &str, body_len: &str, body: &[&str]) -> Vec<u8> {
    let mut out = hex(&[
        "44 50 52 31", // magic "DPR1"
        "02",          // version
        kind,
        "00 00", // flags
        shard,
        seq,
        body_len,
    ]);
    out.extend(hex(body));
    out
}

const UNROUTED: &str = "ff ff ff ff";

/// `encoded` is exactly `want`, whose header reads back as stated; returns
/// the body.
fn check(encoded: &[u8], want: &[u8], kind: FrameKind, shard: u32, seq: u64) -> Bytes {
    assert_eq!(encoded, want, "{kind:?} bytes differ from docs/NETWORK.md");
    let header = wire::decode_header(want).unwrap().expect("whole header");
    let body_len = want.len() - wire::FRAME_HEADER_LEN;
    assert_eq!(
        (header.kind, header.shard, header.seq, header.body_len),
        (kind, shard, seq, body_len)
    );
    Bytes::copy_from_slice(&want[wire::FRAME_HEADER_LEN..])
}

#[test]
fn handshake_frames() {
    let hello = Hello {
        session: SessionId(7),
        epoch: 3,
        world_line: WorldLine(2),
    };
    let want = frame(
        "01",
        UNROUTED,
        "00*8",
        "14 00 00 00",
        &[
            "07 00*7",     // session
            "03 00 00 00", // epoch
            "02 00*7",     // world_line
        ],
    );
    let mut got = Vec::new();
    hello.encode(&mut got);
    let body = check(&got, &want, FrameKind::Hello, NO_SHARD, 0);
    assert_eq!(Hello::from_body(&body).unwrap(), hello);

    let ack = HelloAck {
        epoch: 3,
        world_line: WorldLine(2),
        shards: vec![ShardId(0), ShardId(1), ShardId(5)],
    };
    let want = frame(
        "02",
        UNROUTED,
        "00*8",
        "1c 00 00 00",
        &[
            "03 00 00 00",                         // epoch
            "02 00*7",                             // world_line
            "03 00 00 00",                         // shard_count
            "00 00 00 00 01 00 00 00 05 00 00 00", // shards
        ],
    );
    let mut got = Vec::new();
    ack.encode(&mut got);
    let body = check(&got, &want, FrameKind::HelloAck, NO_SHARD, 0);
    assert_eq!(HelloAck::from_body(&body).unwrap(), ack);
}

#[test]
fn request_frame_with_inline_and_shared_keys_and_values() {
    let header = BatchHeader {
        session: SessionId(7),
        world_line: WorldLine(2),
        version_lower_bound: Version(40),
        deps: vec![Token::new(ShardId(1), Version(39))],
        first_serial: 1000,
        acked_below: 992,
        op_count: 4,
    };
    // 30- and 40-byte strings are above the 24-byte inline cap of `Bytes`.
    let ops = vec![
        ClusterOp::Read(Key::from("k1")),
        ClusterOp::Upsert(
            Key(Bytes::copy_from_slice(&[b'K'; 30])),
            Value(Bytes::copy_from_slice(&[b'V'; 40])),
        ),
        ClusterOp::Incr(Key::from("ctr")),
        ClusterOp::Delete(Key::from("k1")),
    ];
    let want = frame(
        "03",
        "03 00 00 00",
        "2a 00*7",
        "a5 00 00 00",
        &[
            "07 00*7",                 // session
            "02 00*7",                 // world_line
            "28 00*7",                 // version_lower_bound
            "e8 03 00*6",              // first_serial
            "e0 03 00*6",              // acked_below
            "04 00 00 00",             // op_count
            "01 00 00 00",             // dep_count
            "01 00 00 00 27 00*7",     // dep (shard 1, version 39)
            "04 00 00 00",             // n_ops
            "00 02 00 00 00 6b 31",    // Read "k1"
            "01 1e 00 00 00 4b*30",    // Upsert key,
            "   28 00 00 00 56*40",    //        value
            "02 03 00 00 00 63 74 72", // Incr "ctr"
            "03 02 00 00 00 6b 31",    // Delete "k1"
        ],
    );
    let mut got = Vec::new();
    wire::encode_request(&mut got, ShardId(3), 42, &header, &ops);
    let body = check(&got, &want, FrameKind::Request, 3, 42);

    let mut decoded = BatchHeader {
        session: SessionId(0),
        world_line: WorldLine(0),
        version_lower_bound: Version(0),
        deps: vec![Token::new(ShardId(9), Version(9))],
        first_serial: 0,
        acked_below: 0,
        op_count: 0,
    };
    let mut decoded_ops = Vec::new();
    wire::decode_request_body_into(&body, &mut decoded_ops, &mut decoded).unwrap();
    assert_eq!(decoded, header);
    assert_eq!(decoded_ops, ops);
}

#[test]
fn response_frames() {
    let reply = BatchReply {
        shard: ShardId(3),
        world_line: WorldLine(2),
        version: Version(41),
        first_serial: 1000,
        op_count: 4,
    };
    let results = vec![
        OpResult::Value(None),
        OpResult::Value(Some(Value(Bytes::copy_from_slice(&[b'V'; 40])))),
        OpResult::Done,
    ];
    let want = frame(
        "04",
        "03 00 00 00",
        "2a 00*7",
        "54 00 00 00",
        &[
            "00",                   // outcome: executed
            "03 00 00 00",          // shard
            "02 00*7",              // world_line
            "29 00*7",              // version
            "e8 03 00*6",           // first_serial
            "04 00 00 00",          // op_count
            "03 00 00 00",          // n_results
            "00",                   // Value(None)
            "01 28 00 00 00 56*40", // Value(Some)
            "02",                   // Done
        ],
    );
    let mut got = Vec::new();
    wire::encode_response(&mut got, 3, 42, Ok((&reply, &results)));
    let body = check(&got, &want, FrameKind::Response, 3, 42);
    let mut decoded = Vec::new();
    assert_eq!(
        wire::decode_response_body(&body, &mut decoded).unwrap(),
        Ok(reply)
    );
    assert_eq!(decoded, results);

    // Outcome tag 1, then each row of the §3 error table.
    let message = "04 00 00 00 64 69 73 6b"; // "disk"
    let rejections: Vec<(DprError, Vec<&str>)> = vec![
        (
            DprError::WorldLineMismatch {
                requested: WorldLine(2),
                current: WorldLine(3),
            },
            vec!["01", "02 00*7", "03 00*7"],
        ),
        (
            DprError::RolledBack {
                session: SessionId(7),
                survived: 9,
                world_line: WorldLine(3),
            },
            vec!["02", "07 00*7", "09 00*7", "03 00*7"],
        ),
        (
            DprError::NotOwner { shard: ShardId(4) },
            vec!["03", "04 00 00 00"],
        ),
        (
            DprError::NoSuchCheckpoint {
                shard: ShardId(4),
                version: Version(6),
            },
            vec!["04", "04 00 00 00", "06 00*7"],
        ),
        (DprError::Recovering, vec!["05"]),
        (DprError::Closed, vec!["06"]),
        (DprError::Storage("disk".into()), vec!["07", message]),
        (DprError::Metadata("disk".into()), vec!["08", message]),
        (DprError::Invalid("disk".into()), vec!["09", message]),
        (DprError::Timeout, vec!["0a"]),
    ];
    for (error, fields) in rejections {
        let mut body = vec!["01"]; // outcome: rejected
        body.extend(fields);
        let len = format!("{:02x} 00 00 00", hex(&body).len());
        let want = frame("04", "03 00 00 00", "2a 00*7", &len, &body);
        let mut got = Vec::new();
        wire::encode_response(&mut got, 3, 42, Err(&error));
        let body = check(&got, &want, FrameKind::Response, 3, 42);
        let mut decoded = Vec::new();
        assert_eq!(
            wire::decode_response_body(&body, &mut decoded).unwrap(),
            Err(error)
        );
        assert!(decoded.is_empty());
    }
}

#[test]
fn cut_frames() {
    let want = frame("05", UNROUTED, "09 00*7", "00 00 00 00", &[]);
    let mut got = Vec::new();
    wire::encode_control(&mut got, FrameKind::CutReq, 9);
    check(&got, &want, FrameKind::CutReq, NO_SHARD, 9);

    let cut = Cut::from([(ShardId(0), Version(5)), (ShardId(9), Version(1))]);
    let want = frame(
        "06",
        UNROUTED,
        "09 00*7",
        "24 00 00 00",
        &[
            "02 00*7",             // world_line
            "02 00 00 00",         // n_entries
            "00 00 00 00 05 00*7", // shard 0 at version 5
            "09 00 00 00 01 00*7", // shard 9 at version 1
        ],
    );
    let mut got = Vec::new();
    wire::encode_cut_response(&mut got, 9, WorldLine(2), &cut);
    let body = check(&got, &want, FrameKind::CutResp, NO_SHARD, 9);
    assert_eq!(
        CutResponse::from_body(&body).unwrap(),
        CutResponse {
            world_line: WorldLine(2),
            cut
        }
    );
}

#[test]
fn error_and_goodbye_frames() {
    let error = ProtoError {
        code: ProtoErrorCode::UnknownShard,
        detail: "no".into(),
    };
    let want = frame(
        "07",
        UNROUTED,
        "07 00*7",
        "08 00 00 00",
        &[
            "05 00",             // code
            "02 00 00 00 6e 6f", // detail "no"
        ],
    );
    let mut got = Vec::new();
    error.encode(&mut got, 7);
    let body = check(&got, &want, FrameKind::Error, NO_SHARD, 7);
    assert_eq!(ProtoError::from_body(&body).unwrap(), error);

    // The §5 code table: values 1..=7, of which 5 and 6 keep the connection.
    for value in 1..=7u16 {
        let code = ProtoErrorCode::from_u16(value).expect("assigned code");
        assert_eq!(code as u16, value);
        assert_eq!(code.recoverable(), value == 5 || value == 6);
    }
    assert_eq!(ProtoErrorCode::from_u16(8), None);

    let want = frame("08", UNROUTED, "00*8", "00 00 00 00", &[]);
    let mut got = Vec::new();
    wire::encode_control(&mut got, FrameKind::Goodbye, 0);
    check(&got, &want, FrameKind::Goodbye, NO_SHARD, 0);
}

/// §8: the simulated bus carries these same frames. A hand-assembled
/// `Request` sent to a worker's endpoint is answered with a `Response` that
/// decodes, and any other kind with `Error(BadFrame)`; there is no handshake.
#[test]
fn a_worker_endpoint_on_the_bus_speaks_the_documented_format() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 1,
        ..ClusterConfig::default()
    })
    .unwrap();
    let (me, inbox) = cluster.network().register();
    let ask = |bytes: Vec<u8>| {
        let frame = BusFrame {
            from: me,
            bytes: bytes.into(),
        };
        let worker = cluster.worker_endpoint(0).unwrap();
        cluster.network().send(worker, frame).unwrap();
        let answer = inbox.recv_timeout(Duration::from_secs(10)).unwrap().bytes;
        let header = wire::decode_header(&answer).unwrap().expect("whole header");
        assert_eq!(header.frame_len(), answer.len(), "one whole frame");
        (header, answer.slice(wire::FRAME_HEADER_LEN..answer.len()))
    };

    let request = frame(
        "03",
        "00 00 00 00",
        "09 00*7",
        "48 00 00 00",
        &[
            "07 00*7 00*8 00*8",     // session, world_line, version_lower_bound
            "00*8 00*8 02 00 00 00", // first_serial, acked_below, op_count
            "00 00 00 00",           // no deps
            "02 00 00 00",           // two ops
            "01 02 00 00 00 6b 31 02 00 00 00 76 31", // Upsert "k1" -> "v1"
            "00 02 00 00 00 6b 31",  // Read "k1"
        ],
    );
    let (header, body) = ask(request.clone());
    assert_eq!(
        (header.kind, header.shard, header.seq),
        (FrameKind::Response, 0, 9)
    );
    let mut results = Vec::new();
    let reply = wire::decode_response_body(&body, &mut results)
        .unwrap()
        .unwrap();
    assert_eq!(
        (reply.shard, reply.first_serial, reply.op_count),
        (ShardId(0), 0, 2)
    );
    assert_eq!(
        results,
        [OpResult::Done, OpResult::Value(Some(Value::from("v1")))]
    );

    // Not a `Request`, a `Request` cut short, and one that acknowledges past
    // its own first serial (§3): refused, `seq` echoed.
    let mut cut_req = Vec::new();
    wire::encode_control(&mut cut_req, FrameKind::CutReq, 11);
    let mut short = request.clone();
    short.truncate(60);
    let mut overacked = request.clone();
    overacked[wire::FRAME_HEADER_LEN + 32] = 1; // acked_below 1, first_serial 0
    for (bad, seq) in [(cut_req, 11), (short, 9), (overacked, 9)] {
        let (header, body) = ask(bad);
        assert_eq!((header.kind, header.seq), (FrameKind::Error, seq));
        assert_eq!(
            ProtoError::from_body(&body).unwrap().code,
            ProtoErrorCode::BadFrame
        );
    }
    cluster.shutdown();
}
