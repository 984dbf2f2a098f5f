//! The real network plane: fan-in server, pipelined clients, reconnect
//! dedupe, and wire-level robustness (docs/NETWORK.md).

use bytes::Bytes;
use dpr_cluster::wire::{self, FrameHeader, FrameKind, Hello, ProtoError, ProtoErrorCode};
use dpr_cluster::{
    BusFrame, Cluster, ClusterConfig, ClusterOp, NetServer, NetServerConfig, OpResult,
    PipelinedClient,
};
use dpr_core::{DprError, Key, SessionId, ShardId, Token, Value, Version, WorldLine};
use libdpr::{BatchHeader, BatchReply, DprClientSession};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A cluster with every worker served through one fan-in NetServer.
fn net_cluster(shards: usize, dedupe_window: usize) -> (Cluster, NetServer) {
    let cluster = Cluster::start(ClusterConfig {
        shards,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        dedupe_window,
        ..ClusterConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::start(
        cluster.workers().to_vec(),
        listener,
        NetServerConfig { io_threads: 2 },
    )
    .unwrap();
    (cluster, server)
}

fn connect(session: u64, addr: SocketAddr) -> PipelinedClient {
    PipelinedClient::connect(DprClientSession::new(SessionId(session)), addr).unwrap()
}

/// Deliver what has arrived within 5 ms; every completion must be a success.
fn poll_ok(client: &mut PipelinedClient) -> u64 {
    client
        .poll_each(Duration::from_millis(5), |done| {
            done.result.unwrap();
        })
        .unwrap() as u64
}

/// Issue one batch and wait for its outcome — one batch in flight, the shape
/// a scenario reads best in (callers after throughput keep a window).
fn execute(
    client: &mut PipelinedClient,
    shard: ShardId,
    ops: &[ClusterOp],
) -> Result<Vec<OpResult>, DprError> {
    let seq = client.issue(shard, ops)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut outcome = None;
    while outcome.is_none() {
        assert!(Instant::now() < deadline, "no response to batch {seq}");
        client.poll_each(Duration::from_millis(5), |c| {
            if c.seq == seq {
                outcome = Some(c.result.map(<[OpResult]>::to_vec));
            }
        })?;
    }
    outcome.expect("loop exits on an outcome")
}

fn upsert(k: u64, v: u64) -> [ClusterOp; 1] {
    [ClusterOp::Upsert(Key::from_u64(k), Value::from_u64(v))]
}

fn read(k: u64) -> [ClusterOp; 1] {
    [ClusterOp::Read(Key::from_u64(k))]
}

/// Write `n` keys and read them back, routing the way the cluster does.
fn write_then_read(cluster: &Cluster, client: &mut PipelinedClient, n: u64) {
    for i in 0..n {
        let shard = cluster.owner_of(&Key::from_u64(i)).unwrap();
        let results = execute(client, shard, &upsert(i, i * 2)).unwrap();
        assert_eq!(results, vec![OpResult::Done]);
    }
    for i in 0..n {
        let shard = cluster.owner_of(&Key::from_u64(i)).unwrap();
        let results = execute(client, shard, &read(i)).unwrap();
        assert_eq!(results, vec![OpResult::Value(Some(Value::from_u64(i * 2)))]);
    }
}

/// A server no client ever reached shuts down promptly: its acceptor blocks
/// in `accept`, and `shutdown` wakes it with a connection of its own and
/// joins it, and every I/O thread, within 100 ms.
#[test]
fn an_unreached_server_shuts_down_within_100_ms() {
    let (cluster, server) = net_cluster(1, 0);
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    cluster.shutdown();
}

#[test]
fn fan_in_server_routes_shards_over_one_connection() {
    let (cluster, server) = net_cluster(3, 0);
    let mut client = connect(500, server.local_addr());
    assert_eq!(client.shards().len(), 3, "handshake advertises shards");
    write_then_read(&cluster, &mut client, 60);

    // Commit tracking entirely over the wire: no side channel to the
    // metadata store.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.session_mut().committed_prefix() < 120 {
        assert!(Instant::now() < deadline, "commits must arrive over wire");
        client.request_cut().unwrap();
        client.poll_each(Duration::from_millis(5), |_| {}).unwrap();
    }
    assert_eq!(client.session_mut().committed_count(), 120);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn commits_reach_socket_sessions_through_the_clusters_cut() {
    let (cluster, server) = net_cluster(2, 0);
    let mut client = connect(100, server.local_addr());
    write_then_read(&cluster, &mut client, 50);

    // Commits propagate through the same cut as bus clients.
    let cut_source = cluster.cut_source();
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.session_mut().refresh_commit(&cut_source()) < 100 {
        assert!(Instant::now() < deadline, "commits must arrive");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.session_mut().committed_count(), 100);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn socket_client_observes_failures_via_world_line() {
    let (cluster, server) = net_cluster(2, 0);
    let mut client = connect(101, server.local_addr());
    let shard = cluster.owner_of(&Key::from_u64(1)).unwrap();
    execute(&mut client, shard, &upsert(1, 1)).unwrap();

    // Two failures on one connection: each is reported with the world-line
    // the cluster is on now, and each time the connection goes on.
    for round in 1..=2u64 {
        cluster.inject_failure_at(0).unwrap();
        cluster.wait_recovered(Duration::from_secs(10)).unwrap();
        let wl = cluster.metadata().world_line().unwrap();
        assert_eq!(wl, WorldLine(round));

        // The first post-failure batch is rejected with a world-line
        // mismatch — same protocol error as on the bus — and idle polls
        // keep reporting it.
        let err = execute(&mut client, shard, &read(1));
        assert!(
            matches!(err, Err(DprError::WorldLineMismatch { current, .. }) if current == wl),
            "round {round}: got {err:?}"
        );
        let idle = client.poll_each(Duration::from_millis(1), |_| {});
        assert!(
            matches!(idle, Err(DprError::WorldLineMismatch { current, .. }) if current == wl),
            "round {round}: got {idle:?}"
        );
        // Recover the session: idle polls are quiet again and the same
        // connection carries the next batch.
        let cut = cluster.metadata().read_cut().unwrap();
        client.session_mut().handle_failure(wl, &cut);
        let idle = client.poll_each(Duration::from_millis(1), |_| {});
        assert!(matches!(idle, Ok(0)), "round {round}: got {idle:?}");
        let results = execute(&mut client, shard, &read(1)).unwrap();
        assert!(matches!(results[0], OpResult::Value(_)));
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn mixed_bus_and_socket_clients_share_one_cluster() {
    let (cluster, server) = net_cluster(2, 256);
    // A bus client writes...
    let mut bus = cluster.open_session().unwrap();
    bus.execute(upsert(7, 77).to_vec()).unwrap();
    // ...and a socket client reads it (linearizable single-owner routing).
    let mut tcp = connect(102, server.local_addr());
    let shard = cluster.owner_of(&Key::from_u64(7)).unwrap();
    let results = execute(&mut tcp, shard, &read(7)).unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(77))));

    // One request path under both: an `Incr` batch runs once, and the same
    // frame retransmitted over either plane is answered from the one cache.
    let header = BatchHeader {
        session: SessionId(103),
        op_count: 1,
        ..empty_header()
    };
    let mut incr = Vec::new();
    wire::encode_request(
        &mut incr,
        shard,
        9,
        &header,
        &[ClusterOp::Incr(Key::from_u64(7))],
    );
    let (me, inbox) = cluster.network().register();
    let worker = cluster.worker_endpoint(shard.0 as usize).unwrap();
    let over_bus = |frame: &Vec<u8>| {
        let frame = BusFrame {
            from: me,
            bytes: frame.clone().into(),
        };
        cluster.network().send(worker, frame).unwrap();
        let answer = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
        split_frame(&answer.bytes)
    };
    // An empty batch takes no serial and leaves nothing to remember: it must
    // not pass for the `Incr` that starts where it does.
    let mut empty = Vec::new();
    let nothing = BatchHeader {
        op_count: 0,
        ..header.clone()
    };
    wire::encode_request(&mut empty, shard, 8, &nothing, &[]);
    assert_eq!(over_bus(&empty).0.seq, 8);
    let (first, executed) = (over_bus(&incr), cluster.total_executed());
    let mut results = Vec::new();
    wire::decode_response_body(&first.1, &mut results)
        .unwrap()
        .unwrap();
    assert_eq!(results, [OpResult::Done]);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = Vec::new();
    Hello {
        session: header.session,
        epoch: 1,
        world_line: header.world_line,
    }
    .encode(&mut hello);
    raw.write_all(&hello).unwrap();
    assert_eq!(read_one_frame(&mut raw).0.kind, FrameKind::HelloAck);
    raw.write_all(&incr).unwrap();
    for again in [over_bus(&incr), read_one_frame(&mut raw)] {
        assert_eq!((again.0.kind, again.0.seq), (FrameKind::Response, 9));
        assert_eq!(again, first, "replayed, not recomputed");
    }
    assert_eq!(cluster.total_executed(), executed, "nothing ran twice");
    let results = execute(&mut tcp, shard, &read(7)).unwrap();
    assert_eq!(results[0], OpResult::Value(Some(Value::from_u64(78))));

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn pipelined_sessions_keep_many_batches_in_flight() {
    let (cluster, server) = net_cluster(2, 0);
    let addr = server.local_addr();
    const SESSIONS: usize = 4;
    const BATCHES: u64 = 40;

    let mut clients: Vec<PipelinedClient> = (0..SESSIONS)
        .map(|i| connect(600 + i as u64, addr))
        .collect();

    // Issue a full window on every session before reading anything: the
    // server must sustain many batches in flight per connection.
    let mut issued = [0u64; SESSIONS];
    let mut completed = [0u64; SESSIONS];
    let deadline = Instant::now() + Duration::from_secs(30);
    while completed.iter().any(|&c| c < BATCHES) {
        assert!(Instant::now() < deadline, "pipelined run stalled");
        for (i, client) in clients.iter_mut().enumerate() {
            while issued[i] < BATCHES && client.inflight() < 8 {
                let k = i as u64 * 1000 + issued[i];
                let shard = cluster.owner_of(&Key::from_u64(k)).unwrap();
                client.issue(shard, &upsert(k, issued[i])).unwrap();
                issued[i] += 1;
            }
            completed[i] += poll_ok(client);
        }
    }
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(completed[i], BATCHES);
        assert_eq!(client.inflight(), 0);
        assert_eq!(client.session_mut().issued(), BATCHES);
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn a_zero_wait_poll_never_blocks() {
    let (cluster, server) = net_cluster(1, 0);
    let mut client = connect(650, server.local_addr());
    // An idle connection: nothing arrives, and the answer to the cut query
    // sent half-way (a blocking write in between) completes no batch.
    let start = Instant::now();
    for i in 0..200 {
        if i == 100 {
            client.request_cut().unwrap();
        }
        assert_eq!(client.poll_each(Duration::ZERO, |_| {}).unwrap(), 0);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "zero waits blocked: {took:?}"
    );
    // A positive wait still waits, and bytes that arrive end it early.
    client.request_cut().unwrap();
    client.poll_each(Duration::from_secs(5), |_| {}).unwrap();
    assert!(start.elapsed() < Duration::from_secs(2));

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn reconnect_with_epoch_bump_is_exactly_once() {
    // Dedupe window on: the server replays cached replies for batches it
    // already executed, so a retransmit after reconnect cannot double-apply.
    let (cluster, server) = net_cluster(1, 256);
    let shard = cluster.workers()[0].shard();
    let mut client = connect(700, server.local_addr());

    let key = Key::from_u64(42);
    const INCRS: usize = 20;
    for _ in 0..INCRS {
        client
            .issue(shard, &[ClusterOp::Incr(key.clone())])
            .unwrap();
    }
    // Let some execute, then force a reconnect with everything unacked
    // from the client's point of view.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.inflight() > INCRS / 2 && Instant::now() < deadline {
        poll_ok(&mut client);
    }
    client.reconnect().unwrap(); // retransmits all inflight batches
    let deadline = Instant::now() + Duration::from_secs(20);
    while client.inflight() > 0 {
        assert!(Instant::now() < deadline, "reconnected run stalled");
        poll_ok(&mut client);
        client.retransmit_stalled(Duration::from_secs(2)).unwrap();
    }

    // Every increment applied exactly once despite the retransmissions.
    let value = execute(&mut client, shard, &[ClusterOp::Read(key)]).unwrap();
    assert_eq!(
        value,
        vec![OpResult::Value(Some(Value::from_u64(INCRS as u64)))]
    );

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn stale_epoch_connections_are_fenced() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    let hello = |epoch| {
        let mut buf = Vec::new();
        Hello {
            session: SessionId(800),
            epoch,
            world_line: WorldLine(1),
        }
        .encode(&mut buf);
        buf
    };

    // Epoch 3 accepted...
    let mut s1 = TcpStream::connect(addr).unwrap();
    s1.write_all(&hello(3)).unwrap();
    let (header, _) = read_one_frame(&mut s1);
    assert_eq!(header.kind, FrameKind::HelloAck);

    // ...so epoch 2 for the same session is a zombie and must be rejected.
    let mut s2 = TcpStream::connect(addr).unwrap();
    s2.write_all(&hello(2)).unwrap();
    assert_eq!(read_error(&mut s2), ProtoErrorCode::StaleEpoch);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn malformed_frames_are_rejected_and_other_conns_survive() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    let shard = cluster.workers()[0].shard();

    // A healthy client...
    let mut healthy = connect(900, addr);

    // ...and a vandal sending garbage magic (long enough to cover a full
    // frame header — shorter garbage just looks like a partial frame).
    let mut vandal = TcpStream::connect(addr).unwrap();
    vandal
        .write_all(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
        .unwrap();
    assert_eq!(read_error(&mut vandal), ProtoErrorCode::BadFrame);
    // The server closes the poisoned connection.
    let mut rest = Vec::new();
    vandal.read_to_end(&mut rest).unwrap();

    // Unknown frame kind is equally fatal for that connection.
    let mut vandal = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    wire::encode_control(&mut buf, FrameKind::CutReq, 1);
    buf[5] = 200; // out-of-range kind byte
    vandal.write_all(&buf).unwrap();
    read_error(&mut vandal);

    // A request before Hello is a handshake violation.
    let mut early = TcpStream::connect(addr).unwrap();
    let header = BatchHeader {
        session: SessionId(901),
        op_count: 1,
        ..empty_header()
    };
    let mut buf = Vec::new();
    wire::encode_request(&mut buf, shard, 7, &header, &read(1));
    early.write_all(&buf).unwrap();
    assert_eq!(read_error(&mut early), ProtoErrorCode::HandshakeRequired);

    // A truncated frame (half a body, then disconnect) must not wedge the
    // server: just drop the socket mid-frame.
    let mut trunc = TcpStream::connect(addr).unwrap();
    trunc.write_all(&buf[..buf.len() / 2]).unwrap();
    drop(trunc);

    // Through all of it the healthy connection keeps working.
    let results = execute(&mut healthy, shard, &upsert(5, 55)).unwrap();
    assert_eq!(results, vec![OpResult::Done]);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn unknown_shard_rejection_keeps_connection_open() {
    let (cluster, server) = net_cluster(1, 0);
    let shard = cluster.workers()[0].shard();
    let mut client = connect(910, server.local_addr());

    // Route to a shard the server does not host: per the spec this is a
    // recoverable Error frame, not a connection teardown...
    let err = execute(&mut client, ShardId(99), &read(1));
    assert!(matches!(err, Err(DprError::Invalid(_))), "got {err:?}");

    // ...so the same connection still serves real traffic.
    execute(&mut client, shard, &read(1)).unwrap();

    server.shutdown();
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Frame encode/decode property tests
// ---------------------------------------------------------------------------

fn arb_key() -> impl Strategy<Value = Key> {
    // Cover inline (≤ 24 B) and shared (> 24 B) representations.
    prop::collection::vec(0..255u8, 1..64).prop_map(|b| Key(Bytes::copy_from_slice(&b)))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop::collection::vec(0..255u8, 0..64).prop_map(|b| Value(Bytes::copy_from_slice(&b)))
}

fn arb_op() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        arb_key().prop_map(ClusterOp::Read),
        (arb_key(), arb_value()).prop_map(|(k, v)| ClusterOp::Upsert(k, v)),
        arb_key().prop_map(ClusterOp::Incr),
        arb_key().prop_map(ClusterOp::Delete),
    ]
}

fn arb_header() -> impl Strategy<Value = BatchHeader> {
    // The vendored proptest stub supports tuples up to arity 4, so nest.
    (
        (0u64..u64::MAX, 1u64..1 << 16, 0u64..1 << 40),
        (
            prop::collection::vec((0u32..64, 0u64..1 << 40), 0..6),
            0u64..u64::MAX,
            0u32..1 << 10,
        ),
    )
        .prop_map(|((session, wl, vlb), (deps, first, count))| BatchHeader {
            session: SessionId(session),
            world_line: WorldLine(wl),
            version_lower_bound: Version(vlb),
            deps: deps
                .into_iter()
                .map(|(s, v)| Token::new(ShardId(s), Version(v)))
                .collect(),
            first_serial: first,
            acked_below: first.saturating_sub(vlb),
            op_count: count,
        })
}

fn arb_error() -> impl Strategy<Value = DprError> {
    prop_oneof![
        (1..10u64, 1..10u64).prop_map(|(a, b)| DprError::WorldLineMismatch {
            requested: WorldLine(a),
            current: WorldLine(b),
        }),
        (0..64u32).prop_map(|s| DprError::NotOwner { shard: ShardId(s) }),
        Just(DprError::Recovering),
        Just(DprError::Timeout),
        (0..1000u32).prop_map(|n| DprError::Invalid(format!("bad {n}"))),
    ]
}

fn empty_header() -> BatchHeader {
    BatchHeader {
        session: SessionId(0),
        world_line: WorldLine(0),
        version_lower_bound: Version(0),
        deps: Vec::new(),
        first_serial: 0,
        acked_below: 0,
        op_count: 0,
    }
}

/// The complete frame at the front of `buf`: its header and its body.
fn split_frame(buf: &[u8]) -> (FrameHeader, Bytes) {
    let h = wire::decode_header(buf).unwrap().expect("whole header");
    (
        h,
        Bytes::copy_from_slice(&buf[wire::FRAME_HEADER_LEN..h.frame_len()]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request round-trips bit-exactly through the wire codec, and the
    /// encoding is streamable: decoding a concatenation yields the frames
    /// in order, and every strict prefix of a frame asks for more bytes.
    #[test]
    fn request_frames_round_trip(
        header in arb_header(),
        ops in prop::collection::vec(arb_op(), 0..12),
        shard in 0u32..128,
        seq in 0u64..u64::MAX,
    ) {
        let mut buf = Vec::new();
        wire::encode_request(&mut buf, ShardId(shard), seq, &header, &ops);
        // Prefixes never decode, never error.
        for cut in 0..buf.len() {
            match wire::decode_header(&buf[..cut]).unwrap() {
                None => prop_assert!(cut < wire::FRAME_HEADER_LEN),
                Some(h) => prop_assert!(h.frame_len() > cut),
            }
        }
        // Two frames back to back decode in order.
        let mut twice = buf.clone();
        twice.extend_from_slice(&buf);
        let (first, body) = split_frame(&twice);
        let (second, body2) = split_frame(&twice[first.frame_len()..]);
        prop_assert_eq!(first.frame_len() * 2, twice.len());
        prop_assert_eq!(first, second);
        prop_assert_eq!(&body, &body2);
        prop_assert_eq!((first.kind, first.shard, first.seq), (FrameKind::Request, shard, seq));
        let (mut got_header, mut got_ops) = (empty_header(), Vec::new());
        wire::decode_request_body_into(&body, &mut got_ops, &mut got_header).unwrap();
        prop_assert_eq!(got_header, header);
        prop_assert_eq!(got_ops, ops);
    }

    /// Response outcomes — results of every shape and every error variant —
    /// round-trip bit-exactly.
    #[test]
    fn response_frames_round_trip(
        shard in 0u32..128,
        (wl, version, first) in (1u64..1 << 16, 0u64..1 << 40, 0u64..u64::MAX),
        results in prop::collection::vec(prop_oneof![
            Just(OpResult::Done),
            Just(OpResult::Value(None)),
            arb_value().prop_map(|v| OpResult::Value(Some(v))),
        ], 0..12),
        err in arb_error(),
    ) {
        let reply = BatchReply {
            shard: ShardId(shard),
            world_line: WorldLine(wl),
            version: Version(version),
            first_serial: first,
            op_count: results.len() as u32,
        };
        let mut buf = Vec::new();
        wire::encode_response(&mut buf, shard, 3, Ok((&reply, &results)));
        let (h, body) = split_frame(&buf);
        prop_assert_eq!((h.kind, h.shard, h.seq, h.frame_len()), (FrameKind::Response, shard, 3, buf.len()));
        let mut got = Vec::new();
        prop_assert_eq!(wire::decode_response_body(&body, &mut got).unwrap(), Ok(reply));
        prop_assert_eq!(got, results);

        buf.clear();
        wire::encode_response(&mut buf, shard, 4, Err(&err));
        let (_, body) = split_frame(&buf);
        let mut got = Vec::new();
        prop_assert_eq!(wire::decode_response_body(&body, &mut got).unwrap(), Err(err));
        prop_assert!(got.is_empty());
    }

    /// Corrupting any single header byte of a valid frame never panics:
    /// the decoder either rejects it, asks for more bytes, or returns a
    /// (different) well-formed header whose body then parses or is rejected
    /// — importantly it never reads out of bounds or wraps lengths.
    #[test]
    fn corrupted_headers_never_panic(
        byte in 0usize..wire::FRAME_HEADER_LEN,
        val in 0u32..256,
    ) {
        let mut buf = Vec::new();
        wire::encode_request(&mut buf, ShardId(0), 1, &empty_header(), &read(9));
        buf[byte] = val as u8;
        if let Ok(Some(h)) = wire::decode_header(&buf) {
            if h.frame_len() <= buf.len() {
                let (_, body) = split_frame(&buf);
                let _ = wire::decode_request_body_into(&body, &mut Vec::new(), &mut empty_header());
                let _ = wire::decode_response_body(&body, &mut Vec::new());
                let _ = Hello::from_body(&body);
                let _ = wire::HelloAck::from_body(&body);
                let _ = wire::CutResponse::from_body(&body);
                let _ = ProtoError::from_body(&body);
            }
        }
    }
}

/// Read exactly one frame from a blocking socket (test helper).
fn read_one_frame(stream: &mut TcpStream) -> (FrameHeader, Bytes) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(h) = wire::decode_header(&buf).unwrap() {
            if h.frame_len() <= buf.len() {
                return split_frame(&buf);
            }
        }
        let n = stream.read(&mut chunk).expect("peer closed before frame");
        assert!(n > 0, "peer closed before frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Read one frame, which must be an `Error`, and return its code.
fn read_error(stream: &mut TcpStream) -> ProtoErrorCode {
    let (header, body) = read_one_frame(stream);
    assert_eq!(header.kind, FrameKind::Error);
    ProtoError::from_body(&body).unwrap().code
}
