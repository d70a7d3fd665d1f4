//! Adversarial wire-protocol tests over real loopback sockets: every
//! malformed byte stream an untrusted peer can produce must end in a
//! classified error (counted in `service.rejects.<class>`) and a closed
//! connection — with the daemon itself staying alive and queryable.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use instameasure_core::engine::EngineConfig;
use instameasure_core::InstaMeasureConfig;
use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::wire::{
    read_frame, Opcode, Request, Response, DEFAULT_MAX_PAYLOAD, MAGIC,
};
use instameasure_service::ServiceClient;

fn test_server() -> Server {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .engine(EngineConfig {
            workers: 2,
            batch_size: 64,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            ..EngineConfig::default()
        })
        .read_timeout(Duration::from_millis(500))
        .build()
        .expect("static test config is valid");
    Server::start(cfg).expect("loopback bind")
}

fn raw_connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Reads one reply frame and asserts it is a classified error of `class`.
fn expect_error_class(stream: &mut TcpStream, class: &str) {
    let frame = read_frame(stream, DEFAULT_MAX_PAYLOAD)
        .expect("reply frame readable")
        .expect("server must reply before closing");
    match Response::decode(&frame).expect("reply decodes") {
        Response::Error { class: got, message } => {
            assert_eq!(got, class, "wrong error class (message: {message})");
        }
        other => panic!("expected error reply, got {other:?}"),
    }
}

/// The daemon must still answer queries after whatever the test did.
fn assert_alive(server: &Server) {
    let mut ops = ServiceClient::connect(server.local_addr()).expect("daemon still accepting");
    let status = ops.status().expect("daemon still answering");
    assert_eq!(status.workers, 2);
}

fn reject_count(server: &Server, class: &str) -> u64 {
    server.registry().snapshot().counter(&format!("service.rejects.{class}")).unwrap_or(0)
}

/// Polls until `cond` holds or the deadline passes.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn garbage_magic_is_classified_and_nonfatal() {
    let server = test_server();
    let mut s = raw_connect(&server);
    s.write_all(b"XXXX\x01\x00\x00\x00\x00").unwrap();
    s.flush().unwrap();
    expect_error_class(&mut s, "bad_magic");
    assert!(wait_for(|| reject_count(&server, "bad_magic") >= 1));
    assert_alive(&server);
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let server = test_server();
    let mut s = raw_connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(Opcode::IngestBatch as u8);
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    s.write_all(&frame).unwrap();
    s.flush().unwrap();
    expect_error_class(&mut s, "oversized");
    assert!(wait_for(|| reject_count(&server, "oversized") >= 1));
    assert_alive(&server);
}

#[test]
fn unknown_opcode_is_classified() {
    let server = test_server();
    let mut s = raw_connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(0x55);
    frame.extend_from_slice(&0u32.to_be_bytes());
    s.write_all(&frame).unwrap();
    s.flush().unwrap();
    expect_error_class(&mut s, "unknown_opcode");
    assert_alive(&server);
}

#[test]
fn bad_payload_in_query_is_classified() {
    let server = test_server();
    let mut s = raw_connect(&server);
    // QueryFlow demands exactly one 13-byte key; send 3 bytes.
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(Opcode::QueryFlow as u8);
    frame.extend_from_slice(&3u32.to_be_bytes());
    frame.extend_from_slice(&[1, 2, 3]);
    s.write_all(&frame).unwrap();
    s.flush().unwrap();
    expect_error_class(&mut s, "bad_payload");
    assert!(wait_for(|| reject_count(&server, "bad_payload") >= 1));
    assert_alive(&server);
}

#[test]
fn truncated_header_mid_frame_is_counted() {
    let server = test_server();
    let mut s = raw_connect(&server);
    // Five of nine header bytes, then a write-side shutdown: the server
    // sees EOF mid-header and must classify it as a truncation.
    s.write_all(&MAGIC).unwrap();
    s.write_all(&[Opcode::QueryStatus as u8]).unwrap();
    s.flush().unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    // The error reply may or may not reach us; the counter must.
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
    assert!(wait_for(|| reject_count(&server, "truncated") >= 1));
    assert_alive(&server);
}

#[test]
fn abrupt_disconnect_mid_batch_keeps_complete_frames() {
    let server = test_server();
    let key = FlowKey::new([10, 1, 1, 1], [10, 1, 1, 2], 555, 80, Protocol::Udp);
    let records: Vec<PacketRecord> = (0..100).map(|t| PacketRecord::new(key, 64, t)).collect();

    {
        let mut s = raw_connect(&server);
        // One complete ingest frame...
        let complete = Request::IngestBatch(records.clone()).encode();
        let mut wire = Vec::new();
        instameasure_service::wire::write_frame(&mut wire, complete.opcode, &complete.payload)
            .unwrap();
        s.write_all(&wire).unwrap();
        // ...then the same frame cut off halfway through its payload, and
        // an abrupt drop of the socket.
        s.write_all(&wire[..wire.len() / 2]).unwrap();
        s.flush().unwrap();
    }

    // Only the complete frame's packets may ever be accounted: exactly
    // 100 submitted and processed, the half frame discarded.
    assert!(
        wait_for(|| {
            let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
            let st = ops.status().unwrap();
            st.packets_submitted == 100 && st.packets_processed == 100
        }),
        "complete frame must be flushed by the dropped connection's lane"
    );
    let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
    let (pkts, _) = ops.query_flow(&key).unwrap();
    assert!(pkts > 0.0, "the surviving batch must be measurable");
    let report = ops.shutdown().unwrap();
    assert_eq!(report.packets_submitted, 100);
    assert_eq!(report.packets_processed, 100);
    server.join();
}

#[test]
fn slow_loris_pusher_does_not_wedge_the_daemon() {
    let server = test_server();
    let key = FlowKey::new([10, 2, 2, 1], [10, 2, 2, 2], 777, 80, Protocol::Tcp);
    let records: Vec<PacketRecord> = (0..50).map(|t| PacketRecord::new(key, 64, t)).collect();
    let complete = Request::IngestBatch(records).encode();
    let mut wire = Vec::new();
    instameasure_service::wire::write_frame(&mut wire, complete.opcode, &complete.payload).unwrap();

    let mut loris = raw_connect(&server);
    // Trickle the frame a byte at a time. Each byte lands well inside the
    // per-read timeout, so the connection is legal — just hostile-slow.
    // The daemon must keep serving other clients the whole time: a
    // handler thread owns this socket, never a shard worker.
    let mut fed = 0usize;
    for chunk in wire.chunks(1) {
        loris.write_all(chunk).unwrap();
        loris.flush().unwrap();
        fed += 1;
        // Interleave a full query round-trip between dribbled bytes at a
        // few checkpoints — liveness while the loris is mid-frame.
        if fed.is_multiple_of(16) {
            assert_alive(&server);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // The dribbled frame was complete, so its packets must be accepted:
    // a fin handshake on the same connection acks all 50.
    let fin = Request::IngestFin.encode();
    let mut fin_wire = Vec::new();
    instameasure_service::wire::write_frame(&mut fin_wire, fin.opcode, &fin.payload).unwrap();
    loris.write_all(&fin_wire).unwrap();
    loris.flush().unwrap();
    let reply = read_frame(&mut loris, DEFAULT_MAX_PAYLOAD)
        .expect("reply readable")
        .expect("server replies to a completed frame");
    match Response::decode(&reply).expect("reply decodes") {
        Response::FinAck { packets } => assert_eq!(packets, 50),
        other => panic!("expected fin ack, got {other:?}"),
    }
    assert_alive(&server);
}

#[test]
fn slow_loris_stalled_past_timeout_is_cut_loose() {
    let server = test_server();
    let mut loris = raw_connect(&server);
    // Three header bytes, then silence longer than the read timeout: the
    // daemon must cut the connection (timeout or truncation class) and
    // keep serving everyone else.
    loris.write_all(&MAGIC[..3]).unwrap();
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(900));
    assert!(
        wait_for(|| {
            let snap = server.registry().snapshot();
            snap.counter("service.timeouts").unwrap_or(0) + snap.counter_sum("service.rejects") >= 1
        }),
        "a loris slower than the read timeout must be classified and dropped"
    );
    let mut sink = Vec::new();
    let _ = loris.read_to_end(&mut sink); // server closed on us
    assert_alive(&server);
}

#[test]
fn pusher_disconnecting_mid_ring_full_does_not_wedge_a_shard() {
    // Tiny rings plus an artificial per-batch worker stall: the pusher's
    // handler thread blocks shipping into a full ring, and the pusher
    // then vanishes. The shard worker must keep draining, the daemon
    // must keep answering queries, and shutdown accounting must be
    // packet-exact (everything shipped is processed; the torn half
    // frame is discarded).
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .engine(EngineConfig {
            workers: 2,
            batch_size: 32,
            queue_batches: 2,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            ..EngineConfig::default()
        })
        .read_timeout(Duration::from_millis(500))
        .build()
        .expect("static test config is valid");
    let server = Server::start(cfg).expect("loopback bind");
    server.engine().debug_set_worker_stall(1_000_000); // 1 ms per batch

    let key = FlowKey::new([10, 3, 3, 1], [10, 3, 3, 2], 888, 80, Protocol::Udp);
    let records: Vec<PacketRecord> = (0..4_000).map(|t| PacketRecord::new(key, 64, t)).collect();
    let complete = Request::IngestBatch(records).encode();
    let mut wire = Vec::new();
    instameasure_service::wire::write_frame(&mut wire, complete.opcode, &complete.payload).unwrap();

    {
        let mut s = raw_connect(&server);
        // One full frame (125 batches of 32 against a 2-batch ring: the
        // handler will be parked on a full ring while the worker dawdles)
        // then half of a second frame, then an abrupt drop.
        s.write_all(&wire).unwrap();
        s.write_all(&wire[..wire.len() / 2]).unwrap();
        s.flush().unwrap();
    }

    // Queries must flow while the ring is congested.
    assert_alive(&server);
    server.engine().debug_set_worker_stall(0);

    assert!(
        wait_for(|| {
            let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
            let st = ops.status().unwrap();
            st.packets_submitted == 4_000 && st.packets_processed == 4_000
        }),
        "the dropped pusher's complete frame must drain fully"
    );
    let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
    let report = ops.shutdown().unwrap();
    assert_eq!(report.packets_submitted, 4_000);
    assert_eq!(report.packets_processed, 4_000);
    server.join();
}

#[test]
fn malformed_storm_never_kills_the_daemon() {
    let server = test_server();
    let payloads: Vec<Vec<u8>> =
        vec![b"GET / HTTP/1.1\r\n\r\n".to_vec(), vec![0u8; 9], vec![0xFF; 64], MAGIC.to_vec(), {
            let mut v = MAGIC.to_vec();
            v.push(Opcode::IngestBatch as u8);
            v.extend_from_slice(&(DEFAULT_MAX_PAYLOAD + 1).to_be_bytes());
            v
        }];
    for p in &payloads {
        let mut s = raw_connect(&server);
        let _ = s.write_all(p);
        let _ = s.flush();
        drop(s);
    }
    assert!(wait_for(|| {
        server.registry().snapshot().counter_sum("service.rejects")
            + server.registry().snapshot().counter("service.timeouts").unwrap_or(0)
            >= 1
    }));
    assert_alive(&server);
}
