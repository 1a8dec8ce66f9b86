//! End-to-end tests of the event-driven server: binary and JSON clients
//! against one listener, byte-identity across protocols, the
//! fingerprint fast path, frame caps, ordering, and drain-on-shutdown.
//! The ordering and frame-cap cases also run through a router.
#![cfg(unix)]

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow_service::{Client, ClientConfig, EventServer, Frame, Json, Service, ServiceConfig};
use arrayflow_store::codec::decode_report;
use arrayflow_wire::proto::{AnalyzeRequest, Request as WireRequest, Response as WireResponse};
use arrayflow_wire::{encode_frame, FrameDecoder, FrameEvent};
use common::{Front, Stack};

const SRC: &str = "do i = 1, 100 A[i+2] := A[i] + x; end";

fn start(config: ServiceConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let service = Service::start(config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EventServer::attach(listener, service);
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn client(addr: SocketAddr) -> Client {
    Client::new(
        addr.to_string(),
        ClientConfig {
            backoff_seed: Some(7),
            ..Default::default()
        },
    )
}

fn stop(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut c = client(addr);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn json_and_binary_reports_are_byte_identical() {
    let (addr, handle) = start(ServiceConfig::default());

    // JSON path first (this also populates the cache).
    let mut jc = client(addr);
    let line = jc.analyze(SRC).unwrap();
    let json = Json::parse(line.as_bytes()).unwrap();
    let loops = json
        .get("result")
        .and_then(|r| r.get("loops"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(loops.len(), 1);
    let json_fp = loops[0].get("fingerprint").and_then(Json::as_str).unwrap();
    let json_report = loops[0].get("report").and_then(Json::as_str).unwrap();

    // Binary path: same program, decoded report must render to the very
    // same bytes the JSON response carried.
    let mut bc = client(addr);
    let ok = bc.analyze_binary(SRC).unwrap();
    assert_eq!(ok.loops.len(), 1);
    let report = decode_report(&ok.loops[0].report).unwrap();
    assert_eq!(report.render(), json_report);
    assert_eq!(
        format!("{:032x}", u128::from_le_bytes(ok.loops[0].fingerprint)),
        json_fp
    );

    stop(addr, handle);
}

#[test]
fn fingerprint_hit_matches_full_parse_byte_for_byte() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);

    let full = c.analyze_binary(SRC).unwrap();
    let fp = full.loops[0].fingerprint;

    let hit = c.analyze_fingerprint(fp, None).unwrap();
    assert_eq!(hit.cache_hits, 1);
    assert_eq!(hit.cache_misses, 0);
    assert_eq!(hit.loops.len(), 1);
    assert_eq!(hit.loops[0].report, full.loops[0].report);

    // The counter is visible in the exposition the binary metrics verb
    // returns.
    let metrics = c.metrics_prometheus().unwrap();
    assert!(metrics.contains("arrayflow_fingerprint_fast_hits_total 1"));

    stop(addr, handle);
}

#[test]
fn unknown_fingerprint_falls_back_to_shipped_source() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);

    // Nothing cached: the probe alone errors...
    let err = c.analyze_fingerprint([3; 16], None).unwrap_err();
    assert!(err.to_string().contains("unknown fingerprint"), "{err}");

    // ...but with source attached the same request analyzes in full.
    let ok = c.analyze_fingerprint([3; 16], Some(SRC)).unwrap();
    assert_eq!(ok.loops.len(), 1);
    assert_eq!(ok.cache_misses, 1);

    stop(addr, handle);
}

#[test]
fn one_listener_speaks_both_protocols() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);
    // Interleave: the server detects the protocol per connection, and the
    // client keeps one cached connection per mode — so alternating
    // protocols costs exactly one dial each, not one per switch.
    c.ping().unwrap();
    c.ping_binary().unwrap();
    c.ping().unwrap();
    assert_eq!(c.connects(), 2);
    stop(addr, handle);
}

fn pipelined_order(front: Front) {
    let stack = Stack::start(front, ServiceConfig::default(), Duration::from_secs(60));

    let mut stream = TcpStream::connect(stack.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A burst of pings and analyzes in one write: responses must come
    // back in request order even though analyze runs on workers and ping
    // answers inline.
    let mut burst = Vec::new();
    let n = 16u64;
    for id in 0..n {
        let req = if id % 2 == 0 {
            WireRequest::Ping { id }
        } else {
            WireRequest::Analyze(AnalyzeRequest {
                id,
                fingerprint: None,
                problems: None,
                distance_bound: None,
                source: Some(SRC.as_bytes().to_vec()),
            })
        };
        burst.extend(encode_frame(req.tag(), &req.encode_payload()));
    }
    stream.write_all(&burst).unwrap();

    let mut decoder = FrameDecoder::new(usize::MAX);
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while got.len() < n as usize {
        let read = stream.read(&mut buf).unwrap();
        assert!(read > 0, "server closed early");
        decoder.extend(&buf[..read]);
        while let Some(FrameEvent::Frame { tag, payload }) = decoder.next().unwrap() {
            got.push(WireResponse::decode(tag, &payload).unwrap());
        }
    }
    for (i, resp) in got.iter().enumerate() {
        assert_eq!(resp.id(), i as u64, "response out of order: {resp:?}");
    }

    client(stack.addr).shutdown().unwrap();
    stack.join();
}

#[test]
fn pipelined_binary_requests_answer_in_request_order() {
    pipelined_order(Front::Node);
}

#[test]
fn pipelined_binary_requests_answer_in_request_order_through_a_router() {
    pipelined_order(Front::Router);
}

fn oversized_binary_frame(front: Front) {
    let stack = Stack::start(
        front,
        ServiceConfig {
            max_frame_bytes: 1024,
            ..Default::default()
        },
        Duration::from_secs(60),
    );

    let mut stream = TcpStream::connect(stack.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let big = WireRequest::Analyze(AnalyzeRequest {
        id: 1,
        fingerprint: None,
        problems: None,
        distance_bound: None,
        source: Some(vec![b'x'; 1 << 20]),
    });
    stream
        .write_all(&encode_frame(big.tag(), &big.encode_payload()))
        .unwrap();
    let ping = WireRequest::Ping { id: 2 };
    stream
        .write_all(&encode_frame(ping.tag(), &ping.encode_payload()))
        .unwrap();

    let mut decoder = FrameDecoder::new(usize::MAX);
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while got.len() < 2 {
        let read = stream.read(&mut buf).unwrap();
        assert!(read > 0, "server closed early");
        decoder.extend(&buf[..read]);
        while let Some(FrameEvent::Frame { tag, payload }) = decoder.next().unwrap() {
            got.push(WireResponse::decode(tag, &payload).unwrap());
        }
    }
    assert!(
        matches!(&got[0], WireResponse::Err { message, .. } if message.contains("exceeds")),
        "{:?}",
        got[0]
    );
    assert!(matches!(&got[1], WireResponse::Text { id: 2, .. }));

    // The oversized frame landed in its own counter, not the taxonomy.
    let mut c = client(stack.addr);
    let metrics = c.metrics_prometheus().unwrap();
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("arrayflow_oversized_frames_total") && l.ends_with(" 1")),
        "oversized counter missing"
    );

    c.shutdown().unwrap();
    stack.join();
}

#[test]
fn oversized_binary_frame_is_rejected_and_the_connection_survives() {
    oversized_binary_frame(Front::Node);
}

#[test]
fn oversized_binary_frame_is_rejected_by_a_router_and_the_connection_survives() {
    oversized_binary_frame(Front::Router);
}

#[test]
fn binary_shutdown_drains_the_server() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);
    let id = 42;
    match c.request_binary(&WireRequest::Shutdown { id }).unwrap() {
        WireResponse::Text { id: got, text } => {
            assert_eq!(got, id);
            assert_eq!(text, "shutting down");
        }
        other => panic!("unexpected response {other:?}"),
    }
    handle.join().unwrap().unwrap();
}

#[test]
fn tcp_and_in_process_callers_share_the_answer_entry() {
    // The event server must answer a JSON frame with the exact same line
    // an in-process caller gets from the same answer entry.
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);
    let line = c.analyze(SRC).unwrap();

    let svc = Service::start(ServiceConfig::default()).unwrap();
    let frame = format!(
        "{{\"id\": {}, \"verb\": \"analyze\", \"program\": {}}}",
        1,
        Json::Str(SRC.into())
    );
    let direct = svc.handle_frame(Frame::Json(frame.as_bytes()));
    svc.shutdown();
    svc.join_workers();

    // Ids differ (client picks its own); compare the result payloads.
    let over_wire = Json::parse(line.as_bytes()).unwrap();
    let in_proc = Json::parse(&direct).unwrap();
    assert_eq!(
        over_wire.get("result").unwrap().to_string(),
        in_proc.get("result").unwrap().to_string()
    );

    stop(addr, handle);
}

#[test]
fn open_and_delta_round_trip_matches_fresh_analysis() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);

    let base = "do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i+1]; end";
    let opened = c.open_session_binary(base).unwrap();
    let base_fp = opened.fingerprint;

    let stmt = {
        let mut p = arrayflow_ir::parse_program(base).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[1].0 as u64
    };
    let d = c
        .delta_binary(opened.session, base_fp, stmt, "B[i] := A[i-3] * 2;")
        .unwrap();
    assert_eq!(d.session, opened.session);
    assert!(!d.fallback);
    assert!(d.dirty_columns <= d.total_columns && d.total_columns > 0);
    assert_ne!(
        d.fingerprint, base_fp,
        "the edit changes the canonical loop"
    );

    // Fresh full analysis of the edited source: byte-identical report.
    let fresh = c
        .analyze_binary("do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i-3] * 2; end")
        .unwrap();
    assert_eq!(fresh.loops.len(), 1);
    assert_eq!(fresh.loops[0].fingerprint, d.fingerprint);
    assert_eq!(
        decode_report(&fresh.loops[0].report).unwrap().render(),
        decode_report(&d.report).unwrap().render()
    );

    // And the JSON verbs against the very same listener agree byte-for-byte.
    let opened_json = c.open_session(base).unwrap();
    assert_eq!(
        opened_json.fingerprint,
        format!("{:032x}", u128::from_le_bytes(base_fp))
    );
    let line = c
        .delta(
            opened_json.session,
            &opened_json.fingerprint,
            stmt,
            "B[i] := A[i-3] * 2;",
        )
        .unwrap();
    let json = Json::parse(line.as_bytes()).unwrap();
    let result = json.get("result").unwrap();
    assert_eq!(
        result.get("report").and_then(Json::as_str).unwrap(),
        decode_report(&d.report).unwrap().render()
    );
    assert_eq!(result.get("fallback").and_then(Json::as_bool), Some(false));

    stop(addr, handle);
}

#[test]
fn structural_delta_falls_back_and_expired_session_is_an_analysis_error() {
    let (addr, handle) = start(ServiceConfig::default());
    let mut c = client(addr);

    let base = "do i = 1, 50 A[i+1] := A[i]; B[i] := A[i]; end";
    let opened = c.open_session_binary(base).unwrap();
    let stmt = {
        let mut p = arrayflow_ir::parse_program(base).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[0].0 as u64
    };

    // A conditional replacement changes the flow graph: full re-analysis.
    let d = c
        .delta_binary(
            opened.session,
            opened.fingerprint,
            stmt,
            "if A[i] > 0 then A[i+1] := A[i]; end",
        )
        .unwrap();
    assert!(d.fallback);
    assert_eq!(d.dirty_columns, 0);

    // Unknown sessions come back as analysis errors, not dead connections.
    let err = c
        .delta_binary(999_999, opened.fingerprint, stmt, "A[i+1] := A[i];")
        .unwrap_err();
    assert!(err.to_string().contains("session"), "{err}");

    // The service survived both and still answers.
    assert!(c.ping().is_ok());

    stop(addr, handle);
}
