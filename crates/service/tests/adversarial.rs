//! Never-take-down suite: hostile and degenerate input through a live
//! service over real TCP. The invariant under attack is always the
//! same — every line sent gets exactly one framed JSON response (ok or
//! structured error), the connection is never dropped, and the service
//! still answers clean work afterwards. The framing cases run against a
//! node and against a router in front of one.
#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use arrayflow_service::{kind_from_byte, ErrorKind, Json, ServiceConfig};
use arrayflow_wire::encode_frame;
use arrayflow_wire::frame::read_frame;
use arrayflow_wire::proto::Response;
use common::{Front, Stack};

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: SocketAddr) -> Session {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Session {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends raw bytes (a newline is appended) and demands one framed
    /// JSON response on a live connection.
    fn send_raw(&mut self, payload: &[u8]) -> Json {
        self.writer.write_all(payload).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .expect("response after hostile frame");
        assert!(n > 0, "connection dropped after {payload:?}");
        Json::parse(resp.trim_end().as_bytes())
            .unwrap_or_else(|e| panic!("unframed response {resp:?}: {e}"))
    }

    fn send(&mut self, line: &str) -> Json {
        self.send_raw(line.as_bytes())
    }

    /// The connection still does useful work: one clean analyze.
    fn assert_still_alive(&mut self) {
        let resp = self
            .send(r#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "clean analyze after hostility failed: {resp:?}"
        );
    }
}

fn start(front: Front) -> Stack {
    start_with(
        front,
        ServiceConfig {
            max_frame_bytes: 64 * 1024,
            ..ServiceConfig::default()
        },
    )
}

fn start_with(front: Front, config: ServiceConfig) -> Stack {
    Stack::start(front, config, Duration::from_secs(60))
}

fn error_kind(resp: &Json) -> &str {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error.kind")
}

fn hostile_frames(front: Front) {
    let stack = start(front);
    let mut s = Session::connect(stack.addr);

    // Leading whitespace still sniffs as JSON.
    let resp = s.send(r#" {"id": 1, "verb": "ping"}"#);
    assert_eq!(resp.get("result").and_then(Json::as_str), Some("pong"));

    // Binary garbage, invalid UTF-8, empty line, bare words.
    for payload in [
        b"\x00\x01\x02\xff\xfe garbage".as_slice(),
        b"\xc3\x28".as_slice(), // invalid UTF-8 sequence
        b"".as_slice(),
        b"GET / HTTP/1.1".as_slice(),
    ] {
        let resp = s.send_raw(payload);
        assert!(
            ["protocol", "parse"].contains(&error_kind(&resp)),
            "unexpected kind for {payload:?}: {resp:?}"
        );
    }

    // Structurally valid JSON that abuses the protocol.
    for frame in [
        r#"{}"#,
        r#"{"verb": 42}"#,
        r#"{"verb": "conquer"}"#,
        r#"{"id": {"nested": "id"}, "verb": "analyze"}"#,
        r#"{"verb": "analyze", "program": 17}"#,
        r#"{"verb": "analyze", "program": "x := 1;", "problems": ["zeta"]}"#,
        r#"[1, 2, 3]"#,
        r#""just a string""#,
        r#"null"#,
    ] {
        let resp = s.send(frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{frame}"
        );
    }

    s.assert_still_alive();
    s.send(r#"{"id": 9, "verb": "shutdown"}"#);
    stack.join();
}

#[test]
fn hostile_frames_never_take_the_connection_down() {
    hostile_frames(Front::Node);
}

#[test]
fn hostile_frames_never_take_a_routed_connection_down() {
    hostile_frames(Front::Router);
}

fn deep_nesting(front: Front) {
    let stack = start(front);
    let mut s = Session::connect(stack.addr);

    // 500 nested arrays: far past the parser's depth cap, which must
    // answer with an error instead of blowing the stack.
    let mut deep = String::with_capacity(1100);
    deep.extend(std::iter::repeat_n('[', 500));
    deep.extend(std::iter::repeat_n(']', 500));
    let resp = s.send(&deep);
    assert_eq!(error_kind(&resp), "protocol");

    // Same, hidden inside a legitimate field.
    let mut frame = String::from(r#"{"id": 1, "verb": "analyze", "program": "#);
    frame.extend(std::iter::repeat_n('[', 400));
    frame.extend(std::iter::repeat_n(']', 400));
    frame.push('}');
    let resp = s.send(&frame);
    assert_eq!(error_kind(&resp), "protocol");

    s.assert_still_alive();
    s.send(r#"{"id": 9, "verb": "shutdown"}"#);
    stack.join();
}

#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    deep_nesting(Front::Node);
}

#[test]
fn deep_nesting_is_rejected_not_overflowed_through_a_router() {
    deep_nesting(Front::Router);
}

fn oversized_frames(front: Front) {
    let stack = start(front);
    let mut s = Session::connect(stack.addr);

    // 4 MiB line against a 64 KiB cap: discarded while streaming, then
    // answered, and the framing resynchronizes on the next newline.
    let huge = "x".repeat(4 * 1024 * 1024);
    let resp = s.send(&huge);
    assert_eq!(error_kind(&resp), "protocol");

    s.assert_still_alive();
    s.send(r#"{"id": 9, "verb": "shutdown"}"#);
    stack.join();
}

#[test]
fn oversized_frames_are_discarded_in_bounded_memory() {
    oversized_frames(Front::Node);
}

#[test]
fn oversized_frames_are_discarded_in_bounded_memory_by_a_router() {
    oversized_frames(Front::Router);
}

#[test]
fn an_unterminated_final_line_is_answered_on_every_edge() {
    for front in [Front::Node, Front::Router] {
        let stack = start(front);
        let mut stream = TcpStream::connect(stack.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(br#"{"id": 2, "verb": "ping"}"#).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert_eq!(
            answer, "{\"id\":2,\"ok\":true,\"result\":\"pong\"}\n",
            "{front:?}"
        );
        Session::connect(stack.addr).send(r#"{"id": 9, "verb": "shutdown"}"#);
        stack.join();
    }
}

#[test]
fn the_retired_stats_verb_and_tag_answer_protocol_on_every_edge() {
    for front in [Front::Node, Front::Router] {
        let stack = start(front);
        let mut s = Session::connect(stack.addr);
        let resp = s.send(r#"{"id": 6, "verb": "stats"}"#);
        assert_eq!(error_kind(&resp), "protocol", "{front:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        assert_eq!(message.and_then(Json::as_str), Some("unknown verb `stats`"));
        // Tag 0x03 stays reserved: a frame carrying only an id.
        let mut stream = TcpStream::connect(stack.addr).expect("connect");
        stream.write_all(&encode_frame(0x03, &[6])).unwrap();
        let (tag, payload) = read_frame(&mut stream, 1 << 20).unwrap();
        match Response::decode(tag, &payload) {
            Ok(Response::Err { kind, .. }) => {
                assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol), "{front:?}")
            }
            other => panic!("{front:?}: expected an error frame, got {other:?}"),
        }
        s.send(r#"{"id": 9, "verb": "shutdown"}"#);
        stack.join();
    }
}

#[test]
fn degenerate_programs_are_answered_not_crashed() {
    let stack = start(Front::Node);
    let mut s = Session::connect(stack.addr);

    let mut nested = String::new();
    for d in 0..24 {
        nested.push_str(&format!("do i{d} = 1, 4 "));
    }
    nested.push_str("A[i0+1] := A[i0]; ");
    nested.extend(std::iter::repeat_n("end ", 24));

    let degenerates = [
        // Zero-trip and backwards loops.
        "do i = 1, 0 A[i+1] := A[i]; end".to_string(),
        "do i = 9, 3 A[i+1] := A[i]; end".to_string(),
        // Enormous bounds (the solver is bound-independent).
        "do i = 1, 1000000000 A[i+1] := A[i]; end".to_string(),
        // Empty-ish bodies and scalar-only loops.
        "x := 1;".to_string(),
        "do i = 1, 10 x := x + 1; end".to_string(),
        // Self-dependence at distance zero.
        "do i = 1, 10 A[i] := A[i]; end".to_string(),
        // Deep loop nest.
        nested,
        // A loop whose subscripts stress the distance lattice.
        "do i = 1, 100 A[i+99] := A[i] + A[i+50]; B[i] := A[i+99]; end".to_string(),
    ];
    for (i, p) in degenerates.iter().enumerate() {
        let frame = format!(
            r#"{{"id": {i}, "verb": "analyze", "program": {}}}"#,
            Json::Str(p.clone())
        );
        let resp = s.send(&frame);
        // ok or a framed analysis/parse error — anything but a dropped
        // connection or a hung server.
        assert!(
            resp.get("ok").and_then(Json::as_bool).is_some(),
            "unframed response for degenerate program {i}: {resp:?}"
        );
    }

    s.assert_still_alive();
    s.send(r#"{"id": 9, "verb": "shutdown"}"#);
    stack.join();
}

#[test]
fn overflowing_subscripts_are_analyzed_without_a_worker_panic() {
    // Accepted programs whose subscript arithmetic overflows i64 (offset
    // differences) or i128 (the must-mode kill range): each is answered
    // with a report, and no worker panics on the way.
    let stack = start(Front::Node);
    let mut s = Session::connect(stack.addr);
    let programs = [
        "do i = 1, UB X[i + 9223372036854775807] := 0; X[i - 9223372036854775807] := 0; end",
        "do i = 1, 9000000000000000000 X[4611686018427387903*i] := 0; X[i+1] := X[3*i]; end",
    ];
    for (i, p) in programs.iter().enumerate() {
        let frame = format!(
            r#"{{"id": {i}, "verb": "analyze", "program": {}}}"#,
            Json::Str(p.to_string())
        );
        let resp = s.send(&frame);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{p}: {resp:?}"
        );
    }
    let resp = s.send(r#"{"id": 7, "verb": "metrics"}"#);
    let text = common::exposition(&resp);
    let panics = common::scrape(&text, "arrayflow_worker_panics_total", &[]);
    assert_eq!(panics, Some(0));
    s.send(r#"{"id": 9, "verb": "shutdown"}"#);
    stack.join();
}

#[test]
fn fault_plan_plus_hostility_still_answers_everything() {
    // The adversarial stream with faults injected underneath: parse
    // errors, panics, and hostile frames interleaved — every frame is
    // still answered on a live connection.
    let config = ServiceConfig {
        faults: Some(std::sync::Arc::new(
            arrayflow_resilience::FaultPlan::parse("seed=11,solver_panic=50%").unwrap(),
        )),
        ..ServiceConfig::default()
    };
    let stack = start_with(Front::Node, config);
    let mut s = Session::connect(stack.addr);

    for i in 0..60 {
        let resp = match i % 3 {
            0 => s.send(&format!(
                r#"{{"id": {i}, "verb": "analyze", "program": "do i = 1, {} A[i+2] := A[i]; end"}}"#,
                10 + i
            )),
            1 => s.send("not json at all"),
            _ => s.send(r#"{"verb": "analyze", "program": "do broken"}"#),
        };
        assert!(
            resp.get("ok").and_then(Json::as_bool).is_some(),
            "frame {i} was not answered with a frame: {resp:?}"
        );
    }

    s.send(r#"{"id": 999, "verb": "shutdown"}"#);
    stack.join();
}
