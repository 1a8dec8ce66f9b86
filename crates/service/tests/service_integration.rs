//! Loopback-TCP integration tests: concurrent clients, response/request
//! id matching, byte-identical reports vs the direct in-process engine,
//! the negative paths of the error taxonomy, and graceful-shutdown drain.
#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use arrayflow_engine::{Engine, EngineConfig};
use arrayflow_service::{EventServer, Frame, Json, Service, ServiceConfig};

/// The unlabelled counter or gauge `name`, read in-process.
fn count(service: &Service, name: &str) -> u64 {
    service.registry().snapshot().value(name, &[]).unwrap()
}

/// `arrayflow_responses_total` for one outcome, read in-process.
fn responses(service: &Service, outcome: &str) -> u64 {
    let labels = [("outcome", outcome)];
    let snapshot = service.registry().snapshot();
    snapshot
        .value("arrayflow_responses_total", &labels)
        .unwrap()
}

/// One test client: a connection plus line-oriented send/receive.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("server response");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.truncate(line.trim_end().len());
        line
    }

    fn recv_json(&mut self) -> Json {
        let line = self.recv();
        Json::parse(line.as_bytes()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn spawn_server(config: ServiceConfig) -> (std::net::SocketAddr, Arc<Service>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let service = Service::start(config).expect("start service");
    let server = EventServer::attach(listener, Arc::clone(&service));
    std::thread::spawn(move || server.run().unwrap());
    (addr, service)
}

fn error_kind(resp: &Json) -> &str {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error.kind")
}

/// The small program corpus the concurrency test spreads across clients:
/// some alpha-equivalent pairs (cache hits), some distinct.
fn corpus() -> Vec<String> {
    vec![
        "do i = 1, 100 A[i+2] := A[i] + x; end".into(),
        "do j = 1, 100 B[j+2] := B[j] + y; end".into(), // alpha-equiv of [0]
        "do i = 1, 50 A[i] := A[i-1] * 2; A[i+3] := A[i]; end".into(),
        "do k = 1, 80 if k < 9 then C[k] := C[k-2]; end end".into(),
        "do i = 1, 60 do j = 1, 60 X[i, j] := X[i, j-1]; end end".into(),
    ]
}

#[test]
fn concurrent_clients_get_id_matched_byte_identical_reports() {
    let engine_cfg = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 4,
        engine: engine_cfg.clone(),
        ..ServiceConfig::default()
    });

    // Direct in-process baseline with an identical (but separate) engine.
    let programs = corpus();
    let baseline: Vec<Vec<String>> = {
        let engine = Engine::new(engine_cfg);
        programs
            .iter()
            .map(|src| {
                let p = arrayflow_ir::parse_program(src).unwrap();
                let r = engine.analyze_one(0, &p);
                assert!(r.error.is_none());
                r.loops.iter().map(|l| l.report.render()).collect()
            })
            .collect()
    };

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 20;
    let programs = Arc::new(programs);
    let baseline = Arc::new(baseline);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let programs = Arc::clone(&programs);
            let baseline = Arc::clone(&baseline);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                // Pipeline all requests, then read all responses: exercises
                // in-order response delivery and id correlation.
                for k in 0..REQUESTS {
                    let id = (c * 1000 + k) as u32;
                    let which = (c + k) % programs.len();
                    let frame = Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("verb".into(), Json::Str("analyze".into())),
                        ("program".into(), Json::Str(programs[which].clone())),
                    ]);
                    client.send(&frame.to_string());
                }
                for k in 0..REQUESTS {
                    let id = (c * 1000 + k) as u32;
                    let which = (c + k) % programs.len();
                    let resp = client.recv_json();
                    assert_eq!(
                        resp.get("id").and_then(Json::as_u64),
                        Some(id as u64),
                        "response out of order or mismatched"
                    );
                    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
                    let loops = resp
                        .get("result")
                        .and_then(|r| r.get("loops"))
                        .and_then(Json::as_arr)
                        .unwrap();
                    let served: Vec<&str> = loops
                        .iter()
                        .map(|l| l.get("report").and_then(Json::as_str).unwrap())
                        .collect();
                    assert_eq!(
                        served, baseline[which],
                        "served report differs from direct engine output"
                    );
                }
            });
        }
    });

    let ok = responses(&service, "ok");
    assert_eq!(ok, (CLIENTS * REQUESTS) as u64);
    assert_eq!(count(&service, "arrayflow_requests_total"), ok);
    assert_eq!(
        count(&service, "arrayflow_connections_total"),
        CLIENTS as u64
    );
    // Alpha-equivalent duplicates hit the shared cache.
    assert!(count(&service, "arrayflow_cache_hits_total") > 0);

    service.shutdown();
    service.join_workers();
}

#[test]
fn malformed_json_is_protocol_error_and_connection_survives() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);

    client.send("this is { not json");
    assert_eq!(error_kind(&client.recv_json()), "protocol");

    // Invalid UTF-8 bytes inside the frame: still a structured error.
    client.send_raw(b"{\"verb\": \"ping\", \"junk\": \"\xff\xfe\"}\n");
    assert_eq!(error_kind(&client.recv_json()), "protocol");

    // Connection still usable afterwards.
    client.send(r#"{"id": 5, "verb": "ping"}"#);
    let resp = client.recv_json();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(5));

    assert_eq!(responses(&service, "protocol"), 2);
    service.shutdown();
    service.join_workers();
}

#[test]
fn invalid_utf8_dsl_is_parse_error_not_a_crash() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);
    // The program smuggles U+0080 through valid JSON; the DSL lexer rejects the non-ASCII byte with a `parse` error, not a crash.
    client.send(r#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9  end"}"#);
    assert_eq!(error_kind(&client.recv_json()), "parse");
    client.send(r#"{"id": 2, "verb": "ping"}"#);
    assert_eq!(
        client.recv_json().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    service.shutdown();
    service.join_workers();
}

#[test]
fn oversized_frame_is_rejected_and_connection_survives() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        max_frame_bytes: 256,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);

    let huge = format!(
        r#"{{"id": 1, "verb": "analyze", "program": "{}"}}"#,
        "x := 1; ".repeat(200)
    );
    assert!(huge.len() > 256);
    client.send(&huge);
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "protocol");
    let msg = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(msg.contains("256 bytes"), "{msg}");

    client.send(r#"{"id": 2, "verb": "ping"}"#);
    assert_eq!(
        client.recv_json().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    // Oversized frames get their own counter — they are not protocol
    // errors, not requests, and never land in the latency histogram.
    assert_eq!(count(&service, "arrayflow_oversized_frames_total"), 1);
    assert_eq!(responses(&service, "protocol"), 0);
    service.shutdown();
    service.join_workers();
}

#[test]
fn unknown_verb_is_protocol_error() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);
    client.send(r#"{"id": 1, "verb": "explode"}"#);
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "protocol");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(1));
    client.send(r#"{"id": 2, "verb": "ping"}"#);
    assert_eq!(
        client.recv_json().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    service.shutdown();
    service.join_workers();
}

#[test]
fn deadline_miss_is_cancelled_and_connection_survives() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        request_timeout: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);
    client.send(r#"{"id": 1, "verb": "analyze", "program": "x := 1;"}"#);
    // The event loop waits for nobody: the worker sheds the expired job.
    assert_eq!(error_kind(&client.recv_json()), "cancelled");
    // Cheap verbs bypass the queue and still work.
    client.send(r#"{"id": 2, "verb": "ping"}"#);
    assert_eq!(
        client.recv_json().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    let expired = service.registry().snapshot();
    let expired = expired.value("arrayflow_cancelled_jobs_total", &[("reason", "expired")]);
    assert_eq!(expired, Some(1));
    service.shutdown();
    service.join_workers();
}

/// An E16-sized analyze at the largest distance bound answers `ok`
/// inside a 500 ms budget: dependence extraction finds each pair's first
/// overlap in closed form, whatever the bound, where a scan of every
/// distance up to 10⁶ took seconds per loop and never polled the budget.
#[test]
fn largest_distance_bound_answers_within_its_deadline() {
    use arrayflow_workloads::{random_loop, LoopShape};
    let shape = LoopShape {
        stmts: 128,
        arrays: 16,
        ..LoopShape::default()
    };
    let program = arrayflow_ir::pretty::print_program(&random_loop(&shape, 42)).replace('\n', " ");
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let frame = format!(
        r#"{{"id":1,"verb":"analyze","program":"{program}","distance_bound":1000000,"deadline_ms":500}}"#
    );
    let start = std::time::Instant::now();
    let resp = service.handle_frame(Frame::Json(frame.as_bytes()));
    let elapsed = start.elapsed();
    let resp = String::from_utf8(resp).unwrap();
    assert!(
        resp.starts_with(r#"{"id":1,"ok":true"#),
        "{}",
        &resp[..resp.len().min(300)]
    );
    assert!(
        resp.contains("maxdist=1000000"),
        "the bound reached the report"
    );
    assert!(resp.contains("  dep "), "the loop has dependences");
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    service.shutdown();
    service.join_workers();
}

#[test]
fn overload_is_reported_when_queue_is_full() {
    // Queue of 1 and a single worker: pipelining many analyzes from many
    // threads must never panic, and every response is either ok or
    // overloaded — nothing is dropped.
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    });
    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for k in 0..10 {
                    client.send(&format!(
                        r#"{{"id": {}, "verb": "analyze", "program": "do i = 1, 50 A[i+{}] := A[i]; end"}}"#,
                        c * 100 + k,
                        k + 1
                    ));
                }
                for _ in 0..10 {
                    let resp = client.recv_json();
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        continue;
                    }
                    let kind = error_kind(&resp).to_string();
                    assert_eq!(kind, "overloaded", "unexpected error kind {kind}");
                }
            });
        }
    });
    let requests = count(&service, "arrayflow_requests_total");
    assert_eq!(requests, (CLIENTS * 10) as u64);
    let answered: u64 = ["ok", "overloaded"]
        .iter()
        .map(|o| responses(&service, o))
        .sum();
    assert_eq!(answered, requests);
    assert!(count(&service, "arrayflow_queue_depth_hwm") <= 1);
    service.shutdown();
    service.join_workers();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    // Many clients, each with one request in flight against a 1-worker
    // service, while another client fires `shutdown` concurrently: every
    // accepted request must still be answered (ok — drained, or
    // overloaded if it arrived after the flag), and the server must stop.
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        request_timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    });
    const CLIENTS: usize = 8;
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.send(&format!(
                    r#"{{"id": {c}, "verb": "analyze", "program": "do i = 1, 90 A[i+{}] := A[i] + B[i-1]; end"}}"#,
                    c + 1
                ));
                let resp = client.recv_json();
                assert_eq!(resp.get("id").and_then(Json::as_u64), Some(c as u64));
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    "ok".to_string()
                } else {
                    error_kind(&resp).to_string()
                }
            }));
        }
        // Let the analyze requests land first, then shut down mid-stream.
        std::thread::sleep(Duration::from_millis(30));
        let mut killer = Client::connect(addr);
        killer.send(r#"{"id": 999, "verb": "shutdown"}"#);
        let resp = killer.recv_json();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for outcome in &outcomes {
        assert!(
            outcome == "ok" || outcome == "overloaded",
            "request dropped or mis-answered during shutdown: {outcome}"
        );
    }
    // join_workers returns only after the queue fully drained.
    service.join_workers();
    assert!(service.is_shutdown());

    // Counters are consistent: every request has exactly one outcome.
    let requests = count(&service, "arrayflow_requests_total");
    assert_eq!(requests, CLIENTS as u64 + 1); // + shutdown verb
    let answered: u64 = [
        "ok",
        "parse",
        "analysis",
        "overloaded",
        "protocol",
        "session_lost",
    ]
    .iter()
    .map(|o| responses(&service, o))
    .sum();
    assert_eq!(answered, requests);
    let answered_ok = outcomes.iter().filter(|o| *o == "ok").count() as u64;
    assert_eq!(responses(&service, "ok"), answered_ok + 1); // + shutdown verb
}

#[test]
fn metrics_verb_reports_engine_and_service_counters() {
    let (addr, service) = spawn_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(addr);
    client.send(r#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+1] := A[i]; end"}"#);
    client.recv_json();
    client.send(r#"{"id": 2, "verb": "analyze", "program": "do j = 1, 9 B[j+1] := B[j]; end"}"#);
    client.recv_json();
    client.send("not json");
    client.recv_json();

    client.send(r#"{"id": 3, "verb": "metrics"}"#);
    let resp = client.recv_json();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let text = common::exposition(&resp);
    let series = |name: &str, labels: &[&str]| common::scrape(&text, name, labels);

    // The two alpha-equivalent programs produce one solve and one cache
    // hit.
    assert_eq!(series("arrayflow_engine_programs_total", &[]), Some(2));
    assert_eq!(series("arrayflow_cache_hits_total", &[]), Some(1));

    // Counters snapshot before the metrics request itself completes: the
    // two analyzes and the protocol error, not the in-flight scrape.
    assert_eq!(series("arrayflow_requests_total", &[]), Some(3));
    let outcome = |name: &str| {
        series(
            "arrayflow_responses_total",
            &[&format!("outcome=\"{name}\"")],
        )
    };
    assert_eq!(outcome("ok"), Some(2));
    assert_eq!(outcome("protocol"), Some(1));
    assert_eq!(series("arrayflow_request_latency_us_count", &[]), Some(3));

    service.shutdown();
    service.join_workers();
}

#[test]
fn stdio_like_loop_over_pipe_mode_frames() {
    // The stdio loop's contract, driven in process: each line is answered
    // through the one answer entry, and the loop stops once the service
    // reports shutdown — after the `shutdown` verb's answer, not before.
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let script: &[&[u8]] = &[
        br#"{"id": 1, "verb": "ping"}"#,
        br#"{"id": 2, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        br#"{"id": 3, "verb": "metrics"}"#,
        br#"{"id": 4, "verb": "shutdown"}"#,
    ];
    let mut answered = 0;
    for frame in script {
        assert!(!service.is_shutdown(), "stopped before line {answered}");
        let resp = String::from_utf8(service.handle_frame(Frame::Json(frame))).unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        answered += 1;
    }
    assert_eq!(answered, script.len());
    assert!(service.is_shutdown(), "the shutdown verb stops the loop");
    service.join_workers();
}

#[test]
fn open_then_delta_matches_fresh_analyze_byte_for_byte() {
    let (addr, service) = spawn_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    let base = "do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i+1]; end";
    let replacement = "B[i] := A[i-3] * 2;";
    let edited = "do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i-3] * 2; end";

    client.send(&format!(
        r#"{{"id": 1, "verb": "open", "program": "{base}"}}"#
    ));
    let opened = client.recv_json();
    assert_eq!(
        opened.get("ok").and_then(Json::as_bool),
        Some(true),
        "{opened:?}"
    );
    let result = opened.get("result").unwrap();
    let session = result.get("session").and_then(Json::as_u64).unwrap();
    let base_fp = result
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(base_fp.len(), 32);

    // The edit targets the second assignment; ids are the renumbered ones.
    let stmt = {
        let mut p = arrayflow_ir::parse_program(base).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[1].0
    };

    // Every delta routes by the *base* fingerprint `open` returned.
    client.send(&format!(
        r#"{{"id": 2, "verb": "delta", "session": {session}, "fingerprint": "{base_fp}", "stmt": {stmt}, "text": "{replacement}"}}"#
    ));
    let delta = client.recv_json();
    assert_eq!(
        delta.get("ok").and_then(Json::as_bool),
        Some(true),
        "{delta:?}"
    );
    let dres = delta.get("result").unwrap();
    assert_eq!(dres.get("session").and_then(Json::as_u64), Some(session));
    assert_eq!(dres.get("fallback").and_then(Json::as_bool), Some(false));
    let dirty = dres.get("dirty_columns").and_then(Json::as_u64).unwrap();
    let total = dres.get("total_columns").and_then(Json::as_u64).unwrap();
    assert!(dirty <= total && total > 0);
    let delta_report = dres.get("report").and_then(Json::as_str).unwrap();
    let delta_fp = dres.get("fingerprint").and_then(Json::as_str).unwrap();
    assert_ne!(delta_fp, base_fp, "the edit changes the canonical loop");

    // A fresh full analysis of the edited source must render byte-identically.
    client.send(&format!(
        r#"{{"id": 3, "verb": "analyze", "program": "{edited}"}}"#
    ));
    let fresh = client.recv_json();
    assert_eq!(
        fresh.get("ok").and_then(Json::as_bool),
        Some(true),
        "{fresh:?}"
    );
    let loops = fresh
        .get("result")
        .and_then(|r| r.get("loops"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(loops.len(), 1);
    assert_eq!(
        loops[0].get("report").and_then(Json::as_str).unwrap(),
        delta_report
    );
    assert_eq!(
        loops[0].get("fingerprint").and_then(Json::as_str).unwrap(),
        delta_fp
    );

    service.shutdown();
    service.join_workers();
}

#[test]
fn delta_error_paths_are_typed_and_incomplete_requests_are_protocol_errors() {
    let (addr, service) = spawn_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    // Unknown session: the typed `session_lost` error — the client's cue
    // to re-open and replay, distinct from a real analysis failure. The
    // connection survives.
    client.send(
        r#"{"id": 1, "verb": "delta", "session": 424242, "fingerprint": "00000000000000000000000000000000", "stmt": 0, "text": "A[i] := 0;"}"#,
    );
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "session_lost");

    // Missing fields are rejected at decode time: protocol errors, like
    // every other malformed request.
    client.send(r#"{"id": 2, "verb": "delta", "session": 1}"#);
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "protocol");

    // A bad fingerprint string too.
    client.send(
        r#"{"id": 3, "verb": "delta", "session": 1, "fingerprint": "zz", "stmt": 0, "text": "A[i] := 0;"}"#,
    );
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "protocol");

    // `open` still requires a program.
    client.send(r#"{"id": 4, "verb": "open"}"#);
    let resp = client.recv_json();
    assert_eq!(error_kind(&resp), "protocol");

    service.shutdown();
    service.join_workers();
}

#[test]
fn metrics_verb_reports_session_counters() {
    let (addr, service) = spawn_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    let base = "do i = 1, 50 A[i+1] := A[i]; B[i] := A[i]; end";
    client.send(&format!(
        r#"{{"id": 1, "verb": "open", "program": "{base}"}}"#
    ));
    let opened = client.recv_json();
    let result = opened.get("result").unwrap();
    let session = result.get("session").and_then(Json::as_u64).unwrap();
    let fp = result
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let stmt = {
        let mut p = arrayflow_ir::parse_program(base).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[1].0
    };

    // One fast-path delta, one structural fallback.
    client.send(&format!(
        r#"{{"id": 2, "verb": "delta", "session": {session}, "fingerprint": "{fp}", "stmt": {stmt}, "text": "B[i] := A[i] + 1;"}}"#
    ));
    assert_eq!(
        client.recv_json().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    client.send(&format!(
        r#"{{"id": 3, "verb": "delta", "session": {session}, "fingerprint": "{fp}", "stmt": {stmt}, "text": "if x > 0 then B[i] := A[i]; end"}}"#
    ));
    let fb = client.recv_json();
    assert_eq!(
        fb.get("result")
            .and_then(|r| r.get("fallback"))
            .and_then(Json::as_bool),
        Some(true),
        "{fb:?}"
    );

    client.send(r#"{"id": 4, "verb": "metrics"}"#);
    let text = common::exposition(&client.recv_json());
    let series = |name: &str, labels: &[&str]| common::scrape(&text, name, labels);
    assert_eq!(series("arrayflow_sessions_open", &[]), Some(1));
    assert_eq!(series("arrayflow_sessions_opened_total", &[]), Some(1));
    assert_eq!(series("arrayflow_delta_applied_total", &[]), Some(2));
    assert_eq!(series("arrayflow_delta_fallbacks_total", &[]), Some(1));
    assert_eq!(
        series(
            "arrayflow_sessions_evicted_total",
            &[r#"reason="capacity""#]
        ),
        Some(0)
    );

    service.shutdown();
    service.join_workers();
}
