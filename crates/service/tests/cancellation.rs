//! End-to-end tests for deadline propagation and cooperative
//! cancellation: the slow-loris idle guard, the accounting invariant
//! (cancelled work never skews the latency histogram), cancellation
//! safety (shed jobs never poison the memo cache, open sessions or the
//! persistent tier), and the chaos drill (a storm of already-expired
//! requests leaves live traffic answering byte-identically).
#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow_obs::{MetricValue, Registry};
use arrayflow_resilience::CancelToken;
use arrayflow_service::{
    Client, ClientConfig, EventServer, FrameHandler, Json, ProtoMode, Service, ServiceConfig,
};
use arrayflow_store::{Store, StoreConfig};
use arrayflow_wire::proto::{AnalyzeRequest, Request as WireRequest, Response as WireResponse};
use arrayflow_wire::{encode_frame, FrameDecoder, FrameEvent};
use common::{Front, Stack};

fn start(config: ServiceConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let service = Service::start(config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = EventServer::attach(listener, service);
    let handle = std::thread::spawn(move || server.run(ProtoMode::Auto));
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

/// A raw line-oriented JSON client: the test controls request ids
/// exactly, so response lines can be compared byte-for-byte across runs.
struct Line {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Line {
    fn connect(addr: SocketAddr) -> Line {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Line {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("server response");
        assert!(n > 0, "server closed the connection");
        resp.trim_end().to_string()
    }
}

fn analyze_frame(id: usize, program: &str) -> String {
    format!(
        "{{\"id\": {id}, \"verb\": \"analyze\", \"program\": {}}}",
        Json::Str(program.into())
    )
}

/// Sends one JSON frame through the event loop's JSON edge with a
/// caller-owned cancel token and returns the response line.
fn async_json(svc: &std::sync::Arc<Service>, frame: &str, cancel: CancelToken) -> String {
    let (tx, rx) = mpsc::channel();
    svc.answer_json(
        frame.as_bytes(),
        cancel,
        Box::new(move |line| {
            let _ = tx.send(line);
        }),
    );
    let line = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("frame must be answered");
    String::from_utf8(line).unwrap()
}

/// Sends one binary frame through the async path and decodes the
/// response frame.
fn async_binary(svc: &std::sync::Arc<Service>, req: &WireRequest) -> WireResponse {
    let (tx, rx) = mpsc::channel();
    svc.handle_binary_frame_async(
        req.tag(),
        &req.encode_payload(),
        Box::new(move |resp| {
            let _ = tx.send(resp);
        }),
    );
    let out = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("frame must be answered");
    let mut decoder = FrameDecoder::new(usize::MAX);
    decoder.extend(&out.frame);
    match decoder.next().unwrap() {
        Some(FrameEvent::Frame { tag, payload }) => WireResponse::decode(tag, &payload).unwrap(),
        other => panic!("expected one response frame, got {other:?}"),
    }
}

fn slow_loris(front: Front) {
    let stack = Stack::start(
        front,
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        Duration::from_millis(200),
    );
    let addr = stack.addr;

    // Six parked connections: pure idlers, half a JSON line, and half a
    // binary frame — none will ever complete a request.
    let mut parked = Vec::new();
    for i in 0..6 {
        let mut s = TcpStream::connect(addr).unwrap();
        match i % 3 {
            1 => s.write_all(b"{\"id\": 1, \"verb\": \"anal").unwrap(),
            2 => {
                let req = WireRequest::Ping { id: 1 };
                let frame = encode_frame(req.tag(), &req.encode_payload());
                s.write_all(&frame[..3]).unwrap();
            }
            _ => {}
        }
        parked.push(s);
    }

    // Past the idle timeout (plus poll-tick slack) every parked
    // connection must have been closed by the sweep.
    std::thread::sleep(Duration::from_millis(900));
    for s in &mut parked {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        match s.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("parked connection got {n} bytes instead of a reap"),
        }
    }

    // The server is still healthy for well-behaved clients, and the
    // sweep is visible to operators.
    let mut c = client(addr);
    c.ping().unwrap();
    let metrics = c.metrics_prometheus().unwrap();
    assert_eq!(
        common::scrape(&metrics, "arrayflow_idle_disconnects_total", &[]),
        Some(6),
        "all six parked connections must be counted:\n{metrics}"
    );

    c.shutdown().unwrap();
    stack.join();
}

#[test]
fn slow_loris_connections_are_reaped_and_the_server_stays_up() {
    slow_loris(Front::Node);
}

#[test]
fn slow_loris_connections_are_reaped_by_a_router() {
    slow_loris(Front::Router);
}

#[test]
fn cancelled_jobs_have_their_own_counters_and_skip_the_latency_histogram() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let program = "do i = 1, 60 A[i+1] := A[i]; end";
    let counts = || {
        let snap = svc.registry().snapshot();
        let latency = match snap.find("arrayflow_request_latency_us").map(|m| &m.value) {
            Some(MetricValue::Histogram(h)) => h.count,
            other => panic!("latency histogram: {other:?}"),
        };
        let value = |name, labels: &[(&str, &str)]| snap.value(name, labels).unwrap();
        [
            value("arrayflow_responses_total", &[("outcome", "cancelled")]),
            value(
                "arrayflow_cancelled_jobs_total",
                &[("reason", "disconnect")],
            ),
            value("arrayflow_cancelled_jobs_total", &[("reason", "expired")]),
            value("arrayflow_deadline_propagated_total", &[]),
            value("arrayflow_responses_total", &[("outcome", "timeout")]),
            value("arrayflow_requests_total", &[]),
            latency,
        ]
    };
    assert_eq!(counts(), [0; 7]);

    // A job whose client is already gone when the worker reaches it.
    let gone = CancelToken::new();
    gone.cancel();
    let line = async_json(&svc, &analyze_frame(1, program), gone);
    assert!(line.contains(r#""kind":"cancelled""#), "{line}");

    // A job whose deadline budget is spent on arrival.
    let frame = format!(
        "{{\"id\": 2, \"verb\": \"analyze\", \"program\": {}, \"deadline_ms\": 0}}",
        Json::Str(program.into())
    );
    let line = async_json(&svc, &frame, CancelToken::new());
    assert!(line.contains(r#""kind":"cancelled""#), "{line}");

    // Mirroring the oversized-frame invariant: cancelled work gets its
    // own counters (split by reason) and never touches `requests` or the
    // latency histogram — no client was answered in time, so timing it
    // would only skew the distribution. Nor is it a timeout.
    assert_eq!(counts(), [2, 1, 1, 1, 0, 0, 0]);

    // A healthy request afterwards is counted and timed as usual.
    let resp = svc.handle_frame(analyze_frame(3, program).as_bytes());
    assert!(resp.line.contains(r#""ok":true"#), "{}", resp.line);
    assert_eq!(counts(), [2, 1, 1, 1, 0, 1, 1]);

    svc.shutdown();
    svc.join_workers();
}

/// Structurally distinct single-loop programs over `A`.
fn normal_programs() -> Vec<String> {
    (0..6)
        .map(|k| format!("do i = 1, {} A[i+2] := A[i] + x; end", 30 + k))
        .collect()
}

/// Structurally distinct single-loop programs over `B`, disjoint from
/// [`normal_programs`] so a cache entry for one can never answer the
/// other.
fn storm_programs() -> Vec<String> {
    (0..6)
        .map(|k| format!("do i = 1, {} B[i+3] := B[i] * y; end", 50 + k))
        .collect()
}

const SESSION_BASE: &str = "do i = 1, 40 A[i+1] := A[i]; B[i] := A[i]; end";
const SESSION_EDIT: &str = "B[i] := A[i-2] * 2;";

/// Runs the same normal workload against a fresh store-backed service —
/// optionally interleaved with a storm of doomed requests — and returns
/// every response line plus the store's live-set bytes after shutdown.
fn run_workload(dir: &Path, with_storm: bool) -> (Vec<String>, Vec<Vec<u8>>) {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        store: Some(StoreConfig::at(dir)),
        ..Default::default()
    })
    .unwrap();

    let normal = normal_programs();
    let storm = storm_programs();
    let mut lines = Vec::new();
    for (i, program) in normal.iter().enumerate() {
        if with_storm {
            // One doomed request whose client is gone, one whose budget
            // is already spent — both against programs the normal run
            // never submits.
            let gone = CancelToken::new();
            gone.cancel();
            let line = async_json(&svc, &analyze_frame(1000 + i, &storm[i]), gone);
            assert!(line.contains(r#""kind":"cancelled""#), "{line}");
            let frame = format!(
                "{{\"id\": {}, \"verb\": \"analyze\", \"program\": {}, \"deadline_ms\": 0}}",
                2000 + i,
                Json::Str(storm[i].clone())
            );
            let line = async_json(&svc, &frame, CancelToken::new());
            assert!(line.contains(r#""kind":"cancelled""#), "{line}");
        }
        lines.push(svc.handle_frame(analyze_frame(i, program).as_bytes()).line);
    }

    // Session flow: open, optionally hit the session with a cancelled
    // delta, then apply a real delta. The cancelled delta must leave no
    // trace in the session state the real delta sees.
    let open = svc
        .handle_frame(
            format!(
                "{{\"id\": 900, \"verb\": \"open\", \"program\": {}}}",
                Json::Str(SESSION_BASE.into())
            )
            .as_bytes(),
        )
        .line;
    lines.push(open.clone());
    let json = Json::parse(open.as_bytes()).unwrap();
    let result = json.get("result").unwrap();
    let session = result.get("session").and_then(Json::as_u64).unwrap();
    let fingerprint = result
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let stmt = {
        let mut p = arrayflow_ir::parse_program(SESSION_BASE).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[1].0 as u64
    };
    let delta_frame = |id: usize| {
        format!(
            "{{\"id\": {id}, \"verb\": \"delta\", \"session\": {session}, \"fingerprint\": {}, \"stmt\": {stmt}, \"text\": {}}}",
            Json::Str(fingerprint.clone()),
            Json::Str(SESSION_EDIT.into())
        )
    };
    if with_storm {
        let gone = CancelToken::new();
        gone.cancel();
        let line = async_json(&svc, &delta_frame(901), gone);
        assert!(line.contains(r#""kind":"cancelled""#), "{line}");
    }
    lines.push(svc.handle_frame(delta_frame(902).as_bytes()).line);

    if with_storm {
        // The memo cache never saw the doomed programs: a fingerprint
        // probe for each must miss, while a normal program's fingerprint
        // answers warm. Fingerprints come from a scratch service so the
        // one under test is never asked to analyze a storm program.
        let scratch = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let fp_of = |program: &str| -> [u8; 16] {
            match async_binary(
                &scratch,
                &WireRequest::Analyze(AnalyzeRequest {
                    id: 1,
                    fingerprint: None,
                    problems: None,
                    distance_bound: None,
                    source: Some(program.as_bytes().to_vec()),
                }),
            ) {
                WireResponse::Analyze(ok) => ok.loops[0].fingerprint,
                other => panic!("scratch analysis failed: {other:?}"),
            }
        };
        for program in &storm {
            let probe = async_binary(
                &svc,
                &WireRequest::Analyze(AnalyzeRequest {
                    id: 3000,
                    fingerprint: Some(fp_of(program)),
                    problems: None,
                    distance_bound: None,
                    source: None,
                }),
            );
            match probe {
                WireResponse::Err { message, .. } => {
                    assert!(message.contains("unknown fingerprint"), "{message}")
                }
                other => panic!("cancelled work leaked into the cache: {other:?}"),
            }
        }
        let probe = async_binary(
            &svc,
            &WireRequest::Analyze(AnalyzeRequest {
                id: 3001,
                fingerprint: Some(fp_of(&normal[0])),
                problems: None,
                distance_bound: None,
                source: None,
            }),
        );
        match probe {
            WireResponse::Analyze(ok) => assert_eq!(ok.cache_hits, 1),
            other => panic!("completed work must stay cached: {other:?}"),
        }
        let cancelled = svc.registry().snapshot();
        let cancelled = cancelled.value("arrayflow_responses_total", &[("outcome", "cancelled")]);
        assert!(
            cancelled >= Some(13),
            "storm must be counted: {cancelled:?}"
        );
        scratch.shutdown();
        scratch.join_workers();
    }

    svc.shutdown();
    svc.join_workers();
    let store = Store::open_in(StoreConfig::at(dir), &Registry::new()).unwrap();
    (lines, live_records(&store.export_live()))
}

/// Splits an [`Store::export_live`] batch (`len | crc | payload` frames)
/// into its records and sorts them: the live *set* is what must match
/// across runs — its iteration order is per-instance.
fn live_records(batch: &[u8]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    let mut at = 0;
    while at < batch.len() {
        let len = u32::from_le_bytes(batch[at..at + 4].try_into().unwrap()) as usize;
        records.push(batch[at..at + 8 + len].to_vec());
        at += 8 + len;
    }
    records.sort();
    records
}

#[test]
fn cancelled_and_expired_work_never_poisons_cache_sessions_or_store() {
    let base = std::env::temp_dir().join(format!("afcancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let golden_dir = base.join("golden");
    let storm_dir = base.join("storm");
    std::fs::create_dir_all(&golden_dir).unwrap();
    std::fs::create_dir_all(&storm_dir).unwrap();

    let (golden_lines, golden_store) = run_workload(&golden_dir, false);
    let (storm_lines, storm_store) = run_workload(&storm_dir, true);

    // Every answer a live client received — analyses, the session open,
    // the real delta — is byte-identical to the storm-free run, and the
    // persistent tier holds the exact same live set.
    assert_eq!(golden_lines, storm_lines);
    assert_eq!(golden_store, storm_store);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_deadline_storm_leaves_live_answers_byte_identical_and_work_bounded() {
    let live: Vec<String> = (0..20)
        .map(|k| {
            format!(
                "do i = 1, {} A[i+2] := A[i] + x; B[i] := A[i+1]; end",
                25 + k
            )
        })
        .collect();

    // A deep queue: the whole storm fits, so live requests are never
    // bounced `overloaded` — they queue behind doomed jobs that the
    // worker sheds in microseconds each.
    let config = || ServiceConfig {
        workers: 1,
        queue_capacity: 2048,
        ..Default::default()
    };
    let solver_passes = |addr: SocketAddr| -> u64 {
        let metrics = client(addr).metrics_prometheus().unwrap();
        common::scrape(&metrics, "arrayflow_engine_solver_passes_total", &[]).unwrap()
    };

    // Golden run: the live stream alone.
    let (addr, handle) = start(config());
    let mut c = Line::connect(addr);
    let golden: Vec<String> = live
        .iter()
        .enumerate()
        .map(|(i, p)| c.request(&analyze_frame(i, p)))
        .collect();
    let golden_passes = solver_passes(addr);
    assert!(golden_passes > 0);
    stop(addr, handle);

    // Storm run: two connections flood already-expired budgets while
    // the same live stream runs.
    let (addr, handle) = start(config());
    let flooders: Vec<_> = (0..2)
        .map(|f| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let reader = std::thread::spawn(move || {
                    let mut cancelled = 0u64;
                    let mut lines = BufReader::new(stream).lines();
                    for _ in 0..400 {
                        let line = lines.next().unwrap().unwrap();
                        if line.contains(r#""kind":"cancelled""#) {
                            cancelled += 1;
                        }
                    }
                    cancelled
                });
                // One up-front burst per connection of already-expired
                // budgets: every job is dead on arrival, so the worker
                // sheds each at dequeue without running a single pass.
                let mut burst = String::new();
                for k in 0..400 {
                    burst.push_str(&format!(
                        "{{\"id\": {k}, \"verb\": \"analyze\", \"program\": \"do i = 1, {} C{f}[i+1] := C{f}[i] + z; end\", \"deadline_ms\": 0}}\n",
                        100 + k
                    ));
                }
                writer.write_all(burst.as_bytes()).unwrap();
                reader.join().unwrap()
            })
        })
        .collect();

    // Let the flood land first, then run the live stream through it.
    std::thread::sleep(Duration::from_millis(30));
    let mut c = Line::connect(addr);
    let stormed: Vec<String> = live
        .iter()
        .enumerate()
        .map(|(i, p)| c.request(&analyze_frame(i, p)))
        .collect();
    let cancelled_seen: u64 = flooders.into_iter().map(|f| f.join().unwrap()).sum();

    // Live answers are byte-identical to the storm-free run.
    assert_eq!(golden, stormed);

    // The storm was shed, visibly: cancelled responses reached the
    // flooders and the counter moved.
    let metrics = client(addr).metrics_prometheus().unwrap();
    let cancelled_total = common::scrape(&metrics, "arrayflow_cancelled_jobs_total", &[]);
    assert!(
        cancelled_total > Some(0),
        "storm must be counted:\n{metrics}"
    );
    assert!(cancelled_seen > 0, "flooders must see cancelled responses");

    // And shed cheaply: dead-on-arrival budgets cost no solver passes,
    // so total work stays within 1.2x of the golden run.
    let storm_passes = solver_passes(addr);
    assert!(
        (storm_passes as f64) <= (golden_passes as f64) * 1.2,
        "storm burned {storm_passes} passes vs {golden_passes} golden"
    );

    // The server is responsive after the storm.
    client(addr).ping().unwrap();
    stop(addr, handle);
}
