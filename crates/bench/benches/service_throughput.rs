//! Service throughput: analyze requests/sec over loopback TCP, by client
//! thread count, against the direct in-process `Engine` baseline.
//!
//! Each request carries a DSL program (the engine-throughput workload,
//! pretty-printed back into source) as one newline-framed JSON line; each
//! client thread runs synchronous request/response over its own
//! connection. The gap to the baseline is the full service overhead:
//! JSON encode/decode, socket round-trip, queueing and re-parsing the
//! DSL on every request. A fresh server (cold cache) serves every run;
//! only the client phase is on the clock (setup and teardown are not).
//! The server is the node's one TCP listener, the poll(2) event loop
//! (unix only).

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use arrayflow_bench::time;
use arrayflow_engine::{Engine, EngineConfig, Problem, ProblemSet};
use arrayflow_ir::pretty::print_program;
use arrayflow_ir::{parse_program, Program};
use arrayflow_service::{Json, ServiceConfig};
use arrayflow_workloads::{random_loop, LoopShape};

const BATCH: usize = 400;
const DISTINCT: u64 = 100;

fn workload() -> Vec<Program> {
    let shape = LoopShape {
        stmts: 10,
        arrays: 3,
        cond_pct: 25,
        ..LoopShape::default()
    };
    (0..BATCH)
        .map(|k| random_loop(&shape, k as u64 % DISTINCT))
        .collect()
}

/// One newline-framed analyze request per program, JSON-escaped through
/// the service's own encoder so the bench cannot drift from the protocol.
fn requests(programs: &[Program]) -> Vec<String> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(i as f64)),
                ("verb".to_owned(), Json::Str("analyze".to_owned())),
                ("program".to_owned(), Json::Str(print_program(p))),
            ])
            .to_string()
        })
        .collect()
}

/// Median of three timed runs of `f`.
fn median3(mut f: impl FnMut()) -> Duration {
    let mut runs: Vec<Duration> = (0..3).map(|_| time(&mut f).0).collect();
    runs.sort();
    runs[1]
}

/// Median of three runs of `f`, where `f` times its own measured region
/// (so per-run server setup and teardown stay out of the clock).
fn median3_inner(mut f: impl FnMut() -> Duration) -> Duration {
    let mut runs: Vec<Duration> = (0..3).map(|_| f()).collect();
    runs.sort();
    runs[1]
}

/// The client phase: `clients` threads splitting `lines` round-robin,
/// synchronous request/response over their own connections.
fn run_clients(addr: std::net::SocketAddr, lines: &[String], clients: usize) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            let chunk: Vec<&str> = lines
                .iter()
                .skip(c)
                .step_by(clients)
                .map(String::as_str)
                .collect();
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                for req in chunk {
                    writer.write_all(req.as_bytes()).expect("send");
                    writer.write_all(b"\n").expect("send");
                    line.clear();
                    reader.read_line(&mut line).expect("recv");
                    assert!(line.contains("\"ok\":true"), "request failed: {line}");
                }
            });
        }
    });
}

fn main() {
    let programs = workload();
    let lines = requests(&programs);
    let sources: Vec<String> = programs.iter().map(print_program).collect();

    // Baseline: parse + analyze in-process through a fresh engine, no
    // sockets — the same work the service performs per request.
    let base = median3(|| {
        let engine = Engine::new(EngineConfig::default());
        for src in &sources {
            let program = parse_program(src).expect("workload re-parses");
            black_box(engine.solve(
                0,
                &program,
                Problem::Canned(ProblemSet::ALL),
                EngineConfig::default().dep_max_distance,
                None,
            ));
        }
    });
    let base_rps = BATCH as f64 / base.as_secs_f64();

    println!("\n== service throughput: {BATCH} analyze requests, {DISTINCT} distinct loops ==");
    println!(
        "{:<24}  {:>10.1} requests/sec  (1.00x of direct engine)",
        "direct engine", base_rps
    );

    #[cfg(unix)]
    for clients in [1usize, 4, 8] {
        use arrayflow_service::{EventServer, ProtoMode, Service};
        let d = median3_inner(|| {
            let service = Service::start(ServiceConfig {
                queue_capacity: 1024,
                request_timeout: Duration::from_secs(30),
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            let server = EventServer::attach(listener, service.clone());
            let server_thread = std::thread::spawn(move || server.run(ProtoMode::Auto));

            let (d, ()) = time(|| run_clients(addr, &lines, clients));

            service.shutdown();
            server_thread.join().expect("server thread").expect("run");
            d
        });
        let rps = BATCH as f64 / d.as_secs_f64();
        println!(
            "{:<24}  {:>10.1} requests/sec  ({:.2}x of direct engine)",
            format!("event loop, {clients} client(s)"),
            rps,
            rps / base_rps,
        );
    }

    println!(
        "\n(hardware threads available: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
