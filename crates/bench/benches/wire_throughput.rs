//! Wire throughput (E14): the binary protocol's fingerprint fast path
//! against the direct in-process engine, plus the JSON path over the
//! same event-driven server for comparison with E11.
//!
//! Every side runs on a warm cache — the question is pure transport and
//! dispatch overhead. "Direct engine" is what an embedder pays per
//! request given source: parse, fingerprint, memo-cache hit. The binary
//! fingerprint path ships 16 bytes instead of the program and skips the
//! server-side parse entirely, so it can approach (target: ≥ 0.9x) the
//! in-process rate despite the socket round-trip.

#[cfg(not(unix))]
fn main() {
    eprintln!("wire_throughput requires unix (poll-based event server)");
}

#[cfg(unix)]
fn main() {
    imp::main()
}

#[cfg(unix)]
mod imp {
    use std::hint::black_box;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::Duration;

    use arrayflow_bench::time;
    use arrayflow_engine::{Engine, EngineConfig, Problem, ProblemSet};
    use arrayflow_ir::pretty::print_program;
    use arrayflow_ir::{parse_program, Program};
    use arrayflow_service::{
        Client, ClientConfig, EventServer, Json, ProtoMode, Service, ServiceConfig,
    };
    use arrayflow_wire::proto::{AnalyzeRequest, Request as WireRequest};
    use arrayflow_wire::{encode_frame, FrameDecoder, FrameEvent};
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

    /// Median of three timed runs of `f`.
    fn median3(mut f: impl FnMut()) -> Duration {
        let mut runs: Vec<Duration> = (0..3).map(|_| time(&mut f).0).collect();
        runs.sort();
        runs[1]
    }

    fn start_server() -> (SocketAddr, std::sync::Arc<Service>) {
        let service = Service::start(ServiceConfig {
            queue_capacity: 1024,
            request_timeout: Duration::from_secs(30),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let server = EventServer::attach(listener, service.clone());
        std::thread::spawn(move || server.run(ProtoMode::Auto));
        (addr, service)
    }

    pub fn main() {
        let programs = workload();
        let sources: Vec<String> = programs.iter().map(print_program).collect();
        let bound = EngineConfig::default().dep_max_distance;

        // Direct-engine baseline, warm cache: parse + memo hit per call.
        let engine = Engine::new(EngineConfig::default());
        for src in &sources {
            let p = parse_program(src).expect("workload re-parses");
            engine.solve(0, &p, Problem::Canned(ProblemSet::ALL), bound, None);
        }
        let base = median3(|| {
            for src in &sources {
                let p = parse_program(src).expect("workload re-parses");
                black_box(engine.solve(0, &p, Problem::Canned(ProblemSet::ALL), bound, None));
            }
        });
        let base_rps = BATCH as f64 / base.as_secs_f64();

        println!(
            "\n== wire throughput: {BATCH} warm analyze requests, {DISTINCT} distinct loops =="
        );
        println!(
            "{:<30}  {:>10.1} requests/sec  (1.00x of direct engine)",
            "direct engine (warm)", base_rps
        );

        // One server for all wire runs; the warming pass fills its cache.
        let (addr, service) = start_server();
        let mut warm = Client::new(addr.to_string(), ClientConfig::default());
        let fps: Vec<[u8; 16]> = sources
            .iter()
            .map(|src| {
                let ok = warm.analyze_binary(src).expect("warm analyze");
                ok.loops[0].fingerprint
            })
            .collect();

        // Binary protocol, fingerprint-only requests, pipelined: the
        // whole batch goes out in one burst on one connection and the
        // responses stream back — the protocol's high-throughput mode,
        // with the per-request socket round trip amortized away.
        let burst: Vec<u8> = fps
            .iter()
            .enumerate()
            .flat_map(|(i, fp)| {
                let req = WireRequest::Analyze(AnalyzeRequest {
                    id: i as u64,
                    fingerprint: Some(*fp),
                    problems: None,
                    distance_bound: None,
                    source: None,
                });
                encode_frame(req.tag(), &req.encode_payload())
            })
            .collect();
        let d = median3(|| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.write_all(&burst).expect("send burst");
            let mut decoder = FrameDecoder::new(usize::MAX);
            let mut frames = 0usize;
            let mut buf = [0u8; 1 << 16];
            while frames < BATCH {
                let read = std::io::Read::read(&mut stream, &mut buf).expect("recv");
                assert!(read > 0, "server closed early");
                decoder.extend(&buf[..read]);
                while let Some(ev) = decoder.next().expect("well-framed response") {
                    assert!(matches!(ev, FrameEvent::Frame { .. }));
                    frames += 1;
                }
            }
        });
        let rps = BATCH as f64 / d.as_secs_f64();
        println!(
            "{:<30}  {:>10.1} requests/sec  ({:.2}x of direct engine)",
            "binary fingerprint, pipelined",
            rps,
            rps / base_rps,
        );

        // Binary protocol, fingerprint-only requests.
        for clients in [1usize, 4] {
            let d = median3(|| {
                std::thread::scope(|scope| {
                    for c in 0..clients {
                        let chunk: Vec<[u8; 16]> =
                            fps.iter().skip(c).step_by(clients).copied().collect();
                        scope.spawn(move || {
                            let mut client =
                                Client::connect(addr.to_string(), ClientConfig::default())
                                    .expect("connect");
                            for fp in chunk {
                                let ok = client.analyze_fingerprint(fp, None).expect("fast path");
                                black_box(&ok.loops);
                                assert_eq!(ok.cache_hits, 1, "fast path must hit");
                            }
                        });
                    }
                });
            });
            let rps = BATCH as f64 / d.as_secs_f64();
            println!(
                "{:<30}  {:>10.1} requests/sec  ({:.2}x of direct engine)",
                format!("binary fingerprint, {clients} client(s)"),
                rps,
                rps / base_rps,
            );
        }

        // JSON path over the same event server (the E11 workload shape):
        // full source shipped, server re-parses, warm cache behind it.
        let lines: Vec<String> = programs
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
            .collect();
        for clients in [1usize, 4] {
            let d = median3(|| {
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
            });
            let rps = BATCH as f64 / d.as_secs_f64();
            println!(
                "{:<30}  {:>10.1} requests/sec  ({:.2}x of direct engine)",
                format!("json over event loop, {clients} client(s)"),
                rps,
                rps / base_rps,
            );
        }

        service.shutdown();
        println!(
            "\n(hardware threads available: {})",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }
}
