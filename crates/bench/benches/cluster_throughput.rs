//! Cluster throughput: analyze requests/sec through `serve --router`
//! as the node count scales 1 → 2 → 4, plus per-shard cache-hit rates
//! against the single-node baseline.
//!
//! Each "node" is an in-process `Service` + poll(2) `EventServer` with a
//! deliberately small memo-cache capacity — the per-machine memory
//! budget a real deployment shards to escape. The working set is twice
//! one node's capacity, and requests draw from it in a deterministic
//! pseudo-random order, so the single node thrashes (evict → recompute)
//! while the ring's fingerprint sharding multiplies the aggregate cache
//! until the whole working set stays resident. That aggregate-capacity
//! effect is the hardware-independent half of cluster scaling; the
//! CPU-parallelism half needs one hardware thread per node and is
//! reported for whatever the host provides (see the trailing line).
//!
//! The router adds one loopback hop per request; the `direct node` row
//! quantifies that hop against the same single node addressed without
//! the router.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use arrayflow_bench::time;
use arrayflow_cluster::Topology;
use arrayflow_ir::pretty::print_program;
use arrayflow_service::{EventServer, Json, Router, RouterConfig, Service, ServiceConfig};
use arrayflow_workloads::{random_loop, LoopShape};

/// Distinct loops in the working set — twice one node's cache capacity.
const DISTINCT: usize = 192;
/// Per-node memo-cache capacity (the sharded resource).
const NODE_CACHE: usize = 96;
/// Analyze requests per timed run, drawn pseudo-randomly from the set.
const REQUESTS: usize = 800;

fn workload() -> Vec<String> {
    let shape = LoopShape {
        stmts: 40,
        arrays: 5,
        cond_pct: 25,
        ..LoopShape::default()
    };
    (0..DISTINCT)
        .map(|k| print_program(&random_loop(&shape, k as u64)))
        .collect()
}

/// Request lines: `REQUESTS` draws from the working set in a fixed
/// pseudo-random order (splitmix64), JSON-framed through the service's
/// own encoder.
fn request_lines(sources: &[String]) -> Vec<String> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..REQUESTS)
        .map(|i| {
            let src = &sources[(next() % sources.len() as u64) as usize];
            Json::Obj(vec![
                ("id".to_owned(), Json::Num(i as f64)),
                ("verb".to_owned(), Json::Str("analyze".to_owned())),
                ("program".to_owned(), Json::Str(src.clone())),
            ])
            .to_string()
        })
        .collect()
}

struct Node {
    service: std::sync::Arc<Service>,
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_node(id: usize) -> Node {
    let service = Service::start(ServiceConfig {
        engine: arrayflow_engine::EngineConfig {
            cache_capacity: NODE_CACHE,
            ..arrayflow_engine::EngineConfig::default()
        },
        workers: 2,
        queue_capacity: 1024,
        request_timeout: Duration::from_secs(30),
        node_id: Some(format!("n{}", id + 1)),
        ..ServiceConfig::default()
    })
    .expect("node service starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let addr = listener.local_addr().expect("node addr").to_string();
    let server = EventServer::attach(listener, service.clone());
    let thread = std::thread::spawn(move || server.run());
    Node {
        service,
        addr,
        thread,
    }
}

/// Runs the request stream synchronously over one connection, returning
/// the run duration and the number of responses that were cache hits.
fn run_stream(addr: &str, lines: &[String]) -> (Duration, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut hits = 0usize;
    let (d, ()) = time(|| {
        let mut line = String::new();
        for req in lines {
            writer.write_all(req.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("recv");
            assert!(line.contains("\"ok\":true"), "request failed: {line}");
            let resp = Json::parse(line.trim_end().as_bytes()).expect("json");
            let h = resp
                .get("result")
                .and_then(|r| r.get("stats"))
                .and_then(|s| s.get("cache_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if h > 0 {
                hits += 1;
            }
        }
    });
    (d, hits)
}

/// Median duration of three timed runs (hits are steady-state stable —
/// the median run's count is returned).
fn median3(mut f: impl FnMut() -> (Duration, usize)) -> (Duration, usize) {
    let mut runs: Vec<(Duration, usize)> = (0..3).map(|_| f()).collect();
    runs.sort();
    runs[1]
}

/// One untimed pass over every distinct source: pays the cold misses so
/// the timed region measures steady state.
fn warm_lines(sources: &[String]) -> Vec<String> {
    sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            Json::Obj(vec![
                ("id".to_owned(), Json::Num((1_000_000 + i) as f64)),
                ("verb".to_owned(), Json::Str("analyze".to_owned())),
                ("program".to_owned(), Json::Str(src.clone())),
            ])
            .to_string()
        })
        .collect()
}

/// A node's cumulative memo-cache counters, from its metrics verb.
fn node_cache_counters(addr: &str) -> (u64, u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(b"{\"id\": 0, \"verb\": \"metrics\"}\n")
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    let resp = Json::parse(line.trim_end().as_bytes()).expect("json");
    let exposition = resp
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .expect("exposition");
    // One sample per name: a node's series carry only its `node` label.
    let value = |name: &str| -> u64 {
        exposition
            .lines()
            .find(|l| {
                l.strip_prefix(name)
                    .is_some_and(|r| r.starts_with(['{', ' ']))
            })
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(0)
    };
    (
        value("arrayflow_cache_hits_total"),
        value("arrayflow_cache_misses_total"),
    )
}

struct ClusterRun {
    rps: f64,
    hit_rate: f64,
    per_shard: Vec<f64>,
}

/// Boots `n` fresh nodes behind a fresh router, pays the cold misses
/// with an untimed warm pass, runs the timed stream through the router,
/// scrapes per-shard steady-state hit rates, tears everything down.
fn run_cluster(n: usize, warm: &[String], lines: &[String]) -> ClusterRun {
    let nodes: Vec<Node> = (0..n).map(start_node).collect();
    let spec = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| format!("n{}={}", i + 1, node.addr))
        .collect::<Vec<_>>()
        .join(",");
    let topology = Topology::parse(&spec).expect("topology");
    let mut config = RouterConfig::new(topology);
    config.probe_interval = Duration::from_secs(3600);
    let router = Router::start(config).expect("start router");
    let server = EventServer::bind("127.0.0.1:0", router.clone()).expect("bind router");
    let router_addr = server.local_addr().expect("router addr").to_string();
    let router_thread = std::thread::spawn(move || server.run());

    let _ = run_stream(&router_addr, warm);
    let before: Vec<(u64, u64)> = nodes
        .iter()
        .map(|node| node_cache_counters(&node.addr))
        .collect();

    let (d, hits) = median3(|| run_stream(&router_addr, lines));

    let per_shard: Vec<f64> = nodes
        .iter()
        .zip(&before)
        .map(|(node, &(h0, m0))| {
            let (h1, m1) = node_cache_counters(&node.addr);
            let (dh, dm) = ((h1 - h0) as f64, (m1 - m0) as f64);
            if dh + dm == 0.0 {
                0.0
            } else {
                dh / (dh + dm)
            }
        })
        .collect();
    router.shutdown();
    router_thread.join().expect("router thread").expect("run");
    for node in nodes {
        node.service.shutdown();
        node.thread.join().expect("node thread").expect("run");
    }
    ClusterRun {
        rps: REQUESTS as f64 / d.as_secs_f64(),
        hit_rate: hits as f64 / REQUESTS as f64,
        per_shard,
    }
}

fn main() {
    let sources = workload();
    let warm = warm_lines(&sources);
    let lines = request_lines(&sources);

    println!(
        "\n== cluster throughput: {REQUESTS} analyze requests, {DISTINCT} distinct loops, \
         {NODE_CACHE} cached reports per node, warmed =="
    );

    // Baseline: the same single node without the router in front.
    let direct = {
        let node = start_node(0);
        let _ = run_stream(&node.addr, &warm);
        let (d, hits) = median3(|| run_stream(&node.addr, &lines));
        node.service.shutdown();
        node.thread.join().expect("node thread").expect("run");
        (
            REQUESTS as f64 / d.as_secs_f64(),
            hits as f64 / REQUESTS as f64,
        )
    };
    println!(
        "{:<18}  {:>8.1} requests/sec   hit rate {:>5.1}%",
        "direct node",
        direct.0,
        100.0 * direct.1
    );

    let mut single_rps = 0.0;
    for n in [1usize, 2, 4] {
        let run = run_cluster(n, &warm, &lines);
        if n == 1 {
            single_rps = run.rps;
        }
        let shards = run
            .per_shard
            .iter()
            .map(|r| format!("{:.0}%", 100.0 * r))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<18}  {:>8.1} requests/sec   hit rate {:>5.1}%   ({:.2}x of 1 node; per-shard {})",
            format!("router, {n} node(s)"),
            run.rps,
            100.0 * run.hit_rate,
            run.rps / single_rps,
            shards,
        );
    }

    println!(
        "\n(hardware threads available: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
