//! The `serve` binary: the analysis service on TCP or stdio.
//!
//! ```text
//! serve [--listen ADDR] [--stdio] [--proto auto|json]
//!       [--workers N]
//!       [--queue N] [--timeout-ms N] [--idle-timeout-ms N] [--max-frame BYTES]
//!       [--cache-capacity N] [--distance-bound N]
//!       [--session-capacity N] [--session-ttl-ms N]
//!       [--store DIR] [--store-segment-bytes N] [--store-queue N]
//!       [--store-breaker-threshold N] [--store-breaker-cooldown-ms N]
//!       [--slow-log MICROS] [--fault-plan SPEC]
//!       [--node-id ID] [--replicate-to ADDR] [--replicate-interval-ms N]
//!       [--router NODES] [--probe-interval-ms N] [--vnodes N]
//! ```
//!
//! Cluster mode: `--router NODES` (comma-separated `addr` or `id=addr`
//! entries) turns this process into the coordinator — it owns no engine
//! or store, serves on the node's event loop, consistent-hashes each
//! analyze's canonical fingerprint
//! across the nodes, fails over to a shard's designated replica, and
//! merges `metrics` cluster-wide. On a node, `--node-id` labels
//! every Prometheus series with `node="ID"`, and `--replicate-to ADDR`
//! (requires `--store`) ships the segment log to the named peer so it can
//! serve this node's reports warm after a failover.
//!
//! TCP serving is one `poll(2)` event loop multiplexing every connection
//! onto the worker pool, or in router mode onto the forwarder pool (unix
//! only; elsewhere use `--stdio`). Both modes share the listener
//! settings: `--proto auto` (default) sniffs each connection's first
//! bytes — `AFWIRE01` magic selects the binary protocol, anything else
//! newline-JSON; `--proto json` pins the legacy JSON protocol; and
//! `--idle-timeout-ms` (default 60000; 0 disables) reaps connections that
//! make no read progress and are owed nothing — the slow-loris guard.
//!
//! Defaults: listen on 127.0.0.1:7433, one service worker per hardware
//! thread, 256-deep queue, 5000 ms deadline, 1 MiB frames. Clients may
//! send a `deadline_ms`
//! budget (JSON field or binary frame prefix); the effective deadline is
//! the smaller of that budget and `--timeout-ms`, and expired or
//! abandoned jobs are shed mid-analysis instead of running to
//! completion. With `--stdio` the protocol runs over stdin/stdout instead
//! (one request per line; diagnostics go to stderr). With `--store DIR`
//! reports persist to a crash-safe segment log in `DIR`: the cache is
//! warm-started from it on boot and fresh results are appended
//! asynchronously, so a restarted server answers previously seen loops
//! without re-analyzing them. Interactive sessions (the `open`/`delta`
//! verbs) are bounded by `--session-capacity` (default 64, LRU evicted)
//! and `--session-ttl-ms` (default 600000; 0 disables the TTL). With `--slow-log MICROS` every request at
//! or over the threshold logs one structured line to stderr with its
//! trace id and per-phase span breakdown (`--slow-log 0` logs every
//! request). The `metrics` verb returns every registered metric as one
//! Prometheus text exposition: `{"prometheus": …}` on JSON, the bare
//! text on the binary protocol.
//!
//! Fault tolerance: after `--store-breaker-threshold` consecutive failed
//! appends (default 8) the store's write path trips a circuit breaker and
//! the cache degrades to memory-only; a half-open probe retries every
//! `--store-breaker-cooldown-ms` (default 5000). `--fault-plan SPEC`
//! installs a seeded, deterministic fault plan for chaos drills — e.g.
//! `seed=42,solver_panic=10%,store_io=5%,store_io_first=20,latency_us=500,worker_exit=1%`
//! injects solver panics, store I/O errors and worker crashes that the
//! isolation/supervision/breaker machinery must contain. Never set it in
//! production; without the flag every seam is a single branch.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use arrayflow_cluster::Topology;
use arrayflow_resilience::FaultPlan;
use arrayflow_service::{run_stdio, FrameHandler, Router, RouterConfig, Service, ServiceConfig};
use arrayflow_store::StoreConfig;

struct Args {
    listen: String,
    stdio: bool,
    proto_json_only: bool,
    idle_timeout: Duration,
    config: ServiceConfig,
    router_nodes: Option<String>,
    probe_interval: Duration,
    vnodes: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7433".to_string(),
        stdio: false,
        proto_json_only: false,
        idle_timeout: Duration::from_secs(60),
        config: ServiceConfig::default(),
        router_nodes: None,
        probe_interval: Duration::from_millis(500),
        vnodes: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--stdio" => args.stdio = true,
            "--proto" => {
                args.proto_json_only = match value("--proto")?.as_str() {
                    "auto" => false,
                    "json" => true,
                    other => return Err(format!("unknown protocol `{other}` (auto|json)")),
                }
            }
            "--workers" => args.config.workers = parse(&value("--workers")?)?,
            "--queue" => args.config.queue_capacity = parse(&value("--queue")?)?,
            "--timeout-ms" => {
                args.config.request_timeout = Duration::from_millis(parse(&value("--timeout-ms")?)?)
            }
            "--idle-timeout-ms" => {
                args.idle_timeout = Duration::from_millis(parse(&value("--idle-timeout-ms")?)?)
            }
            "--max-frame" => args.config.max_frame_bytes = parse(&value("--max-frame")?)?,
            "--cache-capacity" => {
                args.config.engine.cache_capacity = parse(&value("--cache-capacity")?)?
            }
            "--distance-bound" => {
                args.config.engine.dep_max_distance = parse(&value("--distance-bound")?)?
            }
            "--session-capacity" => {
                args.config.engine.session_capacity = parse(&value("--session-capacity")?)?
            }
            "--session-ttl-ms" => {
                args.config.engine.session_ttl_ms = parse(&value("--session-ttl-ms")?)?
            }
            "--store" => {
                let dir = value("--store")?;
                args.config.store = Some(match args.config.store.take() {
                    Some(mut sc) => {
                        sc.dir = dir.into();
                        sc
                    }
                    None => StoreConfig::at(dir),
                });
            }
            "--store-segment-bytes" => {
                let bytes = parse(&value("--store-segment-bytes")?)?;
                store_config(&mut args.config)?.segment_bytes = bytes;
            }
            "--store-queue" => {
                let depth = parse(&value("--store-queue")?)?;
                store_config(&mut args.config)?.writer_queue = depth;
            }
            "--store-breaker-threshold" => {
                let n = parse(&value("--store-breaker-threshold")?)?;
                store_config(&mut args.config)?.breaker_threshold = n;
            }
            "--store-breaker-cooldown-ms" => {
                let ms: u64 = parse(&value("--store-breaker-cooldown-ms")?)?;
                store_config(&mut args.config)?.breaker_cooldown = Duration::from_millis(ms);
            }
            "--slow-log" => args.config.slow_log_micros = Some(parse(&value("--slow-log")?)?),
            "--node-id" => args.config.node_id = Some(value("--node-id")?),
            "--replicate-to" => args.config.replicate_to = Some(value("--replicate-to")?),
            "--replicate-interval-ms" => {
                args.config.replicate_interval =
                    Duration::from_millis(parse(&value("--replicate-interval-ms")?)?)
            }
            "--router" => args.router_nodes = Some(value("--router")?),
            "--probe-interval-ms" => {
                args.probe_interval = Duration::from_millis(parse(&value("--probe-interval-ms")?)?)
            }
            "--vnodes" => args.vnodes = parse(&value("--vnodes")?)?,
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                let plan = FaultPlan::parse(&spec)
                    .map_err(|e| format!("invalid --fault-plan `{spec}`: {e}"))?;
                eprintln!("serve: fault-plan active: {plan}");
                args.config.faults = Some(Arc::new(plan));
            }
            "--help" | "-h" => {
                println!(
                    "serve [--listen ADDR] [--stdio] [--proto auto|json] \
                     [--workers N] \
                     [--queue N] [--timeout-ms N] [--idle-timeout-ms N] [--max-frame BYTES] \
                     [--cache-capacity N] \
                     [--distance-bound N] [--session-capacity N] [--session-ttl-ms N] \
                     [--store DIR] [--store-segment-bytes N] \
                     [--store-queue N] [--store-breaker-threshold N] \
                     [--store-breaker-cooldown-ms N] [--slow-log MICROS] [--fault-plan SPEC] \
                     [--node-id ID] [--replicate-to ADDR] [--replicate-interval-ms N] \
                     [--router NODES] [--probe-interval-ms N] [--vnodes N]\n\
                     --listen, --proto and --idle-timeout-ms set the event loop \
                     of a node and of a --router alike (TCP serving is unix-only)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value `{s}`"))
}

fn store_config(config: &mut ServiceConfig) -> Result<&mut StoreConfig, String> {
    config
        .store
        .as_mut()
        .ok_or_else(|| "pass --store DIR before store tuning flags".to_string())
}

/// Binds and runs the event loop, for a node or a router. The outer
/// `Err` is a bind failure; the inner result is the server's run outcome.
#[cfg(unix)]
fn run_listener<H: FrameHandler>(
    args: &Args,
    handler: Arc<H>,
) -> std::io::Result<std::io::Result<()>> {
    use arrayflow_service::{EventServer, ProtoMode};
    let server = EventServer::bind(args.listen.as_str(), handler)?.idle_timeout(args.idle_timeout);
    // The `listening on ADDR` line is parsed by tooling (tests spawn
    // serve on port 0 and scrape the real address).
    match server.local_addr() {
        Ok(addr) => eprintln!("serve: listening on {addr}"),
        Err(_) => eprintln!("serve: listening on {}", args.listen),
    }
    let mode = if args.proto_json_only {
        ProtoMode::Json
    } else {
        ProtoMode::Auto
    };
    Ok(server.run(mode))
}

#[cfg(not(unix))]
fn run_listener<H: FrameHandler>(_: &Args, _: Arc<H>) -> std::io::Result<std::io::Result<()>> {
    unreachable!("TCP serving is refused before anything starts off unix")
}

/// Router mode: no engine, no store — the forwarder pool behind the
/// event loop.
fn start_router(args: &Args, spec: &str) -> Result<Arc<Router>, ExitCode> {
    let topology = match Topology::parse(spec, args.vnodes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve: invalid --router `{spec}`: {e}");
            return Err(ExitCode::from(2));
        }
    };
    eprintln!(
        "serve: router over {} node(s): {}",
        topology.len(),
        topology
            .nodes()
            .iter()
            .map(|n| n.id.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut config = RouterConfig::new(topology);
    config.probe_interval = args.probe_interval;
    config.request_timeout = args.config.request_timeout.max(Duration::from_secs(1));
    Router::start(config).map_err(|e| {
        eprintln!("serve: error: cannot start the router: {e}");
        ExitCode::FAILURE
    })
}

/// Node mode: starting the service opens (and crash-recovers) the report
/// store; failure is a structured one-line diagnostic and a nonzero
/// exit, never a panic.
fn start_node(args: &Args) -> Result<Arc<Service>, ExitCode> {
    let service = match Service::start(args.config.clone()) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("serve: error: cannot open report store: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if args.config.store.is_some() {
        let snapshot = service.registry().snapshot();
        let warm = snapshot.value("arrayflow_store_warm_loaded", &[]);
        eprintln!("serve: store warm-started {} report(s)", warm.unwrap_or(0));
    }
    if let Some(addr) = &args.config.replicate_to {
        eprintln!("serve: replicating store to {addr}");
    }
    Ok(service)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    if args.router_nodes.is_some()
        && (args.stdio || args.config.store.is_some() || args.config.replicate_to.is_some())
    {
        eprintln!("serve: --router excludes --stdio, --store and --replicate-to");
        return ExitCode::from(2);
    }
    if !args.stdio && !cfg!(unix) {
        eprintln!("serve: TCP serving needs poll(2) (unix); use --stdio");
        return ExitCode::from(2);
    }
    let listened = if let Some(spec) = &args.router_nodes {
        match start_router(&args, spec) {
            Ok(router) => run_listener(&args, router),
            Err(code) => return code,
        }
    } else {
        match start_node(&args) {
            Ok(service) if args.stdio => {
                eprintln!("serve: stdio mode (one JSON request per line)");
                Ok(run_stdio(service))
            }
            Ok(service) => run_listener(&args, service),
            Err(code) => return code,
        }
    };
    let result = match listened {
        Ok(result) => result,
        Err(e) => {
            eprintln!("serve: error: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => {
            eprintln!("serve: drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}
