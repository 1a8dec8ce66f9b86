//! A complete client session against the analysis service, through the
//! resilient [`Client`].
//!
//! Starts an in-process server on an ephemeral loopback port, then talks
//! to it exactly as an external program would — over TCP with
//! newline-framed JSON, but with the client's fault-tolerance envelope:
//! transparent reconnect, per-request deadlines, and jittered
//! exponential backoff retries for transport failures and `overloaded`
//! responses. The session walks through every verb: `ping`, two
//! `analyze` calls (alpha-equivalent programs, so the second is a cache
//! hit), a hand-built problem-selected `analyze` request, a structured
//! error, `metrics`, and finally `shutdown`, which drains the server and
//! stops it.
//!
//! Run with `cargo run --example service_client` (unix: the server is
//! the `poll(2)` event loop). With `--fingerprint` the session instead
//! demonstrates the binary protocol's fingerprint-first fast path:
//! the client computes the canonical fingerprint locally
//! ([`arrayflow::fingerprint`]) and the server answers from its cache
//! without parsing anything.
//!
//! [`Client`]: arrayflow_service::Client

use arrayflow::engine::ProblemSet;
use arrayflow::prelude::*;
use arrayflow::service::{ClientError, Json};
use arrayflow::wire::proto::{AnalyzeRequest, Request};

fn main() -> std::io::Result<()> {
    if std::env::args().any(|a| a == "--fingerprint") {
        return fingerprint_session();
    }
    let (addr, server_thread) = serve()?;
    println!("server on {addr}\n");

    // Client side: deadlines and retries come from the config; the
    // constructor's ping proves the server is reachable end to end.
    let mut client =
        Client::connect(addr.to_string(), ClientConfig::default()).expect("server reachable");

    // Two alpha-equivalent stencils: the engine fingerprints them
    // identically, so the second answer comes from the memo cache.
    let a = client
        .analyze("do i = 1, 100 A[i+2] := A[i] + x; end")
        .expect("analyze");
    let b = client
        .analyze("do j = 1, 100 B[j+2] := B[j] + y; end")
        .expect("analyze");
    println!("← {a}");
    println!("← {b}");
    assert!(a.contains("reuse use_site"), "expected a reuse pair");
    // The reports are byte-identical; only the per-request cache stats
    // differ (the first request is a miss, the second a hit).
    let loops = |s: &str| s[s.find("\"loops\"").unwrap()..s.find("\"stats\"").unwrap()].to_string();
    assert_eq!(
        loops(&a),
        loops(&b),
        "alpha-equivalent programs: identical reports"
    );
    assert!(b.contains("\"cache_hits\":1"), "expected a cache hit");

    // Any request the typed helpers do not cover can be built by hand
    // and sent over JSON — here, problem selection (only δ-busy stores).
    let busy = client
        .request(Request::Analyze(AnalyzeRequest {
            id: 100,
            fingerprint: None,
            problems: Some(
                ProblemSet {
                    busy: true,
                    ..ProblemSet::NONE
                }
                .bits(),
            ),
            distance_bound: None,
            source: Some(b"do i = 1, 50 A[i] := 0; A[i] := B[i]; end".to_vec()),
        }))
        .expect("problem-selected analyze");
    println!("← {busy}");

    // Errors come back structured — a parse error is a fact about the
    // request, so the client surfaces it without retrying, and the
    // connection stays usable.
    match client.analyze("do do do") {
        Err(ClientError::Service { kind, message }) => {
            println!("← structured error: kind={kind:?} message={message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // Every counter leaves the server through one Prometheus exposition,
    // the `metrics` verb's `{"prometheus": …}` answer.
    let metrics = Json::parse(client.metrics().expect("metrics").as_bytes()).unwrap();
    let exposition = metrics
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .expect("exposition");
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("arrayflow_cache_"))
    {
        println!("← {line}");
    }
    assert!(exposition
        .lines()
        .any(|l| l == "arrayflow_cache_hits_total 1"));

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread")?;
    println!(
        "\nserver drained and stopped ({} connection(s), {} retrie(s))",
        client.connects(),
        client.retries()
    );
    Ok(())
}

/// Server side: binds an ephemeral port and runs the event loop in the
/// background. (In production you would run the `serve` binary instead.)
#[cfg(unix)]
fn serve() -> std::io::Result<Background> {
    use arrayflow::service::EventServer;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = EventServer::attach(listener, Service::start(ServiceConfig::default())?);
    Ok((addr, std::thread::spawn(move || server.run())))
}

#[cfg(not(unix))]
fn serve() -> std::io::Result<Background> {
    eprintln!("the in-process server is the event loop, which requires unix (poll)");
    std::process::exit(2)
}

type Background = (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
);

/// The `--fingerprint` walkthrough: the binary protocol, with the client
/// precomputing the canonical fingerprint so repeat requests skip the
/// parser entirely.
fn fingerprint_session() -> std::io::Result<()> {
    let (addr, server_thread) = serve()?;
    println!("event server on {addr} (binary protocol)\n");

    let src = "do i = 1, 100 A[i+2] := A[i] + x; end";
    // The client computes the exact cache identity the server keys
    // reports by — no round trip needed to learn it.
    let fp = fingerprint(src).expect("single-loop program");
    println!("client-side fingerprint: {:032x}", u128::from_le_bytes(fp));

    let mut client =
        Client::connect(addr.to_string(), ClientConfig::default()).expect("server reachable");

    // First contact: the server has never seen this loop, so the bare
    // fingerprint probe misses — but the same request carries the source
    // as a fallback and analyzes in full.
    let warm = client
        .analyze_fingerprint(fp, Some(src))
        .expect("fingerprint analyze with source fallback");
    assert_eq!(warm.cache_misses, 1);
    println!("← full analysis: {} loop(s), cache miss", warm.loops.len());

    // Second contact: fingerprint only, no source shipped at all. The
    // server answers from its cache without parsing anything.
    let hit = client
        .analyze_fingerprint(fp, None)
        .expect("fingerprint fast path");
    assert_eq!(hit.cache_hits, 1);
    assert_eq!(
        hit.loops[0].report, warm.loops[0].report,
        "fast path ships the very same report bytes"
    );
    println!("← fast path: cache hit, report byte-identical");

    let metrics = client.metrics_prometheus().expect("metrics");
    let fast_hits = metrics
        .lines()
        .find(|l| l.starts_with("arrayflow_fingerprint_fast_hits_total"))
        .expect("fast-hit counter");
    println!("← {fast_hits}");

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread")?;
    println!("\nserver drained and stopped");
    Ok(())
}
