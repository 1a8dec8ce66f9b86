//! An interactive editing session against the analysis service: open
//! once, then re-analyze each keystroke-sized edit incrementally.
//!
//! Starts an in-process server on an ephemeral loopback port, opens an
//! analysis session with the `open` verb (the server parses, normalizes
//! and fully analyzes the loop, then retains the converged lattice
//! state), and replays a chain of single-statement edits with the
//! `delta` verb. Each delta re-converges from the cached fixed point,
//! re-solving only the dirtied lattice columns and splicing the rest —
//! the response reports how much of the loop actually had to be
//! re-solved.
//! A structural edit (replacing an assignment with a conditional)
//! demonstrates the recorded fallback to a full re-analysis.
//!
//! Every delta report is byte-identical to what a fresh `analyze` of the
//! edited source would return — the example checks this at each step.
//!
//! Run with `cargo run --example interactive_edit`.

use arrayflow::prelude::*;
use arrayflow::service::Json;

fn main() -> std::io::Result<()> {
    let (addr, server_thread) = serve()?;
    println!("server on {addr}\n");

    let mut client =
        Client::connect(addr.to_string(), ClientConfig::default()).expect("server reachable");

    // Open a session. The response carries the session id, the loop's
    // canonical fingerprint — the session's shard key when a cluster
    // router sits in between — and the initial full report.
    let base = "do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i+1]; end";
    let opened = client.open_session(base).expect("open");
    println!(
        "session {} fingerprint {}",
        opened.session, opened.fingerprint
    );

    // Each step names an assignment by its renumbered id (0 and 1 in
    // source order here), supplies replacement text, and — for the
    // byte-identity check only — the full source the edit produces.
    let edits: &[(u64, &str, &str)] = &[
        (
            1,
            "B[i] := A[i-3] * 2;",
            "do i = 1, 100 A[i+2] := A[i] + x; B[i] := A[i-3] * 2; end",
        ),
        (
            1,
            "B[i+1] := A[i] + y;",
            "do i = 1, 100 A[i+2] := A[i] + x; B[i+1] := A[i] + y; end",
        ),
        (
            0,
            "A[i+2] := A[i] + B[i];",
            "do i = 1, 100 A[i+2] := A[i] + B[i]; B[i+1] := A[i] + y; end",
        ),
    ];

    for (step, &(stmt, text, edited)) in edits.iter().enumerate() {
        // Every delta carries the fingerprint `open` returned: that is
        // the session's routing key for its whole lifetime.
        let line = client
            .delta(opened.session, &opened.fingerprint, stmt, text)
            .expect("delta");
        let resp = Json::parse(line.as_bytes()).expect("framed JSON");
        let result = resp.get("result").expect("ok response");
        let dirty = result.get("dirty_columns").and_then(Json::as_u64).unwrap();
        let total = result.get("total_columns").and_then(Json::as_u64).unwrap();
        let fallback = result.get("fallback").and_then(Json::as_bool).unwrap();
        println!(
            "edit {step}: stmt {stmt} := {text:?} -> re-solved {dirty}/{total} columns{}",
            if fallback { " (full fallback)" } else { "" }
        );
        assert!(
            !fallback,
            "assignment-for-assignment edits take the fast path"
        );

        // The delta report must match a fresh analysis of the edited
        // source byte for byte.
        let fresh = client.analyze(edited).expect("analyze edited source");
        let fresh = Json::parse(fresh.as_bytes()).unwrap();
        let loops = fresh
            .get("result")
            .and_then(|r| r.get("loops"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(
            loops[0].get("report").and_then(Json::as_str),
            result.get("report").and_then(Json::as_str),
            "delta and fresh analysis must agree byte-for-byte"
        );
    }

    // A structural edit — the replacement is a conditional, so the flow
    // graph changes and the server falls back to a full re-analysis,
    // recording the fallback in its metrics.
    let line = client
        .delta(
            opened.session,
            &opened.fingerprint,
            0,
            "if x > 0 then A[i+2] := A[i]; end",
        )
        .expect("structural delta");
    let resp = Json::parse(line.as_bytes()).unwrap();
    let result = resp.get("result").expect("ok response");
    assert_eq!(result.get("fallback").and_then(Json::as_bool), Some(true));
    println!("structural edit -> full re-analysis fallback (still correct)\n");

    // The session counters are series of the service's exposition.
    let metrics = Json::parse(client.metrics().expect("metrics").as_bytes()).unwrap();
    let exposition = metrics
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .expect("exposition");
    let families = ["arrayflow_sessions_", "arrayflow_delta_"];
    let sessions: Vec<&str> = exposition
        .lines()
        .filter(|line| families.iter().any(|family| line.starts_with(family)))
        .collect();
    assert!(!sessions.is_empty(), "session series");
    println!("sessions:\n{}", sessions.join("\n"));

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread")?;
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
