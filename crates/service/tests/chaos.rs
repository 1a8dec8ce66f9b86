//! Chaos drill against the real `serve` binary under a deterministic
//! fault plan: injected solver panics, a dying disk, and crashing
//! workers — while the client demands that every request is answered
//! with a framed response, that every `ok` report is byte-identical to
//! a fault-free golden run, and that the store's circuit breaker trips
//! and then recovers.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arrayflow_service::Json;

/// The deterministic plan for the faulty run. `store_io_first=3` fails
/// exactly the first three appends — enough to trip the threshold-3
/// breaker — after which the "disk" recovers and the first half-open
/// probe closes the breaker again.
const FAULT_PLAN: &str = "seed=7,solver_panic=25%,store_io_first=3,worker_exit=15%";

struct Serve {
    child: Child,
    addr: SocketAddr,
    stderr: Arc<Mutex<Vec<String>>>,
}

/// Spawns the `serve` binary with `extra` flags on an ephemeral port,
/// parses the listening address from stderr, and keeps capturing every
/// later stderr line (structured fault-tolerance diagnostics) for the
/// test to inspect.
fn spawn_serve(extra: &[&str]) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve binary");
    let child_stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(child_stderr).lines();
    let mut addr = None;
    for line in &mut lines {
        let line = line.expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("serve: listening on ") {
            addr = Some(rest.trim().parse().expect("listen address"));
            break;
        }
    }
    let stderr = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stderr);
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            sink.lock().unwrap().push(line);
        }
    });
    Serve {
        child,
        addr: addr.expect("serve printed its address"),
        stderr,
    }
}

impl Serve {
    fn stderr_contains(&self, needle: &str) -> bool {
        self.stderr
            .lock()
            .unwrap()
            .iter()
            .any(|l| l.contains(needle))
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// One request, one response line — which must always arrive and
    /// always parse. "Every frame is answered with a frame" is the
    /// invariant chaos is trying to break.
    fn request(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("serve response");
        assert!(n > 0, "serve closed the connection mid-request");
        Json::parse(resp.trim_end().as_bytes())
            .unwrap_or_else(|e| panic!("unframed response {resp:?}: {e}"))
    }
}

/// Structurally distinct single-loop programs (distinct bounds and
/// dependence distances), so every analyze is a fresh solve.
fn programs() -> Vec<String> {
    (0..40)
        .map(|k| {
            format!(
                "do i = 1, {} A[i+{}] := A[i] + x; B[i] := A[i+{}]; end",
                40 + k,
                1 + (k % 5),
                1 + (k % 5),
            )
        })
        .collect()
}

fn analyze_frame(id: usize, program: &str) -> String {
    format!(r#"{{"id": {id}, "verb": "analyze", "program": "{program}"}}"#)
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The reports themselves, excluding per-request cache stats (which
/// legitimately differ between runs).
fn loops_portion(resp: &Json) -> String {
    let result = resp.get("result").expect("ok response");
    result.get("loops").expect("loops array").to_string()
}

fn error_kind(resp: &Json) -> String {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("error response without kind: {resp:?}"))
        .to_string()
}

/// Retries an idempotent analyze until the injected faults miss it.
/// Every failed attempt must still be a *framed* `analysis` error.
fn analyze_until_ok(client: &mut Client, id: usize, program: &str) -> (Json, u32) {
    for failures in 0..50 {
        let resp = client.request(&analyze_frame(id, program));
        if is_ok(&resp) {
            return (resp, failures);
        }
        assert_eq!(
            error_kind(&resp),
            "analysis",
            "injected faults must surface as analysis errors: {resp:?}"
        );
    }
    panic!("analyze of {program:?} failed 50 times in a row");
}

/// Scrapes one counter or gauge from the `metrics` verb's exposition.
fn metric_value(client: &mut Client, name: &str) -> u64 {
    let resp = client.request(r#"{"id": 0, "verb": "metrics"}"#);
    common::scrape(&common::exposition(&resp), name, &[])
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn chaos_drill_contains_every_injected_fault() {
    let dir = std::env::temp_dir().join(format!("afchaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let programs = programs();

    // Phase 1 — golden run, no faults: record every report.
    let mut golden_serve = spawn_serve(&[]);
    let mut client = Client::connect(golden_serve.addr);
    let mut golden = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let resp = client.request(&analyze_frame(i, p));
        assert!(is_ok(&resp), "golden analyze {i} failed: {resp:?}");
        golden.push(loops_portion(&resp));
    }
    client.request(r#"{"id": 999, "verb": "shutdown"}"#);
    assert!(golden_serve.child.wait().expect("golden exit").success());

    // Phase 2 — same stream under the fault plan.
    let mut serve = spawn_serve(&[
        "--store",
        dir.to_str().unwrap(),
        "--store-breaker-threshold",
        "3",
        "--store-breaker-cooldown-ms",
        "200",
        "--fault-plan",
        FAULT_PLAN,
    ]);
    let mut client = Client::connect(serve.addr);
    let mut injected_failures = 0;
    for (i, p) in programs.iter().enumerate() {
        let (resp, failures) = analyze_until_ok(&mut client, i, p);
        injected_failures += failures;
        assert_eq!(
            loops_portion(&resp),
            golden[i],
            "ok reply for program {i} differs from the fault-free run"
        );
    }
    assert!(
        injected_failures > 0,
        "the fault plan injected no solver panics at all"
    );

    // The injected panics were counted, and no worker took the hit
    // silently: panicking jobs answered with framed errors above.
    let panics = metric_value(&mut client, "arrayflow_worker_panics_total");
    assert!(panics as u32 >= injected_failures, "panics={panics}");

    // The first three appends failed, so the breaker tripped open and
    // degraded the store to memory-only (a structured stderr line marks
    // the transition)...
    let deadline = Instant::now() + Duration::from_secs(30);
    while !serve.stderr_contains("store: breaker-transition") {
        assert!(Instant::now() < deadline, "breaker never transitioned");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(serve.stderr_contains("to=open"), "breaker never opened");

    // ...and because the injected disk fault heals after 3 appends, the
    // half-open probe eventually lands and closes the breaker again.
    // Fresh programs force append attempts (= probe opportunities).
    let mut extra = 0u64;
    loop {
        // The breaker-state gauge: 0 closed, 1 half-open, 2 open.
        let state = metric_value(&mut client, "arrayflow_store_breaker_state");
        if state == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never recovered (state {state:?})"
        );
        std::thread::sleep(Duration::from_millis(250));
        let p = format!("do i = 1, {} C[i+3] := C[i] + y; end", 500 + extra);
        extra += 1;
        analyze_until_ok(&mut client, 1000 + extra as usize, &p);
    }
    assert!(serve.stderr_contains("to=closed"), "no recovery transition");
    let trips = metric_value(&mut client, "arrayflow_store_breaker_trips_total");
    assert!(trips >= 1, "trips: {trips}");
    assert_eq!(
        metric_value(&mut client, "arrayflow_store_breaker_state"),
        0
    );

    // Workers were killed by the plan and replaced by their drop guards.
    // A replacement starts as its predecessor exits, so poll briefly for
    // the counter to show it.
    loop {
        let restarts = metric_value(&mut client, "arrayflow_worker_restarts_total");
        if restarts >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no worker was ever restarted: {restarts}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(serve.stderr_contains("serve: worker-restart"));

    // The Prometheus exposition carries the fault-tolerance series.
    let metrics = client.request(r#"{"id": 0, "verb": "metrics"}"#);
    let prom = metrics
        .get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .expect("prometheus exposition")
        .to_string();
    for series in [
        "arrayflow_worker_panics_total",
        "arrayflow_worker_restarts_total",
        "arrayflow_store_breaker_state",
        "arrayflow_store_breaker_trips_total",
    ] {
        assert!(prom.contains(series), "exposition lacks {series}");
    }

    // After all of that: a graceful drain still works and exits 0.
    let resp = client.request(r#"{"id": 9999, "verb": "shutdown"}"#);
    assert!(is_ok(&resp));
    let status = serve.child.wait().expect("serve exit status");
    assert!(
        status.success(),
        "graceful shutdown after chaos: {status:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
