//! Kill-and-restart round trip against the real `serve` binary.
//!
//! Populates a store through `serve --store DIR`, kills the process
//! without any graceful shutdown (SIGKILL), restarts it over the same
//! directory, and replays the same request stream: every report must come
//! back byte-identical and at least 90% of lookups must be answered warm
//! (from the warm-started cache / disk) rather than re-solved.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use arrayflow_service::Json;

struct Serve {
    child: Child,
    addr: SocketAddr,
    warm_loaded: u64,
}

/// Spawns `serve --store dir` on an ephemeral port and parses the
/// listening address (and warm-start count) from its stderr.
fn spawn_serve(dir: &Path) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--store",
            dir.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve binary");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let mut addr = None;
    let mut warm_loaded = None;
    for line in &mut lines {
        let line = line.expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("serve: listening on ") {
            addr = Some(rest.trim().parse().expect("listen address"));
        }
        if let Some(rest) = line.strip_prefix("serve: store warm-started ") {
            let count = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .expect("warm-start count");
            warm_loaded = Some(count);
        }
        if addr.is_some() && warm_loaded.is_some() {
            break;
        }
    }
    // Keep draining stderr in the background so the child never blocks on
    // a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Serve {
        child,
        addr: addr.expect("serve printed its address"),
        warm_loaded: warm_loaded.expect("serve printed its warm-start count"),
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

    fn request(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("serve response");
        assert!(n > 0, "serve closed the connection");
        Json::parse(resp.trim_end().as_bytes())
            .unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }
}

/// A stream of structurally distinct single-loop programs.
fn programs() -> Vec<String> {
    (0..30)
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

/// The `loops` portion of an analyze response — the reports themselves,
/// excluding the per-request hit/miss stats which legitimately change
/// across a restart.
fn loops_portion(resp: &Json) -> String {
    let result = resp.get("result").expect("ok response");
    result.get("loops").expect("loops array").to_string()
}

fn request_cache_hits(resp: &Json) -> u64 {
    resp.get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("cache_hits"))
        .and_then(Json::as_u64)
        .expect("stats.cache_hits")
}

/// Scrapes one store counter from the `metrics` verb's exposition.
fn store_counter(client: &mut Client, name: &str) -> u64 {
    let resp = client.request(r#"{"id": 0, "verb": "metrics"}"#);
    common::scrape(&common::exposition(&resp), name, &[])
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn kill_and_restart_round_trip() {
    let dir = std::env::temp_dir().join(format!("afrestart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let programs = programs();

    // Phase 1: populate through the real server.
    let mut serve = spawn_serve(&dir);
    assert_eq!(serve.warm_loaded, 0, "fresh directory starts cold");
    let mut client = Client::connect(serve.addr);
    let mut first_reports = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let resp = client.request(&analyze_frame(i, p));
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "analyze {i} failed: {resp:?}"
        );
        first_reports.push(loops_portion(&resp));
    }
    // Wait until the async writer has landed every append on disk, then
    // kill the process with no grace whatsoever.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let appends = store_counter(&mut client, "arrayflow_store_appends_total");
        if appends >= programs.len() as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "writer thread did not land {} appends (got {appends})",
            programs.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    serve.child.kill().expect("SIGKILL serve");
    let _ = serve.child.wait();

    // Phase 2: restart over the same directory and replay the stream.
    let mut serve = spawn_serve(&dir);
    assert_eq!(
        serve.warm_loaded,
        programs.len() as u64,
        "every persisted report warm-starts the cache"
    );
    let mut client = Client::connect(serve.addr);
    let mut warm = 0u64;
    for (i, p) in programs.iter().enumerate() {
        let resp = client.request(&analyze_frame(i, p));
        assert_eq!(
            loops_portion(&resp),
            first_reports[i],
            "report {i} changed across restart"
        );
        warm += request_cache_hits(&resp);
    }
    let total = programs.len() as u64;
    assert!(
        warm * 10 >= total * 9,
        "only {warm}/{total} lookups were answered warm"
    );
    // No re-analysis means no new appends beyond what phase 1 persisted.
    let appends = store_counter(&mut client, "arrayflow_store_appends_total");
    assert_eq!(appends, 0, "replay should not append anything new");

    // Graceful shutdown this time.
    let resp = client.request(r#"{"id": 999, "verb": "shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let status = serve.child.wait().expect("serve exit status");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
