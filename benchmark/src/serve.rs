//! `serve` processes on loopback, and thin helpers over the repository's
//! `Client` that pull the reports out of its responses.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow::service::{Client, ClientConfig, ClientError, Json};

use crate::reference::LIVE_ELEMENTS;

/// How long a process may take to announce its address, and a request to
/// be answered, before the run is abandoned.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running `serve` process on an ephemeral loopback port. Dropping it
/// kills the process and waits for it and its stderr reader to end.
pub struct Proc {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Starts `serve` with `args` and waits until it announces the address
    /// it bound.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep reading after the announcement, so the server can never
        // block on a full stderr pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("serve: listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        proc.addr = rx
            .recv_timeout(PATIENCE)
            .map_err(|_| format!("{} did not announce a listening address", bin.display()))?;
        Ok(proc)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The serving stack under test: one node, or three nodes behind a router.
pub struct Stack {
    pub addr: String,
    _procs: Vec<Proc>,
}

impl Stack {
    pub fn start(bin: &Path, routed: bool) -> Result<Stack, String> {
        if !routed {
            let node = Proc::spawn(bin, &[])?;
            return Ok(Stack {
                addr: node.addr.clone(),
                _procs: vec![node],
            });
        }
        let mut procs = Vec::new();
        let mut nodes = Vec::new();
        for id in ["n1", "n2", "n3"] {
            let node = Proc::spawn(bin, &["--node-id", id])?;
            nodes.push(format!("{id}={}", node.addr));
            procs.push(node);
        }
        let router = Proc::spawn(bin, &["--router", &nodes.join(",")])?;
        let addr = router.addr.clone();
        procs.push(router);
        Ok(Stack {
            addr,
            _procs: procs,
        })
    }
}

/// The repository's own `Client` for `addr`, with retries off so that
/// every failure surfaces.
pub fn client(addr: &str) -> Client {
    Client::new(
        addr,
        ClientConfig {
            connect_timeout: PATIENCE,
            request_timeout: PATIENCE,
            max_retries: 0,
            backoff_seed: Some(0),
            ..ClientConfig::default()
        },
    )
}

/// The `result` object of an `ok` response line.
fn result(verb: &str, line: Result<String, ClientError>) -> Result<Json, String> {
    let line = line.map_err(|e| format!("{verb}: {e}"))?;
    let response =
        Json::parse(line.as_bytes()).map_err(|e| format!("{verb}: unparseable response: {e:?}"))?;
    match response {
        Json::Obj(members) => members
            .into_iter()
            .find_map(|(k, v)| (k == "result").then_some(v)),
        _ => None,
    }
    .ok_or_else(|| format!("{verb}: response without result: {line}"))
}

/// `analyze`: the rendered report of every loop.
pub fn analyze(c: &mut Client, program: &str) -> Result<Vec<String>, String> {
    loop_reports(&result("analyze", c.analyze(program))?)
}

/// `custom` with the δ-live-elements problem ([`LIVE_ELEMENTS`]).
pub fn custom(c: &mut Client, program: &str) -> Result<Vec<String>, String> {
    loop_reports(&result("custom", c.custom(program, LIVE_ELEMENTS))?)
}

/// Fingerprint-first binary `analyze`, shipping the source as fallback:
/// the store-codec report bytes of every loop.
pub fn analyze_fingerprint(
    c: &mut Client,
    fingerprint: [u8; 16],
    program: &str,
) -> Result<Vec<Vec<u8>>, String> {
    let ok = c
        .analyze_fingerprint(fingerprint, Some(program))
        .map_err(|e| format!("binary analyze: {e}"))?;
    Ok(ok.loops.into_iter().map(|l| l.report).collect())
}

/// `delta`: the rendered report of the edited loop.
pub fn delta(
    c: &mut Client,
    session: u64,
    fingerprint: &str,
    stmt: u32,
    text: &str,
) -> Result<String, String> {
    let r = result(
        "delta",
        c.delta(session, fingerprint, u64::from(stmt), text),
    )?;
    r.get("report")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "delta: no report".to_string())
}

/// The Prometheus text exposition, merged across nodes at a router.
pub fn exposition(c: &mut Client) -> Result<String, String> {
    result("metrics", c.metrics())?
        .get("prometheus")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "metrics: no exposition".to_string())
}

fn loop_reports(result: &Json) -> Result<Vec<String>, String> {
    if let Some(e) = result.get("error").and_then(Json::as_str) {
        return Err(format!("analysis error: {e}"));
    }
    result
        .get("loops")
        .and_then(Json::as_arr)
        .ok_or("result without loops")?
        .iter()
        .map(|l| {
            l.get("report")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "loop without report".to_string())
        })
        .collect()
}

/// Sum of every sample named `name` in a text exposition, over the label
/// sets that contain `label` (all label sets when `None`).
pub fn scrape(text: &str, name: &str, label: Option<&str>) -> f64 {
    let mut sum = 0.0;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let (labels, value) = match rest.strip_prefix('{') {
            Some(r) => match r.split_once('}') {
                Some(split) => split,
                None => continue,
            },
            None if rest.starts_with(' ') => ("", rest),
            None => continue,
        };
        if label.is_some_and(|want| !labels.split(',').any(|kv| kv == want)) {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            sum += v;
        }
    }
    sum
}

/// Mean observation of histogram `name`: its `_sum` over its `_count`.
pub fn histogram_mean(text: &str, name: &str, label: Option<&str>) -> f64 {
    let count = scrape(text, &format!("{name}_count"), label);
    if count == 0.0 {
        0.0
    } else {
        scrape(text, &format!("{name}_sum"), label) / count
    }
}
