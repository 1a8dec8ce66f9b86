//! Cluster chaos drill: SIGKILL a node mid-stream under load and prove
//! the surviving replica answers with byte-identical reports.
//!
//! The drill:
//! 1. Golden run — every program against a single plain `serve`,
//!    recording the `loops` portion of each response.
//! 2. Boot a 3-node replicated cluster behind a router, warm every
//!    program through it, and wait until replication has shipped every
//!    report to its designated replica.
//! 3. SIGKILL the node that owns the first program's shard while a load
//!    thread hammers the router.
//! 4. Re-request every program: all must succeed, byte-identical to the
//!    golden run, with nonzero failover and replica-warm-hit counters.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use arrayflow_cluster::Topology;
use arrayflow_ir as ir;
use arrayflow_service::Json;

fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

struct Serve {
    child: Child,
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serve(flags: &[String]) -> Serve {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve binary");
    let stderr = child.stderr.take().expect("piped stderr");
    // Into the kill-on-drop wrapper immediately, so a panic below still
    // reaps the child.
    let serve = Serve { child };
    let mut lines = BufReader::new(stderr).lines();
    for line in &mut lines {
        let line = line.expect("read serve stderr");
        if line.starts_with("serve: listening on ") {
            std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
            return serve;
        }
    }
    panic!("serve exited before announcing its address");
}

struct JsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl JsonClient {
    fn connect(addr: &str) -> JsonClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        JsonClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("response");
        assert!(n > 0, "connection closed mid-request");
        Json::parse(resp.trim_end().as_bytes())
            .unwrap_or_else(|e| panic!("unframed response {resp:?}: {e}"))
    }
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn loops_portion(resp: &Json) -> String {
    let result = resp.get("result").expect("ok response");
    result.get("loops").expect("loops array").to_string()
}

fn analyze_frame(id: usize, program: &str) -> String {
    format!(r#"{{"id": {id}, "verb": "analyze", "program": "{program}"}}"#)
}

/// Canonical fingerprint bytes of a single-loop program — exactly the
/// router's routing key, so the test can pick the owning shard to kill.
fn fingerprint_of(source: &str) -> [u8; 16] {
    let mut program = ir::parse_program(source).expect("parse");
    ir::normalize(&mut program);
    program.renumber();
    let l = program.sole_loop().expect("single loop");
    ir::fingerprint_loop(l, &program.symbols).0.to_le_bytes()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afcchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_node_fails_over_to_a_warm_replica_with_identical_reports() {
    let programs: Vec<String> = (0..9)
        .map(|k| format!("do i = 1, {} A[i+{}] := A[i] + x; end", 80 + k, 1 + (k % 5)))
        .collect();

    // --- Golden run: one plain node, no store, no cluster. ---
    let golden_port = reserve_ports(1)[0];
    let golden_addr = format!("127.0.0.1:{golden_port}");
    let mut golden_serve = spawn_serve(&[
        "--listen".into(),
        golden_addr.clone(),
        "--workers".into(),
        "2".into(),
    ]);
    let golden: Vec<String> = {
        let mut c = JsonClient::connect(&golden_addr);
        let out = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let resp = c.request(&analyze_frame(i, p));
                assert!(is_ok(&resp), "golden analyze {i}: {resp:?}");
                loops_portion(&resp)
            })
            .collect();
        c.request(r#"{"id": 999, "verb": "shutdown"}"#);
        out
    };
    assert!(golden_serve.child.wait().unwrap().success());

    // --- Cluster: 3 store-backed nodes in a replication ring + router. ---
    let ports = reserve_ports(4);
    let node_addrs: Vec<String> = ports[..3]
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let router_addr = format!("127.0.0.1:{}", ports[3]);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("n{i}"))).collect();
    let mut nodes: Vec<Serve> = (0..3)
        .map(|i| {
            spawn_serve(&[
                "--listen".into(),
                node_addrs[i].clone(),
                "--workers".into(),
                "2".into(),
                "--node-id".into(),
                format!("n{}", i + 1),
                "--store".into(),
                dirs[i].to_str().unwrap().into(),
                "--replicate-to".into(),
                node_addrs[(i + 1) % 3].clone(),
                "--replicate-interval-ms".into(),
                "50".into(),
            ])
        })
        .collect();
    let spec = (0..3)
        .map(|i| format!("n{}={}", i + 1, node_addrs[i]))
        .collect::<Vec<_>>()
        .join(",");
    let mut router_serve = spawn_serve(&[
        "--listen".into(),
        router_addr.clone(),
        "--router".into(),
        spec.clone(),
        "--probe-interval-ms".into(),
        "100".into(),
    ]);

    // Warm every program through the router; reports must already match
    // the golden single-node run.
    let mut router = JsonClient::connect(&router_addr);
    for (i, p) in programs.iter().enumerate() {
        let resp = router.request(&analyze_frame(i, p));
        assert!(is_ok(&resp), "cluster warm {i}: {resp:?}");
        assert_eq!(
            loops_portion(&resp),
            golden[i],
            "cluster report {i} diverged from golden before the kill"
        );
    }

    // Wait until every report has been shipped to its replica.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut node_clients: Vec<JsonClient> =
        node_addrs.iter().map(|a| JsonClient::connect(a)).collect();
    loop {
        let mut applied = 0u64;
        for c in &mut node_clients {
            let text = common::exposition(&c.request(r#"{"id": 5, "verb": "metrics"}"#));
            applied +=
                common::scrape(&text, "arrayflow_replica_applied_records_total", &[]).unwrap_or(0);
        }
        if applied >= programs.len() as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication stalled: {applied}/{} applied",
            programs.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(node_clients);

    // The victim: the node that owns the first program's shard. Same
    // topology the router built, so the choice is exact, and the kill is
    // guaranteed to force failovers for that shard's re-requests.
    let topology = Topology::parse(&spec).expect("topology");
    let victim = topology.primary_for(fingerprint_of(&programs[0]));

    // Load thread: hammer the router while the victim dies under it.
    // Every request must still draw a framed response — ok or a
    // structured error — never a hang or a torn connection.
    let load_router_addr = router_addr.clone();
    let load_programs = programs.clone();
    let load = std::thread::spawn(move || {
        let mut c = JsonClient::connect(&load_router_addr);
        let mut oks = 0usize;
        for round in 0..30 {
            for (i, p) in load_programs.iter().enumerate() {
                let resp = c.request(&analyze_frame(round * 100 + i, p));
                if is_ok(&resp) {
                    oks += 1;
                } else {
                    resp.get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .expect("structured error under chaos");
                }
            }
        }
        oks
    });
    std::thread::sleep(Duration::from_millis(30));
    // SIGKILL mid-stream: no graceful shutdown, no flush, no goodbye.
    nodes[victim].child.kill().expect("kill victim");
    let oks = load.join().expect("load thread");
    assert!(oks > 0, "load thread saw no successful responses");

    // Every program must still be answered — the victim's shards from
    // its replica — byte-identical to the golden run.
    for (i, p) in programs.iter().enumerate() {
        let resp = router.request(&analyze_frame(1000 + i, p));
        assert!(is_ok(&resp), "post-kill analyze {i}: {resp:?}");
        assert_eq!(
            loops_portion(&resp),
            golden[i],
            "post-kill report {i} diverged from golden"
        );
    }

    // The failover actually happened and the replica was warm; the
    // merged exposition carries the failover counter for CI to grep.
    let resp = router.request(r#"{"id": 2001, "verb": "metrics"}"#);
    assert!(is_ok(&resp), "{resp:?}");
    let prom = common::exposition(&resp);
    let router_series = |name: &str| common::scrape(&prom, name, &[r#"node="router""#]);
    let failovers = router_series("arrayflow_router_failovers_total");
    let warm_hits = router_series("arrayflow_router_replica_warm_hits_total");
    assert!(
        failovers.is_some_and(|n| n > 0),
        "router never failed over: {failovers:?}"
    );
    assert!(
        warm_hits.is_some_and(|n| n > 0),
        "replica served no warm hits: {warm_hits:?}"
    );

    // Graceful teardown of the survivors.
    router.request(r#"{"id": 3000, "verb": "shutdown"}"#);
    assert!(router_serve.child.wait().unwrap().success(), "router exit");
    for (i, node) in nodes.iter_mut().enumerate() {
        if i == victim {
            continue;
        }
        let mut c = JsonClient::connect(&node_addrs[i]);
        c.request(r#"{"id": 3001, "verb": "shutdown"}"#);
        assert!(node.child.wait().unwrap().success(), "node {i} exit");
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
