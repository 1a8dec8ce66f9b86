//! Three real `serve` nodes behind a real `serve --router`: fingerprint
//! routing, the health verb, replication wiring, and the cluster-wide
//! merged exposition — all over actual sockets.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use arrayflow_service::{Client, ClientConfig, Json};

/// Reserves `n` distinct ephemeral ports. The listeners are dropped, so
/// there is a tiny reuse race — acceptable for tests, and the only way
/// to give each node its replica's address up front.
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

/// Spawns `serve` with `flags` and waits for its listening announcement.
fn spawn_serve(flags: &[String]) -> Serve {
    let mut serve = Command::new(env!("CARGO_BIN_EXE_serve"));
    serve.args(flags);
    spawn(serve)
}

/// Spawns `command` (a `serve` process) and waits for its listening
/// announcement.
fn spawn(mut command: Command) -> Serve {
    let mut child = command
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
            // Drain the rest in the background so the child never blocks
            // on a full pipe.
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
        let resp = self.line(line);
        Json::parse(resp.as_bytes()).unwrap_or_else(|e| panic!("unframed response {resp:?}: {e}"))
    }

    /// Sends one request line and returns the raw response line.
    fn line(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("response");
        assert!(n > 0, "connection closed mid-request");
        resp.trim_end().to_string()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afclint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Cluster {
    nodes: Vec<Serve>,
    node_addrs: Vec<String>,
    router: Serve,
    router_addr: String,
    dirs: Vec<PathBuf>,
}

/// Boots `n` store-backed nodes in a replication ring plus a router.
fn boot_cluster(tag: &str, n: usize) -> Cluster {
    let ports = reserve_ports(n + 1);
    let node_addrs: Vec<String> = ports[..n]
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let router_addr = format!("127.0.0.1:{}", ports[n]);
    let dirs: Vec<PathBuf> = (0..n).map(|i| temp_dir(&format!("{tag}-n{i}"))).collect();
    let nodes: Vec<Serve> = (0..n)
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
                node_addrs[(i + 1) % n].clone(),
                "--replicate-interval-ms".into(),
                "50".into(),
            ])
        })
        .collect();
    let spec = (0..n)
        .map(|i| format!("n{}={}", i + 1, node_addrs[i]))
        .collect::<Vec<_>>()
        .join(",");
    let router = spawn_serve(&[
        "--listen".into(),
        router_addr.clone(),
        "--router".into(),
        spec,
        "--probe-interval-ms".into(),
        "100".into(),
    ]);
    Cluster {
        nodes,
        node_addrs,
        router,
        router_addr,
        dirs,
    }
}

impl Cluster {
    fn shutdown(mut self) {
        let mut c = JsonClient::connect(&self.router_addr);
        c.request(r#"{"id": 1, "verb": "shutdown"}"#);
        assert!(self.router.child.wait().unwrap().success(), "router exit");
        for (i, addr) in self.node_addrs.iter().enumerate() {
            let mut c = JsonClient::connect(addr);
            c.request(r#"{"id": 1, "verb": "shutdown"}"#);
            assert!(
                self.nodes[i].child.wait().unwrap().success(),
                "node {i} exit"
            );
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The families the router's merge must pass through untouched for one
/// node: cache, engine, solver passes, sessions and store. Health probes
/// and scrapes move none of them.
const NODE_FAMILIES: [&str; 6] = [
    "arrayflow_cache_",
    "arrayflow_engine_",
    "arrayflow_solver_passes",
    "arrayflow_sessions_",
    "arrayflow_delta_",
    "arrayflow_store_",
];

/// `node`'s series lines of [`NODE_FAMILIES`] in an exposition, in order.
fn node_lines(text: &str, node: &str) -> Vec<String> {
    let label = format!("node=\"{node}\"");
    text.lines()
        .filter(|l| NODE_FAMILIES.iter().any(|f| l.starts_with(f)) && l.contains(&label))
        .map(str::to_string)
        .collect()
}

fn scrape_metrics(c: &mut JsonClient) -> String {
    common::exposition(&c.request(r#"{"id": 5, "verb": "metrics"}"#))
}

fn programs(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| format!("do i = 1, {} A[i+{}] := A[i] + x; end", 50 + k, 1 + (k % 6)))
        .collect()
}

#[test]
fn health_verb_identifies_nodes_and_router() {
    let cluster = boot_cluster("health", 3);

    let mut node = JsonClient::connect(&cluster.node_addrs[1]);
    let resp = node.request(r#"{"id": 1, "verb": "health"}"#);
    assert!(is_ok(&resp), "{resp:?}");
    let result = resp.get("result").unwrap();
    assert_eq!(result.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(result.get("node").and_then(Json::as_str), Some("n2"));

    let mut router = JsonClient::connect(&cluster.router_addr);
    let resp = router.request(r#"{"id": 2, "verb": "health"}"#);
    assert!(is_ok(&resp), "{resp:?}");
    let result = resp.get("result").unwrap();
    assert_eq!(result.get("node").and_then(Json::as_str), Some("router"));
    let nodes = result.get("nodes").and_then(Json::as_arr).unwrap();
    assert_eq!(nodes.len(), 3);

    cluster.shutdown();
}

#[test]
fn router_shards_work_and_merges_observability() {
    let cluster = boot_cluster("route", 3);
    let programs = programs(18);

    // Warm every program through the router's JSON path.
    let mut router = JsonClient::connect(&cluster.router_addr);
    for (i, p) in programs.iter().enumerate() {
        let resp = router.request(&format!(
            r#"{{"id": {i}, "verb": "analyze", "program": "{p}"}}"#
        ));
        assert!(is_ok(&resp), "analyze {i} via router: {resp:?}");
    }

    // Re-analyzing must hit the owning shard's cache: the router routes
    // by canonical fingerprint, so the repeat lands where the report is.
    for (i, p) in programs.iter().enumerate() {
        let resp = router.request(&format!(
            r#"{{"id": {i}, "verb": "analyze", "program": "{p}"}}"#
        ));
        assert!(is_ok(&resp), "{resp:?}");
        let hits = resp
            .get("result")
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get("cache_hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(hits >= 1, "repeat analyze {i} missed the shard cache");
    }

    // The binary fingerprint-first path works through the router too.
    let mut bin = Client::new(cluster.router_addr.clone(), ClientConfig::default());
    let warm = bin.analyze_binary(&programs[0]).unwrap();
    assert_eq!(warm.cache_hits, 1, "binary repeat must hit via router");

    // Merged exposition: node labels on node series, router series too.
    let resp = router.request(r#"{"id": 901, "verb": "metrics"}"#);
    assert!(is_ok(&resp), "{resp:?}");
    let prom = common::exposition(&resp);
    for needle in [
        "node=\"n1\"",
        "node=\"n2\"",
        "node=\"n3\"",
        "node=\"router\"",
        "arrayflow_router_forwards_total",
        "arrayflow_requests_total",
    ] {
        assert!(prom.contains(needle), "merged exposition lacks {needle}");
    }
    // One HELP per family even though every node emits it.
    let helps = prom.matches("# HELP arrayflow_requests_total ").count();
    assert_eq!(helps, 1, "duplicated HELP in merged exposition");

    // Cluster totals are sums over the node label.
    let per_node = |name: &str, node: &str| {
        common::scrape(&prom, name, &[&format!("node=\"{node}\"")]).unwrap_or(0)
    };
    let requests: Vec<u64> = ["n1", "n2", "n3"]
        .iter()
        .map(|node| per_node("arrayflow_requests_total", node))
        .collect();
    let total: u64 = requests.iter().sum();
    assert!(total >= 2 * programs.len() as u64, "requests={requests:?}");
    let serving = requests.iter().filter(|&&n| n > 0).count();
    assert!(serving >= 2, "18 programs landed on {serving} node(s)");
    let forwards = per_node("arrayflow_router_forwards_total", "router");
    assert!(forwards >= 2 * programs.len() as u64, "forwards={forwards}");

    // The router's merged sums equal the nodes' own: each node's lines of
    // the merged exposition are its direct scrape, byte for byte. The
    // comparison runs at a moment the node's families stand still
    // (replication may still be shipping records to replicas).
    for (i, node) in ["n1", "n2", "n3"].into_iter().enumerate() {
        let mut direct = JsonClient::connect(&cluster.node_addrs[i]);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let before = node_lines(&scrape_metrics(&mut direct), node);
            let merged = node_lines(&scrape_metrics(&mut router), node);
            let after = node_lines(&scrape_metrics(&mut direct), node);
            if before == after {
                assert!(!before.is_empty(), "{node} exported no node families");
                assert_eq!(merged, before, "the router's {node} lines");
                break;
            }
            assert!(Instant::now() < deadline, "{node}'s families never settled");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    cluster.shutdown();
}

#[test]
fn replication_keeps_each_replica_warm() {
    let cluster = boot_cluster("repl", 3);
    let programs = programs(10);

    let mut router = JsonClient::connect(&cluster.router_addr);
    for (i, p) in programs.iter().enumerate() {
        let resp = router.request(&format!(
            r#"{{"id": {i}, "verb": "analyze", "program": "{p}"}}"#
        ));
        assert!(is_ok(&resp), "{resp:?}");
    }

    // Every report reaches its primary's designated replica: the sum of
    // applied replication records across the cluster converges to the
    // number of distinct loops.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut clients: Vec<JsonClient> = cluster
        .node_addrs
        .iter()
        .map(|a| JsonClient::connect(a))
        .collect();
    loop {
        let mut applied = 0u64;
        for c in &mut clients {
            let text = scrape_metrics(c);
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

    cluster.shutdown();
}

#[test]
fn sessions_stay_pinned_to_one_shard_through_the_router() {
    let cluster = boot_cluster("sessions", 3);
    let mut c = JsonClient::connect(&cluster.router_addr);

    // Open several sessions; each routes by its source's canonical
    // fingerprint, so different loops may land on different shards.
    let base = "do i = 1, 60 A[i+2] := A[i] + x; B[i] := A[i+1]; end";
    let opened = c.request(&format!(
        r#"{{"id": 1, "verb": "open", "program": "{base}"}}"#
    ));
    assert!(is_ok(&opened), "{opened:?}");
    let result = opened.get("result").unwrap();
    let session = result.get("session").and_then(Json::as_u64).unwrap();
    let fp = result
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let stmt = {
        let mut p = arrayflow_ir::parse_program(base).unwrap();
        p.renumber();
        arrayflow_workloads::assign_ids(&p)[1].0
    };

    // A chain of edits, every delta carrying the *base* fingerprint: the
    // router hashes it to the same shard each time, so the session state
    // is found even though each edit changes the canonical fingerprint.
    let texts = [
        "B[i] := A[i-3] * 2;",
        "B[i] := A[i] + y;",
        "B[i+1] := A[i-1];",
        "B[i] := A[i+1];",
    ];
    let mut last_fp = fp.clone();
    for (step, text) in texts.iter().enumerate() {
        let resp = c.request(&format!(
            r#"{{"id": {}, "verb": "delta", "session": {session}, "fingerprint": "{fp}", "stmt": {stmt}, "text": "{text}"}}"#,
            step + 2
        ));
        assert!(is_ok(&resp), "step {step}: {resp:?}");
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("session").and_then(Json::as_u64), Some(session));
        let new_fp = result
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_ne!(new_fp, last_fp, "step {step}: the edit changes the loop");
        last_fp = new_fp;
    }

    // Exactly one node owns the session: the merged exposition shows one
    // open session and four deltas across the cluster.
    let prom = scrape_metrics(&mut c);
    let mut open_total = 0;
    let mut deltas_total = 0;
    let mut owners = 0;
    for id in ["n1", "n2", "n3"] {
        let node = format!("node=\"{id}\"");
        let series = |name: &str| common::scrape(&prom, name, &[&node]).unwrap_or(0);
        let open = series("arrayflow_sessions_open");
        let deltas = series("arrayflow_delta_applied_total");
        open_total += open;
        deltas_total += deltas;
        if deltas > 0 {
            owners += 1;
            assert_eq!(deltas, 4, "all deltas on the owning shard");
        }
    }
    assert_eq!(open_total, 1);
    assert_eq!(deltas_total, 4);
    assert_eq!(owners, 1, "the session never moved between shards");

    cluster.shutdown();
}

#[test]
fn routed_nests_answer_like_the_node_warm_and_cold() {
    // Regression: the router attached the outer loop's fingerprint to
    // every forwarded sole-loop program, so once the nest was warm the
    // node's fingerprint probe answered that one loop instead of all.
    let ports = reserve_ports(2);
    let node_addr = format!("127.0.0.1:{}", ports[0]);
    let router_addr = format!("127.0.0.1:{}", ports[1]);
    let _node = spawn_serve(&[
        "--listen".into(),
        node_addr.clone(),
        "--node-id".into(),
        "n1".into(),
    ]);
    let _router = spawn_serve(&[
        "--listen".into(),
        router_addr.clone(),
        "--router".into(),
        format!("n1={node_addr}"),
    ]);
    let nest =
        Json::Str("do j = 1, 50 do i = 1, 40 X[i+1] := X[i]; Y[i] := X[i+1]; end end".into());
    let loops = |line: &str| {
        Json::parse(line.as_bytes())
            .unwrap()
            .get("result")
            .and_then(|r| r.get("loops"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
    };
    for frame in [
        format!(r#"{{"id": 1, "verb": "analyze", "program": {nest}}}"#),
        format!(
            r#"{{"id": 2, "verb": "custom", "program": {nest}, "spec": {{"gen": ["uses"], "kill": ["defs"], "direction": "backward", "mode": "may"}}}}"#
        ),
    ] {
        let mut routed = JsonClient::connect(&router_addr);
        let cold = routed.line(&frame);
        let direct = JsonClient::connect(&node_addr).line(&frame);
        assert_eq!(loops(&direct), Some(2), "{direct}");
        assert_eq!(loops(&cold), Some(2), "{cold}");
        for _ in 0..2 {
            assert_eq!(routed.line(&frame), direct, "warm routed answer moved");
        }
    }
}

#[cfg(unix)]
#[test]
fn a_connection_flood_past_the_fd_limit_leaves_the_router_serving() {
    // Regression: the router's accept loop returned on any accept error,
    // so running out of file descriptors ended the process.
    let ports = reserve_ports(2);
    let node_addr = format!("127.0.0.1:{}", ports[0]);
    let router_addr = format!("127.0.0.1:{}", ports[1]);
    let _node = spawn_serve(&["--listen".into(), node_addr.clone()]);
    let mut router = Command::new("sh");
    router
        .args(["-c", r#"ulimit -n 64 && exec "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--listen",
            &router_addr,
            "--router",
            &format!("n1={node_addr}"),
        ]);
    let mut router = spawn(router);

    // More connections than the router has descriptors, all held open.
    let flood: Vec<TcpStream> = (0..120)
        .filter_map(|_| TcpStream::connect(&router_addr).ok())
        .collect();
    assert!(flood.len() > 64, "only {} connects", flood.len());
    std::thread::sleep(Duration::from_millis(300));
    drop(flood);

    let mut c = JsonClient::connect(&router_addr);
    let resp = c.request(r#"{"id": 1, "verb": "ping"}"#);
    assert_eq!(resp.get("result").and_then(Json::as_str), Some("pong"));
    c.request(r#"{"id": 2, "verb": "shutdown"}"#);
    assert!(router.child.wait().unwrap().success(), "router exit");
}

#[test]
fn router_mode_applies_the_listener_flags() {
    let ports = reserve_ports(2);
    let node_addr = format!("127.0.0.1:{}", ports[0]);
    let router_addr = format!("127.0.0.1:{}", ports[1]);
    let _node = spawn_serve(&["--listen".into(), node_addr.clone()]);
    let _router = spawn_serve(&[
        "--listen".into(),
        router_addr.clone(),
        "--router".into(),
        format!("n1={node_addr}"),
        "--idle-timeout-ms".into(),
        "300".into(),
        "--max-frame".into(),
        "512".into(),
    ]);

    // `--max-frame`: a 2.1 KB analyze, which the node behind (1 MiB cap)
    // would answer, is refused by the router's own cap.
    let long = format!(
        r#"{{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end", "pad": "{}"}}"#,
        "x".repeat(2048)
    );
    assert!(long.len() > 2100);
    let resp = JsonClient::connect(&router_addr).line(&long);
    assert_eq!(
        resp,
        r#"{"id":null,"ok":false,"error":{"kind":"protocol","message":"frame exceeds 512 bytes"}}"#
    );

    // `--idle-timeout-ms`: half a line, then silence, is reaped.
    let mut parked = TcpStream::connect(&router_addr).unwrap();
    parked.write_all(br#"{"id": 1, "verb": "pi"#).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    assert_eq!(parked.read(&mut buf).expect("closed, not timed out"), 0);
    assert!(started.elapsed() < Duration::from_secs(5));

    // Every listener sniffs: there is no protocol flag to pin one.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--router", &format!("n1={node_addr}"), "--proto", "json"])
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--proto`"), "{stderr}");

    // A node-only flag is refused in router mode, naming the flag.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--router", &format!("n1={node_addr}"), "--workers", "2"])
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers"), "{stderr}");
}
