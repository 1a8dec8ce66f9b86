//! End-to-end replicator drill against a fake replica: a TCP listener
//! that speaks just enough of the wire protocol to accept `replicate`
//! frames and apply them to its own store.

use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arrayflow_cluster::{Replicator, ReplicatorConfig};
use arrayflow_engine::{AnalysisReport, CacheKey, ProblemSet};
use arrayflow_ir::Fingerprint;
use arrayflow_obs::Registry;
use arrayflow_store::{ReplicationSink, Store, StoreConfig};
use arrayflow_wire::encode_frame;
use arrayflow_wire::frame::read_frame;
use arrayflow_wire::proto::{Request, Response};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("afclu-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(fp: u128) -> CacheKey {
    CacheKey {
        fingerprint: Fingerprint(fp),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        custom: None,
    }
}

fn report(fp: u128, sites: usize) -> AnalysisReport {
    AnalysisReport {
        fingerprint: Fingerprint(fp),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        nodes: 10,
        sites,
        canned_stats: [None; 4],
        reuses: Vec::new(),
        redundant_stores: Vec::new(),
        dependences: Vec::new(),
        custom: None,
    }
}

/// A minimal replica: accepts connections forever, applies every
/// replicate batch to `dst`, acks each with a text response.
fn spawn_fake_replica(dst: Arc<Store>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let dst = Arc::clone(&dst);
            std::thread::spawn(move || loop {
                let Ok((tag, payload)) = read_frame(&mut stream, 64 << 20) else {
                    return;
                };
                let Ok(Request::Replicate { id, batch }) = Request::decode(tag, &payload) else {
                    return;
                };
                let applied = dst.import_frames(&batch).unwrap();
                let resp = Response::Text {
                    id,
                    text: format!("{{\"applied\":{applied}}}"),
                };
                let frame = encode_frame(resp.tag(), &resp.encode_payload());
                if stream.write_all(&frame).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

/// Opens the store at `config` on a registry no test reads.
fn open(config: StoreConfig) -> Arc<Store> {
    Arc::new(Store::open_in(config, &Registry::new()).unwrap())
}

/// The counter `name` on `registry`.
fn count(registry: &Registry, name: &str) -> u64 {
    registry.snapshot().value(name, &[]).unwrap()
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn replicator_ships_existing_and_incremental_records() {
    let src_dir = TempDir::new("repl-src");
    let dst_dir = TempDir::new("repl-dst");
    let src = open(StoreConfig::at(&src_dir.0));
    let dst = open(StoreConfig::at(&dst_dir.0));

    // Records present before the replicator starts: covered by the
    // connect-time full sync.
    for i in 0..3u128 {
        src.put(key(i), report(i, 1)).unwrap();
    }

    let addr = spawn_fake_replica(Arc::clone(&dst));
    let registry = Registry::new();
    let mut config = ReplicatorConfig::to(&addr);
    config.interval = Duration::from_millis(20);
    let replicator = Replicator::start(Arc::clone(&src), config, &registry);

    assert!(
        wait_for(Duration::from_secs(30), || dst.len() == 3),
        "full sync never arrived: dst has {} records",
        dst.len()
    );

    // Incremental path: records offered through the sink (as the tier's
    // writer thread would) after local append.
    for i in 3..8u128 {
        src.put(key(i), report(i, 2)).unwrap();
        replicator.record(&key(i), &Arc::new(report(i, 2)));
    }
    replicator.barrier();

    assert!(
        wait_for(Duration::from_secs(30), || dst.len() == 8),
        "incremental batch never arrived: dst has {} records",
        dst.len()
    );
    for i in 0..8u128 {
        assert_eq!(dst.get(&key(i)), src.get(&key(i)), "key {i}");
    }
    // The fake replica imports a batch before acking it, so `dst` can
    // reach 8 records before the shipper thread has read the ack and
    // counted them. Shutdown joins the shipper, settling the counters.
    replicator.shutdown();
    let syncs = count(&registry, "arrayflow_replica_syncs_total");
    let shipped = count(&registry, "arrayflow_replica_shipped_records_total");
    assert!(syncs >= 1, "{syncs} syncs");
    assert!(shipped >= 5, "{shipped} records shipped");
}

#[test]
fn replicator_survives_replica_coming_up_late() {
    let src_dir = TempDir::new("repl-late-src");
    let dst_dir = TempDir::new("repl-late-dst");
    let src = open(StoreConfig::at(&src_dir.0));
    let dst = open(StoreConfig::at(&dst_dir.0));
    src.put(key(1), report(1, 1)).unwrap();

    // Reserve an address, start the replicator against it while nothing
    // is listening, then bring the replica up.
    let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap().to_string();
    drop(placeholder);

    let registry = Registry::new();
    let mut config = ReplicatorConfig::to(&addr);
    config.interval = Duration::from_millis(20);
    let replicator = Replicator::start(Arc::clone(&src), config, &registry);
    assert!(
        wait_for(Duration::from_secs(30), || {
            count(&registry, "arrayflow_replica_errors_total") > 0
        }),
        "no connect attempts recorded"
    );
    assert_eq!(dst.len(), 0);

    // Replica appears at the same address; the next backoff round should
    // connect and full-sync.
    let listener = TcpListener::bind(&addr).expect("rebind placeholder address");
    let dst2 = Arc::clone(&dst);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let dst = Arc::clone(&dst2);
            while let Ok((tag, payload)) = read_frame(&mut stream, 64 << 20) {
                let Ok(Request::Replicate { id, batch }) = Request::decode(tag, &payload) else {
                    break;
                };
                let _ = dst.import_frames(&batch);
                let resp = Response::Text {
                    id,
                    text: "{}".into(),
                };
                let frame = encode_frame(resp.tag(), &resp.encode_payload());
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        }
    });

    assert!(
        wait_for(Duration::from_secs(30), || dst.len() == 1),
        "sync after late start never arrived"
    );
    replicator.shutdown();
}

/// A replica that drops SYNs must not hold shutdown hostage: the
/// shipper's dial is bounded by `request_timeout`. A listener re-listened
/// with a zero backlog, holding one connection it never accepts, drops
/// every further SYN, so a dial to it hangs until its timeout.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_is_prompt_while_the_replica_drops_syns() {
    use std::os::fd::AsRawFd;

    let src_dir = TempDir::new("repl-silent-src");
    let src = open(StoreConfig::at(&src_dir.0));
    src.put(key(1), report(1, 1)).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    arrayflow_wire::event::set_backlog(listener.as_raw_fd(), 0).unwrap();
    let addr = listener.local_addr().unwrap();
    let _queued = std::net::TcpStream::connect(addr).unwrap();

    let registry = Registry::new();
    let mut config = ReplicatorConfig::to(addr.to_string());
    config.interval = Duration::from_millis(20);
    config.request_timeout = Duration::from_millis(300);
    let replicator = Replicator::start(Arc::clone(&src), config, &registry);
    assert!(
        wait_for(Duration::from_secs(10), || {
            count(&registry, "arrayflow_replica_errors_total") > 0
        }),
        "the shipper's dial never gave up"
    );
    let started = Instant::now();
    replicator.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
}
