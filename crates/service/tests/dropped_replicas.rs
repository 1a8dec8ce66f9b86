//! A store-backed service that replicates, dropped without `shutdown`,
//! stops its replica shipper: the shipping thread holds only the queue it
//! shares with the replicator, so the service's drop releases the last
//! `Arc<Replicator>`, whose `Drop` stops and joins the thread. One test in
//! a binary of its own, so the process's threads are this test's.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arrayflow_service::{Service, ServiceConfig};
use arrayflow_store::StoreConfig;

/// Threads of this process named `replica-shipper`.
fn shippers() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
    tasks
        .filter_map(|t| comm(t.ok()?))
        .filter(|name| name.trim_end() == "replica-shipper")
        .count()
}

/// Waits up to five seconds for `done`.
fn wait_until(done: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}: {} shippers", shippers());
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn dropped_replicating_services_leave_no_thread_behind() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("afdropped-replicas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // An address nothing listens on: every connect fails at once and the
    // shipper waits out its backoff.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let replica = placeholder.local_addr().unwrap().to_string();
    drop(placeholder);
    let before = shippers();
    let services: Vec<_> = (0..3)
        .map(|k| {
            Service::start(ServiceConfig {
                workers: 1,
                store: Some(StoreConfig::at(base.join(format!("n{k}")))),
                replicate_to: Some(replica.clone()),
                ..ServiceConfig::default()
            })
            .expect("a store-backed service starts")
        })
        .collect();
    let replicators: Vec<_> = services
        .iter()
        .map(|s| Arc::downgrade(s.replicator().expect("replicate_to is set")))
        .collect();
    // A thread takes its name once it runs.
    if std::path::Path::new("/proc/self/task").exists() {
        wait_until(|| shippers() == before + 3, "one shipper per service");
    }
    drop(services);
    wait_until(
        || replicators.iter().all(|r| r.upgrade().is_none()) && shippers() == before,
        "no shipper left running",
    );
    let _ = std::fs::remove_dir_all(&base);
}
