//! Write-path circuit breaker: trip on consecutive failed appends,
//! degrade to memory-only, recover through a half-open probe.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arrayflow_engine::{AnalysisReport, CacheKey, ProblemSet, SecondTier};
use arrayflow_ir::Fingerprint;
use arrayflow_obs::Registry;
use arrayflow_resilience::{BreakerState, FaultPlan};
use arrayflow_store::{PersistentTier, Store, StoreConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("afbrk-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
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

fn report(fp: u128) -> AnalysisReport {
    AnalysisReport {
        fingerprint: Fingerprint(fp),
        problems: ProblemSet::ALL,
        dep_max_distance: 8,
        nodes: 7,
        sites: 3,
        canned_stats: [None; 4],
        reuses: Vec::new(),
        redundant_stores: Vec::new(),
        dependences: Vec::new(),
        custom: None,
    }
}

fn config(dir: &TempDir, threshold: u32, cooldown: Duration) -> StoreConfig {
    let mut c = StoreConfig::at(&dir.0);
    c.breaker_threshold = threshold;
    c.breaker_cooldown = cooldown;
    c
}

/// A store and its tier, both counting into the returned registry.
fn open(
    dir: &TempDir,
    threshold: u32,
    cooldown: Duration,
) -> (Arc<Store>, Arc<PersistentTier>, Registry) {
    let registry = Registry::new();
    let store = Arc::new(Store::open_in(config(dir, threshold, cooldown), &registry).unwrap());
    let tier = PersistentTier::new_in(Arc::clone(&store), 64, &registry);
    (store, tier, registry)
}

/// The counter `name` on `registry`.
fn count(registry: &Registry, name: &str) -> u64 {
    registry.snapshot().value(name, &[]).unwrap()
}

/// Queues one append and waits for the writer to process it.
fn store_and_flush(tier: &PersistentTier, fp: u128) {
    tier.store(&key(fp), &Arc::new(report(fp)));
    tier.flush();
}

#[test]
fn trips_after_threshold_and_degrades_to_memory_only() {
    let dir = TempDir::new("trip");
    let (store, tier, registry) = open(&dir, 3, Duration::from_secs(3600));
    // Every append fails, as if the disk had died.
    store.set_fault_surface(Arc::new(
        FaultPlan::parse("store_io_first=1000000").unwrap(),
    ));

    for fp in 0..3 {
        store_and_flush(&tier, fp);
        let expected = if fp < 2 {
            BreakerState::Closed
        } else {
            BreakerState::Open
        };
        assert_eq!(tier.breaker_state(), expected, "after failure #{}", fp + 1);
    }
    let count = |name| count(&registry, name);
    assert_eq!(count("arrayflow_tier_failed_appends_total"), 3);
    assert_eq!(count("arrayflow_store_breaker_trips_total"), 1);
    assert_eq!(count("arrayflow_tier_breaker_dropped_total"), 0);

    // Open breaker: appends are refused locally, the disk is left alone.
    for fp in 10..20 {
        store_and_flush(&tier, fp);
    }
    assert_eq!(
        count("arrayflow_tier_failed_appends_total"),
        3,
        "no further I/O was attempted"
    );
    assert_eq!(count("arrayflow_tier_breaker_dropped_total"), 10);
    assert_eq!(
        count("arrayflow_tier_queued_appends_total"),
        3,
        "refused appends never hit the queue"
    );
    assert_eq!(tier.breaker_state(), BreakerState::Open);
}

#[test]
fn half_open_probe_closes_on_success() {
    let dir = TempDir::new("recover");
    // The first two appends fail (tripping the threshold-2 breaker), the
    // disk then "recovers"; cooldown zero admits the probe immediately.
    let (store, tier, registry) = open(&dir, 2, Duration::ZERO);
    store.set_fault_surface(Arc::new(FaultPlan::parse("store_io_first=2").unwrap()));
    let count = |name| count(&registry, name);

    store_and_flush(&tier, 1);
    store_and_flush(&tier, 2);
    assert_eq!(tier.breaker_state(), BreakerState::Open);
    assert_eq!(count("arrayflow_store_breaker_trips_total"), 1);

    // The next append is admitted as the half-open probe, succeeds on
    // disk, and closes the breaker.
    store_and_flush(&tier, 3);
    assert_eq!(tier.breaker_state(), BreakerState::Closed);
    assert_eq!(count("arrayflow_tier_written_appends_total"), 1);

    // Back to normal: writes reach the disk again.
    store_and_flush(&tier, 4);
    assert_eq!(count("arrayflow_tier_written_appends_total"), 2);
    assert_eq!(store.get(&key(4)).as_ref(), Some(&report(4)));
}

#[test]
fn failed_probe_reopens() {
    let dir = TempDir::new("reopen");
    // Failures: 2 to trip, then the probe (append #3) also fails, then
    // the disk recovers for the second probe.
    let (store, tier, registry) = open(&dir, 2, Duration::ZERO);
    store.set_fault_surface(Arc::new(FaultPlan::parse("store_io_first=3").unwrap()));
    let count = |name| count(&registry, name);

    store_and_flush(&tier, 1);
    store_and_flush(&tier, 2);
    assert_eq!(tier.breaker_state(), BreakerState::Open);

    store_and_flush(&tier, 3); // probe, fails on disk
    assert_eq!(tier.breaker_state(), BreakerState::Open);
    assert_eq!(count("arrayflow_store_breaker_trips_total"), 2);

    store_and_flush(&tier, 4); // second probe, disk is back
    assert_eq!(tier.breaker_state(), BreakerState::Closed);
    assert_eq!(count("arrayflow_tier_failed_appends_total"), 3);
    assert_eq!(count("arrayflow_tier_written_appends_total"), 1);
}

#[test]
fn reads_keep_working_while_writes_are_broken() {
    let dir = TempDir::new("reads");
    let (store, tier, registry) = open(&dir, 1, Duration::from_secs(3600));

    // One good write before the disk dies.
    store_and_flush(&tier, 7);
    assert_eq!(count(&registry, "arrayflow_tier_written_appends_total"), 1);

    store.set_fault_surface(Arc::new(
        FaultPlan::parse("store_io_first=1000000").unwrap(),
    ));
    store_and_flush(&tier, 8); // fails, trips the threshold-1 breaker
    assert_eq!(tier.breaker_state(), BreakerState::Open);

    // Loads are never gated by the write-path breaker.
    assert_eq!(tier.load(&key(7)).as_deref(), Some(&report(7)));
    assert_eq!(tier.load(&key(8)), None);
}
