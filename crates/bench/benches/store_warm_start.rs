//! Warm-start economics of the persistent report store: what does a
//! restart cost with and without `--store`?
//!
//! A populated store is recovered from disk, preloaded into a fresh
//! engine's cache, and the original program stream is replayed; the
//! comparison is a fresh engine that has to re-solve everything. The
//! table reports the one-time warm-start cost (segment scan + preload)
//! and the replay throughput, cold vs warm.

use std::hint::black_box;
use std::sync::Arc;

use arrayflow_bench::time;
use arrayflow_engine::{Engine, EngineConfig};
use arrayflow_ir::Program;
use arrayflow_obs::Registry;
use arrayflow_store::{PersistentTier, Store, StoreConfig};
use arrayflow_workloads::{random_loop, LoopShape};

const DISTINCT: usize = 200;

fn workload() -> Vec<Program> {
    let shape = LoopShape {
        stmts: 10,
        arrays: 3,
        cond_pct: 25,
        ..LoopShape::default()
    };
    (0..DISTINCT)
        .map(|k| random_loop(&shape, k as u64))
        .collect()
}

fn main() {
    let programs = workload();
    let dir = std::env::temp_dir().join(format!("af-warmbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Populate: a store-backed engine analyzes every program once; the
    // async writer persists each miss. Flush before measuring anything.
    let (populate, appended) = {
        let registry = Registry::new();
        let store = Store::open_in(StoreConfig::at(&dir), &registry).expect("open store");
        let tier = PersistentTier::new_in(Arc::new(store), 1024, &registry);
        let mut engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        engine.set_second_tier(tier.clone());
        let (d, ()) = time(|| {
            black_box(engine.analyze_batch(&programs));
        });
        tier.flush();
        let snap = registry.snapshot();
        let count = |name| snap.value(name, &[]).unwrap();
        let appends = count("arrayflow_store_appends_total");
        assert_eq!(appends, DISTINCT as u64, "every miss persisted");
        (d, count("arrayflow_store_bytes"))
    };

    let cache = |engine: &Engine, name| engine.registry().snapshot().value(name, &[]);

    // Cold restart: a fresh engine re-solves the whole stream.
    let (cold, cold_misses) = time(|| {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        black_box(engine.analyze_batch(&programs));
        cache(&engine, "arrayflow_cache_misses_total")
    });
    assert_eq!(cold_misses, Some(DISTINCT as u64));

    // Warm restart: recover the store, preload the cache, replay.
    let (recover, store) =
        time(|| Store::open_in(StoreConfig::at(&dir), &Registry::new()).expect("reopen store"));
    assert_eq!(store.recovery().live_records, DISTINCT as u64);
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let (preload, loaded) =
        time(|| store.for_each_live(|key, report| engine.preload(key, Arc::new(report))));
    assert_eq!(loaded, DISTINCT as u64);
    let (warm, warm_hits) = time(|| {
        black_box(engine.analyze_batch(&programs));
        cache(&engine, "arrayflow_cache_hits_total")
    });
    assert_eq!(
        warm_hits,
        Some(DISTINCT as u64),
        "a warm-started cache answers every replayed program"
    );

    let pps = |d: std::time::Duration| DISTINCT as f64 / d.as_secs_f64();
    println!("\n== store warm start: {DISTINCT} distinct programs, {appended} bytes on disk ==");
    println!(
        "{:<28}  {:>9.1} ms  ({:>8.1} programs/sec)",
        "populate (solve + persist)",
        populate.as_secs_f64() * 1e3,
        pps(populate)
    );
    println!(
        "{:<28}  {:>9.1} ms  ({:>8.1} programs/sec)",
        "cold replay (re-solve)",
        cold.as_secs_f64() * 1e3,
        pps(cold)
    );
    println!(
        "{:<28}  {:>9.1} ms",
        "recovery (segment scan)",
        recover.as_secs_f64() * 1e3
    );
    println!(
        "{:<28}  {:>9.1} ms",
        "preload (disk -> cache)",
        preload.as_secs_f64() * 1e3
    );
    println!(
        "{:<28}  {:>9.1} ms  ({:>8.1} programs/sec)",
        "warm replay (cache hits)",
        warm.as_secs_f64() * 1e3,
        pps(warm)
    );
    let startup = recover + preload;
    println!(
        "\nwarm replay speedup over cold: {:.2}x; warm start pays for itself after {:.0} replayed program(s)",
        cold.as_secs_f64() / warm.as_secs_f64(),
        (startup.as_secs_f64() / (cold.as_secs_f64() / DISTINCT as f64)).ceil()
    );
    assert!(
        warm < cold,
        "replaying from a warm cache must beat re-solving ({warm:?} vs {cold:?})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
