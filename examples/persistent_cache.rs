//! Persisting analysis reports across process restarts.
//!
//! Runs the engine twice over the same program stream with a disk store
//! underneath the memo cache: the first "process" solves everything and
//! persists each report through the async writer tier; the second
//! warm-starts its cache from the recovered store and answers the whole
//! stream without solving anything.
//!
//! Run with `cargo run --example persistent_cache`.

use std::sync::Arc;

use arrayflow::obs::Registry;
use arrayflow::prelude::*;
use arrayflow::store::PersistentTier;
use arrayflow::workloads::{random_loop, LoopShape};

fn main() {
    let dir = std::env::temp_dir().join(format!("arrayflow-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let shape = LoopShape::default();
    let batch: Vec<_> = (0..20u64).map(|seed| random_loop(&shape, seed)).collect();

    // "Process" one: solve and persist. The engine, its cache, the store
    // and the tier all count into one registry.
    {
        let registry = Registry::new();
        let store = Store::open_in(StoreConfig::at(&dir), &registry).expect("open store");
        let tier = PersistentTier::new_in(Arc::new(store), 1024, &registry);
        let mut engine = Engine::with_registry(EngineConfig::default(), &registry);
        engine.set_second_tier(tier.clone());
        engine.analyze_batch(&batch);
        // Graceful shutdown: wait for the writer thread to land every
        // queued append before "exiting".
        tier.flush();
        println!("first run:");
        let exposition = registry.snapshot().render_prometheus();
        for line in exposition
            .lines()
            .filter(|l| l.starts_with("arrayflow_cache_") || l.starts_with("arrayflow_store_"))
        {
            println!("  {line}");
        }
    }

    // "Process" two: recover, warm-start, replay.
    {
        let store = Store::open_in(StoreConfig::at(&dir), &Registry::new()).expect("recover store");
        let recovery = store.recovery();
        println!(
            "\nrecovered : {} record(s) from {} segment(s), {} skipped",
            recovery.live_records, recovery.segments, recovery.skipped
        );

        let engine = Engine::new(EngineConfig::default());
        let loaded = store.for_each_live(|key, report| engine.preload(key, Arc::new(report)));
        engine.analyze_batch(&batch);
        let snapshot = engine.registry().snapshot();
        let count = |name| snapshot.value(name, &[]).unwrap();
        let hits = count("arrayflow_cache_hits_total");
        let misses = count("arrayflow_cache_misses_total");
        println!("second run: {hits} hits, {misses} misses ({loaded} preloaded)");

        assert_eq!(misses, 0, "warm cache answers everything");
        assert_eq!(hits, batch.len() as u64);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
