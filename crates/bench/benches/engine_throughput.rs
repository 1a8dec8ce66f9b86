//! Engine throughput: programs/sec over a 500-program batch, by worker
//! count, against the uncached sequential driver.
//!
//! The stream duplicates loop structures (each of 100 seeds appears five
//! times under renaming-free regeneration), which is what a compiler or
//! autotuner actually emits — the memo cache answers the repeats, and the
//! worker pool spreads the misses. The table reports throughput, speedup
//! over analyzing every program from scratch sequentially, and the cache
//! hit rate.

use std::hint::black_box;
use std::time::Duration;

use arrayflow_analyses::analyze_nest;
use arrayflow_bench::time;
use arrayflow_engine::{Engine, EngineConfig, EvictionPolicy};
use arrayflow_ir::Program;
use arrayflow_workloads::{random_loop, LoopShape};

const BATCH: usize = 500;
const DISTINCT: u64 = 100;

fn workload() -> Vec<Program> {
    let shape = LoopShape {
        stmts: 10,
        arrays: 3,
        cond_pct: 25,
        ..LoopShape::default()
    };
    (0..BATCH)
        .map(|k| random_loop(&shape, k as u64 % DISTINCT))
        .collect()
}

/// Median of three timed runs of `f`.
fn median3<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut runs: Vec<(Duration, R)> = (0..3).map(|_| time(&mut f)).collect();
    runs.sort_by_key(|(d, _)| *d);
    runs.swap_remove(1)
}

/// The engine's cache hits and misses, read from its registry.
fn hits_and_misses(engine: &Engine) -> (u64, u64) {
    let snap = engine.registry().snapshot();
    let count = |name| snap.value(name, &[]).unwrap_or(0);
    (
        count("arrayflow_cache_hits_total"),
        count("arrayflow_cache_misses_total"),
    )
}

/// Hits over lookups, in `[0, 1]`.
fn hit_rate((hits, misses): (u64, u64)) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

fn main() {
    let programs = workload();

    // Baseline: the plain sequential driver, no cache, no threads — every
    // program pays a full normalize + solve.
    let (base, _) = median3(|| {
        for p in &programs {
            let mut p = p.clone();
            arrayflow_ir::normalize(&mut p);
            p.renumber();
            black_box(analyze_nest(&p).expect("workload analyzes"));
        }
    });
    let base_pps = BATCH as f64 / base.as_secs_f64();

    println!("\n== engine throughput: {BATCH}-program batch, {DISTINCT} distinct structures ==");
    println!(
        "{:<24}  {:>10.1} programs/sec  (speedup 1.00x, hit rate –)",
        "sequential driver", base_pps
    );

    for workers in [1usize, 2, 4, 8] {
        // A fresh engine per run: the cache starts cold, so the measured
        // hit rate is the one the duplicated stream itself produces.
        let (d, rate) = median3(|| {
            let engine = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            black_box(engine.analyze_batch(&programs));
            hit_rate(hits_and_misses(&engine))
        });
        let pps = BATCH as f64 / d.as_secs_f64();
        println!(
            "{:<24}  {:>10.1} programs/sec  (speedup {:.2}x, hit rate {:.0}%)",
            format!("engine, {workers} worker(s)"),
            pps,
            pps / base_pps,
            100.0 * rate
        );
        assert!(
            rate > 0.5,
            "duplicated stream must hit > 50%, got {rate:.2}"
        );
        assert!(
            pps > base_pps,
            "memoizing engine must beat the uncached driver ({pps:.1} vs {base_pps:.1} programs/sec)"
        );
    }

    eviction_comparison();

    println!(
        "\n(hardware threads available: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}

/// A skewed 500-program stream: each 10-program cycle touches all 8 hot
/// structures then 2 one-shot cold ones. The hot set plus the transient
/// colds just exceeds the cache capacity, so every cycle forces
/// evictions; the hot entries are re-referenced every cycle, the colds
/// never are.
fn skewed_workload() -> Vec<Program> {
    let shape = LoopShape {
        stmts: 10,
        arrays: 3,
        cond_pct: 25,
        ..LoopShape::default()
    };
    (0..BATCH)
        .map(|k| {
            let seed = if k % 10 < 8 {
                (k % 10) as u64 // hot: eight structures, touched every cycle
            } else {
                10_000 + k as u64 // cold: unique, never seen again
            };
            random_loop(&shape, seed)
        })
        .collect()
}

/// FIFO vs second-chance on the skewed stream with capacity 12. FIFO
/// cannot tell the re-referenced hot entries from the dead cold ones, so
/// the cold trickle steadily rotates hot entries out of the front of the
/// queue; second-chance sees their referenced bit, requeues them, and
/// evicts the colds instead — which shows up directly as hit rate.
fn eviction_comparison() {
    let programs = skewed_workload();
    println!(
        "\n== eviction policy: skewed {BATCH}-program stream (8 hot + cold trickle), capacity 12 =="
    );
    let mut rates = Vec::new();
    for (name, eviction) in [
        ("fifo", EvictionPolicy::Fifo),
        ("second-chance", EvictionPolicy::SecondChance),
    ] {
        let engine = Engine::new(EngineConfig {
            workers: 1, // deterministic arrival order
            cache_shards: 1,
            cache_capacity: 12,
            eviction,
            ..EngineConfig::default()
        });
        black_box(engine.analyze_batch(&programs));
        let (hits, misses) = hits_and_misses(&engine);
        let evictions = engine.registry().snapshot();
        let evictions = evictions.value("arrayflow_cache_evictions_total", &[]);
        let rate = hit_rate((hits, misses));
        println!(
            "{:<24}  hit rate {:>5.1}%  ({hits} hits / {misses} misses, {} evictions)",
            name,
            100.0 * rate,
            evictions.unwrap_or(0)
        );
        rates.push(rate);
    }
    println!(
        "second-chance delta: {:+.1} percentage points",
        100.0 * (rates[1] - rates[0])
    );
    assert!(
        rates[1] >= rates[0],
        "second-chance must not lose to FIFO on a skewed stream ({:.3} vs {:.3})",
        rates[1],
        rates[0]
    );
}
