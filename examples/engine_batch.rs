//! Batch analysis with the concurrent, memoizing engine.
//!
//! Builds a stream of programs in which many loops are alpha-equivalent
//! (same structure, different variable and array names), fans it across
//! the worker pool, and prints what the cache saved.
//!
//! Run with `cargo run --example engine_batch`.

use arrayflow::prelude::*;
use arrayflow::workloads::{random_loop, LoopShape};

fn main() {
    // Two hand-written programs that differ only in names: the engine
    // fingerprints them identically, so the second is a cache hit.
    let stencil_i = parse_program(
        "do i = 1, 100
           A[i+2] := A[i] + x;
         end",
    )
    .unwrap();
    let stencil_j = parse_program(
        "do j = 1, 100
           dst[j+2] := dst[j] + scale;
         end",
    )
    .unwrap();

    // Plus a seeded random stream where every structure appears four
    // times — the duplication a compiler or autotuner actually produces.
    let mut batch = vec![stencil_i, stencil_j];
    let shape = LoopShape::default();
    for seed in 0..40u64 {
        batch.push(random_loop(&shape, seed % 10));
    }

    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let results = engine.analyze_batch(&batch);

    println!("batch of {} programs, 4 workers\n", batch.len());
    for r in results.iter().take(4) {
        let loop0 = &r.loops[0];
        println!(
            "program {:>2}: fp={} sites={} reuses={} deps={} ({})",
            r.index,
            loop0.fingerprint,
            loop0.report.sites,
            loop0.report.reuses.len(),
            loop0.report.dependences.len(),
            if r.stats.cache_hits > 0 {
                "cache hit"
            } else {
                "solved"
            }
        );
    }
    println!("...");

    // Every count lives on the engine's registry, the same series a
    // serving node exports.
    let snapshot = engine.registry().snapshot();
    let count = |name| snapshot.value(name, &[]).unwrap();
    let hits = count("arrayflow_cache_hits_total");
    let misses = count("arrayflow_cache_misses_total");
    println!(
        "\nengine: {} programs, {} loops, {hits} from cache, {misses} solved in {} passes",
        count("arrayflow_engine_programs_total"),
        count("arrayflow_engine_loops_total"),
        count("arrayflow_engine_solver_passes_total"),
    );

    // The two hand-written stencils share one fingerprint. (The hit rate
    // can fall a few hits short of the duplication rate: workers racing on
    // the same structure each solve it once — benignly, the reports are
    // byte-identical.)
    assert_eq!(
        results[0].loops[0].fingerprint,
        results[1].loops[0].fingerprint
    );
    assert!(hits > misses, "hit rate above 50%");
}
