//! Determinism regression: `analyze_batch` is byte-identical for every
//! worker count, and equal to the sequential `analyses::driver` output.
//!
//! The engine's whole design rests on reports being pure structural
//! functions of the loop — cache hits, work-stealing order and thread
//! count must never show through in the results. This test pins that on
//! 200 seeded random programs (with deliberate duplicates so the cache is
//! actually exercised).

use arrayflow_analyses::{analyze_nest, dependences, redundant_stores, reuse_pairs};
use arrayflow_engine::{Engine, EngineConfig};
use arrayflow_ir::Program;
use arrayflow_workloads::{random_loop, LoopShape};

const DEP_MAX_DISTANCE: u64 = 8;

/// 200 programs over three shapes, with seeds reused so well over half
/// the stream duplicates an earlier structure (60 distinct shape/seed
/// combinations).
fn workload() -> Vec<Program> {
    let shapes = [
        LoopShape::default(),
        LoopShape {
            stmts: 4,
            arrays: 2,
            ..LoopShape::default()
        },
        LoopShape {
            stmts: 12,
            cond_pct: 40,
            ..LoopShape::default()
        },
    ];
    (0..200)
        .map(|k| random_loop(&shapes[k % shapes.len()], (k % 60) as u64))
        .collect()
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        dep_max_distance: DEP_MAX_DISTANCE,
        ..EngineConfig::default()
    }
}

/// Renders one batch run as a single byte-comparable transcript.
fn run_rendered(workers: usize, programs: &[Program]) -> String {
    let engine = Engine::new(config(workers));
    let results = engine.analyze_batch(programs);
    assert_eq!(results.len(), programs.len());
    let mut out = String::new();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i, "results must come back in input order");
        assert!(r.error.is_none(), "program {i}: {:?}", r.error);
        out.push_str(&format!("== program {i} ==\n"));
        for lr in &r.loops {
            out.push_str(&lr.report.render());
        }
    }
    out
}

#[test]
fn worker_counts_are_byte_identical() {
    let programs = workload();
    let one = run_rendered(1, &programs);
    let four = run_rendered(4, &programs);
    let eight = run_rendered(8, &programs);
    assert_eq!(one, four, "1 vs 4 workers diverged");
    assert_eq!(one, eight, "1 vs 8 workers diverged");
}

#[test]
fn batch_equals_sequential_driver() {
    let programs = workload();
    let engine = Engine::new(config(4));
    let results = engine.analyze_batch(&programs);

    for (i, (program, result)) in programs.iter().zip(&results).enumerate() {
        // The engine normalizes and renumbers a private copy; mirror that
        // preparation before handing the program to the plain driver.
        let mut p = program.clone();
        arrayflow_ir::normalize(&mut p);
        p.renumber();
        let nest = analyze_nest(&p).unwrap_or_else(|e| panic!("program {i}: {e}"));

        assert_eq!(
            result.loops.len(),
            nest.len(),
            "program {i}: loop count mismatch"
        );
        for (level, (lr, a)) in result.loops.iter().zip(&nest).enumerate() {
            let report = &lr.report;
            assert_eq!(
                report.reuses,
                reuse_pairs(&a.graph, &a.sites, &a.available, None),
                "program {i} loop {level}: reuse pairs diverge from the driver"
            );
            assert_eq!(
                report.redundant_stores,
                redundant_stores(&a.graph, &a.sites, &a.busy, None),
                "program {i} loop {level}: redundant stores diverge from the driver"
            );
            assert_eq!(
                report.dependences,
                dependences(&a.graph, &a.sites, &a.reaching_refs, DEP_MAX_DISTANCE, None),
                "program {i} loop {level}: dependences diverge from the driver"
            );
            assert_eq!(report.nodes, a.graph.len(), "program {i} loop {level}");
            assert_eq!(report.sites, a.sites.len(), "program {i} loop {level}");
        }
    }
}

#[test]
fn duplicated_stream_hits_the_cache() {
    let programs = workload();
    let engine = Engine::new(config(4));
    engine.analyze_batch(&programs);
    let snap = engine.registry().snapshot();
    let count = |name| snap.value(name, &[]).unwrap();
    assert_eq!(count("arrayflow_engine_programs_total"), 200);
    let (hits, misses) = (
        count("arrayflow_cache_hits_total"),
        count("arrayflow_cache_misses_total"),
    );
    assert!(
        hits > misses,
        "duplicated stream should hit > 50%, got {hits} hits, {misses} misses"
    );
    // Hits skip the solver entirely: far fewer solves than loops.
    let loops = count("arrayflow_engine_loops_total");
    assert!(misses < loops);
    assert_eq!(hits + misses, loops);
}
