//! The fingerprint-first fast path: probe the cache before any parse or
//! normalize work, fall back to full analysis only on a miss.

use std::sync::Arc;

use arrayflow_engine::{Engine, EngineConfig, Problem, ProblemSet};
use arrayflow_ir::{fingerprint_loop, parse_program};

const SRC: &str = "do i = 1, 100 A[i+2] := A[i] + x; end";

fn canonical_fingerprint(src: &str) -> arrayflow_ir::Fingerprint {
    // Mirror the engine's keying: normalize + renumber, then fingerprint
    // the loop.
    let mut p = parse_program(src).unwrap();
    arrayflow_ir::normalize(&mut p);
    p.renumber();
    fingerprint_loop(p.sole_loop().unwrap(), &p.symbols)
}

#[test]
fn miss_then_hit_with_counters() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..Default::default()
    });
    let fp = canonical_fingerprint(SRC);
    let problems = Problem::Canned(ProblemSet::ALL);
    let dist = engine.config().dep_max_distance;

    // Nothing analyzed yet: the probe misses and says so.
    assert!(engine.probe(fp, problems, dist).is_none());
    let count = |name| engine.registry().snapshot().value(name, &[]);
    assert_eq!(count("arrayflow_fingerprint_misses_total"), Some(1));
    assert_eq!(count("arrayflow_fingerprint_fast_hits_total"), Some(0));

    // Full analysis populates the cache under the same key.
    let program = parse_program(SRC).unwrap();
    let full = engine.solve(0, program, problems, dist, None);
    assert!(full.error.is_none());
    assert_eq!(full.loops.len(), 1);
    assert_eq!(full.loops[0].fingerprint, fp);

    // Now the probe hits — and returns the *same* report allocation the
    // full path cached, so responses built from it are byte-identical.
    let hit = engine.probe(fp, problems, dist).unwrap();
    assert!(Arc::ptr_eq(&hit, &full.loops[0].report));
    assert_eq!(count("arrayflow_fingerprint_fast_hits_total"), Some(1));
    assert_eq!(count("arrayflow_fingerprint_misses_total"), Some(1));
}

#[test]
fn distinct_problem_sets_are_distinct_keys() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..Default::default()
    });
    let fp = canonical_fingerprint(SRC);
    let dist = engine.config().dep_max_distance;
    let program = parse_program(SRC).unwrap();
    engine.solve(0, program, Problem::Canned(ProblemSet::ALL), dist, None);

    // Same fingerprint, different problem selection: a different key.
    let reaching_only = ProblemSet::from_bits(0b0001).unwrap();
    assert!(engine
        .probe(fp, Problem::Canned(reaching_only), dist)
        .is_none());
    assert!(engine
        .probe(fp, Problem::Canned(ProblemSet::ALL), dist)
        .is_some());
    // And a different distance bound misses too.
    assert!(engine
        .probe(fp, Problem::Canned(ProblemSet::ALL), dist + 1)
        .is_none());
}

#[test]
fn counters_appear_in_metrics_exposition() {
    let engine = Engine::default();
    let fp = canonical_fingerprint(SRC);
    engine.probe(fp, Problem::Canned(ProblemSet::ALL), 8);
    let text = engine.registry().snapshot().render_prometheus();
    assert!(text.contains("arrayflow_fingerprint_misses_total 1"));
    assert!(text.contains("arrayflow_fingerprint_fast_hits_total 0"));
}
