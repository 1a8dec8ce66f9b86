//! Panic isolation and poison-free batch collection.
//!
//! Regression suite for the batch-results poison bug: a panic inside one
//! solver job used to poison the shared results mutex and fail
//! `analyze_batch` for *every* caller. A panicking job must now fail only
//! its own program, be counted in `arrayflow_worker_panics_total`, and
//! leave the engine fully usable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arrayflow_engine::{AnalysisError, Engine, EngineConfig};
use arrayflow_ir::{parse_program, Program};
use arrayflow_resilience::{FaultPlan, FaultSurface};

/// Distinct (non-alpha-equivalent) programs so every one is a cache miss
/// and therefore reaches the solve seam.
fn distinct_programs(n: usize) -> Vec<Program> {
    (0..n)
        .map(|i| parse_program(&format!("do i = 1, 100 A[i+{}] := A[i] + x; end", i + 1)).unwrap())
        .collect()
}

fn worker_panics(engine: &Engine) -> u64 {
    let snapshot = engine.registry().snapshot();
    let panics = snapshot.value("arrayflow_worker_panics_total", &[]);
    panics.expect("counter is registered")
}

/// A surface that injects exactly one solver panic, on the first solve.
#[derive(Debug, Default)]
struct PanicOnce {
    fired: AtomicBool,
}

impl FaultSurface for PanicOnce {
    fn solver_panic(&self) -> bool {
        !self.fired.swap(true, Ordering::SeqCst)
    }
}

#[test]
fn panicking_job_fails_only_its_own_program() {
    let mut engine = Engine::new(EngineConfig {
        workers: 4,
        ..Default::default()
    });
    engine.set_fault_surface(Arc::new(PanicOnce::default()));
    let programs = distinct_programs(8);

    let results = engine.analyze_batch(&programs);

    assert_eq!(results.len(), 8);
    let failed: Vec<&AnalysisError> = results.iter().filter_map(|r| r.error.as_ref()).collect();
    assert_eq!(failed.len(), 1, "exactly the injected panic fails");
    assert!(failed[0].is_internal());
    assert!(
        failed[0].message().contains("injected solver fault"),
        "panic payload is surfaced: {}",
        failed[0]
    );
    for r in &results {
        if r.error.is_none() {
            assert!(!r.loops.is_empty(), "program {} has its report", r.index);
        }
    }
    assert_eq!(worker_panics(&engine), 1);

    // The engine is not poisoned: a clean batch over the same inputs
    // succeeds, including the program that failed the first time.
    let retry = engine.analyze_batch(&programs);
    assert!(retry.iter().all(|r| r.error.is_none()));
    assert_eq!(worker_panics(&engine), 1, "no new panics on retry");
}

#[test]
fn every_solve_panicking_still_answers_every_program() {
    let mut engine = Engine::new(EngineConfig {
        workers: 2,
        ..Default::default()
    });
    // 100% solver panic rate: nothing can be analyzed, but every program
    // must still get a framed per-program answer, in order.
    engine.set_fault_surface(Arc::new(FaultPlan::parse("solver_panic=100%").unwrap()));
    let programs = distinct_programs(6);

    let results = engine.analyze_batch(&programs);

    assert_eq!(results.len(), 6);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i, "input order is preserved");
        let e = r.error.as_ref().expect("every solve panicked");
        assert!(e.is_internal());
    }
    assert_eq!(worker_panics(&engine), 6);
}

#[test]
fn sequential_path_is_isolated_too() {
    // workers=1 takes the non-scoped path through analyze_one directly.
    let mut engine = Engine::new(EngineConfig {
        workers: 1,
        ..Default::default()
    });
    engine.set_fault_surface(Arc::new(PanicOnce::default()));
    let programs = distinct_programs(3);
    let results = engine.analyze_batch(&programs);
    assert_eq!(results.iter().filter(|r| r.error.is_some()).count(), 1);
    assert_eq!(worker_panics(&engine), 1);
}

/// A surface that stalls every solve by a fixed delay.
#[derive(Debug)]
struct Stall(Duration, AtomicUsize);

impl FaultSurface for Stall {
    fn solve_latency(&self) -> Option<Duration> {
        self.1.fetch_add(1, Ordering::Relaxed);
        Some(self.0)
    }
}

#[test]
fn latency_seam_stalls_the_solve_phase() {
    let stall = Arc::new(Stall(Duration::from_millis(20), AtomicUsize::new(0)));
    let mut engine = Engine::new(EngineConfig {
        workers: 1,
        ..Default::default()
    });
    engine.set_fault_surface(Arc::clone(&stall) as Arc<dyn FaultSurface>);
    let programs = distinct_programs(1);
    let results = engine.analyze_batch(&programs);
    assert!(results[0].error.is_none(), "latency is not a failure");
    assert_eq!(
        stall.1.load(Ordering::Relaxed),
        1,
        "seam consulted once per solve"
    );
    assert!(
        results[0].stats.micros >= 20_000,
        "solve stalled at least the injected delay, got {} µs",
        results[0].stats.micros
    );

    // Cache hits skip the solve phase entirely — and with it the seam.
    let again = engine.analyze_batch(&programs);
    assert!(again[0].error.is_none());
    assert_eq!(
        stall.1.load(Ordering::Relaxed),
        1,
        "hit path never consults the seam"
    );
}
