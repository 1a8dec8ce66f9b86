//! Engine-level session behavior: delta reports must render byte-identical
//! to fresh full analyses, and the session store must enforce its bounds.

use arrayflow_engine::{Engine, EngineConfig, Problem};
use arrayflow_ir::{parse_program, Edit};
use arrayflow_workloads::{random_edit, random_loop, LoopShape};

#[test]
fn delta_report_renders_identical_to_fresh_analysis() {
    let config = EngineConfig {
        workers: 1,
        ..Default::default()
    };
    let engine = Engine::new(config.clone());
    let tier = |stmts, arrays| LoopShape {
        stmts,
        arrays,
        ..LoopShape::default()
    };
    let mut deltas = 0;
    for (shape, seeds) in [
        (LoopShape::default(), 0..8),
        (tier(32, 8), 8..11),
        (tier(128, 16), 11..13),
    ] {
        for seed in seeds {
            let p = random_loop(&shape, seed);
            let (id, _) = engine.open_session(&p).unwrap();
            let mut source = p;
            source.renumber();
            for step in 0..4 {
                let edit = random_edit(&source, &shape, seed * 31 + step).unwrap();
                let delta = engine.analyze_delta(id, &edit).unwrap();
                deltas += 1;
                arrayflow_ir::apply_edit(&mut source, &edit).unwrap();
                // A fresh engine: `engine` memoized the delta report under
                // the edited loop's fingerprint and would answer from it.
                let fresh = Engine::new(config.clone()).analyze_one(0, &source);
                assert!(fresh.error.is_none(), "seed {seed} step {step}");
                let fresh_report = &fresh.loops[0].report;
                assert_eq!(delta.fingerprint, fresh.loops[0].fingerprint);
                // `==` also sees what `render` leaves out, such as the
                // δ-available column of each reuse.
                assert_eq!(
                    *delta.report, **fresh_report,
                    "{} stmts seed {seed} step {step} diverged",
                    shape.stmts
                );
                assert_eq!(delta.report.render(), fresh_report.render());
            }
        }
    }
    let snap = engine.registry().snapshot();
    assert_eq!(
        snap.value("arrayflow_delta_applied_total", &[]),
        Some(deltas)
    );
    let fallbacks = snap.value("arrayflow_delta_fallbacks_total", &[]);
    assert!(fallbacks < Some(deltas), "{fallbacks:?} of {deltas}");
}

#[test]
fn delta_metrics_and_memoization() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..Default::default()
    });
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; B[i] := A[i]; end").unwrap();
    let (id, report) = engine.open_session(&p).unwrap();
    // The session-path report is memoized: a fingerprint-first probe hits.
    assert!(engine
        .probe(
            report.fingerprint,
            Problem::Canned(report.problems),
            report.dep_max_distance
        )
        .is_some());

    let ids = arrayflow_workloads::assign_ids(&{
        let mut q = p.clone();
        q.renumber();
        q
    });
    let edit = Edit {
        stmt: ids[1],
        text: "B[i] := A[i] + 1;".to_string(),
    };
    let delta = engine.analyze_delta(id, &edit).unwrap();
    assert!(!delta.fallback);
    assert!(engine
        .probe(
            delta.fingerprint,
            Problem::Canned(delta.report.problems),
            delta.report.dep_max_distance
        )
        .is_some());

    let snap = engine.registry().snapshot();
    assert_eq!(snap.value("arrayflow_delta_requests_total", &[]), Some(1));
    assert_eq!(snap.value("arrayflow_delta_fallbacks_total", &[]), Some(0));

    // Structural edit: falls back, still correct, counted.
    let edit = Edit {
        stmt: ids[0],
        text: "if A[i] > 0 then A[i+1] := A[i]; end".to_string(),
    };
    let delta = engine.analyze_delta(id, &edit).unwrap();
    assert!(delta.fallback);
    let snap = engine.registry().snapshot();
    assert_eq!(snap.value("arrayflow_delta_requests_total", &[]), Some(2));
    assert_eq!(snap.value("arrayflow_delta_fallbacks_total", &[]), Some(1));
}

#[test]
fn unknown_sessions_and_capacity() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        session_capacity: 2,
        ..Default::default()
    });
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; end").unwrap();
    let edit = Edit {
        stmt: arrayflow_ir::StmtId(0),
        text: "A[i+2] := A[i];".to_string(),
    };
    let err = engine.analyze_delta(99, &edit).unwrap_err();
    assert!(!err.is_internal());

    let (a, _) = engine.open_session(&p).unwrap();
    let (_b, _) = engine.open_session(&p).unwrap();
    let (_c, _) = engine.open_session(&p).unwrap();
    // Capacity 2: the oldest session was evicted.
    assert!(engine.analyze_delta(a, &edit).is_err());
    let snap = engine.registry().snapshot();
    assert_eq!(snap.value("arrayflow_sessions_open", &[]), Some(2));
    assert_eq!(snap.value("arrayflow_sessions_opened_total", &[]), Some(3));
    let evicted = |reason| snap.value("arrayflow_sessions_evicted_total", &[("reason", reason)]);
    assert_eq!(evicted("capacity"), Some(1));
    assert_eq!(evicted("ttl"), Some(0));

    assert!(engine.close_session(_b));
    assert!(!engine.close_session(_b));
    let open = engine
        .registry()
        .snapshot()
        .value("arrayflow_sessions_open", &[]);
    assert_eq!(open, Some(1));
}
