//! Property suite for the incremental subsystem.
//!
//! Two equivalences, checked across seeded random structured loops and the
//! built-in kernel programs:
//!
//! 1. splicing every column of a solution back together reproduces it
//!    byte for byte — values, profile, and the statistics re-derived from
//!    the profile — and the solve respects the paper's 3·N must / 2·N may
//!    visit bounds, for every framework instance (the solver itself is
//!    checked against a round-robin oracle inside `arrayflow-core`);
//! 2. a session that re-converges after an edit is byte-identical to a
//!    fresh analysis of the edited program — every solution value, and
//!    the report lists it patches instead of re-distilling — on the
//!    incremental fast path and on the recorded fallback path alike.

use arrayflow_analyses::{build_spec, enumerate_sites, GK};
use arrayflow_core::{solve, Mode, Solution, CANNED};
use arrayflow_graph::build_loop_graph;
use arrayflow_incremental::Session;
use arrayflow_ir::{normalize, parse_program, Edit, Program};
use arrayflow_workloads::{all_kernels, livermore_kernels, random_edit, random_loop, LoopShape};

/// The dependence distance bound sessions distill at.
const DEP_MAX_DISTANCE: u64 = 8;

fn prepared(mut p: Program) -> Option<Program> {
    p.renumber();
    normalize(&mut p);
    p.renumber();
    let ok = p.sole_loop().is_some_and(|l| l.is_normalized());
    ok.then_some(p)
}

fn check_splice_and_bounds(p: &Program) {
    let l = p.sole_loop().unwrap();
    let graph = build_loop_graph(l);
    let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
    let n = graph.len();
    for (_, spec) in CANNED {
        let (gk, mode) = (GK::of(spec), spec.mode);
        let built = build_spec(&sites, gk, spec.direction, mode);
        let rr = solve(&graph, &built.spec, None).unwrap();
        let spliced = Solution::splice(n, mode, (0..rr.width()).map(|d| (&rr, d)));
        assert_eq!(rr, spliced, "spliced fixed point diverged for {gk:?}");
        let bound = match mode {
            Mode::Must => 3 * n,
            Mode::May => 2 * n,
        };
        assert!(
            rr.stats.visits_to_fix(n) <= bound,
            "{gk:?}: {} visits exceeds the {bound} bound",
            rr.stats.visits_to_fix(n)
        );
    }
}

#[test]
fn splice_round_trips_on_random_loops() {
    let shape = LoopShape::default();
    for seed in 0..40 {
        let p = prepared(random_loop(&shape, seed)).unwrap();
        check_splice_and_bounds(&p);
    }
}

#[test]
fn splice_round_trips_on_kernels() {
    let mut programs = all_kernels(100);
    programs.extend(livermore_kernels(100));
    let mut checked = 0;
    for (_, p) in programs {
        if let Some(p) = prepared(p) {
            check_splice_and_bounds(&p);
            checked += 1;
        }
    }
    assert!(checked >= 10, "kernel coverage collapsed: {checked}");
}

/// The session after a chain of edits must be byte-identical to a fresh
/// session opened over the edited source.
fn assert_matches_fresh(session: &Session, context: &str) {
    let fresh = Session::open(session.source_program().clone(), DEP_MAX_DISTANCE).unwrap();
    assert_eq!(
        session.fingerprint(),
        fresh.fingerprint(),
        "fingerprint diverged: {context}"
    );
    let a = session.analysis();
    let b = fresh.analysis();
    for (k, (x, y)) in a.instances().iter().zip(b.instances()).enumerate() {
        assert_eq!(x.sol, y.sol, "instance {k} solution diverged: {context}");
        assert_eq!(
            x.built.gen_site, y.built.gen_site,
            "instance {k} site mapping diverged: {context}"
        );
    }
    assert_eq!(
        session.lists(),
        fresh.lists(),
        "report lists diverged: {context}"
    );
}

#[test]
fn delta_matches_fresh_on_random_edit_chains() {
    let shape = LoopShape::default();
    let mut fast_paths = 0u32;
    for seed in 0..24 {
        let p = prepared(random_loop(&shape, seed)).unwrap();
        let mut session = Session::open(p, DEP_MAX_DISTANCE).unwrap();
        for step in 0..6 {
            let edit = random_edit(session.source_program(), &shape, seed * 1000 + step).unwrap();
            let outcome = session
                .apply(&edit)
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            if !outcome.fallback {
                fast_paths += 1;
                assert!(outcome.dirty_columns <= outcome.total_columns);
            }
            assert_matches_fresh(&session, &format!("seed {seed} step {step} ({outcome:?})"));
        }
    }
    assert!(
        fast_paths > 50,
        "almost everything fell back ({fast_paths} fast paths) — the incremental path is dead"
    );
}

#[test]
fn delta_matches_fresh_on_kernels() {
    let shape = LoopShape {
        arrays: 2,
        ..LoopShape::default()
    };
    let mut programs = all_kernels(100);
    programs.extend(livermore_kernels(100));
    for (name, p) in programs {
        let Some(p) = prepared(p) else { continue };
        let Ok(mut session) = Session::open(p, DEP_MAX_DISTANCE) else {
            continue;
        };
        for step in 0..3 {
            let Some(edit) = random_edit(session.source_program(), &shape, step) else {
                break;
            };
            if session.apply(&edit).is_err() {
                continue;
            }
            assert_matches_fresh(&session, &format!("kernel {name} step {step}"));
        }
    }
}

#[test]
fn structural_edit_falls_back_and_still_matches() {
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; B[i] := A[i] + 1; end").unwrap();
    let mut session = Session::open(p, DEP_MAX_DISTANCE).unwrap();
    let ids = arrayflow_workloads::assign_ids(session.source_program());
    let edit = Edit {
        stmt: ids[1],
        text: "if A[i] > 0 then B[i] := A[i] + 2; end".to_string(),
    };
    let outcome = session.apply(&edit).unwrap();
    assert!(outcome.fallback, "structural edit must fall back");
    assert_matches_fresh(&session, "structural edit");
    let (edits, fallbacks) = session.edit_counts();
    assert_eq!((edits, fallbacks), (1, 1));
}

#[test]
fn scalar_lhs_edit_falls_back_and_still_matches() {
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; B[i] := A[i] + 1; end").unwrap();
    let mut session = Session::open(p, DEP_MAX_DISTANCE).unwrap();
    let ids = arrayflow_workloads::assign_ids(session.source_program());
    let edit = Edit {
        stmt: ids[0],
        text: "s := A[i] + 1;".to_string(),
    };
    let outcome = session.apply(&edit).unwrap();
    assert!(outcome.fallback, "scalar-introducing edit must fall back");
    assert_matches_fresh(&session, "scalar lhs edit");
}

#[test]
fn failed_edit_leaves_session_unchanged() {
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; end").unwrap();
    let mut session = Session::open(p, DEP_MAX_DISTANCE).unwrap();
    let before = session.analysis().reaching.sol.clone();
    let edit = Edit {
        stmt: arrayflow_ir::StmtId(9999),
        text: "A[i] := 1;".to_string(),
    };
    assert!(session.apply(&edit).is_err());
    assert_eq!(before, session.analysis().reaching.sol);
    assert_eq!(session.edit_counts(), (0, 0));
}

#[test]
fn delta_outcome_reports_savings() {
    // A five-statement loop over disjoint arrays: editing one statement
    // dirties a small fraction of the columns.
    let p = parse_program(
        "do i = 1, 100 \
           A[i+1] := A[i]; \
           B[i+1] := B[i]; \
           C[i+1] := C[i]; \
           D[i+1] := D[i]; \
           E[i+1] := E[i]; \
         end",
    )
    .unwrap();
    let mut session = Session::open(p, DEP_MAX_DISTANCE).unwrap();
    let ids = arrayflow_workloads::assign_ids(session.source_program());
    let edit = Edit {
        stmt: ids[2],
        text: "C[i+2] := C[i];".to_string(),
    };
    let outcome = session.apply(&edit).unwrap();
    assert!(!outcome.fallback);
    assert!(
        outcome.dirty_columns * 2 <= outcome.total_columns,
        "expected a minority of columns dirty, got {outcome:?}"
    );
    assert!(outcome.solver_visits <= outcome.full_solver_visits);
    assert_matches_fresh(&session, "disjoint arrays edit");
}
