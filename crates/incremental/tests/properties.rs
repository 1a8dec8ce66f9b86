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
//!    fresh analysis of the edited program — the programs, the extended
//!    symbol table, the site table, every instance's spec rows and
//!    solution values, and the report it patches instead of
//!    re-distilling, which must equal a fresh distillation — on the
//!    incremental fast path and on the recorded fallback path alike,
//!    including edits that make the linearizer or the normalizer invent
//!    symbols;
//! 3. an apply stopped at any of its stop-check polls leaves the session
//!    exactly as it was, still holding its pre-edit report.

use std::cell::Cell;
use std::sync::Arc;

use arrayflow_analyses::{
    build_spec, enumerate_sites, AnalysisReport, AnalyzeError, ProblemSet, Site, GK,
};
use arrayflow_core::{solve, GenRef, KillSite, Mode, Solution, CANNED};
use arrayflow_graph::build_loop_graph;
use arrayflow_incremental::{DeltaError, DeltaOutcome, Session};
use arrayflow_ir::{
    fingerprint_loop, normalize, parse_program, Edit, Program, StmtId, SymbolTable, Tape,
};
use arrayflow_workloads::{
    all_kernels, livermore_kernels, random_edit, random_edits, random_loop, LoopShape,
};

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
/// session opened over the edited source, its fingerprint, which it
/// replays from its recorded walk, must equal a walk over its program,
/// and its report must equal a fresh distillation of the fresh analysis.
fn assert_matches_fresh(session: &Session, context: &str) {
    let fresh = Session::open(session.source_program().clone(), DEP_MAX_DISTANCE).unwrap();
    let program = session.program();
    assert_eq!(
        session.fingerprint(),
        fingerprint_loop(program.sole_loop().unwrap(), &program.symbols),
        "fingerprint diverged from the walk: {context}"
    );
    assert_eq!(
        session.fingerprint(),
        fresh.fingerprint(),
        "fingerprint diverged: {context}"
    );
    assert!(
        session.program() == fresh.program(),
        "normalized program diverged: {context}"
    );
    let a = session.analysis();
    let b = fresh.analysis();
    assert!(
        a.symbols == b.symbols,
        "extended symbol table diverged: {context}"
    );
    assert_eq!(
        a.sites.len(),
        b.sites.len(),
        "site count diverged: {context}"
    );
    for (k, (x, y)) in a.sites.iter().zip(&b.sites).enumerate() {
        assert_eq!(x, y, "site {k} diverged: {context}");
    }
    for (k, (x, y)) in a.instances().iter().zip(b.instances()).enumerate() {
        assert_eq!(x.sol, y.sol, "instance {k} solution diverged: {context}");
        assert_eq!(
            x.built.gen_site, y.built.gen_site,
            "instance {k} site mapping diverged: {context}"
        );
        let (xs, ys) = (&x.built.spec, &y.built.spec);
        assert_eq!(xs.gens, ys.gens, "instance {k} gens diverged: {context}");
        assert_eq!(xs.kills, ys.kills, "instance {k} kills diverged: {context}");
        assert_eq!(
            (xs.direction, xs.mode),
            (ys.direction, ys.mode),
            "instance {k} problem diverged: {context}"
        );
    }
    let distilled = AnalysisReport::of_analysis(
        fresh.fingerprint(),
        fresh.analysis(),
        ProblemSet::ALL,
        DEP_MAX_DISTANCE,
    );
    assert_eq!(
        **fresh.report(),
        distilled,
        "open's report diverged: {context}"
    );
    assert_eq!(**session.report(), distilled, "report diverged: {context}");
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
    let before = snapshot(&session);
    let edit = Edit {
        stmt: arrayflow_ir::StmtId(9999),
        text: "A[i] := 1;".to_string(),
    };
    assert!(session.apply(&edit).is_err());
    assert_eq!(before, snapshot(&session));
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

/// A loop body whose [`SYMBOL_CHAIN`] edits make the linearizer or the
/// normalizer invent symbols.
const SYMBOL_BODY: &str = "A[i+1] := A[i] + B[i];
                           X[i, 2] := A[i-1] + 1;
                           B[i] := B[i-2] + 1;
                           Z[i, 1] := X[i-1, 2] + 1;
                           C[i] := A[i+2] + C[i-1];";

/// Edits of [`SYMBOL_BODY`], in order, by statement: they intern a new
/// array, a new right-hand-side scalar and multi-dimensional references
/// (whose linearization invents stride symbols, numbered in first-use
/// order), and remove one.
const SYMBOL_CHAIN: [(u32, &str); 7] = [
    // A 2-D reference ahead of the first one: Z's stride symbol is now
    // invented before X's.
    (0, "A[i+1] := Z[i, 3] + 1;"),
    // A new right-hand-side scalar.
    (2, "B[i] := B[i-2] + s;"),
    // A new array.
    (4, "D[i] := A[i+2] + C[i-1];"),
    // The only reference to X's stride gone, then back.
    (1, "B[i+1] := A[i-1] + 1;"),
    (1, "X[i, 2] := A[i-1] + X[i, 1];"),
    // A new 2-D array, and a 1-D edit after all that.
    (3, "Y[i, 1] := Z[i-1, 1] + D[i];"),
    (4, "C[i] := A[i+2] + D[i-1];"),
];

/// Headers for [`SYMBOL_BODY`]: one normalization rewrites (inventing
/// its induction variable after the source's symbols), and the same
/// iterations already normalized.
const SYMBOL_HEADERS: [&str; 2] = ["do i = 3, 60", "do i = 1, 58"];

fn symbol_session(header: &str) -> Session {
    let p = parse_program(&format!("{header} {SYMBOL_BODY} end")).unwrap();
    Session::open(p, DEP_MAX_DISTANCE).unwrap()
}

fn symbol_edits() -> Vec<Edit> {
    let edit = |&(stmt, text): &(u32, &str)| Edit {
        stmt: StmtId(stmt),
        text: text.to_string(),
    };
    SYMBOL_CHAIN.iter().map(edit).collect()
}

/// Every [`SYMBOL_CHAIN`] edit stays on the fast path and matches a
/// fresh session, under both [`SYMBOL_HEADERS`].
#[test]
fn symbol_inventing_edits_match_fresh() {
    for header in SYMBOL_HEADERS {
        let mut session = symbol_session(header);
        for (step, edit) in symbol_edits().iter().enumerate() {
            let outcome = session.apply(edit).unwrap();
            let context = format!("`{header}` step {step} ({})", edit.text);
            assert!(!outcome.fallback, "{context}: left the fast path");
            assert_matches_fresh(&session, &context);
        }
        let normalized = session.source_program() == session.program();
        assert_eq!(normalized, header.contains("1, 58"), "`{header}`");
    }
}

/// Everything an apply may change, compared by value.
#[derive(Debug, PartialEq)]
struct Snapshot {
    /// The source and normalized programs, symbol tables included.
    raw: Program,
    norm: Program,
    fingerprint: arrayflow_ir::Fingerprint,
    tape: Tape,
    symbols: SymbolTable,
    sites: Vec<Site>,
    specs: Vec<(Vec<GenRef>, Vec<KillSite>, Vec<usize>)>,
    solutions: Vec<Solution>,
    report: AnalysisReport,
}

fn snapshot(session: &Session) -> Snapshot {
    let a = session.analysis();
    let instances = a.instances();
    let spec = |k: usize| {
        let b = &instances[k].built;
        let rows = (b.spec.gens.to_vec(), b.spec.kills.to_vec());
        (rows.0, rows.1, b.gen_site.to_vec())
    };
    Snapshot {
        raw: session.source_program().clone(),
        norm: session.program().clone(),
        fingerprint: session.fingerprint(),
        tape: session.tape().clone(),
        symbols: SymbolTable::clone(&a.symbols),
        sites: a.sites.clone(),
        specs: (0..instances.len()).map(spec).collect(),
        solutions: instances.iter().map(|i| i.sol.clone()).collect(),
        report: AnalysisReport::clone(session.report()),
    }
}

/// Applies `edit` stopped at its n-th stop-check poll, for every n until
/// an apply completes, requiring the session to equal its pre-edit
/// snapshot after each stop and to hold its pre-edit report allocation.
/// Returns the completing apply's outcome and the number of stops.
fn apply_stopped_at_every_poll(
    session: &mut Session,
    edit: &Edit,
    context: &str,
) -> (DeltaOutcome, usize) {
    let before = snapshot(session);
    let report = Arc::clone(session.report());
    for n in 1.. {
        let polls = Cell::new(0);
        let stop = || {
            polls.set(polls.get() + 1);
            polls.get() >= n
        };
        match session.apply_ctrl(edit, Some(&stop)) {
            Ok(outcome) => return (outcome, n - 1),
            Err(DeltaError::Analyze(AnalyzeError::Stopped { .. })) => {
                assert!(
                    snapshot(session) == before,
                    "{context}: stopped at poll {n}, the session changed"
                );
                assert!(
                    Arc::ptr_eq(session.report(), &report),
                    "{context}: stopped at poll {n}, the report was replaced"
                );
            }
            Err(err) => panic!("{context}: {err}"),
        }
    }
    unreachable!("an unstopped apply completes")
}

/// A fast-path apply stopped at any of its stop-check polls — the
/// solver's and the re-distillation's — leaves the session equal to its
/// pre-edit snapshot, fingerprint and recorded walk included, and the
/// apply that completes still matches a fresh session: random edits on
/// two E16 shapes, and the [`SYMBOL_CHAIN`] under both
/// [`SYMBOL_HEADERS`], whose stopped applies must put back an
/// interned-into symbol table and, under the header normalization
/// rewrites, the source program the edit landed in and the walk it
/// records afresh.
#[test]
fn stopped_applies_leave_the_session_unchanged() {
    let mut inputs = Vec::new();
    for (stmts, arrays) in [(32, 8), (128, 16)] {
        let shape = LoopShape {
            stmts,
            arrays,
            ..LoopShape::default()
        };
        let base = random_loop(&shape, 42);
        let mut source = base.clone();
        source.renumber();
        let session = Session::open(base, DEP_MAX_DISTANCE).unwrap();
        let edits = random_edits(&source, &shape, 4, 7);
        inputs.push((format!("{stmts} stmts"), session, edits));
    }
    for header in SYMBOL_HEADERS {
        inputs.push((
            format!("`{header}`"),
            symbol_session(header),
            symbol_edits(),
        ));
    }
    for (name, mut session, edits) in inputs {
        let mut stops = 0;
        for (e, edit) in edits.iter().enumerate() {
            let context = format!("{name}, edit {e} ({})", edit.text);
            let (outcome, n) = apply_stopped_at_every_poll(&mut session, edit, &context);
            stops += n;
            assert!(!outcome.fallback, "{context}: left the fast path");
            assert_matches_fresh(&session, &format!("{context} after {n} stops"));
        }
        assert!(stops >= edits.len(), "{name}: only {stops} stops");
    }
}
