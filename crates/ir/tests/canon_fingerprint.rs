//! Fingerprint soundness: alpha-renamings collide, structural differences
//! do not.
//!
//! Property-style over a systematic grid of loop shapes (no external
//! property-testing dependency): for every base loop we check that every
//! pure renaming of its induction variable, scalars and arrays produces
//! the same fingerprint, and that every *structural* mutation — bounds,
//! subscript coefficients/offsets, constants, relational operators,
//! statement count, conditional nesting — produces a distinct one. And a
//! recorded walk replays to the same fingerprint as the walk itself,
//! before and after any chain of re-recorded assignments.

use arrayflow_ir::{
    apply_edit, fingerprint_loop, fingerprint_program, normalize, parse_program, Assign, Block,
    Edit, Fingerprint, Program, Stmt, StmtId, Tape,
};
use arrayflow_workloads::{
    all_kernels, assign_ids, fig4, livermore_kernels, random_edit, random_loop, LoopShape, Prng,
};

fn fp(src: &str) -> Fingerprint {
    let p = parse_program(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
    fingerprint_program(&p)
}

/// A loop template over the names it uses; instantiating it with different
/// name sets must not change the fingerprint.
fn template(iv: &str, a: &str, b: &str, x: &str, ub: i64, coef: i64, off: i64) -> String {
    format!(
        "do {iv} = 1, {ub}
           {a}[{coef}*{iv}+{off}] := {b}[{iv}] + {x};
           {b}[{iv}+1] := {a}[{iv}] * 2;
         end"
    )
}

#[test]
fn renaming_induction_variable_collides() {
    let base = fp(&template("i", "A", "B", "x", 100, 2, 3));
    for iv in ["j", "k", "ii", "idx"] {
        assert_eq!(
            base,
            fp(&template(iv, "A", "B", "x", 100, 2, 3)),
            "renaming the induction variable to {iv} must not change the fingerprint"
        );
    }
}

#[test]
fn renaming_arrays_and_scalars_collides() {
    let base = fp(&template("i", "A", "B", "x", 100, 2, 3));
    for (a, b, x) in [
        ("src", "dst", "y"),
        ("U", "V", "scale"),
        ("B", "A", "x"), // swapped names, same first-occurrence structure
    ] {
        assert_eq!(
            base,
            fp(&template("i", a, b, x, 100, 2, 3)),
            "renaming arrays/scalars to ({a}, {b}, {x}) must not change the fingerprint"
        );
    }
}

#[test]
fn renaming_symbolic_bound_collides() {
    let with = |n: &str| {
        format!(
            "do i = 1, {n}
               A[i+1] := A[i] + 1;
             end"
        )
    };
    let base = fp(&with("n"));
    for n in ["m", "len", "count"] {
        assert_eq!(base, fp(&with(n)), "symbolic bound {n} must collide with n");
    }
}

#[test]
fn structural_differences_do_not_collide() {
    let base = fp(&template("i", "A", "B", "x", 100, 2, 3));
    let mutants = [
        (
            "different upper bound",
            template("i", "A", "B", "x", 101, 2, 3),
        ),
        (
            "different subscript coefficient",
            template("i", "A", "B", "x", 100, 3, 3),
        ),
        (
            "different subscript offset",
            template("i", "A", "B", "x", 100, 2, 4),
        ),
        (
            "symbolic instead of constant bound",
            "do i = 1, n
               A[2*i+3] := B[i] + x;
               B[i+1] := A[i] * 2;
             end"
            .to_string(),
        ),
        (
            "one array where the base has two",
            template("i", "A", "A", "x", 100, 2, 3),
        ),
        (
            "constant instead of scalar operand",
            "do i = 1, 100
               A[2*i+3] := B[i] + 7;
               B[i+1] := A[i] * 2;
             end"
            .to_string(),
        ),
        (
            "extra statement",
            "do i = 1, 100
               A[2*i+3] := B[i] + x;
               B[i+1] := A[i] * 2;
               A[i] := B[i];
             end"
            .to_string(),
        ),
        (
            "statements reordered",
            "do i = 1, 100
               B[i+1] := A[i] * 2;
               A[2*i+3] := B[i] + x;
             end"
            .to_string(),
        ),
        (
            "second statement under a conditional",
            "do i = 1, 100
               A[2*i+3] := B[i] + x;
               if B[i] > 0 then
                 B[i+1] := A[i] * 2;
               end
             end"
            .to_string(),
        ),
    ];
    let mut fps = vec![base];
    for (what, src) in &mutants {
        let f = fp(src);
        assert_ne!(base, f, "{what} must change the fingerprint");
        fps.push(f);
    }
    // The mutants must also be pairwise distinct from each other.
    for i in 0..fps.len() {
        for j in (i + 1)..fps.len() {
            assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
        }
    }
}

#[test]
fn relational_operator_matters() {
    let with = |op: &str| {
        format!(
            "do i = 1, 50
               if A[i] {op} 0 then
                 A[i+1] := A[i] + 1;
               end
             end"
        )
    };
    let gt = fp(&with(">"));
    let le = fp(&with("<="));
    let eq = fp(&with("="));
    assert_ne!(gt, le);
    assert_ne!(gt, eq);
    assert_ne!(le, eq);
}

/// Grid sweep: for every shape in a small product space, the renamed twin
/// collides and every neighbouring shape differs. This is the property
/// `fingerprint(p) == fingerprint(q) <=> alpha_equivalent(p, q)` sampled
/// without an external property-testing framework.
#[test]
fn grid_property_rename_collides_neighbours_differ() {
    let mut seen: Vec<(i64, i64, i64, Fingerprint)> = Vec::new();
    for ub in [10, 11, 100] {
        for coef in [1, 2] {
            for off in [-1, 0, 2] {
                let original = fp(&template("i", "A", "B", "x", ub, coef, off));
                let renamed = fp(&template("q", "P", "Q", "t", ub, coef, off));
                assert_eq!(
                    original, renamed,
                    "rename must collide at ub={ub} coef={coef} off={off}"
                );
                for (u2, c2, o2, f2) in &seen {
                    assert_ne!(
                        original, *f2,
                        "({ub},{coef},{off}) collides with ({u2},{c2},{o2})"
                    );
                }
                seen.push((ub, coef, off, original));
            }
        }
    }
}

/// The loops the tape oracle checks, normalized and renumbered as a
/// session keeps them, with the shape their replacement statements are
/// drawn from: the named and Livermore kernels, the E16 tiers at 0, 35
/// and 70% conditionals, a nest, and a multi-dimensional loop.
fn oracle_loops() -> Vec<(String, Program, LoopShape)> {
    let mut loops = Vec::new();
    let kernel_shape = LoopShape::default();
    let mut named = all_kernels(100);
    named.extend(livermore_kernels(100));
    named.push(("fig4", fig4()));
    named.push((
        "multi_dim",
        parse_program(
            "do i = 1, 60
               X[i+1, 2] := X[i, 1] + Y[i];
               if Y[i] < 3 then X[i, 3] := X[i-1, 2] * 2; end
               Y[i+2] := X[i, 2] - Y[i-1];
             end",
        )
        .unwrap(),
    ));
    for (name, p) in named {
        loops.push((name.to_string(), p, kernel_shape));
    }
    for (stmts, arrays) in [(8, 4), (32, 8), (128, 16), (512, 64)] {
        for cond_pct in [0, 35, 70] {
            let shape = LoopShape {
                stmts,
                arrays,
                cond_pct,
                ..LoopShape::default()
            };
            let name = format!("E16 {stmts} stmts, {cond_pct}% conditionals");
            loops.push((name, random_loop(&shape, 42), shape));
        }
    }
    for (_, p, _) in &mut loops {
        p.renumber();
        normalize(p);
        p.renumber();
    }
    loops
}

/// The assignment with id `id` in `block`.
fn find_assign(block: &Block, id: StmtId) -> Option<&Assign> {
    block.iter().find_map(|s| match s {
        Stmt::Assign(a) => (a.id == id).then_some(a),
        Stmt::If {
            then_blk, else_blk, ..
        } => find_assign(then_blk, id).or_else(|| find_assign(else_blk, id)),
        Stmt::Do(l) => find_assign(&l.body, id),
    })
}

#[test]
fn tape_replays_the_walk_on_the_oracle_loops() {
    for (name, p, _) in oracle_loops() {
        let l = p.sole_loop().expect("one loop");
        assert_eq!(
            Tape::of_loop(l).fingerprint(&p.symbols),
            fingerprint_loop(l, &p.symbols),
            "{name}"
        );
    }
}

/// Every assignment, in one chain in a seeded order, is replaced by a
/// `random_edit` replacement and re-recorded alone: after each, the tape
/// equals a fresh recording of the edited loop, and after every second
/// one it replays to its walk's fingerprint, so replays resume before one
/// re-recorded segment or two, anywhere on the tape.
#[test]
fn rerecorded_assignments_replay_the_edited_walk() {
    for (name, mut p, shape) in oracle_loops() {
        let mut tape = Tape::of_loop(p.sole_loop().unwrap());
        let mut fingerprints = vec![tape.fingerprint(&p.symbols)];
        let mut order = assign_ids(&p);
        let mut rng = Prng::seed_from_u64(order.len() as u64);
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below_usize(k + 1));
        }
        for (k, &stmt) in order.iter().enumerate() {
            let text = random_edit(&p, &shape, k as u64).unwrap().text;
            let edit = Edit { stmt, text };
            apply_edit(&mut p, &edit).unwrap_or_else(|e| panic!("{name}: {e}"));
            tape.rerecord(find_assign(&p.body, stmt).unwrap());
            let l = p.sole_loop().unwrap();
            let context = format!("{name}, edit {k} of {stmt:?}: {}", edit.text);
            assert_eq!(tape, Tape::of_loop(l), "{context}");
            if k % 2 == 1 || k + 1 == order.len() {
                let fingerprint = tape.fingerprint(&p.symbols);
                assert_eq!(fingerprint, fingerprint_loop(l, &p.symbols), "{context}");
                fingerprints.push(fingerprint);
            }
        }
        // The edits changed the loop, so the oracle compared more than one
        // fingerprint.
        fingerprints.dedup();
        assert!(fingerprints.len() > 1, "{name}");
    }
}
