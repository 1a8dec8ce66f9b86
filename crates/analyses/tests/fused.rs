//! One solve per (K, direction): a solve of one spec's rows in several
//! modes at once (`solve_modes`) must equal one-mode solves of the same
//! rows — every lane at every node, the column profile and the
//! statistics — in both mode orders, for every role selection and both
//! directions; and `LoopAnalysis`, which solves δ-available values and
//! δ-reaching references together, must equal fresh one-mode solves of
//! both. Covers the E16 tiers at three conditional shares, the Livermore
//! and paper kernels, a nest's outer level (summary node, `AllOfArray`
//! kills, subscripts symbolic in the inner induction variable), linearized
//! multi-dimensional subscripts, and the `i64` overflow edges.

use arrayflow_analyses::{build_spec, enumerate_sites, loops_innermost_first, LoopAnalysis, GK};
use arrayflow_core::{solve, solve_modes, CustomSpec, Direction, KillKind, Mode, ProblemSpec};
use arrayflow_graph::build_loop_graph;
use arrayflow_ir::{normalize, parse_program, Program};
use arrayflow_workloads::{all_kernels, livermore_kernels, random_loop, LoopShape};

/// Both mode orders of a fused solve against one-mode solves.
fn check_spec(graph: &arrayflow_graph::LoopGraph, spec: &ProblemSpec, ctx: &str) {
    let one = |mode| {
        let spec = ProblemSpec {
            mode,
            ..spec.clone()
        };
        solve(graph, &spec, None).unwrap()
    };
    let (must, may) = (one(Mode::Must), one(Mode::May));
    for modes in [[Mode::Must, Mode::May], [Mode::May, Mode::Must]] {
        let fused = solve_modes(graph, spec, &modes, None).unwrap();
        assert_eq!(fused.len(), 2, "{ctx}");
        for (mode, sol) in modes.iter().zip(&fused) {
            let want = match mode {
                Mode::Must => &must,
                Mode::May => &may,
            };
            assert_eq!(sol, want, "{ctx}: {mode:?} of {modes:?}");
        }
    }
}

/// Checks every analyzable loop of `p` under every role selection in both
/// directions, and its `LoopAnalysis` against one-mode solves. Returns
/// the loops checked and the `AllOfArray` kills seen.
fn check(mut p: Program, ctx: &str) -> (usize, usize) {
    normalize(&mut p);
    p.renumber();
    let (mut loops, mut all_of_array) = (0, 0);
    for l in loops_innermost_first(&p)
        .into_iter()
        .filter(|l| l.is_normalized())
    {
        let graph = build_loop_graph(l);
        let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
        // The spec rows depend on roles and direction alone: the bits
        // below the mode bit of `CustomSpec`.
        for bits in 0..0b10_0000 {
            let Some(custom) = CustomSpec::from_bits(bits) else {
                continue;
            };
            let built = build_spec(&sites, GK::of(custom), custom.direction, custom.mode);
            all_of_array += built
                .spec
                .kills
                .iter()
                .filter(|k| matches!(k.kind, KillKind::AllOfArray))
                .count();
            check_spec(&graph, &built.spec, &format!("{ctx} {custom}"));
        }
        let a = LoopAnalysis::of_loop(l, &p.symbols).unwrap();
        for (inst, gk, mode) in [
            (&a.available, GK::AVAILABLE, Mode::Must),
            (&a.reaching_refs, GK::REACHING_REFS, Mode::May),
            (&a.busy, GK::BUSY_STORES, Mode::Must),
        ] {
            let direction = match gk == GK::BUSY_STORES {
                true => Direction::Backward,
                false => Direction::Forward,
            };
            let fresh = solve(&graph, &build_spec(&sites, gk, direction, mode).spec, None);
            assert_eq!(
                inst.sol,
                fresh.unwrap(),
                "{ctx}: LoopAnalysis {gk:?} {mode:?}"
            );
        }
        loops += 1;
    }
    (loops, all_of_array)
}

#[test]
fn fused_solves_equal_one_mode_solves_on_the_e16_tiers() {
    for cond_pct in [0, 35, 70] {
        for (stmts, arrays, seeds) in [(8, 4, 6), (32, 8, 4), (128, 16, 2), (512, 64, 1)] {
            let shape = LoopShape {
                stmts,
                arrays,
                cond_pct,
                ..LoopShape::default()
            };
            for seed in 0..seeds {
                let ctx = format!("{stmts}/{arrays} at {cond_pct}% seed {seed}");
                assert_eq!(check(random_loop(&shape, 42 + seed), &ctx).0, 1, "{ctx}");
            }
        }
    }
}

#[test]
fn fused_solves_equal_one_mode_solves_on_the_kernels() {
    let mut programs = livermore_kernels(100);
    programs.extend(all_kernels(100));
    let checked: usize = programs.into_iter().map(|(name, p)| check(p, name).0).sum();
    assert!(checked >= 10, "kernel coverage collapsed: {checked}");
}

#[test]
fn fused_solves_equal_one_mode_solves_at_a_nest_outer_level() {
    // The inner loop is a summary node at the outer level: its references
    // vary with `j` (symbolic there) or are not affine (`AllOfArray`).
    let p = parse_program(
        "do i = 1, 100
           A[i+1] := A[i] + B[i];
           do j = 1, 10
             B[j] := A[i] + C[i*i];
             C[i*i] := B[j+1] + A[i-1];
           end
           if A[i] > 0 then C[i] := A[i-1]; end
           B[i+2] := C[i] + B[i];
         end",
    )
    .unwrap();
    let (loops, all_of_array) = check(p, "nest");
    assert_eq!(loops, 2);
    assert!(all_of_array > 0, "no AllOfArray kill exercised");
}

#[test]
fn fused_solves_equal_one_mode_solves_with_symbolic_and_multidimensional_subscripts() {
    for (name, src) in [
        (
            "fig4",
            "do j = 1, M
               do i = 1, N
                 X[i+1, j] := X[i, j] + Y[i, j+1];
                 Y[i, j+1] := Y[i, j-1] + X[i+2, j];
                 if X[i, j] > 0 then X[i, j+1] := Y[i+1, j]; end
               end
             end",
        ),
        (
            "symbolic",
            "do i = 1, 50
               A[2*i+n] := A[i+n] + A[2*i];
               A[n*i] := A[i] + B[n*i+1];
               B[i+m] := A[n*i+2] + B[i];
               A[i] := B[i+m] + A[2*i+n];
             end",
        ),
    ] {
        let (loops, _) = check(parse_program(src).unwrap(), name);
        assert!(loops >= 1, "{name}");
    }
}

#[test]
fn fused_solves_equal_one_mode_solves_at_the_overflow_edges() {
    for (name, src) in [
        (
            "offsets",
            "do i = 1, UB
               A[i+9223372036854775807] := A[i-9223372036854775807] + A[i];
               A[i] := A[i+9223372036854775807] + A[2*i-9223372036854775807];
               A[4611686018427387903*i] := A[i+1] + A[3*i];
             end",
        ),
        (
            "trip count",
            "do i = 1, 9223372036854775806
               A[4611686018427387903*i] := A[i+1] + A[3*i];
               A[i+1] := A[4611686018427387903*i] + A[i-9223372036854775807];
               if A[i] > 0 then A[9223372036854775807] := A[i]; end
             end",
        ),
    ] {
        let (loops, _) = check(parse_program(src).unwrap(), name);
        assert_eq!(loops, 1, "{name}");
    }
}
