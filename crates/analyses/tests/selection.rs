//! Reaching definitions by selection: `LoopAnalysis` selects them from
//! δ-available values' definition columns instead of solving them, and
//! the selection must equal a fresh solve — every lane, the column
//! profile, the statistics, the generator list and the site map. The
//! incremental suite compares sessions against fresh sessions, which
//! share the selection, so this is the check against an independent
//! solve.

use arrayflow_analyses::{loops_innermost_first, Instance, LoopAnalysis, GK};
use arrayflow_core::{Direction, Mode};
use arrayflow_ir::{normalize, Program};
use arrayflow_workloads::{all_kernels, livermore_kernels, random_loop, LoopShape};

/// Checks every loop of `p`; returns how many were compared.
fn check(mut p: Program, ctx: &str) -> usize {
    p.renumber();
    normalize(&mut p);
    p.renumber();
    let mut checked = 0;
    for l in loops_innermost_first(&p)
        .into_iter()
        .filter(|l| l.is_normalized())
    {
        let a = LoopAnalysis::of_loop(l, &p.symbols).unwrap();
        let fresh = Instance::run(
            &a.graph,
            &a.sites,
            GK::REACHING_DEFS,
            Direction::Forward,
            Mode::Must,
            None,
        )
        .unwrap();
        let selected = &a.reaching;
        assert_eq!(selected.gk, fresh.gk, "{ctx}: roles");
        assert_eq!(selected.sol, fresh.sol, "{ctx}: lanes, profile or stats");
        assert_eq!(
            format!("{:?}", selected.built.spec),
            format!("{:?}", fresh.built.spec),
            "{ctx}: generators or kills"
        );
        assert_eq!(
            selected.built.gen_site, fresh.built.gen_site,
            "{ctx}: site map"
        );
        checked += 1;
    }
    checked
}

#[test]
fn selected_reaching_definitions_equal_a_fresh_solve_on_the_e16_tiers() {
    for cond_pct in [0, 35, 70] {
        for (stmts, arrays, seeds) in [(8, 4, 12), (32, 8, 12), (128, 16, 12), (512, 64, 1)] {
            let shape = LoopShape {
                stmts,
                arrays,
                cond_pct,
                ..LoopShape::default()
            };
            for seed in 0..seeds {
                let ctx = format!("{stmts}/{arrays} at {cond_pct}% seed {seed}");
                assert_eq!(check(random_loop(&shape, 42 + seed), &ctx), 1, "{ctx}");
            }
        }
    }
}

#[test]
fn selected_reaching_definitions_equal_a_fresh_solve_on_the_kernels() {
    let mut programs = livermore_kernels(100);
    programs.extend(all_kernels(100));
    let checked: usize = programs.into_iter().map(|(name, p)| check(p, name)).sum();
    assert!(checked >= 10, "kernel coverage collapsed: {checked}");
}
