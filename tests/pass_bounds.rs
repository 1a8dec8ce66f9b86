//! E7 property: the paper's efficiency theorem. On every structured loop,
//! the fixed point of a must-problem is reached after the initialization
//! pass plus two iteration passes (3·N node visits), and of a may-problem
//! after two passes — so the bounded solver that runs *exactly* that
//! schedule must agree with the run-to-fixpoint solver.

use arrayflow::analyses::{build_spec, enumerate_sites, GK};
use arrayflow::core::{solve, solve_bounded, Direction, Dist, Mode, RefId, Solution, CANNED};
use arrayflow::graph::{build_loop_graph, LoopGraph, NodeId};
use arrayflow::workloads::{all_kernels, random_loop, LoopShape};
use arrayflow_ir::Program;

/// One side of every node's flow function, as tuples.
fn rows(
    graph: &LoopGraph,
    sol: &Solution,
    side: fn(&Solution, NodeId) -> Vec<Dist>,
) -> Vec<Vec<Dist>> {
    graph.node_ids().map(|n| side(sol, n)).collect()
}

fn check_all_instances(p: &Program, tag: &str) {
    let l = p.sole_loop().expect("single loop");
    let graph = build_loop_graph(l);
    let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
    for (name, spec) in CANNED {
        let built = build_spec(&sites, GK::of(spec), spec.direction, spec.mode);
        let full = solve(&graph, &built.spec, None).unwrap();
        let bounded = solve_bounded(&graph, &built.spec);
        assert_eq!(
            rows(&graph, &full, Solution::before_row),
            rows(&graph, &bounded, Solution::before_row),
            "{tag}/{name}: bounded IN differs"
        );
        assert_eq!(
            rows(&graph, &full, Solution::after_row),
            rows(&graph, &bounded, Solution::after_row),
            "{tag}/{name}: bounded OUT differs"
        );
        assert!(
            full.stats.changing_passes <= 2,
            "{tag}/{name}: {:?}",
            full.stats
        );
        match spec.mode {
            Mode::Must => assert_eq!(full.stats.init_visits, graph.len(), "{tag}/{name}"),
            Mode::May => assert_eq!(full.stats.init_visits, 0, "{tag}/{name}"),
        }
    }
}

#[test]
fn kernels_satisfy_the_pass_bounds() {
    for (name, p) in all_kernels(100) {
        check_all_instances(&p, name);
    }
}

#[test]
fn random_loops_satisfy_the_pass_bounds() {
    for seed in 0..60 {
        let p = random_loop(&LoopShape::default(), seed);
        check_all_instances(&p, &format!("seed{seed}"));
    }
}

#[test]
fn larger_random_loops_satisfy_the_pass_bounds() {
    let shapes = [
        LoopShape {
            stmts: 30,
            arrays: 5,
            cond_pct: 40,
            ..LoopShape::default()
        },
        LoopShape {
            stmts: 60,
            arrays: 2,
            cond_pct: 10,
            max_offset: 8,
            ..LoopShape::default()
        },
        LoopShape {
            stmts: 15,
            arrays: 1,
            cond_pct: 60,
            max_coef: 3,
            ..LoopShape::default()
        },
    ];
    for (k, shape) in shapes.iter().enumerate() {
        for seed in 0..12 {
            let p = random_loop(shape, 1000 + seed);
            check_all_instances(&p, &format!("shape{k}/seed{seed}"));
        }
    }
}

#[test]
fn may_solution_dominates_must_solution() {
    // May-reaching-references is an overestimate: for the common (G, K)
    // selection it must cover at least what the must-version covers.
    for seed in 0..30 {
        let p = random_loop(&LoopShape::default(), 77 + seed);
        let l = p.sole_loop().unwrap();
        let graph = build_loop_graph(l);
        let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
        let must = solve(
            &graph,
            &build_spec(&sites, GK::AVAILABLE, Direction::Forward, Mode::Must).spec,
            None,
        )
        .unwrap();
        let may = solve(
            &graph,
            &build_spec(&sites, GK::REACHING_REFS, Direction::Forward, Mode::May).spec,
            None,
        )
        .unwrap();
        for n in graph.node_ids() {
            for d in (0..must.width() as u32).map(RefId) {
                assert!(
                    may.before_at(n, d) >= must.before_at(n, d),
                    "seed {seed}: node {n} ref {d:?}: may {} < must {}",
                    may.before_at(n, d),
                    must.before_at(n, d)
                );
            }
        }
    }
}
