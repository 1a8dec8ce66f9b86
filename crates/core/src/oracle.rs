//! The round-robin oracle the column solver is checked against: the
//! textbook schedule over dense per-node tuples of [`Dist`], with every
//! flow constant derived cell by cell — independent of the lane encoding,
//! the kill-indexed flow table and the per-column schedule.

use std::sync::Arc;

use arrayflow_graph::{build_loop_graph, LoopGraph, NodeId};
use arrayflow_ir::AffineSub;
use arrayflow_workloads::{random_loop, LoopShape};

use crate::lattice::Dist;
use crate::preserve::{post_preserve, preserve_constant};
use crate::problem::{CustomSpec, Direction, KillKind, Mode, ProblemSpec, CANNED};
use crate::solver::{solve, solve_bounded, solve_modes, solve_passes, Solution, SolveStats};

/// `(before, after)` tuples per node.
type State = (Vec<Vec<Dist>>, Vec<Vec<Dist>>);

/// Round-robin passes until one changes nothing, or exactly `max_passes`.
/// `on_state` sees the state after initialization (`k = 0`) and after
/// each pass `k`. Returns the final state, the statistics and the last
/// pass that changed each column.
fn round_robin(
    graph: &LoopGraph,
    spec: &ProblemSpec,
    max_passes: Option<usize>,
    mut on_state: impl FnMut(usize, &State),
) -> (State, SolveStats, Vec<u32>) {
    let (n, m, ub) = (graph.len(), spec.width(), graph.ub);
    let increment = match spec.direction {
        Direction::Forward => graph.exit(),
        Direction::Backward => graph.entry(),
    };
    let mut preserve = vec![vec![Dist::Top; m]; n];
    let mut post = vec![Dist::Top; m];
    for kill in spec.kills.iter().filter(|k| k.node != increment) {
        // Any other array preserves everything (`preserve_constant` says ⊤
        // before anything else); skipping it only saves time.
        for (d, gen) in spec.gens.iter().enumerate() {
            if gen.aref.array != kill.array {
                continue;
            }
            let (dir, mode) = (spec.direction, spec.mode);
            let cell = &mut preserve[kill.node.index()][d];
            *cell = (*cell).min(preserve_constant(gen, kill, graph, dir, mode));
            if gen.node == kill.node {
                post[d] = post[d].min(post_preserve(gen, kill, graph, dir, mode));
            }
        }
    }
    let generates = |node: NodeId, d: usize| node != increment && spec.gens[d].node == node;
    let mut order = graph.rpo().to_vec();
    if spec.direction == Direction::Backward {
        order.reverse();
    }
    let preds = |node| match spec.direction {
        Direction::Forward => graph.preds(node),
        Direction::Backward => graph.succs(node),
    };
    let meet_of = |node: NodeId, after: &[Vec<Dist>], mode: Mode| -> Vec<Dist> {
        let column = |d| {
            preds(node)
                .iter()
                .map(move |p: &NodeId| after[p.index()][d])
        };
        (0..m)
            .map(|d| match mode {
                Mode::Must => column(d).fold(Dist::Top, Dist::min),
                Mode::May => column(d).fold(Dist::Bottom, Dist::max),
            })
            .collect()
    };

    let mut stats = SolveStats::default();
    let must = spec.mode == Mode::Must;
    let start = if must { Dist::Bottom } else { Dist::Top };
    let (mut before, mut after) = (vec![vec![start; m]; n], vec![vec![start; m]; n]);
    if must {
        for (i, &node) in order.iter().enumerate() {
            stats.init_visits += 1;
            let inp = if i == 0 {
                vec![Dist::Bottom; m]
            } else {
                meet_of(node, &after, Mode::Must)
            };
            after[node.index()] = (0..m)
                .map(|d| {
                    if generates(node, d) {
                        Dist::Top
                    } else {
                        inp[d]
                    }
                })
                .collect();
            before[node.index()] = inp;
        }
    }
    let mut state = (before, after);
    on_state(0, &state);
    let mut profile = vec![0; m];
    let last = *order.last().expect("non-empty");
    for pass in 1.. {
        let (before, after) = &mut state;
        let mut changed = false;
        for (i, &node) in order.iter().enumerate() {
            stats.iter_visits += 1;
            let inp = if i == 0 {
                after[last.index()].clone()
            } else {
                meet_of(node, after, spec.mode)
            };
            let (b, a) = (&mut before[node.index()], &mut after[node.index()]);
            for (d, &x) in inp.iter().enumerate() {
                let out = if node == increment {
                    x.incr()
                } else if generates(node, d) {
                    x.min(preserve[node.index()][d])
                        .max(Dist::Fin(0))
                        .min(post[d])
                } else {
                    x.min(preserve[node.index()][d])
                }
                .normalize(ub);
                if x != b[d] || out != a[d] {
                    (b[d], a[d]) = (x, out);
                    profile[d] = pass as u32;
                    changed = true;
                }
            }
        }
        stats.passes = pass;
        if changed {
            stats.changing_passes = pass;
        }
        on_state(pass, &state);
        if max_passes.map_or(!changed, |k| pass >= k) {
            break;
        }
        assert!(pass < 64, "oracle did not converge");
    }
    (state, stats, profile)
}

/// `custom`'s problem over a loop of one-dimensional references: sites in
/// a generating role with an affine subscript generate, sites in a killing
/// role kill — exactly when affine, the whole array otherwise.
fn spec_of(graph: &LoopGraph, custom: CustomSpec) -> ProblemSpec {
    let mut spec = ProblemSpec::new(custom.direction, custom.mode);
    let mut origin = 0;
    for node in graph.node_ids() {
        for site in &graph.node(node).refs {
            let sub = AffineSub::from_expr(&site.aref.subs[0], graph.iv).map(Arc::new);
            let (gen, kill) = match site.is_def {
                true => (custom.gen_defs, custom.kill_defs),
                false => (custom.gen_uses, custom.kill_uses),
            };
            if let (true, Some(sub)) = (gen, &sub) {
                let aref = Arc::clone(&site.aref);
                let id = spec.add_gen(node, aref, Arc::clone(sub), site.is_def, site.stmt);
                Arc::make_mut(&mut spec.gens)[id.index()].origin = Some(origin);
            }
            if kill {
                spec.add_kill(
                    node,
                    site.aref.array,
                    sub.map_or(KillKind::AllOfArray, KillKind::Exact),
                );
                let k = Arc::make_mut(&mut spec.kills).last_mut();
                let k = k.expect("just pushed");
                k.is_def = site.is_def;
                k.origin = Some(origin);
            }
            origin += 1;
        }
    }
    spec
}

fn assert_state(sol: &Solution, (before, after): &State, ctx: &str) {
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        let node = NodeId(i as u32);
        assert_eq!(&sol.before_row(node), b, "{ctx}: IN[{node}]");
        assert_eq!(&sol.after_row(node), a, "{ctx}: OUT[{node}]");
    }
}

/// Values, statistics, profile, the bounded schedule and every per-pass
/// snapshot of the column solver against the oracle's. `snapshots: false`
/// checks the fixed point alone. The fixed point is also checked as
/// either mode of a solve in both modes at once, first and second.
fn check(graph: &LoopGraph, spec: &ProblemSpec, snapshots: bool, ctx: &str) {
    let sol = solve(graph, spec, None).unwrap();
    let (fixed, stats, profile) = round_robin(graph, spec, None, |k, state| {
        if snapshots {
            assert_state(
                &solve_passes(graph, spec, k),
                state,
                &format!("{ctx} pass {k}"),
            );
        }
    });
    assert_state(&sol, &fixed, ctx);
    assert_eq!(sol.stats, stats, "{ctx}: stats");
    assert_eq!(sol.profile, profile, "{ctx}: profile");
    let other = match spec.mode {
        Mode::Must => Mode::May,
        Mode::May => Mode::Must,
    };
    for (at, modes) in [(0, [spec.mode, other]), (1, [other, spec.mode])] {
        let fused = &solve_modes(graph, spec, &modes, None).unwrap()[at];
        let ctx = format!("{ctx} fused as {modes:?}");
        assert_state(fused, &fixed, &ctx);
        assert_eq!(fused.stats, stats, "{ctx}: stats");
        assert_eq!(fused.profile, profile, "{ctx}: profile");
    }
    if snapshots {
        let (bounded, bounded_stats, _) = round_robin(graph, spec, Some(2), |_, _| {});
        let sol = solve_bounded(graph, spec);
        assert_state(&sol, &bounded, &format!("{ctx} bounded"));
        assert_eq!(sol.stats, bounded_stats, "{ctx}: bounded stats");
    }
}

/// The outer level of a loop nest: the inner loop is a summary node whose
/// references vary with the inner induction variable (symbolic to the
/// outer level) or are not affine at all (`AllOfArray` kills).
const NEST: &str = "do i = 1, 100
    A[i+1] := A[i] + B[i];
    do j = 1, 10
      B[j] := A[i] + C[i*i];
      C[i*i] := B[j+1] + A[i-1];
    end
    if A[i] > 0 then C[i] := A[i-1]; end
    B[i+2] := C[i] + B[i];
  end";

#[test]
fn column_solver_matches_round_robin_on_the_e16_tiers() {
    // The four E16 tier shapes (statements / arrays) at the default, no
    // and a 70% conditional share, under every valid custom spec, which
    // includes the four canned instances. The largest tier checks
    // per-pass snapshots and the bounded schedule for the canned
    // instances only, and at the extra shares solves only those, which
    // keeps the suite quick.
    let default = LoopShape::default().cond_pct;
    for (stmts, arrays, seeds) in [
        (8, 4, 0..6u64),
        (32, 8, 0..3),
        (128, 16, 0..2),
        (512, 64, 0..1),
    ] {
        for cond_pct in [default, 0, 70] {
            let shape = LoopShape {
                stmts,
                arrays,
                cond_pct,
                ..LoopShape::default()
            };
            // The extra shares take half the seeds, at least one.
            let seeds = match cond_pct == default {
                true => seeds.clone(),
                false => 0..seeds.end.div_ceil(2),
            };
            for seed in seeds {
                let p = random_loop(&shape, 42 + seed);
                let graph = build_loop_graph(p.sole_loop().unwrap());
                for custom in (0..64).filter_map(CustomSpec::from_bits) {
                    let canned = CANNED.iter().any(|&(_, s)| s == custom);
                    if stmts == 512 && cond_pct != default && !canned {
                        continue;
                    }
                    let snapshots = stmts < 512 || canned;
                    let ctx = format!("{stmts}/{arrays} at {cond_pct}% seed {seed} {custom}");
                    check(&graph, &spec_of(&graph, custom), snapshots, &ctx);
                }
            }
        }
    }
    let p = arrayflow_ir::parse_program(NEST).unwrap();
    let graph = build_loop_graph(p.sole_loop().unwrap());
    assert!(graph.node_ids().any(|n| graph.node(n).is_summary()));
    for custom in (0..64).filter_map(CustomSpec::from_bits) {
        let spec = spec_of(&graph, custom);
        if custom.kill_defs {
            assert!(spec
                .kills
                .iter()
                .any(|k| matches!(k.kind, KillKind::AllOfArray)));
        }
        check(&graph, &spec, true, &format!("nest {custom}"));
    }
}

#[test]
fn column_solver_matches_round_robin_on_fig1() {
    let p = arrayflow_ir::parse_program(
        "do i = 1, UB
           C[i+2] := C[i] * 2;
           B[2*i] := C[i] + x;
           if C[i] == 0 then C[i] := B[i-1]; end
           B[i] := C[i+1];
         end",
    )
    .unwrap();
    let graph = build_loop_graph(p.sole_loop().unwrap());
    for custom in (0..64).filter_map(CustomSpec::from_bits) {
        check(
            &graph,
            &spec_of(&graph, custom),
            true,
            &format!("fig1 {custom}"),
        );
    }
}

#[test]
fn a_fused_solve_stopped_at_every_poll_counts_each_mode_in_its_own_terms() {
    use crate::solver::{StopCheck, Stopped};
    use std::cell::Cell;

    // Runs `f` with a stop check that fires on its `stop_at`-th poll
    // (1-based; never for 0), and returns its result and the polls made.
    fn stopped_at<T>(
        stop_at: usize,
        f: impl FnOnce(StopCheck<'_>) -> Result<T, Stopped>,
    ) -> (Result<T, Stopped>, usize) {
        let polls = Cell::new(0);
        let stop = || {
            polls.set(polls.get() + 1);
            polls.get() == stop_at
        };
        let result = f(&stop);
        (result, polls.get())
    }

    let shape = LoopShape {
        stmts: 32,
        arrays: 8,
        ..LoopShape::default()
    };
    for seed in 0..4 {
        let p = random_loop(&shape, 42 + seed);
        let graph = build_loop_graph(p.sole_loop().unwrap());
        // δ-available values and δ-reaching references: the forward pair.
        let spec = spec_of(&graph, CANNED[1].1);
        let modes = [Mode::Must, Mode::May];
        let one = |mode: Mode, stop: Option<StopCheck<'_>>| {
            let spec = ProblemSpec {
                mode,
                ..spec.clone()
            };
            solve(&graph, &spec, stop)
        };
        let (must, must_polls) = stopped_at(0, |stop| one(Mode::Must, Some(stop)));
        let (_, may_polls) = stopped_at(0, |stop| one(Mode::May, Some(stop)));
        let must_passes = must.unwrap().stats.passes;
        assert!(
            must_polls > 1 && may_polls > 1,
            "seed {seed}: too few polls"
        );
        let (_, polls) = stopped_at(0, |stop| solve_modes(&graph, &spec, &modes, Some(stop)));
        assert_eq!(polls, must_polls + may_polls, "seed {seed}: poll count");
        for at in 1..=polls {
            let (fused, _) = stopped_at(at, |stop| solve_modes(&graph, &spec, &modes, Some(stop)));
            // The must mode is polled first, then the may mode, which
            // adds its own passes to the must mode's.
            let want = match at <= must_polls {
                true => stopped_at(at, |stop| one(Mode::Must, Some(stop))).0,
                false => {
                    let (may, _) = stopped_at(at - must_polls, |stop| one(Mode::May, Some(stop)));
                    let Err(Stopped { passes_completed }) = may else {
                        panic!("the may solve ran past its poll {}", at - must_polls)
                    };
                    Err(Stopped {
                        passes_completed: must_passes + passes_completed,
                    })
                }
            };
            assert_eq!(
                fused.map(|_| ()),
                want.map(|_| ()),
                "seed {seed}: stopped at poll {at}"
            );
        }
    }
}
