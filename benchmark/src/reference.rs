//! The output checks.
//!
//! 1. Consistency: every kept output must equal an uncached,
//!    single-threaded analysis straight from `AnalysisReport::of_loop`, with
//!    none of the engine's caching, batching, sessions or transport. This
//!    runs the same parse, normalize, graph, sites, flow-table and solver
//!    code as the engine, so on its own it cannot see a wrong solver.
//! 2. The paper's efficiency result (§3.2-3.3) on every canned instance
//!    the reference solves: must-problems settle within three passes, the
//!    may-problem within two.
//! 3. An independent oracle for the solver: on a bounded number of kept
//!    loops, every reuse the δ-available-values instance reports must also
//!    be found by the explicit instance propagation of
//!    `arrayflow::baselines::instance_sim` (after Rau), which shares the
//!    graph, the sites and the preserve-constant test with the framework
//!    but none of its flow tables, lattice or fixed-point iteration. The
//!    propagation may find more (the framework is deliberately
//!    conservative in places), never less. Loops whose propagation does
//!    not reach a steady state under its age cap are skipped.
//!
//! Not covered by any check: the parser and the preserve-constant
//! derivation (both sides share them), the custom problems' lattice
//! values beyond consistency, and the three other canned instances.

use std::collections::BTreeSet;

use arrayflow::analyses::{loops_innermost_first, LoopAnalysis};
use arrayflow::baselines::{reuses_from_state, simulate_available};
use arrayflow::core::{CustomSpec, Direction, Mode};
use arrayflow::engine::{passes_to_fix, AnalysisReport, ProblemSet};
use arrayflow::graph::build_loop_graph;
use arrayflow::ir::{normalize, parse_program, Program};

/// Dependence distance bound of a default engine and of `serve`.
pub const DISTANCE_BOUND: u64 = 8;
/// Age cap of the instance propagation; reuses farther apart are beyond
/// what it can see and are not compared.
const SIM_CAP: u64 = 16;
/// Loops with more flow-graph nodes than this are too slow for the
/// instance propagation.
const SIM_MAX_NODES: usize = 256;

/// The custom (G, K) problem the serving mix asks for: δ-live array
/// elements (uses generate, definitions kill, backward, may). It is not
/// one of the canned instances, so the server solves it as a custom
/// problem.
pub const LIVE_ELEMENTS: CustomSpec = CustomSpec {
    gen_defs: false,
    gen_uses: true,
    kill_defs: true,
    kill_uses: false,
    direction: Direction::Backward,
    mode: Mode::May,
};

/// Rendered reports of `program`, innermost loop first.
pub fn analyze_program(program: &Program) -> Result<Vec<String>, String> {
    let p = prepared(program);
    loops_innermost_first(&p)
        .into_iter()
        .map(|l| {
            let r = AnalysisReport::of_loop(l, &p.symbols, ProblemSet::ALL, DISTANCE_BOUND)
                .map_err(|e| e.to_string())?;
            pass_bounds(&r)?;
            Ok(r.render())
        })
        .collect()
}

/// Rendered [`LIVE_ELEMENTS`] reports of `program`, innermost loop first.
pub fn custom(program: &Program) -> Result<Vec<String>, String> {
    let p = prepared(program);
    loops_innermost_first(&p)
        .into_iter()
        .map(|l| {
            AnalysisReport::of_custom(l, &p.symbols, LIVE_ELEMENTS, DISTANCE_BOUND)
                .map(|r| r.render())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Check 3 on every loop of `program`: `Ok(true)` when at least one loop
/// was compared, `Ok(false)` when none could be.
pub fn against_instance_propagation(program: &Program) -> Result<bool, String> {
    let p = prepared(program);
    let mut compared = false;
    for l in loops_innermost_first(&p) {
        if build_loop_graph(l).len() > SIM_MAX_NODES {
            continue;
        }
        let a = LoopAnalysis::of_loop(l, &p.symbols).map_err(|e| e.to_string())?;
        let sim = simulate_available(&a.graph, &a.sites, SIM_CAP, 4 * SIM_CAP as usize + 16);
        if !sim.converged {
            continue;
        }
        let found: BTreeSet<_> = reuses_from_state(&a.graph, &a.sites, &sim)
            .into_iter()
            .collect();
        if let Some(r) = a
            .reuse_pairs()
            .into_iter()
            .filter(|r| r.distance <= SIM_CAP)
            .find(|r| !found.contains(&(r.gen_site, r.use_site, r.distance)))
        {
            return Err(format!(
                "reuse of site {} by site {} at distance {} is not confirmed by instance propagation",
                r.gen_site, r.use_site, r.distance
            ));
        }
        compared = true;
    }
    Ok(compared)
}

/// The paper's efficiency result (§3.2-3.3): the must-problems reach
/// their fixed point within three passes, the may-problem within two.
fn pass_bounds(r: &AnalysisReport) -> Result<(), String> {
    for (name, s) in r.instance_stats() {
        let bound = if name == "reaching_refs" { 2 } else { 3 };
        let passes = passes_to_fix(&s);
        if passes > bound {
            return Err(format!(
                "{name} needed {passes} passes, over the bound of {bound}"
            ));
        }
    }
    Ok(())
}

pub fn parse(source: &str) -> Result<Program, String> {
    parse_program(source).map_err(|e| e.to_string())
}

fn prepared(program: &Program) -> Program {
    let mut p = program.clone();
    normalize(&mut p);
    p.renumber();
    p
}
