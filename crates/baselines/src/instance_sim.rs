//! Explicit instance propagation, after Rau (LCPC '91) — the
//! reference-instance baseline the paper contrasts in §5.
//!
//! Instead of abstracting instances to a maximal distance, this analysis
//! propagates *sets of tagged instances* `(site, age)` around the loop,
//! one simulated iteration at a time, intersecting at joins (an all-paths
//! problem), until the entry state repeats or the age cap is hit. Its
//! iteration count is unbounded in general — it needs at least
//! `δ_max + 1` trips to see a recurrence at distance `δ_max` (the
//! "start-up iterations" the paper describes) and runs to the cap whenever
//! some reference is never killed. The framework computes the same facts
//! in three passes.

use std::collections::BTreeSet;

use arrayflow_analyses::Site;
use arrayflow_core::{Direction, GenRef, KillKind, KillSite, Mode, RefId};
use arrayflow_graph::LoopGraph;

/// A tagged instance: generator site index and its age in iterations.
pub type Instance = (usize, u64);

/// Result of the simulation.
#[derive(Debug, Clone)]
pub struct InstanceSim {
    /// Instances available at loop entry in the steady state (valid only
    /// if `converged`).
    pub entry_state: BTreeSet<Instance>,
    /// Number of simulated loop iterations until the entry state repeated.
    pub iterations: usize,
    /// Node visits performed (iterations × nodes).
    pub node_visits: usize,
    /// False when the age cap stopped the simulation before a steady state.
    pub converged: bool,
}

/// Runs the explicit-instance availability analysis (defs and uses
/// generate, defs kill — matching the framework's δ-available instance)
/// with ages capped at `cap`.
pub fn simulate_available(
    graph: &LoopGraph,
    sites: &[Site],
    cap: u64,
    max_iterations: usize,
) -> InstanceSim {
    // Precompute kill relations pairwise, reusing the core crate's exact
    // subscript machinery: killer site k kills instance (s, age) iff the
    // preserve constant of s w.r.t. k does not cover `age`.
    let kills: Vec<Option<&Site>> = sites
        .iter()
        .map(|s| if s.is_def { Some(s) } else { None })
        .collect();

    let mut entry: BTreeSet<Instance> = BTreeSet::new();
    let mut iterations = 0usize;
    let mut node_visits = 0usize;
    loop {
        iterations += 1;
        // Push the state through the acyclic body in reverse postorder,
        // keeping one set per node OUT.
        let mut outs: Vec<BTreeSet<Instance>> = vec![BTreeSet::new(); graph.len()];
        for &node in graph.rpo() {
            node_visits += 1;
            let mut inp: Option<BTreeSet<Instance>> = None;
            if node == graph.entry() {
                inp = Some(entry.clone());
            } else {
                for &p in graph.preds(node) {
                    let o = &outs[p.index()];
                    inp = Some(match inp {
                        None => o.clone(),
                        Some(acc) => acc.intersection(o).cloned().collect(),
                    });
                }
            }
            let mut state = inp.unwrap_or_default();
            // Kills.
            for (k_idx, killer) in kills.iter().enumerate() {
                let Some(killer) = killer else { continue };
                if killer.node != node {
                    continue;
                }
                state.retain(|&(s, age)| !may_kill(sites, graph, s, k_idx, age));
            }
            // Gens.
            for (s_idx, site) in sites.iter().enumerate() {
                if site.node == node && site.sub.is_some() {
                    state.insert((s_idx, 0));
                }
            }
            // Post-generate kills: a definition executing after a use in
            // the same node destroys the freshly generated instance when
            // the subscripts can coincide this iteration.
            for (k_idx, killer) in kills.iter().enumerate() {
                if killer.is_some() && sites[k_idx].node == node {
                    state.retain(|&(s, age)| {
                        !(age == 0
                            && sites[s].node == node
                            && may_post_kill(sites, graph, s, k_idx))
                    });
                }
            }
            outs[node.index()] = state;
        }
        // Cross the back edge: age everything, clamp at the cap.
        let aged: BTreeSet<Instance> = outs[graph.exit().index()]
            .iter()
            .filter_map(|&(s, age)| (age < cap).then_some((s, age + 1)))
            .collect();
        if aged == entry {
            return InstanceSim {
                entry_state: entry,
                iterations,
                node_visits,
                converged: true,
            };
        }
        entry = aged;
        if iterations >= max_iterations {
            return InstanceSim {
                entry_state: entry,
                iterations,
                node_visits,
                converged: false,
            };
        }
    }
}

/// Exact per-age kill decision via the core preserve machinery.
fn may_kill(sites: &[Site], graph: &LoopGraph, gen: usize, killer: usize, age: u64) -> bool {
    let gsite = &sites[gen];
    let ksite = &sites[killer];
    if gsite.aref.array != ksite.aref.array {
        return false;
    }
    let (g, k) = core_pair(sites, gen, killer);
    let _ = gsite;
    let _ = ksite;
    let p = arrayflow_core::preserve_constant(&g, &k, graph, Direction::Forward, Mode::Must);
    !p.covers(age)
}

/// Same-node, same-iteration kill by a definition executing *after* the
/// generating use (matching the framework's post-generate kill).
fn may_post_kill(sites: &[Site], graph: &LoopGraph, gen: usize, killer: usize) -> bool {
    let gsite = &sites[gen];
    let ksite = &sites[killer];
    if gsite.aref.array != ksite.aref.array || gen == killer {
        return false;
    }
    let applies = if gsite.in_summary {
        true
    } else {
        ksite.is_def && !gsite.is_def
    };
    if !applies {
        return false;
    }
    let (g, k) = core_pair(sites, gen, killer);
    let p = arrayflow_core::preserve::preserve_constant_with_pr(
        &g,
        &k,
        graph.ub,
        Direction::Forward,
        Mode::Must,
        0,
    );
    !p.covers(0)
}

fn core_pair(sites: &[Site], gen: usize, killer: usize) -> (GenRef, KillSite) {
    let gsite = &sites[gen];
    let ksite = &sites[killer];
    let g = GenRef {
        id: RefId(0),
        node: gsite.node,
        aref: gsite.aref.clone(),
        sub: gsite
            .sub
            .clone()
            .unwrap_or_else(|| arrayflow_ir::AffineSub::constant(0).into()),
        is_def: gsite.is_def,
        stmt: gsite.stmt,
        origin: Some(gen as u32),
    };
    let k = KillSite {
        node: ksite.node,
        array: ksite.aref.array,
        kind: match &ksite.sub {
            Some(s) => KillKind::Exact(s.clone()),
            None => KillKind::AllOfArray,
        },
        is_def: ksite.is_def,
        origin: Some(killer as u32),
    };
    (g, k)
}

/// Reuses recoverable from the converged steady state: a use at node `n`
/// reusing a generator instance of matching subscript at its age.
pub fn reuses_from_state(
    graph: &LoopGraph,
    sites: &[Site],
    sim: &InstanceSim,
) -> Vec<(usize, usize, u64)> {
    // Re-derive per-node IN states with the converged entry state, then
    // match uses (single extra pass).
    let mut outs: Vec<BTreeSet<Instance>> = vec![BTreeSet::new(); graph.len()];
    let mut ins: Vec<BTreeSet<Instance>> = vec![BTreeSet::new(); graph.len()];
    for &node in graph.rpo() {
        let mut inp: Option<BTreeSet<Instance>> = None;
        if node == graph.entry() {
            inp = Some(sim.entry_state.clone());
        } else {
            for &p in graph.preds(node) {
                let o = &outs[p.index()];
                inp = Some(match inp {
                    None => o.clone(),
                    Some(acc) => acc.intersection(o).cloned().collect(),
                });
            }
        }
        let mut state = inp.unwrap_or_default();
        ins[node.index()] = state.clone();
        for (k_idx, ksite) in sites.iter().enumerate() {
            if ksite.is_def && ksite.node == node {
                state.retain(|&(s, age)| !may_kill(sites, graph, s, k_idx, age));
            }
        }
        for (s_idx, site) in sites.iter().enumerate() {
            if site.node == node && site.sub.is_some() {
                state.insert((s_idx, 0));
            }
        }
        for (k_idx, ksite) in sites.iter().enumerate() {
            if ksite.is_def && ksite.node == node {
                state.retain(|&(s, age)| {
                    !(age == 0 && sites[s].node == node && may_post_kill(sites, graph, s, k_idx))
                });
            }
        }
        outs[node.index()] = state;
    }
    let mut found = Vec::new();
    for (u_idx, usite) in sites.iter().enumerate() {
        if usite.is_def {
            continue;
        }
        let Some(usub) = &usite.sub else { continue };
        for &(g_idx, age) in &ins[usite.node.index()] {
            let gsite = &sites[g_idx];
            if gsite.aref.array != usite.aref.array {
                continue;
            }
            let Some(gsub) = &gsite.sub else { continue };
            if arrayflow_analyses::constant_distance(gsub, usub) == Some(age) {
                found.push((g_idx, u_idx, age));
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// Pass-count comparison for experiment E7.
pub struct EffortComparison {
    /// Node visits the framework needed (init + changing passes).
    pub framework_visits: usize,
    /// Node visits the instance simulation needed.
    pub simulation_visits: usize,
    /// Simulated iterations until convergence (or the cap).
    pub simulation_iterations: usize,
    /// Whether the simulation converged below its iteration cap.
    pub simulation_converged: bool,
}
