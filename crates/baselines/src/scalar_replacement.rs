//! Dependence-based scalar replacement, after Callahan, Carr and Kennedy
//! (PLDI '90) — the baseline the paper contrasts in §5.
//!
//! Scalar replacement driven by *conventional data dependence information*
//! finds reuse through loop-carried **flow dependences** (definition → use)
//! with consistent constant distance. Because the underlying dependence
//! information is flow-insensitive, the method here models the published
//! technique's limits:
//!
//! * only def → use chains are exploited (no use → use reuse — input
//!   dependences carry no values in the dependence graph);
//! * a generator inside conditional control flow is not usable (the
//!   original formulation targets straight-line loop bodies);
//! * *any* other definition that may touch the same array kills the chain
//!   unless the dependence tests prove independence — including
//!   definitions that only execute conditionally, since the dependence
//!   graph does not record conditions.
//!
//! The flow-sensitive framework subsumes all reuses found here; the E9
//! experiment quantifies the gap.

use arrayflow_analyses::{constant_distance, LoopAnalysis};

use crate::deps::{combined_test, Verdict};

/// A reuse found by dependence-based scalar replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepReuse {
    /// Site index of the definition providing the value.
    pub def_site: usize,
    /// Site index of the consuming use.
    pub use_site: usize,
    /// Constant dependence distance.
    pub distance: u64,
}

/// Runs the baseline over an analyzed loop (the analysis is used only for
/// its site table and graph — none of the flow-sensitive solutions).
pub fn dependence_based_reuses(analysis: &LoopAnalysis) -> Vec<DepReuse> {
    let sites = &analysis.sites;
    let ub = analysis.graph.ub;
    let mut out = Vec::new();
    for (def_idx, def) in sites.iter().enumerate() {
        if !def.is_def || def.in_summary {
            continue;
        }
        let Some(def_sub) = &def.sub else { continue };
        // Conditional generators are outside the model.
        if under_condition(analysis, def_idx) {
            continue;
        }
        for (use_idx, usite) in sites.iter().enumerate() {
            if usite.is_def || usite.in_summary || usite.aref.array != def.aref.array {
                continue;
            }
            let Some(use_sub) = &usite.sub else { continue };
            let Some(delta) = constant_distance(def_sub, use_sub) else {
                continue;
            };
            if delta == 0 && !analysis.graph.precedes(def.node, usite.node) {
                continue; // intra-iteration reuse needs the def first
            }
            // Kill check, flow-insensitively: any other def of the array
            // that may alias the flowing element kills the chain.
            let killed = sites.iter().enumerate().any(|(k, other)| {
                k != def_idx
                    && other.is_def
                    && other.aref.array == def.aref.array
                    && match &other.sub {
                        None => true,
                        Some(os) => combined_test(def_sub, os, ub) == Verdict::MayDepend,
                    }
            });
            if !killed {
                out.push(DepReuse {
                    def_site: def_idx,
                    use_site: use_idx,
                    distance: delta,
                });
            }
        }
    }
    out
}

/// True if the site's node is control-dependent on some test (reached by a
/// path that can bypass it).
fn under_condition(analysis: &LoopAnalysis, site: usize) -> bool {
    let node = analysis.sites[site].node;
    // A node is conditional iff some test node reaches the exit without
    // passing through it. Cheap approximation over the acyclic body: the
    // node is unconditional iff every path entry→exit passes through it,
    // i.e. it dominates exit in the body DAG. We check: entry reaches exit
    // only through `node` ⟺ there is no entry→exit path avoiding node.
    // Using the reachability bitsets: node is on all paths iff
    // (a) entry →* node →* exit, and (b) removing it disconnects — we
    // approximate with the test-node heuristic below, which is exact for
    // the structured bodies the builder produces.
    let g = &analysis.graph;
    for t in g.node_ids() {
        if matches!(g.node(t).kind, arrayflow_graph::NodeKind::Test { .. }) {
            // `node` is inside the conditional region of `t` iff t precedes
            // node and node does not post-dominate t — approximated as: some
            // successor of t reaches exit without reaching node.
            if g.precedes(t, node) {
                let bypass = g
                    .succs(t)
                    .iter()
                    .any(|&s| s != node && !g.precedes(s, node));
                if bypass {
                    return true;
                }
            }
        }
    }
    false
}

/// Comparison of the framework against the baseline on one loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseComparison {
    /// Reuses the flow-sensitive framework finds.
    pub framework: usize,
    /// Reuses dependence-based scalar replacement finds.
    pub dependence_based: usize,
    /// Found by the framework but not the baseline.
    pub framework_only: usize,
    /// Found by the baseline but not the framework (should be 0: the
    /// framework subsumes the baseline on sound inputs).
    pub baseline_only: usize,
}

/// Counts reuses found by each method.
pub fn compare_reuses(analysis: &LoopAnalysis) -> ReuseComparison {
    let fw: std::collections::HashSet<(usize, usize, u64)> = analysis
        .reuse_pairs()
        .into_iter()
        .map(|r| (r.gen_site, r.use_site, r.distance))
        .collect();
    let base: std::collections::HashSet<(usize, usize, u64)> = dependence_based_reuses(analysis)
        .into_iter()
        .map(|r| (r.def_site, r.use_site, r.distance))
        .collect();
    ReuseComparison {
        framework: fw.len(),
        dependence_based: base.len(),
        framework_only: fw.difference(&base).count(),
        baseline_only: base.difference(&fw).count(),
    }
}

/// Sanity guard used in tests: every baseline reuse must be certified by
/// the framework's must-available solution (otherwise the baseline would be
/// unsound — it never should be, given its conservative kill rule).
pub fn baseline_is_subsumed(analysis: &LoopAnalysis) -> bool {
    let fw: std::collections::HashSet<(usize, usize, u64)> = analysis
        .reuse_pairs()
        .into_iter()
        .map(|r| (r.gen_site, r.use_site, r.distance))
        .collect();
    dependence_based_reuses(analysis)
        .into_iter()
        .all(|r| fw.contains(&(r.def_site, r.use_site, r.distance)))
}
