//! Register pipelining (paper §4.1).
//!
//! The allocation pipeline follows the paper's four phases:
//!
//! 1. **Live range analysis** — live ranges of subscripted variables come
//!    from the δ-available instance (each generating reference with its
//!    guaranteed reuse points and maximal distance `δ₀`); scalar live
//!    ranges are the classical kind.
//! 2. **IRIG construction** — scalar and subscripted ranges in one
//!    *integrated register interference graph*.
//! 3. **Multi-coloring** — priority-based coloring generalized so a node
//!    consumes `depth(l)` colors: `depth = 1` for scalars,
//!    `depth = δ₀ + 1` for subscripted ranges (§4.1.2/§4.1.3). The
//!    priority is the savings/cost ratio
//!    `P(l) = (access(l) − 1)·Cm / (|l|·depth(l))`.
//! 4. **Code generation** — the chosen ranges become a
//!    [`PipelinePlan`] consumed by `arrayflow_machine::compile_with`
//!    (§4.1.4: preamble loads, stage reads at reuse points, pipeline
//!    progression moves).

use std::collections::{BTreeMap, BTreeSet};

use arrayflow_analyses::{best_reuse, LoopAnalysis, Reuse};
use arrayflow_ir::VarId;
use arrayflow_machine::{PipeRange, PipelinePlan, ReusePoint};

/// What a live range holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeKind {
    /// A scalar variable (depth 1).
    Scalar(VarId),
    /// A subscripted live range: the generating reference (by site index)
    /// plus its reuse points.
    Pipe {
        /// Site index of the generator.
        gen_site: usize,
        /// The reuses served, in site-index form.
        reuses: Vec<Reuse>,
    },
}

/// A node of the integrated register interference graph.
#[derive(Debug, Clone)]
pub struct LiveRange {
    /// Payload.
    pub kind: RangeKind,
    /// Registers this range needs (`depth(l)`).
    pub depth: usize,
    /// Number of access points (generation + reuses for pipes, occurrence
    /// count for scalars).
    pub accesses: usize,
    /// Length of the range in statements (`|l|`).
    pub len: usize,
    /// The savings/cost priority `P(l)`.
    pub priority: f64,
}

/// The integrated register interference graph (§4.1.2).
#[derive(Debug, Clone, Default)]
pub struct Irig {
    /// Nodes.
    pub ranges: Vec<LiveRange>,
    /// Adjacency: `adj[k]` lists the neighbors of range `k`.
    pub adj: Vec<Vec<usize>>,
}

impl Irig {
    /// True if range `n` is *unconstrained*: it and all its neighbors can
    /// always be colored (`depth(n) + Σ depth(m) ≤ k`, §4.1.3).
    pub fn is_unconstrained(&self, n: usize, k: usize) -> bool {
        let total: usize = self.ranges[n].depth
            + self.adj[n]
                .iter()
                .map(|&m| self.ranges[m].depth)
                .sum::<usize>();
        total <= k
    }
}

/// The outcome of register allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The interference graph that was colored.
    pub irig: Irig,
    /// Indices of ranges that received registers, in coloring order.
    pub colored: Vec<usize>,
    /// Indices of ranges that did not fit.
    pub spilled: Vec<usize>,
    /// Registers consumed by the colored ranges.
    pub registers_used: usize,
    /// The machine-level plan for the pipelined ranges that were colored.
    pub plan: PipelinePlan,
}

/// Tuning knobs for the allocator.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Available registers `k`.
    pub registers: usize,
    /// Average memory load cost (`Cm` in the priority function).
    pub load_cost: f64,
    /// Per-iteration cost of one pipeline progression move, charged against
    /// the savings (§4.1.4 discusses this overhead; set 0 to ignore).
    pub move_cost: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            registers: 16,
            load_cost: 4.0,
            move_cost: 1.0,
        }
    }
}

/// Builds subscripted live ranges from the analysis: one candidate per
/// generating reference that provides at least one reuse (phase 1).
pub fn live_ranges(analysis: &LoopAnalysis, config: &PipelineConfig) -> Irig {
    let reuses = analysis.reuse_pairs();
    let n_stmts = analysis.graph.stmt_nodes().len().max(1);

    // Serve each use by its best provider only.
    let mut chosen: Vec<Reuse> = Vec::new();
    let mut seen_uses = BTreeSet::new();
    for r in &reuses {
        if seen_uses.insert(r.use_site) {
            if let Some(best) = best_reuse(&reuses, r.use_site) {
                chosen.push(best.clone());
            }
        }
    }

    // Group by generator site.
    let mut by_gen: BTreeMap<usize, Vec<Reuse>> = BTreeMap::new();
    for r in chosen {
        by_gen.entry(r.gen_site).or_default().push(r);
    }

    let mut irig = Irig::default();
    for (gen_site, reuses) in by_gen {
        let site = &analysis.sites[gen_site];
        // The plan needs a concrete integer subscript and a real statement.
        let ok = site.stmt.is_some()
            && !site.in_summary
            && site
                .sub
                .as_ref()
                .is_some_and(|s| s.coef.as_constant().is_some() && s.rest.as_constant().is_some())
            && reuses
                .iter()
                .all(|r| analysis.sites[r.use_site].stmt.is_some());
        if !ok {
            continue;
        }
        let delta0 = reuses.iter().map(|r| r.distance).max().unwrap_or(0);
        let depth = delta0 as usize + 1;
        let accesses = reuses.len() + 1;
        let len = n_stmts;
        // Savings: each reuse avoids a load; progression moves cost
        // (depth − 1) per iteration.
        let savings =
            (accesses - 1) as f64 * config.load_cost - (depth - 1) as f64 * config.move_cost;
        let priority = savings / (len as f64 * depth as f64);
        irig.ranges.push(LiveRange {
            kind: RangeKind::Pipe { gen_site, reuses },
            depth,
            accesses,
            len,
            priority,
        });
    }

    // Scalar live ranges from conventional liveness (§4.1.1 phase (i)):
    // real spans and access counts, so short-lived temporaries do not
    // interfere with each other.
    let n_pipes = irig.ranges.len();
    let scalar_ranges = arrayflow_analyses::scalar_live_ranges(&analysis.graph);
    let mut scalar_meta = Vec::new();
    for sr in scalar_ranges {
        if sr.is_empty() {
            continue;
        }
        let accesses = sr.accesses;
        let len = sr.len();
        irig.ranges.push(LiveRange {
            kind: RangeKind::Scalar(sr.var),
            depth: 1,
            accesses,
            len,
            priority: (accesses.saturating_sub(1)) as f64 * config.load_cost / len as f64,
        });
        scalar_meta.push(sr);
    }

    // Interference: pipeline ranges span the whole loop (they live across
    // the back edge), so they interfere with every other range; scalar
    // ranges interfere only where their live spans overlap.
    let n = irig.ranges.len();
    irig.adj = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            let interferes = if a < n_pipes || b < n_pipes {
                true
            } else {
                scalar_meta[a - n_pipes].interferes(&scalar_meta[b - n_pipes])
            };
            if interferes {
                irig.adj[a].push(b);
                irig.adj[b].push(a);
            }
        }
    }
    irig
}

/// Multi-colors the IRIG by priority (§4.1.3) and emits the plan (§4.1.4).
pub fn allocate(analysis: &LoopAnalysis, config: &PipelineConfig) -> Allocation {
    let irig = live_ranges(analysis, config);
    // Reserve one register for the induction variable.
    let k = config.registers.saturating_sub(1);

    // Postpone unconstrained nodes (they can always be colored), color the
    // constrained ones by priority, then the unconstrained ones.
    let mut order: Vec<usize> = (0..irig.ranges.len()).collect();
    order.sort_by(|&a, &b| {
        let ua = irig.is_unconstrained(a, k);
        let ub = irig.is_unconstrained(b, k);
        ua.cmp(&ub) // constrained (false) first
            .then(
                irig.ranges[b]
                    .priority
                    .partial_cmp(&irig.ranges[a].priority)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });

    let mut used = 0usize;
    let mut colored = Vec::new();
    let mut spilled = Vec::new();
    for idx in order {
        let r = &irig.ranges[idx];
        let beneficial = r.priority > 0.0 || matches!(r.kind, RangeKind::Scalar(_));
        if beneficial && used + r.depth <= k {
            used += r.depth;
            colored.push(idx);
        } else {
            spilled.push(idx);
        }
    }

    // Emit the plan for the colored pipeline ranges.
    let mut plan = PipelinePlan {
        iv: Some(analysis.graph.iv),
        ranges: Vec::new(),
    };
    // Two sites can be textually identical (same stmt, same reference);
    // the code generator identifies generators textually, so only one
    // range per textual generator may be emitted.
    let mut seen_gens: BTreeSet<(arrayflow_ir::stmt::StmtId, String)> = BTreeSet::new();
    for &idx in &colored {
        let RangeKind::Pipe { gen_site, reuses } = &irig.ranges[idx].kind else {
            continue;
        };
        let site = &analysis.sites[*gen_site];
        if !seen_gens.insert((
            site.stmt.expect("checked in live_ranges"),
            analysis.site_text(*gen_site),
        )) {
            continue;
        }
        let sub = site.sub.as_ref().expect("checked in live_ranges");
        plan.ranges.push(PipeRange {
            array: site.aref.array,
            gen_stmt: site.stmt.expect("checked in live_ranges"),
            gen_ref: (*site.aref).clone(),
            gen_is_def: site.is_def,
            gen_a: sub.coef.as_constant().expect("checked"),
            gen_b: sub.rest.as_constant().expect("checked"),
            depth: irig.ranges[idx].depth,
            reuse_points: reuses
                .iter()
                .map(|r| ReusePoint {
                    stmt: analysis.sites[r.use_site].stmt.expect("checked"),
                    aref: (*analysis.sites[r.use_site].aref).clone(),
                    distance: r.distance,
                })
                .collect(),
        });
    }

    Allocation {
        irig,
        colored,
        spilled,
        registers_used: used + 1, // + the reserved iv register
        plan,
    }
}

/// Predicts the total cycles saved by executing `plan` instead of
/// conventional code for `ub` iterations under `cost` — the quantity the
/// §4.1.2 priority function estimates per live range. Per steady-state
/// iteration a range saves one load per reuse point and pays `depth − 1`
/// progression moves plus, for definition generators, one stage-feed move;
/// the peeled start-up iterations save nothing.
pub fn predicted_cycle_savings(
    plan: &PipelinePlan,
    ub: i64,
    cost: &arrayflow_machine::CostModel,
) -> i64 {
    let peel = plan
        .ranges
        .iter()
        .map(|r| r.depth as i64 - 1)
        .max()
        .unwrap_or(0);
    let steady = (ub - peel).max(0);
    plan.ranges
        .iter()
        .map(|r| {
            let saved = r.reuse_points.len() as i64 * cost.load as i64;
            // A use-kind generator that is itself another range's reuse
            // point is fed by a register forward instead of its load.
            let chained = !r.gen_is_def
                && plan.ranges.iter().any(|other| {
                    other
                        .reuse_points
                        .iter()
                        .any(|rp| rp.stmt == r.gen_stmt && rp.aref == r.gen_ref)
                });
            let moves = (r.depth as i64 - 1 + i64::from(r.gen_is_def) + i64::from(chained))
                * cost.mov as i64;
            (saved - moves) * steady
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_analyses::analyze_loop;
    use arrayflow_ir::parse_program;

    fn irig_of(src: &str) -> (arrayflow_ir::Program, Irig) {
        let p = parse_program(src).unwrap();
        let a = analyze_loop(&p).unwrap();
        let irig = live_ranges(&a, &PipelineConfig::default());
        (p, irig)
    }

    #[test]
    fn irig_mixes_scalar_and_pipe_ranges() {
        let (_, irig) = irig_of(
            "do i = 1, 100
               t := A[i] * 2;
               A[i+1] := t + s;
             end",
        );
        let pipes = irig
            .ranges
            .iter()
            .filter(|r| matches!(r.kind, RangeKind::Pipe { .. }))
            .count();
        let scalars = irig
            .ranges
            .iter()
            .filter(|r| matches!(r.kind, RangeKind::Scalar(_)))
            .count();
        assert!(pipes >= 1, "{:?}", irig.ranges);
        assert!(scalars >= 2, "t and s: {:?}", irig.ranges);
    }

    #[test]
    fn non_overlapping_scalars_do_not_interfere() {
        let (p, irig) = irig_of(
            "do i = 1, 100
               t := A[i] * 2;
               B[i] := t + 1;
               u := B[i];
               C[i] := u;
             end",
        );
        let idx = |name: &str| {
            let v = p.symbols.lookup_var(name).unwrap();
            irig.ranges
                .iter()
                .position(|r| matches!(r.kind, RangeKind::Scalar(x) if x == v))
                .unwrap()
        };
        let (t, u) = (idx("t"), idx("u"));
        assert!(!irig.adj[t].contains(&u), "t and u never live together");
    }

    #[test]
    fn pipe_depth_and_priority() {
        let (_, irig) = irig_of("do i = 1, 100 A[i+3] := A[i] + 1; end");
        let pipe = irig
            .ranges
            .iter()
            .find(|r| matches!(r.kind, RangeKind::Pipe { .. }))
            .unwrap();
        assert_eq!(pipe.depth, 4, "δ₀ + 1");
        assert_eq!(pipe.accesses, 2);
        // savings = 1·Cm − 3·moves = 1 → positive but small.
        assert!(pipe.priority > 0.0);
    }

    #[test]
    fn unconstrained_rule_counts_neighbor_depths() {
        let (_, irig) = irig_of("do i = 1, 100 A[i+2] := A[i] + x; end");
        // With plenty of registers everything is unconstrained.
        for k in 0..irig.ranges.len() {
            assert!(irig.is_unconstrained(k, 64));
        }
        // With too few, the pipeline node is constrained.
        let pipe = irig
            .ranges
            .iter()
            .position(|r| matches!(r.kind, RangeKind::Pipe { .. }))
            .unwrap();
        assert!(!irig.is_unconstrained(pipe, 2));
    }

    #[test]
    fn allocation_prefers_higher_priority_under_pressure() {
        // Two pipelines, room for only one (plus scalars): the shallower,
        // higher-priority one must win.
        let p = parse_program(
            "do i = 1, 100
               A[i+1] := A[i] + 1;
               B[i+5] := B[i] + 2;
             end",
        )
        .unwrap();
        let a = analyze_loop(&p).unwrap();
        let alloc = allocate(
            &a,
            &PipelineConfig {
                registers: 4, // 1 iv + 3 free: only the depth-2 pipe fits
                ..PipelineConfig::default()
            },
        );
        assert_eq!(alloc.plan.ranges.len(), 1, "{:?}", alloc.plan.ranges);
        assert_eq!(alloc.plan.ranges[0].depth, 2, "the A pipeline wins");
    }
}
