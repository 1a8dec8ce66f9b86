//! A loop's analysis as answers carry it, and human-readable renderings.
//!
//! An [`AnalysisReport`] is the *shareable* outcome of analyzing one loop:
//! every fact in it is stated in structural terms — site indices in
//! lexical order, tracked-reference indices, iteration distances, solver
//! visit counts — and never in terms of variable or array *names*. That is
//! what makes it sound to hand the same report to every loop with the same
//! canonical fingerprint: alpha-equivalent loops produce byte-identical
//! reports, so a memo cache can return one `Arc` for all of them.
//!
//! This module is the one place a [`LoopAnalysis`] becomes its report: a
//! fresh analysis and a session's open distill it
//! ([`AnalysisReport::distilled`]), and a session's fast-path edit patches
//! the touched arrays' entries into the pre-edit report
//! ([`AnalysisReport::patched`]). [`render_table1`] regenerates the
//! paper's Table 1 and [`render_stats`] summarizes solver effort.

use std::fmt::Write;

use arrayflow_core::{CustomSpec, Dist, SolveStats, StopCheck, Stopped, CANNED};
use arrayflow_graph::LoopGraph;
use arrayflow_ir::{ArrayId, Fingerprint, Loop, SymbolTable};

use crate::instances::{
    dependences, redundant_stores, reuse_pairs, Dep, DepKind, Instance, RedundantStore, Reuse,
};
use crate::sites::SiteSplice;
use crate::spec::GK;
use crate::{prepare_loop, AnalyzeError, LoopAnalysis};
use arrayflow_core::RefId;

/// Which canned framework instances a query reports (and therefore which
/// report sections are filled): bit `k` of [`ProblemSet::bits`] selects
/// row `k` of [`CANNED`]. Part of the cache key: the same loop analyzed
/// under different problem selections is a different memo entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSet {
    /// Must-reaching definitions (§3.5).
    pub reaching: bool,
    /// δ-available values (§4.1.1) and the reuse pairs derived from them.
    pub available: bool,
    /// δ-busy stores (§4.2.1) and the redundant stores derived from them.
    pub busy: bool,
    /// δ-reaching references (§4.3) and the dependences derived from them.
    pub reaching_refs: bool,
}

impl ProblemSet {
    /// All four canonical instances.
    pub const ALL: ProblemSet = ProblemSet {
        reaching: true,
        available: true,
        busy: true,
        reaching_refs: true,
    };

    /// No canonical instance — the selection a custom-spec report carries,
    /// so its cache key and encoding stay canonical.
    pub const NONE: ProblemSet = ProblemSet {
        reaching: false,
        available: false,
        busy: false,
        reaching_refs: false,
    };

    /// Compact encoding used in cache keys and renderings.
    pub fn bits(self) -> u8 {
        (self.reaching as u8)
            | (self.available as u8) << 1
            | (self.busy as u8) << 2
            | (self.reaching_refs as u8) << 3
    }

    /// Inverse of [`ProblemSet::bits`]; `None` if `bits` has stray high
    /// bits (e.g. when decoding untrusted persisted data).
    pub fn from_bits(bits: u8) -> Option<ProblemSet> {
        if bits & !0b1111 != 0 {
            return None;
        }
        Some(ProblemSet {
            reaching: bits & 0b0001 != 0,
            available: bits & 0b0010 != 0,
            busy: bits & 0b0100 != 0,
            reaching_refs: bits & 0b1000 != 0,
        })
    }
}

impl Default for ProblemSet {
    fn default() -> Self {
        Self::ALL
    }
}

/// One converged lattice value of a custom instance, stated structurally:
/// the tracked reference (by component index and generator site index) and
/// the flow-order input distance at a node. Bottom values are omitted from
/// reports, so every recorded value is a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomValue {
    /// Component index of the tracked reference ([`arrayflow_core::RefId`]).
    pub gen: u32,
    /// Site-table index of the generating reference.
    pub gen_site: u32,
    /// Flow-graph node the value holds at (flow-order input).
    pub node: u32,
    /// The converged distance.
    pub dist: Dist,
}

/// The converged facts of one user-specified (G, K) instance — the custom
/// counterpart of the canned report sections, and alpha-invariant like
/// them: component indices, site indices, node ids and distances only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomResult {
    /// The spec that was solved.
    pub spec: CustomSpec,
    /// Solver-effort counters of the instance.
    pub stats: SolveStats,
    /// Tracked components (`m = |G|` after dropping non-affine sites).
    pub width: usize,
    /// Every non-bottom converged input value, in (gen, node) order.
    pub values: Vec<CustomValue>,
}

/// The complete, cacheable analysis of one loop level.
///
/// Byte-identical across alpha-equivalent loops and across worker-thread
/// schedules; compare with `==` or via [`AnalysisReport::render`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Canonical fingerprint of the analyzed loop.
    pub fingerprint: Fingerprint,
    /// Which instances were run.
    pub problems: ProblemSet,
    /// `max_distance` bound used for dependence extraction.
    pub dep_max_distance: u64,
    /// Flow graph size (nodes).
    pub nodes: usize,
    /// Number of classified reference sites.
    pub sites: usize,
    /// Solver counters per [`CANNED`] row, in its order; `None` for rows
    /// not in `problems`.
    pub canned_stats: [Option<SolveStats>; 4],
    /// Guaranteed constant-distance reuse pairs (requires `available`).
    pub reuses: Vec<Reuse>,
    /// δ-redundant stores (requires `busy`).
    pub redundant_stores: Vec<RedundantStore>,
    /// Potential dependences up to `dep_max_distance` (requires
    /// `reaching_refs`).
    pub dependences: Vec<Dep>,
    /// The converged custom instance, when this report answers a `custom`
    /// request (`problems` is then [`ProblemSet::NONE`] and the canned
    /// sections are empty).
    pub custom: Option<CustomResult>,
}

impl AnalysisReport {
    /// Analyzes one normalized loop and distills the cacheable report.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalyzeError`] (e.g. the loop is not normalized).
    pub fn of_loop(
        l: &Loop,
        symbols: &SymbolTable,
        problems: ProblemSet,
        dep_max_distance: u64,
    ) -> Result<Self, AnalyzeError> {
        let fingerprint = arrayflow_ir::fingerprint_loop(l, symbols);
        Self::of_loop_ctrl(l, symbols, fingerprint, problems, dep_max_distance, None)
    }

    /// Like [`AnalysisReport::of_loop`], but polls `should_stop` between
    /// solver passes and yields [`AnalyzeError::Stopped`] — with the
    /// wasted pass count — instead of a report, and takes the loop's
    /// `fingerprint` (`fingerprint_loop(l, symbols)`) from a caller that
    /// has already computed it for its cache key. With `None` the result
    /// is identical to [`AnalysisReport::of_loop`].
    pub fn of_loop_ctrl(
        l: &Loop,
        symbols: &SymbolTable,
        fingerprint: Fingerprint,
        problems: ProblemSet,
        dep_max_distance: u64,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        // The full LoopAnalysis solves the three column families behind
        // all four instances; distill only what was asked for. The solver
        // is cheap (≤ 3 passes per family), so a finer-grained lazy scheme
        // is not worth the code.
        let a = LoopAnalysis::of_loop_ctrl(l, symbols, should_stop)?;
        let stopped = |_: Stopped| AnalyzeError::Stopped {
            passes: a.solved_passes(),
        };
        Self::distilled(
            fingerprint,
            &a,
            problems,
            dep_max_distance,
            None,
            should_stop,
        )
        .map_err(stopped)
    }

    /// Distills the cacheable report from an already-converged analysis.
    pub fn of_analysis(
        fingerprint: Fingerprint,
        a: &LoopAnalysis,
        problems: ProblemSet,
        dep_max_distance: u64,
    ) -> Self {
        Self::distilled(fingerprint, a, problems, dep_max_distance, None, None)
            .expect("no stop check installed")
    }

    /// The report of `a` with the lists of the sites on `arrays` (of every
    /// site when `None`, as [`AnalysisReport::of_analysis`]): its shape,
    /// the solver counters and the lists of the instances `problems` asks
    /// for. Every list entry relates two sites of one array, so the lists
    /// of a set of arrays are exactly those arrays' entries of the full
    /// lists. Polls `should_stop` once per array group of each list.
    pub fn distilled(
        fingerprint: Fingerprint,
        a: &LoopAnalysis,
        problems: ProblemSet,
        dep_max_distance: u64,
        arrays: Option<&[ArrayId]>,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, Stopped> {
        let (graph, sites, instances) = (&a.graph, &a.sites, a.instances());
        let mut report = Self {
            fingerprint,
            problems,
            dep_max_distance,
            nodes: graph.len(),
            sites: sites.len(),
            canned_stats: std::array::from_fn(|k| {
                let asked = problems.bits() >> k & 1 == 1;
                asked.then_some(instances[k].sol.stats)
            }),
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: None,
        };
        if problems.available {
            report.reuses = reuse_pairs(graph, sites, &a.available, arrays, should_stop)?;
        }
        if problems.busy {
            report.redundant_stores = redundant_stores(graph, sites, &a.busy, arrays, should_stop)?;
        }
        if problems.reaching_refs {
            let reach = &a.reaching_refs;
            report.dependences =
                dependences(graph, sites, reach, dep_max_distance, arrays, should_stop)?;
        }
        Ok(report)
    }

    /// The report of `new`, the analysis after an edit of `old` (this
    /// report's analysis) that touched only the `dirty` arrays, equal to
    /// [`AnalysisReport::distilled`] of all of `new` but for the fingerprint,
    /// which stays this report's for the caller to set. An untouched
    /// array keeps its entries, whose columns and sites the edit left
    /// unchanged, renumbered from the old site table onto the new one by
    /// `splice` and onto `new`'s δ-available columns; the dirty arrays
    /// are distilled afresh, and both merge back in site order. An
    /// untouched array has no site at the edited node, which is all
    /// `splice` does not map. Polls `should_stop` while distilling the
    /// dirty arrays.
    pub fn patched(
        &self,
        old: &LoopAnalysis,
        new: &LoopAnalysis,
        dirty: &[ArrayId],
        splice: &SiteSplice,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, Stopped> {
        let (fingerprint, problems) = (self.fingerprint, self.problems);
        let bound = self.dep_max_distance;
        let fresh = Self::distilled(fingerprint, new, problems, bound, Some(dirty), should_stop)?;
        let clean = |site: usize| !dirty.contains(&old.sites[site].array);
        // An untouched generator keeps its δ-available column, shifted
        // past the edited node's columns.
        let at_old = old.available.built.columns_at(&splice.old);
        let at_new = new.available.built.columns_at(&splice.new);
        let reuses = self.reuses.iter().filter(|r| clean(r.use_site)).map(|r| {
            let gen = match r.gen_site < splice.old.start {
                true => r.gen,
                false => RefId((r.gen.index() - at_old.len() + at_new.len()) as u32),
            };
            Reuse {
                use_site: splice.new_site(r.use_site),
                gen,
                gen_site: splice.new_site(r.gen_site),
                ..*r
            }
        });
        let stores = self.redundant_stores.iter();
        let stores = stores.filter(|s| clean(s.store_site)).map(|s| {
            let store_site = splice.new_site(s.store_site);
            RedundantStore {
                store_site,
                stmt: new.sites[store_site].stmt,
                killer_site: splice.new_site(s.killer_site),
                ..*s
            }
        });
        let deps = self.dependences.iter().filter(|d| clean(d.dst_site));
        let deps = deps.map(|d| Dep {
            src_site: splice.new_site(d.src_site),
            dst_site: splice.new_site(d.dst_site),
            ..*d
        });
        Ok(Self {
            reuses: merged(reuses, fresh.reuses, |r| r.use_site),
            redundant_stores: merged(stores, fresh.redundant_stores, |s| s.store_site),
            dependences: merged(deps, fresh.dependences, |d| d.dst_site),
            ..fresh
        })
    }

    /// Analyzes one normalized loop under a user-specified (G, K) spec and
    /// distills the cacheable report: empty canned sections, and the full
    /// non-bottom fixed point in [`AnalysisReport::custom`].
    ///
    /// # Errors
    ///
    /// Propagates [`AnalyzeError`] (e.g. the loop is not normalized).
    pub fn of_custom(
        l: &Loop,
        symbols: &SymbolTable,
        spec: CustomSpec,
        dep_max_distance: u64,
    ) -> Result<Self, AnalyzeError> {
        let fingerprint = arrayflow_ir::fingerprint_loop(l, symbols);
        Self::of_custom_ctrl(l, symbols, fingerprint, spec, dep_max_distance, None)
    }

    /// [`AnalysisReport::of_custom`] with a cooperative stop check and the
    /// loop's fingerprint (see [`AnalysisReport::of_loop_ctrl`]).
    pub fn of_custom_ctrl(
        l: &Loop,
        symbols: &SymbolTable,
        fingerprint: Fingerprint,
        spec: CustomSpec,
        dep_max_distance: u64,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        let (graph, sites, _) = prepare_loop(l, symbols)?;
        let instance = Instance::run(
            &graph,
            &sites,
            GK::of(spec),
            spec.direction,
            spec.mode,
            should_stop,
        )
        .map_err(|s| AnalyzeError::Stopped {
            passes: s.passes_completed as u64,
        })?;
        let mut values = Vec::new();
        for (gen_id, gen_site) in instance.gens() {
            for node in graph.node_ids() {
                let dist = instance.before(node, gen_id);
                if dist != Dist::Bottom {
                    values.push(CustomValue {
                        gen: gen_id.0,
                        gen_site: gen_site as u32,
                        node: node.0,
                        dist,
                    });
                }
            }
        }
        Ok(Self {
            fingerprint,
            problems: ProblemSet::NONE,
            dep_max_distance,
            nodes: graph.len(),
            sites: sites.len(),
            canned_stats: [None; 4],
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: Some(CustomResult {
                spec,
                stats: instance.sol.stats,
                width: instance.sol.width(),
                values,
            }),
        })
    }

    /// Instances reported, by [`CANNED`] name, with their counters (a
    /// custom instance reports under the name `custom`).
    pub fn instance_stats(&self) -> impl Iterator<Item = (&'static str, SolveStats)> + '_ {
        let canned = CANNED.iter().zip(self.canned_stats);
        let custom = ("custom", self.custom.as_ref().map(|c| c.stats));
        canned
            .map(|(&(name, _), s)| (name, s))
            .chain([custom])
            .filter_map(|(n, s)| Some((n, s?)))
    }

    /// Total node visits across the instances reported, in
    /// round-robin-equivalent terms: a selected instance's figures are
    /// those a fresh solve of it would report.
    pub fn node_visits(&self) -> usize {
        self.instance_stats()
            .map(|(_, s)| s.init_visits + s.iter_visits)
            .sum()
    }

    /// Total iteration passes across the instances reported, in the same
    /// terms as [`AnalysisReport::node_visits`].
    pub fn solver_passes(&self) -> usize {
        self.instance_stats().map(|(_, s)| s.passes).sum()
    }

    /// Renders the report as stable, name-free text. Two reports render
    /// identically iff they are equal — the determinism regression tests
    /// compare these bytes across thread counts and against the sequential
    /// driver. Numbers go straight into the buffer, sized up front for the
    /// report's lines.
    pub fn render(&self) -> String {
        let values = self.custom.as_ref().map_or(0, |c| c.values.len());
        let lines =
            6 + values + self.reuses.len() + self.redundant_stores.len() + self.dependences.len();
        let mut t = Text(String::with_capacity(48 * lines));
        t.s("loop fp=")
            .fingerprint(self.fingerprint)
            .s(" problems=0b");
        let bits = self.problems.bits();
        for k in (0..4).rev() {
            t.s(["0", "1"][usize::from(bits >> k & 1)]);
        }
        t.s(" maxdist=").n(self.dep_max_distance);
        t.s(" nodes=").n(self.nodes as u64);
        t.s(" sites=").n(self.sites as u64).s("\n");
        if let Some(c) = &self.custom {
            t.s("  custom spec=").s(&c.spec.label());
            t.s(" width=").n(c.width as u64).s("\n");
        }
        for (name, s) in self.instance_stats() {
            t.s("  solve ").s(name).s(": init=").n(s.init_visits as u64);
            t.s(" iter=").n(s.iter_visits as u64);
            t.s(" passes=").n(s.passes as u64);
            t.s(" changing=").n(s.changing_passes as u64).s("\n");
        }
        for v in self.custom.iter().flat_map(|c| &c.values) {
            t.s("  val gen=").n(v.gen.into());
            t.s(" site=").n(v.gen_site.into());
            t.s(" node=").n(v.node.into()).s(" dist=");
            match v.dist {
                Dist::Bottom => t.s("bot"),
                Dist::Fin(x) => t.n(x),
                Dist::Top => t.s("top"),
            }
            .s("\n");
        }
        for r in &self.reuses {
            t.s("  reuse use_site=").n(r.use_site as u64);
            t.s(" gen_site=").n(r.gen_site as u64);
            t.s(" dist=").n(r.distance);
            t.s(" gen_is_def=")
                .s(if r.gen_is_def { "true" } else { "false" });
            t.s("\n");
        }
        for s in &self.redundant_stores {
            t.s("  redundant_store site=").n(s.store_site as u64);
            t.s(" killer=").n(s.killer_site as u64);
            t.s(" dist=").n(s.distance).s("\n");
        }
        for d in &self.dependences {
            let kind = match d.kind {
                DepKind::Flow => "Flow",
                DepKind::Anti => "Anti",
                DepKind::Output => "Output",
            };
            t.s("  dep ").s(kind).s(" src=").n(d.src_site as u64);
            t.s(" dst=").n(d.dst_site as u64);
            t.s(" dist=").n(d.distance).s("\n");
        }
        t.0
    }
}

/// [`AnalysisReport::render`]'s output buffer: appends text and numbers
/// without a formatter call.
struct Text(String);

impl Text {
    fn s(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    /// Appends `n` in decimal.
    fn n(&mut self, n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut m = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        self.s(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
    }

    /// Appends the fingerprint as its 32 lower-case hex digits, as its
    /// `Display` does.
    fn fingerprint(&mut self, fingerprint: Fingerprint) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for k in (0..32).rev() {
            self.0
                .push(char::from(HEX[(fingerprint.0 >> (4 * k)) as usize & 0xf]));
        }
        self
    }
}

/// Merges two lists ascending by `key` that share no key.
fn merged<T>(kept: impl Iterator<Item = T>, fresh: Vec<T>, key: impl Fn(&T) -> usize) -> Vec<T> {
    let kept_at_most = kept.size_hint().1.unwrap_or(0);
    let mut out = Vec::with_capacity(kept_at_most + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for item in kept {
        while let Some(f) = fresh.next_if(|f| key(f) < key(&item)) {
            out.push(f);
        }
        out.push(item);
    }
    out.extend(fresh);
    out
}

/// Regenerates the paper's **Table 1** for a loop: the data flow tuples of
/// must-reaching definitions after the initialization pass and after each
/// iteration pass, at every node.
///
/// # Errors
///
/// Returns [`crate::AnalyzeError`] if the program is not a single
/// normalized loop.
pub fn render_table1(program: &arrayflow_ir::Program) -> Result<String, crate::AnalyzeError> {
    use arrayflow_core::{solve, solve_passes, CANNED};

    let l = program
        .sole_loop()
        .ok_or(crate::AnalyzeError::NotASingleLoop)?;
    let (graph, sites, symbols) = crate::prepare_loop(l, &program.symbols)?;
    let (_, reaching) = CANNED[0];
    let built = crate::spec::build_spec(
        &sites,
        crate::spec::GK::of(reaching),
        reaching.direction,
        reaching.mode,
    );
    // The state after initialization and after each iteration pass, up to
    // the confirming pass that changes nothing.
    let passes = solve(&graph, &built.spec, None)
        .expect("no stop check installed")
        .stats
        .passes;
    let snapshots = (0..=passes).map(|k| solve_passes(&graph, &built.spec, k));

    let headers: Vec<String> = built
        .spec
        .gens
        .iter()
        .map(|g| arrayflow_ir::pretty::ref_to_string(&symbols, &g.aref))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "tuples ({})", headers.join(", "));
    for (k, snapshot) in snapshots.enumerate() {
        let title = if k == 0 {
            "(i) initialization pass".to_string()
        } else {
            format!("(ii) pass {k}")
        };
        let _ = writeln!(out, "--- {title} ---");
        for node in graph.node_ids() {
            let label = graph.node(node).label(&symbols);
            let fmt_tuple = |v: &[Dist]| {
                let cells: Vec<String> = v.iter().map(|d| d.to_string()).collect();
                format!("({})", cells.join(", "))
            };
            let _ = writeln!(
                out,
                "IN [{node}] {:<22} OUT[{node}] {:<22} {label}",
                fmt_tuple(&snapshot.before_row(node)),
                fmt_tuple(&snapshot.after_row(node)),
            );
        }
    }
    Ok(out)
}

/// One-line summary of solver effort, e.g. `visits=21 (3 passes, N=7)`.
pub fn render_stats(inst: &Instance, graph: &LoopGraph) -> String {
    let s = &inst.sol.stats;
    format!(
        "init_visits={} iter_visits={} changing_passes={} visits_to_fix={} (N={})",
        s.init_visits,
        s.iter_visits,
        s.changing_passes,
        s.visits_to_fix(graph.len()),
        graph.len()
    )
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use arrayflow_workloads::{random_loop, LoopShape};

    use super::*;

    /// The stop-check polls distilling the three lists of the E16
    /// 512-statement loop takes: about one per array group of each list
    /// (64 arrays), evenly over its walk of the site table.
    const DISTILLATION_POLLS: usize = 189;

    #[test]
    fn render_table1_errors_on_non_loops() {
        let p = arrayflow_ir::parse_program("x := 1;").unwrap();
        assert!(render_table1(&p).is_err());
        let p2 = arrayflow_ir::parse_program("do i = 2, 9 A[i] := 0; end").unwrap();
        assert_eq!(
            render_table1(&p2).unwrap_err(),
            crate::AnalyzeError::NotNormalized
        );
    }

    /// Report distillation polls the stop check after the solver's last
    /// poll: on the E16 512-statement loop, a check that never fires is
    /// polled once per array group of each of the three lists, and yields
    /// `of_loop`'s report; a check that fires on its first poll past the
    /// solves yields `Stopped` with the solves' passes.
    #[test]
    fn distillation_polls_the_stop_check() {
        let shape = LoopShape {
            stmts: 512,
            arrays: 64,
            ..LoopShape::default()
        };
        let mut p = random_loop(&shape, 42);
        arrayflow_ir::normalize(&mut p);
        let (l, symbols) = (p.sole_loop().unwrap(), &p.symbols);
        let fingerprint = arrayflow_ir::fingerprint_loop(l, symbols);
        let report = |stop: StopCheck<'_>| {
            AnalysisReport::of_loop_ctrl(l, symbols, fingerprint, ProblemSet::ALL, 8, Some(stop))
        };
        let polls = Cell::new(0);
        let never = || {
            polls.set(polls.get() + 1);
            false
        };
        let analysis = LoopAnalysis::of_loop_ctrl(l, symbols, Some(&never)).unwrap();
        let solver_polls = polls.replace(0);
        let unstopped = report(&never).unwrap();
        assert_eq!(
            polls.get() - solver_polls,
            DISTILLATION_POLLS,
            "distillation polled {} times",
            polls.get() - solver_polls
        );
        let plain = AnalysisReport::of_loop(l, symbols, ProblemSet::ALL, 8).unwrap();
        assert_eq!(unstopped, plain);
        let polls = Cell::new(0);
        let past_the_solves = || {
            polls.set(polls.get() + 1);
            polls.get() > solver_polls
        };
        let passes = analysis.solved_passes();
        assert!(passes > 0);
        assert_eq!(
            report(&past_the_solves),
            Err(AnalyzeError::Stopped { passes })
        );
        assert_eq!(polls.get(), solver_polls + 1);
    }
}
