//! Cacheable, alpha-invariant analysis reports.
//!
//! A [`AnalysisReport`] is the *shareable* outcome of analyzing one loop:
//! every fact in it is stated in structural terms — site indices in
//! lexical order, tracked-reference indices, iteration distances, solver
//! visit counts — and never in terms of variable or array *names*. That is
//! what makes it sound to hand the same report to every loop with the same
//! canonical fingerprint: alpha-equivalent loops produce byte-identical
//! reports, so the memo cache can return one `Arc` for all of them.

use arrayflow_analyses::{
    dependences, prepare_loop, redundant_stores, reuse_pairs, AnalyzeError, Dep, DepKind, Instance,
    LoopAnalysis, RedundantStore, Reuse, GK,
};
use arrayflow_core::{CustomSpec, Dist, SolveStats, StopCheck, Stopped, CANNED};
use arrayflow_incremental::Session;
use arrayflow_ir::{Fingerprint, Loop, SymbolTable};

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
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        // The full LoopAnalysis solves the three column families behind
        // all four instances; distill only what was asked for. The solver
        // is cheap (≤ 3 passes per family), so a finer-grained lazy scheme
        // is not worth the code.
        let a = LoopAnalysis::of_loop_ctrl(l, symbols, should_stop)?;
        Self::distilled(fingerprint, &a, problems, dep_max_distance, should_stop).map_err(|_| {
            AnalyzeError::Stopped {
                passes: a.solved_passes(),
            }
        })
    }

    /// Distills the cacheable report from an already-converged analysis.
    pub fn of_analysis(
        fingerprint: Fingerprint,
        a: &LoopAnalysis,
        problems: ProblemSet,
        dep_max_distance: u64,
    ) -> Self {
        Self::distilled(fingerprint, a, problems, dep_max_distance, None)
            .expect("no stop check installed")
    }

    /// [`AnalysisReport::of_analysis`], polling `should_stop` once per
    /// array group of each list it distills.
    fn distilled(
        fingerprint: Fingerprint,
        a: &LoopAnalysis,
        problems: ProblemSet,
        dep_max_distance: u64,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, Stopped> {
        let mut report = Self::unlisted(fingerprint, a, problems, dep_max_distance);
        let (graph, sites) = (&a.graph, &a.sites);
        if problems.available {
            report.reuses = reuse_pairs(graph, sites, &a.available, None, should_stop)?;
        }
        if problems.busy {
            report.redundant_stores = redundant_stores(graph, sites, &a.busy, None, should_stop)?;
        }
        if problems.reaching_refs {
            let reach = &a.reaching_refs;
            report.dependences =
                dependences(graph, sites, reach, dep_max_distance, None, should_stop)?;
        }
        Ok(report)
    }

    /// The report of an open [`Session`]'s current analysis under
    /// [`ProblemSet::ALL`], from the report lists the session keeps
    /// current across edits instead of a fresh distillation — equal to
    /// [`AnalysisReport::of_analysis`] of the same analysis at the
    /// session's distance bound.
    pub fn of_session(session: &Session) -> Self {
        let lists = session.lists().clone();
        Self {
            reuses: lists.reuses,
            redundant_stores: lists.redundant_stores,
            dependences: lists.dependences,
            ..Self::unlisted(
                session.fingerprint(),
                session.analysis(),
                ProblemSet::ALL,
                session.dep_max_distance(),
            )
        }
    }

    /// The report of `a` with empty lists: its shape and the solver
    /// counters of the instances `problems` asks for.
    fn unlisted(
        fingerprint: Fingerprint,
        a: &LoopAnalysis,
        problems: ProblemSet,
        dep_max_distance: u64,
    ) -> Self {
        let instances = a.instances();
        Self {
            fingerprint,
            problems,
            dep_max_distance,
            nodes: a.graph.len(),
            sites: a.sites.len(),
            canned_stats: std::array::from_fn(|k| {
                let asked = problems.bits() >> k & 1 == 1;
                asked.then_some(instances[k].sol.stats)
            }),
            reuses: Vec::new(),
            redundant_stores: Vec::new(),
            dependences: Vec::new(),
            custom: None,
        }
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
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
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

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use arrayflow_workloads::{livermore_kernels, random_loop, LoopShape};

    use super::*;
    use crate::{Engine, EngineConfig, Problem};

    /// The formatter-based rendering [`AnalysisReport::render`] replaced:
    /// every line through `writeln!`, and a `String` per custom value.
    fn reference_render(r: &AnalysisReport) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loop fp={} problems={:#06b} maxdist={} nodes={} sites={}",
            r.fingerprint,
            r.problems.bits(),
            r.dep_max_distance,
            r.nodes,
            r.sites
        );
        if let Some(c) = &r.custom {
            let _ = writeln!(out, "  custom spec={} width={}", c.spec.label(), c.width);
        }
        for (name, s) in r.instance_stats() {
            let _ = writeln!(
                out,
                "  solve {name}: init={} iter={} passes={} changing={}",
                s.init_visits, s.iter_visits, s.passes, s.changing_passes
            );
        }
        if let Some(c) = &r.custom {
            for v in &c.values {
                let dist = match v.dist {
                    Dist::Bottom => "bot".to_string(),
                    Dist::Fin(x) => x.to_string(),
                    Dist::Top => "top".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  val gen={} site={} node={} dist={dist}",
                    v.gen, v.gen_site, v.node
                );
            }
        }
        for u in &r.reuses {
            let _ = writeln!(
                out,
                "  reuse use_site={} gen_site={} dist={} gen_is_def={}",
                u.use_site, u.gen_site, u.distance, u.gen_is_def
            );
        }
        for s in &r.redundant_stores {
            let _ = writeln!(
                out,
                "  redundant_store site={} killer={} dist={}",
                s.store_site, s.killer_site, s.distance
            );
        }
        for d in &r.dependences {
            let _ = writeln!(
                out,
                "  dep {:?} src={} dst={} dist={}",
                d.kind, d.src_site, d.dst_site, d.distance
            );
        }
        out
    }

    #[test]
    fn render_matches_the_formatter_reference() {
        let shapes = [
            LoopShape::default(),
            LoopShape {
                stmts: 24,
                arrays: 4,
                cond_pct: 35,
                ..LoopShape::default()
            },
        ];
        let mut programs: Vec<_> = (0..24)
            .map(|k| random_loop(&shapes[k % shapes.len()], k as u64))
            .collect();
        programs.extend(livermore_kernels(100).into_iter().map(|(_, p)| p));
        let problems = (0..=0b1111)
            .filter_map(ProblemSet::from_bits)
            .map(Problem::Canned);
        let specs = (0..=u8::MAX)
            .filter_map(CustomSpec::from_bits)
            .map(Problem::Custom);
        let queries: Vec<Problem> = problems.chain(specs).collect();
        let engine = Engine::new(EngineConfig::default());
        let mut lines = 0;
        for program in &programs {
            for &problem in &queries {
                for bound in [0, 8] {
                    let result = engine.solve(0, program.clone(), problem, bound, None);
                    assert!(result.error.is_none(), "{:?}", result.error);
                    for l in &result.loops {
                        let text = l.report.render();
                        assert_eq!(text, reference_render(&l.report));
                        lines += text.lines().count();
                    }
                }
            }
        }
        assert!(lines > 10_000, "the corpus rendered only {lines} lines");
    }

    /// Report distillation polls the stop check after the solver's last
    /// poll: on the E16 512-statement loop, a check that fires on its
    /// first poll past the solves yields `Stopped` with the solves'
    /// passes, and a check that never fires yields `of_loop`'s report.
    #[test]
    fn distillation_polls_the_stop_check() {
        use std::cell::Cell;

        let shape = LoopShape {
            stmts: 512,
            arrays: 64,
            ..LoopShape::default()
        };
        let mut p = random_loop(&shape, 42);
        arrayflow_ir::normalize(&mut p);
        p.renumber();
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
        assert!(polls.get() > solver_polls, "distillation never polled");
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
