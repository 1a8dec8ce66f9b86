//! One-call analysis drivers.

use std::fmt;
use std::sync::Arc;

use arrayflow_core::{canned_solves, canned_source, CustomSpec, Mode, CANNED};
use arrayflow_graph::{build_loop_graph, LoopGraph};
use arrayflow_ir::{Loop, Program, Stmt, SymbolTable};

use crate::instances::{
    dependences, redundant_stores, reuse_pairs, Dep, Instance, RedundantStore, Reuse,
};
use crate::sites::{enumerate_sites, Site};
use crate::spec::{build_spec, BuiltSpec, GK};

/// Errors from the analysis drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The program body is not a single `do` loop.
    NotASingleLoop,
    /// The target loop is not in normalized form (`do i = 1, UB` step 1);
    /// run [`arrayflow_ir::normalize()`] first.
    NotNormalized,
    /// A cooperative stop check fired mid-analysis (cancelled or expired
    /// request). Carries the solver passes completed before the analysis
    /// yielded, summed over the solves it ran — the wasted work.
    Stopped {
        /// Iteration passes executed before the stop was observed.
        passes: u64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::NotASingleLoop => {
                write!(f, "program body is not a single do-loop")
            }
            AnalyzeError::NotNormalized => {
                write!(f, "loop is not normalized (lower bound 1, step 1)")
            }
            AnalyzeError::Stopped { passes } => {
                write!(f, "analysis stopped after {passes} solver passes")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The complete analysis of one loop level: the flow graph, the classified
/// reference sites, and the four canned framework instances of
/// [`CANNED`], in its order. Three column families are solved, in two
/// solves: δ-available values and δ-reaching references are the same rows
/// in must and may mode, solved together, and δ-busy stores on their own.
/// Reaching definitions select their columns from δ-available values
/// ([`canned_source`]).
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Symbol table extended with linearization stride symbols, shared
    /// with the analyses of edits that leave it unchanged.
    pub symbols: Arc<SymbolTable>,
    /// The loop flow graph.
    pub graph: LoopGraph,
    /// Classified reference sites.
    pub sites: Vec<Site>,
    /// Must-reaching definitions (§3.5).
    pub reaching: Instance,
    /// δ-available values (§4.1.1).
    pub available: Instance,
    /// δ-busy stores — backward must (§4.2.1).
    pub busy: Instance,
    /// δ-reaching references — may (§4.3).
    pub reaching_refs: Instance,
}

/// What every analysis of a loop starts from: the normalized-form check,
/// the flow graph, the classified sites, and the symbol table extended
/// with linearization strides.
///
/// # Errors
///
/// Returns [`AnalyzeError::NotNormalized`] unless the loop is in
/// `do i = 1, UB` step-1 form.
pub fn prepare_loop(
    l: &Loop,
    symbols: &SymbolTable,
) -> Result<(LoopGraph, Vec<Site>, SymbolTable), AnalyzeError> {
    if !l.is_normalized() {
        return Err(AnalyzeError::NotNormalized);
    }
    let graph = build_loop_graph(l);
    let (sites, lin) = enumerate_sites(l, &graph, symbols);
    Ok((graph, sites, lin.symbols.into_owned()))
}

impl LoopAnalysis {
    /// Analyzes one normalized loop.
    pub fn of_loop(l: &Loop, symbols: &SymbolTable) -> Result<Self, AnalyzeError> {
        Self::of_loop_ctrl(l, symbols, None)
    }

    /// Like [`LoopAnalysis::of_loop`], but polls `should_stop` between
    /// solver passes of each solved column family — δ-available values,
    /// δ-reaching references, then δ-busy stores — and yields
    /// [`AnalyzeError::Stopped`] — carrying the iteration passes already
    /// spent, summed over the families — as soon as it returns `true`.
    /// With `None` the result is identical to [`LoopAnalysis::of_loop`].
    pub fn of_loop_ctrl(
        l: &Loop,
        symbols: &SymbolTable,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        let (graph, sites, symbols) = prepare_loop(l, symbols)?;
        let mut spent: u64 = 0;
        let build = |sites: &[Site], _, spec: CustomSpec| {
            build_spec(sites, GK::of(spec), spec.direction, spec.mode)
        };
        Self::assemble(
            symbols.into(),
            graph,
            sites,
            build,
            |graph, _, rows, built| {
                let modes: Vec<Mode> = rows.iter().map(|&k| CANNED[k].1.mode).collect();
                let gk = GK::of(CANNED[rows[0]].1);
                let solved =
                    Instance::of_modes(graph, gk, built, &modes, should_stop).map_err(|s| {
                        AnalyzeError::Stopped {
                            passes: spent + s.passes_completed as u64,
                        }
                    })?;
                spent += solved
                    .iter()
                    .map(|i| i.sol.stats.passes as u64)
                    .sum::<u64>();
                Ok(solved)
            },
        )
    }

    /// Builds the analysis of a prepared loop. The [`CANNED`] rows that
    /// are their own [`canned_source`] — one per column family — are
    /// solved in [`canned_solves`]' groups: the families of one roles and
    /// direction (δ-available values and δ-reaching references differ
    /// only in mode) share their spec rows and one solve. In that order —
    /// the forward pair, then δ-busy stores — `build` supplies the spec
    /// rows given the site table, the group's first row and its spec, and
    /// `solve` solves them in the mode of each row of the group, one
    /// instance per row in order. Every other row selects its columns from
    /// its source's instance ([`Instance::select`]).
    pub fn assemble(
        symbols: Arc<SymbolTable>,
        graph: LoopGraph,
        sites: Vec<Site>,
        mut build: impl FnMut(&[Site], usize, CustomSpec) -> BuiltSpec,
        mut solve: impl FnMut(
            &LoopGraph,
            &[Site],
            &[usize],
            BuiltSpec,
        ) -> Result<Vec<Instance>, AnalyzeError>,
    ) -> Result<Self, AnalyzeError> {
        let mut rows: [Option<Instance>; 4] = Default::default();
        for group in canned_solves() {
            let built = build(&sites, group[0], CANNED[group[0]].1);
            for (&k, solved) in group.iter().zip(solve(&graph, &sites, &group, built)?) {
                rows[k] = Some(solved);
            }
        }
        let mut selected: [Option<Instance>; 4] = std::array::from_fn(|k| {
            let source = rows[canned_source(k)].as_ref()?;
            (canned_source(k) != k).then(|| source.select(&graph, GK::of(CANNED[k].1)))
        });
        let [reaching, available, busy, reaching_refs] =
            std::array::from_fn(|k| rows[k].take().or(selected[k].take()).expect("every row"));
        Ok(Self {
            symbols,
            graph,
            sites,
            reaching,
            available,
            busy,
            reaching_refs,
        })
    }

    /// The four instances in [`CANNED`] order.
    pub fn instances(&self) -> [&Instance; 4] {
        [
            &self.reaching,
            &self.available,
            &self.busy,
            &self.reaching_refs,
        ]
    }

    /// Iteration passes the solves of the three column families spent:
    /// what an analysis stopped after its last solve has wasted.
    pub fn solved_passes(&self) -> u64 {
        let instances = self.instances();
        (0..CANNED.len())
            .filter(|&k| canned_source(k) == k)
            .map(|k| instances[k].sol.stats.passes as u64)
            .sum()
    }

    /// All guaranteed constant-distance reuse pairs (§4.1.1).
    pub fn reuse_pairs(&self) -> Vec<Reuse> {
        reuse_pairs(&self.graph, &self.sites, &self.available, None, None)
            .expect("no stop check installed")
    }

    /// All δ-redundant stores (§4.2.1).
    pub fn redundant_stores(&self) -> Vec<RedundantStore> {
        redundant_stores(&self.graph, &self.sites, &self.busy, None, None)
            .expect("no stop check installed")
    }

    /// All potential dependences with distance at most `max_distance`
    /// (§4.3).
    pub fn dependences(&self, max_distance: u64) -> Vec<Dep> {
        dependences(
            &self.graph,
            &self.sites,
            &self.reaching_refs,
            max_distance,
            None,
            None,
        )
        .expect("no stop check installed")
    }

    /// Renders a site as source text, e.g. `A[i + 2]`.
    pub fn site_text(&self, site: usize) -> String {
        self.site_text_of_ref(&self.sites[site].aref)
    }

    /// Renders an arbitrary array reference with this analysis' symbols.
    pub fn site_text_of_ref(&self, aref: &arrayflow_ir::ArrayRef) -> String {
        arrayflow_ir::pretty::ref_to_string(&self.symbols, aref)
    }

    /// Renders a tracked generating reference.
    pub fn site_text_of(&self, gen: &arrayflow_core::GenRef) -> String {
        self.site_text_of_ref(&gen.aref)
    }
}

/// Analyzes the outermost loop of a single-loop program.
///
/// # Errors
///
/// Returns [`AnalyzeError::NotASingleLoop`] unless the program body is one
/// `do` loop, and [`AnalyzeError::NotNormalized`] if normalization is
/// needed first.
///
/// # Example
///
/// ```
/// let p = arrayflow_ir::parse_program(
///     "do i = 1, 100 A[i+2] := A[i] + x; end").unwrap();
/// let a = arrayflow_analyses::analyze_loop(&p).unwrap();
/// let reuses = a.reuse_pairs();
/// assert_eq!(reuses.len(), 1);
/// assert_eq!(reuses[0].distance, 2);
/// ```
pub fn analyze_loop(program: &Program) -> Result<LoopAnalysis, AnalyzeError> {
    let l = program.sole_loop().ok_or(AnalyzeError::NotASingleLoop)?;
    LoopAnalysis::of_loop(l, &program.symbols)
}

/// Every loop of a (possibly nested) program, innermost first — the
/// hierarchical analysis order of §3.2. Deeper loops come before the loops
/// enclosing them, so by the time an enclosing loop is analyzed (with its
/// inner loops as summary nodes) the inner results already exist; the batch
/// engine relies on this order to warm its memo cache bottom-up.
pub fn loops_innermost_first(program: &Program) -> Vec<&Loop> {
    let mut loops: Vec<&Loop> = Vec::new();
    fn collect<'a>(body: &'a [Stmt], out: &mut Vec<&'a Loop>) {
        for stmt in body {
            match stmt {
                Stmt::Do(l) => {
                    collect(&l.body, out);
                    out.push(l);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    collect(then_blk, out);
                    collect(else_blk, out);
                }
                Stmt::Assign(_) => {}
            }
        }
    }
    collect(&program.body, &mut loops);
    loops
}

/// Analyzes every loop of a (possibly nested) program, innermost first —
/// the hierarchical scheme of §3.2. Each returned analysis is with respect
/// to that loop's own induction variable, with deeper loops summarized.
pub fn analyze_nest(program: &Program) -> Result<Vec<LoopAnalysis>, AnalyzeError> {
    loops_innermost_first(program)
        .into_iter()
        .map(|l| LoopAnalysis::of_loop(l, &program.symbols))
        .collect()
}
