//! One analysis session: cached fixed point plus delta re-convergence.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use arrayflow_analyses::instances::Instance;
use arrayflow_analyses::sites::{enumerate_sites, splice_sites, Site, SiteSplice};
use arrayflow_analyses::spec::{build_spec, BuiltSpec, GK};
use arrayflow_analyses::{AnalysisReport, AnalyzeError, LoopAnalysis, ProblemSet};
use arrayflow_core::{
    solve_modes, CustomSpec, GenRef, Mode, ProblemSpec, RefId, Solution, StopCheck, Stopped, CANNED,
};
use arrayflow_graph::{build_loop_graph, LoopGraph, NodeId, NodeKind};
use arrayflow_ir::{
    apply_edit, is_normal_form, normalize, parse_stmt_with, ArrayId, Assign, Edit, EditError,
    Fingerprint, LValue, Program, Stmt, StmtId, SymbolTable, Tape,
};

/// Why a delta could not be applied. The session is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The edit itself was invalid (parse error, unknown statement id).
    Edit(EditError),
    /// The edited program is no longer analyzable.
    Analyze(AnalyzeError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Edit(e) => write!(f, "{e}"),
            DeltaError::Analyze(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<EditError> for DeltaError {
    fn from(e: EditError) -> Self {
        DeltaError::Edit(e)
    }
}

impl From<AnalyzeError> for DeltaError {
    fn from(e: AnalyzeError) -> Self {
        DeltaError::Analyze(e)
    }
}

/// What one [`Session::apply`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// True when the edit forced a full re-analysis instead of the
    /// incremental column re-solve.
    pub fallback: bool,
    /// Dirty columns across the four reported instances (0 on fallback):
    /// the re-solved columns of each solved family, and for reaching
    /// definitions the columns whose δ-available column was re-solved.
    pub dirty_columns: usize,
    /// Total columns across the four reported instances after the edit.
    pub total_columns: usize,
    /// Node visits the narrowed solves of the three column families
    /// spent, in round-robin-equivalent terms (`(init + passes) · nodes`
    /// summed over solves); on fallback, the same figure as
    /// `full_solver_visits`.
    pub solver_visits: usize,
    /// Node visits fresh round-robin solves of the four reported
    /// instances would have spent (`(init + passes) · nodes` summed over
    /// instances).
    pub full_solver_visits: usize,
}

/// An open analysis session: the edited-to-date program, its converged
/// analysis state and the report distilled from it.
#[derive(Debug, Clone)]
pub struct Session {
    /// The program as submitted plus all applied edits, renumbered, when
    /// normalization rewrote one of its loops; `None` when normalizing
    /// leaves it as it is, and `norm` is that program.
    raw: Option<Program>,
    /// Normalized + renumbered form of the source program.
    norm: Program,
    /// The canonical walk of the normalized sole loop, recorded: an edit
    /// re-records one assignment's segment and replays it.
    tape: Tape,
    /// The converged analysis of the normalized loop; each instance's
    /// solution carries its column profile.
    analysis: LoopAnalysis,
    /// The report of `analysis` under [`ProblemSet::ALL`]: the loop's
    /// fingerprint, the dependence distance bound and the lists an edit
    /// patches.
    report: Arc<AnalysisReport>,
}

/// A normalized program's sole loop recorded, its analysis, and its
/// report at `dep_max_distance`.
fn analyze_norm_ctrl(
    norm: &Program,
    dep_max_distance: u64,
    should_stop: Option<StopCheck<'_>>,
) -> Result<(Tape, LoopAnalysis, Arc<AnalysisReport>), AnalyzeError> {
    let l = norm.sole_loop().ok_or(AnalyzeError::NotASingleLoop)?;
    let analysis = LoopAnalysis::of_loop_ctrl(l, &norm.symbols, should_stop)?;
    let mut tape = Tape::of_loop(l);
    let fingerprint = tape.fingerprint(&norm.symbols);
    let (all, bound) = (ProblemSet::ALL, dep_max_distance);
    let stopped = |_: Stopped| AnalyzeError::Stopped {
        passes: analysis.solved_passes(),
    };
    let report = AnalysisReport::distilled(fingerprint, &analysis, all, bound, None, should_stop);
    let report = Arc::new(report.map_err(stopped)?);
    Ok((tape, analysis, report))
}

/// The renumbered program and its normalized form, `None` for the
/// normalized form when normalization leaves the program as it is.
fn normalized(mut program: Program) -> (Program, Option<Program>) {
    program.renumber();
    if is_normal_form(&program) {
        return (program, None);
    }
    let mut norm = program.clone();
    normalize(&mut norm);
    (norm, Some(program))
}

fn find_assign_mut(block: &mut [Stmt], id: StmtId) -> Option<&mut Assign> {
    for stmt in block {
        let found = match stmt {
            Stmt::Assign(a) if a.id == id => return Some(a),
            Stmt::Assign(_) => None,
            Stmt::If {
                then_blk, else_blk, ..
            } => find_assign_mut(then_blk, id).or_else(|| find_assign_mut(else_blk, id)),
            Stmt::Do(l) => find_assign_mut(&mut l.body, id),
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

/// An assignment replaced in place in a stored program, put back when
/// dropped unless kept: an apply that fails, is stopped or panics leaves
/// the program as it was.
struct Landed<'p> {
    program: &'p mut Program,
    stmt: StmtId,
    /// The replaced assignment, and the symbol table from before the edit
    /// when the edit interned new names.
    undo: Option<(Assign, Option<SymbolTable>)>,
}

impl<'p> Landed<'p> {
    /// Replaces the assignment with `assign`'s id by `assign`, and the
    /// symbol table by `symbols` when given.
    fn new(program: &'p mut Program, assign: Assign, symbols: Option<SymbolTable>) -> Self {
        let stmt = assign.id;
        let slot = find_assign_mut(&mut program.body, stmt).expect("the edited assignment exists");
        let replaced = std::mem::replace(slot, assign);
        let symbols = symbols.map(|s| std::mem::replace(&mut program.symbols, s));
        Landed {
            program,
            stmt,
            undo: Some((replaced, symbols)),
        }
    }

    fn keep(mut self) {
        self.undo = None;
    }
}

impl Deref for Landed<'_> {
    type Target = Program;

    fn deref(&self) -> &Program {
        self.program
    }
}

impl Drop for Landed<'_> {
    fn drop(&mut self) {
        if let Some((assign, symbols)) = self.undo.take() {
            *find_assign_mut(&mut self.program.body, self.stmt).expect("landed") = assign;
            if let Some(symbols) = symbols {
                self.program.symbols = symbols;
            }
        }
    }
}

/// True for a node carrying an assignment to an array element.
fn writes_array(graph: &LoopGraph, node: NodeId) -> bool {
    matches!(&graph.node(node).kind,
        NodeKind::Assign { assign, .. } if matches!(assign.lhs, LValue::Elem(_)))
}

/// A fast-path re-convergence: the analysis after the edit, and what
/// patching the report needs to know about it.
struct Resolved {
    analysis: LoopAnalysis,
    /// Arrays the old or new statement references, sorted.
    dirty_arrays: Vec<ArrayId>,
    /// The edited node's sites in the old site table and in the new one.
    splice: SiteSplice,
    outcome: DeltaOutcome,
    /// Iteration passes the narrowed solves spent.
    passes: u64,
}

/// Re-converges `old`, the analysis of the loop before node `en`'s
/// assignment became `assign`, over `norm`, the edited program, and
/// re-solves only the dirty columns. When `same` (the edit interned no
/// name), the graph shares every other node with `old`'s and the edited
/// node's sites and spec rows are spliced in where the edited references
/// allow it (see [`splice_sites`]). Otherwise the edit may have shifted
/// symbol numbers anywhere, and the graph, every site and every spec row
/// are built afresh.
fn resolve(
    old: &LoopAnalysis,
    norm: &Program,
    en: NodeId,
    assign: Assign,
    same: bool,
    should_stop: Option<StopCheck<'_>>,
) -> Result<Resolved, AnalyzeError> {
    let l = norm.sole_loop().expect("a session's program is one loop");
    let graph = match same {
        true => {
            let mut graph = old.graph.clone();
            graph.replace_assign(en, assign);
            graph
        }
        false => build_loop_graph(l),
    };
    let spliced = match same {
        true => splice_sites(l, &graph, &old.symbols, &old.sites, en),
        false => None,
    };
    let (sites, symbols, spliced) = match spliced {
        Some(sites) => (sites, Arc::clone(&old.symbols), true),
        None => {
            let (sites, lin) = enumerate_sites(l, &graph, &norm.symbols);
            (sites, Arc::new(lin.symbols.into_owned()), false)
        }
    };
    // The edited node's sites occupy one contiguous range of the site
    // table; everything after it shifts by the site-count delta.
    let splice = SiteSplice::of(&old.sites, &sites, en);
    let touched = old.sites[splice.old.clone()].iter();
    let touched = touched.chain(&sites[splice.new.clone()]);
    let mut dirty_arrays: Vec<ArrayId> = touched.map(|s| s.array).collect();
    dirty_arrays.sort_unstable();
    dirty_arrays.dedup();

    // A column is re-solved exactly when its site is on the edited node
    // or on an array the edit touches, whichever family it belongs to.
    let dirty = |sites: &[Site], site: usize| {
        splice.new.contains(&site) || dirty_arrays.binary_search(&sites[site].array).is_ok()
    };

    let mut outcome = DeltaOutcome::default();
    let mut spent_passes: u64 = 0;
    let build = |sites: &[Site], k: usize, spec: CustomSpec| match spliced {
        true => old.instances()[k]
            .built
            .spliced(sites, GK::of(spec), &splice),
        false => build_spec(sites, GK::of(spec), spec.direction, spec.mode),
    };
    let resolve = |graph: &LoopGraph, sites: &[Site], rows: &[usize], built: BuiltSpec| {
        // The rows are the families solved together: one classification
        // of the columns and one narrowed solve serve them all.
        let old_rows = old.instances()[rows[0]];
        // A clean column's index in the old solution: the edited node's
        // columns are the only ones added or removed.
        let at_old = old_rows.built.columns_at(&splice.old);
        let at_new = built.columns_at(&splice.new);
        let old_col = |c: usize| match c < at_new.start {
            true => c,
            false => c - at_new.len() + at_old.len(),
        };

        // Classify each new column: clean columns name the old column
        // they splice from, dirty ones are re-solved as the columns of
        // a narrowed spec. A column's array is its site's.
        let mut gens: Vec<GenRef> = Vec::new();
        let mut arrays: Vec<ArrayId> = Vec::new();
        let mut columns: Vec<(bool, usize)> = Vec::with_capacity(built.spec.width());
        let spec_rows = built.spec.gens.iter().zip(built.gen_site.iter());
        for (c, (gen, &site)) in spec_rows.enumerate() {
            match dirty(sites, site) {
                false => {
                    let oc = old_col(c);
                    debug_assert_eq!(Some(old_rows.built.gen_site[oc]), splice.old_site(site));
                    columns.push((false, oc));
                }
                true => {
                    let id = RefId(gens.len() as u32);
                    columns.push((true, id.index()));
                    gens.push(GenRef { id, ..gen.clone() });
                    arrays.push(sites[site].array);
                }
            }
        }
        // A column sees only its own array's kills: keep the arrays of
        // the dirty columns.
        arrays.sort_unstable();
        arrays.dedup();
        let kills = built.spec.kills.iter();
        let kills = kills.filter(|k| arrays.binary_search(&k.array).is_ok());
        let narrow = ProblemSpec {
            direction: built.spec.direction,
            mode: built.spec.mode,
            gens: Arc::new(gens),
            kills: Arc::new(kills.cloned().collect()),
        };

        // Re-converge the dirtied columns in every family's mode at once,
        // then splice every column, re-solved or clean, into each
        // family's new solution.
        let modes: Vec<Mode> = rows.iter().map(|&k| CANNED[k].1.mode).collect();
        let dirty = solve_modes(graph, &narrow, &modes, should_stop).map_err(|s| {
            AnalyzeError::Stopped {
                passes: spent_passes + s.passes_completed as u64,
            }
        })?;
        let mut solved = Vec::with_capacity(rows.len());
        for (&k, dirty) in rows.iter().zip(&dirty) {
            spent_passes += dirty.stats.passes as u64;
            outcome.solver_visits += dirty.stats.init_visits + dirty.stats.iter_visits;
            let (old, mode) = (old.instances()[k], CANNED[k].1.mode);
            let sol = Solution::splice(
                graph.len(),
                mode,
                columns.iter().map(|&(is_dirty, c)| match is_dirty {
                    true => (dirty, c),
                    false => (&old.sol, c),
                }),
            );
            solved.push(Instance {
                gk: GK::of(CANNED[k].1),
                built: built.with_mode(mode),
                sol,
            });
        }
        Ok(solved)
    };
    let analysis = LoopAnalysis::assemble(symbols, graph, sites, build, resolve)?;
    for inst in analysis.instances() {
        let gen_sites = inst.built.gen_site.iter();
        outcome.dirty_columns += gen_sites.filter(|&&s| dirty(&analysis.sites, s)).count();
        outcome.total_columns += inst.sol.width();
        outcome.full_solver_visits += inst.sol.stats.init_visits + inst.sol.stats.iter_visits;
    }
    Ok(Resolved {
        analysis,
        dirty_arrays,
        splice,
        outcome,
        passes: spent_passes,
    })
}

impl Session {
    /// Opens a session over a parsed program: normalizes, renumbers, runs
    /// the full analysis once and distills its report, reporting
    /// dependences up to `dep_max_distance`.
    pub fn open(program: Program, dep_max_distance: u64) -> Result<Self, AnalyzeError> {
        Self::open_ctrl(program, dep_max_distance, None)
    }

    /// Like [`Session::open`], but polls `should_stop` between solver
    /// passes and yields [`AnalyzeError::Stopped`] without constructing
    /// the session — nothing is retained from a cancelled open. With
    /// `None` the result is identical to [`Session::open`].
    pub fn open_ctrl(
        program: Program,
        dep_max_distance: u64,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        let (norm, raw) = normalized(program);
        let (tape, analysis, report) = analyze_norm_ctrl(&norm, dep_max_distance, should_stop)?;
        Ok(Self {
            raw,
            norm,
            tape,
            analysis,
            report,
        })
    }

    /// The canonical fingerprint of the current (edited-to-date) loop.
    pub fn fingerprint(&self) -> Fingerprint {
        self.report.fingerprint
    }

    /// The recorded canonical walk of the current loop, which
    /// [`Session::fingerprint`] replays.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// The converged analysis of the current loop.
    pub fn analysis(&self) -> &LoopAnalysis {
        &self.analysis
    }

    /// The report of the current analysis under [`ProblemSet::ALL`], at
    /// the distance bound the session was opened with: the allocation an
    /// engine hands out and memoizes.
    pub fn report(&self) -> &Arc<AnalysisReport> {
        &self.report
    }

    /// The current normalized program.
    pub fn program(&self) -> &Program {
        &self.norm
    }

    /// The program as submitted plus all applied edits (not normalized).
    pub fn source_program(&self) -> &Program {
        self.raw.as_ref().unwrap_or(&self.norm)
    }

    /// Applies one single-statement edit and re-converges.
    ///
    /// On success the session state is byte-identical to what
    /// [`Session::open`] would produce for the edited program; the outcome
    /// says whether the incremental path was taken and how much solver
    /// work it spent. On error the session is unchanged.
    pub fn apply(&mut self, edit: &Edit) -> Result<DeltaOutcome, DeltaError> {
        self.apply_ctrl(edit, None)
    }

    /// Like [`Session::apply`], but polls `should_stop` between solver
    /// passes and per array of the report lists it re-distills. A stopped
    /// apply yields [`AnalyzeError::Stopped`] (wrapped in
    /// [`DeltaError::Analyze`]) and leaves the session byte-identical to
    /// its pre-edit state, report included — exactly like any other failed
    /// apply.
    ///
    /// On the incremental path the edit lands in the stored program in
    /// place (and is put back if the apply fails), and the new analysis
    /// shares everything the edit leaves unchanged with the old one.
    pub fn apply_ctrl(
        &mut self,
        edit: &Edit,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<DeltaOutcome, DeltaError> {
        let source = &self.source_program().symbols;
        let (stmt, symbols) = parse_stmt_with(source, &edit.text).map_err(EditError::from)?;
        let same = symbols.is_none();
        // The incremental path replaces an array assignment of the loop
        // body by another. A scalar assignment appearing or disappearing
        // changes the scalar environment that site classification depends
        // on — for *every* site, not just the edited node's — and any
        // other edit changes the loop's structure: both fall back.
        let graph = &self.analysis.graph;
        let en = graph
            .assign_node(edit.stmt)
            .filter(|&en| writes_array(graph, en));
        let (Some(en), Stmt::Assign(mut assign)) = (en, stmt) else {
            return self.rebuild(edit, should_stop);
        };
        if !matches!(assign.lhs, LValue::Elem(_)) {
            return self.rebuild(edit, should_stop);
        }
        // Assignment-for-assignment replacement keeps every statement id.
        assign.id = edit.stmt;

        // ---- Fast path: land the edit, patch the graph, re-solve dirty
        // columns. ----
        let (landed, renormalized) = match &mut self.raw {
            None => (Landed::new(&mut self.norm, assign.clone(), symbols), None),
            Some(raw) => {
                // A source loop normalization rewrites is normalized
                // afresh, from a copy.
                let landed = Landed::new(raw, assign.clone(), symbols);
                let mut norm = Program::clone(&landed);
                normalize(&mut norm);
                let normalized = find_assign_mut(&mut norm.body, edit.stmt);
                assign = normalized.expect("normalization keeps ids").clone();
                (landed, Some(norm))
            }
        };
        let norm = renormalized.as_ref().unwrap_or(&*landed);
        let resolved = resolve(&self.analysis, norm, en, assign, same, should_stop)?;
        let (old, new, splice) = (&self.analysis, &resolved.analysis, &resolved.splice);
        let dirty = &resolved.dirty_arrays;
        let report = AnalysisReport::patched(&self.report, old, new, dirty, splice, should_stop);
        let report = report.map_err(|_| AnalyzeError::Stopped {
            passes: resolved.passes,
        })?;
        // Nothing fails from here on. An edit that interned a name may
        // have moved the normalized program's symbol numbers: record its
        // loop afresh; otherwise re-record the edited assignment alone.
        match (same, &resolved.analysis.graph.node(en).kind) {
            (true, NodeKind::Assign { assign, .. }) => self.tape.rerecord(assign),
            _ => self.tape = Tape::of_loop(norm.sole_loop().expect("one loop")),
        }
        let fingerprint = self.tape.fingerprint(&norm.symbols);
        landed.keep();
        if let Some(norm) = renormalized {
            self.norm = norm;
        }
        self.analysis = resolved.analysis;
        self.report = Arc::new(AnalysisReport {
            fingerprint,
            ..report
        });
        Ok(resolved.outcome)
    }

    /// Full re-analysis fallback: rebuild everything from the edited
    /// program, recording that the incremental path was not taken.
    fn rebuild(
        &mut self,
        edit: &Edit,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<DeltaOutcome, DeltaError> {
        let mut source = self.source_program().clone();
        apply_edit(&mut source, edit)?;
        let (norm, raw) = normalized(source);
        let bound = self.report.dep_max_distance;
        let (tape, analysis, report) = analyze_norm_ctrl(&norm, bound, should_stop)?;
        let mut outcome = DeltaOutcome {
            fallback: true,
            ..DeltaOutcome::default()
        };
        for inst in analysis.instances() {
            outcome.total_columns += inst.sol.width();
            outcome.solver_visits += inst.sol.stats.init_visits + inst.sol.stats.iter_visits;
        }
        outcome.full_solver_visits = outcome.solver_visits;
        self.raw = raw;
        self.norm = norm;
        self.tape = tape;
        self.analysis = analysis;
        self.report = report;
        Ok(outcome)
    }
}
