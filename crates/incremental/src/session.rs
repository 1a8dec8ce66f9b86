//! One analysis session: cached fixed point plus delta re-convergence.

use std::collections::{HashMap, HashSet};
use std::fmt;

use arrayflow_analyses::instances::Instance;
use arrayflow_analyses::sites::{enumerate_sites, Site};
use arrayflow_analyses::spec::{build_spec, GK};
use arrayflow_analyses::{AnalyzeError, LoopAnalysis};
use arrayflow_core::{
    canned_source, solve, CustomSpec, GenRef, ProblemSpec, RefId, Solution, StopCheck, CANNED,
};
use arrayflow_graph::LoopGraph;
use arrayflow_ir::{
    apply_edit, fingerprint_loop, normalize, Assign, Edit, EditError, EditShape, Fingerprint,
    LValue, Program, Stmt, StmtId,
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

/// An open analysis session: the edited-to-date program and its converged
/// analysis state.
#[derive(Debug, Clone)]
pub struct Session {
    /// The program as submitted plus all applied edits, renumbered.
    raw: Program,
    /// Normalized + renumbered form of `raw`.
    norm: Program,
    /// Canonical fingerprint of the normalized sole loop.
    fingerprint: Fingerprint,
    /// The converged analysis of the normalized loop; each instance's
    /// solution carries its column profile.
    analysis: LoopAnalysis,
    /// Edits applied so far.
    edits: u64,
    /// Edits that fell back to a full re-analysis.
    fallbacks: u64,
}

fn analyze_norm_ctrl(
    norm: &Program,
    should_stop: Option<StopCheck<'_>>,
) -> Result<(Fingerprint, LoopAnalysis), AnalyzeError> {
    let l = norm.sole_loop().ok_or(AnalyzeError::NotASingleLoop)?;
    let analysis = LoopAnalysis::of_loop_ctrl(l, &norm.symbols, should_stop)?;
    Ok((fingerprint_loop(l, &norm.symbols), analysis))
}

/// Arrays an assignment's reference sites touch (as generator or kill).
fn touched_arrays(assign: &Assign) -> HashSet<arrayflow_ir::ArrayId> {
    use arrayflow_graph::ref_sites_of;
    ref_sites_of(&Stmt::Assign(assign.clone()))
        .iter()
        .map(|r| r.aref.array)
        .collect()
}

fn find_assign(block: &[Stmt], id: StmtId) -> Option<&Assign> {
    for stmt in block {
        match stmt {
            Stmt::Assign(a) if a.id == id => return Some(a),
            Stmt::Assign(_) => {}
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                if let Some(a) = find_assign(then_blk, id).or_else(|| find_assign(else_blk, id)) {
                    return Some(a);
                }
            }
            Stmt::Do(l) => {
                if let Some(a) = find_assign(&l.body, id) {
                    return Some(a);
                }
            }
        }
    }
    None
}

impl Session {
    /// Opens a session over a parsed program: normalizes, renumbers and
    /// runs the full analysis once.
    pub fn open(program: Program) -> Result<Self, AnalyzeError> {
        Self::open_ctrl(program, None)
    }

    /// Like [`Session::open`], but polls `should_stop` between solver
    /// passes and yields [`AnalyzeError::Stopped`] without constructing
    /// the session — nothing is retained from a cancelled open. With
    /// `None` the result is identical to [`Session::open`].
    pub fn open_ctrl(
        mut program: Program,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        program.renumber();
        let mut norm = program.clone();
        normalize(&mut norm);
        norm.renumber();
        let (fingerprint, analysis) = analyze_norm_ctrl(&norm, should_stop)?;
        Ok(Self {
            raw: program,
            norm,
            fingerprint,
            analysis,
            edits: 0,
            fallbacks: 0,
        })
    }

    /// The canonical fingerprint of the current (edited-to-date) loop.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The converged analysis of the current loop.
    pub fn analysis(&self) -> &LoopAnalysis {
        &self.analysis
    }

    /// The current normalized program.
    pub fn program(&self) -> &Program {
        &self.norm
    }

    /// The program as submitted plus all applied edits (not normalized).
    pub fn source_program(&self) -> &Program {
        &self.raw
    }

    /// Edits applied so far, and how many of them fell back to a full
    /// re-analysis.
    pub fn edit_counts(&self) -> (u64, u64) {
        (self.edits, self.fallbacks)
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
    /// passes. A stopped apply yields
    /// [`AnalyzeError::Stopped`] (wrapped in [`DeltaError::Analyze`]) and
    /// leaves the session byte-identical to its pre-edit state — exactly
    /// like any other failed apply.
    pub fn apply_ctrl(
        &mut self,
        edit: &Edit,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<DeltaOutcome, DeltaError> {
        // Capture what the edit replaces before touching anything.
        let old_node = self.analysis.graph.assign_node(edit.stmt);
        let old_assign = find_assign(&self.norm.body, edit.stmt).cloned();

        let mut raw = self.raw.clone();
        let shape = apply_edit(&mut raw, edit)?;
        let mut norm = raw.clone();
        normalize(&mut norm);
        norm.renumber();

        let fast = shape == EditShape::Assign
            && old_node.is_some()
            && old_assign.is_some()
            && norm.sole_loop().is_some_and(|l| l.is_normalized());
        if !fast {
            return self.rebuild(raw, norm, shape, should_stop);
        }
        let en = old_node.expect("checked");
        let old_assign = old_assign.expect("checked");
        let new_assign = match find_assign(&norm.body, edit.stmt) {
            Some(a) => a.clone(),
            None => return self.rebuild(raw, norm, shape, should_stop),
        };
        // A scalar assignment appearing or disappearing changes the scalar
        // environment that site classification depends on — for *every*
        // site, not just the edited node's. Structure-level fallback.
        if matches!(old_assign.lhs, LValue::Scalar(_))
            || matches!(new_assign.lhs, LValue::Scalar(_))
        {
            return self.rebuild(raw, norm, shape, should_stop);
        }

        // ---- Fast path: patch the graph and re-solve dirty columns. ----
        let mut dirty_arrays = touched_arrays(&old_assign);
        dirty_arrays.extend(touched_arrays(&new_assign));

        // The edited node's sites occupy one contiguous range of the site
        // enumeration; everything after it shifts by the ref-count delta.
        let old_sites = &self.analysis.sites;
        let old_start = old_sites
            .iter()
            .position(|s| s.node == en)
            .unwrap_or(old_sites.len());
        let old_count = old_sites.iter().filter(|s| s.node == en).count();

        let mut graph = self.analysis.graph.clone();
        graph.replace_assign(en, new_assign);
        let l = norm.sole_loop().expect("checked");
        let (sites, lin) = enumerate_sites(l, &graph, &norm.symbols);
        let new_count = sites.iter().filter(|s| s.node == en).count();
        let map_site = |idx: usize| -> Option<usize> {
            if idx < old_start {
                Some(idx)
            } else if idx >= old_start + new_count {
                Some(idx - new_count + old_count)
            } else {
                None
            }
        };

        let mut outcome = DeltaOutcome::default();
        let mut spent_passes: u64 = 0;
        // Per canned row, per new site: whether the row's column at that
        // site is re-solved. A row that selects its columns from another
        // row's family shares that row's dirty columns.
        let mut dirty_sites = vec![vec![false; sites.len()]; CANNED.len()];
        let resolve = |graph: &LoopGraph, sites: &[Site], k: usize, spec: CustomSpec| {
            let (dir, mode) = (spec.direction, spec.mode);
            let built = build_spec(sites, GK::of(spec), dir, mode);
            let old = self.analysis.instances()[k];
            // Old column index by old site index.
            let old_col: HashMap<usize, usize> = old
                .built
                .gen_site
                .iter()
                .enumerate()
                .map(|(col, &site)| (site, col))
                .collect();

            // Classify each new column: clean columns name the old column
            // they splice from, dirty ones are re-solved as the columns of
            // a narrowed spec over the same kill sites.
            let mut narrow = ProblemSpec::new(dir, mode);
            narrow.kills = built.spec.kills.clone();
            let mut columns: Vec<(bool, usize)> = Vec::with_capacity(built.spec.width());
            for (gen, &site) in built.spec.gens.iter().zip(&built.gen_site) {
                let old_site = gen
                    .origin
                    .and_then(|o| map_site(o as usize))
                    .filter(|_| gen.node != en && !dirty_arrays.contains(&gen.aref.array));
                match old_site.and_then(|s| old_col.get(&s).copied()) {
                    Some(oc) => columns.push((false, oc)),
                    None => {
                        let id = RefId(narrow.gens.len() as u32);
                        columns.push((true, id.index()));
                        narrow.gens.push(GenRef { id, ..gen.clone() });
                        dirty_sites[k][site] = true;
                    }
                }
            }

            // Re-converge the dirtied columns, then splice every column,
            // re-solved or clean, into the new solution.
            let dirty = solve(graph, &narrow, should_stop).map_err(|s| AnalyzeError::Stopped {
                passes: spent_passes + s.passes_completed as u64,
            })?;
            spent_passes += dirty.stats.passes as u64;
            outcome.solver_visits += dirty.stats.init_visits + dirty.stats.iter_visits;
            let sol = Solution::splice(
                graph.len(),
                mode,
                columns.iter().map(|&(is_dirty, c)| match is_dirty {
                    true => (&dirty, c),
                    false => (&old.sol, c),
                }),
            );
            Ok(Instance {
                gk: GK::of(spec),
                built,
                sol,
            })
        };
        let analysis = LoopAnalysis::assemble(lin.symbols, graph, sites, resolve)?;
        for (k, inst) in analysis.instances().into_iter().enumerate() {
            let dirty = &dirty_sites[canned_source(k)];
            outcome.dirty_columns += inst.built.gen_site.iter().filter(|&&s| dirty[s]).count();
            outcome.total_columns += inst.sol.width();
            outcome.full_solver_visits += inst.sol.stats.init_visits + inst.sol.stats.iter_visits;
        }
        self.fingerprint = fingerprint_loop(l, &norm.symbols);
        self.analysis = analysis;
        self.raw = raw;
        self.norm = norm;
        self.edits += 1;
        Ok(outcome)
    }

    /// Full re-analysis fallback: rebuild everything from the edited
    /// program, recording that the incremental path was not taken.
    fn rebuild(
        &mut self,
        raw: Program,
        norm: Program,
        _shape: EditShape,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<DeltaOutcome, DeltaError> {
        let (fingerprint, analysis) = analyze_norm_ctrl(&norm, should_stop)?;
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
        self.fingerprint = fingerprint;
        self.analysis = analysis;
        self.edits += 1;
        self.fallbacks += 1;
        Ok(outcome)
    }
}
