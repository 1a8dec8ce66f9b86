//! One analysis session: cached fixed point plus delta re-convergence.

use std::fmt;

use arrayflow_analyses::instances::Instance;
use arrayflow_analyses::sites::{enumerate_sites, Site};
use arrayflow_analyses::spec::{build_spec, GK};
use arrayflow_analyses::{
    dependences, redundant_stores, reuse_pairs, AnalyzeError, Dep, LoopAnalysis, RedundantStore,
    Reuse,
};
use arrayflow_core::{
    canned_source, solve, CustomSpec, GenRef, ProblemSpec, RefId, Solution, StopCheck, CANNED,
};
use arrayflow_graph::LoopGraph;
use arrayflow_ir::{
    apply_edit, fingerprint_loop, normalize, ArrayId, Assign, Edit, EditError, EditShape,
    Fingerprint, LValue, Program, Stmt, StmtId,
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

/// The three lists a canned report distills from a loop's analysis, each
/// in site order: reuse pairs (by use site), redundant stores (by store
/// site) and dependences (by sink site). Every entry relates two sites of
/// one array, which is what lets a session re-distill only the arrays an
/// edit touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportLists {
    /// Guaranteed constant-distance reuse pairs (§4.1.1).
    pub reuses: Vec<Reuse>,
    /// δ-redundant stores (§4.2.1).
    pub redundant_stores: Vec<RedundantStore>,
    /// Potential dependences up to the session's distance bound (§4.3).
    pub dependences: Vec<Dep>,
}

impl ReportLists {
    /// Distills the lists of `a` for the sites on `arrays` (every array
    /// when `None`).
    fn distill(a: &LoopAnalysis, dep_max_distance: u64, arrays: Option<&[ArrayId]>) -> Self {
        ReportLists {
            reuses: reuse_pairs(&a.graph, &a.sites, &a.available, arrays),
            redundant_stores: redundant_stores(&a.graph, &a.sites, &a.busy, arrays),
            dependences: dependences(
                &a.graph,
                &a.sites,
                &a.reaching_refs,
                dep_max_distance,
                arrays,
            ),
        }
    }

    /// The lists of `new`, the analysis after an edit that touched only
    /// the `dirty` arrays: an untouched array keeps its entries, whose
    /// columns and sites the edit left unchanged, renumbered from the old
    /// site table (`old_sites`) onto the new one by `new_site` and onto
    /// `new`'s δ-available columns; the dirty arrays are distilled afresh,
    /// and both merge back in site order. An untouched array has no site
    /// at the edited node, so `new_site` need not map those.
    fn patched(
        &self,
        old_sites: &[Site],
        new: &LoopAnalysis,
        dirty: &[ArrayId],
        dep_max_distance: u64,
        new_site: impl Fn(usize) -> usize,
    ) -> Self {
        let fresh = Self::distill(new, dep_max_distance, Some(dirty));
        let clean = |site: usize| !dirty.contains(&old_sites[site].aref.array);
        let columns = &new.available.built.gen_site;
        let reuses = self.reuses.iter().filter(|r| clean(r.use_site)).map(|r| {
            let gen_site = new_site(r.gen_site);
            let gen = columns
                .binary_search(&gen_site)
                .expect("an untouched generator keeps a δ-available column");
            Reuse {
                use_site: new_site(r.use_site),
                gen: RefId(gen as u32),
                gen_site,
                ..*r
            }
        });
        let stores = self.redundant_stores.iter();
        let stores = stores.filter(|s| clean(s.store_site)).map(|s| {
            let store_site = new_site(s.store_site);
            RedundantStore {
                store_site,
                stmt: new.sites[store_site].stmt,
                killer_site: new_site(s.killer_site),
                ..*s
            }
        });
        let deps = self.dependences.iter().filter(|d| clean(d.dst_site));
        let deps = deps.map(|d| Dep {
            src_site: new_site(d.src_site),
            dst_site: new_site(d.dst_site),
            ..*d
        });
        ReportLists {
            reuses: merged(reuses, fresh.reuses, |r| r.use_site),
            redundant_stores: merged(stores, fresh.redundant_stores, |s| s.store_site),
            dependences: merged(deps, fresh.dependences, |d| d.dst_site),
        }
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

/// An open analysis session: the edited-to-date program, its converged
/// analysis state and the report lists distilled from it.
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
    /// The dependence distance bound `lists` are distilled at.
    dep_max_distance: u64,
    /// The report lists of `analysis`.
    lists: ReportLists,
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

/// Arrays the reference sites of two assignments touch (as generator or
/// kill), sorted and without repeats.
fn touched_arrays(a: &Assign, b: &Assign) -> Vec<ArrayId> {
    use arrayflow_graph::ref_sites_of;
    let sites = [a, b].map(|x| ref_sites_of(&Stmt::Assign(x.clone())));
    let mut arrays: Vec<ArrayId> = sites.iter().flatten().map(|r| r.aref.array).collect();
    arrays.sort_unstable();
    arrays.dedup();
    arrays
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
    /// Opens a session over a parsed program: normalizes, renumbers, runs
    /// the full analysis once and distills its report lists, reporting
    /// dependences up to `dep_max_distance`.
    pub fn open(program: Program, dep_max_distance: u64) -> Result<Self, AnalyzeError> {
        Self::open_ctrl(program, dep_max_distance, None)
    }

    /// Like [`Session::open`], but polls `should_stop` between solver
    /// passes and yields [`AnalyzeError::Stopped`] without constructing
    /// the session — nothing is retained from a cancelled open. With
    /// `None` the result is identical to [`Session::open`].
    pub fn open_ctrl(
        mut program: Program,
        dep_max_distance: u64,
        should_stop: Option<StopCheck<'_>>,
    ) -> Result<Self, AnalyzeError> {
        program.renumber();
        let mut norm = program.clone();
        normalize(&mut norm);
        norm.renumber();
        let (fingerprint, analysis) = analyze_norm_ctrl(&norm, should_stop)?;
        let lists = ReportLists::distill(&analysis, dep_max_distance, None);
        Ok(Self {
            raw: program,
            norm,
            fingerprint,
            analysis,
            dep_max_distance,
            lists,
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

    /// The report lists of the current analysis.
    pub fn lists(&self) -> &ReportLists {
        &self.lists
    }

    /// The dependence distance bound the report lists are distilled at.
    pub fn dep_max_distance(&self) -> u64 {
        self.dep_max_distance
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
        let dirty_arrays = touched_arrays(&old_assign, &new_assign);

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
        // A site off the edited node by its index in the new enumeration,
        // and back.
        let old_site = |idx: usize| -> Option<usize> {
            if idx < old_start {
                Some(idx)
            } else if idx >= old_start + new_count {
                Some(idx - new_count + old_count)
            } else {
                None
            }
        };
        let new_site = |idx: usize| match idx < old_start {
            true => idx,
            false => idx + new_count - old_count,
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
            // Old column index by old site index (columns are in site order).
            let old_col = |site: usize| old.built.gen_site.binary_search(&site).ok();

            // Classify each new column: clean columns name the old column
            // they splice from, dirty ones are re-solved as the columns of
            // a narrowed spec.
            let mut narrow = ProblemSpec::new(dir, mode);
            let mut columns: Vec<(bool, usize)> = Vec::with_capacity(built.spec.width());
            for (gen, &site) in built.spec.gens.iter().zip(&built.gen_site) {
                let old_site = gen
                    .origin
                    .and_then(|o| old_site(o as usize))
                    .filter(|_| gen.node != en && !dirty_arrays.contains(&gen.aref.array));
                match old_site.and_then(old_col) {
                    Some(oc) => columns.push((false, oc)),
                    None => {
                        let id = RefId(narrow.gens.len() as u32);
                        columns.push((true, id.index()));
                        narrow.gens.push(GenRef { id, ..gen.clone() });
                        dirty_sites[k][site] = true;
                    }
                }
            }
            // A column sees only its own array's kills: keep the arrays of
            // the dirty columns.
            let mut arrays: Vec<ArrayId> = narrow.gens.iter().map(|g| g.aref.array).collect();
            arrays.sort_unstable();
            arrays.dedup();
            let kills = built.spec.kills.iter();
            let kills = kills.filter(|k| arrays.binary_search(&k.array).is_ok());
            narrow.kills = kills.cloned().collect();

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
        self.lists = self.lists.patched(
            &self.analysis.sites,
            &analysis,
            &dirty_arrays,
            self.dep_max_distance,
            new_site,
        );
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
        self.lists = ReportLists::distill(&analysis, self.dep_max_distance, None);
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
