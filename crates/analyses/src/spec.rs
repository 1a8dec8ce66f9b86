//! From classified sites to a solver-ready [`ProblemSpec`].

use arrayflow_core::{CustomSpec, Direction, KillKind, Mode, ProblemSpec, RefId, CANNED};

use crate::sites::Site;

/// Which site roles generate and which kill — the (G, K) parameter pair of
/// the framework (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GK {
    /// Definitions generate.
    pub gen_defs: bool,
    /// Uses generate.
    pub gen_uses: bool,
    /// Definitions kill.
    pub kill_defs: bool,
    /// Uses kill.
    pub kill_uses: bool,
}

impl GK {
    /// Must-reaching definitions (§3.5): G = defs, K = defs.
    pub const REACHING_DEFS: GK = GK::of(CANNED[0].1);
    /// δ-available values (§4.1.1): G = defs ∪ uses, K = defs.
    pub const AVAILABLE: GK = GK::of(CANNED[1].1);
    /// δ-busy stores (§4.2.1): G = defs, K = uses.
    pub const BUSY_STORES: GK = GK::of(CANNED[2].1);
    /// δ-reaching references (§4.3): G = defs ∪ uses, K = defs.
    pub const REACHING_REFS: GK = GK::of(CANNED[3].1);
    /// δ-live array elements — the paper's canonical backward may-problem
    /// (§3.3/§3.4 name live variable analysis as the motivating example):
    /// G = uses, K = defs, run backward in may-mode. `IN[n, u] = x` means
    /// the element `u` reads may still be read up to `x` iterations in the
    /// past relative to its use (i.e. a definition writing that element at
    /// node exit of `n` feeds a use at distance ≤ x).
    pub const LIVE_ELEMENTS: GK = GK {
        gen_defs: false,
        gen_uses: true,
        kill_defs: true,
        kill_uses: false,
    };

    /// The role-selection half of a spec (direction and mode travel
    /// separately into [`build_spec`]).
    pub const fn of(spec: CustomSpec) -> GK {
        GK {
            gen_defs: spec.gen_defs,
            gen_uses: spec.gen_uses,
            kill_defs: spec.kill_defs,
            kill_uses: spec.kill_uses,
        }
    }
}

/// A [`ProblemSpec`] together with the mapping from its tracked references
/// back to the site table.
#[derive(Debug, Clone)]
pub struct BuiltSpec {
    /// The solver input.
    pub spec: ProblemSpec,
    /// For each [`RefId`] (by index), the index of its site in the site
    /// table.
    pub gen_site: Vec<usize>,
}

impl BuiltSpec {
    /// The site of a tracked reference.
    pub fn site_of<'a>(&self, id: RefId, sites: &'a [Site]) -> &'a Site {
        &sites[self.gen_site[id.index()]]
    }
}

/// Builds a problem spec from classified sites.
///
/// Analyzable sites in the selected roles become generators; killing-role
/// sites become [`KillKind::Exact`] kills when analyzable and
/// [`KillKind::AllOfArray`] kills otherwise (the sound fallback for
/// non-affine subscripts and summary contents the outer analysis cannot
/// express).
pub fn build_spec(sites: &[Site], gk: GK, direction: Direction, mode: Mode) -> BuiltSpec {
    let mut spec = ProblemSpec::new(direction, mode);
    let mut gen_site = Vec::new();
    for (idx, site) in sites.iter().enumerate() {
        let gen_role = (site.is_def && gk.gen_defs) || (!site.is_def && gk.gen_uses);
        if gen_role {
            if let Some(sub) = &site.sub {
                let id = spec.add_gen(
                    site.node,
                    site.aref.clone(),
                    sub.clone(),
                    site.is_def,
                    site.stmt,
                );
                spec.gens[id.index()].origin = Some(idx as u32);
                gen_site.push(idx);
            }
        }
        let kill_role = (site.is_def && gk.kill_defs) || (!site.is_def && gk.kill_uses);
        if kill_role {
            let kind = match &site.sub {
                Some(sub) => KillKind::Exact(sub.clone()),
                None => KillKind::AllOfArray,
            };
            spec.add_kill(site.node, site.aref.array, kind);
            let k = spec.kills.last_mut().expect("just pushed");
            k.is_def = site.is_def;
            k.origin = Some(idx as u32);
        }
    }
    BuiltSpec { spec, gen_site }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::enumerate_sites;
    use arrayflow_graph::build_loop_graph;
    use arrayflow_ir::parse_program;

    fn build(src: &str, gk: GK) -> (Vec<Site>, BuiltSpec) {
        let p = parse_program(src).unwrap();
        let l = p.sole_loop().unwrap();
        let g = build_loop_graph(l);
        let (sites, _) = enumerate_sites(l, &g, &p.symbols);
        let built = build_spec(&sites, gk, Direction::Forward, Mode::Must);
        (sites, built)
    }

    #[test]
    fn reaching_defs_tracks_only_defs() {
        let (_, b) = build("do i = 1, 10 A[i+2] := A[i] + B[i]; end", GK::REACHING_DEFS);
        assert_eq!(b.spec.width(), 1);
        assert_eq!(b.spec.kills.len(), 1);
    }

    #[test]
    fn available_tracks_defs_and_uses() {
        let (_, b) = build("do i = 1, 10 A[i+2] := A[i] + B[i]; end", GK::AVAILABLE);
        assert_eq!(b.spec.width(), 3);
        assert_eq!(b.spec.kills.len(), 1); // only the def kills
    }

    #[test]
    fn busy_stores_kill_by_uses() {
        let (_, b) = build("do i = 1, 10 A[i+2] := A[i] + B[i]; end", GK::BUSY_STORES);
        assert_eq!(b.spec.width(), 1);
        assert_eq!(b.spec.kills.len(), 2); // both uses kill
    }

    #[test]
    fn nonaffine_def_degrades_to_all_of_array_kill() {
        let (_, b) = build("do i = 1, 10 A[i*i] := A[i]; end", GK::REACHING_DEFS);
        assert_eq!(b.spec.width(), 0, "non-affine def cannot generate");
        assert_eq!(b.spec.kills.len(), 1);
        assert!(matches!(b.spec.kills[0].kind, KillKind::AllOfArray));
    }

    #[test]
    fn gen_site_maps_back() {
        let (sites, b) = build("do i = 1, 10 A[i+2] := A[i]; end", GK::AVAILABLE);
        for (k, &s) in b.gen_site.iter().enumerate() {
            let gen = &b.spec.gens[k];
            assert_eq!(gen.node, sites[s].node);
            assert_eq!(gen.is_def, sites[s].is_def);
        }
    }
}
