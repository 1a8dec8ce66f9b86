//! From classified sites to a solver-ready [`ProblemSpec`].

use std::ops::Range;
use std::sync::Arc;

use arrayflow_core::{
    CustomSpec, Direction, GenRef, KillKind, KillSite, Mode, ProblemSpec, RefId, CANNED,
};

use crate::sites::{Site, SiteSplice};

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
/// back to the site table. Rows are in site order, and a clone shares
/// them.
#[derive(Debug, Clone)]
pub struct BuiltSpec {
    /// The solver input.
    pub spec: ProblemSpec,
    /// For each [`RefId`] (by index), the index of its site in the site
    /// table.
    pub gen_site: Arc<[usize]>,
}

impl BuiltSpec {
    /// The same rows in `mode`: a problem of the same roles and direction
    /// tracks the same references and kills, whatever its mode.
    pub fn with_mode(&self, mode: Mode) -> Self {
        BuiltSpec {
            spec: ProblemSpec {
                mode,
                ..self.spec.clone()
            },
            gen_site: Arc::clone(&self.gen_site),
        }
    }

    /// The columns generated at the sites in `sites`. Rows are in site
    /// order, so when one node's sites are replaced, the columns before
    /// the node's keep their indices and those after them shift by the
    /// change in their count.
    pub fn columns_at(&self, sites: &Range<usize>) -> Range<usize> {
        let at = |site: usize| self.gen_site.partition_point(|&s| s < site);
        at(sites.start)..at(sites.end)
    }

    /// This spec rebuilt for a site table in which one node's sites were
    /// replaced (`splice`; see [`crate::sites::splice_sites`]), every
    /// other site unchanged. Rows before the replaced sites keep their ids
    /// and origins, the replaced sites' rows are built afresh, and the rows
    /// after them shift by the changes in row and site counts, all sharing
    /// their references. Equal to [`build_spec`] over `sites` with this
    /// spec's roles `gk`.
    pub fn spliced(&self, sites: &[Site], gk: GK, splice: &SiteSplice) -> Self {
        let (gens, kills, old) = (&self.spec.gens, &self.spec.kills, &splice.old);
        let at = |origin: Option<u32>| origin.expect("built rows carry their site") as usize;
        let [g0, g1] = [old.start, old.end].map(|s| gens.partition_point(|g| at(g.origin) < s));
        let [k0, k1] = [old.start, old.end].map(|s| kills.partition_point(|k| at(k.origin) < s));
        let fresh = splice.new.len();
        let shift = |origin: Option<u32>| Some(splice.new_site(at(origin)) as u32);
        let mut rows = Rows::with_capacity(gens.len() + fresh - (g1 - g0), kills.len() + fresh);
        rows.gens.extend_from_slice(&gens[..g0]);
        rows.gen_site.extend_from_slice(&self.gen_site[..g0]);
        rows.kills.extend_from_slice(&kills[..k0]);
        rows.extend(sites, splice.new.clone(), gk);
        for g in &gens[g1..] {
            let origin = shift(g.origin);
            rows.gen_site.push(at(origin));
            rows.gens.push(GenRef {
                id: RefId(rows.gens.len() as u32),
                origin,
                ..g.clone()
            });
        }
        let kills = kills[k1..].iter().map(|k| KillSite {
            origin: shift(k.origin),
            ..k.clone()
        });
        rows.kills.extend(kills);
        rows.into_spec(self.spec.direction, self.spec.mode)
    }
}

/// Spec rows under construction, in site order.
#[derive(Default)]
struct Rows {
    gens: Vec<GenRef>,
    kills: Vec<KillSite>,
    gen_site: Vec<usize>,
}

impl Rows {
    fn with_capacity(gens: usize, kills: usize) -> Self {
        Rows {
            gens: Vec::with_capacity(gens),
            kills: Vec::with_capacity(kills),
            gen_site: Vec::with_capacity(gens),
        }
    }

    /// Appends the rows of `sites[range]` under the roles `gk`: analyzable
    /// sites in a generating role generate; sites in a killing role kill,
    /// exactly when analyzable and the whole array otherwise.
    fn extend(&mut self, sites: &[Site], range: Range<usize>, gk: GK) {
        for idx in range {
            let site = &sites[idx];
            let origin = Some(idx as u32);
            let gen_role = (site.is_def && gk.gen_defs) || (!site.is_def && gk.gen_uses);
            if let (true, Some(sub)) = (gen_role, &site.sub) {
                self.gens.push(GenRef {
                    id: RefId(self.gens.len() as u32),
                    node: site.node,
                    aref: Arc::clone(&site.aref),
                    sub: Arc::clone(sub),
                    is_def: site.is_def,
                    stmt: site.stmt,
                    origin,
                });
                self.gen_site.push(idx);
            }
            let kill_role = (site.is_def && gk.kill_defs) || (!site.is_def && gk.kill_uses);
            if kill_role {
                self.kills.push(KillSite {
                    node: site.node,
                    array: site.aref.array,
                    kind: site
                        .sub
                        .clone()
                        .map_or(KillKind::AllOfArray, KillKind::Exact),
                    is_def: site.is_def,
                    origin,
                });
            }
        }
    }

    fn into_spec(self, direction: Direction, mode: Mode) -> BuiltSpec {
        BuiltSpec {
            spec: ProblemSpec {
                direction,
                mode,
                gens: Arc::new(self.gens),
                kills: Arc::new(self.kills),
            },
            gen_site: self.gen_site.into(),
        }
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
    let mut rows = Rows::default();
    rows.extend(sites, 0..sites.len(), gk);
    rows.into_spec(direction, mode)
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
