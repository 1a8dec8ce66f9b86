//! Problem specifications: the (G, K) parameterization of the framework.
//!
//! A data flow problem over a loop flow graph is fully determined by
//! (paper §3.1):
//!
//! * the set **G** of *generating* references — each becomes one lattice
//!   component tracked through the loop;
//! * the set **K** of *killing* sites — each contributes preserve constants
//!   to the flow functions of its node;
//! * a [`Direction`] (forward or backward, §3.4);
//! * a [`Mode`] (must/all-paths or may/any-path, §3.3).
//!
//! The analyses crate constructs [`ProblemSpec`]s from IR loops; the solver
//! in this crate consumes them.

use std::sync::Arc;

use arrayflow_graph::NodeId;
use arrayflow_ir::stmt::StmtId;
use arrayflow_ir::{AffineSub, ArrayId, ArrayRef};

/// Index of a generating reference within a [`ProblemSpec`] (a component of
/// the tuple lattice `Lᵐ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefId(pub u32);

impl RefId {
    /// The index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Propagation direction (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Information flows from control predecessors to successors and from
    /// earlier to later iterations.
    Forward,
    /// Information flows from successors to predecessors and from later to
    /// earlier iterations (e.g. δ-busy stores, live variables).
    Backward,
}

/// All-paths vs any-path interpretation (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Must-information: an *underestimate*; meet is `min`; requires the
    /// initialization pass; fixed point after `3·N` node visits.
    Must,
    /// May-information: an *overestimate*; meet is `max`; only *definite*
    /// kills lower preserve constants; fixed point after `2·N` node visits.
    May,
}

/// One generating reference (an element of G).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRef {
    /// Component index in the solution tuples.
    pub id: RefId,
    /// Node the reference occurs in.
    pub node: NodeId,
    /// The textual reference, shared with the site it was built from.
    pub aref: Arc<ArrayRef>,
    /// Affine form of the (linearized, for multi-dimensional arrays)
    /// subscript with respect to the analyzed loop's induction variable,
    /// shared with the site it was built from.
    pub sub: Arc<AffineSub>,
    /// True if the site writes the element.
    pub is_def: bool,
    /// Owning assignment, when there is one.
    pub stmt: Option<StmtId>,
    /// Identity of the originating site (set by the spec builder); used to
    /// recognize a kill site that *is* this reference, so a definition is
    /// never treated as destroying the instance it just created.
    pub origin: Option<u32>,
}

/// How a kill site kills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KillKind {
    /// An ordinary affine definition site: kills instances per the preserve
    /// constant derivation of §3.1.2. The subscript is shared with the
    /// site it was built from.
    Exact(Arc<AffineSub>),
    /// Kills every instance of the array (used for summary nodes — §3.2 —
    /// and for non-affine subscripts, where nothing better can be proven).
    AllOfArray,
}

/// One killing site (an element of K).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillSite {
    /// Node the kill occurs in.
    pub node: NodeId,
    /// Array whose instances are killed.
    pub array: ArrayId,
    /// Kill precision.
    pub kind: KillKind,
    /// True if the site writes (definition sites); uses can kill too (e.g.
    /// δ-busy stores) but execute before their statement's definition.
    pub is_def: bool,
    /// Identity of the originating site (see [`GenRef::origin`]).
    pub origin: Option<u32>,
}

/// A wire-expressible problem selection: which site roles generate (G),
/// which kill (K), the [`Direction`] and the [`Mode`] — everything a
/// client must say to name a framework instance over a program it
/// submits. Six bits total, canonically encoded by [`CustomSpec::bits`]
/// so memo caches, persistent stores and cluster routers all agree on
/// the identity of a custom instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CustomSpec {
    /// Definition sites generate.
    pub gen_defs: bool,
    /// Use sites generate.
    pub gen_uses: bool,
    /// Definition sites kill.
    pub kill_defs: bool,
    /// Use sites kill.
    pub kill_uses: bool,
    /// Propagation direction.
    pub direction: Direction,
    /// Must or may interpretation.
    pub mode: Mode,
}

impl CustomSpec {
    /// Largest dependence-distance bound an `analyze` or `custom` request
    /// may carry; the service rejects anything above it as part of its
    /// wire contract. Dependence extraction costs the same at every bound
    /// (each pair's first overlap is solved in closed form).
    pub const MAX_DISTANCE_BOUND: u64 = 1_000_000;

    /// Canonical 6-bit encoding: bit 0 `gen_defs`, bit 1 `gen_uses`,
    /// bit 2 `kill_defs`, bit 3 `kill_uses`, bit 4 backward, bit 5 may.
    pub fn bits(self) -> u8 {
        (self.gen_defs as u8)
            | (self.gen_uses as u8) << 1
            | (self.kill_defs as u8) << 2
            | (self.kill_uses as u8) << 3
            | ((self.direction == Direction::Backward) as u8) << 4
            | ((self.mode == Mode::May) as u8) << 5
    }

    /// True when every column of `other` is a column of `self`: the two
    /// share kill roles, direction and mode — all a column depends on
    /// besides its generator, since meet and flow functions act on each
    /// tracked reference separately (paper §3.1) — and `other`'s
    /// generating roles are a subset of `self`'s.
    pub fn selects(self, other: CustomSpec) -> bool {
        let (a, b) = (self.bits(), other.bits());
        a >> 2 == b >> 2 && b & !a & 0b11 == 0
    }

    /// Inverse of [`CustomSpec::bits`]; `None` on stray high bits or an
    /// empty generating set. An empty G is contradictory — the instance
    /// would track nothing — and rejecting it here keeps that validation
    /// in one place for every untrusted decoder (JSON, binary, store).
    pub fn from_bits(bits: u8) -> Option<CustomSpec> {
        if bits & !0b11_1111 != 0 || bits & 0b11 == 0 {
            return None;
        }
        Some(CustomSpec {
            gen_defs: bits & 0b0001 != 0,
            gen_uses: bits & 0b0010 != 0,
            kill_defs: bits & 0b0100 != 0,
            kill_uses: bits & 0b1000 != 0,
            direction: if bits & 0b1_0000 != 0 {
                Direction::Backward
            } else {
                Direction::Forward
            },
            mode: if bits & 0b10_0000 != 0 {
                Mode::May
            } else {
                Mode::Must
            },
        })
    }

    /// A short, stable, label-safe name, e.g. `gdu-kd-fwd-may`: the
    /// generating roles, the killing roles (`k0` when nothing kills),
    /// direction and mode. Used as the per-spec metric label value and
    /// in renderings; stable by contract.
    pub fn label(self) -> String {
        let mut s = String::with_capacity(16);
        s.push('g');
        if self.gen_defs {
            s.push('d');
        }
        if self.gen_uses {
            s.push('u');
        }
        s.push_str("-k");
        if !self.kill_defs && !self.kill_uses {
            s.push('0');
        }
        if self.kill_defs {
            s.push('d');
        }
        if self.kill_uses {
            s.push('u');
        }
        s.push('-');
        s.push_str(match self.direction {
            Direction::Forward => "fwd",
            Direction::Backward => "bwd",
        });
        s.push('-');
        s.push_str(match self.mode {
            Mode::Must => "must",
            Mode::May => "may",
        });
        s
    }
}

impl std::fmt::Display for CustomSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The canned instances, by name, in the engine's `ProblemSet` bit order:
/// must-reaching definitions (§3.5), δ-available values (§4.1.1), δ-busy
/// stores (§4.2.1) and δ-reaching references (§4.3). Every list of the
/// canned instances — analysis, reports, metrics, wire names — reads this
/// table.
pub const CANNED: [(&str, CustomSpec); 4] = {
    use Direction::{Backward, Forward};
    use Mode::{May, Must};
    // Site roles as (defs, uses) selections.
    const DEFS: (bool, bool) = (true, false);
    const USES: (bool, bool) = (false, true);
    const BOTH: (bool, bool) = (true, true);
    const fn spec(
        gen: (bool, bool),
        kill: (bool, bool),
        direction: Direction,
        mode: Mode,
    ) -> CustomSpec {
        CustomSpec {
            gen_defs: gen.0,
            gen_uses: gen.1,
            kill_defs: kill.0,
            kill_uses: kill.1,
            direction,
            mode,
        }
    }
    [
        ("reaching", spec(DEFS, DEFS, Forward, Must)),
        ("available", spec(BOTH, DEFS, Forward, Must)),
        ("busy", spec(DEFS, USES, Backward, Must)),
        ("reaching_refs", spec(BOTH, DEFS, Forward, May)),
    ]
};

/// The [`CANNED`] row whose solve holds row `k`'s columns: the widest row
/// that [selects](CustomSpec::selects) it — `k` itself unless another row
/// of its column family generates more. Solving only the rows that are
/// their own source solves every canned column once.
pub fn canned_source(k: usize) -> usize {
    (0..CANNED.len())
        .filter(|&j| CANNED[j].1.selects(CANNED[k].1))
        .max_by_key(|&j| CANNED[j].1.bits() & 0b11)
        .expect("every row selects itself")
}

/// The solves behind the [`CANNED`] rows: the rows that are their own
/// [`canned_source`], grouped by roles and direction — one spec's rows
/// serve a group, solved in each row's mode — in table order of each
/// group's first row. δ-available values and δ-reaching references differ
/// only in mode, so the canned rows take two solves: `[[1, 3], [2]]`.
pub fn canned_solves() -> Vec<Vec<usize>> {
    let rows = || (0..CANNED.len()).filter(|&k| canned_source(k) == k);
    let mut solves: Vec<Vec<usize>> = Vec::new();
    for k in rows() {
        let roles = |j: usize| CustomSpec {
            mode: Mode::Must,
            ..CANNED[j].1
        };
        match solves.iter_mut().find(|s| roles(s[0]) == roles(k)) {
            Some(solve) => solve.push(k),
            None => solves.push(vec![k]),
        }
    }
    solves
}

/// A complete problem instance over one loop flow graph.
///
/// The generator and kill rows are shared: a clone — e.g. the same rows
/// in the other [`Mode`] — copies no row.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// Propagation direction.
    pub direction: Direction,
    /// Must or may interpretation.
    pub mode: Mode,
    /// The generating references, indexed by [`RefId`].
    pub gens: Arc<Vec<GenRef>>,
    /// The killing sites.
    pub kills: Arc<Vec<KillSite>>,
}

impl ProblemSpec {
    /// Creates an empty spec with the given direction and mode.
    pub fn new(direction: Direction, mode: Mode) -> Self {
        Self {
            direction,
            mode,
            gens: Arc::default(),
            kills: Arc::default(),
        }
    }

    /// Adds a generating reference, returning its component index.
    pub fn add_gen(
        &mut self,
        node: NodeId,
        aref: impl Into<Arc<ArrayRef>>,
        sub: impl Into<Arc<AffineSub>>,
        is_def: bool,
        stmt: Option<StmtId>,
    ) -> RefId {
        let gens = Arc::make_mut(&mut self.gens);
        let id = RefId(gens.len() as u32);
        gens.push(GenRef {
            id,
            node,
            aref: aref.into(),
            sub: sub.into(),
            is_def,
            stmt,
            origin: None,
        });
        id
    }

    /// Adds a killing site (assumed to be a definition; set
    /// [`KillSite::is_def`] afterwards for use-kills).
    pub fn add_kill(&mut self, node: NodeId, array: ArrayId, kind: KillKind) {
        Arc::make_mut(&mut self.kills).push(KillSite {
            node,
            array,
            kind,
            is_def: true,
            origin: None,
        });
    }

    /// Number of tracked components (`m = |G|`).
    pub fn width(&self) -> usize {
        self.gens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_spec_bits_round_trip() {
        for bits in 0u8..=0b11_1111 {
            match CustomSpec::from_bits(bits) {
                Some(spec) => assert_eq!(spec.bits(), bits),
                None => assert_eq!(bits & 0b11, 0, "only empty-G bits are rejected"),
            }
        }
        for bits in 0b100_0000u8..=0xFF {
            assert_eq!(CustomSpec::from_bits(bits), None, "high bits rejected");
        }
    }

    #[test]
    fn custom_spec_labels_are_distinct_and_stable() {
        let reaching = CustomSpec {
            gen_defs: true,
            gen_uses: false,
            kill_defs: true,
            kill_uses: false,
            direction: Direction::Forward,
            mode: Mode::Must,
        };
        assert_eq!(reaching.label(), "gd-kd-fwd-must");
        let live = CustomSpec {
            gen_defs: false,
            gen_uses: true,
            kill_defs: true,
            kill_uses: false,
            direction: Direction::Backward,
            mode: Mode::May,
        };
        assert_eq!(live.label(), "gu-kd-bwd-may");
        let mut seen = std::collections::HashSet::new();
        for bits in 0u8..=0b11_1111 {
            if let Some(spec) = CustomSpec::from_bits(bits) {
                assert!(seen.insert(spec.label()), "duplicate label for {bits:#b}");
            }
        }
    }

    #[test]
    fn reaching_definitions_are_the_available_values_definition_columns() {
        let labels = CANNED.map(|(_, spec)| spec.label());
        assert_eq!(
            labels,
            [
                "gd-kd-fwd-must",
                "gdu-kd-fwd-must",
                "gd-ku-bwd-must",
                "gdu-kd-fwd-may"
            ]
        );
        assert_eq!(
            (0..CANNED.len()).map(canned_source).collect::<Vec<_>>(),
            [1, 1, 2, 3]
        );
        assert_eq!(canned_solves(), [vec![1, 3], vec![2]]);
        let (reaching, available) = (CANNED[0].1, CANNED[1].1);
        assert!(available.selects(reaching) && !reaching.selects(available));
        // The may-mode twin of δ-available shares its roles but not its columns.
        assert!(!available.selects(CANNED[3].1) && !CANNED[3].1.selects(reaching));
    }
}
