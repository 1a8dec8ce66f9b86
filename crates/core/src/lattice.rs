//! The chain lattice of iteration distances (paper §3, Fig. 2).
//!
//! A lattice value for a subscripted reference `r` denotes the range of the
//! latest `x` *instances* of `r`: `⊥` means no instance, a finite `x` means
//! instances up to maximal iteration distance `x`, and `⊤` means all
//! instances (equivalently distance `UB − 1` in a loop with `UB` iterations).
//!
//! Must-problems use the meet `min`; may-problems use the dual `max`
//! (paper §3.3 phrases this as reversing the lattice — we keep concrete
//! distances and swap the operator, which is the same thing).

use std::cmp::Ordering;
use std::fmt;

/// A maximal iteration distance: an element of the chain
/// `⊥ < 0 < 1 < 2 < … < ⊤`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// No instance (`⊥`).
    Bottom,
    /// Instances up to this maximal iteration distance.
    Fin(u64),
    /// All instances (`⊤`, i.e. distance `UB − 1`).
    Top,
}

impl Dist {
    /// The paper's `min` (meet of the must-lattice): `min(x, ⊥) = ⊥`,
    /// `min(x, ⊤) = x`.
    pub fn min(self, other: Dist) -> Dist {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The paper's dual `max` (meet of the may-lattice): `max(x, ⊥) = x`,
    /// `max(x, ⊤) = ⊤`.
    pub fn max(self, other: Dist) -> Dist {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The increment `x⁺⁺` applied by the `exit` node: `⊤⁺⁺ = ⊤`,
    /// `⊥⁺⁺ = ⊥`, otherwise `x + 1` (paper §3.1.3).
    pub fn incr(self) -> Dist {
        match self {
            Dist::Bottom => Dist::Bottom,
            Dist::Fin(x) => Dist::Fin(x + 1),
            Dist::Top => Dist::Top,
        }
    }

    /// Canonicalizes with respect to a known trip count: every distance
    /// `≥ UB − 1` covers all instances and collapses to `⊤`.
    pub fn normalize(self, ub: Option<i64>) -> Dist {
        match (self, ub) {
            (Dist::Fin(x), Some(ub)) if ub >= 1 && x as i128 >= (ub - 1) as i128 => Dist::Top,
            _ => self,
        }
    }

    /// True iff at least the instance at distance `d` is covered.
    pub fn covers(self, d: u64) -> bool {
        match self {
            Dist::Bottom => false,
            Dist::Fin(x) => d <= x,
            Dist::Top => true,
        }
    }

    /// True for `⊥`.
    pub fn is_bottom(self) -> bool {
        self == Dist::Bottom
    }
}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> Ordering {
        use Dist::*;
        match (self, other) {
            (Bottom, Bottom) | (Top, Top) => Ordering::Equal,
            (Bottom, _) => Ordering::Less,
            (_, Bottom) => Ordering::Greater,
            (Top, _) => Ordering::Greater,
            (_, Top) => Ordering::Less,
            (Fin(a), Fin(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dist::Bottom => write!(f, "⊥"),
            Dist::Fin(x) => write!(f, "{x}"),
            Dist::Top => write!(f, "⊤"),
        }
    }
}

/// Packed lane encoding of [`Dist`], the solver's storage format:
/// `⊥ = 0`, `Fin(k) = k + 1`, `⊤ = u64::MAX`. The encoding is
/// order-preserving, so the must-meet is integer `min` and the may-meet
/// integer `max` on lanes. Lanes are 64 bits wide because finite
/// distances are not bounded by 32 bits: a loop over `A[i+5000000000]`
/// carries a reuse at distance 5 000 000 000. Finite distances at or
/// above `u64::MAX − 1` saturate to `⊤`; every real distance is below
/// `2⁶³`, the largest trip count an `i64` bound can name.
pub(crate) mod lane {
    use super::Dist;

    /// The lane of `⊤`.
    pub const TOP: u64 = u64::MAX;

    /// Encodes a distance.
    pub fn encode(d: Dist) -> u64 {
        match d {
            Dist::Bottom => 0,
            Dist::Fin(k) => k.saturating_add(1),
            Dist::Top => TOP,
        }
    }

    /// Decodes a lane.
    #[inline]
    pub fn decode(l: u64) -> Dist {
        match l {
            0 => Dist::Bottom,
            TOP => Dist::Top,
            k => Dist::Fin(k - 1),
        }
    }

    /// `x⁺⁺` on a lane: fixes `⊥` and `⊤`.
    pub fn incr(l: u64) -> u64 {
        if l == 0 || l == TOP {
            l
        } else {
            l + 1
        }
    }

    /// The smallest lane [`Dist::normalize`] collapses to `⊤` for trip
    /// count `ub`: `Fin(x)` with `x ≥ UB − 1`, i.e. lanes `≥ UB`. `⊤`
    /// itself when the trip count is unknown, so nothing collapses.
    pub fn top_from(ub: Option<i64>) -> u64 {
        match ub {
            Some(ub) if ub >= 1 => ub as u64,
            _ => TOP,
        }
    }

    /// [`Dist::normalize`] on a lane, given [`top_from`]'s threshold.
    pub fn normalize(l: u64, top_from: u64) -> u64 {
        if l >= top_from {
            TOP
        } else {
            l
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_order() {
        assert!(Dist::Bottom < Dist::Fin(0));
        assert!(Dist::Fin(0) < Dist::Fin(1));
        assert!(Dist::Fin(1000) < Dist::Top);
        assert!(Dist::Bottom < Dist::Top);
    }

    #[test]
    fn paper_min_max_identities() {
        // ∀x: min(x, ⊥) = ⊥ and min(x, ⊤) = x
        for x in [Dist::Bottom, Dist::Fin(3), Dist::Top] {
            assert_eq!(x.min(Dist::Bottom), Dist::Bottom);
            assert_eq!(x.min(Dist::Top), x);
            // ∀x: max(x, ⊥) = x and max(x, ⊤) = ⊤
            assert_eq!(x.max(Dist::Bottom), x);
            assert_eq!(x.max(Dist::Top), Dist::Top);
        }
    }

    #[test]
    fn incr_fixes_extremes() {
        assert_eq!(Dist::Bottom.incr(), Dist::Bottom);
        assert_eq!(Dist::Top.incr(), Dist::Top);
        assert_eq!(Dist::Fin(4).incr(), Dist::Fin(5));
    }

    #[test]
    fn normalize_clamps_to_trip_count() {
        assert_eq!(Dist::Fin(9).normalize(Some(10)), Dist::Top);
        assert_eq!(Dist::Fin(8).normalize(Some(10)), Dist::Fin(8));
        assert_eq!(Dist::Fin(9).normalize(None), Dist::Fin(9));
        assert_eq!(Dist::Bottom.normalize(Some(2)), Dist::Bottom);
    }

    #[test]
    fn covers_semantics() {
        assert!(!Dist::Bottom.covers(0));
        assert!(Dist::Fin(2).covers(0));
        assert!(Dist::Fin(2).covers(2));
        assert!(!Dist::Fin(2).covers(3));
        assert!(Dist::Top.covers(u64::MAX));
    }

    #[test]
    fn lattice_laws_on_exhaustive_small_domain() {
        // The lattice-law checks formerly run under proptest, here over an
        // exhaustive small chain (⊥, 0..8, ⊤) — exhaustiveness on a chain
        // lattice subsumes random sampling of the same laws.
        let dom: Vec<Dist> = std::iter::once(Dist::Bottom)
            .chain((0u64..8).map(Dist::Fin))
            .chain(std::iter::once(Dist::Top))
            .collect();
        for &a in &dom {
            assert_eq!(a.min(a), a);
            assert_eq!(a.max(a), a);
            for &b in &dom {
                assert_eq!(a.min(b), b.min(a));
                assert_eq!(a.max(b), b.max(a));
                assert!(a.min(b) <= a && a.min(b) <= b);
                assert!(a.max(b) >= a && a.max(b) >= b);
                assert_eq!(a.min(a.max(b)), a);
                assert_eq!(a.max(a.min(b)), a);
                if a <= b {
                    assert!(a.incr() <= b.incr());
                }
                for &c in &dom {
                    assert_eq!(a.min(b).min(c), a.min(b.min(c)));
                }
            }
        }
    }

    /// A seeded draw from `⊥`, `0..100` and `⊤`.
    fn arb_dist(rng: &mut arrayflow_workloads::Prng) -> Dist {
        match rng.below(4) {
            0 => Dist::Bottom,
            1 => Dist::Top,
            _ => Dist::Fin(rng.below(100)),
        }
    }

    #[test]
    fn lattice_laws_on_seeded_draws() {
        let mut rng = arrayflow_workloads::Prng::seed_from_u64(0x1a77);
        for _ in 0..2000 {
            let (a, b, c) = (arb_dist(&mut rng), arb_dist(&mut rng), arb_dist(&mut rng));
            // min is the meet: commutative, associative, idempotent, a
            // lower bound; max is the join.
            assert_eq!(a.min(b), b.min(a));
            assert_eq!(a.min(b).min(c), a.min(b.min(c)));
            assert_eq!(a.min(a), a);
            assert!(a.min(b) <= a && a.min(b) <= b);
            assert_eq!(a.max(b), b.max(a));
            assert_eq!(a.max(a), a);
            assert!(a.max(b) >= a && a.max(b) >= b);
            assert!(a > b || a.incr() <= b.incr(), "++ is monotone");
            assert_eq!(a.min(a.max(b)), a);
            assert_eq!(a.max(a.min(b)), a);
        }
    }

    #[test]
    fn lanes_agree_with_dist() {
        let big = [u32::MAX as u64 - 1, u32::MAX as u64, u32::MAX as u64 + 1];
        let dom: Vec<Dist> = std::iter::once(Dist::Bottom)
            .chain((0u64..8).chain(big).chain([i64::MAX as u64]).map(Dist::Fin))
            .chain(std::iter::once(Dist::Top))
            .collect();
        for &a in &dom {
            let la = lane::encode(a);
            assert_eq!(lane::decode(la), a, "round trip of {a}");
            assert_eq!(lane::decode(lane::incr(la)), a.incr(), "{a}++");
            for ub in [None, Some(1), Some(2), Some(9), Some(i64::MAX)] {
                let top_from = lane::top_from(ub);
                assert_eq!(
                    lane::decode(lane::normalize(la, top_from)),
                    a.normalize(ub),
                    "normalize {a} under {ub:?}"
                );
            }
            for &b in &dom {
                let lb = lane::encode(b);
                assert_eq!(lane::decode(la.min(lb)), a.min(b), "min({a}, {b})");
                assert_eq!(lane::decode(la.max(lb)), a.max(b), "max({a}, {b})");
            }
        }
    }
}
