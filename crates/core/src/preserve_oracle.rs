//! The reference the integer preserve kernel is checked against: the
//! derivation as it stood before symbol-free subscripts got their own
//! path — both subscripts differenced as [`LinExpr`]s, divided through
//! [`LinExpr::ratio`], and every must-mode step in checked `i128`.
//! The tests run both over a dense grid of small subscripts, the `i64`
//! overflow edges and symbolic subscripts, and require equal constants.

use arrayflow_ir::{AffineSub, LinExpr};

use crate::lattice::Dist;
use crate::problem::{Direction, GenRef, KillKind, KillSite, Mode};

/// The reference `preserve_constant_with_pr`.
fn preserve_constant_with_pr(
    gen: &GenRef,
    kill: &KillSite,
    ub: Option<i64>,
    direction: Direction,
    mode: Mode,
    pr: u64,
) -> Dist {
    if kill.array != gen.aref.array {
        return Dist::Top;
    }
    let kill_sub = match &kill.kind {
        KillKind::AllOfArray => {
            // Summary nodes / non-affine definitions: assume the worst for
            // must-information, the best (nothing definitely killed) for
            // may-information (paper §3.2, §3.3).
            return match mode {
                Mode::Must => Dist::Bottom,
                Mode::May => Dist::Top,
            };
        }
        KillKind::Exact(sub) => sub,
    };

    let denom = &gen.sub.coef;
    if denom.is_zero() {
        return invariant_generator(gen, kill_sub, pr, ub, mode).unwrap_or(undecidable(mode));
    }
    // Numerator of k(i): forward (a₁−a₂)·i + (b₁−b₂); backward negated.
    let (g, k) = match direction {
        Direction::Forward => (&gen.sub, kill_sub),
        Direction::Backward => (kill_sub, &gen.sub),
    };
    // k(i) = qa·i + qb with qa = Δa/a₁ and qb = Δb/a₁, both exact rationals
    // when they exist at all (symbolic parts must cancel). A difference
    // or ratio that overflows `i64` is as undecidable as a symbolic one.
    let ratio = |a: &LinExpr, b: &LinExpr| a.checked_sub(b)?.ratio(denom);
    let (Some(qa), Some(qb)) = (ratio(&g.coef, &k.coef), ratio(&g.rest, &k.rest)) else {
        return undecidable(mode);
    };
    match mode {
        Mode::May => definite_kill(qa, qb, pr, ub),
        Mode::Must => must_constant(qa, qb, pr, ub, direction).unwrap_or(undecidable(mode)),
    }
}

/// Sound fallback when the subscript relation cannot be decided.
fn undecidable(mode: Mode) -> Dist {
    match mode {
        Mode::Must => Dist::Bottom,
        Mode::May => Dist::Top,
    }
}

/// The generator is loop-invariant (`a₁ = 0`): all its instances share one
/// location, so any killer that can touch that location destroys them all.
/// `None` when the location difference overflows `i64`.
fn invariant_generator(
    gen: &GenRef,
    kill_sub: &AffineSub,
    pr: u64,
    ub: Option<i64>,
    mode: Mode,
) -> Option<Dist> {
    // b₁ − b₂: the killer hits the location when a₂·i = b₁ − b₂.
    let diff = gen.sub.rest.checked_sub(&kill_sub.rest)?;
    if kill_sub.coef.is_zero() {
        // Invariant vs invariant: overlap iff b₂ = b₁.
        if diff.is_zero() {
            // Same location rewritten every iteration.
            return Some(match (mode, pr) {
                (Mode::Must, _) => Dist::Bottom,
                (Mode::May, 0) => Dist::Bottom,
                (Mode::May, _) => Dist::Top, // δ < pr instances are unaffected
            });
        }
        // Provably disjoint locations, unless the difference is symbolic.
        return diff.is_constant().then_some(Dist::Top);
    }
    // Invariant generator vs a sweeping killer a₂·i + b₂.
    match mode {
        Mode::May => Some(Dist::Top), // never a definite per-distance kill
        Mode::Must => {
            let (Some(a2), Some(d)) = (kill_sub.coef.as_constant(), diff.as_constant()) else {
                return Some(Dist::Bottom);
            };
            let (a2, d) = (a2 as i128, d as i128);
            let hit = d % a2 == 0 && d / a2 >= 1 && ub.is_none_or(|ub| d / a2 <= ub as i128);
            Some(if hit { Dist::Bottom } else { Dist::Top })
        }
    }
}

/// Must-mode constant for `k(i) = qa·i + qb` (rationals as reduced
/// `(num, den)` pairs with positive denominators).
///
/// A kill at distance `δ = k(i)` is only real when the killed instance
/// *exists*: the generator must have run at iteration `i − δ ≥ 1`
/// (forward), resp. will run at `i + δ ≤ UB` (backward). The paper's
/// derivation leaves this implicit ("the range of previous instances");
/// making it explicit is both necessary for precision (an invariant
/// `X[3]` never kills instances of `X[i+4]`, because `i = −1` is outside
/// the loop) and keeps the subsumption property over the dependence-based
/// baseline.
///
/// Every step is checked `i128` arithmetic: `None` when one overflows
/// (e.g. `X[4611686018427387903·i]` over a trip count near `i64::MAX`),
/// which the caller answers with the sound `undecidable` constant.
fn must_constant(
    qa: (i64, i64),
    qb: (i64, i64),
    pr: u64,
    ub: Option<i64>,
    direction: Direction,
) -> Option<Dist> {
    let pr = pr as i128;
    if qa.0 == 0 {
        // k is the constant qb.
        let (n, d) = (qb.0 as i128, qb.1 as i128);
        if n < pr * d {
            return Some(Dist::Top); // k < pr: no instance killed
        }
        if d != 1 && n != pr * d {
            // Non-integer constant: a kill would need an integer distance,
            // so none ever occurs. (Slightly sharper than the paper's
            // ⌈k⌉ − 1 approximation, and exact.)
            return Some(Dist::Top);
        }
        // Integer constant c ≥ pr: a kill at distance c needs a valid
        // source iteration, i.e. the loop must run at least c + 1 times.
        let c = n / d;
        if ub.is_some_and(|ub| (ub as i128) < c + 1) {
            return Some(Dist::Top);
        }
        return Some(if n == pr * d {
            Dist::Bottom // k ≡ pr: every instance killed
        } else {
            Dist::Fin((c - 1) as u64) // c > pr: p = c − 1
        });
    }

    // Common denominator: k(i) = (A·i + B) / Dn with Dn > 0.
    let a = qa.0 as i128 * qb.1 as i128;
    let b = qb.0 as i128 * qa.1 as i128;
    let dn = qa.1 as i128 * qb.1 as i128;
    debug_assert!(dn > 0);

    // Feasible killing iterations satisfy, simultaneously:
    //   1 ≤ i ≤ UB                              (iteration space)
    //   instance existence (see above)
    //   A·i + B ≥ pr·Dn (+1 for strict)         (kill depth)
    // All are linear in i; intersect them into [lo, hi].
    let mut range = Range {
        lo: 1,
        hi: ub.map_or(i128::MAX / 4, |u| u as i128),
    };
    match (direction, ub) {
        // i − k(i) ≥ 1  ⟺  (Dn − A)·i ≥ B + Dn
        (Direction::Forward, _) => range.at_least(dn.checked_sub(a)?, b.checked_add(dn)?),
        // i + k(i) ≤ UB ⟺ −(Dn + A)·i ≥ B − UB·Dn (only with a known UB)
        (Direction::Backward, Some(u)) => range.at_least(
            dn.checked_add(a)?.checked_neg()?,
            b.checked_sub((u as i128).checked_mul(dn)?)?,
        ),
        (Direction::Backward, None) => {}
    }

    // Exact hit at distance pr within the feasible range → ⊥ (the paper's
    // case-1 answer extended to non-constant k; its ⌈min k > pr⌉ − 1
    // approximation alone would be unsound here).
    let c0 = (pr * dn).checked_sub(b)?; // A·i == c0 ⟺ k(i) == pr
    if c0 % a == 0 && (range.lo..=range.hi).contains(&(c0 / a)) {
        return Some(Dist::Bottom);
    }

    // Strictly-above-pr kills: add A·i ≥ pr·Dn − B + 1 and take the minimum
    // k over the interval (at the lo end when k increases, hi when it
    // decreases).
    range.at_least(a, c0.checked_add(1)?);
    let Range { lo, hi } = range;
    if lo > hi {
        return Some(Dist::Top);
    }
    let i_star = if a > 0 { lo } else { hi };
    let k_num = a.checked_mul(i_star)?.checked_add(b)?;
    debug_assert!(k_num > pr * dn);
    let p = ceil_div(k_num, dn) - 1;
    debug_assert!(p >= 0);
    Some(Dist::Fin(u64::try_from(p).ok()?))
}

/// The integer iterations satisfying a conjunction of constraints
/// `e·i ≥ f`: `[lo, hi]`, empty when `lo > hi`.
struct Range {
    lo: i128,
    hi: i128,
}

impl Range {
    /// Intersects with `e·i ≥ f`.
    fn at_least(&mut self, e: i128, f: i128) {
        match e.cmp(&0) {
            std::cmp::Ordering::Greater => self.lo = self.lo.max(ceil_div(f, e)),
            std::cmp::Ordering::Less => self.hi = self.hi.min(floor_div(f, e)),
            // 0 ≥ f: all or nothing.
            std::cmp::Ordering::Equal if f > 0 => self.hi = self.lo - 1,
            std::cmp::Ordering::Equal => {}
        }
    }
}

/// May-mode *definite kill* rule (paper §3.3): only a killer of the form
/// `X[f(i) + c]` (constant k) definitely destroys instances — and only
/// when the loop runs long enough (`UB ≥ c + 1`) for a killed instance to
/// exist at all.
fn definite_kill(qa: (i64, i64), qb: (i64, i64), pr: u64, ub: Option<i64>) -> Dist {
    if qa.0 != 0 {
        return Dist::Top;
    }
    let (n, d) = (qb.0 as i128, qb.1 as i128);
    let pr = pr as i128;
    if d == 1 && n >= pr {
        let c = n;
        if let Some(ub) = ub {
            if (ub as i128) < c + 1 {
                return Dist::Top;
            }
        }
        if c == pr {
            return Dist::Bottom; // kills every instance it can ever see
        }
        return Dist::Fin((c - 1) as u64);
    }
    Dist::Top
}

fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RefId;
    use arrayflow_graph::NodeId;
    use arrayflow_ir::{ArrayId, ArrayRef, Expr, VarId};

    fn gen_of(sub: AffineSub) -> GenRef {
        GenRef {
            id: RefId(0),
            node: NodeId(1),
            aref: ArrayRef::new(ArrayId(0), Expr::Const(0)).into(),
            sub: sub.into(),
            is_def: true,
            stmt: None,
            origin: Some(0),
        }
    }

    fn kill_of(sub: AffineSub) -> KillSite {
        KillSite {
            node: NodeId(2),
            array: ArrayId(0),
            kind: KillKind::Exact(sub.into()),
            is_def: true,
            origin: Some(1),
        }
    }

    /// Requires the kernel and the reference to agree on every pair of
    /// `subs`, `pr ∈ {0, 1}`, every trip count of `ubs`, both directions
    /// and both modes. The kernel is read as the flow table's pair walk
    /// reads it — each subscript read once as a row, each pair related
    /// once per direction and that relation read in both modes, `pr = 0`
    /// being the post-generate constant — and through the one-pair
    /// `preserve_constant_with_pr`.
    fn agree(subs: &[AffineSub], ubs: &[Option<i64>]) -> usize {
        use crate::preserve::{Relation, Row};
        let gens: Vec<GenRef> = subs.iter().cloned().map(gen_of).collect();
        let kills: Vec<KillSite> = subs.iter().cloned().map(kill_of).collect();
        let kill_rows: Vec<Option<Row>> = kills.iter().map(Row::of_kill).collect();
        let mut cases = 0;
        for gen in &gens {
            let gen_row = Row::of(&gen.sub);
            for (kill, &kill_row) in kills.iter().zip(&kill_rows) {
                for direction in [Direction::Forward, Direction::Backward] {
                    let relation = Relation::of(gen_row, kill_row, direction);
                    for (pr, &ub) in [0, 1]
                        .into_iter()
                        .flat_map(|pr| ubs.iter().map(move |ub| (pr, ub)))
                    {
                        for mode in [Mode::Must, Mode::May] {
                            let reference =
                                preserve_constant_with_pr(gen, kill, ub, direction, mode, pr);
                            let ctx = || {
                                format!(
                                    "gen {:?}, kill {:?}, pr {pr}, ub {ub:?}, {direction:?}, {mode:?}",
                                    gen.sub, kill.kind
                                )
                            };
                            let row = relation.constant(pr, ub, direction, mode);
                            assert_eq!(row, reference, "row kernel: {}", ctx());
                            let one = crate::preserve::preserve_constant_with_pr(
                                gen, kill, ub, direction, mode, pr,
                            );
                            assert_eq!(one, reference, "one pair: {}", ctx());
                            cases += 1;
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn integer_kernel_matches_reference_on_small_subscripts() {
        let subs: Vec<AffineSub> = (-3..=3)
            .flat_map(|a| (-8..=8).map(move |b| AffineSub::simple(a, b)))
            .collect();
        let ubs = [None, Some(1), Some(2), Some(3), Some(7), Some(100)];
        assert_eq!(agree(&subs, &ubs), 119 * 119 * 2 * 6 * 4);
    }

    #[test]
    fn integer_kernel_matches_reference_at_the_overflow_edges() {
        let coefs = [
            -3,
            -1,
            0,
            1,
            2,
            3,
            1 << 62,
            -(1 << 62),
            (1 << 62) - 1,
            i64::MAX,
            i64::MIN,
        ];
        let offsets = [-8, 0, 1, 8, 1 << 62, i64::MAX, -i64::MAX, i64::MIN];
        let subs: Vec<AffineSub> = coefs
            .iter()
            .flat_map(|&a| offsets.iter().map(move |&b| AffineSub::simple(a, b)))
            .collect();
        let ubs = [
            None,
            Some(1),
            Some(100),
            Some(1 << 62),
            Some(9_000_000_000_000_000_000),
            Some(i64::MAX - 1),
            Some(i64::MAX),
        ];
        assert_eq!(agree(&subs, &ubs), 88 * 88 * 2 * 7 * 4);
    }

    #[test]
    fn symbolic_subscripts_match_reference() {
        // (s·N + c)·i + (t·N + d): symbolic on either side, constant where
        // s = t = 0, so mixed pairs take the symbolic path too.
        let n = VarId(7);
        let lin = |k: i64, c: i64| LinExpr::term(n, k) + LinExpr::constant(c);
        let mut subs = Vec::new();
        for s in [0, 1] {
            for c in [-1, 0, 2] {
                for t in [-1, 0, 1] {
                    for d in [-2, 0, 3] {
                        subs.push(AffineSub {
                            coef: lin(s, c),
                            rest: lin(t, d),
                        });
                    }
                }
            }
        }
        assert_eq!(
            agree(&subs, &[None, Some(3), Some(50)]),
            54 * 54 * 2 * 3 * 4
        );
    }
}
