//! Derivation of preserve constants (paper §3.1.2, §3.3, §3.4).
//!
//! For a generating reference `d = X[f₁(i)]` and a killing site
//! `d' = X[f₂(i)] ∈ K[n]`, the preserve function at node `n` is
//! `f(x) = min(x, p)` where the constant `p` bounds the previous instances
//! of `d` that `d'` can never redefine. With `f₁(i) = a₁·i + b₁` and
//! `f₂(i) = a₂·i + b₂`, a kill at distance `δ` requires `f₂(i) = f₁(i − δ)`,
//! i.e. `δ = k(i) = ((a₁ − a₂)·i + (b₁ − b₂)) / a₁` — so the shape of the
//! (rational, linear) function `k` over the iteration space `I = [1, UB]`
//! decides `p`:
//!
//! * `k ≡ pr(d, n)` — every instance is killed: `p = ⊥`;
//! * `k < pr` on all of `I` — nothing is killed: `p = ⊤`;
//! * otherwise `p = ⌈min{k(i) | i ∈ I, k(i) > pr}⌉ − 1`.
//!
//! `pr(d, n) = 0` iff `d`'s node precedes `n` within the iteration, else 1.
//! May-problems use the *definite kill* rule instead, and backward problems
//! negate `k`'s numerator. Everything here is exact integer/rational
//! arithmetic.
//!
//! The subscripts of one (generator, kill) pair are related once, into a
//! `Relation`, which every mode and the post-generate constant then
//! read. Symbol-free subscripts are read as `i64` rows `(a, b)` and
//! related by their unreduced differences over `a₁`; symbolic coefficients
//! are resolved through [`LinExpr::ratio`](arrayflow_ir::LinExpr::ratio)
//! into reduced rationals. Either way `k` reaches one integer kernel, run
//! in checked `i64`; a step that overflows re-runs the reduced derivation,
//! in `i64` and then `i128`, and undecidable cases fall back to the sound
//! side of the respective mode.

use arrayflow_graph::LoopGraph;
use arrayflow_ir::{AffineSub, LinExpr};

use crate::arith::{ceil_div, ratio, Int, Range};
use crate::lattice::Dist;
use crate::problem::{Direction, GenRef, KillKind, KillSite, Mode};

/// The `pr(d, n)` predicate: 0 if `d` occurs in a node that precedes `n`
/// in the direction of information flow, 1 otherwise (paper §3.1.2).
pub fn pr(
    gen: &GenRef,
    kill_node: arrayflow_graph::NodeId,
    graph: &LoopGraph,
    direction: Direction,
) -> u64 {
    let before = match direction {
        Direction::Forward => graph.precedes(gen.node, kill_node),
        Direction::Backward => graph.precedes(kill_node, gen.node),
    };
    u64::from(!before)
}

/// Computes the preserve constant `p` for one (generator, kill site) pair.
///
/// Returns `⊤` when the kill site concerns a different array.
pub fn preserve_constant(
    gen: &GenRef,
    kill: &KillSite,
    graph: &LoopGraph,
    direction: Direction,
    mode: Mode,
) -> Dist {
    let pr = pr(gen, kill.node, graph, direction);
    preserve_constant_with_pr(gen, kill, graph.ub, direction, mode, pr)
}

/// [`preserve_constant`] with an explicit `pr`. The post-generate kills of
/// [`post_preserve`] force `pr = 0`: a killer executing *after* the
/// generator within the same node can destroy even the instance created
/// this iteration.
pub fn preserve_constant_with_pr(
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
    Relation::of(Row::of(&gen.sub), Row::of_kill(kill), direction).constant(pr, ub, direction, mode)
}

/// One subscript of the pair walk, read once per generator or kill row:
/// its affine form and, when symbol-free, its `(a, b)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    sub: &'a AffineSub,
    ints: Option<(i64, i64)>,
}

impl<'a> Row<'a> {
    pub(crate) fn of(sub: &'a AffineSub) -> Self {
        Row {
            sub,
            ints: sub.as_constants(),
        }
    }

    /// A kill site's row; `None` for a kill of the whole array.
    pub(crate) fn of_kill(kill: &'a KillSite) -> Option<Self> {
        match &kill.kind {
            KillKind::Exact(sub) => Some(Row::of(sub)),
            KillKind::AllOfArray => None,
        }
    }
}

/// How the subscripts of one (generator, same-array kill) pair relate:
/// everything its preserve constants depend on besides `pr`, the trip
/// count and the mode. The flow table's pair walk derives it once per pair
/// and reads it in every mode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Relation<'a> {
    /// Kills the whole array (summary nodes, non-affine definitions).
    AllOfArray,
    /// A loop-invariant generator (`a₁ = 0`) and the kill's subscript.
    Invariant(&'a AffineSub, &'a AffineSub),
    /// `k(i) = (a·i + b) / d` with `d > 0`: the symbol-free rows'
    /// unreduced differences over `a₁`, negated together when `a₁ < 0`.
    /// None of the three is `i64::MIN`, so each step of the kernel scales
    /// the reduced derivation's by one positive factor and decides alike.
    Ints { a: i64, b: i64, d: i64 },
    /// `k(i) = qa·i + qb` as reduced rationals with positive
    /// denominators: symbolic subscripts, and the `i64::MIN` edges.
    Ratios((i64, i64), (i64, i64)),
    /// The relation cannot be decided: symbolic parts that do not cancel,
    /// or a difference or ratio that overflows `i64`.
    Undecidable,
}

impl<'a> Relation<'a> {
    /// Relates the generator's row `gen` to a kill's (`None` kills the
    /// whole array).
    pub(crate) fn of(gen: Row<'a>, kill: Option<Row<'a>>, direction: Direction) -> Self {
        let Some(kill) = kill else {
            return Relation::AllOfArray;
        };
        let denom = &gen.sub.coef;
        if denom.is_zero() {
            return Relation::Invariant(gen.sub, kill.sub);
        }
        // Numerator of k(i): forward (a₁−a₂)·i + (b₁−b₂); backward negated.
        let (g, k) = match direction {
            Direction::Forward => (gen, kill),
            Direction::Backward => (kill, gen),
        };
        let ratios = |qa: Option<(i64, i64)>, qb: Option<(i64, i64)>| match (qa, qb) {
            (Some(qa), Some(qb)) => Relation::Ratios(qa, qb),
            _ => Relation::Undecidable,
        };
        let (Some((ga, gb)), Some((ka, kb)), Some((a1, _))) = (g.ints, k.ints, gen.ints) else {
            let ratio = |a: &LinExpr, b: &LinExpr| a.checked_sub(b)?.ratio(denom);
            return ratios(
                ratio(&g.sub.coef, &k.sub.coef),
                ratio(&g.sub.rest, &k.sub.rest),
            );
        };
        let (Some(a), Some(b)) = (ga.checked_sub(ka), gb.checked_sub(kb)) else {
            return Relation::Undecidable;
        };
        if [a, b, a1].contains(&i64::MIN) {
            return ratios(ratio(a, a1), ratio(b, a1));
        }
        let s = a1.signum();
        Relation::Ints {
            a: a * s,
            b: b * s,
            d: a1 * s,
        }
    }

    /// The preserve constant under `pr`, the trip count `ub` and `mode`.
    pub(crate) fn constant(
        self,
        pr: u64,
        ub: Option<i64>,
        direction: Direction,
        mode: Mode,
    ) -> Dist {
        let decided = match (self, mode) {
            // Summary nodes / non-affine definitions: assume the worst for
            // must-information, the best (nothing definitely killed) for
            // may-information (paper §3.2, §3.3).
            (Relation::AllOfArray | Relation::Undecidable, _) => None,
            (Relation::Invariant(gen, kill), _) => invariant_generator(gen, kill, pr, ub, mode),
            (Relation::Ints { a, b, d }, Mode::May) => Some(definite_kill(a, b, d, pr, ub)),
            (Relation::Ratios(qa, qb), Mode::May) => Some(definite_kill(qa.0, qb.0, qb.1, pr, ub)),
            (Relation::Ints { a, b, d }, Mode::Must) => must_constant((a, b, d), pr, ub, direction)
                .or_else(|| {
                    let (qa, qb) = (ratio(a, d)?, ratio(b, d)?);
                    reduced_must_constant(qa, qb, pr, ub, direction)
                }),
            (Relation::Ratios(qa, qb), Mode::Must) => {
                reduced_must_constant(qa, qb, pr, ub, direction)
            }
        };
        decided.unwrap_or(undecidable(mode))
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
    gen: &AffineSub,
    kill_sub: &AffineSub,
    pr: u64,
    ub: Option<i64>,
    mode: Mode,
) -> Option<Dist> {
    // b₁ − b₂: the killer hits the location when a₂·i = b₁ − b₂.
    let diff = gen.rest.checked_sub(&kill_sub.rest)?;
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

/// [`must_constant`] for `k(i) = qa·i + qb` (reduced rationals with
/// positive denominators) over their common denominator, in checked `i64`
/// and re-run in `i128` when a step overflows; `None` when an `i128` step
/// overflows too (e.g. `X[4611686018427387903·i]` over a trip count near
/// `i64::MAX`), which the caller answers with the sound `undecidable`
/// constant.
fn reduced_must_constant(
    qa: (i64, i64),
    qb: (i64, i64),
    pr: u64,
    ub: Option<i64>,
    direction: Direction,
) -> Option<Dist> {
    fn over<T: Int>(qa: (i64, i64), qb: (i64, i64)) -> Option<(T, T, T)> {
        let of = T::of;
        Some((
            of(qa.0).mul(of(qb.1))?,
            of(qb.0).mul(of(qa.1))?,
            of(qa.1).mul(of(qb.1))?,
        ))
    }
    over::<i64>(qa, qb)
        .and_then(|k| must_constant(k, pr, ub, direction))
        .or_else(|| must_constant(over::<i128>(qa, qb)?, pr, ub, direction))
}

/// Must-mode constant for `k(i) = (a·i + b) / dn` with `dn > 0`.
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
/// Every test below answers alike when `(a, b, dn)` are scaled by one
/// positive factor, so the reduced and the unreduced forms of one `k`
/// decide the same constant. Every step is checked arithmetic in `T`:
/// `None` when one overflows.
fn must_constant<T: Int>(
    (a, b, dn): (T, T, T),
    pr: u64,
    ub: Option<i64>,
    direction: Direction,
) -> Option<Dist> {
    let (of, pr) = (T::of, T::of_u64(pr)?);
    debug_assert!(dn > T::ZERO);
    let pr_d = pr.mul(dn)?;
    if a == T::ZERO {
        // k is the constant b / dn.
        if b < pr_d {
            return Some(Dist::Top); // k < pr: no instance killed
        }
        if b.rem(dn)? != T::ZERO {
            // Non-integer constant: a kill would need an integer distance,
            // so none ever occurs. (Slightly sharper than the paper's
            // ⌈k⌉ − 1 approximation, and exact.)
            return Some(Dist::Top);
        }
        // Integer constant c ≥ pr: a kill at distance c needs a valid
        // source iteration, i.e. the loop must run at least c + 1 times.
        let c = b.div(dn)?;
        if ub.is_some_and(|ub| of(ub) <= c) {
            return Some(Dist::Top);
        }
        return Some(if b == pr_d {
            Dist::Bottom // k ≡ pr: every instance killed
        } else {
            Dist::Fin(c.sub(T::ONE)?.to_u64()?) // c > pr: p = c − 1
        });
    }

    // Feasible killing iterations satisfy, simultaneously:
    //   1 ≤ i ≤ UB                              (iteration space)
    //   instance existence (see above)
    //   a·i + b ≥ pr·dn (+1 for strict)         (kill depth)
    // All are linear in i; intersect them into [lo, hi].
    let mut range = Range {
        lo: T::ONE,
        hi: ub.map_or(T::UNBOUNDED, of),
    };
    match (direction, ub) {
        // i − k(i) ≥ 1  ⟺  (dn − a)·i ≥ b + dn
        (Direction::Forward, _) => range.at_least(dn.sub(a)?, b.add(dn)?)?,
        // i + k(i) ≤ UB ⟺ −(dn + a)·i ≥ b − UB·dn (only with a known UB)
        (Direction::Backward, Some(u)) => {
            range.at_least(dn.add(a)?.neg()?, b.sub(of(u).mul(dn)?)?)?
        }
        (Direction::Backward, None) => {}
    }

    // Exact hit at distance pr within the feasible range → ⊥ (the paper's
    // case-1 answer extended to non-constant k; its ⌈min k > pr⌉ − 1
    // approximation alone would be unsound here).
    let c0 = pr_d.sub(b)?; // a·i == c0 ⟺ k(i) == pr
    if c0.rem(a)? == T::ZERO && (range.lo..=range.hi).contains(&c0.div(a)?) {
        return Some(Dist::Bottom);
    }

    // Strictly-above-pr kills: add a·i ≥ pr·dn − b + 1 and take the minimum
    // k over the interval (at the lo end when k increases, hi when it
    // decreases).
    range.at_least(a, c0.add(T::ONE)?)?;
    let Range { lo, hi } = range;
    if lo > hi {
        return Some(Dist::Top);
    }
    let i_star = if a > T::ZERO { lo } else { hi };
    let k_num = a.mul(i_star)?.add(b)?;
    let p = ceil_div(k_num, dn)?.sub(T::ONE)?;
    Some(Dist::Fin(p.to_u64()?))
}

/// May-mode *definite kill* rule (paper §3.3) for `k(i) = (a·i + b) / d`
/// with `d > 0`: only a killer of the form `X[f(i) + c]` (integer constant
/// k) definitely destroys instances — and only when the loop runs long
/// enough (`UB ≥ c + 1`) for a killed instance to exist at all. No step
/// can overflow.
fn definite_kill(a: i64, b: i64, d: i64, pr: u64, ub: Option<i64>) -> Dist {
    if a != 0 || b % d != 0 {
        return Dist::Top;
    }
    let c = b / d;
    if c < 0 || (c as u64) < pr || ub.is_some_and(|ub| ub <= c) {
        return Dist::Top;
    }
    if c as u64 == pr {
        Dist::Bottom // kills every instance it can ever see
    } else {
        Dist::Fin(c as u64 - 1)
    }
}

/// The *post-generate* preserve constant of one kill site `kill` in the
/// generator's own node: kill sites that execute **after** the generating
/// reference in the direction of flow can destroy the distance-0 instance
/// the node just created — a case the paper's `pr = 1` same-node
/// convention does not cover (e.g. in `A[2i−1] := A[i+2] + 2`, the
/// definition overwrites the element the use just read whenever
/// `2i−1 = i+2`). `⊤` when the site does not post-kill.
///
/// Within an assignment, uses execute before the definition; so forward
/// problems post-kill use-generators by the statement's definition, and
/// backward problems post-kill the definition by the statement's uses.
/// Summary nodes have unknown internal order, so every non-self kill site
/// applies. A kill site that *is* the generator never post-kills it.
pub fn post_preserve(
    gen: &GenRef,
    kill: &KillSite,
    graph: &LoopGraph,
    direction: Direction,
    mode: Mode,
) -> Dist {
    match post_kills(gen, kill, graph, direction) {
        true => preserve_constant_with_pr(gen, kill, graph.ub, direction, mode, 0),
        false => Dist::Top,
    }
}

/// Whether `kill`, a site in `gen`'s own node, can post-kill it (see
/// [`post_preserve`]), in every mode alike.
pub(crate) fn post_kills(
    gen: &GenRef,
    kill: &KillSite,
    graph: &LoopGraph,
    direction: Direction,
) -> bool {
    let self_site = match (gen.origin, kill.origin) {
        (Some(a), Some(b)) => a == b,
        // Hand-built specs without origins: a def kill with the generator's
        // own subscript in the generator's node is the generator.
        _ => gen.is_def == kill.is_def && matches!(&kill.kind, KillKind::Exact(s) if *s == gen.sub),
    };
    let applies = graph.node(kill.node).is_summary()
        || match direction {
            Direction::Forward => kill.is_def && !gen.is_def,
            Direction::Backward => !kill.is_def && gen.is_def,
        };
    !self_site && applies
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_graph::{build_loop_graph, NodeId};
    use arrayflow_ir::{parse_program, AffineSub};

    /// Builds a two-statement loop `X[<gen>] := 0; X[<kill>] := 0;` and
    /// returns the preserve constant of the *gen* (first statement) with
    /// respect to the kill site in the *second* statement — i.e. pr = 0.
    fn p_of(gen_sub: AffineSub, kill_sub: AffineSub, ub: Option<i64>, mode: Mode) -> Dist {
        let ub_txt = ub.map_or("UB".to_string(), |u| u.to_string());
        let prog =
            parse_program(&format!("do i = 1, {ub_txt} X[i] := 0; X[i+1] := 0; end")).unwrap();
        let graph = build_loop_graph(prog.sole_loop().unwrap());
        // Nodes: 0 = entry, 1 = first assign, 2 = second assign, 3 = exit.
        let gen = GenRef {
            id: crate::problem::RefId(0),
            node: NodeId(1),
            aref: arrayflow_ir::ArrayRef::new(
                prog.symbols.lookup_array("X").unwrap(),
                arrayflow_ir::Expr::Const(0),
            )
            .into(),
            sub: gen_sub.into(),
            is_def: true,
            stmt: None,
            origin: None,
        };
        let kill = KillSite {
            node: NodeId(2),
            array: prog.symbols.lookup_array("X").unwrap(),
            kind: KillKind::Exact(kill_sub.into()),
            is_def: true,
            origin: None,
        };
        preserve_constant(&gen, &kill, &graph, Direction::Forward, mode)
    }

    #[test]
    fn identical_references_kill_everything() {
        // d = X[i], d' = X[i] in a later node: k ≡ 0 = pr → ⊥.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(1, 0),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Bottom);
    }

    #[test]
    fn paper_case_no_kill() {
        // d = X[i], d' = X[i+2]: k ≡ −2 < pr → ⊤ (the paper's example).
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(1, 2),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
    }

    #[test]
    fn paper_case_constant_distance() {
        // d = X[i+2], d' = X[i]: k ≡ 2 → p = 1 (the f₃ component of Fig. 3).
        let p = p_of(
            AffineSub::simple(1, 2),
            AffineSub::simple(1, 0),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Fin(1));
    }

    #[test]
    fn paper_case_fractional_slope() {
        // d = X[2i], d' = X[i]: k(i) = i/2; min above 0 is k(1) = ½ → p = 0
        // (the f₄ component of Fig. 3).
        let p = p_of(
            AffineSub::simple(2, 0),
            AffineSub::simple(1, 0),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Fin(0));
    }

    #[test]
    fn decreasing_k_with_unknown_bound() {
        // d = X[i], d' = X[2i]: k(i) = −i < 0 everywhere → ⊤.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(2, 0),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
    }

    #[test]
    fn k_crossing_pr_kills_everything() {
        // d = X[i], d' = X[4 − i]: k(i) = 2i − 4 hits pr = 0 at i = 2 — the
        // killer overwrites the *current* instance there, so nothing is
        // preserved (the ⌈min k > pr⌉ − 1 shortcut alone would unsoundly
        // report 1).
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(-1, 4),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Bottom);
    }

    #[test]
    fn k_missing_pr_by_parity_uses_min_above() {
        // d = X[i], d' = X[5 − i]: k(i) = 2i − 5 is always odd, never 0;
        // smallest qualifying value is k(3) = 1 → p = 0.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(-1, 5),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Fin(0));
    }

    #[test]
    fn kills_of_preloop_instances_do_not_count() {
        // d = X[i+100], d' = X[2i] with UB = 10: k(i) = 100 − i suggests
        // kills at huge distances, but the "killed" instances would have
        // been generated before iteration 1 — the killer only ever writes
        // locations ≤ 20 while the generator writes ≥ 101. No kill: ⊤.
        let p = p_of(
            AffineSub::simple(1, 100),
            AffineSub::simple(2, 0),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
        // A genuine in-range kill: d = X[i], d' = X[2i−3], UB = 10:
        // k(i) = 3 − i hits distance 0 at i = 3 (the killer rewrites the
        // element the generator just wrote) → ⊥.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(2, -3),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Bottom);
        // Clamp UB to 2: the distance-0 hit at i = 3 is outside the loop;
        // the only real kill is δ = 1 at i = 2 (source iteration 1) → p = 0.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(2, -3),
            Some(2),
            Mode::Must,
        );
        assert_eq!(p, Dist::Fin(0));
    }

    #[test]
    fn non_integer_constant_k_never_kills() {
        // d = X[2i+1], d' = X[2i]: k ≡ ((2−2)i + 1)/2 = ½ → no integer
        // distance ever matches → ⊤ (odd vs even locations).
        let p = p_of(
            AffineSub::simple(2, 1),
            AffineSub::simple(2, 0),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
    }

    #[test]
    fn may_mode_definite_kill() {
        // d = X[i], d' = X[i+3]: k ≡ … wait for may we need the killer to
        // overwrite *previous* instances: d = X[i+3], d' = X[i] gives
        // k ≡ 3 > pr → p = 2.
        let p = p_of(
            AffineSub::simple(1, 3),
            AffineSub::simple(1, 0),
            None,
            Mode::May,
        );
        assert_eq!(p, Dist::Fin(2));
        // Identical refs: definite kill of everything.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(1, 0),
            None,
            Mode::May,
        );
        assert_eq!(p, Dist::Bottom);
        // Different slopes: never definite → all preserved.
        let p = p_of(
            AffineSub::simple(2, 0),
            AffineSub::simple(1, 0),
            None,
            Mode::May,
        );
        assert_eq!(p, Dist::Top);
    }

    #[test]
    fn invariant_generator_cases() {
        // X[5] vs X[5]: same location every iteration → ⊥ (must & may).
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(0, 5),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Bottom);
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(0, 5),
            None,
            Mode::May,
        );
        assert_eq!(p, Dist::Bottom);
        // X[5] vs X[7]: disjoint → ⊤.
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(0, 7),
            None,
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
        // X[5] vs X[i]: the sweep hits location 5 at i = 5 → ⊥ (must).
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(1, 0),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Bottom);
        // X[5] vs X[i] with UB = 3: never reaches 5 → ⊤.
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(1, 0),
            Some(3),
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
        // X[5] vs X[2i]: 5 is odd → ⊤.
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(2, 0),
            Some(10),
            Mode::Must,
        );
        assert_eq!(p, Dist::Top);
        // May-mode sweeping killer: never definite → ⊤.
        let p = p_of(
            AffineSub::simple(0, 5),
            AffineSub::simple(1, 0),
            Some(10),
            Mode::May,
        );
        assert_eq!(p, Dist::Top);
    }

    #[test]
    fn all_of_array_kills() {
        let prog = parse_program("do i = 1, 10 X[i] := 0; X[i+1] := 0; end").unwrap();
        let graph = build_loop_graph(prog.sole_loop().unwrap());
        let x = prog.symbols.lookup_array("X").unwrap();
        let gen = GenRef {
            id: crate::problem::RefId(0),
            node: NodeId(1),
            aref: arrayflow_ir::ArrayRef::new(x, arrayflow_ir::Expr::Const(0)).into(),
            sub: AffineSub::simple(1, 0).into(),
            is_def: true,
            stmt: None,
            origin: None,
        };
        let kill = KillSite {
            node: NodeId(2),
            array: x,
            kind: KillKind::AllOfArray,
            is_def: true,
            origin: None,
        };
        assert_eq!(
            preserve_constant(&gen, &kill, &graph, Direction::Forward, Mode::Must),
            Dist::Bottom
        );
        assert_eq!(
            preserve_constant(&gen, &kill, &graph, Direction::Forward, Mode::May),
            Dist::Top
        );
    }

    #[test]
    fn other_array_is_ignored() {
        let prog = parse_program("do i = 1, 10 X[i] := 0; Y[i] := 0; end").unwrap();
        let graph = build_loop_graph(prog.sole_loop().unwrap());
        let gen = GenRef {
            id: crate::problem::RefId(0),
            node: NodeId(1),
            aref: arrayflow_ir::ArrayRef::new(
                prog.symbols.lookup_array("X").unwrap(),
                arrayflow_ir::Expr::Const(0),
            )
            .into(),
            sub: AffineSub::simple(1, 0).into(),
            is_def: true,
            stmt: None,
            origin: None,
        };
        let kill = KillSite {
            node: NodeId(2),
            array: prog.symbols.lookup_array("Y").unwrap(),
            kind: KillKind::Exact(AffineSub::simple(1, 0).into()),
            is_def: true,
            origin: None,
        };
        assert_eq!(
            preserve_constant(&gen, &kill, &graph, Direction::Forward, Mode::Must),
            Dist::Top
        );
    }

    #[test]
    fn backward_direction_negates_k() {
        // Backward (e.g. δ-busy stores): gen d = X[i], kill d' = X[i+1]
        // *below* it. Backward k(i) = ((a₂−a₁)i + (b₂−b₁))/a₁ = 1 → p = 0
        // … with pr: in backward flow the kill node (2) precedes the gen
        // node (1)?? Information flows upward; gen at node 1, killer at
        // node 2: node 2 does NOT precede node 1 in backward flow
        // (backward order is 2 before 1 → precedes). So pr = 0 and k ≡ 1 >
        // 0 → p = 0.
        let p = p_of(
            AffineSub::simple(1, 0),
            AffineSub::simple(1, 1),
            None,
            Mode::Must,
        );
        // forward control: gen in node 1, kill in node 2; backward flow
        // visits node 2 first, so the kill site *precedes* the generator.
        let prog = parse_program("do i = 1, 10 X[i] := 0; X[i+1] := 0; end").unwrap();
        let graph = build_loop_graph(prog.sole_loop().unwrap());
        let x = prog.symbols.lookup_array("X").unwrap();
        // Generator is the *second* statement (node 2) for a backward
        // problem; killer is the first (node 1).
        let gen = GenRef {
            id: crate::problem::RefId(0),
            node: NodeId(2),
            aref: arrayflow_ir::ArrayRef::new(x, arrayflow_ir::Expr::Const(0)).into(),
            sub: AffineSub::simple(1, 0).into(),
            is_def: true,
            stmt: None,
            origin: None,
        };
        let kill = KillSite {
            node: NodeId(1),
            array: x,
            kind: KillKind::Exact(AffineSub::simple(1, 1).into()),
            is_def: true,
            origin: None,
        };
        let pb = preserve_constant(&gen, &kill, &graph, Direction::Backward, Mode::Must);
        // Backward k ≡ ((1−1)i + (1−0))/1 = 1 > pr = 0 → p = 0.
        assert_eq!(pb, Dist::Fin(0));
        let _ = p;
    }

    #[test]
    fn overflowing_arithmetic_is_undecidable() {
        // X[i + MAX] against X[i − MAX]: the offset difference overflows
        // i64, so the relation is undecidable — ⊥ for must, ⊤ for may.
        let (max, min1) = (
            AffineSub::simple(1, i64::MAX),
            AffineSub::simple(1, -i64::MAX),
        );
        assert_eq!(
            p_of(max.clone(), min1.clone(), None, Mode::Must),
            Dist::Bottom
        );
        assert_eq!(p_of(max, min1, None, Mode::May), Dist::Top);
        // X[(2⁶²−1)·i] against X[i+1] over 9·10¹⁸ iterations: a·i* + b
        // overflows i128 in the must derivation.
        let big = AffineSub::simple(4611686018427387903, 0);
        let ub = Some(9_000_000_000_000_000_000);
        assert_eq!(
            p_of(big.clone(), AffineSub::simple(1, 1), ub, Mode::Must),
            Dist::Bottom
        );
        assert_eq!(p_of(big, AffineSub::simple(3, 0), ub, Mode::May), Dist::Top);
        // An invariant generator against a killer whose location
        // difference overflows.
        let (hi, lo) = (
            AffineSub::simple(0, i64::MAX),
            AffineSub::simple(-1, i64::MIN),
        );
        assert_eq!(p_of(hi, lo, None, Mode::Must), Dist::Bottom);
    }
}
