//! Ground-truth validation of the preserve-constant derivation: for small
//! integer subscript pairs, compare the closed-form `p` of
//! `preserve_constant_with_pr` against a brute-force enumeration of every
//! (iteration, distance) kill over the concrete iteration space.
//!
//! Soundness (must-mode): the computed `p` never exceeds the true maximal
//! preserved distance. For may-mode the dual holds: the computed `p` never
//! *underestimates* what may survive a definite kill.
//!
//! Cases are drawn from the in-crate seeded xoshiro PRNG, so the suite is
//! deterministic and runs in the default offline build.

use arrayflow_core::preserve::preserve_constant_with_pr;
use arrayflow_core::{Direction, Dist, GenRef, KillKind, KillSite, RefId};
use arrayflow_graph::NodeId;
use arrayflow_ir::{AffineSub, ArrayRef, Expr};
use arrayflow_workloads::Prng;

fn gen_of(a: i64, b: i64) -> GenRef {
    GenRef {
        id: RefId(0),
        node: NodeId(1),
        aref: ArrayRef::new(arrayflow_ir::ArrayId(0), Expr::Const(0)).into(),
        sub: AffineSub::simple(a, b).into(),
        is_def: true,
        stmt: None,
        origin: Some(0),
    }
}

fn kill_of(a: i64, b: i64) -> KillSite {
    KillSite {
        node: NodeId(2),
        array: arrayflow_ir::ArrayId(0),
        kind: KillKind::Exact(AffineSub::simple(a, b).into()),
        is_def: true,
        origin: Some(1),
    }
}

/// Brute-force "true" preserve constant: the largest δ (≤ UB − 1) such
/// that no killer execution destroys an existing generator instance at any
/// distance δ' with pr ≤ δ' ≤ δ. Returns `Dist::Bottom` when even δ = pr
/// fails (matching the paper's convention that δ < pr never matters).
fn brute_force(
    (a1, b1): (i64, i64),
    (a2, b2): (i64, i64),
    pr: u64,
    ub: i64,
    direction: Direction,
) -> Dist {
    let killed = |delta: i64| -> bool {
        for i in 1..=ub {
            // Killer at iteration i touches f2(i); the generator instance
            // at distance delta (relative to i, in flow direction) sits at
            // f1(source) where source must be a real iteration.
            let source = match direction {
                Direction::Forward => i - delta,
                Direction::Backward => i + delta,
            };
            if source < 1 || source > ub {
                continue;
            }
            if a2 * i + b2 == a1 * source + b1 {
                return true;
            }
        }
        false
    };
    let mut best: Option<i64> = None;
    for delta in pr as i64..=(ub - 1) {
        if killed(delta) {
            break;
        }
        best = Some(delta);
    }
    match best {
        None => Dist::Bottom,
        Some(d) if d >= ub - 1 => Dist::Top,
        Some(d) => Dist::Fin(d as u64),
    }
}

fn check(a1: i64, b1: i64, a2: i64, b2: i64, pr: u64, ub: i64, direction: Direction) {
    let gen = gen_of(a1, b1);
    let kill = kill_of(a2, b2);
    let computed = preserve_constant_with_pr(
        &gen,
        &kill,
        Some(ub),
        direction,
        arrayflow_core::Mode::Must,
        pr,
    )
    .normalize(Some(ub));
    let truth = brute_force((a1, b1), (a2, b2), pr, ub, direction);
    assert!(
        computed <= truth,
        "unsound: gen {a1}*i+{b1}, kill {a2}*i+{b2}, pr={pr}, ub={ub}, {direction:?}: \
         computed {computed} > true {truth}"
    );
}

/// Seeded draws of `(a₁, b₁, a₂, b₂, pr, UB)` from the ranges the
/// derivation is brute-forced over: coefficients in `[−3, 3]`, offsets in
/// `[−6, 6]`, `pr ∈ {0, 1}`, trip counts in `[2, 12]`.
fn cases(seed: u64) -> impl Iterator<Item = (i64, i64, i64, i64, u64, i64)> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..2000).map(move |_| {
        (
            rng.range_i64(-3, 3),
            rng.range_i64(-6, 6),
            rng.range_i64(-3, 3),
            rng.range_i64(-6, 6),
            rng.below(2),
            rng.range_i64(2, 12),
        )
    })
}

#[test]
fn must_constants_are_sound_forward() {
    // A case the property search once shrank to, kept as a fixed check.
    check(1, 0, 1, -3, 0, 2, Direction::Forward);
    for (a1, b1, a2, b2, pr, ub) in cases(1) {
        check(a1, b1, a2, b2, pr, ub, Direction::Forward);
    }
}

#[test]
fn must_constants_are_sound_backward() {
    for (a1, b1, a2, b2, pr, ub) in cases(2) {
        check(a1, b1, a2, b2, pr, ub, Direction::Backward);
    }
}

#[test]
fn may_constants_dominate_must() {
    // A may-problem overestimates: its preserve constant must be at least
    // the must-problem's (fewer definite kills than possible kills).
    for (a1, b1, a2, b2, pr, ub) in cases(3) {
        let gen = gen_of(a1, b1);
        let kill = kill_of(a2, b2);
        let constant =
            |mode| preserve_constant_with_pr(&gen, &kill, Some(ub), Direction::Forward, mode, pr);
        let (must, may) = (
            constant(arrayflow_core::Mode::Must),
            constant(arrayflow_core::Mode::May),
        );
        assert!(
            may >= must,
            "gen {a1}*i+{b1}, kill {a2}*i+{b2}, pr={pr}, ub={ub}: may {may} < must {must}"
        );
    }
}

#[test]
fn exactness_on_equal_coefficient_pairs() {
    // For equal non-zero coefficients (the overwhelmingly common case) the
    // derivation is exact, not just sound.
    for a in [1i64, 2, -1] {
        for b1 in -4i64..=4 {
            for b2 in -4i64..=4 {
                for pr in 0u64..=1 {
                    let ub = 10;
                    let gen = gen_of(a, b1);
                    let kill = kill_of(a, b2);
                    let computed = preserve_constant_with_pr(
                        &gen,
                        &kill,
                        Some(ub),
                        Direction::Forward,
                        arrayflow_core::Mode::Must,
                        pr,
                    )
                    .normalize(Some(ub));
                    let truth = brute_force((a, b1), (a, b2), pr, ub, Direction::Forward);
                    assert_eq!(
                        computed, truth,
                        "a={a} b1={b1} b2={b2} pr={pr}: computed {computed}, true {truth}"
                    );
                }
            }
        }
    }
}
