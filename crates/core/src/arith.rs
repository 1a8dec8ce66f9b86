//! Exact integer arithmetic for the subscript kernels.
//!
//! Preserve constants (paper §3.1.2) and dependence distances (§4.3) are
//! decided by intersecting linear constraints `e·x ≥ f` over the integers
//! and, for distances, by one linear congruence. Symbol-free subscripts
//! are `i64`s, so the preserve kernel is generic over [`Int`]: it runs in
//! checked `i64` and re-runs in `i128` only when an `i64` step overflows.

use std::cmp::Ordering;

/// The checked integer operations the kernels use, for `i64` and `i128`.
/// Every operation is `None` on overflow.
pub trait Int: Copy + Ord {
    /// Zero.
    const ZERO: Self;
    /// One.
    const ONE: Self;
    /// The upper end of an iteration range with no known trip count: at
    /// least `i64::MAX`, so both widths answer every range test on `i64`
    /// values alike.
    const UNBOUNDED: Self;
    /// `v` widened.
    fn of(v: i64) -> Self;
    /// `v`, when it fits.
    fn of_u64(v: u64) -> Option<Self>;
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Option<Self>;
    /// `self − rhs`.
    fn sub(self, rhs: Self) -> Option<Self>;
    /// `self · rhs`.
    fn mul(self, rhs: Self) -> Option<Self>;
    /// `−self`.
    fn neg(self) -> Option<Self>;
    /// `self / rhs`, rounded toward zero.
    fn div(self, rhs: Self) -> Option<Self>;
    /// `self % rhs`, with the sign of `self`.
    fn rem(self, rhs: Self) -> Option<Self>;
    /// `self` as a `u64`, when it fits.
    fn to_u64(self) -> Option<u64>;
}

macro_rules! int_impl {
    ($t:ty, $unbounded:expr) => {
        impl Int for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const UNBOUNDED: Self = $unbounded;
            fn of(v: i64) -> Self {
                <$t>::from(v)
            }
            fn of_u64(v: u64) -> Option<Self> {
                <$t>::try_from(v).ok()
            }
            fn add(self, rhs: Self) -> Option<Self> {
                self.checked_add(rhs)
            }
            fn sub(self, rhs: Self) -> Option<Self> {
                self.checked_sub(rhs)
            }
            fn mul(self, rhs: Self) -> Option<Self> {
                self.checked_mul(rhs)
            }
            fn neg(self) -> Option<Self> {
                self.checked_neg()
            }
            fn div(self, rhs: Self) -> Option<Self> {
                self.checked_div(rhs)
            }
            fn rem(self, rhs: Self) -> Option<Self> {
                self.checked_rem(rhs)
            }
            fn to_u64(self) -> Option<u64> {
                u64::try_from(self).ok()
            }
        }
    };
}

int_impl!(i64, i64::MAX);
int_impl!(i128, i128::MAX / 4);

/// `⌈a / b⌉` for `b ≠ 0`.
pub(crate) fn ceil_div<T: Int>(a: T, b: T) -> Option<T> {
    if b == T::ONE {
        return Some(a); // the common case; skips a division
    }
    let (q, r) = (a.div(b)?, a.rem(b)?);
    if r != T::ZERO && (a < T::ZERO) == (b < T::ZERO) {
        q.add(T::ONE)
    } else {
        Some(q)
    }
}

/// `⌊a / b⌋` for `b ≠ 0`.
fn floor_div<T: Int>(a: T, b: T) -> Option<T> {
    if b == T::ONE {
        return Some(a);
    }
    let (q, r) = (a.div(b)?, a.rem(b)?);
    if r != T::ZERO && (a < T::ZERO) != (b < T::ZERO) {
        q.sub(T::ONE)
    } else {
        Some(q)
    }
}

/// The integers satisfying a conjunction of constraints `e·x ≥ f`:
/// `[lo, hi]`, empty when `lo > hi`.
#[derive(Debug, Clone, Copy)]
pub struct Range<T> {
    /// Smallest member.
    pub lo: T,
    /// Largest member.
    pub hi: T,
}

impl<T: Int> Range<T> {
    /// Intersects with `e·x ≥ f`; `None` when a step overflows.
    pub fn at_least(&mut self, e: T, f: T) -> Option<()> {
        match e.cmp(&T::ZERO) {
            Ordering::Greater => self.lo = self.lo.max(ceil_div(f, e)?),
            Ordering::Less => self.hi = self.hi.min(floor_div(f, e)?),
            // 0 ≥ f: all or nothing.
            Ordering::Equal if f > T::ZERO => self.hi = self.lo.sub(T::ONE)?,
            Ordering::Equal => {}
        }
        Some(())
    }
}

/// `num / den` as a reduced fraction with a positive denominator; `None`
/// when `den` is zero or that form does not fit `i64` (`i64::MIN / −1`).
/// Agrees with [`LinExpr::ratio`](arrayflow_ir::LinExpr::ratio) on
/// constants, and skips the gcd for the common denominators `±1`.
pub(crate) fn ratio(num: i64, den: i64) -> Option<(i64, i64)> {
    match den {
        0 => None,
        1 => Some((num, 1)),
        -1 => Some((num.checked_neg()?, 1)),
        _ if num == 0 => Some((0, 1)),
        _ => {
            let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
            let g = gcd(n, d);
            let (n, d) = (n / g, i64::try_from(d / g).ok()?);
            let n = if (num < 0) == (den < 0) {
                i64::try_from(n).ok()?
            } else {
                0i64.checked_sub_unsigned(n)?
            };
            Some((n, d))
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `a mod m` in `[0, m)`, for `m > 0`.
pub fn rem_euclid<T: Int>(a: T, m: T) -> Option<T> {
    if m == T::ONE {
        return Some(T::ZERO);
    }
    let r = a.rem(m)?;
    if r < T::ZERO {
        r.add(m)
    } else {
        Some(r)
    }
}

/// The solutions of `a·x ≡ c (mod m)` for `m > 0`, as `x ≡ first (mod
/// step)` with `0 ≤ first < step`, or `Some(None)` when there are none;
/// `None` when a step overflows `T`. For `m ≤ 2⁶³` no `i128` step does.
pub fn solve_congruence<T: Int>(a: T, c: T, m: T) -> Option<Option<(T, T)>> {
    if m == T::ONE {
        return Some(Some((T::ZERO, T::ONE)));
    }
    let (a, c) = (rem_euclid(a, m)?, rem_euclid(c, m)?);
    // Extended Euclid on (a, m): a·x ≡ r (mod m) holds for each (r, x).
    let (mut r0, mut r1, mut x0, mut x1) = (a, m, T::ONE, T::ZERO);
    while r1 != T::ZERO {
        let q = r0.div(r1)?;
        (r0, r1) = (r1, r0.sub(q.mul(r1)?)?);
        (x0, x1) = (x1, x0.sub(q.mul(x1)?)?);
    }
    // r0 = gcd(a, m) and a·x0 ≡ r0.
    if c.rem(r0)? != T::ZERO {
        return Some(None);
    }
    let step = m.div(r0)?;
    let first = c.div(r0)?.mul(rem_euclid(x0, step)?)?;
    Some(Some((rem_euclid(first, step)?, step)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_helpers() {
        assert_eq!(ceil_div(7i128, 2), Some(4));
        assert_eq!(ceil_div(-7i128, 2), Some(-3));
        assert_eq!(ceil_div(7i128, -2), Some(-3));
        assert_eq!(floor_div(7i128, 2), Some(3));
        assert_eq!(floor_div(-7i128, 2), Some(-4));
        assert_eq!(floor_div(7i128, -2), Some(-4));
        assert_eq!(floor_div(6i64, 3), Some(2));
        assert_eq!(ceil_div(6i64, 3), Some(2));
        assert_eq!(ceil_div(i64::MIN, -1), None);
        assert_eq!(floor_div(i64::MIN, -1), None);
    }

    #[test]
    fn ratio_matches_linexpr_on_constants() {
        use arrayflow_ir::LinExpr;
        let edges = [i64::MIN, i64::MIN + 1, -(1 << 62), -7, -6, -4, -1, 0, 1];
        let values = edges.iter().flat_map(|&v| [v, v.saturating_neg()]);
        let values: Vec<i64> = values.chain([2, 3, 4, 6, 12, i64::MAX]).collect();
        for &num in &values {
            for &den in &values {
                let want = LinExpr::constant(num).ratio(&LinExpr::constant(den));
                assert_eq!(ratio(num, den), want, "{num} / {den}");
            }
        }
    }

    #[test]
    fn congruences() {
        let solve = |a: i64, c: i64, m: i64| {
            let wide = solve_congruence(i128::from(a), i128::from(c), i128::from(m))
                .expect("no i128 overflow")
                .map(|(first, step)| (first as i64, step as i64));
            // The i64 kernel agrees whenever it does not overflow.
            if let Some(narrow) = solve_congruence(a, c, m) {
                assert_eq!(narrow, wide, "{a}x ≡ {c} (mod {m})");
            }
            wide
        };
        // 3x ≡ 2 (mod 7): x ≡ 3.
        assert_eq!(solve(3, 2, 7), Some((3, 7)));
        // 4x ≡ 2 (mod 6): x ≡ 2 (mod 3).
        assert_eq!(solve(4, 2, 6), Some((2, 3)));
        // 4x ≡ 1 (mod 6): none.
        assert_eq!(solve(4, 1, 6), None);
        // 0x ≡ 0 (mod 5): every x; negative inputs reduce first.
        assert_eq!(solve(0, -10, 5), Some((0, 1)));
        assert_eq!(solve(-1, 1, i64::MAX), Some((i64::MAX - 1, i64::MAX)));
        // The i64 product overflows; the i128 one does not.
        assert_eq!(solve_congruence(3, i64::MAX - 1, i64::MAX), None);
        assert_eq!(
            solve(3, i64::MAX - 1, i64::MAX),
            Some((3074457345618258602, i64::MAX))
        );
        for a in -12i64..=12 {
            for c in -12..=12 {
                for m in 1..=12 {
                    let brute = (0..m).find(|x| (a * x - c).rem_euclid(m) == 0);
                    let got = solve(a, c, m);
                    assert_eq!(got.map(|(first, _)| first), brute, "{a}x ≡ {c} (mod {m})");
                    if let Some((first, step)) = got {
                        for x in 0..3 * m {
                            let solves = (a * x - c).rem_euclid(m) == 0;
                            assert_eq!(solves, x % step == first, "{a}x ≡ {c} (mod {m}) at {x}");
                        }
                    }
                }
            }
        }
    }
}
