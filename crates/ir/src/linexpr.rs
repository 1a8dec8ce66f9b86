//! Symbolic linear expressions.
//!
//! The framework's subscript arithmetic (paper §3.1.2, §3.6) works on
//! expressions of the form `c₀ + Σ cₖ·sₖ` where the `sₖ` are *symbolic
//! constants*: induction variables of enclosing loops, array dimension sizes,
//! or other scalars that are loop-invariant with respect to the loop under
//! analysis. [`LinExpr`] represents such expressions exactly, supports ring
//! arithmetic, and can decide symbolic ratios such as
//! `(N·i + N + j) − (N·i + j) = N = 1·N`, which is what makes the
//! linearized multi-dimensional analysis of §3.6 work.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::symbols::VarId;

/// A linear expression `constant + Σ coeff·symbol` with exact `i64`
/// coefficients over symbolic constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Constant term.
    constant: i64,
    /// Symbol coefficients; invariant: no zero coefficients are stored.
    terms: BTreeMap<VarId, i64>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        Self {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// A single symbol with coefficient one.
    pub fn symbol(s: VarId) -> Self {
        Self::term(s, 1)
    }

    /// A single `coeff·symbol` term.
    pub fn term(s: VarId, coeff: i64) -> Self {
        let mut terms = BTreeMap::new();
        if coeff != 0 {
            terms.insert(s, coeff);
        }
        Self { constant: 0, terms }
    }

    /// The constant term.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Coefficient of `s` (zero if absent).
    pub fn coeff(&self, s: VarId) -> i64 {
        self.terms.get(&s).copied().unwrap_or(0)
    }

    /// Iterates over the non-zero `(symbol, coefficient)` terms.
    pub fn iter_terms(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.terms.iter().map(|(&s, &c)| (s, c))
    }

    /// True if the expression is the literal zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0 && self.terms.is_empty()
    }

    /// True if the expression contains no symbols.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The value if the expression is symbol-free.
    pub fn as_constant(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// True if the expression mentions symbol `s`.
    pub fn mentions(&self, s: VarId) -> bool {
        self.terms.contains_key(&s)
    }

    /// Multiplies by an integer scalar.
    pub fn scaled(&self, k: i64) -> Self {
        if k == 0 {
            return Self::zero();
        }
        let mut out = self.clone();
        out.constant = out
            .constant
            .checked_mul(k)
            .expect("linear expression coefficient overflow");
        for c in out.terms.values_mut() {
            *c = c
                .checked_mul(k)
                .expect("linear expression coefficient overflow");
        }
        out
    }

    /// `self − rhs`, or `None` when the constant or a coefficient
    /// overflows `i64` — the form untrusted subscripts are differenced in,
    /// since `X[i + 9223372036854775807]` against `X[i − 9223372036854775807]`
    /// is a valid program whose offset difference is not.
    pub fn checked_sub(&self, rhs: &LinExpr) -> Option<LinExpr> {
        let mut out = self.clone();
        out.constant = out.constant.checked_sub(rhs.constant)?;
        for (&s, &c) in &rhs.terms {
            let e = out.terms.entry(s).or_insert(0);
            *e = e.checked_sub(c)?;
            if *e == 0 {
                out.terms.remove(&s);
            }
        }
        Some(out)
    }

    /// Substitutes a linear expression for a symbol.
    pub fn substitute(&self, s: VarId, replacement: &LinExpr) -> Self {
        let c = self.coeff(s);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&s);
        out + replacement.scaled(c)
    }

    /// Decides the exact rational ratio `self / other`, if one exists.
    ///
    /// Returns a reduced `(num, den)` with `den > 0` such that
    /// `self · den == other · num` as polynomials. Returns `None` when
    /// `other` is zero or when `self` is not a rational multiple of `other`.
    ///
    /// This is the decision procedure behind the symbolic evaluation of
    /// `k(i)` in the paper's preserve functions: for linearized
    /// multi-dimensional subscripts, both the numerator and the coefficient
    /// `a₁` may be symbolic, and a recurrence is detected exactly when the
    /// ratio is a rational constant.
    pub fn ratio(&self, other: &LinExpr) -> Option<(i64, i64)> {
        if other.is_zero() {
            return None;
        }
        if self.is_zero() {
            return Some((0, 1));
        }
        // Pick a pivot coefficient pair to propose a ratio, then verify it on
        // every coefficient via cross-multiplication in i128.
        let (num, den) = if other.constant != 0 {
            (self.constant, other.constant)
        } else {
            // `other` has at least one symbolic term because it is non-zero.
            let (&s, &oc) = other.terms.iter().next().expect("non-zero linexpr");
            (self.coeff(s), oc)
        };
        if num == 0 && !self.is_zero() && den != 0 {
            // Proposed ratio 0 but self is non-zero: only consistent if the
            // pivot slot of self is genuinely 0 while others are not — then
            // no uniform ratio exists unless all slots verify below.
        }
        let lhs_ok = |a: i64, b: i64| (a as i128) * (den as i128) == (b as i128) * (num as i128);
        if !lhs_ok(self.constant, other.constant) {
            return None;
        }
        let mut symbols: Vec<VarId> = self.terms.keys().copied().collect();
        symbols.extend(other.terms.keys().copied());
        symbols.sort_unstable();
        symbols.dedup();
        for s in symbols {
            if !lhs_ok(self.coeff(s), other.coeff(s)) {
                return None;
            }
        }
        reduce(num, den)
    }

    /// Renders the expression using a name resolver for symbols.
    pub fn display_with<'a, F>(&'a self, namer: F) -> LinExprDisplay<'a, F>
    where
        F: Fn(VarId) -> String,
    {
        LinExprDisplay { expr: self, namer }
    }
}

/// Reduces a fraction to lowest terms with positive denominator; `None`
/// when that form does not fit `i64` (e.g. `i64::MIN / −1`).
fn reduce(num: i64, den: i64) -> Option<(i64, i64)> {
    assert!(den != 0, "zero denominator");
    let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
    let (mut n, mut d) = (num as i128 / g, den as i128 / g);
    if d < 0 {
        n = -n;
        d = -d;
    }
    Some((i64::try_from(n).ok()?, i64::try_from(d).ok()?))
}

fn gcd(a: u64, b: u64) -> u64 {
    if a == 0 && b == 0 {
        return 1;
    }
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        let mut out = self;
        out.constant = out
            .constant
            .checked_add(rhs.constant)
            .expect("linear expression constant overflow");
        for (s, c) in rhs.terms {
            let e = out.terms.entry(s).or_insert(0);
            *e = e
                .checked_add(c)
                .expect("linear expression coefficient overflow");
            if *e == 0 {
                out.terms.remove(&s);
            }
        }
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: i64) -> LinExpr {
        self.scaled(rhs)
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> Self {
        LinExpr::constant(c)
    }
}

impl From<VarId> for LinExpr {
    fn from(s: VarId) -> Self {
        LinExpr::symbol(s)
    }
}

/// Helper returned by [`LinExpr::display_with`].
pub struct LinExprDisplay<'a, F> {
    expr: &'a LinExpr,
    namer: F,
}

impl<F> fmt::Display for LinExprDisplay<'_, F>
where
    F: Fn(VarId) -> String,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, c) in self.expr.iter_terms() {
            let name = (self.namer)(s);
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { '-' } else { '+' };
                let mag = c.unsigned_abs();
                if mag == 1 {
                    write!(f, " {sign} {name}")?;
                } else {
                    write!(f, " {sign} {mag}*{name}")?;
                }
            }
        }
        let c = self.expr.constant_part();
        if first {
            write!(f, "{c}")?;
        } else if c > 0 {
            write!(f, " + {c}")?;
        } else if c < 0 {
            write!(f, " - {}", c.unsigned_abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> VarId {
        VarId(n)
    }

    #[test]
    fn arithmetic_normalizes_zero_terms() {
        let e = LinExpr::term(s(0), 3) + LinExpr::term(s(0), -3) + LinExpr::constant(5);
        assert!(e.is_constant());
        assert_eq!(e.as_constant(), Some(5));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = LinExpr::term(s(0), 2) + LinExpr::constant(7) + LinExpr::term(s(1), -4);
        let b = LinExpr::term(s(1), 9) + LinExpr::constant(-3);
        let c = a.clone() + b.clone();
        assert_eq!(c - b, a);
    }

    #[test]
    fn checked_sub_reports_overflow() {
        let a = LinExpr::term(s(0), 2) + LinExpr::constant(7);
        let b = LinExpr::term(s(0), 2) + LinExpr::constant(-3);
        assert_eq!(a.checked_sub(&b), Some(LinExpr::constant(10)));
        let max = LinExpr::constant(i64::MAX);
        assert_eq!(max.checked_sub(&LinExpr::constant(-i64::MAX)), None);
        assert_eq!(
            LinExpr::term(s(1), i64::MIN).checked_sub(&s(1).into()),
            None
        );
        // i64::MIN / −1 has no i64 numerator.
        assert_eq!(
            LinExpr::constant(i64::MIN).ratio(&LinExpr::constant(-1)),
            None
        );
    }

    #[test]
    fn ratio_of_constants() {
        let a = LinExpr::constant(6);
        let b = LinExpr::constant(4);
        assert_eq!(a.ratio(&b), Some((3, 2)));
        assert_eq!(b.ratio(&a), Some((2, 3)));
    }

    #[test]
    fn ratio_of_symbolic_multiple() {
        // (2N + 4) / (N + 2) = 2
        let n = s(5);
        let a = LinExpr::term(n, 2) + LinExpr::constant(4);
        let b = LinExpr::term(n, 1) + LinExpr::constant(2);
        assert_eq!(a.ratio(&b), Some((2, 1)));
    }

    #[test]
    fn ratio_detects_non_multiple() {
        let n = s(5);
        let a = LinExpr::term(n, 2) + LinExpr::constant(3);
        let b = LinExpr::term(n, 1) + LinExpr::constant(2);
        assert_eq!(a.ratio(&b), None);
    }

    #[test]
    fn ratio_with_zero() {
        let n = s(5);
        let z = LinExpr::zero();
        let b = LinExpr::symbol(n);
        assert_eq!(z.ratio(&b), Some((0, 1)));
        assert_eq!(b.ratio(&z), None);
    }

    #[test]
    fn ratio_n_over_n() {
        // The paper's Fig. 4 case: (N+j) - j = N, and N/N = 1.
        let n = s(1);
        let num = LinExpr::symbol(n);
        assert_eq!(num.ratio(&LinExpr::symbol(n)), Some((1, 1)));
    }

    #[test]
    fn substitute_replaces_symbol() {
        // 2j + 3, j := i + 1  =>  2i + 5
        let (i, j) = (s(0), s(1));
        let e = LinExpr::term(j, 2) + LinExpr::constant(3);
        let r = LinExpr::symbol(i) + LinExpr::constant(1);
        let out = e.substitute(j, &r);
        assert_eq!(out.coeff(i), 2);
        assert_eq!(out.coeff(j), 0);
        assert_eq!(out.constant_part(), 5);
    }

    #[test]
    fn display_formats() {
        let e = LinExpr::term(s(0), 1) + LinExpr::term(s(1), -2) + LinExpr::constant(-7);
        let txt = format!("{}", e.display_with(|v| format!("s{}", v.0)));
        assert_eq!(txt, "s0 - 2*s1 - 7");
        assert_eq!(
            format!("{}", LinExpr::zero().display_with(|_| String::new())),
            "0"
        );
    }
}
