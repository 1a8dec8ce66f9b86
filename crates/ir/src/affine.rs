//! Affine subscript extraction.
//!
//! The paper restricts array subscripts to affine functions `a·i + b` of the
//! analyzed loop's induction variable `i`, where `a` and `b` may involve
//! *symbolic constants* (outer induction variables, dimension sizes — §3.6).
//! [`AffineSub`] is that normal form: a pair of [`LinExpr`]s `(coef, rest)`
//! denoting `coef·i + rest` where neither part mentions `i` itself.

use std::fmt;

use crate::expr::{BinOp, Expr};
use crate::linexpr::LinExpr;
use crate::symbols::VarId;

/// An affine subscript `coef·i + rest` with respect to a distinguished
/// induction variable `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineSub {
    /// Coefficient of the induction variable. May be symbolic (e.g. the
    /// dimension size `N` after linearization) but never mentions `i`.
    pub coef: LinExpr,
    /// Remaining `i`-free part.
    pub rest: LinExpr,
}

impl AffineSub {
    /// The subscript `i` itself.
    pub fn identity() -> Self {
        Self {
            coef: LinExpr::constant(1),
            rest: LinExpr::zero(),
        }
    }

    /// A constant subscript.
    pub fn constant(c: i64) -> Self {
        Self {
            coef: LinExpr::zero(),
            rest: LinExpr::constant(c),
        }
    }

    /// `a·i + b` with integer coefficients.
    pub fn simple(a: i64, b: i64) -> Self {
        Self {
            coef: LinExpr::constant(a),
            rest: LinExpr::constant(b),
        }
    }

    /// `(a, b)` when the subscript is `a·i + b` with symbol-free parts —
    /// the form the integer subscript kernels take.
    pub fn as_constants(&self) -> Option<(i64, i64)> {
        Some((self.coef.as_constant()?, self.rest.as_constant()?))
    }

    /// Extracts the affine form of `expr` with respect to `iv`.
    ///
    /// Every scalar other than `iv` is treated as a symbolic constant
    /// (whether that treatment is *sound* — i.e. the scalar is not modified
    /// in the loop — is checked separately by the analyses). Returns `None`
    /// when the expression is not affine in `iv` (products of two
    /// `iv`-dependent factors, division, or nested array reads).
    pub fn from_expr(expr: &Expr, iv: VarId) -> Option<AffineSub> {
        match expr {
            Expr::Const(c) => Some(AffineSub::constant(*c)),
            Expr::Scalar(v) => {
                if *v == iv {
                    Some(AffineSub::identity())
                } else {
                    Some(AffineSub {
                        coef: LinExpr::zero(),
                        rest: LinExpr::symbol(*v),
                    })
                }
            }
            Expr::Elem(_) => None,
            Expr::Bin(op, l, r) => {
                let a = AffineSub::from_expr(l, iv)?;
                let b = AffineSub::from_expr(r, iv)?;
                match op {
                    BinOp::Add => Some(AffineSub {
                        coef: a.coef + b.coef,
                        rest: a.rest + b.rest,
                    }),
                    BinOp::Sub => Some(AffineSub {
                        coef: a.coef - b.coef,
                        rest: a.rest - b.rest,
                    }),
                    BinOp::Mul => {
                        // (c₁·i + r₁)(c₂·i + r₂): affine only when the i²
                        // term vanishes, and each cross product must stay
                        // linear (one factor a plain integer constant).
                        if !a.coef.is_zero() && !b.coef.is_zero() {
                            return None;
                        }
                        let coef = lin_add(lin_mul(&a.coef, &b.rest)?, lin_mul(&a.rest, &b.coef)?);
                        let rest = lin_mul(&a.rest, &b.rest)?;
                        Some(AffineSub { coef, rest })
                    }
                    BinOp::Div => None,
                }
            }
        }
    }

    /// Converts the affine form back to an expression over `iv`.
    pub fn to_expr(&self, iv: VarId) -> Expr {
        let coef = linexpr_to_expr(&self.coef);
        let rest = linexpr_to_expr(&self.rest);
        let scaled = match (&self.coef.as_constant(), &coef) {
            (Some(0), _) => None,
            (Some(1), _) => Some(Expr::Scalar(iv)),
            _ => Some(Expr::mul(coef, Expr::Scalar(iv))),
        };
        match (scaled, self.rest.is_zero()) {
            (None, _) => rest,
            (Some(s), true) => s,
            (Some(s), false) => Expr::add(s, rest),
        }
    }

    /// Renders the subscript as e.g. `2*i - 1` using a symbol namer.
    pub fn display_with<F>(&self, iv_name: &str, namer: F) -> String
    where
        F: Fn(VarId) -> String + Copy,
    {
        let mut out = String::new();
        use fmt::Write as _;
        if let Some(c) = self.coef.as_constant() {
            match c {
                0 => {}
                1 => out.push_str(iv_name),
                -1 => {
                    let _ = write!(out, "-{iv_name}");
                }
                _ => {
                    let _ = write!(out, "{c}*{iv_name}");
                }
            }
        } else {
            let _ = write!(out, "({})*{iv_name}", self.coef.display_with(namer));
        }
        if out.is_empty() {
            let _ = write!(out, "{}", self.rest.display_with(namer));
        } else if !self.rest.is_zero() {
            let txt = format!("{}", self.rest.display_with(namer));
            if let Some(stripped) = txt.strip_prefix('-') {
                let _ = write!(out, " - {stripped}");
            } else {
                let _ = write!(out, " + {txt}");
            }
        }
        out
    }
}

/// Linear-expression product, defined only when one side is a plain integer.
fn lin_mul(a: &LinExpr, b: &LinExpr) -> Option<LinExpr> {
    if let Some(k) = a.as_constant() {
        Some(b.scaled(k))
    } else {
        b.as_constant().map(|k| a.scaled(k))
    }
}

fn lin_add(a: LinExpr, b: LinExpr) -> LinExpr {
    a + b
}

/// Converts a [`LinExpr`] back into an [`Expr`] tree.
pub fn linexpr_to_expr(l: &LinExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (s, c) in l.iter_terms() {
        let term = match c {
            1 => Expr::Scalar(s),
            _ => Expr::mul(Expr::Const(c), Expr::Scalar(s)),
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => Expr::add(prev, term),
        });
    }
    let c = l.constant_part();
    match acc {
        None => Expr::Const(c),
        Some(e) if c == 0 => e,
        Some(e) if c > 0 => Expr::add(e, Expr::Const(c)),
        Some(e) => Expr::sub(e, Expr::Const(-c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::VarId;

    const I: VarId = VarId(0);
    const N: VarId = VarId(1);
    const J: VarId = VarId(2);

    fn parse(e: &Expr) -> Option<AffineSub> {
        AffineSub::from_expr(e, I)
    }

    #[test]
    fn plain_forms() {
        assert_eq!(parse(&Expr::Const(7)), Some(AffineSub::simple(0, 7)));
        assert_eq!(parse(&Expr::Scalar(I)), Some(AffineSub::simple(1, 0)));
        let e = Expr::add(Expr::mul(Expr::Const(2), Expr::Scalar(I)), Expr::Const(-3));
        assert_eq!(parse(&e), Some(AffineSub::simple(2, -3)));
    }

    #[test]
    fn symbolic_offset() {
        // i + N + 1
        let e = Expr::add(Expr::Scalar(I), Expr::add(Expr::Scalar(N), Expr::Const(1)));
        let a = parse(&e).unwrap();
        assert_eq!(a.coef.as_constant(), Some(1));
        assert_eq!(a.rest.coeff(N), 1);
        assert_eq!(a.rest.constant_part(), 1);
    }

    #[test]
    fn symbolic_coefficient() {
        // N*i + j  (linearized 2-D subscript)
        let e = Expr::add(Expr::mul(Expr::Scalar(N), Expr::Scalar(I)), Expr::Scalar(J));
        let a = parse(&e).unwrap();
        assert!(a.coef.as_constant().is_none());
        assert_eq!(a.coef.coeff(N), 1);
        assert_eq!(a.rest.coeff(J), 1);
    }

    #[test]
    fn quadratic_is_rejected() {
        let e = Expr::mul(Expr::Scalar(I), Expr::Scalar(I));
        assert_eq!(parse(&e), None);
        // N*j is also rejected: product of two symbols is not linear.
        let e2 = Expr::mul(Expr::Scalar(N), Expr::Scalar(J));
        assert_eq!(parse(&e2), None);
    }

    #[test]
    fn division_is_rejected() {
        let e = Expr::bin(BinOp::Div, Expr::Scalar(I), Expr::Const(2));
        assert_eq!(parse(&e), None);
    }

    #[test]
    fn roundtrip_to_expr() {
        let a = AffineSub::simple(3, -2);
        let e = a.to_expr(I);
        assert_eq!(parse(&e), Some(a));
    }

    #[test]
    fn display() {
        let a = AffineSub::simple(2, -1);
        assert_eq!(a.display_with("i", |_| unreachable!()), "2*i - 1");
        let b = AffineSub::simple(1, 0);
        assert_eq!(b.display_with("i", |_| unreachable!()), "i");
        let c = AffineSub::simple(0, 4);
        assert_eq!(c.display_with("i", |_| unreachable!()), "4");
    }
}
