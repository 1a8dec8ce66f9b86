//! AST walking utilities.

use std::collections::HashSet;

use crate::expr::Expr;
use crate::stmt::{ArrayRef, Assign, Block, LValue, Stmt};
use crate::symbols::VarId;

/// Calls `f` on every assignment in the block, recursing into conditionals
/// and nested loops, in textual order.
pub fn for_each_assign<'a>(block: &'a Block, f: &mut impl FnMut(&'a Assign)) {
    for stmt in block {
        match stmt {
            Stmt::Assign(a) => f(a),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                for_each_assign(then_blk, f);
                for_each_assign(else_blk, f);
            }
            Stmt::Do(l) => for_each_assign(&l.body, f),
        }
    }
}

/// Collects every array read inside an expression, in evaluation order.
pub fn array_uses_in_expr<'a>(expr: &'a Expr, out: &mut Vec<&'a ArrayRef>) {
    match expr {
        Expr::Const(_) | Expr::Scalar(_) => {}
        Expr::Elem(r) => {
            // Subscripts may themselves read arrays (not affine, but legal IR).
            for s in &r.subs {
                array_uses_in_expr(s, out);
            }
            out.push(r);
        }
        Expr::Bin(_, l, r) => {
            array_uses_in_expr(l, out);
            array_uses_in_expr(r, out);
        }
    }
}

/// Array uses of an assignment: reads on the right-hand side plus reads in
/// the left-hand side's subscripts.
pub fn assign_uses(a: &Assign) -> Vec<&ArrayRef> {
    let mut out = Vec::new();
    array_uses_in_expr(&a.rhs, &mut out);
    if let LValue::Elem(r) = &a.lhs {
        for s in &r.subs {
            array_uses_in_expr(s, &mut out);
        }
    }
    out
}

/// The array definition of an assignment, if its destination is subscripted.
pub fn assign_def(a: &Assign) -> Option<&ArrayRef> {
    match &a.lhs {
        LValue::Elem(r) => Some(r),
        LValue::Scalar(_) => None,
    }
}

/// Scalars assigned anywhere in the block (including nested loop induction
/// variables, which the loop header itself modifies).
pub fn modified_scalars(block: &Block) -> HashSet<VarId> {
    let mut out = HashSet::new();
    fn walk(block: &Block, out: &mut HashSet<VarId>) {
        for stmt in block {
            match stmt {
                Stmt::Assign(a) => {
                    if let LValue::Scalar(v) = a.lhs {
                        out.insert(v);
                    }
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, out);
                    walk(else_blk, out);
                }
                Stmt::Do(l) => {
                    out.insert(l.iv);
                    walk(&l.body, out);
                }
            }
        }
    }
    walk(block, &mut out);
    out
}

/// Counts statements of each kind in a block (recursively).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtCounts {
    /// Number of assignments.
    pub assigns: usize,
    /// Number of conditionals.
    pub ifs: usize,
    /// Number of nested loops.
    pub loops: usize,
}

/// Tallies the statements in a block.
pub fn count_stmts(block: &Block) -> StmtCounts {
    let mut c = StmtCounts::default();
    fn walk(block: &Block, c: &mut StmtCounts) {
        for stmt in block {
            match stmt {
                Stmt::Assign(_) => c.assigns += 1,
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    c.ifs += 1;
                    walk(then_blk, c);
                    walk(else_blk, c);
                }
                Stmt::Do(l) => {
                    c.loops += 1;
                    walk(&l.body, c);
                }
            }
        }
    }
    walk(block, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, RelOp};
    use crate::stmt::Loop;
    use crate::symbols::SymbolTable;

    fn sample() -> (SymbolTable, Block) {
        let mut t = SymbolTable::new();
        let i = t.var("i");
        let x = t.var("x");
        let a = t.array("A");
        let use_a =
            |k: i64| Expr::Elem(ArrayRef::new(a, Expr::add(Expr::Scalar(i), Expr::Const(k))));
        let body = vec![
            Stmt::Assign(Assign::new(
                LValue::Elem(ArrayRef::new(a, Expr::Scalar(i))),
                Expr::add(use_a(-1), Expr::Scalar(x)),
            )),
            Stmt::If {
                cond: Cond::new(use_a(0), RelOp::Eq, Expr::Const(0)),
                then_blk: vec![Stmt::Assign(Assign::new(LValue::Scalar(x), use_a(2)))],
                else_blk: vec![],
            },
        ];
        (t, body)
    }

    #[test]
    fn walks_every_assign() {
        let (_, b) = sample();
        let mut n = 0;
        for_each_assign(&b, &mut |_| n += 1);
        assert_eq!(n, 2);
        assert_eq!(
            count_stmts(&b),
            StmtCounts {
                assigns: 2,
                ifs: 1,
                loops: 0
            }
        );
    }

    #[test]
    fn uses_and_defs() {
        let (_, b) = sample();
        let mut defs = 0;
        let mut uses = 0;
        for_each_assign(&b, &mut |a| {
            defs += usize::from(assign_def(a).is_some());
            uses += assign_uses(a).len();
        });
        assert_eq!(defs, 1);
        assert_eq!(uses, 2); // A[i-1] in stmt 1, A[i+2] in the then-branch
    }

    #[test]
    fn modified_scalars_includes_nested_ivs() {
        let (mut t, mut b) = sample();
        let j = t.var("j");
        b.push(Stmt::Do(Loop {
            iv: j,
            lower: 1.into(),
            upper: 5.into(),
            step: 1,
            body: vec![],
        }));
        let m = modified_scalars(&b);
        assert!(m.contains(&t.var("x")));
        assert!(m.contains(&j));
        assert!(!m.contains(&t.var("i")));
    }
}
