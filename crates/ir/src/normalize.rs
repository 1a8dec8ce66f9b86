//! Loop normalization.
//!
//! The framework assumes (paper §1) that "all loops are normalized, i.e. the
//! induction variable ranges from 1 to an upper bound UB with increment
//! one". [`normalize`] rewrites every counted loop into that form:
//!
//! ```text
//! do i = L, U, s            do i' = 1, (U - L + s) / s
//!   … i …          =>          … L + (i' - 1)·s …
//! end                       end
//! ```
//!
//! Subscripts that were affine in `i` stay affine in `i'`. The rewrite
//! preserves semantics exactly for constant bounds and for symbolic bounds
//! whenever the original trip count is non-negative (the usual Fortran
//! precondition); this is validated against the interpreter in the tests.

use crate::expr::Expr;
use crate::stmt::{Block, Loop, LoopBound, Program, Stmt};
use crate::symbols::SymbolTable;

/// Normalizes every loop in the program (in place) and renumbers statements.
/// Returns the number of loops rewritten.
pub fn normalize(program: &mut Program) -> usize {
    let mut rewritten = 0;
    let mut body = std::mem::take(&mut program.body);
    normalize_block(&mut program.symbols, &mut body, &mut rewritten);
    program.body = body;
    program.renumber();
    rewritten
}

/// True when [`normalize`] would leave `program` as it is: every loop is
/// normalized and the statements are numbered as
/// [`Program::renumber`] numbers them.
pub fn is_normal_form(program: &Program) -> bool {
    fn walk(block: &Block, next: &mut u32) -> bool {
        block.iter().all(|stmt| match stmt {
            Stmt::Assign(a) => {
                *next += 1;
                a.id.0 == *next - 1
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => walk(then_blk, next) && walk(else_blk, next),
            Stmt::Do(l) => l.is_normalized() && walk(&l.body, next),
        })
    }
    walk(&program.body, &mut 0)
}

fn normalize_block(symbols: &mut SymbolTable, block: &mut Block, rewritten: &mut usize) {
    for stmt in block {
        match stmt {
            Stmt::Assign(_) => {}
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                normalize_block(symbols, then_blk, rewritten);
                normalize_block(symbols, else_blk, rewritten);
            }
            Stmt::Do(l) => {
                normalize_block(symbols, &mut l.body, rewritten);
                if !l.is_normalized() {
                    normalize_loop(symbols, l);
                    *rewritten += 1;
                }
            }
        }
    }
}

/// Rewrites one non-normalized loop. The loop body must already be
/// normalized (callers recurse inside-out).
///
/// # Panics
///
/// Panics if the loop step is zero.
fn normalize_loop(symbols: &mut SymbolTable, l: &mut Loop) {
    assert!(l.step != 0, "loop step must be non-zero");
    let old_iv = l.iv;
    let old_name = symbols.var_name(old_iv).to_string();
    let new_iv = symbols.fresh_var(&format!("{old_name}_n"));

    let lower = l.lower.to_expr();
    let upper = l.upper.to_expr();
    let step = l.step;

    // Trip count N = (U - L + s) / s, exact for constants.
    let new_upper = match (l.lower.as_const(), l.upper.as_const()) {
        (Some(lc), Some(uc)) => {
            let n = (uc - lc + step) / step;
            LoopBound::Const(n.max(0))
        }
        _ => LoopBound::Expr(Expr::bin(
            crate::expr::BinOp::Div,
            Expr::add(Expr::sub(upper.clone(), lower.clone()), Expr::Const(step)),
            Expr::Const(step),
        )),
    };

    // i := L + (i' - 1)·s
    let offset = Expr::sub(Expr::Scalar(new_iv), Expr::Const(1));
    let scaled = if step == 1 {
        offset
    } else {
        Expr::mul(offset, Expr::Const(step))
    };
    let replacement = match lower {
        Expr::Const(0) => scaled,
        _ => Expr::add(lower, scaled),
    };

    substitute_in_block(&mut l.body, old_iv, &replacement);

    l.iv = new_iv;
    l.lower = LoopBound::Const(1);
    l.upper = new_upper;
    l.step = 1;
}

fn substitute_in_block(block: &mut Block, v: crate::symbols::VarId, replacement: &Expr) {
    for stmt in block {
        match stmt {
            Stmt::Assign(a) => {
                a.rhs = a.rhs.substitute_scalar(v, replacement);
                if let crate::stmt::LValue::Elem(r) = &mut a.lhs {
                    for s in &mut r.subs {
                        *s = s.substitute_scalar(v, replacement);
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                cond.lhs = cond.lhs.substitute_scalar(v, replacement);
                cond.rhs = cond.rhs.substitute_scalar(v, replacement);
                substitute_in_block(then_blk, v, replacement);
                substitute_in_block(else_blk, v, replacement);
            }
            Stmt::Do(l) => {
                // Inner loop bounds may reference the outer IV.
                if let LoopBound::Expr(e) = &mut l.lower {
                    *e = e.substitute_scalar(v, replacement);
                }
                if let LoopBound::Expr(e) = &mut l.upper {
                    *e = e.substitute_scalar(v, replacement);
                }
                substitute_in_block(&mut l.body, v, replacement);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with;
    use crate::parser::parse_program;

    /// Runs both programs over identical inputs and compares final array
    /// state.
    fn assert_equivalent(src: &str) {
        let orig = parse_program(src).unwrap();
        let mut norm = orig.clone();
        let n = normalize(&mut norm);
        assert!(n > 0, "expected at least one loop to be rewritten");
        let seed = |e: &mut crate::Env| {
            // Seed every array with a deterministic pattern so reads of
            // "uninitialized" elements still agree.
            for a in orig.symbols.array_ids() {
                for k in -50..200 {
                    e.set_elem(a, vec![k], k * 7 + 3);
                }
            }
        };
        let e1 = run_with(&orig, seed).unwrap();
        let e2 = run_with(&norm, seed).unwrap();
        assert_eq!(e1.array_state(), e2.array_state(), "program: {src}");
    }

    #[test]
    fn normalizes_shifted_lower_bound() {
        assert_equivalent("do i = 3, 12 A[i] := A[i-1] + 1; end");
    }

    #[test]
    fn normalizes_strided_loop() {
        assert_equivalent("do i = 2, 11, 3 A[i] := A[i] * 2; end");
    }

    #[test]
    fn normalizes_downward_loop() {
        assert_equivalent("do i = 10, 1, -1 A[i] := A[i+1] + 1; end");
    }

    #[test]
    fn normalizes_nested_loops() {
        assert_equivalent(
            "do j = 0, 4, 2
               do i = 2, 6
                 A[3 * i + j] := A[3 * i + j - 1] + j;
               end
             end",
        );
    }

    #[test]
    fn already_normalized_is_untouched() {
        let mut p = parse_program("do i = 1, 10 A[i] := 0; end").unwrap();
        let before = crate::pretty::print_program(&p);
        assert_eq!(normalize(&mut p), 0);
        assert_eq!(crate::pretty::print_program(&p), before);
    }

    #[test]
    fn normal_form_is_what_normalizing_leaves_alone() {
        let nested =
            "do i = 1, 10 do j = 1, 4 A[i+j] := 0; end if A[i] > 0 then B[i] := 1; end end";
        let mut p = parse_program(nested).unwrap();
        p.renumber();
        assert!(is_normal_form(&p));
        // A stale statement id.
        let mut stale = p.clone();
        let Stmt::Do(outer) = &mut stale.body[0] else {
            panic!("a loop")
        };
        let Stmt::If { then_blk, .. } = &mut outer.body[1] else {
            panic!("a conditional")
        };
        let Stmt::Assign(a) = &mut then_blk[0] else {
            panic!("an assignment")
        };
        a.id.0 += 1;
        assert!(!is_normal_form(&stale));
        stale.renumber();
        assert!(is_normal_form(&stale));
        // An inner loop normalization rewrites.
        let mut strided =
            parse_program("do i = 1, 10 do j = 2, 8, 2 A[i+j] := 0; end end").unwrap();
        strided.renumber();
        assert!(!is_normal_form(&strided));
        normalize(&mut strided);
        assert!(is_normal_form(&strided));
        // A strided loop with a stale statement id: normalizing alone,
        // with no renumbering before or after, leaves it in normal form.
        let mut stale = parse_program("do i = 2, 20, 3 A[i] := A[i-3]; B[i] := A[i]; end").unwrap();
        let Stmt::Do(l) = &mut stale.body[0] else {
            panic!("a loop")
        };
        let Stmt::Assign(b) = &mut l.body[1] else {
            panic!("an assignment")
        };
        b.id.0 = 7;
        assert!(!is_normal_form(&stale));
        assert_eq!(normalize(&mut stale), 1);
        assert!(is_normal_form(&stale));
    }

    #[test]
    fn rewritten_loop_is_normalized_and_affine() {
        let mut p = parse_program("do i = 5, 20, 3 A[2*i+1] := 0; end").unwrap();
        normalize(&mut p);
        let l = p.sole_loop().unwrap();
        assert!(l.is_normalized());
        assert_eq!(l.const_trip_count(), Some(6));
        // Subscript is still affine in the new IV: 2*(5 + (i'-1)*3) + 1 = 6i' + 5.
        if let Stmt::Assign(a) = &l.body[0] {
            if let crate::stmt::LValue::Elem(r) = &a.lhs {
                let aff = crate::affine::AffineSub::from_expr(&r.subs[0], l.iv).unwrap();
                assert_eq!(aff, crate::affine::AffineSub::simple(6, 5));
                return;
            }
        }
        panic!("unexpected body shape");
    }
}
