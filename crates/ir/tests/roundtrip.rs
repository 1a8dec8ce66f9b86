//! Property: pretty-printing a program and re-parsing it yields a
//! structurally identical program (same statements, same evaluation
//! behaviour), for randomly generated ASTs. The cases come from the
//! seeded in-crate PRNG, so every run checks the same 128 programs.

use arrayflow_ir::interp::run_with;
use arrayflow_ir::pretty::print_program;
use arrayflow_ir::stmt::{ArrayRef, Assign, Block, LValue, Loop, Stmt};
use arrayflow_ir::{parse_program, BinOp, Cond, Expr, Program, RelOp};
use arrayflow_workloads::Prng;

const CASES: u64 = 128;

/// Generates an expression over scalars s0..s2, arrays A0..A1 and iv `i`,
/// at most `depth` operators deep.
fn arb_expr(rng: &mut Prng, depth: u32) -> RawExpr {
    if depth == 0 || rng.ratio(1, 2) {
        return match rng.below(3) {
            0 => RawExpr::Const(rng.range_i64(-9, 9)),
            1 => RawExpr::Scalar(rng.below(3) as u8),
            _ => RawExpr::Iv,
        };
    }
    if rng.ratio(1, 2) {
        let op = rng.below(4) as u8;
        let l = arb_expr(rng, depth - 1);
        let r = arb_expr(rng, depth - 1);
        RawExpr::Bin(op, Box::new(l), Box::new(r))
    } else {
        let a = rng.below(2) as u8;
        RawExpr::Elem(a, Box::new(arb_expr(rng, depth - 1)))
    }
}

/// AST sketch independent of interned ids.
#[derive(Debug, Clone)]
enum RawExpr {
    Const(i64),
    Scalar(u8),
    Iv,
    Bin(u8, Box<RawExpr>, Box<RawExpr>),
    Elem(u8, Box<RawExpr>),
}

#[derive(Debug, Clone)]
enum RawStmt {
    AssignScalar(u8, RawExpr),
    AssignElem(u8, RawExpr, RawExpr),
    If(RawExpr, u8, RawExpr, Vec<RawStmt>, Vec<RawStmt>),
}

/// Generates a statement: an assignment, or (one time in five while
/// `depth` allows) an `if` whose branches nest further statements.
fn arb_stmt(rng: &mut Prng, depth: u32) -> RawStmt {
    if depth == 0 || !rng.ratio(1, 5) {
        return if rng.ratio(1, 2) {
            let v = rng.below(3) as u8;
            RawStmt::AssignScalar(v, arb_expr(rng, 2))
        } else {
            let a = rng.below(2) as u8;
            let sub = arb_expr(rng, 2);
            RawStmt::AssignElem(a, sub, arb_expr(rng, 2))
        };
    }
    let l = arb_expr(rng, 1);
    let op = rng.below(6) as u8;
    let r = arb_expr(rng, 1);
    let then_len = 1 + rng.below_usize(2);
    let then_blk = (0..then_len).map(|_| arb_stmt(rng, depth - 1)).collect();
    let else_len = rng.below_usize(2);
    let else_blk = (0..else_len).map(|_| arb_stmt(rng, depth - 1)).collect();
    RawStmt::If(l, op, r, then_blk, else_blk)
}

/// One seeded case: one to five statements.
fn arb_program(seed: u64) -> Vec<RawStmt> {
    let mut rng = Prng::seed_from_u64(seed);
    let len = 1 + rng.below_usize(5);
    (0..len).map(|_| arb_stmt(&mut rng, 2)).collect()
}

fn realize(raw: &[RawStmt]) -> Program {
    let mut p = Program::new();
    let iv = p.symbols.var("i");
    let scalars: Vec<_> = (0..3).map(|k| p.symbols.var(&format!("s{k}"))).collect();
    let arrays: Vec<_> = (0..2).map(|k| p.symbols.array(&format!("A{k}"))).collect();

    fn expr(
        raw: &RawExpr,
        iv: arrayflow_ir::VarId,
        scalars: &[arrayflow_ir::VarId],
        arrays: &[arrayflow_ir::ArrayId],
    ) -> Expr {
        match raw {
            RawExpr::Const(c) => Expr::Const(*c),
            RawExpr::Scalar(v) => Expr::Scalar(scalars[*v as usize]),
            RawExpr::Iv => Expr::Scalar(iv),
            RawExpr::Bin(op, l, r) => Expr::bin(
                match op {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    _ => BinOp::Div,
                },
                expr(l, iv, scalars, arrays),
                expr(r, iv, scalars, arrays),
            ),
            RawExpr::Elem(a, s) => Expr::Elem(ArrayRef::new(
                arrays[*a as usize],
                expr(s, iv, scalars, arrays),
            )),
        }
    }

    fn stmts(
        raw: &[RawStmt],
        iv: arrayflow_ir::VarId,
        scalars: &[arrayflow_ir::VarId],
        arrays: &[arrayflow_ir::ArrayId],
    ) -> Block {
        raw.iter()
            .map(|s| match s {
                RawStmt::AssignScalar(v, e) => Stmt::Assign(Assign::new(
                    LValue::Scalar(scalars[*v as usize]),
                    expr(e, iv, scalars, arrays),
                )),
                RawStmt::AssignElem(a, sub, e) => Stmt::Assign(Assign::new(
                    LValue::Elem(ArrayRef::new(
                        arrays[*a as usize],
                        expr(sub, iv, scalars, arrays),
                    )),
                    expr(e, iv, scalars, arrays),
                )),
                RawStmt::If(l, op, r, t, e) => Stmt::If {
                    cond: Cond::new(
                        expr(l, iv, scalars, arrays),
                        match op {
                            0 => RelOp::Eq,
                            1 => RelOp::Ne,
                            2 => RelOp::Lt,
                            3 => RelOp::Le,
                            4 => RelOp::Gt,
                            _ => RelOp::Ge,
                        },
                        expr(r, iv, scalars, arrays),
                    ),
                    then_blk: stmts(t, iv, scalars, arrays),
                    else_blk: stmts(e, iv, scalars, arrays),
                },
            })
            .collect()
    }

    p.body = vec![Stmt::Do(Loop {
        iv,
        lower: 1.into(),
        upper: 12.into(),
        step: 1,
        body: stmts(raw, iv, &scalars, &arrays),
    })];
    p.renumber();
    p
}

/// Runs `p` and serializes the final state over a fixed universe of names,
/// so programs that intern different (unused) symbols still compare equal.
fn behaviour(p: &Program) -> Result<String, arrayflow_ir::InterpError> {
    let seed = |k: i64| (k * 7 + 1) % 31;
    let env = run_with(p, |e| {
        for a in p.symbols.array_ids() {
            for k in -200..200 {
                e.set_elem(a, vec![k], seed(k));
            }
        }
        for (idx, name) in ["i", "s0", "s1", "s2"].iter().enumerate() {
            if let Some(v) = p.symbols.lookup_var(name) {
                e.set_scalar(v, (idx as i64 % 4) - 1);
            }
        }
    })?;
    use std::fmt::Write;
    let mut out = String::new();
    for name in ["A0", "A1"] {
        for k in -200..200 {
            let v = match p.symbols.lookup_array(name) {
                Some(a) => env.elem(a, &[k]),
                None => seed(k),
            };
            let _ = write!(out, "{v},");
        }
        out.push(';');
    }
    for (idx, name) in ["i", "s0", "s1", "s2"].iter().enumerate() {
        // An un-interned symbol is unused: its final value is its seed.
        let v = p
            .symbols
            .lookup_var(name)
            .map_or((idx as i64 % 4) - 1, |s| env.scalar(s));
        let _ = write!(out, "{name}={v};");
    }
    Ok(out)
}

fn print_parse_print_is_stable(raw: &[RawStmt]) {
    let p = realize(raw);
    let once = print_program(&p);
    let reparsed = parse_program(&once).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{once}"));
    let twice = print_program(&reparsed);
    assert_eq!(once, twice, "printing is not a fixpoint for {raw:?}");
}

fn reparsed_program_behaves_identically(raw: &[RawStmt]) {
    let p = realize(raw);
    let reparsed = parse_program(&print_program(&p)).unwrap();
    // Division by zero may occur in either — but must occur in both.
    assert_eq!(behaviour(&p), behaviour(&reparsed), "{raw:?}");
}

#[test]
fn printing_is_a_fixpoint_on_random_programs() {
    for seed in 0..CASES {
        print_parse_print_is_stable(&arb_program(seed));
    }
}

#[test]
fn reparsed_random_programs_behave_identically() {
    for seed in 0..CASES {
        reparsed_program_behaves_identically(&arb_program(seed));
    }
}

#[test]
fn minimal_assignment_round_trips() {
    // A case the former shrinking search once reduced a failure to.
    let raw = [RawStmt::AssignScalar(0, RawExpr::Const(0))];
    print_parse_print_is_stable(&raw);
    reparsed_program_behaves_identically(&raw);
}
