//! Programmatic construction of loops.
//!
//! [`LoopBuilder`] offers an ergonomic alternative to the text DSL when
//! generating workloads or writing tests: it owns a symbol table, interns
//! names on the fly, and produces a numbered [`Program`].
//!
//! ```
//! use arrayflow_ir::LoopBuilder;
//!
//! let mut b = LoopBuilder::new("i", 1000);
//! // A[i+2] := A[i] + x;
//! let a_def = b.array_ref("A", 1, 2);
//! let a_use = b.array_ref("A", 1, 0);
//! let x = b.scalar("x");
//! let rhs = b.add(a_use.into(), x);
//! b.assign_elem(a_def, rhs);
//! let program = b.finish();
//! assert!(program.sole_loop().is_some());
//! ```

use crate::expr::{BinOp, Cond, Expr, RelOp};
use crate::stmt::{ArrayRef, Assign, Block, LValue, Loop, LoopBound, Program, Stmt};
use crate::symbols::VarId;

/// Builder for a program whose body is a single (possibly nested) `do` loop.
#[derive(Debug)]
pub struct LoopBuilder {
    program: Program,
    iv: VarId,
    upper: LoopBound,
    /// Stack of open blocks: the innermost is where statements land.
    stack: Vec<Frame>,
}

#[derive(Debug)]
enum Frame {
    Body(Block),
    If {
        cond: Cond,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    Do {
        iv: VarId,
        lower: LoopBound,
        upper: LoopBound,
        step: i64,
        body: Block,
    },
}

impl LoopBuilder {
    /// Starts building `do <iv> = 1, <ub>`.
    pub fn new(iv: &str, ub: i64) -> Self {
        let mut program = Program::new();
        let iv = program.symbols.var(iv);
        Self {
            program,
            iv,
            upper: LoopBound::Const(ub),
            stack: vec![Frame::Body(Vec::new())],
        }
    }

    /// Starts building `do <iv> = 1, <ub>` with a symbolic upper bound.
    pub fn with_symbolic_ub(iv: &str, ub: &str) -> Self {
        let mut program = Program::new();
        let iv_id = program.symbols.var(iv);
        let ub_id = program.symbols.var(ub);
        Self {
            program,
            iv: iv_id,
            upper: LoopBound::Expr(Expr::Scalar(ub_id)),
            stack: vec![Frame::Body(Vec::new())],
        }
    }

    /// The induction variable of the outermost loop under construction.
    pub fn iv(&self) -> VarId {
        self.iv
    }

    /// Interns a scalar and returns a read of it.
    pub fn scalar(&mut self, name: &str) -> Expr {
        Expr::Scalar(self.program.symbols.var(name))
    }

    /// Interns a scalar and returns its id.
    pub fn var(&mut self, name: &str) -> VarId {
        self.program.symbols.var(name)
    }

    /// Builds the rank-1 reference `name[a*iv + b]` for the *innermost* open
    /// loop's induction variable.
    pub fn array_ref(&mut self, name: &str, a: i64, b: i64) -> ArrayRef {
        let iv = self.current_iv();
        let id = self.program.symbols.array(name);
        let base = match a {
            0 => Expr::Const(b),
            1 if b == 0 => Expr::Scalar(iv),
            1 => Expr::add(Expr::Scalar(iv), Expr::Const(b)),
            _ if b == 0 => Expr::mul(Expr::Const(a), Expr::Scalar(iv)),
            _ => Expr::add(Expr::mul(Expr::Const(a), Expr::Scalar(iv)), Expr::Const(b)),
        };
        ArrayRef::new(id, base)
    }

    /// `l + r`
    pub fn add(&self, l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Add, l, r)
    }

    /// `l * r`
    pub fn mul(&self, l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mul, l, r)
    }

    /// Appends `lhs := rhs;` with a subscripted destination.
    pub fn assign_elem(&mut self, lhs: ArrayRef, rhs: Expr) -> &mut Self {
        self.push_stmt(Stmt::Assign(Assign::new(LValue::Elem(lhs), rhs)));
        self
    }

    /// Opens `if lhs op rhs then …`; close with [`LoopBuilder::end_if`] (or
    /// [`LoopBuilder::begin_else`] first).
    pub fn begin_if(&mut self, lhs: Expr, op: RelOp, rhs: Expr) -> &mut Self {
        self.stack.push(Frame::If {
            cond: Cond::new(lhs, op, rhs),
            then_blk: Vec::new(),
            else_blk: None,
        });
        self
    }

    /// Switches from the then-branch to the else-branch.
    ///
    /// # Panics
    ///
    /// Panics if no `if` is open or an else-branch was already started.
    pub fn begin_else(&mut self) -> &mut Self {
        match self.stack.last_mut() {
            Some(Frame::If { else_blk, .. }) if else_blk.is_none() => {
                *else_blk = Some(Vec::new());
            }
            _ => panic!("begin_else without matching begin_if"),
        }
        self
    }

    /// Closes the innermost open `if`.
    ///
    /// # Panics
    ///
    /// Panics if no `if` is open.
    pub fn end_if(&mut self) -> &mut Self {
        match self.stack.pop() {
            Some(Frame::If {
                cond,
                then_blk,
                else_blk,
            }) => {
                self.push_stmt(Stmt::If {
                    cond,
                    then_blk,
                    else_blk: else_blk.unwrap_or_default(),
                });
            }
            _ => panic!("end_if without matching begin_if"),
        }
        self
    }

    /// Opens a nested `do <iv> = 1, <ub>`; close with [`LoopBuilder::end_do`].
    pub fn begin_do(&mut self, iv: &str, ub: i64) -> &mut Self {
        let iv = self.program.symbols.var(iv);
        self.stack.push(Frame::Do {
            iv,
            lower: LoopBound::Const(1),
            upper: LoopBound::Const(ub),
            step: 1,
            body: Vec::new(),
        });
        self
    }

    /// Closes the innermost open nested loop.
    ///
    /// # Panics
    ///
    /// Panics if no nested loop is open.
    pub fn end_do(&mut self) -> &mut Self {
        match self.stack.pop() {
            Some(Frame::Do {
                iv,
                lower,
                upper,
                step,
                body,
            }) => {
                self.push_stmt(Stmt::Do(Loop {
                    iv,
                    lower,
                    upper,
                    step,
                    body,
                }));
            }
            _ => panic!("end_do without matching begin_do"),
        }
        self
    }

    fn current_iv(&self) -> VarId {
        for frame in self.stack.iter().rev() {
            if let Frame::Do { iv, .. } = frame {
                return *iv;
            }
        }
        self.iv
    }

    fn push_stmt(&mut self, stmt: Stmt) {
        match self.stack.last_mut().expect("builder stack never empty") {
            Frame::Body(b) => b.push(stmt),
            Frame::If {
                then_blk, else_blk, ..
            } => match else_blk {
                Some(e) => e.push(stmt),
                None => then_blk.push(stmt),
            },
            Frame::Do { body, .. } => body.push(stmt),
        }
    }

    /// Finishes construction, wraps the accumulated body in the outer loop,
    /// numbers all statements and returns the program.
    ///
    /// # Panics
    ///
    /// Panics if an `if` or nested `do` is still open.
    pub fn finish(mut self) -> Program {
        let body = match self.stack.pop() {
            Some(Frame::Body(b)) if self.stack.is_empty() => b,
            _ => panic!("finish with unclosed if/do"),
        };
        self.program.body = vec![Stmt::Do(Loop {
            iv: self.iv,
            lower: LoopBound::Const(1),
            upper: self.upper,
            step: 1,
            body,
        })];
        self.program.renumber();
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::print_program;

    #[test]
    fn builds_paper_fig1() {
        let mut b = LoopBuilder::with_symbolic_ub("i", "UB");
        let c2 = b.array_ref("C", 1, 2);
        let c0 = b.array_ref("C", 1, 0);
        let rhs = b.mul(c0.clone().into(), Expr::Const(2));
        b.assign_elem(c2, rhs);
        let b2i = b.array_ref("B", 2, 0);
        let x = b.scalar("x");
        let rhs = b.add(c0.clone().into(), x);
        b.assign_elem(b2i, rhs);
        b.begin_if(c0.clone().into(), RelOp::Eq, Expr::Const(0));
        let cdef = b.array_ref("C", 1, 0);
        let bm1 = b.array_ref("B", 1, -1);
        b.assign_elem(cdef, bm1.into());
        b.end_if();
        let bi = b.array_ref("B", 1, 0);
        let c1 = b.array_ref("C", 1, 1);
        b.assign_elem(bi, c1.into());
        let p = b.finish();
        let txt = print_program(&p);
        assert!(txt.contains("C[i + 2] := C[i] * 2;"), "{txt}");
        assert!(txt.contains("if C[i] == 0 then"), "{txt}");
    }

    #[test]
    fn nested_loop_uses_inner_iv() {
        let mut b = LoopBuilder::new("j", 10);
        b.begin_do("i", 20);
        let x = b.array_ref("X", 1, 1); // should use `i`
        b.assign_elem(x, Expr::Const(0));
        b.end_do();
        let p = b.finish();
        let txt = print_program(&p);
        assert!(txt.contains("X[i + 1] := 0;"), "{txt}");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_rejects_open_if() {
        let mut b = LoopBuilder::new("i", 10);
        b.begin_if(Expr::Const(0), RelOp::Eq, Expr::Const(0));
        let _ = b.finish();
    }

    #[test]
    fn else_branch_receives_statements() {
        let mut b = LoopBuilder::new("i", 10);
        b.begin_if(Expr::Const(1), RelOp::Eq, Expr::Const(1));
        let a = b.array_ref("A", 1, 0);
        b.assign_elem(a, Expr::Const(1));
        b.begin_else();
        let a2 = b.array_ref("A", 1, 0);
        b.assign_elem(a2, Expr::Const(2));
        b.end_if();
        let p = b.finish();
        let txt = print_program(&p);
        assert!(txt.contains("else"), "{txt}");
    }
}
