//! Statements, blocks, loops and programs.

use crate::expr::{Cond, Expr};
use crate::symbols::{ArrayId, SymbolTable, VarId};

/// Unique identifier of an assignment statement within a [`Program`].
///
/// Assigned in textual order by [`Program::renumber`]; optimization passes
/// use it to map analysis results back onto the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl StmtId {
    /// Sentinel for statements that have not been numbered yet.
    pub const UNASSIGNED: StmtId = StmtId(u32::MAX);
}

/// A reference to an array element: `X[e₁, …, eₙ]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The array being referenced.
    pub array: ArrayId,
    /// One subscript expression per dimension.
    pub subs: Vec<Expr>,
}

impl ArrayRef {
    /// Creates a rank-1 reference.
    pub fn new(array: ArrayId, sub: Expr) -> Self {
        Self {
            array,
            subs: vec![sub],
        }
    }

    /// Creates a multi-dimensional reference.
    pub fn multi(array: ArrayId, subs: Vec<Expr>) -> Self {
        Self { array, subs }
    }
}

/// The destination of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A scalar variable.
    Scalar(VarId),
    /// An array element (a *definition* of a subscripted variable).
    Elem(ArrayRef),
}

/// An assignment statement `lhs := rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// Stable identifier (see [`Program::renumber`]).
    pub id: StmtId,
    /// Destination.
    pub lhs: LValue,
    /// Source expression.
    pub rhs: Expr,
}

impl Assign {
    /// Creates an unnumbered assignment.
    pub fn new(lhs: LValue, rhs: Expr) -> Self {
        Self {
            id: StmtId::UNASSIGNED,
            lhs,
            rhs,
        }
    }
}

/// One bound of a `do` loop.
///
/// After [`crate::normalize()`], the lower bound of every loop is the constant
/// 1 and the step is 1, so the interesting payload is the upper bound, which
/// is either a compile-time constant or a symbolic expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopBound {
    /// Known at compile time.
    Const(i64),
    /// Arbitrary expression, evaluated on loop entry.
    Expr(Expr),
}

impl LoopBound {
    /// The bound as a compile-time constant, if it is one.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            LoopBound::Const(c) => Some(*c),
            LoopBound::Expr(Expr::Const(c)) => Some(*c),
            LoopBound::Expr(_) => None,
        }
    }

    /// The bound as an expression.
    pub fn to_expr(&self) -> Expr {
        match self {
            LoopBound::Const(c) => Expr::Const(*c),
            LoopBound::Expr(e) => e.clone(),
        }
    }
}

impl From<i64> for LoopBound {
    fn from(c: i64) -> Self {
        LoopBound::Const(c)
    }
}

impl From<Expr> for LoopBound {
    fn from(e: Expr) -> Self {
        LoopBound::Expr(e)
    }
}

/// A counted `do` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Basic induction variable. The paper assumes no statement in the body
    /// assigns to it; the interpreter and analyses enforce this.
    pub iv: VarId,
    /// Lower bound (1 after normalization).
    pub lower: LoopBound,
    /// Upper bound `UB`.
    pub upper: LoopBound,
    /// Increment (1 after normalization).
    pub step: i64,
    /// Loop body.
    pub body: Block,
}

impl Loop {
    /// True if the loop has the normalized form `do i = 1, UB` with step 1.
    pub fn is_normalized(&self) -> bool {
        self.lower.as_const() == Some(1) && self.step == 1
    }

    /// The trip count if the bounds are compile-time constants.
    pub fn const_trip_count(&self) -> Option<i64> {
        let l = self.lower.as_const()?;
        let u = self.upper.as_const()?;
        if self.step == 0 {
            return None;
        }
        let span = u - l;
        let n = span.div_euclid(self.step) + 1;
        Some(n.max(0))
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `lhs := rhs;`
    Assign(Assign),
    /// `if cond then … [else …] end`
    If {
        /// Guard condition.
        cond: Cond,
        /// Then-branch.
        then_blk: Block,
        /// Else-branch (possibly empty).
        else_blk: Block,
    },
    /// A nested `do` loop.
    Do(Loop),
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// A whole program: a symbol table plus a top-level statement list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Names and array metadata for every identifier in `body`.
    pub symbols: SymbolTable,
    /// Top-level statements (typically a single outermost loop, possibly
    /// preceded/followed by scalar setup code).
    pub body: Block,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns fresh sequential [`StmtId`]s to every assignment in textual
    /// order. Returns the number of assignments.
    pub fn renumber(&mut self) -> u32 {
        fn walk(block: &mut Block, next: &mut u32) {
            for stmt in block {
                match stmt {
                    Stmt::Assign(a) => {
                        a.id = StmtId(*next);
                        *next += 1;
                    }
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => {
                        walk(then_blk, next);
                        walk(else_blk, next);
                    }
                    Stmt::Do(l) => walk(&mut l.body, next),
                }
            }
        }
        let mut next = 0;
        walk(&mut self.body, &mut next);
        next
    }

    /// If the program body is a single `do` loop, returns it.
    pub fn sole_loop(&self) -> Option<&Loop> {
        match self.body.as_slice() {
            [Stmt::Do(l)] => Some(l),
            _ => None,
        }
    }

    /// Mutable variant of [`Program::sole_loop`].
    pub fn sole_loop_mut(&mut self) -> Option<&mut Loop> {
        match self.body.as_mut_slice() {
            [Stmt::Do(l)] => Some(l),
            _ => None,
        }
    }

    /// Convenience: name of a scalar variable.
    pub fn name(&self, v: VarId) -> &str {
        self.symbols.var_name(v)
    }

    /// Convenience: name of an array.
    pub fn array_name(&self, a: ArrayId) -> &str {
        self.symbols.array_name(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn renumber_assigns_textual_order() {
        let mut p = Program::new();
        let i = p.symbols.var("i");
        let a = p.symbols.array("A");
        let mk = |k: i64| {
            Stmt::Assign(Assign::new(
                LValue::Elem(ArrayRef::new(a, Expr::Const(k))),
                Expr::Const(k),
            ))
        };
        p.body = vec![Stmt::Do(Loop {
            iv: i,
            lower: 1.into(),
            upper: 10.into(),
            step: 1,
            body: vec![
                mk(0),
                Stmt::If {
                    cond: Cond::new(Expr::Const(0), crate::expr::RelOp::Eq, Expr::Const(0)),
                    then_blk: vec![mk(1)],
                    else_blk: vec![mk(2)],
                },
                mk(3),
            ],
        })];
        assert_eq!(p.renumber(), 4);
        let l = p.sole_loop().unwrap();
        match (&l.body[0], &l.body[2]) {
            (Stmt::Assign(a0), Stmt::Assign(a3)) => {
                assert_eq!(a0.id, StmtId(0));
                assert_eq!(a3.id, StmtId(3));
            }
            _ => panic!("expected assigns"),
        }
    }

    #[test]
    fn trip_count() {
        let mut p = Program::new();
        let i = p.symbols.var("i");
        let l = Loop {
            iv: i,
            lower: 1.into(),
            upper: 10.into(),
            step: 1,
            body: vec![],
        };
        assert_eq!(l.const_trip_count(), Some(10));
        assert!(l.is_normalized());
        let l2 = Loop {
            iv: i,
            lower: 2.into(),
            upper: 11.into(),
            step: 3,
            body: vec![],
        };
        assert_eq!(l2.const_trip_count(), Some(4));
        assert!(!l2.is_normalized());
        let l3 = Loop {
            iv: i,
            lower: 5.into(),
            upper: 1.into(),
            step: 1,
            body: vec![],
        };
        assert_eq!(l3.const_trip_count(), Some(0));
    }
}
