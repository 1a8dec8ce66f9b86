//! Reference interpreter.
//!
//! Executes programs directly over the AST with Fortran-like semantics
//! (arrays default-initialized to zero, integer arithmetic). The interpreter
//! is the ground truth used to validate that every optimization in
//! `arrayflow-opt` preserves observable behaviour, and it counts array
//! reads/writes so that redundancy-elimination effects can be measured at
//! the source level, independent of any machine model.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{BinOp, Cond, Expr};
use crate::stmt::{ArrayRef, Block, LValue, Program, Stmt};
use crate::symbols::{ArrayId, VarId};

/// Errors raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Integer division by zero.
    DivisionByZero,
    /// A statement assigned to the induction variable of an enclosing active
    /// loop — forbidden by the paper's loop model (§1).
    InductionVariableAssigned(VarId),
    /// The step budget was exhausted (runaway loop protection).
    BudgetExceeded,
    /// Arithmetic overflowed `i64`.
    Overflow,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::InductionVariableAssigned(v) => {
                write!(f, "assignment to active induction variable {v}")
            }
            InterpError::BudgetExceeded => write!(f, "execution budget exceeded"),
            InterpError::Overflow => write!(f, "integer overflow"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics gathered by the interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Array element reads.
    pub array_reads: u64,
    /// Array element writes.
    pub array_writes: u64,
    /// Assignments executed.
    pub assigns: u64,
    /// Loop iterations executed (summed over all loops).
    pub iterations: u64,
}

/// The mutable program state: scalar bindings plus sparse array storage.
#[derive(Debug, Clone, Default)]
pub struct Env {
    scalars: BTreeMap<VarId, i64>,
    arrays: BTreeMap<ArrayId, BTreeMap<Vec<i64>, i64>>,
    /// Statistics for the most recent [`Env::run`].
    pub stats: InterpStats,
    /// Remaining step budget; decremented per executed statement.
    budget: u64,
}

impl Env {
    /// Creates an empty environment with a generous default budget.
    pub fn new() -> Self {
        Self {
            budget: 100_000_000,
            ..Self::default()
        }
    }

    /// Creates an environment with an explicit step budget.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }

    /// Sets a scalar before execution.
    pub fn set_scalar(&mut self, v: VarId, value: i64) {
        self.scalars.insert(v, value);
    }

    /// Reads a scalar (zero if unset).
    pub fn scalar(&self, v: VarId) -> i64 {
        self.scalars.get(&v).copied().unwrap_or(0)
    }

    /// Sets an array element before execution.
    pub fn set_elem(&mut self, a: ArrayId, idx: Vec<i64>, value: i64) {
        self.arrays.entry(a).or_default().insert(idx, value);
    }

    /// Reads an array element (zero if unset). Does not count as a measured
    /// read.
    pub fn elem(&self, a: ArrayId, idx: &[i64]) -> i64 {
        self.arrays
            .get(&a)
            .and_then(|m| m.get(idx))
            .copied()
            .unwrap_or(0)
    }

    /// A snapshot of all array contents, for whole-state equivalence checks.
    pub fn array_state(&self) -> &BTreeMap<ArrayId, BTreeMap<Vec<i64>, i64>> {
        &self.arrays
    }

    /// Runs a whole program.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(&mut self, program: &Program) -> Result<(), InterpError> {
        self.stats = InterpStats::default();
        let mut active_ivs = Vec::new();
        self.exec_block(&program.body, &mut active_ivs)
    }

    fn charge(&mut self) -> Result<(), InterpError> {
        if self.budget == 0 {
            return Err(InterpError::BudgetExceeded);
        }
        self.budget -= 1;
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &Block,
        active_ivs: &mut Vec<VarId>,
    ) -> Result<(), InterpError> {
        for stmt in block {
            self.exec_stmt(stmt, active_ivs)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt, active_ivs: &mut Vec<VarId>) -> Result<(), InterpError> {
        self.charge()?;
        match stmt {
            Stmt::Assign(a) => {
                let value = self.eval(&a.rhs)?;
                self.stats.assigns += 1;
                match &a.lhs {
                    LValue::Scalar(v) => {
                        if active_ivs.contains(v) {
                            return Err(InterpError::InductionVariableAssigned(*v));
                        }
                        self.scalars.insert(*v, value);
                    }
                    LValue::Elem(r) => {
                        let idx = self.eval_subs(r)?;
                        self.stats.array_writes += 1;
                        self.arrays.entry(r.array).or_default().insert(idx, value);
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.eval_cond(cond)? {
                    self.exec_block(then_blk, active_ivs)?;
                } else {
                    self.exec_block(else_blk, active_ivs)?;
                }
            }
            Stmt::Do(l) => {
                let lower = self.eval(&l.lower.to_expr())?;
                let upper = self.eval(&l.upper.to_expr())?;
                if l.step == 0 {
                    return Err(InterpError::BudgetExceeded);
                }
                active_ivs.push(l.iv);
                let mut i = lower;
                loop {
                    let in_range = if l.step > 0 { i <= upper } else { i >= upper };
                    if !in_range {
                        break;
                    }
                    self.scalars.insert(l.iv, i);
                    self.stats.iterations += 1;
                    self.charge()?;
                    self.exec_block(&l.body, active_ivs)?;
                    i = i.checked_add(l.step).ok_or(InterpError::Overflow)?;
                }
                active_ivs.pop();
            }
        }
        Ok(())
    }

    fn eval_cond(&mut self, c: &Cond) -> Result<bool, InterpError> {
        let l = self.eval(&c.lhs)?;
        let r = self.eval(&c.rhs)?;
        Ok(c.op.eval(l, r))
    }

    fn eval_subs(&mut self, r: &ArrayRef) -> Result<Vec<i64>, InterpError> {
        r.subs.iter().map(|e| self.eval(e)).collect()
    }

    /// Evaluates an expression in the current state, counting array reads.
    pub fn eval(&mut self, e: &Expr) -> Result<i64, InterpError> {
        match e {
            Expr::Const(c) => Ok(*c),
            Expr::Scalar(v) => Ok(self.scalar(*v)),
            Expr::Elem(r) => {
                let idx = self.eval_subs(r)?;
                self.stats.array_reads += 1;
                Ok(self.elem(r.array, &idx))
            }
            Expr::Bin(op, l, r) => {
                let l = self.eval(l)?;
                let r = self.eval(r)?;
                match op {
                    // Two's-complement wrapping, matching the virtual
                    // machine's semantics so IR-level and machine-level
                    // equivalence checks agree on pathological inputs.
                    BinOp::Add => Ok(l.wrapping_add(r)),
                    BinOp::Sub => Ok(l.wrapping_sub(r)),
                    BinOp::Mul => Ok(l.wrapping_mul(r)),
                    BinOp::Div => {
                        if r == 0 {
                            Err(InterpError::DivisionByZero)
                        } else {
                            Ok(l / r)
                        }
                    }
                }
            }
        }
    }
}

/// Runs `program` in a fresh environment seeded by `setup`, returning the
/// final environment.
///
/// # Errors
///
/// Propagates any [`InterpError`] raised during execution.
pub fn run_with(program: &Program, setup: impl FnOnce(&mut Env)) -> Result<Env, InterpError> {
    let mut env = Env::new();
    setup(&mut env);
    env.run(program)?;
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn executes_simple_stencil() {
        let p = parse_program(
            "do i = 1, 10
               A[i+2] := A[i] + x;
             end",
        )
        .unwrap();
        let x = p.symbols.lookup_var("x").unwrap();
        let a = p.symbols.lookup_array("A").unwrap();
        let env = run_with(&p, |e| {
            e.set_scalar(x, 5);
            e.set_elem(a, vec![1], 100);
            e.set_elem(a, vec![2], 200);
        })
        .unwrap();
        // A[3] = A[1]+5 = 105; A[5] = A[3]+5 = 110; ...
        assert_eq!(env.elem(a, &[3]), 105);
        assert_eq!(env.elem(a, &[5]), 110);
        assert_eq!(env.elem(a, &[4]), 205);
        assert_eq!(env.stats.array_reads, 10);
        assert_eq!(env.stats.array_writes, 10);
        assert_eq!(env.stats.iterations, 10);
    }

    #[test]
    fn conditionals_and_else() {
        let p = parse_program(
            "do i = 1, 4
               if i < 3 then A[i] := 1; else A[i] := 2; end
             end",
        )
        .unwrap();
        let a = p.symbols.lookup_array("A").unwrap();
        let env = run_with(&p, |_| {}).unwrap();
        assert_eq!(env.elem(a, &[1]), 1);
        assert_eq!(env.elem(a, &[2]), 1);
        assert_eq!(env.elem(a, &[3]), 2);
        assert_eq!(env.elem(a, &[4]), 2);
    }

    #[test]
    fn nested_loops_multidim() {
        let p = parse_program(
            "do j = 1, 3
               do i = 1, 3
                 X[i, j] := i * 10 + j;
               end
             end",
        )
        .unwrap();
        let x = p.symbols.lookup_array("X").unwrap();
        let env = run_with(&p, |_| {}).unwrap();
        assert_eq!(env.elem(x, &[2, 3]), 23);
        assert_eq!(env.stats.iterations, 3 + 9);
    }

    #[test]
    fn division_by_zero_is_reported() {
        let p = parse_program("do i = 1, 3 A[i] := i / (i - 2); end").unwrap();
        assert_eq!(
            run_with(&p, |_| {}).unwrap_err(),
            InterpError::DivisionByZero
        );
    }

    #[test]
    fn iv_assignment_is_rejected() {
        let p = parse_program("do i = 1, 3 i := 0; end").unwrap();
        let err = run_with(&p, |_| {}).unwrap_err();
        assert!(matches!(err, InterpError::InductionVariableAssigned(_)));
    }

    #[test]
    fn budget_prevents_runaway() {
        let p = parse_program("do i = 1, 1000000 A[i] := 0; end").unwrap();
        let mut env = Env::with_budget(100);
        assert_eq!(env.run(&p), Err(InterpError::BudgetExceeded));
    }

    #[test]
    fn zero_trip_loop_runs_nothing() {
        let p = parse_program("do i = 5, 1 A[i] := 1; end").unwrap();
        let env = run_with(&p, |_| {}).unwrap();
        assert_eq!(env.stats.iterations, 0);
        assert_eq!(env.stats.array_writes, 0);
    }

    #[test]
    fn negative_step_counts_down() {
        let p = parse_program("do i = 5, 1, -2 A[i] := i; end").unwrap();
        let a = p.symbols.lookup_array("A").unwrap();
        let env = run_with(&p, |_| {}).unwrap();
        assert_eq!(env.elem(a, &[5]), 5);
        assert_eq!(env.elem(a, &[3]), 3);
        assert_eq!(env.elem(a, &[1]), 1);
        assert_eq!(env.elem(a, &[2]), 0);
    }
}
