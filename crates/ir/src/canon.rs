//! Canonical loop fingerprints.
//!
//! A batch analysis service sees thousands of structurally identical loops
//! whose only differences are *names*: the induction variable is `i` in one
//! compilation unit and `j` in another, the symbolic upper bound is `N` or
//! `len`, the arrays are `A`/`B` or `src`/`dst`. The analysis results of
//! the framework are invariant under such renamings — every fact is stated
//! in terms of site indices, tracked-reference indices and iteration
//! distances, never raw names — so alpha-equivalent loops can share one
//! cached analysis.
//!
//! This module computes a stable 128-bit structural hash of a loop (or
//! whole program) after **alpha-renaming**: scalar variables and arrays are
//! replaced by dense indices in order of first occurrence during a
//! deterministic pre-order walk of the AST. Two loops collide iff they have
//! the same shape — same statement structure, same operators, same constant
//! values, same subscript expressions and bounds *up to renaming*.
//!
//! What the fingerprint does **not** normalize (deliberately — these change
//! analysis results): loop bounds and steps, subscript coefficients and
//! offsets, constant values, conditional structure and relational
//! operators, statement order, array ranks and declared extents.
//!
//! The hash is FNV-1a over a canonical byte encoding, widened to 128 bits
//! so accidental collisions are out of reach for realistic cache sizes
//! (implemented in-repo; the workspace has no external dependencies).

use std::collections::HashMap;
use std::fmt;

use crate::expr::{BinOp, Cond, Expr, RelOp};
use crate::parser::ParseError;
use crate::stmt::{ArrayRef, Assign, Block, LValue, Loop, LoopBound, Program, Stmt};
use crate::symbols::{ArrayId, SymbolTable, VarId};

/// A 128-bit canonical structural hash of a loop or program.
///
/// Equal fingerprints mean "alpha-equivalent with overwhelming
/// probability"; unequal fingerprints mean "definitely not
/// alpha-equivalent" (the encoding is injective, only the hash can
/// collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a/128 over the canonical encoding, with first-occurrence
/// alpha-renaming tables for scalars and arrays.
struct Canonicalizer<'a> {
    hash: u128,
    vars: HashMap<VarId, u32>,
    arrays: HashMap<ArrayId, u32>,
    symbols: &'a SymbolTable,
}

// One tag byte per construct keeps the encoding prefix-free enough that
// structurally different ASTs cannot produce the same byte stream.
mod tag {
    pub const CONST: u8 = 0x01;
    pub const SCALAR: u8 = 0x02;
    pub const ELEM: u8 = 0x03;
    pub const BIN: u8 = 0x04;
    pub const ASSIGN: u8 = 0x10;
    pub const IF: u8 = 0x11;
    pub const DO: u8 = 0x12;
    pub const LV_SCALAR: u8 = 0x13;
    pub const LV_ELEM: u8 = 0x14;
    pub const BOUND_CONST: u8 = 0x20;
    pub const BOUND_EXPR: u8 = 0x21;
    pub const BLOCK: u8 = 0x30;
    pub const ARRAY_META: u8 = 0x40;
    pub const EXTENT_KNOWN: u8 = 0x41;
    pub const EXTENT_UNKNOWN: u8 = 0x42;
    pub const PROGRAM: u8 = 0x50;
}

impl<'a> Canonicalizer<'a> {
    fn new(symbols: &'a SymbolTable) -> Self {
        Self {
            hash: FNV128_OFFSET,
            vars: HashMap::new(),
            arrays: HashMap::new(),
            symbols,
        }
    }

    fn byte(&mut self, b: u8) {
        self.hash ^= b as u128;
        self.hash = self.hash.wrapping_mul(FNV128_PRIME);
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn i64(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Canonical index of a scalar: dense, in order of first occurrence.
    fn var(&mut self, v: VarId) {
        let next = self.vars.len() as u32;
        let idx = *self.vars.entry(v).or_insert(next);
        self.u32(idx);
    }

    /// Canonical index of an array. On first occurrence the array's
    /// analysis-relevant metadata (rank, known extents) is folded in:
    /// linearization depends on it, so arrays differing in shape must not
    /// collide.
    fn array(&mut self, a: ArrayId) {
        let next = self.arrays.len() as u32;
        let mut first = false;
        let idx = *self.arrays.entry(a).or_insert_with(|| {
            first = true;
            next
        });
        self.u32(idx);
        if first {
            let info = self.symbols.array_info(a);
            self.byte(tag::ARRAY_META);
            self.u32(info.rank as u32);
            for e in &info.extents {
                match e {
                    Some(c) => {
                        self.byte(tag::EXTENT_KNOWN);
                        self.i64(*c);
                    }
                    None => self.byte(tag::EXTENT_UNKNOWN),
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(c) => {
                self.byte(tag::CONST);
                self.i64(*c);
            }
            Expr::Scalar(v) => {
                self.byte(tag::SCALAR);
                self.var(*v);
            }
            Expr::Elem(r) => {
                self.byte(tag::ELEM);
                self.aref(r);
            }
            Expr::Bin(op, l, r) => {
                self.byte(tag::BIN);
                self.byte(match op {
                    BinOp::Add => 0,
                    BinOp::Sub => 1,
                    BinOp::Mul => 2,
                    BinOp::Div => 3,
                });
                self.expr(l);
                self.expr(r);
            }
        }
    }

    fn aref(&mut self, r: &ArrayRef) {
        self.array(r.array);
        self.u32(r.subs.len() as u32);
        for s in &r.subs {
            self.expr(s);
        }
    }

    fn cond(&mut self, c: &Cond) {
        self.byte(match c.op {
            RelOp::Eq => 0,
            RelOp::Ne => 1,
            RelOp::Lt => 2,
            RelOp::Le => 3,
            RelOp::Gt => 4,
            RelOp::Ge => 5,
        });
        self.expr(&c.lhs);
        self.expr(&c.rhs);
    }

    fn bound(&mut self, b: &LoopBound) {
        // `Const(c)` and `Expr(Const(c))` mean the same loop; canonicalize
        // through `as_const` so they collide.
        match b.as_const() {
            Some(c) => {
                self.byte(tag::BOUND_CONST);
                self.i64(c);
            }
            None => {
                self.byte(tag::BOUND_EXPR);
                self.bound_expr(b);
            }
        }
    }

    fn bound_expr(&mut self, b: &LoopBound) {
        match b {
            LoopBound::Const(c) => {
                self.byte(tag::CONST);
                self.i64(*c);
            }
            LoopBound::Expr(e) => self.expr(e),
        }
    }

    fn assign(&mut self, a: &Assign) {
        self.byte(tag::ASSIGN);
        match &a.lhs {
            LValue::Scalar(v) => {
                self.byte(tag::LV_SCALAR);
                self.var(*v);
            }
            LValue::Elem(r) => {
                self.byte(tag::LV_ELEM);
                self.aref(r);
            }
        }
        self.expr(&a.rhs);
    }

    fn block(&mut self, b: &Block) {
        self.byte(tag::BLOCK);
        self.u32(b.len() as u32);
        for s in b {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(a) => self.assign(a),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.byte(tag::IF);
                self.cond(cond);
                self.block(then_blk);
                self.block(else_blk);
            }
            Stmt::Do(l) => self.do_loop(l),
        }
    }

    fn do_loop(&mut self, l: &Loop) {
        self.byte(tag::DO);
        // The IV participates in first-occurrence renaming like any other
        // scalar: it occurs first in its own header, so the IV of the
        // outermost fingerprinted loop is always canonical index 0 there.
        self.var(l.iv);
        self.bound(&l.lower);
        self.bound(&l.upper);
        self.i64(l.step);
        self.block(&l.body);
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.hash)
    }
}

/// Fingerprints one loop (with its entire body, including nested loops).
///
/// Alpha-equivalent loops — equal up to consistent renaming of scalars
/// (induction variables, symbolic constants) and arrays — map to the same
/// fingerprint; loops differing in bounds, steps, subscripts, operators,
/// constants or control structure do not (modulo the 2⁻¹²⁸ hash-collision
/// probability).
///
/// ```
/// use arrayflow_ir::{canon, parse_program};
///
/// let a = parse_program("do i = 1, 100 A[i+2] := A[i] + x; end").unwrap();
/// let b = parse_program("do j = 1, 100 B[j+2] := B[j] + y; end").unwrap();
/// let c = parse_program("do i = 1, 100 A[i+3] := A[i] + x; end").unwrap();
/// let fa = canon::fingerprint_loop(a.sole_loop().unwrap(), &a.symbols);
/// let fb = canon::fingerprint_loop(b.sole_loop().unwrap(), &b.symbols);
/// let fc = canon::fingerprint_loop(c.sole_loop().unwrap(), &c.symbols);
/// assert_eq!(fa, fb);
/// assert_ne!(fa, fc);
/// ```
pub fn fingerprint_loop(l: &Loop, symbols: &SymbolTable) -> Fingerprint {
    let mut c = Canonicalizer::new(symbols);
    c.do_loop(l);
    c.finish()
}

/// Fingerprints the source of a program whose body is exactly one loop,
/// the way the engine keys its cache: parse, normalize (which renumbers),
/// then [`fingerprint_loop`] the sole loop. The flag is true when that loop
/// is flat (no loop nested in it). `Ok(None)` when the program is not
/// exactly one top-level loop.
pub fn fingerprint_source(source: &str) -> Result<Option<(Fingerprint, bool)>, ParseError> {
    let mut program = crate::parse_program(source)?;
    crate::normalize(&mut program);
    Ok(program.sole_loop().map(|l| {
        let flat = crate::visit::count_stmts(&l.body).loops == 0;
        (fingerprint_loop(l, &program.symbols), flat)
    }))
}

/// Fingerprints a whole program body (top-level statements in order).
pub fn fingerprint_program(p: &Program) -> Fingerprint {
    let mut c = Canonicalizer::new(&p.symbols);
    c.byte(tag::PROGRAM);
    c.block(&p.body);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn fp(src: &str) -> Fingerprint {
        let p = parse_program(src).unwrap();
        let l = p.sole_loop().expect("single loop");
        fingerprint_loop(l, &p.symbols)
    }

    #[test]
    fn renaming_collides() {
        assert_eq!(
            fp("do i = 1, 10 A[i] := A[i-1] + x; end"),
            fp("do k = 1, 10 Z[k] := Z[k-1] + w; end"),
        );
    }

    #[test]
    fn distinct_arrays_do_not_merge() {
        // A[i] := B[i] uses two arrays; A[i] := A[i] uses one. A naive
        // name-erasing hash would conflate them.
        assert_ne!(
            fp("do i = 1, 10 A[i] := B[i]; end"),
            fp("do i = 1, 10 A[i] := A[i]; end"),
        );
    }

    #[test]
    fn bound_const_and_const_expr_collide() {
        let mut p = parse_program("do i = 1, 10 A[i] := 0; end").unwrap();
        let base = fingerprint_loop(p.sole_loop().unwrap(), &p.symbols);
        p.sole_loop_mut().unwrap().upper = LoopBound::Expr(Expr::Const(10));
        assert_eq!(base, fingerprint_loop(p.sole_loop().unwrap(), &p.symbols));
    }

    #[test]
    fn display_is_32_hex_digits() {
        let f = fp("do i = 1, 10 A[i] := 0; end");
        let s = f.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
