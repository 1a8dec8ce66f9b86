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
//!
//! One canonical walk emits the encoding as tokens, and two sinks consume
//! them: the hashing sink renames and hashes as it goes
//! ([`fingerprint_loop`]), and a [`Tape`] records them with one segment
//! per assignment, so a loop edited one assignment at a time is
//! re-fingerprinted by re-recording that assignment and replaying the
//! tape.

use std::fmt;

use crate::expr::{BinOp, Cond, Expr, RelOp};
use crate::parser::ParseError;
use crate::stmt::{ArrayRef, Assign, Block, LValue, Loop, LoopBound, Program, Stmt, StmtId};
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

/// The canonical walk: a deterministic pre-order traversal that emits a
/// loop's or program's encoding as tokens — tag bytes, counts, constants,
/// and the scalars and arrays it names. Implementors consume the tokens;
/// the provided methods walk.
trait Sink {
    fn byte(&mut self, b: u8);
    fn u32(&mut self, v: u32);
    fn i64(&mut self, v: i64);
    fn var(&mut self, v: VarId);
    fn array(&mut self, a: ArrayId);

    /// Assignment `id`'s tokens start here.
    fn begin(&mut self, _id: StmtId) {}

    /// The current assignment's tokens end here.
    fn end(&mut self) {}

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
        self.begin(a.id);
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
        self.end();
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
}

/// A renaming table slot not yet assigned a canonical index.
const UNSEEN: u32 = u32::MAX;

/// The hashing sink: FNV-1a/128 over the canonical encoding, with
/// scalars and arrays renamed to dense indices in order of first
/// occurrence.
struct Hasher<'a> {
    hash: u128,
    /// The renaming tables of scalars and of arrays, indexed by symbol
    /// id: each symbol's canonical index, or [`UNSEEN`].
    names: [Vec<u32>; 2],
    /// Symbols renamed so far, per table.
    seen: [u32; 2],
    symbols: &'a SymbolTable,
}

impl<'a> Hasher<'a> {
    fn new(symbols: &'a SymbolTable) -> Self {
        Self {
            hash: FNV128_OFFSET,
            names: [
                vec![UNSEEN; symbols.num_vars()],
                vec![UNSEEN; symbols.num_arrays()],
            ],
            seen: [0; 2],
            symbols,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// The canonical index of symbol `id` in renaming table `kind` (0 for
    /// scalars, 1 for arrays), and whether this is its first occurrence.
    fn rename(&mut self, kind: usize, id: u32) -> (u32, bool) {
        let table = &mut self.names[kind];
        if id as usize >= table.len() {
            table.resize(id as usize + 1, UNSEEN);
        }
        let slot = &mut table[id as usize];
        let first = *slot == UNSEEN;
        if first {
            *slot = self.seen[kind];
            self.seen[kind] += 1;
        }
        (*slot, first)
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.hash)
    }
}

impl Sink for Hasher<'_> {
    fn byte(&mut self, b: u8) {
        self.hash ^= b as u128;
        self.hash = self.hash.wrapping_mul(FNV128_PRIME);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Canonical index of a scalar: dense, in order of first occurrence.
    fn var(&mut self, v: VarId) {
        let (idx, _) = self.rename(0, v.0);
        self.u32(idx);
    }

    /// Canonical index of an array. On first occurrence the array's
    /// analysis-relevant metadata (rank, known extents) is folded in:
    /// linearization depends on it, so arrays differing in shape must not
    /// collide.
    fn array(&mut self, a: ArrayId) {
        let (idx, first) = self.rename(1, a.0);
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
}

/// Tape opcodes. Every tag and operator byte the walk emits is below
/// [`op::U32`] and is stored as itself; each other token is an opcode and
/// four or eight little-endian bytes: counts and constants as the hashing
/// sink reads them, names by symbol id.
mod op {
    pub const U32: u8 = 0x80;
    pub const I64: u8 = 0x81;
    pub const VAR: u8 = 0x82;
    pub const ARRAY: u8 = 0x83;
}

/// A loop's canonical walk, recorded: the tokens the hashing sink would
/// read, with names kept as symbol ids, in one flat byte stream with one
/// segment per assignment.
///
/// Replaying it ([`Tape::fingerprint`]) gives [`fingerprint_loop`]'s value
/// bit for bit, and an edited assignment is re-recorded alone
/// ([`Tape::rerecord`]), so an incremental session re-fingerprints its
/// loop without walking it. A replay also marks the hashing sink's state
/// at the start of every segment, so the next one resumes at the first
/// segment re-recorded since: the hash of an unchanged prefix, renaming
/// included, is unchanged. Names are recorded by symbol id: a tape stays
/// valid only while the program's symbol numbers do.
///
/// Two tapes are equal when they record the same walk, whatever they have
/// replayed.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    bytes: Vec<u8>,
    /// Per assignment, in walk order: its id and its segment of `bytes`.
    segments: Vec<(StmtId, u32, u32)>,
    /// The last replay's state at the start of each segment.
    marks: Vec<Mark>,
    /// The last replay's renaming tables (see [`Hasher`]).
    names: [Vec<u32>; 2],
    /// Leading segments whose marks are still valid.
    replayed: usize,
}

/// The hashing sink's state at the start of a segment: its hash, and how
/// many symbols of each table it had renamed.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    hash: u128,
    seen: [u32; 2],
}

impl PartialEq for Tape {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.segments == other.segments
    }
}

impl Eq for Tape {}

impl Sink for Tape {
    fn byte(&mut self, b: u8) {
        debug_assert!(b < op::U32, "tag {b:#x} collides with an opcode");
        self.bytes.push(b);
    }

    fn u32(&mut self, v: u32) {
        self.bytes.push(op::U32);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes.push(op::I64);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn var(&mut self, v: VarId) {
        self.bytes.push(op::VAR);
        self.bytes.extend_from_slice(&v.0.to_le_bytes());
    }

    fn array(&mut self, a: ArrayId) {
        self.bytes.push(op::ARRAY);
        self.bytes.extend_from_slice(&a.0.to_le_bytes());
    }

    fn begin(&mut self, id: StmtId) {
        let at = self.bytes.len() as u32;
        self.segments.push((id, at, at));
    }

    fn end(&mut self) {
        let at = self.bytes.len() as u32;
        self.segments.last_mut().expect("an assignment began").2 = at;
    }
}

impl Tape {
    /// Records the canonical walk of `l`.
    pub fn of_loop(l: &Loop) -> Self {
        let mut tape = Tape::default();
        tape.do_loop(l);
        tape
    }

    /// Replays the tape into the hashing sink, with `symbols` (the table
    /// the recorded loop's program numbers its names in) supplying array
    /// shapes: equal to [`fingerprint_loop`] of the recorded loop.
    ///
    /// The replay resumes at the first segment re-recorded since the
    /// last one, so every replay of a tape must be given the same symbol
    /// table, or one that only appends symbols to it.
    pub fn fingerprint(&mut self, symbols: &SymbolTable) -> Fingerprint {
        let mut h = Hasher::new(symbols);
        let mut next = self.replayed.saturating_sub(1);
        let mut start = 0;
        if self.replayed > 0 {
            let mark = self.marks[next];
            (h.hash, h.seen) = (mark.hash, mark.seen);
            // The names renamed before the mark keep their indices.
            for (kind, table) in h.names.iter_mut().enumerate() {
                let last = self.names[kind].iter();
                for (slot, &idx) in table.iter_mut().zip(last) {
                    if idx < mark.seen[kind] {
                        *slot = idx;
                    }
                }
            }
            start = self.segments[next].1 as usize;
        }
        self.marks.resize(self.segments.len(), Mark::default());
        // Where the next segment starts, as a length of the tape's rest.
        let (len, segments) = (self.bytes.len(), &self.segments);
        let mark_at = |next: usize| segments.get(next).map_or(0, |s| len - s.1 as usize);
        let mut marked = mark_at(next);
        let mut rest = &self.bytes[start..];
        let id = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().expect("four bytes"));
        while let Some((&code, tail)) = rest.split_first() {
            if rest.len() == marked {
                self.marks[next] = Mark {
                    hash: h.hash,
                    seen: h.seen,
                };
                next += 1;
                marked = mark_at(next);
            }
            rest = match code {
                op::U32 => {
                    h.bytes(&tail[..4]);
                    &tail[4..]
                }
                op::I64 => {
                    h.bytes(&tail[..8]);
                    &tail[8..]
                }
                op::VAR => {
                    h.var(VarId(id(tail)));
                    &tail[4..]
                }
                op::ARRAY => {
                    h.array(ArrayId(id(tail)));
                    &tail[4..]
                }
                b => {
                    h.byte(b);
                    tail
                }
            };
        }
        self.replayed = self.segments.len();
        self.names = std::mem::take(&mut h.names);
        h.finish()
    }

    /// Re-records the segment of the assignment with `assign`'s id from
    /// `assign`, leaving every other token in place: the tape of the loop
    /// with that assignment replaced, as long as its symbol numbers are
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the tape records no assignment with that id.
    pub fn rerecord(&mut self, assign: &Assign) {
        let k = self
            .segments
            .iter()
            .position(|s| s.0 == assign.id)
            .expect("the tape records the assignment");
        let mut segment = Tape::default();
        segment.assign(assign);
        self.replayed = self.replayed.min(k + 1);
        let (_, start, end) = self.segments[k];
        let grown = segment.bytes.len() as i64 - i64::from(end - start);
        self.bytes
            .splice(start as usize..end as usize, segment.bytes);
        self.segments[k].2 = (i64::from(end) + grown) as u32;
        for s in &mut self.segments[k + 1..] {
            s.1 = (i64::from(s.1) + grown) as u32;
            s.2 = (i64::from(s.2) + grown) as u32;
        }
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
    let mut h = Hasher::new(symbols);
    h.do_loop(l);
    h.finish()
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
    let mut h = Hasher::new(&p.symbols);
    h.byte(tag::PROGRAM);
    h.block(&p.body);
    h.finish()
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

    /// Every assignment of `p`'s sole loop, in walk order.
    fn assigns(p: &Program) -> Vec<Assign> {
        fn walk(block: &Block, out: &mut Vec<Assign>) {
            for s in block {
                match s {
                    Stmt::Assign(a) => out.push(a.clone()),
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => {
                        walk(then_blk, out);
                        walk(else_blk, out);
                    }
                    Stmt::Do(l) => walk(&l.body, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&p.body, &mut out);
        out
    }

    const TAPED: [&str; 4] = [
        "do i = 1, 10 A[i] := A[i-1] + x; end",
        "do i = 1, N
           A[2*i+1] := B[i] * 3;
           if A[i] < B[i-2] then B[i] := A[i+1]; else C[i] := -4; end
           t := A[i];
         end",
        // A nest: the inner loop's header and body are on the outer tape.
        "do j = 1, M do i = 1, N X[i+1, j] := X[i, j] + Y[j]; end Z[j] := Z[j-1]; end",
        // A multi-dimensional array.
        "do i = 1, 8 W[i, 2] := W[i, 1] + W[i-1, 3]; end",
    ];

    #[test]
    fn tape_replays_the_walk() {
        for src in TAPED {
            let p = parse_program(src).unwrap();
            let l = p.sole_loop().unwrap();
            let mut tape = Tape::of_loop(l);
            assert_eq!(tape.segments.len(), assigns(&p).len(), "{src}");
            assert_eq!(
                tape.fingerprint(&p.symbols),
                fingerprint_loop(l, &p.symbols),
                "{src}"
            );
        }
    }

    #[test]
    fn rerecorded_assignments_replay_the_edited_walk() {
        let texts = [
            "A[i+3] := B[i-1] + A[i];",
            "B[i] := 7;",
            "Q[i, 2] := x * (y - A[i]);",
            "s := A[2*i] / B[i+1];",
        ];
        for src in TAPED {
            let mut p = parse_program(src).unwrap();
            let mut tape = Tape::of_loop(p.sole_loop().unwrap());
            for (k, old) in assigns(&p).iter().enumerate() {
                let (stmt, symbols) = crate::parse_stmt_with(&p.symbols, texts[k % 4]).unwrap();
                let Stmt::Assign(mut new) = stmt else {
                    panic!("an assignment")
                };
                new.id = old.id;
                if let Some(symbols) = symbols {
                    p.symbols = symbols;
                }
                let mut edited = None;
                replace(&mut p.body, new.clone(), &mut edited);
                assert!(edited.is_some(), "{src}: assignment {k} replaced");
                tape.rerecord(&new);
                let l = p.sole_loop().unwrap();
                assert_eq!(tape, Tape::of_loop(l), "{src}: assignment {k}");
                assert_eq!(
                    tape.fingerprint(&p.symbols),
                    fingerprint_loop(l, &p.symbols),
                    "{src}: assignment {k}"
                );
            }
        }
    }

    /// Replaces the assignment with `new`'s id in `block` by `new`,
    /// leaving the replaced one in `out`.
    fn replace(block: &mut Block, new: Assign, out: &mut Option<Assign>) {
        for s in block {
            match s {
                Stmt::Assign(a) if a.id == new.id => {
                    *out = Some(std::mem::replace(a, new));
                    return;
                }
                Stmt::Assign(_) => {}
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    replace(then_blk, new.clone(), out);
                    replace(else_blk, new.clone(), out);
                }
                Stmt::Do(l) => replace(&mut l.body, new.clone(), out),
            }
            if out.is_some() {
                return;
            }
        }
    }

    #[test]
    fn display_is_32_hex_digits() {
        let f = fp("do i = 1, 10 A[i] := 0; end");
        let s = f.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
