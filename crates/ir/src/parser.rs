//! Parser for the Fortran-like loop DSL.
//!
//! Grammar (semicolons terminate assignments; `end` closes `do` and `if`):
//!
//! ```text
//! program := { stmt }
//! stmt    := do | if | assign
//! do      := "do" IDENT "=" expr "," expr [ "," INT ] { stmt } "end"
//! if      := "if" cond "then" { stmt } [ "else" { stmt } ] "end"
//! assign  := lvalue ":=" expr ";"
//! lvalue  := IDENT [ "[" expr { "," expr } "]" ]
//! cond    := expr ("=="|"!="|"<"|"<="|">"|">=") expr
//! expr    := term { ("+"|"-") term }
//! term    := factor { ("*"|"/") factor }
//! factor  := INT | "-" factor | "(" expr ")"
//!          | IDENT [ "[" expr { "," expr } "]" ]
//! ```
//!
//! Identifiers used with brackets denote arrays (rank fixed by first use);
//! all other identifiers are scalars.

use std::borrow::Cow;
use std::fmt;

use crate::expr::{BinOp, Cond, Expr, RelOp};
use crate::stmt::{ArrayRef, Assign, Block, LValue, Loop, Program, Stmt};
use crate::symbols::SymbolTable;

/// Error produced by [`parse_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token. Identifiers borrow their text from the source, so a token is
/// a plain copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Assign, // :=
    Semi,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Plus,
    Minus,
    Star,
    Slash,
    Rel(RelOp),
    KwDo,
    KwEnd,
    KwIf,
    KwThen,
    KwElse,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(n) => write!(f, "integer `{n}`"),
            Tok::Assign => write!(f, "`:=`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Rel(_) => write!(f, "relational operator"),
            Tok::KwDo => write!(f, "`do`"),
            Tok::KwEnd => write!(f, "`end`"),
            Tok::KwIf => write!(f, "`if`"),
            Tok::KwThen => write!(f, "`then`"),
            Tok::KwElse => write!(f, "`else`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a [u8]) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn next_tok(&mut self) -> Result<(Tok<'a>, usize), ParseError> {
        loop {
            while self.pos < self.src.len() {
                let c = self.src[self.pos];
                if c == b'\n' {
                    self.line += 1;
                    self.pos += 1;
                } else if c.is_ascii_whitespace() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            // Comments: `--` or `{ ... }` (Pascal-style, as in the paper's figures).
            if self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'-'
                && self.src[self.pos + 1] == b'-'
            {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.pos < self.src.len() && self.src[self.pos] == b'{' {
                while self.pos < self.src.len() && self.src[self.pos] != b'}' {
                    if self.src[self.pos] == b'\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
                if self.pos == self.src.len() {
                    return Err(self.err("unterminated `{` comment"));
                }
                self.pos += 1; // consume '}'
                continue;
            }
            break;
        }
        let line = self.line;
        if self.pos >= self.src.len() {
            return Ok((Tok::Eof, line));
        }
        let c = self.src[self.pos];
        let tok = match c {
            b';' => {
                self.pos += 1;
                Tok::Semi
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'[' => {
                self.pos += 1;
                Tok::LBracket
            }
            b']' => {
                self.pos += 1;
                Tok::RBracket
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'-' => {
                self.pos += 1;
                Tok::Minus
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'/' => {
                self.pos += 1;
                Tok::Slash
            }
            b':' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Assign
                } else {
                    return Err(self.err("expected `:=`"));
                }
            }
            b'=' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Rel(RelOp::Eq)
                } else {
                    // Single `=` appears in `do i = …`; treat as assignment
                    // separator token reused via Rel(Eq)? Keep distinct: the
                    // parser for `do` accepts Rel(Eq) or `=`.
                    self.pos += 1;
                    Tok::Rel(RelOp::Eq)
                }
            }
            b'!' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Rel(RelOp::Ne)
                } else {
                    return Err(self.err("expected `!=`"));
                }
            }
            b'<' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Rel(RelOp::Le)
                } else {
                    self.pos += 1;
                    Tok::Rel(RelOp::Lt)
                }
            }
            b'>' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Rel(RelOp::Ge)
                } else {
                    self.pos += 1;
                    Tok::Rel(RelOp::Gt)
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in integer literal"))?;
                let n: i64 = text
                    .parse()
                    .map_err(|_| self.err(format!("integer literal `{text}` out of range")))?;
                Tok::Int(n)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in identifier"))?;
                match text {
                    "do" => Tok::KwDo,
                    "end" | "enddo" | "endif" => Tok::KwEnd,
                    "if" => Tok::KwIf,
                    "then" => Tok::KwThen,
                    "else" => Tok::KwElse,
                    _ => Tok::Ident(text),
                }
            }
            other if other.is_ascii() => {
                return Err(self.err(format!("unexpected character `{}`", other as char)));
            }
            other => {
                return Err(self.err(format!("unexpected byte 0x{other:02x}")));
            }
        };
        Ok((tok, line))
    }
}

/// Lexes all of `src`, each token with its line, through the final
/// [`Tok::Eof`].
fn lex(src: &[u8]) -> Result<Vec<(Tok<'_>, usize)>, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let (tok, line) = lexer.next_tok()?;
        toks.push((tok, line));
        if tok == Tok::Eof {
            return Ok(toks);
        }
    }
}

/// Maximum combined statement/expression nesting depth. Hostile input
/// (e.g. ten thousand `(`s) must produce a [`ParseError`], not a stack
/// overflow — the analysis service feeds untrusted bytes to this parser.
const MAX_DEPTH: usize = 256;

struct Parser<'s, 't> {
    toks: Vec<(Tok<'t>, usize)>,
    pos: usize,
    depth: usize,
    /// The table names resolve through; copied on the first name it lacks.
    symbols: Cow<'s, SymbolTable>,
}

impl<'t> Parser<'_, 't> {
    fn peek(&self) -> Tok<'t> {
        self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok<'t> {
        let t = self.toks[self.pos].0;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Interns `name` as an array of rank `rank`, reporting rank
    /// inconsistencies as a [`ParseError`] rather than panicking in
    /// [`SymbolTable::array_with`](crate::SymbolTable::array_with).
    fn intern_array(&mut self, name: &str, rank: usize) -> Result<crate::ArrayId, ParseError> {
        if let Some(id) = self.symbols.lookup_array(name) {
            if self.symbols.array_info(id).rank != rank {
                return Err(self.err(format!("array `{name}` used with inconsistent rank")));
            }
            return Ok(id);
        }
        Ok(self
            .symbols
            .to_mut()
            .array_with(name, rank, vec![None; rank]))
    }

    /// Interns the scalar `name`.
    fn intern_var(&mut self, name: &str) -> crate::VarId {
        match self.symbols.lookup_var(name) {
            Some(id) => id,
            None => self.symbols.to_mut().var(name),
        }
    }

    fn parse_block(&mut self, stop_at_else: bool) -> Result<Block, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof | Tok::KwEnd => break,
                Tok::KwElse if stop_at_else => break,
                _ => out.push(self.parse_stmt()?),
            }
        }
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::KwDo => self.parse_do(),
            Tok::KwIf => self.parse_if(),
            Tok::Ident(_) => self.parse_assign(),
            other => Err(self.err(format!("expected statement, found {other}"))),
        }
    }

    fn parse_do(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let r = self.parse_do_inner();
        self.leave();
        r
    }

    fn parse_do_inner(&mut self) -> Result<Stmt, ParseError> {
        self.expect(Tok::KwDo)?;
        let name = match self.bump() {
            Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected loop variable, found {other}"))),
        };
        let iv = self.intern_var(name);
        match self.bump() {
            Tok::Rel(RelOp::Eq) => {}
            other => return Err(self.err(format!("expected `=`, found {other}"))),
        }
        let lower = self.parse_expr()?;
        self.expect(Tok::Comma)?;
        let upper = self.parse_expr()?;
        let step = if self.peek() == Tok::Comma {
            self.bump();
            match self.bump() {
                Tok::Int(n) => n,
                Tok::Minus => match self.bump() {
                    Tok::Int(n) => -n,
                    other => return Err(self.err(format!("expected step, found {other}"))),
                },
                other => return Err(self.err(format!("expected constant step, found {other}"))),
            }
        } else {
            1
        };
        let body = self.parse_block(false)?;
        self.expect(Tok::KwEnd)?;
        Ok(Stmt::Do(Loop {
            iv,
            lower: lower.into(),
            upper: upper.into(),
            step,
            body,
        }))
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let r = self.parse_if_inner();
        self.leave();
        r
    }

    fn parse_if_inner(&mut self) -> Result<Stmt, ParseError> {
        self.expect(Tok::KwIf)?;
        let lhs = self.parse_expr()?;
        let op = match self.bump() {
            Tok::Rel(op) => op,
            other => {
                return Err(self.err(format!("expected relational operator, found {other}")));
            }
        };
        let rhs = self.parse_expr()?;
        self.expect(Tok::KwThen)?;
        let then_blk = self.parse_block(true)?;
        let else_blk = if self.peek() == Tok::KwElse {
            self.bump();
            self.parse_block(false)?
        } else {
            Vec::new()
        };
        self.expect(Tok::KwEnd)?;
        Ok(Stmt::If {
            cond: Cond::new(lhs, op, rhs),
            then_blk,
            else_blk,
        })
    }

    fn parse_assign(&mut self) -> Result<Stmt, ParseError> {
        let name = match self.bump() {
            Tok::Ident(s) => s,
            other => return Err(self.err(format!("expected identifier, found {other}"))),
        };
        let lhs = if self.peek() == Tok::LBracket {
            let subs = self.parse_subscripts()?;
            let id = self.intern_array(name, subs.len())?;
            LValue::Elem(ArrayRef { array: id, subs })
        } else {
            LValue::Scalar(self.intern_var(name))
        };
        self.expect(Tok::Assign)?;
        let rhs = self.parse_expr()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::Assign(Assign::new(lhs, rhs)))
    }

    fn parse_subscripts(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(Tok::LBracket)?;
        let mut subs = vec![self.parse_expr()?];
        while self.peek() == Tok::Comma {
            self.bump();
            subs.push(self.parse_expr()?);
        }
        self.expect(Tok::RBracket)?;
        Ok(subs)
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_term()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_factor()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let r = self.parse_factor_inner();
        self.leave();
        r
    }

    fn parse_factor_inner(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(n) => Ok(Expr::Const(n)),
            Tok::Minus => {
                let inner = self.parse_factor()?;
                Ok(match inner {
                    Expr::Const(n) => Expr::Const(-n),
                    e => Expr::sub(Expr::Const(0), e),
                })
            }
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.peek() == Tok::LBracket {
                    let subs = self.parse_subscripts()?;
                    let id = self.intern_array(name, subs.len())?;
                    Ok(Expr::Elem(ArrayRef { array: id, subs }))
                } else {
                    Ok(Expr::Scalar(self.intern_var(name)))
                }
            }
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].1,
                message: format!("expected expression, found {other}"),
            }),
        }
    }
}

/// Parses a program in the loop DSL, interning all identifiers and numbering
/// every assignment.
///
/// # Errors
///
/// Returns a [`ParseError`] with line information on malformed input, and
/// when an array is used with inconsistent rank.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), arrayflow_ir::ParseError> {
/// let p = arrayflow_ir::parse_program(
///     "do i = 1, UB
///        C[i+2] := C[i] * 2;
///        B[2*i] := C[i] + x;
///        if C[i] == 0 then C[i] := B[i-1]; end
///        B[i] := C[i+1];
///      end",
/// )?;
/// assert!(p.sole_loop().is_some());
/// # Ok(())
/// # }
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_bytes(src.as_bytes())
}

/// Parses exactly one statement against an existing symbol table, as
/// required to apply a single-statement edit to an already-parsed program:
/// identifiers resolve to the program's variables and arrays (array ranks
/// stay consistent with prior uses; new names are interned). Returns the
/// statement and, only when it interns a name, the extended symbol table
/// — a statement over known names copies nothing. Trailing input after
/// the statement is an error.
///
/// The statement's assignments carry [`StmtId::UNASSIGNED`](crate::stmt::StmtId::UNASSIGNED)
/// ids; callers renumber after splicing.
pub fn parse_stmt_with(
    symbols: &SymbolTable,
    src: &str,
) -> Result<(Stmt, Option<SymbolTable>), ParseError> {
    let mut parser = Parser {
        toks: lex(src.as_bytes())?,
        pos: 0,
        depth: 0,
        symbols: Cow::Borrowed(symbols),
    };
    let stmt = parser.parse_stmt()?;
    if parser.peek() != Tok::Eof {
        return Err(parser.err(format!(
            "expected a single statement, found trailing {}",
            parser.peek()
        )));
    }
    let interned = match parser.symbols {
        Cow::Borrowed(_) => None,
        Cow::Owned(symbols) => Some(symbols),
    };
    Ok((stmt, interned))
}

/// [`parse_program`] over raw bytes, for callers that receive programs
/// from an untrusted source (e.g. the analysis service reading the wire).
///
/// Never panics: invalid UTF-8, unexpected bytes, out-of-range literals,
/// inconsistent array ranks and pathological nesting all surface as
/// [`ParseError`]s.
pub fn parse_program_bytes(src: &[u8]) -> Result<Program, ParseError> {
    let mut parser = Parser {
        toks: lex(src)?,
        pos: 0,
        depth: 0,
        symbols: Cow::Owned(SymbolTable::new()),
    };
    let body = parser.parse_block(false)?;
    if parser.peek() != Tok::Eof {
        return Err(parser.err(format!("unexpected {}", parser.peek())));
    }
    let mut program = Program {
        symbols: parser.symbols.into_owned(),
        body,
    };
    program.renumber();
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::count_stmts;

    #[test]
    fn statement_over_known_names_copies_no_symbol_table() {
        let p = parse_program("do i = 1, 10 A[i] := A[i-1] + x; end").unwrap();
        let (_, symbols) = parse_stmt_with(&p.symbols, "A[i+1] := A[i] * x;").unwrap();
        assert!(symbols.is_none());
        let (_, symbols) = parse_stmt_with(&p.symbols, "B[i] := A[i] + y;").unwrap();
        let symbols = symbols.expect("B and y are new names");
        assert!(symbols.lookup_array("B").is_some() && symbols.lookup_var("y").is_some());
        assert_eq!(symbols.num_arrays(), p.symbols.num_arrays() + 1);
    }

    #[test]
    fn parses_paper_fig1() {
        let p = parse_program(
            "do i = 1, UB
               C[i+2] := C[i] * 2;
               B[2*i] := C[i] + x;
               if C[i] == 0 then C[i] := B[i-1]; end
               B[i] := C[i+1];
             end",
        )
        .unwrap();
        let l = p.sole_loop().unwrap();
        assert_eq!(p.name(l.iv), "i");
        let c = count_stmts(&l.body);
        assert_eq!(c.assigns, 4);
        assert_eq!(c.ifs, 1);
    }

    #[test]
    fn parses_nested_loops_and_multidim() {
        let p = parse_program(
            "do j = 1, UB2
               do i = 1, UB1
                 X[i+1, j] := X[i, j];
                 Y[i, j+1] := Y[i, j-1];
               end
             end",
        )
        .unwrap();
        let outer = p.sole_loop().unwrap();
        assert_eq!(p.name(outer.iv), "j");
        let x = p.symbols.lookup_array("X").unwrap();
        assert_eq!(p.symbols.array_info(x).rank, 2);
    }

    #[test]
    fn parses_else_and_comments() {
        let p = parse_program(
            "do i = 1, 100 -- a stencil
               if x < 3 then
                 A[i] := 1; { then branch }
               else
                 A[i] := 2;
               end
             end",
        )
        .unwrap();
        let l = p.sole_loop().unwrap();
        match &l.body[0] {
            Stmt::If { else_blk, .. } => assert_eq!(else_blk.len(), 1),
            _ => panic!("expected if"),
        }
    }

    #[test]
    fn parses_steps_and_negative_bounds() {
        let p = parse_program("do i = 10, 1, -2 A[i] := 0; end").unwrap();
        let l = p.sole_loop().unwrap();
        assert_eq!(l.step, -2);
        assert_eq!(l.lower.as_const(), Some(10));
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        // Both orders: mismatch on the rhs after an lhs declaration, and
        // vice versa. Each is a ParseError, never a panic.
        let e = parse_program("do i = 1, 10 A[i] := A[i, 1]; end").unwrap_err();
        assert!(e.message.contains("inconsistent rank"));
        let e = parse_program("do i = 1, 10 A[i, 1] := A[i]; end").unwrap_err();
        assert!(e.message.contains("inconsistent rank"));
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let e = parse_program_bytes(b"do i = 1, 10 A[i] := \xff\xfe; end").unwrap_err();
        assert!(e.message.contains("0x"));
        // Invalid UTF-8 *inside* no token can arise (multi-byte lead bytes
        // stop identifier/number scans), but the byte itself must error.
        assert!(parse_program_bytes(b"\x80").is_err());
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        let mut deep = String::from("do i = 1, 10 A[i] := ");
        deep.push_str(&"(".repeat(10_000));
        deep.push('1');
        deep.push_str(&")".repeat(10_000));
        deep.push_str("; end");
        let e = parse_program(&deep).unwrap_err();
        assert!(e.message.contains("nesting"));

        let mut loops = String::new();
        for _ in 0..10_000 {
            loops.push_str("do i = 1, 10 ");
        }
        assert!(parse_program(&loops).is_err());
    }

    #[test]
    fn error_reports_line() {
        let e = parse_program("do i = 1, 10\n  A[i] :=;\nend").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn division_and_parens() {
        let p = parse_program("do i = 1, 9 A[(i+1)/2] := A[i] / 3; end").unwrap();
        assert!(p.sole_loop().is_some());
    }
}
