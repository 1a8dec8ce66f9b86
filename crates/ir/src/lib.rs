#![warn(missing_docs)]
//! Loop intermediate representation for array reference analysis.
//!
//! This crate provides the program representation assumed by the data flow
//! framework of Duesterwald, Gupta and Soffa (PLDI '93): Fortran-like `DO`
//! loops controlled by a basic induction variable, containing assignments,
//! conditionals and nested loops, where array subscripts are affine functions
//! `a·i + b` of the loop induction variable (with `b` possibly containing
//! *symbolic constants* such as the induction variables of enclosing loops or
//! array dimension sizes).
//!
//! The crate contains:
//!
//! * a symbol table and typed identifiers ([`VarId`], [`ArrayId`]),
//! * symbolic linear expressions ([`LinExpr`]) and affine subscript forms
//!   ([`AffineSub`]) with exact symbolic arithmetic,
//! * the statement/expression AST ([`Stmt`], [`Expr`], [`Program`]),
//! * a small Fortran-like text format ([`parse_program`]) and pretty printer,
//! * loop normalization ([`normalize()`]) so every analyzed loop runs its
//!   induction variable from 1 to an upper bound with increment one,
//! * a reference interpreter ([`interp`]) used to validate that optimizations
//!   preserve semantics.
//!
//! # Example
//!
//! ```
//! use arrayflow_ir::parse_program;
//!
//! let program = parse_program(
//!     "do i = 1, 100
//!        A[i+2] := A[i] + x;
//!      end",
//! ).unwrap();
//! let l = program.sole_loop().unwrap();
//! assert_eq!(program.name(l.iv), "i");
//! ```

pub mod affine;
pub mod builder;
pub mod canon;
pub mod edit;
pub mod expr;
pub mod indvars;
pub mod interp;
pub mod linexpr;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod stmt;
pub mod symbols;
pub mod visit;

pub use affine::AffineSub;
pub use builder::LoopBuilder;
pub use canon::{fingerprint_loop, fingerprint_program, fingerprint_source, Fingerprint, Tape};
pub use edit::{apply_edit, Edit, EditError, EditShape};
pub use expr::{BinOp, Cond, Expr, RelOp};
pub use indvars::{remove_induction_variables, IndVarRemoval};
pub use interp::{Env, InterpError};
pub use linexpr::LinExpr;
pub use normalize::{is_normal_form, normalize};
pub use parser::{parse_program, parse_program_bytes, parse_stmt_with, ParseError};
pub use stmt::{ArrayRef, Assign, Block, LValue, Loop, LoopBound, Program, Stmt, StmtId};
pub use symbols::{ArrayId, ArrayInfo, SymbolTable, VarId};
