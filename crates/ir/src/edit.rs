//! Single-statement program edits.
//!
//! The incremental analysis engine models an interactive editing session as
//! a sequence of *statement replacements*: the client names an assignment
//! by its stable [`StmtId`] and supplies replacement source text. An
//! [`Edit`] whose text parses to another plain assignment preserves the
//! program's statement structure — same statement count, same ids after
//! renumbering, same flow graph shape — which is what lets the analysis
//! re-converge from a cached fixed point. Replacement text that parses to
//! a conditional or a nested loop is still applied, but reported as
//! [`EditShape::Structural`] so callers fall back to a full re-analysis.

use std::fmt;

use crate::parser::{parse_stmt_with, ParseError};
use crate::stmt::{Block, Program, Stmt, StmtId};

/// One statement replacement: substitute the assignment with id `stmt` by
/// the statement parsed from `text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Stable id of the assignment to replace (see [`Program::renumber`]).
    pub stmt: StmtId,
    /// Replacement source text, e.g. `"A[i+1] := B[i] * 2;"`.
    pub text: String,
}

/// Why an edit could not be applied. The program is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The replacement text did not parse as a statement.
    Parse(ParseError),
    /// No assignment with the given id exists in the program.
    NoSuchStmt(StmtId),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Parse(e) => write!(f, "edit text: {e}"),
            EditError::NoSuchStmt(id) => write!(f, "no assignment with id {}", id.0),
        }
    }
}

impl std::error::Error for EditError {}

impl From<ParseError> for EditError {
    fn from(e: ParseError) -> Self {
        EditError::Parse(e)
    }
}

/// What kind of statement the edit substituted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditShape {
    /// Assignment-for-assignment: statement structure (and therefore the
    /// flow graph shape and every statement id) is preserved.
    Assign,
    /// The replacement is a conditional or nested loop: the loop structure
    /// changed and any cached analysis state is stale.
    Structural,
}

fn replace_in_block(block: &mut Block, target: StmtId, new: &mut Option<Stmt>) -> bool {
    for stmt in block.iter_mut() {
        match stmt {
            Stmt::Assign(a) if a.id == target => {
                *stmt = new.take().expect("edit target ids are unique");
                return true;
            }
            Stmt::Assign(_) => {}
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                if replace_in_block(then_blk, target, new)
                    || replace_in_block(else_blk, target, new)
                {
                    return true;
                }
            }
            Stmt::Do(l) => {
                if replace_in_block(&mut l.body, target, new) {
                    return true;
                }
            }
        }
    }
    false
}

/// Applies `edit` to `program`: parses the replacement text against the
/// program's symbol table (new identifiers are interned, array ranks must
/// stay consistent), substitutes it for the named assignment, and
/// renumbers. On error the program is untouched.
///
/// For [`EditShape::Assign`] replacements the renumbering is the identity
/// — the new assignment inherits exactly the replaced statement's id — so
/// follow-up edits can keep using the ids the client already knows.
pub fn apply_edit(program: &mut Program, edit: &Edit) -> Result<EditShape, EditError> {
    let (stmt, symbols) = parse_stmt_with(&program.symbols, &edit.text)?;
    let shape = match &stmt {
        Stmt::Assign(_) => EditShape::Assign,
        Stmt::If { .. } | Stmt::Do(_) => EditShape::Structural,
    };
    let mut slot = Some(stmt);
    if !replace_in_block(&mut program.body, edit.stmt, &mut slot) {
        return Err(EditError::NoSuchStmt(edit.stmt));
    }
    if let Some(symbols) = symbols {
        program.symbols = symbols;
    }
    program.renumber();
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::print_program;

    fn program() -> Program {
        parse_program(
            "do i = 1, 100
               A[i+2] := A[i] + x;
               if A[i] == 0 then B[i] := A[i+1]; end
               C[i] := B[i-1];
             end",
        )
        .unwrap()
    }

    #[test]
    fn assign_edit_preserves_ids_and_structure() {
        let mut p = program();
        let before = print_program(&p);
        let shape = apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(2),
                text: "C[i+1] := B[i] * 2;".into(),
            },
        )
        .unwrap();
        assert_eq!(shape, EditShape::Assign);
        let after = print_program(&p);
        assert_ne!(before, after);
        // Statement ids are stable: re-editing the same slot still works.
        apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(2),
                text: "C[i] := B[i-1];".into(),
            },
        )
        .unwrap();
        assert_eq!(print_program(&p), before);
    }

    #[test]
    fn edit_inside_conditional_branch() {
        let mut p = program();
        let shape = apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(1),
                text: "B[i+3] := A[i];".into(),
            },
        )
        .unwrap();
        assert_eq!(shape, EditShape::Assign);
        assert!(print_program(&p).contains("B[i + 3]"));
    }

    #[test]
    fn structural_replacement_is_flagged() {
        let mut p = program();
        let shape = apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(2),
                text: "if x < 1 then C[i] := B[i-1]; end".into(),
            },
        )
        .unwrap();
        assert_eq!(shape, EditShape::Structural);
    }

    #[test]
    fn new_arrays_are_interned_and_ranks_enforced() {
        let mut p = program();
        apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(0),
                text: "D[i] := A[i] + 1;".into(),
            },
        )
        .unwrap();
        assert!(p.symbols.lookup_array("D").is_some());
        let err = apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(0),
                text: "D[i, i] := 0;".into(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, EditError::Parse(_)), "{err}");
    }

    #[test]
    fn unknown_statement_id_is_rejected() {
        let mut p = program();
        let err = apply_edit(
            &mut p,
            &Edit {
                stmt: StmtId(99),
                text: "A[i] := 0;".into(),
            },
        )
        .unwrap_err();
        assert_eq!(err, EditError::NoSuchStmt(StmtId(99)));
    }
}
