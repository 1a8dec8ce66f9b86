//! Graph nodes.

use std::sync::Arc;

use arrayflow_ir::stmt::{Assign, StmtId};
use arrayflow_ir::{ArrayRef, Cond, Loop, VarId};

/// Index of a node within its [`crate::LoopGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One array reference occurring in a node, with its role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSite {
    /// The textual reference, shared with the analysis sites and spec rows
    /// built from it.
    pub aref: Arc<ArrayRef>,
    /// True if this site *writes* the element (an assignment destination).
    pub is_def: bool,
    /// The assignment this site belongs to, when it belongs to one (test
    /// nodes have uses but no statement id; summary nodes carry the inner
    /// statement's id).
    pub stmt: Option<StmtId>,
}

/// What a node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Virtual entry point of the loop body (no statement; identity flow
    /// function). Exists so the body has a unique entry even when it starts
    /// with a conditional.
    Entry,
    /// An assignment statement.
    Assign {
        /// Stable id of the assignment in the program.
        stmt: StmtId,
        /// The statement itself (cloned from the IR).
        assign: arrayflow_ir::stmt::Assign,
    },
    /// The evaluation of an `if` condition. Array reads in the condition are
    /// uses at this node; the node has two successors (then / join-or-else).
    Test {
        /// The branch condition.
        cond: Cond,
    },
    /// A nested loop that has already been analyzed and is represented
    /// summarily (paper §3.2): it may generate references subscripted by the
    /// *outer* induction variable and conservatively kills everything it
    /// writes.
    Summary {
        /// The nested loop (cloned from the IR).
        inner: Loop,
    },
    /// The loop exit node holding `i := i + 1`; its flow function is the
    /// distance increment `x⁺⁺`.
    Exit,
}

/// A node of the loop flow graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node represents.
    pub kind: NodeKind,
    /// Array reference sites occurring in the node, in evaluation order
    /// (uses before the def for an assignment).
    pub refs: Vec<RefSite>,
}

impl Node {
    /// Definition sites in this node.
    pub fn defs(&self) -> impl Iterator<Item = &RefSite> {
        self.refs.iter().filter(|r| r.is_def)
    }

    /// Use sites in this node.
    pub fn uses(&self) -> impl Iterator<Item = &RefSite> {
        self.refs.iter().filter(|r| !r.is_def)
    }

    /// True for summary nodes.
    pub fn is_summary(&self) -> bool {
        matches!(self.kind, NodeKind::Summary { .. })
    }

    /// A short human-readable label (used by the dot renderer and traces).
    pub fn label(&self, symbols: &arrayflow_ir::SymbolTable) -> String {
        match &self.kind {
            NodeKind::Entry => "entry".to_string(),
            NodeKind::Assign { assign, .. } => {
                let mut s = String::new();
                match &assign.lhs {
                    arrayflow_ir::LValue::Scalar(v) => s.push_str(symbols.var_name(*v)),
                    arrayflow_ir::LValue::Elem(r) => {
                        s.push_str(&arrayflow_ir::pretty::ref_to_string(symbols, r))
                    }
                }
                s.push_str(" := ");
                s.push_str(&arrayflow_ir::pretty::expr_to_string(symbols, &assign.rhs));
                s
            }
            NodeKind::Test { cond } => {
                format!(
                    "if {} ⋈ {}",
                    arrayflow_ir::pretty::expr_to_string(symbols, &cond.lhs),
                    arrayflow_ir::pretty::expr_to_string(symbols, &cond.rhs)
                )
            }
            NodeKind::Summary { inner } => {
                format!("do {} = …", symbols.var_name(inner.iv))
            }
            NodeKind::Exit => "exit".to_string(),
        }
    }
}

/// The induction variable a graph was built for, together with its bound.
#[derive(Debug, Clone)]
pub struct LoopContext {
    /// Basic induction variable of the analyzed loop.
    pub iv: VarId,
    /// Upper bound `UB` if known at compile time.
    pub ub: Option<i64>,
}

/// Extracts every (use, def) reference site of an assignment, in
/// evaluation order: RHS uses, LHS subscript uses, then the LHS def.
pub fn ref_sites_of(a: &Assign) -> Vec<RefSite> {
    let uses = arrayflow_ir::visit::assign_uses(a).into_iter();
    let uses = uses.map(|u| (u, false));
    let def = arrayflow_ir::visit::assign_def(a).map(|d| (d, true));
    uses.chain(def)
        .map(|(r, is_def)| RefSite {
            aref: Arc::new(r.clone()),
            is_def,
            stmt: Some(a.id),
        })
        .collect()
}
