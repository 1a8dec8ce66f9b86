//! Construction of loop flow graphs from IR loops.

use std::sync::Arc;

use arrayflow_ir::visit::array_uses_in_expr;
use arrayflow_ir::{Block, Loop, Stmt};

use crate::graph::LoopGraph;
use crate::node::{ref_sites_of, Node, NodeId, NodeKind, RefSite};

/// Builds the loop flow graph for `l`.
///
/// Nested loops become [`NodeKind::Summary`] nodes (the hierarchical scheme
/// of paper §3.2: innermost loops are analyzed first and then replaced).
/// Conditionals contribute a [`NodeKind::Test`] node whose successors are the
/// two branches; branches re-join at the following statement. A virtual
/// [`NodeKind::Entry`] node guarantees a unique entry and the final
/// [`NodeKind::Exit`] node represents `i := i + 1`.
///
/// # Example
///
/// ```
/// let p = arrayflow_ir::parse_program(
///     "do i = 1, 100
///        if A[i] > 0 then A[i] := A[i-1]; end
///      end").unwrap();
/// let g = arrayflow_graph::build_loop_graph(p.sole_loop().unwrap());
/// assert_eq!(g.len(), 4); // entry, test, assign, exit
/// assert_eq!(g.rpo().first(), Some(&g.entry()));
/// assert_eq!(g.rpo().last(), Some(&g.exit()));
/// ```
pub fn build_loop_graph(l: &Loop) -> LoopGraph {
    let mut b = Builder::default();
    let entry = b.push(Node {
        kind: NodeKind::Entry,
        refs: Vec::new(),
    });
    let frontier = b.add_block(&l.body, vec![entry]);
    let exit = b.push(Node {
        kind: NodeKind::Exit,
        refs: Vec::new(),
    });
    for f in frontier {
        b.edge(f, exit);
    }
    LoopGraph::from_parts(l.iv, l.upper.as_const(), b.nodes, b.succs, entry, exit)
}

#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    succs: Vec<Vec<NodeId>>,
}

impl Builder {
    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.succs.push(Vec::new());
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
        }
    }

    /// Adds a block's statements; `frontier` is the set of dangling exits of
    /// the preceding code. Returns the new frontier.
    fn add_block(&mut self, block: &Block, mut frontier: Vec<NodeId>) -> Vec<NodeId> {
        for stmt in block {
            frontier = self.add_stmt(stmt, frontier);
        }
        frontier
    }

    fn add_stmt(&mut self, stmt: &Stmt, frontier: Vec<NodeId>) -> Vec<NodeId> {
        match stmt {
            Stmt::Assign(a) => {
                let node = self.push(Node {
                    kind: NodeKind::Assign {
                        stmt: a.id,
                        assign: a.clone(),
                    },
                    refs: ref_sites_of(a),
                });
                for f in frontier {
                    self.edge(f, node);
                }
                vec![node]
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut refs = Vec::new();
                let mut uses = Vec::new();
                array_uses_in_expr(&cond.lhs, &mut uses);
                array_uses_in_expr(&cond.rhs, &mut uses);
                for u in uses {
                    refs.push(RefSite {
                        aref: Arc::new(u.clone()),
                        is_def: false,
                        stmt: None,
                    });
                }
                let test = self.push(Node {
                    kind: NodeKind::Test { cond: cond.clone() },
                    refs,
                });
                for f in frontier {
                    self.edge(f, test);
                }
                let mut out = self.add_block(then_blk, vec![test]);
                if else_blk.is_empty() {
                    // Fall-through edge around the then-branch.
                    if !out.contains(&test) {
                        out.push(test);
                    }
                } else {
                    let else_out = self.add_block(else_blk, vec![test]);
                    for e in else_out {
                        if !out.contains(&e) {
                            out.push(e);
                        }
                    }
                }
                out
            }
            Stmt::Do(inner) => {
                let node = self.push(Node {
                    kind: NodeKind::Summary {
                        inner: inner.clone(),
                    },
                    refs: collect_all_refs(&inner.body),
                });
                for f in frontier {
                    self.edge(f, node);
                }
                vec![node]
            }
        }
    }
}

/// Every reference site inside a block, recursing into nested structure.
/// Used to populate summary nodes.
pub fn collect_all_refs(block: &Block) -> Vec<RefSite> {
    let mut out = Vec::new();
    fn walk(block: &Block, out: &mut Vec<RefSite>) {
        for stmt in block {
            match stmt {
                Stmt::Assign(a) => out.extend(ref_sites_of(a)),
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let mut uses = Vec::new();
                    array_uses_in_expr(&cond.lhs, &mut uses);
                    array_uses_in_expr(&cond.rhs, &mut uses);
                    for u in uses {
                        out.push(RefSite {
                            aref: Arc::new(u.clone()),
                            is_def: false,
                            stmt: None,
                        });
                    }
                    walk(then_blk, out);
                    walk(else_blk, out);
                }
                Stmt::Do(l) => walk(&l.body, out),
            }
        }
    }
    walk(block, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_ir::parse_program;

    fn fig1() -> arrayflow_ir::Program {
        parse_program(
            "do i = 1, UB
               C[i+2] := C[i] * 2;
               B[2*i] := C[i] + x;
               if C[i] == 0 then C[i] := B[i-1]; end
               B[i] := C[i+1];
             end",
        )
        .unwrap()
    }

    #[test]
    fn fig1_graph_shape() {
        let p = fig1();
        let g = build_loop_graph(p.sole_loop().unwrap());
        // entry, 2 assigns, test, guarded assign, final assign, exit
        assert_eq!(g.len(), 7);
        assert_eq!(g.rpo().len(), 7);
        assert_eq!(*g.rpo().first().unwrap(), g.entry());
        assert_eq!(*g.rpo().last().unwrap(), g.exit());
        // The test node has two successors: guarded assign and join.
        let test = g
            .node_ids()
            .find(|&id| matches!(g.node(id).kind, NodeKind::Test { .. }))
            .unwrap();
        assert_eq!(g.succs(test).len(), 2);
        // exit has no intra-iteration successors.
        assert!(g.succs(g.exit()).is_empty());
    }

    #[test]
    fn precedence_is_strict_and_transitive() {
        let p = fig1();
        let g = build_loop_graph(p.sole_loop().unwrap());
        let stmts = g.stmt_nodes();
        let first = stmts[0];
        let last = *stmts.last().unwrap();
        assert!(g.precedes(first, last));
        assert!(!g.precedes(last, first));
        assert!(!g.precedes(first, first), "precedence is strict");
        assert!(g.precedes(g.entry(), g.exit()));
    }

    #[test]
    fn if_else_joins() {
        let p = parse_program(
            "do i = 1, 10
               if x == 0 then A[i] := 1; else A[i] := 2; end
               B[i] := A[i];
             end",
        )
        .unwrap();
        let g = build_loop_graph(p.sole_loop().unwrap());
        // entry, test, 2 branch assigns, join assign, exit
        assert_eq!(g.len(), 6);
        let join = g
            .stmt_nodes()
            .into_iter()
            .find(|&id| {
                matches!(&g.node(id).kind, NodeKind::Assign { assign, .. }
                    if matches!(&assign.lhs, arrayflow_ir::LValue::Elem(r)
                        if p.array_name(r.array) == "B"))
            })
            .unwrap();
        assert_eq!(g.preds(join).len(), 2);
    }

    #[test]
    fn empty_then_branch_falls_through() {
        let p = parse_program(
            "do i = 1, 10
               if x == 0 then end
               A[i] := 1;
             end",
        )
        .unwrap();
        let g = build_loop_graph(p.sole_loop().unwrap());
        // entry, test, assign, exit — the test flows straight to the assign.
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn nested_loop_becomes_summary() {
        let p = parse_program(
            "do j = 1, 10
               A[j] := 0;
               do i = 1, 5
                 B[i] := A[j] + 1;
               end
             end",
        )
        .unwrap();
        let g = build_loop_graph(p.sole_loop().unwrap());
        let summary = g
            .node_ids()
            .find(|&id| g.node(id).is_summary())
            .expect("summary node");
        let n = g.node(summary);
        assert_eq!(n.defs().count(), 1); // B[i]
        assert_eq!(n.uses().count(), 1); // A[j]
    }

    #[test]
    fn condition_reads_are_uses() {
        let p = fig1();
        let g = build_loop_graph(p.sole_loop().unwrap());
        let test = g
            .node_ids()
            .find(|&id| matches!(g.node(id).kind, NodeKind::Test { .. }))
            .unwrap();
        assert_eq!(g.node(test).uses().count(), 1); // C[i]
        assert_eq!(g.node(test).defs().count(), 0);
    }

    #[test]
    fn ub_is_captured_when_constant() {
        let p = parse_program("do i = 1, 64 A[i] := 0; end").unwrap();
        let g = build_loop_graph(p.sole_loop().unwrap());
        assert_eq!(g.ub, Some(64));
        let p2 = fig1();
        let g2 = build_loop_graph(p2.sole_loop().unwrap());
        assert_eq!(g2.ub, None);
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let p = fig1();
        let g = build_loop_graph(p.sole_loop().unwrap());
        let dot = g.to_dot(&p.symbols);
        for id in g.node_ids() {
            assert!(dot.contains(&format!("{id} [label=")), "{dot}");
        }
        assert!(dot.contains("style=dashed"));
    }
}
