//! The loop flow graph structure and its traversal orders.

use std::sync::Arc;

use arrayflow_ir::stmt::{Assign, StmtId};
use arrayflow_ir::{SymbolTable, VarId};

use crate::node::{ref_sites_of, Node, NodeId, NodeKind};

/// An acyclic single-entry/single-exit flow graph for one loop body, plus
/// the implicit back edge `exit → entry` representing the transfer to the
/// next iteration.
///
/// A clone shares the nodes and the edge set with its original; replacing
/// one node's statement ([`LoopGraph::replace_assign`]) then builds that
/// node alone, and the two graphs keep sharing every other node.
#[derive(Debug, Clone)]
pub struct LoopGraph {
    /// Induction variable of the loop this graph represents.
    pub iv: VarId,
    /// Compile-time upper bound `UB`, when known.
    pub ub: Option<i64>,
    nodes: Vec<Arc<Node>>,
    /// No statement replacement changes the edges, so clones share them.
    edges: Arc<Edges>,
    entry: NodeId,
    exit: NodeId,
}

/// The intra-iteration edges and the orders derived from them.
#[derive(Debug)]
struct Edges {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    rpo: Vec<NodeId>,
    /// `reach[a]` is a bitset over nodes: bit `b` set iff there is a
    /// non-empty intra-iteration path `a →⁺ b`.
    reach: Vec<Vec<u64>>,
}

impl LoopGraph {
    /// Assembles a graph from raw parts. Used by the builder; `succs` must
    /// describe an acyclic graph in which `entry` reaches every node and
    /// every node reaches `exit`.
    ///
    /// # Panics
    ///
    /// Panics unless every node is on the flow order in both directions —
    /// reachable from `entry` and reaching `exit` — the invariant the
    /// solver's flow-order passes rely on.
    pub(crate) fn from_parts(
        iv: VarId,
        ub: Option<i64>,
        nodes: Vec<Node>,
        succs: Vec<Vec<NodeId>>,
        entry: NodeId,
        exit: NodeId,
    ) -> Self {
        let n = nodes.len();
        let mut preds = vec![Vec::new(); n];
        for (a, ss) in succs.iter().enumerate() {
            for &b in ss {
                preds[b.index()].push(NodeId(a as u32));
            }
        }
        let rpo = compute_rpo(&succs, entry);
        assert_eq!(rpo.len(), n, "every node must be reachable from entry");
        let reach = compute_reachability(&succs, &rpo);
        let g = Self {
            iv,
            ub,
            nodes: nodes.into_iter().map(Arc::new).collect(),
            edges: Arc::new(Edges {
                succs,
                preds,
                rpo,
                reach,
            }),
            entry,
            exit,
        };
        assert!(
            g.node_ids().all(|v| v == exit || g.precedes(v, exit)),
            "every node must reach exit"
        );
        g
    }

    /// Number of nodes (including entry and exit).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never the case for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The virtual entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The `exit` node carrying `i := i + 1`.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in storage order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Successors along intra-iteration edges.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.edges.succs[id.index()]
    }

    /// Predecessors along intra-iteration edges.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.edges.preds[id.index()]
    }

    /// Reverse postorder over the acyclic body (entry first, exit last).
    /// This is the visit order that gives the paper's pass bounds. Every
    /// node is on it exactly once (asserted at construction).
    pub fn rpo(&self) -> &[NodeId] {
        &self.edges.rpo
    }

    /// True if there is a non-empty intra-iteration path `a →⁺ b`.
    ///
    /// This realizes the paper's `pr(d, n)` predicate: `pr = 0` iff the
    /// node containing reference `d` *precedes* `n` within the iteration.
    pub fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        let w = b.index() / 64;
        let bit = 1u64 << (b.index() % 64);
        self.edges.reach[a.index()][w] & bit != 0
    }

    /// Renders the graph in Graphviz dot format (for debugging).
    pub fn to_dot(&self, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph loop {\n  rankdir=TB;\n");
        for id in self.node_ids() {
            let label = self.node(id).label(symbols).replace('"', "'");
            let _ = writeln!(out, "  {id} [label=\"{id}: {label}\"];");
        }
        for id in self.node_ids() {
            for &s in self.succs(id) {
                let _ = writeln!(out, "  {id} -> {s};");
            }
        }
        let _ = writeln!(out, "  {} -> {} [style=dashed];", self.exit, self.entry);
        out.push_str("}\n");
        out
    }

    /// The node carrying the assignment with statement id `stmt`, if any.
    pub fn assign_node(&self, stmt: StmtId) -> Option<NodeId> {
        self.node_ids().find(
            |&id| matches!(&self.node(id).kind, NodeKind::Assign { stmt: s, .. } if *s == stmt),
        )
    }

    /// Replaces the assignment carried by node `id`, building that node
    /// and its reference sites anew from the new statement; every other
    /// node stays shared with the graph this one was cloned from.
    ///
    /// Swapping one assignment for another touches neither the edge set
    /// nor the node count, so reverse postorder and the reachability
    /// bitsets stay valid (and shared) — this is what makes
    /// single-statement edits cheap for the incremental analysis engine.
    ///
    /// # Panics
    ///
    /// Panics if node `id` does not carry an assignment.
    pub fn replace_assign(&mut self, id: NodeId, assign: Assign) {
        let node = &mut self.nodes[id.index()];
        assert!(
            matches!(node.kind, NodeKind::Assign { .. }),
            "replace_assign target {id} is not an assignment node"
        );
        *node = Arc::new(Node {
            refs: ref_sites_of(&assign),
            kind: NodeKind::Assign {
                stmt: assign.id,
                assign,
            },
        });
    }

    /// The statement-bearing nodes (everything except entry/test/exit),
    /// in reverse postorder — the "N statements" of the paper's complexity
    /// discussion.
    pub fn stmt_nodes(&self) -> Vec<NodeId> {
        self.rpo()
            .iter()
            .copied()
            .filter(|&id| {
                matches!(
                    self.node(id).kind,
                    NodeKind::Assign { .. } | NodeKind::Summary { .. }
                )
            })
            .collect()
    }
}

/// Reverse postorder from `entry` of the acyclic graph `succs` describes.
fn compute_rpo(succs: &[Vec<NodeId>], entry: NodeId) -> Vec<NodeId> {
    let n = succs.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = in progress, 2 = done
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS from entry.
    let mut stack: Vec<(NodeId, usize)> = vec![(entry, 0)];
    state[entry.index()] = 1;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        let succs = &succs[node.index()];
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            match state[s.index()] {
                0 => {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
                1 => panic!("loop flow graph must be acyclic (cycle through {s})"),
                _ => {}
            }
        } else {
            state[node.index()] = 2;
            postorder.push(node);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

/// The non-empty-path reachability bitsets of the acyclic graph `succs`
/// describes, given its reverse postorder.
fn compute_reachability(succs: &[Vec<NodeId>], rpo: &[NodeId]) -> Vec<Vec<u64>> {
    let n = succs.len();
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    // Process in reverse RPO (children before parents in the DAG).
    for &node in rpo.iter().rev() {
        let mut acc = vec![0u64; words];
        for &s in &succs[node.index()] {
            acc[s.index() / 64] |= 1 << (s.index() % 64);
            for (w, v) in reach[s.index()].iter().enumerate() {
                acc[w] |= v;
            }
        }
        reach[node.index()] = acc;
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_loop_graph;
    use arrayflow_ir::{Loop, Stmt};
    use arrayflow_workloads::{all_kernels, livermore_kernels, random_loop, LoopShape};

    fn loops<'a>(block: &'a [Stmt], out: &mut Vec<&'a Loop>) {
        for stmt in block {
            match stmt {
                Stmt::Do(l) => {
                    out.push(l);
                    loops(&l.body, out);
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    loops(then_blk, out);
                    loops(else_blk, out);
                }
                Stmt::Assign(_) => {}
            }
        }
    }

    #[test]
    fn every_node_is_on_the_flow_order() {
        let mut programs: Vec<_> = all_kernels(100)
            .into_iter()
            .chain(livermore_kernels(100))
            .map(|(_, p)| p)
            .collect();
        for (stmts, arrays) in [(8, 4), (32, 8), (128, 16), (512, 64)] {
            for cond_pct in [0, 35, 70] {
                let shape = LoopShape {
                    stmts,
                    arrays,
                    cond_pct,
                    ..LoopShape::default()
                };
                programs.extend((0..3).map(|seed| random_loop(&shape, 42 + seed)));
            }
        }
        let mut checked = 0;
        for p in &programs {
            let mut all = Vec::new();
            loops(&p.body, &mut all);
            for g in all.into_iter().map(build_loop_graph) {
                let mut seen = vec![false; g.len()];
                for &v in g.rpo() {
                    assert!(!seen[v.index()], "{v} twice on the flow order");
                    seen[v.index()] = true;
                }
                assert!(seen.iter().all(|&s| s), "a node off the flow order");
                for v in g.node_ids() {
                    assert!(v == g.entry() || g.precedes(g.entry(), v));
                    assert!(v == g.exit() || g.precedes(v, g.exit()));
                }
                checked += 1;
            }
        }
        assert!(checked > 40, "{checked} graphs");
    }

    #[test]
    #[should_panic(expected = "every node must be reachable from entry")]
    fn a_node_off_the_flow_order_is_refused() {
        let p = arrayflow_ir::parse_program("do i = 1, 10 A[i] := 0; end").unwrap();
        let g = build_loop_graph(p.sole_loop().unwrap());
        let nodes: Vec<Node> = g.node_ids().map(|v| g.node(v).clone()).collect();
        let mut succs: Vec<Vec<NodeId>> = g.node_ids().map(|v| g.succs(v).to_vec()).collect();
        // Cut entry off from the assignment: it now reaches exit directly.
        succs[g.entry().index()] = vec![g.exit()];
        LoopGraph::from_parts(g.iv, g.ub, nodes, succs, g.entry(), g.exit());
    }
}
