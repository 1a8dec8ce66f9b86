//! Flow function tables.
//!
//! For a fixed problem spec, every node's flow function over `Lᵐ` is fully
//! determined by compile-time constants (paper §3.1): per tracked reference
//! `d`, a node either *preserves* (`min(x, p)`), *generates after
//! preserving* (`max(min(x, p), 0)` — the composition coincides with the
//! paper's plain `max(x, 0)` whenever `p = ⊤`, which is every case the
//! paper enumerates), or — for the increment node — applies `x⁺⁺`.
//! [`FlowTable`] precomputes these constants once so the solver's passes are
//! pure lattice arithmetic.
//!
//! A preserve constant below `⊤` needs a kill site on the generator's own
//! array (any other array preserves everything), so the build groups the
//! kill sites by array and evaluates only same-array (generator, kill)
//! pairs: `Σ_d |K ∩ array(d)|` derivations, where a scan of `K` per node ×
//! generator cell would cost `N · m · |K|`. Problems of the same rows and
//! direction differ only in their mode — δ-available values and
//! δ-reaching references are one such pair — so one build serves several
//! modes: each pair's `pr` and subscript relation are derived once and
//! read by every mode. The table is stored per column,
//! the layout the column solver reads: sparse `(node, p)` preserve entries,
//! the generating node and its post-generate constant. It also groups the
//! columns by array and lists each group's sites — the nodes holding one
//! of its generators or same-array kills, every other node being the
//! identity for the whole group — which is what the solver projects each
//! group's flow graph onto.

use arrayflow_graph::{LoopGraph, NodeId};

use crate::lattice::{lane, Dist};
use crate::preserve::{post_kills, pr, Relation, Row};
use crate::problem::{Direction, KillSite, Mode, ProblemSpec};

/// `gen_node` of a column generated nowhere (its generator sits on the
/// increment node, whose flow function is `x⁺⁺` alone).
const NO_NODE: u32 = u32::MAX;

/// Precomputed flow functions for every node of a graph, column by column,
/// in one or more modes of the same rows and direction. Constants are kept
/// as lanes already normalized against the trip count, so identity and
/// preserve steps never need re-normalizing.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Per mode of the build, in the order asked for: its constants.
    pub(crate) modes: Vec<Constants>,
    /// Per column: the generating node, or [`NO_NODE`].
    pub(crate) gen_node: Vec<u32>,
    /// The node carrying `i := i + 1` in the direction of flow.
    pub(crate) increment: NodeId,
    /// Lanes at or above this collapse to `⊤` (see [`lane::top_from`]).
    pub(crate) top_from: u64,
    /// Per column: its group, one per generated array, numbered by first
    /// appearance among the generators.
    pub(crate) group: Vec<u32>,
    /// `(group, node)` for every generating node and every kill node of a
    /// group's array — the nodes whose flow functions are not the identity
    /// for the whole group (repeats allowed).
    pub(crate) sites: Vec<(u32, u32)>,
    /// Number of groups.
    pub(crate) groups: usize,
}

/// One mode's preserve and post-generate constants, column by column.
#[derive(Debug, Clone)]
pub(crate) struct Constants {
    pub(crate) mode: Mode,
    /// Column `d`'s preserve entries are `entries[starts[d]..starts[d + 1]]`.
    pub(crate) starts: Vec<usize>,
    /// `(node, p)` with `p` below `⊤`, one per node, ascending by node.
    pub(crate) entries: Vec<(u32, u64)>,
    /// Per column: the post-generate constant (`⊤` when none applies).
    pub(crate) post: Vec<u64>,
}

impl FlowTable {
    /// Builds the table for `spec` over `graph`.
    pub fn build(graph: &LoopGraph, spec: &ProblemSpec) -> Self {
        Self::build_modes(graph, spec, &[spec.mode])
    }

    /// Builds the table of `spec`'s rows and direction over `graph` in
    /// each of `modes` (`spec.mode` is not read): the kills are grouped
    /// once and each (generator, same-array kill) pair is related once,
    /// for every mode's preserve and post-generate constants.
    pub fn build_modes(graph: &LoopGraph, spec: &ProblemSpec, modes: &[Mode]) -> Self {
        let (direction, ub) = (spec.direction, graph.ub);
        let increment = match direction {
            Direction::Forward => graph.exit(),
            Direction::Backward => graph.entry(),
        };
        let top_from = lane::top_from(ub);
        let norm = |d: Dist| lane::normalize(lane::encode(d), top_from);
        // Kill sites by array, then node: a generator's candidates are one
        // contiguous run, and its same-node kills sit next to each other.
        // Each kill's subscript is read once, as a row.
        let kills = spec.kills.iter().filter(|k| k.node != increment);
        let mut kills: Vec<(&KillSite, Option<Row>)> =
            kills.map(|k| (k, Row::of_kill(k))).collect();
        kills.sort_by_key(|(k, _)| (k.array, k.node));
        let m = spec.width();
        let mut table = FlowTable {
            modes: modes
                .iter()
                .map(|&mode| Constants {
                    mode,
                    starts: Vec::with_capacity(m + 1),
                    entries: Vec::new(),
                    post: Vec::with_capacity(m),
                })
                .collect(),
            gen_node: Vec::with_capacity(m),
            increment,
            top_from,
            group: Vec::with_capacity(m),
            sites: Vec::with_capacity(m),
            groups: 0,
        };
        let arrays = spec.gens.iter().map(|g| g.aref.array.0 as usize + 1);
        let mut group_of = vec![u32::MAX; arrays.max().unwrap_or(0)];
        for constants in &mut table.modes {
            constants.starts.push(0);
        }
        for gen in spec.gens.iter() {
            let array = gen.aref.array;
            let first = kills.partition_point(|(k, _)| k.array < array);
            let run = &kills[first..];
            let run = &run[..run.partition_point(|(k, _)| k.array == array)];
            let g = &mut group_of[array.0 as usize];
            if *g == u32::MAX {
                *g = table.groups as u32;
                table.groups += 1;
                table.sites.extend(run.iter().map(|(k, _)| (*g, k.node.0)));
            }
            table.group.push(*g);
            let generates = gen.node != increment;
            if generates {
                table.sites.push((*g, gen.node.0));
            }
            for constants in &mut table.modes {
                constants.post.push(lane::TOP);
            }
            let row = Row::of(&gen.sub);
            for &(kill, kill_row) in run {
                let relation = Relation::of(row, kill_row, direction);
                let pr = pr(gen, kill.node, graph, direction);
                let post_kills =
                    generates && kill.node == gen.node && post_kills(gen, kill, graph, direction);
                for c in &mut table.modes {
                    let p = norm(relation.constant(pr, ub, direction, c.mode));
                    let start = *c.starts.last().expect("pushed above");
                    match c.entries[start..].last_mut() {
                        Some((node, q)) if *node == kill.node.0 => *q = (*q).min(p),
                        _ if p != lane::TOP => c.entries.push((kill.node.0, p)),
                        _ => {}
                    }
                    if post_kills {
                        let post = c.post.last_mut().expect("pushed above");
                        *post = (*post).min(norm(relation.constant(0, ub, direction, c.mode)));
                    }
                }
            }
            table
                .gen_node
                .push(if generates { gen.node.0 } else { NO_NODE });
            for c in &mut table.modes {
                c.starts.push(c.entries.len());
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{KillKind, Mode, ProblemSpec};
    use arrayflow_graph::build_loop_graph;
    use arrayflow_ir::{parse_program, AffineSub, ArrayRef, Expr};

    #[test]
    fn table_matches_paper_fig3_functions() {
        // The loop of Fig. 1; check the five flow functions of §3.5.
        let p = parse_program(
            "do i = 1, UB
               C[i+2] := C[i] * 2;
               B[2*i] := C[i] + x;
               if C[i] == 0 then C[i] := B[i-1]; end
               B[i] := C[i+1];
             end",
        )
        .unwrap();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let c = p.symbols.lookup_array("C").unwrap();
        let b = p.symbols.lookup_array("B").unwrap();
        // Nodes: 0 entry, 1 C[i+2]:=, 2 B[2i]:=, 3 test, 4 C[i]:=, 5 B[i]:=, 6 exit.
        let mut spec = ProblemSpec::new(Direction::Forward, Mode::Must);
        let defs = [
            (NodeId(1), c, AffineSub::simple(1, 2)),
            (NodeId(2), b, AffineSub::simple(2, 0)),
            (NodeId(4), c, AffineSub::simple(1, 0)),
            (NodeId(5), b, AffineSub::simple(1, 0)),
        ];
        for (node, array, sub) in &defs {
            spec.add_gen(
                *node,
                ArrayRef::new(*array, Expr::Const(0)),
                sub.clone(),
                true,
                None,
            );
            spec.add_kill(*node, *array, KillKind::Exact(sub.clone().into()));
        }
        let table = FlowTable::build(&graph, &spec);
        // Which columns node `n` generates, and its preserve constants.
        let row = |n: u32| -> (Vec<bool>, Vec<Dist>) {
            let c = &table.modes[0];
            let preserve = |d: usize| {
                let column = &c.entries[c.starts[d]..c.starts[d + 1]];
                let entry = column.iter().find(|&&(node, _)| node == n);
                entry.map_or(Dist::Top, |&(_, p)| lane::decode(p))
            };
            (
                (0..4).map(|d| table.gen_node[d] == n).collect(),
                (0..4).map(preserve).collect(),
            )
        };

        // f₁ = (max(x₁,0), x₂, x₃, x₄)
        assert_eq!(
            row(1),
            (vec![true, false, false, false], vec![Dist::Top; 4])
        );
        // f₂ = (x₁, max(x₂,0), x₃, x₄)
        assert_eq!(
            row(2),
            (vec![false, true, false, false], vec![Dist::Top; 4])
        );
        // f₄ (paper node 3) = (min(x₁,1), x₂, max(x₃,0), x₄)
        assert_eq!(
            row(4),
            (
                vec![false, false, true, false],
                vec![Dist::Fin(1), Dist::Top, Dist::Top, Dist::Top]
            )
        );
        // f₅ (paper node 4) = (x₁, min(x₂,0), x₃, max(x₄,0))
        assert_eq!(
            row(5),
            (
                vec![false, false, false, true],
                vec![Dist::Top, Dist::Fin(0), Dist::Top, Dist::Top]
            )
        );
        // exit applies ++ and nothing else
        assert_eq!(table.increment, graph.exit());
        assert_eq!(row(6), (vec![false; 4], vec![Dist::Top; 4]));
        assert!(table.modes[0].post.iter().all(|&p| p == lane::TOP));
    }
}
