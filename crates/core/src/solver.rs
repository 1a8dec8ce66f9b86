//! The fixed point solver (paper §3.2, §3.3).
//!
//! Must-problems run an *initialization pass* (reverse postorder over the
//! acyclic body, ignoring the back edge, seeding `⊤` at generate sites)
//! followed by iteration passes of the equation system
//!
//! ```text
//! IN[n]  = ⨅ { OUT[m] | m ∈ pred(n) }          (pred(entry) ∋ exit)
//! OUT[n] = fₙ(IN[n])
//! ```
//!
//! Because the body is acyclic, the statement flow functions are idempotent
//! and `f ∘ f_exit ∘ f` is weakly idempotent, the greatest fixed point is
//! reached after **two** iteration passes — `3·N` node visits in total.
//! May-problems start from "all instances" instead and converge after two
//! passes (`2·N` visits) with the dual meet.
//!
//! The framework is separable: meet and every flow function act on each
//! tracked reference independently, so each *column* of the solution
//! evolves on its own. The solver therefore converges one column at a time
//! over packed lanes ([`crate::lattice`]'s `lane` encoding), emulating the
//! round-robin schedule per column: a column runs passes in flow order
//! until one leaves it unchanged, and the pass that last changed it is its
//! [`ColumnProfile`] entry.
//!
//! A column changes only at nodes holding a site on its own array, and at
//! the increment node; every other node is its identity. So the columns of
//! one array are solved on that array's *projected* flow graph (the sparse
//! evaluation graph of Choi, Cytron and Ferrante): the first and last flow
//! positions, the array's generating and killing nodes, and the merge
//! nodes where predecessors carrying different projected values meet. A
//! skipped node carries its projected predecessor's out value and changes
//! in the same pass, so the state after `k` passes of every column is
//! exactly the round-robin state after `k` passes at every node. Hence
//! [`solve_passes`] yields the paper's per-pass Table 1 snapshots,
//! [`solve_bounded`] runs exactly the paper's schedule, and the reported
//! [`SolveStats`] are the round-robin schedule's: `max(profile) + 1`
//! passes of `N` visits each (the last one confirming), plus the
//! initialization pass for must-problems. Columns are stored sparse, one
//! lane pair per projected node, and a group's columns side by side in
//! one block, so a solve allocates per group rather than per column and a
//! splice shares a group's columns with one reference count; a value
//! anywhere else comes from a lookup, and a full row is built only when
//! asked for ([`Solution::before_row`]).
//!
//! The projection depends only on the rows and the direction, not on the
//! mode. So [`solve_modes`] solves one spec's rows in several modes at
//! once (δ-available values and δ-reaching references are the same rows
//! in must and may mode): one flow table build, one projection, and one
//! block per group holding every mode's columns, one mode after the
//! other. [`solve`] is its one-mode case.

use std::sync::Arc;

use arrayflow_graph::{LoopGraph, NodeId};

use crate::flow::FlowTable;
use crate::lattice::{lane, Dist};
use crate::problem::{Direction, Mode, ProblemSpec, RefId};

/// Solver instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Node visits in the initialization pass (0 for may-problems).
    pub init_visits: usize,
    /// Node visits across all iteration passes.
    pub iter_visits: usize,
    /// Iteration passes executed (including the final, unchanged one when
    /// running to an observed fixed point).
    pub passes: usize,
    /// Iteration passes that changed at least one value.
    pub changing_passes: usize,
}

impl SolveStats {
    /// Total node visits (the paper's `3·N` / `2·N` metric counts only the
    /// visits needed to *reach* the fixed point, i.e. init + changing
    /// passes).
    pub fn visits_to_fix(&self, nodes: usize) -> usize {
        self.init_visits + self.changing_passes * nodes
    }

    /// The round-robin schedule behind a column profile: `passes`
    /// iteration passes of `nodes` visits (`max(profile) + 1` when run to
    /// the fixed point), plus the initialization pass for must-problems.
    fn of_profile(profile: &[u32], nodes: usize, mode: Mode, passes: Option<usize>) -> Self {
        let changing_passes = profile.iter().copied().max().unwrap_or(0) as usize;
        let passes = passes.unwrap_or(changing_passes + 1);
        SolveStats {
            init_visits: if mode == Mode::Must { nodes } else { 0 },
            iter_visits: passes * nodes,
            passes,
            changing_passes,
        }
    }
}

/// Per-column convergence profile: for each tracked reference, the last
/// iteration pass (1-based) in which its column changed anywhere, or 0 if
/// it never moved after initialization. `max(profile) ==
/// stats.changing_passes` by construction.
pub type ColumnProfile = Vec<u32>;

/// The fixed point: one lattice value per node and tracked reference on
/// each side of the node's flow function, stored column by column as
/// packed lanes over the column's projected flow graph; a node off the
/// projection reads the value it carries unchanged from its projected
/// predecessor.
///
/// Values are oriented in the direction of information flow: for a forward
/// problem "before" is the solution at node entry and "after" at node
/// exit; for a backward problem "before" is at node *exit* (the paper's
/// `IN` for backward problems) and "after" at node entry.
///
/// The columns of one group (one generated array) live side by side in
/// one block, after the group's projection slots; a column is its block
/// and its offset there. Blocks are immutable once solved, so
/// solutions that splice or select columns share whole blocks instead of
/// copying lanes.
///
/// Two solutions are equal when they agree on the statistics, the profile
/// and every value at every node, whatever blocks hold them: a column
/// selected from a wider solve keeps that solve's projection.
#[derive(Clone)]
pub struct Solution {
    nodes: usize,
    /// The blocks the columns live in.
    blocks: Vec<Arc<Block>>,
    /// Per column: its block's index in `blocks` and the offset of its
    /// lanes within the block.
    columns: Vec<(u32, u32)>,
    /// Last changing pass per column (see [`ColumnProfile`]).
    pub profile: ColumnProfile,
    /// Instrumentation, in round-robin-equivalent terms.
    pub stats: SolveStats,
}

/// One solved column group, in one buffer pre-sized from its column and
/// projected node counts: the slot of every node (two per word), then per
/// column, in column order, the before lanes of the group's projected
/// nodes and then their after lanes. Node `v`'s slot is its index within
/// the group's projection with [`OWN`] set when `v` is projected, else the
/// index of its projected predecessor.
struct Block {
    data: Vec<u64>,
    /// Projected nodes of the group: half a column's lanes.
    len: u32,
}

impl Block {
    /// Words holding the slots of `nodes` nodes.
    fn slot_words(nodes: usize) -> usize {
        nodes.div_ceil(2)
    }

    #[inline]
    fn slot(&self, node: usize) -> u32 {
        (self.data[node / 2] >> (node % 2 * 32)) as u32
    }
}

impl Solution {
    /// The lane of column `d` flowing into (`after = false`) or out of
    /// `node`.
    #[inline]
    fn lane(&self, d: usize, node: usize, after: bool) -> u64 {
        let (b, offset) = self.columns[d];
        let block = &*self.blocks[b as usize];
        let slot = block.slot(node);
        let j = offset as usize + (slot & !OWN) as usize;
        match slot & OWN != 0 && !after {
            true => block.data[j],
            false => block.data[j + block.len as usize],
        }
    }

    /// Number of tracked references (columns).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The solution component for reference `d` flowing into `node`.
    #[inline]
    pub fn before_at(&self, node: NodeId, d: RefId) -> Dist {
        lane::decode(self.lane(d.index(), node.index(), false))
    }

    /// The solution component for reference `d` flowing out of `node`.
    #[inline]
    pub fn after_at(&self, node: NodeId, d: RefId) -> Dist {
        lane::decode(self.lane(d.index(), node.index(), true))
    }

    /// The tuple flowing into `node`, one value per reference.
    pub fn before_row(&self, node: NodeId) -> Vec<Dist> {
        (0..self.width() as u32)
            .map(|d| self.before_at(node, RefId(d)))
            .collect()
    }

    /// The tuple flowing out of `node`, one value per reference.
    pub fn after_row(&self, node: NodeId) -> Vec<Dist> {
        (0..self.width() as u32)
            .map(|d| self.after_at(node, RefId(d)))
            .collect()
    }

    /// Assembles a converged solution over a `nodes`-node graph column by
    /// column — the incremental splice: each `(source, column)` pair names
    /// a column of a solution over the same graph, whose block the result
    /// shares rather than copies (one `Arc` per block, however many of
    /// its columns are taken); its profile entry travels with it, and the
    /// statistics are re-derived from the spliced profile.
    pub fn splice<'a>(
        nodes: usize,
        mode: Mode,
        columns: impl IntoIterator<Item = (&'a Solution, usize)>,
    ) -> Solution {
        let columns = columns.into_iter();
        let mut spliced = Solution {
            nodes,
            blocks: Vec::new(),
            columns: Vec::with_capacity(columns.size_hint().0),
            profile: Vec::with_capacity(columns.size_hint().0),
            stats: SolveStats::default(),
        };
        // Per source solution, its blocks' indices in the result
        // (`u32::MAX` until one of their columns is taken).
        let mut sources: Vec<(&Solution, Vec<u32>)> = Vec::new();
        for (src, d) in columns {
            let at = match sources.iter().position(|(s, _)| std::ptr::eq(*s, src)) {
                Some(at) => at,
                None => {
                    sources.push((src, vec![u32::MAX; src.blocks.len()]));
                    sources.len() - 1
                }
            };
            let (b, offset) = src.columns[d];
            let index = &mut sources[at].1[b as usize];
            if *index == u32::MAX {
                *index = spliced.blocks.len() as u32;
                spliced.blocks.push(Arc::clone(&src.blocks[b as usize]));
            }
            spliced.columns.push((*index, offset));
            spliced.profile.push(src.profile[d]);
        }
        spliced.stats = SolveStats::of_profile(&spliced.profile, nodes, mode, None);
        spliced
    }
}

impl PartialEq for Solution {
    fn eq(&self, other: &Self) -> bool {
        let same_lanes = |d: usize| {
            (0..self.nodes).all(|v| {
                self.lane(d, v, false) == other.lane(d, v, false)
                    && self.lane(d, v, true) == other.lane(d, v, true)
            })
        };
        self.nodes == other.nodes
            && self.stats == other.stats
            && self.profile == other.profile
            && self.width() == other.width()
            && (0..self.width()).all(same_lanes)
    }
}

impl Eq for Solution {}

impl std::fmt::Debug for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solution")
            .field("nodes", &self.nodes)
            .field("width", &self.width())
            .field("profile", &self.profile)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A cooperative stop request: the caller's `should_stop` closure returned
/// `true` before the fixed point was reached. Carries how many passes of
/// work completed before the solver yielded — the *wasted work* a
/// cancelled request actually cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped {
    /// Whole round-robin-equivalent passes (`N · m` node-column visits
    /// each) the columns finished before the stop add up to. A solve of
    /// several modes ([`solve_modes`]) solves them in turn and counts
    /// each in its own terms: the passes of the modes it finished, plus
    /// the stopped mode's.
    pub passes_completed: usize,
}

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "solve stopped after {} passes", self.passes_completed)
    }
}

impl std::error::Error for Stopped {}

/// A cooperative stop check. The solver polls it before the first column
/// of each mode and then at the first column boundary after each further
/// pass of that mode's work (see [`Stopped::passes_completed`]), so a
/// request that dies mid-solve costs at most about one more pass. `None`
/// costs a single branch per poll — the same dormant-seam contract as the
/// fault surface.
pub type StopCheck<'a> = &'a (dyn Fn() -> bool + 'a);

/// A pass cap no structured loop graph comes near: columns converge within
/// three passes (two changing, one confirming).
const HARD_CAP: u32 = 64;

/// Solves `spec` over `graph`, iterating every column to an observed fixed
/// point. Polls `should_stop` between columns (see [`StopCheck`]) and
/// yields [`Stopped`] as soon as it returns `true`; with `None` the solve
/// always completes.
///
/// # Panics
///
/// Panics if a column does not converge within a generous pass budget —
/// impossible for graphs produced by `arrayflow-graph`, whose bodies are
/// acyclic.
pub fn solve(
    graph: &LoopGraph,
    spec: &ProblemSpec,
    should_stop: Option<StopCheck<'_>>,
) -> Result<Solution, Stopped> {
    run(graph, spec, &[spec.mode], None, should_stop).map(one)
}

/// Solves the rows and direction of `spec` in each of `modes` (`spec.mode`
/// is not read), one [`Solution`] per mode in order, each equal to
/// [`solve`]'s in that mode. The modes share one flow table build, one
/// projection and one block per array, which holds every mode's columns;
/// each solution's profile and statistics are its own. The modes are
/// solved in turn, and `should_stop` is polled as [`solve`] polls it for
/// each (see [`Stopped::passes_completed`]).
///
/// # Panics
///
/// As [`solve`].
pub fn solve_modes(
    graph: &LoopGraph,
    spec: &ProblemSpec,
    modes: &[Mode],
    should_stop: Option<StopCheck<'_>>,
) -> Result<Vec<Solution>, Stopped> {
    run(graph, spec, modes, None, should_stop)
}

/// Runs exactly the paper's schedule: the initialization pass (must) plus
/// two iteration passes, without checking for convergence. The result
/// equals [`solve`]'s on structured loop graphs — asserted throughout the
/// test suite — which is precisely the paper's efficiency theorem.
pub fn solve_bounded(graph: &LoopGraph, spec: &ProblemSpec) -> Solution {
    solve_passes(graph, spec, 2)
}

/// The state after the initialization and `passes` iteration passes: the
/// round-robin snapshot the paper's Table 1 prints per pass (`passes = 0`
/// is the initialization pass alone). Statistics report exactly `passes`
/// iteration passes.
pub fn solve_passes(graph: &LoopGraph, spec: &ProblemSpec, passes: usize) -> Solution {
    one(run(graph, spec, &[spec.mode], Some(passes), None).expect("no stop check installed"))
}

/// The solution of a one-mode run.
fn one(mut solutions: Vec<Solution>) -> Solution {
    solutions.pop().expect("one solution per mode")
}

/// A slot's flag: the node is itself a projected node.
const OWN: u32 = 1 << 31;

/// The slot mark of a group's site before its flow-order pass.
const SITE: u32 = u32::MAX;

/// Every column group's projected flow graph, in one set of flat arrays.
///
/// A group's columns change only at its sites (see [`FlowTable`]) and at
/// the increment node; every other node is their identity (paper §3.1).
/// The group's projection keeps, in flow order, the first and last flow
/// positions, its sites, and the merges: nodes where predecessors that
/// carry different projected values meet. Any other node carries the out
/// value of one projected node, its projected predecessor, into and out
/// of itself, and within a pass it changes exactly when that value does.
/// So a column solved over its projection holds the round-robin values at
/// projected nodes, and through its block's slots at every other one,
/// after every pass — and changes on the same passes.
struct Projection {
    /// Group `g`'s projected nodes are `order[first[g]..first[g + 1]]`.
    first: Vec<usize>,
    /// The graph node of each projected node, flow order within a group.
    order: Vec<u32>,
    /// Projected node `j`'s predecessors are `preds[starts[j]..starts[j +
    /// 1]]`, as indices within its group; a group's first node's only
    /// predecessor is its last (the back edge).
    starts: Vec<usize>,
    preds: Vec<u32>,
    /// The farthest index within its group a change at projected node `j`
    /// reaches within a pass: its last projected successor (`j` itself for
    /// the last).
    reach: Vec<u32>,
}

/// One group's projected flow graph.
struct View<'a> {
    order: &'a [u32],
    starts: &'a [usize],
    preds: &'a [u32],
    reach: &'a [u32],
}

impl View<'_> {
    fn preds(&self, j: usize) -> &[u32] {
        &self.preds[self.starts[j]..self.starts[j + 1]]
    }
}

impl Projection {
    /// Projects `graph`, in `direction`'s flow order, onto each group of
    /// `table`: one flow-order pass per group over flat, shared arrays.
    /// Each pass leaves its group's slots, which start the group's block,
    /// sized for the group's columns in every mode of the table.
    fn new(graph: &LoopGraph, direction: Direction, table: &FlowTable) -> (Self, Vec<Block>) {
        let (n, rpo) = (graph.len(), graph.rpo());
        // Flow order is reverse postorder forward and its reverse
        // backward; every node is on it (a `LoopGraph` invariant), and the
        // last position carries the increment.
        let backward = direction == Direction::Backward;
        let at = |i: usize| if backward { rpo[n - 1 - i] } else { rpo[i] };
        let flow_preds = |v: NodeId| match backward {
            true => graph.succs(v),
            false => graph.preds(v),
        };
        let (groups, modes) = (table.groups, table.modes.len());
        let mut p = Projection {
            first: Vec::with_capacity(groups + 1),
            order: Vec::new(),
            starts: vec![0],
            preds: Vec::new(),
            reach: Vec::new(),
        };
        p.first.push(0);
        // Each group's columns, and its sites: group g's are
        // `sites[first_site[g]..first_site[g + 1]]`.
        let (mut width, mut first_site) = (vec![0; groups], vec![0; groups + 1]);
        for &g in &table.group {
            width[g as usize] += 1;
        }
        for &(g, _) in &table.sites {
            first_site[g as usize + 1] += 1;
        }
        for g in 0..groups {
            first_site[g + 1] += first_site[g];
        }
        let (mut sites, mut next) = (vec![0; table.sites.len()], first_site.clone());
        for &(g, v) in &table.sites {
            sites[next[g as usize]] = v as usize;
            next[g as usize] += 1;
        }
        let mut blocks = Vec::with_capacity(groups);
        // One row of slots, overwritten by every group's pass.
        let mut slot = vec![0; n];
        for g in 0..groups {
            let base = p.order.len();
            // The pass reads a node's own slot only for this mark, and
            // only before writing it.
            for &v in &sites[first_site[g]..first_site[g + 1]] {
                slot[v] = SITE;
            }
            for i in 0..n {
                let node = at(i);
                let (v, preds) = (node.index(), flow_preds(node));
                let carried = |q: &NodeId| slot[q.index()] & !OWN;
                let projected = i == 0 || i + 1 == n || slot[v] == SITE || {
                    let first = carried(&preds[0]);
                    preds[1..].iter().any(|q| carried(q) != first)
                };
                if !projected {
                    slot[v] = carried(&preds[0]);
                    continue;
                }
                let start = p.preds.len();
                if i == 0 {
                    p.preds.push(0); // the back edge, patched below
                } else {
                    for q in preds {
                        let q = carried(q);
                        if !p.preds[start..].contains(&q) {
                            p.preds.push(q);
                        }
                    }
                }
                slot[v] = (p.order.len() - base) as u32 | OWN;
                p.order.push(v as u32);
                p.starts.push(p.preds.len());
            }
            let k = p.order.len() - base;
            p.preds[p.starts[base]] = (k - 1) as u32;
            p.reach.extend(0..k as u32);
            for j in 1..k {
                for q in p.preds[p.starts[base + j]..p.starts[base + j + 1]].iter() {
                    let r = &mut p.reach[base + *q as usize];
                    *r = (*r).max(j as u32);
                }
            }
            p.first.push(p.order.len());
            let mut data = Vec::with_capacity(Block::slot_words(n) + 2 * k * width[g] * modes);
            let pairs = slot.chunks_exact(2);
            let last = pairs.remainder().first().copied().map(u64::from);
            data.extend(pairs.map(|pair| u64::from(pair[0]) | u64::from(pair[1]) << 32));
            data.extend(last);
            blocks.push(Block {
                data,
                len: k as u32,
            });
        }
        (p, blocks)
    }

    /// Group `g`'s projected flow graph.
    fn view(&self, g: usize) -> View<'_> {
        let (first, last) = (self.first[g], self.first[g + 1]);
        View {
            order: &self.order[first..last],
            starts: &self.starts[first..=last],
            preds: &self.preds,
            reach: &self.reach[first..last],
        }
    }
}

/// The one solver: in each of `modes` in turn, every column in turn over
/// its group's projection, passes capped at `cap` when set.
fn run(
    graph: &LoopGraph,
    spec: &ProblemSpec,
    modes: &[Mode],
    cap: Option<usize>,
    should_stop: Option<StopCheck<'_>>,
) -> Result<Vec<Solution>, Stopped> {
    let table = FlowTable::build_modes(graph, spec, modes);
    let (projection, mut blocks) = Projection::new(graph, spec.direction, &table);
    let (n, m) = (graph.len(), spec.width());
    let poll = |passes_completed| match should_stop.is_some_and(|stop| stop()) {
        true => Err(Stopped { passes_completed }),
        false => Ok(()),
    };
    // Each group's block holds its slots and then its columns' lanes side
    // by side, mode by mode in column order; column d is solved in place
    // at the end of its block, which it extends. Its preserve constants
    // are scattered over the nodes and cleared again after its solve.
    let mut preserve = vec![lane::TOP; n];
    let cap32 = cap.map_or(HARD_CAP, |c| c.min(HARD_CAP as usize) as u32);
    // Whole passes of the modes solved so far.
    let mut spent = 0;
    let mut solved = Vec::with_capacity(modes.len());
    for constants in &table.modes {
        poll(spent)?;
        let (mut columns, mut profile) = (Vec::with_capacity(m), Vec::with_capacity(m));
        let (mut work, mut polled) = (0, 0);
        for d in 0..m {
            let entries = &constants.entries[constants.starts[d]..constants.starts[d + 1]];
            for &(node, p) in entries {
                preserve[node as usize] = p;
            }
            let group = table.group[d] as usize;
            let view = projection.view(group);
            let len = view.order.len();
            let data = &mut blocks[group].data;
            let offset = data.len();
            data.resize(offset + 2 * len, 0);
            let lanes = &mut data[offset..];
            let post = constants.post[d];
            let last_change = match constants.mode {
                Mode::Must => solve_column::<true>(&view, &table, d, post, &preserve, cap32, lanes),
                Mode::May => solve_column::<false>(&view, &table, d, post, &preserve, cap32, lanes),
            };
            columns.push((group as u32, offset as u32));
            profile.push(last_change);
            for &(node, _) in entries {
                preserve[node as usize] = lane::TOP;
            }
            assert!(
                cap.is_some() || last_change < HARD_CAP,
                "fixed point not reached within {HARD_CAP} passes — non-structured graph?"
            );
            // One pass of work is one column-pass per column: poll once
            // more each time the finished columns complete another.
            work += last_change as usize + 1;
            if work / m > polled && d + 1 < m {
                polled = work / m;
                poll(spent + polled)?;
            }
        }
        let stats = SolveStats::of_profile(&profile, n, constants.mode, cap);
        spent += stats.passes;
        solved.push((columns, profile, stats));
    }
    let blocks: Vec<Arc<Block>> = blocks.into_iter().map(Arc::new).collect();
    Ok(solved
        .into_iter()
        .map(|(columns, profile, stats)| Solution {
            nodes: n,
            blocks: blocks.clone(),
            columns,
            profile,
            stats,
        })
        .collect())
}

/// Initializes and iterates column `d` of table `t` over its group's
/// projection `s` in place, in `lanes` (its before lanes, then its after
/// lanes), returning the last pass that changed it (at most `cap`). `post`
/// is the column's post-generate constant and `preserve` holds its
/// preserve lane per node (`⊤` = identity), both in the mode `MUST`
/// selects, which also selects the meet: `min` for must-problems, `max`
/// for may-problems.
fn solve_column<const MUST: bool>(
    s: &View<'_>,
    t: &FlowTable,
    d: usize,
    post: u64,
    preserve: &[u64],
    cap: u32,
    lanes: &mut [u64],
) -> u32 {
    let (before, after) = lanes.split_at_mut(s.order.len());
    // The generating node is out of range when the column has none.
    let (gen, increment) = (t.gen_node[d], t.increment.0);
    if MUST {
        // Initialization pass in flow order over the acyclic body:
        // OUT⁰ = ⊤ at the generator, IN⁰ propagated, kills ignored.
        for (j, &node) in s.order.iter().enumerate() {
            let inp = if j == 0 {
                0
            } else {
                meet::<true>(s.preds(j), after)
            };
            before[j] = inp;
            after[j] = if node == gen { lane::TOP } else { inp };
        }
    } else {
        // Start from "all instances"; the preserve functions lower the
        // values to the greatest fixed point within two passes.
        before.fill(lane::TOP);
        after.fill(lane::TOP);
    }
    // Generation floor `Fin(0)`, normalized like every stored constant.
    let floor = lane::normalize(1, t.top_from);
    for pass in 1..=cap {
        let mut changed = false;
        // Pass 1 starts from the initialization state, which ignores the
        // kills: every node is visited. Every later pass starts from a
        // state in which each node but the first agrees with its inputs,
        // so it follows only the changes it makes: positions past
        // `frontier` would recompute the values they hold. The round-robin
        // schedule visits them anyway, to no effect.
        let mut frontier = if pass == 1 { usize::MAX } else { 0 };
        for (j, &node) in s.order.iter().enumerate() {
            if j > frontier {
                break;
            }
            let inp = meet::<MUST>(s.preds(j), after);
            let out = if node == increment {
                lane::normalize(lane::incr(inp), t.top_from)
            } else if node == gen {
                inp.min(preserve[node as usize]).max(floor).min(post)
            } else {
                inp.min(preserve[node as usize])
            };
            if after[j] != out {
                frontier = frontier.max(s.reach[j] as usize);
            }
            if before[j] != inp || after[j] != out {
                (before[j], after[j]) = (inp, out);
                changed = true;
            }
        }
        if !changed {
            return pass - 1;
        }
    }
    cap
}

/// The meet of the predecessors' outputs: `min` (identity `⊤`) when
/// `MUST`, else `max` (identity `⊥`).
fn meet<const MUST: bool>(preds: &[u32], after: &[u64]) -> u64 {
    if MUST {
        preds
            .iter()
            .fold(lane::TOP, |acc, &p| acc.min(after[p as usize]))
    } else {
        preds.iter().fold(0, |acc, &p| acc.max(after[p as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::KillKind;
    use arrayflow_graph::build_loop_graph;
    use arrayflow_ir::{parse_program, AffineSub, ArrayRef, Expr};

    /// Builds the must-reaching-definitions spec for the paper's Fig. 1 loop
    /// by hand (the analyses crate automates this).
    fn fig3_spec() -> (arrayflow_ir::Program, ProblemSpec) {
        fig3_spec_ub("UB")
    }

    /// [`fig3_spec`] with trip count `ub`.
    fn fig3_spec_ub(ub: &str) -> (arrayflow_ir::Program, ProblemSpec) {
        let p = parse_program(&format!(
            "do i = 1, {ub}
               C[i+2] := C[i] * 2;
               B[2*i] := C[i] + x;
               if C[i] == 0 then C[i] := B[i-1]; end
               B[i] := C[i+1];
             end"
        ))
        .unwrap();
        let c = p.symbols.lookup_array("C").unwrap();
        let b = p.symbols.lookup_array("B").unwrap();
        let mut spec = ProblemSpec::new(Direction::Forward, Mode::Must);
        for (node, array, sub) in [
            (NodeId(1), c, AffineSub::simple(1, 2)),
            (NodeId(2), b, AffineSub::simple(2, 0)),
            (NodeId(4), c, AffineSub::simple(1, 0)),
            (NodeId(5), b, AffineSub::simple(1, 0)),
        ] {
            spec.add_gen(
                node,
                ArrayRef::new(array, Expr::Const(0)),
                sub.clone(),
                true,
                None,
            );
            spec.add_kill(node, array, KillKind::Exact(sub.into()));
        }
        (p, spec)
    }

    fn tup(v: &[Dist]) -> Vec<Dist> {
        v.to_vec()
    }

    /// Same lattice values, whatever the statistics.
    fn same_values(a: &Solution, b: &Solution) -> bool {
        (0..a.nodes as u32)
            .map(NodeId)
            .all(|n| a.before_row(n) == b.before_row(n) && a.after_row(n) == b.after_row(n))
    }

    fn full(graph: &LoopGraph, spec: &ProblemSpec) -> Solution {
        solve(graph, spec, None).unwrap()
    }

    #[test]
    fn reproduces_paper_table1_fixed_point() {
        use Dist::{Bottom as B, Fin, Top as T};
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        let before = |n: u32| sol.before_row(NodeId(n));
        let after = |n: u32| sol.after_row(NodeId(n));

        // Paper node 1 (= our node 1): IN = (2, 1, ⊥, ⊤)
        assert_eq!(before(1), tup(&[Fin(2), Fin(1), B, T]));
        assert_eq!(after(1), tup(&[Fin(2), Fin(1), B, T]));
        // Paper node 2: same IN, OUT
        assert_eq!(before(2), tup(&[Fin(2), Fin(1), B, T]));
        assert_eq!(after(2), tup(&[Fin(2), Fin(1), B, T]));
        // Paper node 3 (guarded assign, our node 4): IN = (2,1,⊥,⊤), OUT = (1,1,0,⊤)
        assert_eq!(before(4), tup(&[Fin(2), Fin(1), B, T]));
        assert_eq!(after(4), tup(&[Fin(1), Fin(1), Fin(0), T]));
        // Paper node 4 (our node 5): IN = (1,1,⊥,⊤), OUT = (1,0,⊥,⊤)
        assert_eq!(before(5), tup(&[Fin(1), Fin(1), B, T]));
        assert_eq!(after(5), tup(&[Fin(1), Fin(0), B, T]));
        // Paper node 5 (exit, our node 6): IN = (1,0,⊥,⊤), OUT = (2,1,⊥,⊤)
        assert_eq!(before(6), tup(&[Fin(1), Fin(0), B, T]));
        assert_eq!(after(6), tup(&[Fin(2), Fin(1), B, T]));
    }

    #[test]
    fn must_fixed_point_within_two_passes() {
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        assert!(
            sol.stats.changing_passes <= 2,
            "paper bound violated: {:?}",
            sol.stats
        );
        assert!(same_values(&sol, &solve_bounded(&graph, &spec)));
        // The profile reconstructs the statistics.
        assert_eq!(
            SolveStats::of_profile(&sol.profile, graph.len(), Mode::Must, None),
            sol.stats
        );
    }

    #[test]
    fn may_mode_converges_from_top() {
        let (p, mut spec) = fig3_spec();
        spec.mode = Mode::May;
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        assert!(sol.stats.changing_passes <= 2, "{:?}", sol.stats);
        assert_eq!(sol.stats.init_visits, 0);
        // May-reaching: along the path avoiding the guarded kill, instances
        // of C[i+2] survive, so the may solution at node 5 covers at least
        // what the must solution covers.
        let must = full(&graph, &fig3_spec().1);
        for n in graph.node_ids() {
            for d in (0..spec.width() as u32).map(RefId) {
                assert!(
                    sol.before_at(n, d) >= must.before_at(n, d),
                    "may must dominate must at node {n} ref {d:?}"
                );
            }
        }
    }

    #[test]
    fn may_reaching_sees_through_the_conditional() {
        let (p, mut spec) = fig3_spec();
        spec.mode = Mode::May;
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        // C[i+2] instances *may* survive the conditional kill in node 4
        // (the else path), so all instances may reach node 5.
        assert_eq!(sol.before_at(NodeId(5), RefId(0)), Dist::Top);
    }

    #[test]
    fn solution_respects_ub_normalization() {
        // Same loop with UB = 3: distances clamp at ⊤ = UB − 1 = 2.
        let (p, spec) = fig3_spec_ub("3");
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        // IN[1] first component was 2 = UB − 1 → ⊤ after normalization.
        assert_eq!(sol.before_at(NodeId(1), RefId(0)), Dist::Top);
    }

    #[test]
    fn stop_check_stops_before_the_first_column() {
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let stop = || true;
        let err = solve(&graph, &spec, Some(&stop)).unwrap_err();
        assert_eq!(err.passes_completed, 0);
    }

    #[test]
    fn stop_after_one_pass_of_work_reports_one_wasted_pass() {
        use std::cell::Cell;
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let polls = Cell::new(0usize);
        let stop = || {
            let n = polls.get() + 1;
            polls.set(n);
            n > 1 // allow exactly one pass, stop on the second poll
        };
        let err = solve(&graph, &spec, Some(&stop)).unwrap_err();
        assert_eq!(err.passes_completed, 1);
        // Without a stop the same solve polls at most once per pass.
        let polls = Cell::new(0usize);
        let count = || {
            polls.set(polls.get() + 1);
            false
        };
        let sol = solve(&graph, &spec, Some(&count)).unwrap();
        assert!(same_values(&sol, &full(&graph, &spec)));
        assert!(polls.get() <= sol.stats.passes, "{} polls", polls.get());
    }

    #[test]
    fn capped_solves_stop_at_the_cap() {
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let init = solve_passes(&graph, &spec, 0);
        assert_eq!((init.stats.passes, init.stats.iter_visits), (0, 0));
        // Table 1 (i): only generate sites are ⊤ after initialization.
        assert_eq!(init.after_at(NodeId(1), RefId(0)), Dist::Top);
        assert_eq!(init.before_at(NodeId(1), RefId(0)), Dist::Bottom);
        let one = solve_passes(&graph, &spec, 1);
        assert_eq!((one.stats.passes, one.stats.changing_passes), (1, 1));
        assert!(!same_values(&one, &init));
    }

    #[test]
    fn empty_spec_solves_trivially() {
        let p = parse_program("do i = 1, 10 A[i] := 0; end").unwrap();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let spec = ProblemSpec::new(Direction::Forward, Mode::Must);
        let sol = full(&graph, &spec);
        assert_eq!(sol.width(), 0);
        assert!(sol.before_row(NodeId(1)).is_empty());
        assert!(sol.stats.changing_passes <= 1);
    }

    #[test]
    fn distances_beyond_32_bits_survive() {
        // A[i] reads what A[i+5000000000] wrote 5 000 000 000 iterations
        // earlier: the reuse distance overflows a u32 lane.
        let p = parse_program("do i = 1, UB A[i+5000000000] := 0; A[i] := A[i+5000000000]; end")
            .unwrap();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let a = p.symbols.lookup_array("A").unwrap();
        let mut spec = ProblemSpec::new(Direction::Forward, Mode::Must);
        let d = spec.add_gen(
            NodeId(1),
            ArrayRef::new(a, Expr::Const(0)),
            AffineSub::simple(1, 5_000_000_000),
            true,
            None,
        );
        spec.add_kill(
            NodeId(1),
            a,
            KillKind::Exact(AffineSub::simple(1, 5_000_000_000).into()),
        );
        spec.add_kill(
            NodeId(2),
            a,
            KillKind::Exact(AffineSub::simple(1, 0).into()),
        );
        let sol = full(&graph, &spec);
        assert_eq!(sol.before_at(NodeId(2), d), Dist::Fin(5_000_000_000));
        assert_eq!(sol.after_at(NodeId(2), d), Dist::Fin(4_999_999_999));
    }

    #[test]
    fn splice_copies_columns_and_rederives_stats() {
        let (p, spec) = fig3_spec();
        let graph = build_loop_graph(p.sole_loop().unwrap());
        let sol = full(&graph, &spec);
        let n = graph.len();
        let same = Solution::splice(n, Mode::Must, (0..4).map(|d| (&sol, d)));
        assert_eq!(same, sol);
        let swapped = Solution::splice(n, Mode::Must, [(&sol, 1), (&sol, 0)]);
        assert_eq!(swapped.width(), 2);
        assert_eq!(
            swapped.before_at(NodeId(5), RefId(1)),
            sol.before_at(NodeId(5), RefId(0))
        );
        assert_eq!(swapped.profile, vec![sol.profile[1], sol.profile[0]]);
    }
}
