#![warn(missing_docs)]
//! The array reference data flow framework of Duesterwald, Gupta and Soffa
//! (PLDI 1993) — the paper's primary contribution.
//!
//! The framework extends classical scalar data flow analysis to subscripted
//! variables by replacing the binary lattice with a chain lattice of
//! *iteration distances* ([`Dist`]): the fixed point at a program point
//! records, per tracked reference, the maximal distance `δ` for which the
//! data flow fact holds (e.g. "the latest δ instances of this definition
//! must reach here").
//!
//! A concrete analysis is an instance of [`ProblemSpec`]: a set **G** of
//! generating references, a set **K** of killing sites, a [`Direction`] and
//! a [`Mode`]. Flow functions come in exactly two statement shapes —
//! generate `max(x, 0)` and preserve `min(x, p)` with compile-time constant
//! `p` (derived in [`preserve`]) — plus the increment `x⁺⁺` at the loop
//! `exit` node. [`solve`] computes the fixed point in at most three passes
//! over the loop body for must-problems and two for may-problems;
//! [`solve_bounded`] runs exactly that schedule so the bound itself is
//! testable, and [`solve_passes`] stops after any number of passes (the
//! paper's per-pass Table 1).
//!
//! There is one solver. [`FlowTable::build`] reduces every flow function to
//! its constants, evaluating only same-array (generator, kill) pairs; the
//! solver then converges the solution one column — one tracked reference —
//! at a time over packed `u64` lanes, which is sound because the framework
//! is separable (each column evolves independently), and solves each
//! array's columns on that array's projected flow graph, since every node
//! without a site on the array is the identity for them. Problems that
//! differ only in their mode share that work: [`solve_modes`] builds one
//! table and one projection for all of them. A [`Solution`] carries
//! the fixed point, one block of columns per array, each column's
//! [`ColumnProfile`] entry (the pass that last changed it) and the
//! [`SolveStats`] of the equivalent round-robin schedule, so incremental
//! re-analysis can re-solve only the columns an edit dirties and
//! [`Solution::splice`] the rest, sharing whole blocks.
//!
//! ```
//! use arrayflow_core::{solve, Direction, Mode, ProblemSpec, KillKind, Dist};
//! use arrayflow_graph::build_loop_graph;
//! use arrayflow_ir::{parse_program, AffineSub, ArrayRef, Expr};
//!
//! // do i = 1, UB { A[i+1] := A[i]; } — must-reaching definitions of A[i+1].
//! let p = parse_program("do i = 1, 100 A[i+1] := A[i]; end").unwrap();
//! let g = build_loop_graph(p.sole_loop().unwrap());
//! let a = p.symbols.lookup_array("A").unwrap();
//! let mut spec = ProblemSpec::new(Direction::Forward, Mode::Must);
//! let d = spec.add_gen(
//!     arrayflow_graph::NodeId(1),
//!     ArrayRef::new(a, Expr::Const(0)),
//!     AffineSub::simple(1, 1),
//!     true,
//!     None,
//! );
//! let kill = KillKind::Exact(AffineSub::simple(1, 1).into());
//! spec.add_kill(arrayflow_graph::NodeId(1), a, kill);
//! let sol = solve(&g, &spec, None).unwrap();
//! // Every previous instance of A[i+1] reaches the top of the body.
//! assert_eq!(sol.before_at(arrayflow_graph::NodeId(1), d), Dist::Top);
//! ```

pub mod arith;
pub mod flow;
pub mod lattice;
pub mod preserve;
pub mod problem;
pub mod solver;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod preserve_oracle;

pub use flow::FlowTable;
pub use lattice::Dist;
pub use preserve::preserve_constant;
pub use problem::{
    canned_solves, canned_source, CustomSpec, Direction, GenRef, KillKind, KillSite, Mode,
    ProblemSpec, RefId, CANNED,
};
pub use solver::{
    solve, solve_bounded, solve_modes, solve_passes, ColumnProfile, Solution, SolveStats,
    StopCheck, Stopped,
};
