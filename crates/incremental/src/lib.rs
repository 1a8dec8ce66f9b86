#![warn(missing_docs)]
//! Incremental re-analysis: analysis sessions that re-converge a cached
//! fixed point after single-statement edits.
//!
//! A fresh analysis pays for parsing, normalization, graph construction,
//! site classification, flow-table derivation and the full solve of the
//! three column families behind the four canned instances — per request,
//! proportional to program size.
//! An interactive client editing one statement at a time invalidates
//! almost none of that work: the flow graph keeps its shape, and because
//! the framework's meet and flow functions act *componentwise* (one column
//! of the tuple lattice per tracked reference), the fixed-point column of
//! every reference whose generator and kill environment the edit did not
//! touch is still exact.
//!
//! [`Session`] exploits this. It retains the normalized IR, the loop flow
//! graph, the classified sites and the converged solutions of the four
//! canned instances, each with its per-column *convergence profile* (the
//! last pass in which each column changed). [`Session::apply`] lands the
//! edited assignment in the stored program in place (put back if the
//! apply fails or is stopped), builds the edited node's graph entry, sites
//! and spec rows and shares every other node, site and row with the
//! pre-edit state, determines the *dirtied columns* — those generated at
//! the edited node or tracking an array the old or new statement
//! references — and re-converges only those, per solved column family
//! ([`arrayflow_core::solve`] over a narrowed problem spec). The new
//! solution then shares every column
//! ([`arrayflow_core::Solution::splice`]) — re-solved ones from the
//! narrowed solve, clean ones from the cached fixed point, one block of
//! columns per array — and reaching definitions select theirs from
//! δ-available values, as in a fresh
//! [`LoopAnalysis`](arrayflow_analyses::LoopAnalysis). The merged
//! statistics are reconstructed from the profiles, so the result is
//! **byte-identical** to a from-scratch analysis of the edited program.
//! The session also keeps the report it answers with
//! ([`Session::report`], an
//! [`AnalysisReport`](arrayflow_analyses::AnalysisReport) shared by
//! `Arc`), distilled at open as a fresh analysis distills it. Every list
//! entry relates two sites of one array, so an edit patches the report
//! ([`AnalysisReport::patched`](arrayflow_analyses::AnalysisReport::patched)):
//! it drops the touched arrays' entries, renumbers the rest onto the new
//! site table, distills only the touched arrays and merges the lists back
//! in site order. And it keeps the loop's canonical walk recorded
//! ([`arrayflow_ir::Tape`]): an edit re-records the edited assignment
//! alone and replays the tape for the new fingerprint.
//! Edits that change loop structure (a conditional or nested loop
//! substituted in, a scalar assignment appearing or disappearing, an edit
//! inside a nested loop) fall back to a full re-analysis and record that
//! they did.
//!
//! [`SessionStore`] bounds session memory: capacity-based LRU eviction plus
//! a time-to-live, reporting every population change to an observer (the
//! engine's session metrics).

pub mod session;
pub mod store;

pub use session::{DeltaError, DeltaOutcome, Session};
pub use store::{SessionEvent, SessionStore, StoreConfig};
