#![warn(missing_docs)]
//! Framework instances for array reference analysis.
//!
//! This crate instantiates the `arrayflow-core` data flow framework with the
//! (G, K) parameter pairs the paper develops, and interprets the fixed
//! points back in source terms:
//!
//! | Instance | G | K | Direction | Mode | Used for |
//! |---|---|---|---|---|---|
//! | must-reaching definitions | defs | defs | forward | must | guaranteed value reuse (§3.5) |
//! | δ-available values | defs ∪ uses | defs | forward | must | live ranges, register pipelining, load elimination (§4.1, §4.2.2) |
//! | δ-busy stores | defs | uses | backward | must | redundant store elimination (§4.2.1) |
//! | δ-reaching references | defs ∪ uses | defs | forward | may | dependence distances, controlled unrolling (§4.3) |
//!
//! The rows are [`arrayflow_core::CANNED`]'s. A column depends only on its
//! generator and on (K, direction, mode), so must-reaching definitions are
//! the definition columns of δ-available values: [`LoopAnalysis`] solves
//! three column families and selects the fourth ([`Instance::select`]).
//!
//! Entry points: [`analyze_loop`] for single loops, [`analyze_nest`] for
//! loop nests (hierarchical, innermost first — §3.2), or [`Instance::run`]
//! for custom (G, K) combinations over a [`prepare_loop`]d loop.
//!
//! The optimizations read three lists off the solved instances: reuse
//! pairs ([`reuse_pairs`], §4.1.1), redundant stores
//! ([`redundant_stores`], §4.2.1) and dependences ([`dependences`],
//! §4.3), all one pair walk over the site table. [`AnalysisReport`]
//! carries them with the solver counters as the cacheable, name-free
//! answer for one loop; its module, [`report`], is the one place an
//! analysis becomes that report, whether distilled fresh or patched after
//! an edit.

pub mod driver;
pub mod instances;
pub mod nestvec;
pub mod report;
pub mod scalars;
pub mod sites;
pub mod spec;

pub use driver::{
    analyze_loop, analyze_nest, loops_innermost_first, prepare_loop, AnalyzeError, LoopAnalysis,
};
pub use instances::{
    best_reuse, dependences, redundant_stores, reuse_pairs, Dep, DepKind, Instance, RedundantStore,
    Reuse,
};
pub use nestvec::{nest_distance_vectors, nest_sites, NestDep, NestError, NestSite};
pub use report::{AnalysisReport, CustomResult, CustomValue, ProblemSet};
pub use scalars::{scalar_live_ranges, scalar_liveness, ScalarLiveness, ScalarRange};
pub use sites::{constant_distance, enumerate_sites, Linearizer, Site};
pub use spec::{build_spec, BuiltSpec, GK};
