#![warn(missing_docs)]
//! Concurrent, memoizing batch analysis engine.
//!
//! The framework's per-loop cost is deliberately tiny — must-problems
//! converge in three passes, may-problems in two — which makes one loop
//! analysis the ideal unit of work for a high-throughput service. This
//! crate supplies the orchestration layer that turns the one-loop-at-a-time
//! driver of `arrayflow-analyses` into a batch engine:
//!
//! * **canonical fingerprints** ([`arrayflow_ir::canon`]) identify
//!   alpha-equivalent loops, so the thousands of structurally identical
//!   loops a compiler or autotuner emits are analyzed once;
//! * a **sharded memo cache** ([`MemoCache`]) keyed by
//!   `(fingerprint, problem selection)` stores completed
//!   [`AnalysisReport`]s behind per-shard `RwLock`s with hit/miss/eviction
//!   counters;
//! * a **worker pool** ([`Engine::analyze_batch`]) fans a `Vec<Program>`
//!   out across `std::thread` workers; within each program, loops are
//!   analyzed innermost first so summary-level results are cached before
//!   enclosing loops (and later duplicates) need them;
//! * per-query [`QueryStats`] carry cache hits, solver passes, node
//!   visits and wall-clock; engine-wide counts live on the
//!   [registry](Engine::registry), where a scrape reads them too.
//!
//! Reports are *alpha-invariant* — every fact is in terms of site indices
//! and iteration distances, never names — which is precisely why one cached
//! report can serve every loop with the same fingerprint, and why results
//! are byte-identical for every worker count.
//!
//! ```
//! use arrayflow_engine::{Engine, EngineConfig};
//! use arrayflow_ir::parse_program;
//!
//! // One worker: two could both miss while racing on the first solve.
//! let engine = Engine::new(EngineConfig { workers: 1, ..Default::default() });
//! let batch: Vec<_> = ["i", "j"] // alpha-equivalent: one solve, one hit
//!     .iter()
//!     .map(|iv| parse_program(&format!(
//!         "do {iv} = 1, 50 A[{iv}+1] := A[{iv}] + 1; end")).unwrap())
//!     .collect();
//! let results = engine.analyze_batch(&batch);
//! assert_eq!(results[0].loops[0].fingerprint, results[1].loops[0].fingerprint);
//! let hits = engine.registry().snapshot().value("arrayflow_cache_hits_total", &[]);
//! assert_eq!(hits, Some(1));
//! ```

pub mod cache;
pub mod engine;
pub mod report;

pub use arrayflow_core::{CustomSpec, Direction, Mode, StopCheck, CANNED};
pub use cache::{
    fingerprint_route_hash, CacheCounters, CacheKey, EvictionPolicy, MemoCache, SecondTier,
};
pub use engine::{
    passes_to_fix, AnalysisError, BatchResult, DeltaReport, Engine, EngineConfig, EngineStats,
    LoopReport, Problem, QueryStats, SOLVER_PASS_BUCKETS,
};
pub use report::{AnalysisReport, CustomResult, CustomValue, InstanceStats, ProblemSet};
