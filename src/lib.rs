//! # arrayflow
//!
//! A facade over the `arrayflow` workspace: a practical data flow framework
//! for array reference analysis and the loop optimizations it enables, after
//! Duesterwald, Gupta and Soffa (PLDI 1993).
//!
//! The individual subsystems live in their own crates and are re-exported
//! here under stable module names:
//!
//! * [`ir`] — the loop intermediate representation, DSL parser, normalizer
//!   and reference interpreter;
//! * [`graph`] — loop flow graphs with summary nodes and reverse postorder;
//! * [`core`] — the distance lattice, (G, K)-parameterized flow functions
//!   and the three-pass fixed point solver (the paper's contribution);
//! * [`analyses`] — framework instances: must-reaching definitions,
//!   δ-available values, δ-busy stores, δ-reaching references, live ranges;
//! * [`opt`] — register pipelining, redundant load/store elimination and
//!   controlled loop unrolling;
//! * [`machine`] — a three-address virtual machine, code generator and cost
//!   simulator used to measure the optimizations;
//! * [`baselines`] — conventional dependence tests and the comparison
//!   analyses/optimizations the paper discusses;
//! * [`workloads`] — deterministic loop generators for tests and benches;
//! * [`engine`] — the concurrent, memoizing batch analysis engine
//!   (canonical loop fingerprints, sharded memo cache with second-chance
//!   eviction, worker pool);
//! * [`store`] — crash-safe disk persistence for analysis reports: an
//!   in-crate binary codec, a CRC-framed append-only segment log with
//!   skip-and-count recovery and compaction, and the async writer tier
//!   that slots under the engine's cache;
//! * [`service`] — the zero-dependency analysis server exposing the
//!   engine over TCP and stdio (newline-framed JSON protocol, bounded
//!   queue, structured errors, graceful shutdown, optional persistent
//!   store with warm start);
//! * [`obs`] — the in-crate observability layer shared by the layers
//!   above: metrics registry (counters, gauges, histograms, Prometheus
//!   text exposition) and per-request tracing spans;
//! * [`resilience`] — fault-tolerance primitives wired through the
//!   serving stack: deterministic seeded fault injection behind the
//!   `FaultSurface` trait, the store write-path circuit breaker, and
//!   the jittered backoff the resilient client retries with;
//! * [`cluster`] — the scale-out layer: a consistent-hash ring over the
//!   canonical fingerprint, the static cluster topology with designated
//!   replicas, the segment-log replicator behind `serve --replicate-to`,
//!   and cross-node Prometheus exposition merging (the router itself is
//!   `serve --router` in [`service`]).
//!
//! # Quickstart
//!
//! ```
//! use arrayflow::prelude::*;
//!
//! let program = parse_program(
//!     "do i = 1, 100
//!        A[i+2] := A[i] + x;
//!      end",
//! ).unwrap();
//! let analysis = analyze_loop(&program).unwrap();
//! let reuses = analysis.reuse_pairs();
//! assert_eq!(reuses.len(), 1);
//! assert_eq!(reuses[0].distance, 2);
//! ```

pub use arrayflow_analyses as analyses;
pub use arrayflow_baselines as baselines;
pub use arrayflow_cluster as cluster;
pub use arrayflow_core as core;
pub use arrayflow_engine as engine;
pub use arrayflow_graph as graph;
pub use arrayflow_incremental as incremental;
pub use arrayflow_ir as ir;
pub use arrayflow_machine as machine;
pub use arrayflow_obs as obs;
pub use arrayflow_opt as opt;
pub use arrayflow_resilience as resilience;
pub use arrayflow_service as service;
pub use arrayflow_store as store;
pub use arrayflow_wire as wire;
pub use arrayflow_workloads as workloads;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use arrayflow_analyses::{analyze_loop, LoopAnalysis};
    pub use arrayflow_cluster::{Ring, Topology};
    pub use arrayflow_core::{CustomSpec, Direction, Dist, Mode};
    pub use arrayflow_engine::{Engine, EngineConfig};
    pub use arrayflow_ir::{parse_program, Fingerprint, LoopBuilder, Program};
    pub use arrayflow_resilience::{CircuitBreaker, FaultPlan, FaultSurface};
    pub use arrayflow_service::{Client, ClientConfig, Service, ServiceConfig};
    pub use arrayflow_store::{Store, StoreConfig};

    pub use crate::{fingerprint, prepare};
}

/// Computes the canonical 128-bit fingerprint of a single-loop DSL
/// program — the exact cache identity the engine and service key reports
/// by, as little-endian bytes ready for the binary protocol's
/// fingerprint-first fast path
/// ([`Client::analyze_fingerprint`](arrayflow_service::Client::analyze_fingerprint)).
///
/// The same pipeline the cluster router shards by
/// ([`ir::fingerprint_source`]). Errors if the program does not parse or
/// does not consist of exactly one top-level loop.
///
/// ```
/// use arrayflow::prelude::*;
///
/// let fp = fingerprint("do i = 1, 100 A[i+2] := A[i] + x; end").unwrap();
/// // Alpha-equivalent loops share a fingerprint:
/// let fp2 = fingerprint("do j = 1, 100 B[j+2] := B[j] + y; end").unwrap();
/// assert_eq!(fp, fp2);
/// ```
pub fn fingerprint(source: &str) -> Result<[u8; 16], String> {
    let (fp, _flat) = ir::fingerprint_source(source)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "program must consist of exactly one top-level loop".to_string())?;
    Ok(fp.0.to_le_bytes())
}

/// The front-end preparation pipeline the paper assumes has already run
/// (§1): normalize every loop to `do i = 1, UB` step 1 and rewrite
/// non-basic induction variables into affine functions of the loop
/// induction variable. Returns how many loops were normalized and which
/// variables were removed.
///
/// ```
/// use arrayflow::prelude::*;
///
/// let mut p = parse_program(
///     "t := 0;
///      do i = 2, 200, 2
///        t := t + 1;
///        A[t + 1] := A[t] + 1;
///      end",
/// ).unwrap();
/// let (normalized, removed) = prepare(&mut p);
/// assert_eq!(normalized, 1);
/// assert_eq!(removed.len(), 1);
/// ```
pub fn prepare(program: &mut ir::Program) -> (usize, Vec<ir::VarId>) {
    let normalized = ir::normalize(program);
    let removed = ir::remove_induction_variables(program).removed;
    (normalized, removed)
}
