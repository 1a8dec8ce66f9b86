//! The batch engine: configuration, worker pool, per-query and global
//! statistics.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use arrayflow_analyses::{loops_innermost_first, AnalysisReport, ProblemSet};
use arrayflow_core::{CustomSpec, SolveStats, CANNED};
use arrayflow_incremental::{Session, SessionEvent, SessionStore, StoreConfig};
use arrayflow_ir::{fingerprint_loop, Edit, Fingerprint, Program};
use arrayflow_obs::{observed_span, Counter, Gauge, Histogram, Registry, PHASE_BUCKETS_US};
use arrayflow_resilience::{panic_message, FaultSurface};

use crate::cache::{CacheCounters, CacheKey, MemoCache, SecondTier};

/// Upper edges of the per-instance solver pass-count histograms
/// (`arrayflow_solver_passes{problem=...}`). The paper's bound — three
/// passes for must-problems (one initialization pass plus two changing
/// iteration passes), two for may-problems — sits inside the first three
/// buckets, so the bound is assertable from an exported snapshot alone:
/// `cumulative_le(3) == count` for must, `cumulative_le(2) == count` for
/// may.
pub const SOLVER_PASS_BUCKETS: [u64; 5] = [1, 2, 3, 4, 6];

/// Passes this instance needed to *reach* its fixed point: the
/// initialization pass (must-problems only) plus the iteration passes
/// that changed a value — the quantity the paper bounds by 3 (must) and
/// 2 (may). The confirming final pass of the general solver is excluded,
/// matching [`SolveStats::visits_to_fix`].
pub fn passes_to_fix(s: &SolveStats) -> u64 {
    (s.init_visits > 0) as u64 + s.changing_passes as u64
}

/// Engine construction parameters. `Default` is a sensible production
/// setup: one worker per hardware thread, 16 cache shards, 64k cached
/// reports.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::analyze_batch`]. `0` means one per
    /// available hardware thread.
    pub workers: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Total cached reports across shards; `0` disables eviction.
    pub cache_capacity: usize,
    /// Distance bound for dependence extraction (part of the cache key).
    pub dep_max_distance: u64,
    /// Maximum simultaneously open analysis sessions; opening one more
    /// evicts the least recently used.
    pub session_capacity: usize,
    /// Idle milliseconds after which an analysis session expires; `0`
    /// disables the TTL.
    pub session_ttl_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            cache_shards: 16,
            cache_capacity: 65_536,
            dep_max_distance: 8,
            session_capacity: 64,
            session_ttl_ms: 600_000,
        }
    }
}

impl EngineConfig {
    /// The worker count actually used (resolving `0`).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// What a query solves: a selection of the canned framework instances,
/// or one user-specified (G, K) problem. Part of every cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// The canned instances in the set.
    Canned(ProblemSet),
    /// A user-specified (G, K) problem.
    Custom(CustomSpec),
}

impl Problem {
    /// A custom spec that names one of the [`CANNED`] instances folds onto
    /// that instance's singleton selection, so an equivalent custom
    /// request shares the canned cache entry and produces a
    /// byte-identical report to the built-in selection.
    fn folded(self) -> Problem {
        match self {
            Problem::Custom(spec) => match CANNED.iter().position(|&(_, s)| s == spec) {
                Some(k) => Problem::Canned(ProblemSet::from_bits(1 << k).expect("a canned row")),
                None => self,
            },
            Problem::Canned(_) => self,
        }
    }

    /// The memo-cache key of one loop's report under this problem.
    fn key(self, fingerprint: Fingerprint, dep_max_distance: u64) -> CacheKey {
        let (problems, custom) = match self {
            Problem::Canned(problems) => (problems, None),
            Problem::Custom(spec) => (ProblemSet::NONE, Some(spec)),
        };
        CacheKey {
            fingerprint,
            problems,
            dep_max_distance,
            custom,
        }
    }
}

/// Why a program of a batch failed. The distinction matters to callers:
/// an [`AnalysisError::Analysis`] is the framework rejecting the input
/// (deterministic, retrying is pointless), an
/// [`AnalysisError::Internal`] is the engine failing on the input — a
/// panicking solver worker, a worker that died before reporting — which
/// the fault-tolerance layer contains to the one affected program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The analysis rejected the input (e.g. a non-affine subscript).
    Analysis(String),
    /// The engine failed while running the analysis; other programs of
    /// the batch are unaffected.
    Internal(String),
    /// The session a `delta` targeted no longer exists on the answering
    /// node — never opened there, evicted, TTL-expired, or lost to a
    /// mid-session failover. Retrying the delta is pointless; the client
    /// re-`open`s and replays its edits.
    SessionLost(String),
    /// The request's cooperative stop check fired mid-solve (client gone
    /// or deadline exhausted) and the engine yielded. `passes` is the
    /// solver iteration passes wasted before the stop was observed; no
    /// partial result was cached or memoized anywhere.
    Cancelled {
        /// Solver passes completed before the stop was observed.
        passes: u64,
    },
}

impl AnalysisError {
    /// The human-readable message, without the kind prefix.
    pub fn message(&self) -> &str {
        match self {
            AnalysisError::Analysis(m)
            | AnalysisError::Internal(m)
            | AnalysisError::SessionLost(m) => m,
            AnalysisError::Cancelled { .. } => "request cancelled before the solve completed",
        }
    }

    /// `true` for engine-side failures (panics, dead workers).
    pub fn is_internal(&self) -> bool {
        matches!(self, AnalysisError::Internal(_))
    }

    /// Solver passes wasted by a cancelled request, if this is a
    /// cancellation.
    pub fn wasted_passes(&self) -> Option<u64> {
        match self {
            AnalysisError::Cancelled { passes } => Some(*passes),
            _ => None,
        }
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Analysis(m) | AnalysisError::SessionLost(m) => f.write_str(m),
            AnalysisError::Internal(m) => write!(f, "internal: {m}"),
            AnalysisError::Cancelled { passes } => {
                write!(f, "cancelled after {passes} solver passes")
            }
        }
    }
}

/// One analyzed loop of a batch entry: its canonical fingerprint and the
/// (possibly shared) report.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Canonical fingerprint — the cache identity of this loop.
    pub fingerprint: Fingerprint,
    /// The analysis. `Arc`-shared with every other loop of the same
    /// fingerprint in the batch.
    pub report: Arc<AnalysisReport>,
}

/// Per-query effort counters. Solver figures are in round-robin-equivalent
/// terms, summed over the instances the fresh reports carry
/// ([`AnalysisReport::solver_passes`]) — not the column work the solver
/// did, which skips settled positions and shares selected columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Loops answered from the memo cache.
    pub cache_hits: u64,
    /// Loops that had to be solved.
    pub cache_misses: u64,
    /// Iteration passes of the reported instances (misses only), plus the
    /// passes a cancelled solve completed before it stopped.
    pub solver_passes: u64,
    /// Node visits of the reported instances (misses only).
    pub node_visits: u64,
    /// Wall-clock of this query, in microseconds.
    pub micros: u64,
}

/// The result of analyzing one program of a batch. Results come back in
/// input order regardless of worker scheduling.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Index of the program in the input slice.
    pub index: usize,
    /// One report per loop of the (normalized) program, innermost first —
    /// the same order as [`arrayflow_analyses::analyze_nest`].
    pub loops: Vec<LoopReport>,
    /// First analysis error encountered, if any (loops after the failing
    /// one are still attempted).
    pub error: Option<AnalysisError>,
    /// Effort counters for this program.
    pub stats: QueryStats,
}

impl BatchResult {
    /// An empty result carrying an [`AnalysisError::Internal`] — what a
    /// program gets when the worker analyzing it panicked or died.
    fn internal_failure(index: usize, message: String) -> BatchResult {
        BatchResult {
            index,
            loops: Vec::new(),
            error: Some(AnalysisError::Internal(message)),
            stats: QueryStats::default(),
        }
    }
}

/// Aggregate engine statistics since construction, copied from the
/// engine's registered instruments. The registry ([`Engine::registry`])
/// is where every count lives and is read; this copy stays because the
/// benchmark workloads read [`Engine::stats`]`().cache`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Programs analyzed.
    pub programs: u64,
    /// Loops encountered (cache hits + misses).
    pub loops: u64,
    /// Cache counters (hits, misses, evictions, inserts).
    pub cache: CacheCounters,
    /// Iteration passes of the reported instances, in the terms of
    /// [`QueryStats::solver_passes`].
    pub solver_passes: u64,
    /// Node visits of the reported instances, in the terms of
    /// [`QueryStats::node_visits`].
    pub node_visits: u64,
    /// Total busy wall-clock across workers, in microseconds.
    pub busy_micros: u64,
    /// Fingerprint-first lookups answered without any parse/normalize work.
    pub fingerprint_fast_hits: u64,
    /// Fingerprint-first lookups that missed both cache tiers.
    pub fingerprint_misses: u64,
}

/// The result of a delta re-analysis against an open session.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The session the edit was applied to.
    pub session: u64,
    /// Canonical fingerprint of the loop *after* the edit.
    pub fingerprint: Fingerprint,
    /// The full report for the edited loop — byte-identical to what a
    /// fresh [`Engine::analyze_one`] of the edited source would produce.
    pub report: Arc<AnalysisReport>,
    /// True when the edit forced a full re-analysis.
    pub fallback: bool,
    /// Dirty lattice columns across the four reported instances (0 on
    /// fallback); see [`arrayflow_incremental::DeltaOutcome`].
    pub dirty_columns: usize,
    /// Total lattice columns across the four reported instances.
    pub total_columns: usize,
}

/// A concurrent, memoizing batch analysis engine over the array data flow
/// framework.
///
/// The engine owns a sharded cache keyed by canonical loop fingerprint
/// (see [`arrayflow_ir::canon`]) and problem selection. A batch of
/// programs is fanned out across a `std::thread` worker pool; within each
/// program, loops are analyzed innermost first, so by the time an
/// enclosing loop (whose flow graph summarizes its inner loops) is
/// solved, the inner loops' reports are already cached for the next
/// structurally identical nest in the stream.
///
/// ```
/// use arrayflow_engine::{Engine, EngineConfig};
///
/// let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
/// let programs: Vec<_> = (0..4)
///     .map(|_| arrayflow_ir::parse_program(
///         "do i = 1, 100 A[i+2] := A[i] + x; end").unwrap())
///     .collect();
/// let results = engine.analyze_batch(&programs);
/// assert_eq!(results.len(), 4);
/// assert_eq!(results[0].loops[0].report.reuses.len(), 1);
/// // 4 structurally identical programs dedup onto one cache entry; at
/// // least 2 are hits (workers may race the very first solve).
/// let hits = engine.registry().snapshot().value("arrayflow_cache_hits_total", &[]);
/// assert!(hits >= Some(2));
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: MemoCache,
    registry: Registry,
    ins: EngineInstruments,
    faults: Option<Arc<dyn FaultSurface>>,
    sessions: SessionStore,
}

/// The engine's registered instruments: the effort and session counters,
/// the paper-facing pass-count distributions and the engine-side phase
/// timings.
#[derive(Debug, Clone)]
struct EngineInstruments {
    programs: Counter,
    loops: Counter,
    solver_passes: Counter,
    node_visits: Counter,
    busy_us: Counter,
    /// `arrayflow_solver_passes` per problem label: the [`CANNED`] names,
    /// then `custom`.
    passes: Vec<(&'static str, Histogram)>,
    phase_normalize: Histogram,
    phase_fingerprint: Histogram,
    phase_cache_get: Histogram,
    phase_solve: Histogram,
    phase_cache_insert: Histogram,
    worker_panics: Counter,
    fingerprint_fast_hits: Counter,
    fingerprint_misses: Counter,
    delta_requests: Counter,
    delta_applied: Counter,
    delta_fallbacks: Counter,
    sessions_open: Gauge,
    sessions_opened: Counter,
    sessions_evicted_capacity: Counter,
    sessions_expired_ttl: Counter,
}

impl EngineInstruments {
    fn registered(registry: &Registry) -> Self {
        let pass = |problem| {
            registry.histogram_with(
                "arrayflow_solver_passes",
                "solver passes to fixed point per cache-missed instance (paper bound: 3 must, 2 may)",
                &[("problem", problem)],
                &SOLVER_PASS_BUCKETS,
            )
        };
        let phase = |name| {
            registry.histogram_with(
                "arrayflow_phase_us",
                "per-phase wall-clock, microseconds",
                &[("phase", name)],
                &PHASE_BUCKETS_US,
            )
        };
        let evicted = |reason| {
            registry.counter_with(
                "arrayflow_sessions_evicted_total",
                "analysis sessions dropped by the session store, by reason",
                &[("reason", reason)],
            )
        };
        Self {
            programs: registry.counter("arrayflow_engine_programs_total", "programs analyzed"),
            loops: registry.counter(
                "arrayflow_engine_loops_total",
                "loops encountered (cache hits + misses)",
            ),
            solver_passes: registry.counter(
                "arrayflow_engine_solver_passes_total",
                "round-robin-equivalent iteration passes of the reported instances (misses only)",
            ),
            node_visits: registry.counter(
                "arrayflow_engine_node_visits_total",
                "round-robin-equivalent node visits of the reported instances (misses only)",
            ),
            busy_us: registry.counter(
                "arrayflow_engine_busy_us_total",
                "total busy wall-clock across workers, microseconds",
            ),
            passes: CANNED
                .iter()
                .map(|&(name, _)| name)
                .chain(["custom"])
                .map(|name| (name, pass(name)))
                .collect(),
            phase_normalize: phase("normalize"),
            phase_fingerprint: phase("fingerprint"),
            phase_cache_get: phase("cache_get"),
            phase_solve: phase("solve"),
            phase_cache_insert: phase("cache_insert"),
            worker_panics: registry.counter(
                "arrayflow_worker_panics_total",
                "solver panics caught and converted to per-program internal errors",
            ),
            fingerprint_fast_hits: registry.counter(
                "arrayflow_fingerprint_fast_hits_total",
                "fingerprint-first lookups answered from cache without any parse or normalize work",
            ),
            fingerprint_misses: registry.counter(
                "arrayflow_fingerprint_misses_total",
                "fingerprint-first lookups that missed both cache tiers",
            ),
            delta_requests: registry.counter(
                "arrayflow_delta_requests_total",
                "single-statement delta re-analyses requested against open sessions",
            ),
            delta_applied: registry.counter(
                "arrayflow_delta_applied_total",
                "single-statement deltas an open session applied",
            ),
            delta_fallbacks: registry.counter(
                "arrayflow_delta_fallbacks_total",
                "delta requests that fell back to a full re-analysis (structural edits)",
            ),
            sessions_open: registry.gauge(
                "arrayflow_sessions_open",
                "analysis sessions currently open",
            ),
            sessions_opened: registry.counter(
                "arrayflow_sessions_opened_total",
                "analysis sessions opened",
            ),
            sessions_evicted_capacity: evicted("capacity"),
            sessions_expired_ttl: evicted("ttl"),
        }
    }

    /// Mirrors one session-store change: called by the store under its
    /// own lock, so a scrape reads the series without taking it.
    fn session_event(&self, event: SessionEvent, open: usize) {
        self.sessions_open.set(open as u64);
        match event {
            SessionEvent::Opened => self.sessions_opened.inc(),
            SessionEvent::Evicted => self.sessions_evicted_capacity.inc(),
            SessionEvent::Expired(n) => self.sessions_expired_ttl.add(n),
            SessionEvent::Closed => {}
        }
    }

    /// Observes each instance `report` carries in its pass histogram.
    fn observe_passes(&self, report: &AnalysisReport) {
        for (problem, s) in report.instance_stats() {
            if let Some((_, h)) = self.passes.iter().find(|(name, _)| *name == problem) {
                h.observe(passes_to_fix(&s));
            }
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given configuration, registering its
    /// instruments on a fresh private [`Registry`] (reachable via
    /// [`Engine::registry`]).
    pub fn new(config: EngineConfig) -> Self {
        Self::with_registry(config, &Registry::new())
    }

    /// Creates an engine whose instruments (and those of its memo cache)
    /// are registered on `registry` — the service passes its own registry
    /// here so one `metrics` scrape covers every layer.
    pub fn with_registry(config: EngineConfig, registry: &Registry) -> Self {
        let cache = MemoCache::new_in(config.cache_shards, config.cache_capacity, registry);
        let ins = EngineInstruments::registered(registry);
        let sessions = SessionStore::new(StoreConfig {
            capacity: config.session_capacity,
            ttl: (config.session_ttl_ms > 0)
                .then(|| std::time::Duration::from_millis(config.session_ttl_ms)),
        })
        .observed({
            let ins = ins.clone();
            move |event, open| ins.session_event(event, open)
        });
        Self {
            config,
            cache,
            registry: registry.clone(),
            ins,
            faults: None,
            sessions,
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The metrics registry the engine's instruments live on.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Attaches a persistence tier under the memo cache: memory misses
    /// fall through to it (tier hits are promoted), fresh reports are
    /// forwarded to it. Call before sharing the engine.
    pub fn set_second_tier(&mut self, tier: Arc<dyn SecondTier>) {
        self.cache.set_second_tier(tier);
    }

    /// Installs a fault surface on the solver seams (injected panics and
    /// artificial solve latency). Intended for chaos drills and tests;
    /// with no surface installed the seams cost one `None` check. Call
    /// before sharing the engine.
    pub fn set_fault_surface(&mut self, faults: Arc<dyn FaultSurface>) {
        self.faults = Some(faults);
    }

    /// Warm-start: seeds the memory cache with an already-persistent
    /// report *without* forwarding it back to the second tier.
    pub fn preload(&self, key: CacheKey, report: Arc<AnalysisReport>) {
        self.cache.preload(key, report);
    }

    /// Analyzes one program for every canned instance, answering each
    /// loop from the cache when possible. A program already in normal
    /// form ([`arrayflow_ir::is_normal_form`]) is analyzed as it is;
    /// any other is normalized in a private copy. Uses the engine-wide
    /// distance bound from [`EngineConfig`].
    pub fn analyze_one(&self, index: usize, program: &Program) -> BatchResult {
        self.solve_in(
            index,
            Cow::Borrowed(program),
            Problem::Canned(ProblemSet::ALL),
            self.config.dep_max_distance,
            None,
        )
    }

    /// Analyzes one program under a per-query [`Problem`] and dependence
    /// distance bound — the one solve entry behind every verb. Both are
    /// part of the cache key, so queries with different selections or
    /// specs coexist in the memo cache and the persistent tier without
    /// interfering. A custom spec naming a canned instance is answered
    /// from (and populates) the canned entry, byte-identical to the
    /// built-in selection; every custom request, folded or answered from
    /// cache alike, counts in `arrayflow_custom_requests_total{spec=...}`.
    /// The program is taken by value and normalized in place, so a caller
    /// that has just parsed it pays for no copy.
    ///
    /// `should_stop` is polled between solver passes: when it fires the
    /// result carries [`AnalysisError::Cancelled`] with the wasted pass
    /// count. Loops completed *before* the stop are cached normally (they
    /// are complete solutions); the interrupted loop leaves no trace in
    /// any cache tier.
    ///
    /// The solve runs panic-isolated: a panicking solver (adversarial
    /// input, injected fault) is caught, counted in
    /// `arrayflow_worker_panics_total`, and returned as a per-program
    /// [`AnalysisError::Internal`] — it cannot take down the batch, the
    /// worker thread, or a serving request.
    pub fn solve(
        &self,
        index: usize,
        program: Program,
        problem: Problem,
        dep_max_distance: u64,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> BatchResult {
        let program = Cow::Owned(program);
        self.solve_in(index, program, problem, dep_max_distance, should_stop)
    }

    /// [`Engine::solve`] over a borrowed or an owned program.
    fn solve_in(
        &self,
        index: usize,
        program: Cow<'_, Program>,
        problem: Problem,
        dep_max_distance: u64,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> BatchResult {
        if let Problem::Custom(spec) = problem {
            self.registry
                .counter_with(
                    "arrayflow_custom_requests_total",
                    "custom (G, K) requests, cache hits and canned-equivalent specs included, by canonical spec label",
                    &[("spec", &spec.label())],
                )
                .inc();
        }
        let problem = problem.folded();
        // The closure borrows `self` immutably and owns `program`; the
        // caches it touches guard their state behind their own locks,
        // which a panic in the (lock-free) solve phase cannot poison.
        self.isolated("solver", || {
            self.solve_inner(index, program, problem, dep_max_distance, should_stop)
        })
        .unwrap_or_else(|message| BatchResult::internal_failure(index, message))
    }

    /// Runs `f`, converting a panic into a counted
    /// `"{what} panicked: ..."` message.
    fn isolated<T>(&self, what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            self.ins.worker_panics.inc();
            format!("{what} panicked: {}", panic_message(payload.as_ref()))
        })
    }

    fn solve_inner(
        &self,
        index: usize,
        p: Cow<'_, Program>,
        problem: Problem,
        dep_max_distance: u64,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> BatchResult {
        let start = Instant::now();
        let mut stats = QueryStats::default();
        let mut error: Option<AnalysisError> = None;

        // The framework requires `do i = 1, UB` step 1, and renumbered
        // statements make StmtIds in reports deterministic; normalizing
        // renumbers. A program already in that form is read as it is,
        // borrowed or not.
        let p = {
            let _span = observed_span("normalize", &self.ins.phase_normalize);
            match arrayflow_ir::is_normal_form(&p) {
                true => p,
                false => {
                    let mut p = p.into_owned();
                    arrayflow_ir::normalize(&mut p);
                    Cow::Owned(p)
                }
            }
        };

        let mut loops = Vec::new();
        for l in loops_innermost_first(&p) {
            let fingerprint = {
                let _span = observed_span("fingerprint", &self.ins.phase_fingerprint);
                fingerprint_loop(l, &p.symbols)
            };
            let key = problem.key(fingerprint, dep_max_distance);
            let hit = {
                let _span = observed_span("cache_get", &self.ins.phase_cache_get);
                self.cache.get(&key)
            };
            let report = if let Some(hit) = hit {
                stats.cache_hits += 1;
                hit
            } else {
                stats.cache_misses += 1;
                let solved = {
                    let _span = observed_span("solve", &self.ins.phase_solve);
                    if let Some(faults) = &self.faults {
                        if let Some(delay) = faults.solve_latency() {
                            std::thread::sleep(delay);
                        }
                        if faults.solver_panic() {
                            panic!("injected solver fault");
                        }
                    }
                    match problem {
                        Problem::Canned(problems) => AnalysisReport::of_loop_ctrl(
                            l,
                            &p.symbols,
                            fingerprint,
                            problems,
                            dep_max_distance,
                            should_stop,
                        ),
                        Problem::Custom(spec) => AnalysisReport::of_custom_ctrl(
                            l,
                            &p.symbols,
                            fingerprint,
                            spec,
                            dep_max_distance,
                            should_stop,
                        ),
                    }
                };
                match solved {
                    Ok(r) => {
                        stats.solver_passes += r.solver_passes() as u64;
                        stats.node_visits += r.node_visits() as u64;
                        self.ins.observe_passes(&r);
                        let r = Arc::new(r);
                        {
                            let _span = observed_span("cache_insert", &self.ins.phase_cache_insert);
                            self.cache.insert(key, Arc::clone(&r));
                        }
                        r
                    }
                    Err(arrayflow_analyses::AnalyzeError::Stopped { passes }) => {
                        // Wasted passes are real executed work — count them
                        // in the effort counters, but never in the pass
                        // histograms (those state the paper's bound over
                        // *completed* instances) and never in any cache.
                        stats.solver_passes += passes;
                        error.get_or_insert(AnalysisError::Cancelled { passes });
                        break;
                    }
                    Err(e) => {
                        error.get_or_insert_with(|| AnalysisError::Analysis(e.to_string()));
                        continue;
                    }
                }
            };
            loops.push(LoopReport {
                fingerprint,
                report,
            });
        }

        stats.micros = start.elapsed().as_micros() as u64;
        self.ins.programs.inc();
        self.ins.loops.add(stats.cache_hits + stats.cache_misses);
        self.ins.solver_passes.add(stats.solver_passes);
        self.ins.node_visits.add(stats.node_visits);
        self.ins.busy_us.add(stats.micros);

        BatchResult {
            index,
            loops,
            error,
            stats,
        }
    }

    /// The fingerprint-first fast path: probes the memo cache (and, on a
    /// memory miss, the persistent second tier, promoting a tier hit)
    /// for an already-analyzed loop under `problem` — **before any parse
    /// or normalize work exists to skip**. This is what makes
    /// lookup-dominated traffic cost close to a cache probe: a client that
    /// precomputed the canonical fingerprint of a loop it has seen before
    /// gets the stored report without the server ever touching the DSL
    /// text. A custom spec naming a canned instance probes the canned
    /// entry, so custom probes hit entries the built-in verb populated
    /// (and vice versa).
    ///
    /// A hit counts in `arrayflow_fingerprint_fast_hits_total`, a miss
    /// in `arrayflow_fingerprint_misses_total`; callers fall back to
    /// [`Engine::solve`] (when they also have source) on `None`.
    pub fn probe(
        &self,
        fingerprint: Fingerprint,
        problem: Problem,
        dep_max_distance: u64,
    ) -> Option<Arc<AnalysisReport>> {
        let key = problem.folded().key(fingerprint, dep_max_distance);
        let hit = {
            let _span = observed_span("cache_get", &self.ins.phase_cache_get);
            self.cache.get(&key)
        };
        match &hit {
            Some(_) => self.ins.fingerprint_fast_hits.inc(),
            None => self.ins.fingerprint_misses.inc(),
        }
        hit
    }

    /// Opens an interactive analysis session: fully analyzes the program
    /// once and retains the converged lattice state so subsequent
    /// [`Engine::analyze_delta`] calls can re-converge from it instead of
    /// starting over. Returns the session id and the session's report
    /// (also inserted into the memo cache under [`ProblemSet::ALL`]).
    ///
    /// Sessions require a single normalized loop — the shape the
    /// incremental solver is defined over; other programs get an
    /// [`AnalysisError::Analysis`].
    pub fn open_session(
        &self,
        program: &Program,
    ) -> Result<(u64, Arc<AnalysisReport>), AnalysisError> {
        self.open_session_ctrl(program.clone(), None)
    }

    /// [`Engine::open_session`] over an owned program, with a cooperative
    /// stop check (see [`Engine::solve`]): a cancelled open yields
    /// [`AnalysisError::Cancelled`] before any session, cache entry or
    /// memoization exists.
    pub fn open_session_ctrl(
        &self,
        program: Program,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> Result<(u64, Arc<AnalysisReport>), AnalysisError> {
        let bound = self.config.dep_max_distance;
        let session = Session::open_ctrl(program, bound, should_stop).map_err(|e| match e {
            arrayflow_analyses::AnalyzeError::Stopped { passes } => {
                AnalysisError::Cancelled { passes }
            }
            e => AnalysisError::Analysis(e.to_string()),
        })?;
        let report = Arc::clone(session.report());
        self.memoize_session_report(&report);
        let id = self.sessions.insert(session);
        Ok((id, report))
    }

    /// Applies one single-statement edit to an open session and
    /// re-converges, returning the session's new report, byte-identical to
    /// a fresh analysis of the edited source. Unknown, evicted or expired
    /// sessions are an [`AnalysisError::SessionLost`] — the client reopens
    /// and retries.
    ///
    /// Counts every request in `arrayflow_delta_requests_total`, applied
    /// deltas in `arrayflow_delta_applied_total` and full re-analysis
    /// fallbacks in `arrayflow_delta_fallbacks_total`; the
    /// per-instance pass histograms observe delta-path solves exactly as
    /// they do batch solves (the reconstructed statistics respect the
    /// paper's pass bounds, so the histogram invariants hold).
    pub fn analyze_delta(&self, session: u64, edit: &Edit) -> Result<DeltaReport, AnalysisError> {
        self.analyze_delta_ctrl(session, edit, None)
    }

    /// [`Engine::analyze_delta`] with a cooperative stop check (see
    /// [`Engine::solve`]): a cancelled delta yields
    /// [`AnalysisError::Cancelled`] and leaves the session byte-identical
    /// to its pre-edit state — nothing is memoized, no delta is recorded.
    pub fn analyze_delta_ctrl(
        &self,
        session: u64,
        edit: &Edit,
        should_stop: Option<arrayflow_core::StopCheck<'_>>,
    ) -> Result<DeltaReport, AnalysisError> {
        self.ins.delta_requests.inc();
        let applied = self
            .isolated("delta", || {
                self.sessions.with_session(session, |s| {
                    s.apply_ctrl(edit, should_stop)
                        .map(|outcome| (outcome, Arc::clone(s.report())))
                })
            })
            .map_err(AnalysisError::Internal)?;
        let Some(applied) = applied else {
            return Err(AnalysisError::SessionLost(format!(
                "unknown or expired session {session}"
            )));
        };
        let (outcome, report) = applied.map_err(|e| match e {
            arrayflow_incremental::DeltaError::Analyze(
                arrayflow_analyses::AnalyzeError::Stopped { passes },
            ) => AnalysisError::Cancelled { passes },
            e => AnalysisError::Analysis(e.to_string()),
        })?;
        self.ins.delta_applied.inc();
        if outcome.fallback {
            self.ins.delta_fallbacks.inc();
        }
        self.ins.observe_passes(&report);
        self.memoize_session_report(&report);
        Ok(DeltaReport {
            session,
            fingerprint: report.fingerprint,
            report,
            fallback: outcome.fallback,
            dirty_columns: outcome.dirty_columns,
            total_columns: outcome.total_columns,
        })
    }

    /// Closes a session, returning whether it was open.
    pub fn close_session(&self, session: u64) -> bool {
        self.sessions.remove(session)
    }

    /// Session-path reports are computed for [`ProblemSet::ALL`]; park
    /// them in the memo cache so batch queries for the same loop hit.
    fn memoize_session_report(&self, report: &Arc<AnalysisReport>) {
        let key = Problem::Canned(ProblemSet::ALL).key(report.fingerprint, report.dep_max_distance);
        let _span = observed_span("cache_insert", &self.ins.phase_cache_insert);
        self.cache.insert(key, Arc::clone(report));
    }

    /// Analyzes a batch of programs across the worker pool, returning
    /// results in input order.
    ///
    /// Scheduling is work-stealing over a shared index: each worker claims
    /// the next unanalyzed program. Reports are pure functions of loop
    /// structure, so results are byte-identical for every worker count —
    /// only throughput changes.
    pub fn analyze_batch(&self, programs: &[Program]) -> Vec<BatchResult> {
        let workers = self.config.effective_workers().min(programs.len().max(1));
        if workers <= 1 {
            return programs
                .iter()
                .enumerate()
                .map(|(i, p)| self.analyze_one(i, p))
                .collect();
        }

        // Results flow back over a channel rather than a shared
        // `Mutex<Vec<_>>`: a worker that dies mid-batch (however
        // `analyze_one`'s panic isolation is bypassed) can neither poison
        // the collector nor deadlock it — its claimed-but-unsent indices
        // simply stay empty and are filled in with per-program internal
        // errors below, so every other program still gets its result.
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<BatchResult>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= programs.len() {
                        break;
                    }
                    let _ = tx.send(self.analyze_one(i, &programs[i]));
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<BatchResult>> = (0..programs.len()).map(|_| None).collect();
        for r in rx {
            let i = r.index;
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    BatchResult::internal_failure(
                        i,
                        "worker died before returning a result".to_string(),
                    )
                })
            })
            .collect()
    }

    /// Aggregate statistics since construction (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            programs: self.ins.programs.get(),
            loops: self.ins.loops.get(),
            cache: self.cache.counters(),
            solver_passes: self.ins.solver_passes.get(),
            node_visits: self.ins.node_visits.get(),
            busy_micros: self.ins.busy_us.get(),
            fingerprint_fast_hits: self.ins.fingerprint_fast_hits.get(),
            fingerprint_misses: self.ins.fingerprint_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use arrayflow_ir::{parse_program, StmtId};

    use super::*;

    /// The report an open or a delta returns is the session's own
    /// allocation and the memo cache's entry: the engine hands out the
    /// report the session keeps and copies none. Two fast-path edits and a
    /// fallback.
    #[test]
    fn session_reports_are_the_sessions_own() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..Default::default()
        });
        let p = parse_program("do i = 1, 100 A[i+1] := A[i]; B[i] := A[i] + 1; end").unwrap();
        let (id, opened) = engine.open_session(&p).unwrap();
        let kept = || {
            let kept = engine.sessions.with_session(id, |s| Arc::clone(s.report()));
            kept.expect("the session is open")
        };
        let memoized = |r: &AnalysisReport| {
            let all = Problem::Canned(ProblemSet::ALL);
            let hit = engine.probe(r.fingerprint, all, r.dep_max_distance);
            hit.expect("the report is memoized")
        };
        assert!(Arc::ptr_eq(&opened, &kept()));
        assert!(Arc::ptr_eq(&opened, &memoized(&opened)));
        let edits = [
            (1, "B[i] := A[i-1] + 2;"),
            (0, "A[i+2] := A[i];"),
            (1, "if A[i] > 0 then B[i] := 1; end"),
        ];
        for (k, (stmt, text)) in edits.into_iter().enumerate() {
            let edit = Edit {
                stmt: StmtId(stmt),
                text: text.to_string(),
            };
            let delta = engine.analyze_delta(id, &edit).unwrap();
            assert_eq!(delta.fallback, k == 2, "{text}");
            assert!(Arc::ptr_eq(&delta.report, &kept()), "{text}");
            assert!(
                Arc::ptr_eq(&delta.report, &memoized(&delta.report)),
                "{text}"
            );
        }
    }
}
