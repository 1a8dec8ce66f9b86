//! The service core: a shared [`Engine`] behind a bounded request queue
//! and a worker pool, with per-request deadlines, a structured error
//! taxonomy, service-level counters and graceful drain-on-shutdown.
//!
//! Requests have one model, [`arrayflow_wire::proto::Request`]. Each
//! protocol is an edge codec onto it — [`crate::proto`] for newline
//! JSON, [`crate::binproto`] for `AFWIRE01` frames — so every verb is
//! validated, probed and queued once, by one dispatch. Cheap
//! verbs (`ping`, `metrics`, `shutdown`, …) and fingerprint cache hits are
//! answered inline on the transport thread; solver verbs go through the
//! queue so a flood of expensive requests degrades into explicit
//! `overloaded` errors instead of unbounded memory growth or latency
//! collapse. Every transport hands the frame and a completion to the one
//! answer entry ([`FrameHandler::answer`]) and nobody waits on a worker
//! but the caller itself, so the worker's dequeue shed and between-pass
//! stop check are the only deadline: an expired request answers
//! `cancelled` on every transport.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arrayflow_cluster::{Replicator, ReplicatorConfig};
use arrayflow_engine::{
    AnalysisError, AnalysisReport, BatchResult, CustomSpec, DeltaReport, Engine, EngineConfig,
    LoopReport, Problem, ProblemSet, QueryStats,
};
use arrayflow_ir::{parse_program_bytes, Edit, Fingerprint, StmtId};
use arrayflow_obs::{
    observed_span, with_current, Counter, Gauge, Histogram, Registry, Trace, PHASE_BUCKETS_US,
};
use arrayflow_resilience::{panic_message, CancelToken, FaultSurface};
use arrayflow_store::{PersistentTier, Store, StoreConfig};
use arrayflow_wire::proto::Request;

use crate::json::Json;
use crate::pool::Pool;
use crate::proto::{ErrorKind, ServiceError};
use crate::server::{wait_for, Edge, Frame, FrameHandler, Respond};

/// Upper edges of the request latency histogram, in microseconds; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Upper edges of the wasted-work histogram: solver passes a job had
/// completed when it was cancelled or expired. Mirrors the engine's
/// per-instance pass buckets — the paper's bound says completed work
/// clusters at 2–3 passes, so wasted work beyond a pass or two means the
/// cooperative stop checks are not being polled often enough.
pub const WASTED_PASS_BUCKETS: [u64; 5] = [1, 2, 3, 4, 6];

/// Service construction parameters. `Default` is a reasonable single-host
/// setup: engine defaults, one service worker per hardware thread, a
/// 256-request queue, 5 s deadline, 1 MiB frames.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the shared analysis engine.
    pub engine: EngineConfig,
    /// Worker threads executing `analyze` requests. `0` means one per
    /// available hardware thread.
    pub workers: usize,
    /// Bound on queued-but-unstarted `analyze` requests; submissions
    /// beyond it are rejected with an `overloaded` error.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from the moment the frame is
    /// accepted. Requests that spend longer than this queued (or whose
    /// analysis overruns it) are shed with a `cancelled` error.
    pub request_timeout: Duration,
    /// Maximum accepted frame (request line) size in bytes; longer lines
    /// are discarded and answered with a `protocol` error.
    pub max_frame_bytes: usize,
    /// When set, reports persist to this disk store: the cache is
    /// warm-started from it on boot, misses fall through to it, and fresh
    /// results are appended asynchronously.
    pub store: Option<StoreConfig>,
    /// When set, every request whose end-to-end latency reaches this many
    /// microseconds emits one structured line on stderr with the trace id
    /// and per-phase span breakdown. `0` logs every request.
    pub slow_log_micros: Option<u64>,
    /// When set, the fault surface is installed at every injection seam
    /// (solver panics/latency in the engine, store append I/O, worker
    /// exits) for chaos drills — see `serve --fault-plan`. `None` (the
    /// default, and the only sane production setting) leaves every seam a
    /// single branch.
    pub faults: Option<Arc<dyn FaultSurface>>,
    /// Stable node identity in a cluster (`serve --node-id`). Stamped as
    /// a `node` label on every Prometheus series and echoed by the
    /// `health` verb, so multi-node scrapes and router probes stay
    /// distinguishable.
    pub node_id: Option<String>,
    /// Replica address (`serve --replicate-to`). Requires a store: every
    /// record reaching the local segment log is also shipped to this
    /// address as `replicate` wire frames, keeping the replica warm for
    /// failover.
    pub replicate_to: Option<String>,
    /// Ship interval for the replicator's incremental batches (a flush
    /// barrier ships sooner).
    pub replicate_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            workers: 0,
            queue_capacity: 256,
            request_timeout: Duration::from_secs(5),
            max_frame_bytes: 1 << 20,
            store: None,
            slow_log_micros: None,
            faults: None,
            node_id: None,
            replicate_to: None,
            replicate_interval: Duration::from_millis(250),
        }
    }
}

impl ServiceConfig {
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

/// What a request produced, before an edge encodes it: the JSON codec
/// ([`crate::proto`]) and the binary codec ([`crate::binproto`]) render
/// the same answer into their own shapes.
pub(crate) enum Answer {
    /// A bare string result: `pong`, `shutting down`.
    Text(&'static str),
    /// A structured result (`health`, `compact`, `replicate`): the JSON
    /// edge embeds the object, the binary edge ships its text.
    Object(Json),
    /// The `metrics` scrape, a Prometheus text exposition: the JSON edge
    /// answers `{"prometheus": …}`, the binary edge ships the bare text.
    Metrics(String),
    /// The per-loop reports of an `analyze` or `custom`.
    Loops(BatchResult),
    /// The new session id and initial report of an `open`.
    Session(u64, Arc<AnalysisReport>),
    /// The re-analysis of a `delta`.
    Delta(DeltaReport),
}

/// How an answer reaches its transport: a boxed one-shot closure that
/// counts and encodes the outcome and hands the bytes to the frame's
/// [`Respond`], invoked exactly once — inline, by the queue's rejection,
/// or by a worker.
type Reply = Box<dyn FnOnce(Result<Answer, ServiceError>) + Send>;

/// The solver task a queued job carries. Everything that runs a solver —
/// analyses, session opens (a full analysis that also retains state), and
/// delta re-convergences — goes through the bounded queue so a flood
/// degrades into explicit `overloaded` errors.
enum Task {
    /// `analyze` or `custom`: parse the source, solve `problem` per loop.
    Solve {
        source: String,
        problem: Problem,
        distance_bound: u64,
    },
    /// `open`: full analysis plus session retention.
    Open { source: String },
    /// `delta`: one statement replacement against an open session.
    Delta { session: u64, edit: Edit },
}

/// How [`Service::step`] disposes of a request.
enum Step {
    /// Answered on the calling thread.
    Done(Answer),
    /// Solver work for the queue.
    Queue(Task),
}

struct Job {
    task: Task,
    /// When the frame was accepted by the answer entry — the deadline base.
    accepted: Instant,
    deadline: Duration,
    /// Cooperative cancellation: set by the event loop when it reaps the
    /// request's connection. Workers check it at dequeue, and the solver
    /// polls it between iteration passes, so a dead request costs at most
    /// one pass.
    cancel: CancelToken,
    /// The request's trace, carried across the queue so worker-side spans
    /// (parse, solve, tier I/O) land on the same per-request record.
    trace: Arc<Trace>,
}

/// A long-lived analysis service: shared engine, work pool and counters.
/// Construct with [`Service::start`]; share via `Arc`.
pub struct Service {
    config: ServiceConfig,
    engine: Engine,
    registry: Registry,
    tier: Option<Arc<PersistentTier>>,
    replicator: Option<Arc<Replicator>>,
    pool: Arc<Pool>,
    next_trace_id: AtomicU64,
    ins: ServiceInstruments,
}

/// The service's registered instruments: request/response counters by
/// outcome, the latency and queue-wait histograms, and the
/// transport-side phase timings.
#[derive(Debug, Clone)]
struct ServiceInstruments {
    connections: Counter,
    requests: Counter,
    ok: Counter,
    parse_errors: Counter,
    analysis_errors: Counter,
    overloaded: Counter,
    protocol_errors: Counter,
    session_lost: Counter,
    cancelled: Counter,
    cancelled_disconnect: Counter,
    cancelled_expired: Counter,
    deadline_propagated: Counter,
    idle_disconnects: Counter,
    oversized_frames: Counter,
    worker_restarts: Counter,
    queue_depth_hwm: Gauge,
    latency: Histogram,
    queue_wait: Histogram,
    wasted_passes: Histogram,
    phase_decode: Histogram,
    phase_parse: Histogram,
    phase_encode: Histogram,
}

impl ServiceInstruments {
    fn registered(registry: &Registry) -> Self {
        let outcome = |name| {
            registry.counter_with(
                "arrayflow_responses_total",
                "responses sent, by outcome",
                &[("outcome", name)],
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
        Self {
            connections: registry.counter(
                "arrayflow_connections_total",
                "transport connections accepted (stdio counts as one)",
            ),
            requests: registry.counter(
                "arrayflow_requests_total",
                "frames that produced a timed response",
            ),
            ok: outcome("ok"),
            parse_errors: outcome("parse"),
            analysis_errors: outcome("analysis"),
            overloaded: outcome("overloaded"),
            protocol_errors: outcome("protocol"),
            session_lost: outcome("session_lost"),
            cancelled: outcome("cancelled"),
            cancelled_disconnect: registry.counter_with(
                "arrayflow_cancelled_jobs_total",
                "jobs abandoned before completion, by reason",
                &[("reason", "disconnect")],
            ),
            cancelled_expired: registry.counter_with(
                "arrayflow_cancelled_jobs_total",
                "jobs abandoned before completion, by reason",
                &[("reason", "expired")],
            ),
            deadline_propagated: registry.counter(
                "arrayflow_deadline_propagated_total",
                "requests that arrived carrying a client deadline budget",
            ),
            idle_disconnects: registry.counter(
                "arrayflow_idle_disconnects_total",
                "connections closed by the idle sweep (slow-loris peers included)",
            ),
            oversized_frames: registry.counter(
                "arrayflow_oversized_frames_total",
                "frames discarded for exceeding the size cap (excluded from request latency)",
            ),
            worker_restarts: registry.counter(
                "arrayflow_worker_restarts_total",
                "dead worker threads replaced by their drop guards",
            ),
            queue_depth_hwm: registry.gauge(
                "arrayflow_queue_depth_hwm",
                "high-water mark of the analyze queue depth",
            ),
            latency: registry.histogram(
                "arrayflow_request_latency_us",
                "end-to-end request latency (decode through response encode), microseconds",
                &LATENCY_BUCKETS_US,
            ),
            queue_wait: registry.histogram(
                "arrayflow_queue_wait_us",
                "time analyze jobs spent queued before a worker picked them up, microseconds",
                &LATENCY_BUCKETS_US,
            ),
            wasted_passes: registry.histogram(
                "arrayflow_wasted_passes",
                "solver passes completed by a job before it was cancelled or expired",
                &WASTED_PASS_BUCKETS,
            ),
            phase_decode: phase("decode"),
            phase_parse: phase("parse"),
            phase_encode: phase("encode"),
        }
    }
}

/// The node's side of every transport: the frame is decoded under its
/// trace, then takes the one dispatch. Cheap verbs, validation errors and
/// fingerprint cache hits answer inline (`respond` runs before the call
/// returns); solver verbs go through the bounded queue with `respond`
/// called from a worker. The connection's [`CancelToken`] rides along, so
/// a teardown cancels everything it still has queued or in flight.
///
/// Each frame gets a trace with per-phase spans; when
/// [`ServiceConfig::slow_log_micros`] is set, requests over the threshold
/// log the span breakdown to stderr. The deadline is enforced by the
/// worker when it picks the job up (and mid-solve): an expired job
/// answers `cancelled`.
impl FrameHandler for Service {
    fn answer(self: &Arc<Self>, frame: Frame<'_>, cancel: CancelToken, respond: Respond) {
        let accepted = Instant::now();
        let trace = self.begin_trace();
        let (edge, decoded) = with_current(&trace, || {
            let _span = observed_span("decode", &self.ins.phase_decode);
            Edge::decode(frame)
        });
        let svc = Arc::clone(self);
        let done = Arc::clone(&trace);
        let reply: Reply =
            Box::new(move |outcome| respond(svc.finish(&done, accepted, &edge, outcome)));
        match decoded {
            Ok((req, budget_ms)) => self.dispatch(req, budget_ms, cancel, &trace, accepted, reply),
            Err(e) => reply(Err(e)),
        }
    }

    fn max_frame_bytes(&self) -> usize {
        self.config.max_frame_bytes
    }

    /// Counts the discarded frame. The transports never materialize such a
    /// frame, so it is the one frame that skips the answer entry: it gets
    /// its own counter and deliberately stays out of `requests` and the
    /// latency histogram (no work was timed, so a zero observation would
    /// only skew the distribution).
    fn oversized(&self) {
        self.ins.oversized_frames.inc();
    }

    fn is_shutdown(&self) -> bool {
        Service::is_shutdown(self)
    }

    fn drain(&self) {
        self.join_workers();
    }

    fn connected(&self) {
        self.ins.connections.inc();
    }

    fn reaped(&self) {
        self.ins.idle_disconnects.inc();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Builds the service and starts its worker pool. When a store is
    /// configured this opens (and crash-recovers) it, wires it under the
    /// engine's cache as the second tier, and warm-starts the cache from
    /// every live record on disk. A store or pool that cannot start is an
    /// error, never a panic — the `serve` binary turns it into a
    /// structured one-line diagnostic and a nonzero exit.
    pub fn start(config: ServiceConfig) -> io::Result<Arc<Service>> {
        let registry = Registry::new();
        let mut engine = Engine::with_registry(config.engine.clone(), &registry);
        if let Some(faults) = &config.faults {
            engine.set_fault_surface(Arc::clone(faults));
        }
        let mut tier = None;
        let mut replicator = None;
        if let Some(store_config) = &config.store {
            let queue_bound = store_config.writer_queue;
            let store = Store::open_in(store_config.clone(), &registry)
                .map_err(|e| io::Error::new(e.kind(), format!("cannot open report store: {e}")))?;
            let store = Arc::new(store);
            if let Some(faults) = &config.faults {
                store.set_fault_surface(Arc::clone(faults));
            }
            let t = PersistentTier::new_in(Arc::clone(&store), queue_bound, &registry);
            engine.set_second_tier(t.clone());
            let warm_loaded = store.for_each_live(|key, report| {
                engine.preload(key, Arc::new(report));
            });
            registry
                .gauge(
                    "arrayflow_store_warm_loaded",
                    "reports the memo cache was warm-started with from the store at boot",
                )
                .set(warm_loaded);
            if let Some(replica_addr) = &config.replicate_to {
                // Tee the writer thread to the designated replica. The
                // replicator full-syncs on every connect, so a replica
                // that comes up late still converges.
                let mut rconfig = ReplicatorConfig::to(replica_addr.clone());
                rconfig.interval = config.replicate_interval;
                let r = Replicator::start(Arc::clone(&store), rconfig, &registry);
                t.set_replication_sink(r.clone());
                replicator = Some(r);
            }
            tier = Some(t);
        } else if config.replicate_to.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--replicate-to requires a store (--store DIR)",
            ));
        }
        let ins = ServiceInstruments::registered(&registry);
        let pool = Pool::start(
            "service",
            config.effective_workers(),
            config.queue_capacity,
            config.faults.clone(),
            ins.worker_restarts.clone(),
        )
        .map_err(|e| io::Error::new(e.kind(), format!("cannot start the worker pool: {e}")))?;
        Ok(Arc::new(Service {
            engine,
            registry,
            tier,
            replicator,
            pool,
            next_trace_id: AtomicU64::new(1),
            ins,
            config,
        }))
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared engine (e.g. for a direct in-process baseline).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The metrics registry shared by the service, engine, cache, store
    /// and tier — everything one `metrics` scrape covers.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The persistent tier, when a store is configured.
    pub fn tier(&self) -> Option<&Arc<PersistentTier>> {
        self.tier.as_ref()
    }

    /// This node's cluster identity (`--node-id`), when set.
    pub fn node_id(&self) -> Option<&str> {
        self.config.node_id.as_deref()
    }

    /// The store replicator, when `--replicate-to` is configured.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.replicator.as_ref()
    }

    /// The `health` verb payload: node identity plus liveness facts the
    /// router's failover probes key on. Answered inline on the transport
    /// thread — a wedged worker pool must not make a healthy node look
    /// dead, and an unhealthy queue shows up in `queued` anyway.
    fn health_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            (
                "node".into(),
                match &self.config.node_id {
                    Some(id) => Json::Str(id.clone()),
                    None => Json::Null,
                },
            ),
            ("shutting_down".into(), Json::Bool(self.is_shutdown())),
        ])
    }

    /// Applies a replication batch to the local store — the replica-side
    /// half of the `replicate` verb. The memo cache warms through the
    /// tier on the first fingerprint probe of each key, so a failover
    /// request reads warm bytes from disk even before memory fills.
    /// Errors are protocol-kind (a corrupt batch) or analysis-kind
    /// (local I/O).
    fn apply_replica_batch(&self, batch: &[u8]) -> Result<Json, ServiceError> {
        let Some(tier) = &self.tier else {
            return Err(ServiceError::new(
                ErrorKind::Protocol,
                "no store configured (start with --store DIR)",
            ));
        };
        let store = tier.store_handle();
        let before = store.len() as u64;
        let applied = store.import_frames(batch).map_err(|e| {
            if e.kind() == io::ErrorKind::InvalidData {
                ServiceError::new(ErrorKind::Protocol, format!("bad replication batch: {e}"))
            } else {
                ServiceError::new(
                    ErrorKind::Analysis,
                    format!("replication append failed: {e}"),
                )
            }
        })?;
        self.registry
            .counter(
                "arrayflow_replica_applied_records_total",
                "replication records applied to the local store",
            )
            .add(applied);
        Ok(Json::Obj(vec![
            ("applied".into(), Json::Num(applied as f64)),
            ("live_before".into(), Json::Num(before as f64)),
            ("live_after".into(), Json::Num(store.len() as f64)),
        ]))
    }

    /// True once shutdown has been requested. Transports stop reading new
    /// frames when they observe this.
    pub fn is_shutdown(&self) -> bool {
        self.pool.is_shutdown()
    }

    /// Requests graceful shutdown: no new `analyze` submissions are
    /// accepted, workers drain what is already queued, transports close
    /// after their current frame.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Joins the worker pool. Call after [`Service::shutdown`]; returns
    /// once every queued request has been answered, all workers exited,
    /// and (with a store) every queued append has reached disk.
    pub fn join_workers(&self) {
        self.pool.join();
        if let Some(tier) = &self.tier {
            tier.flush();
        }
        if let Some(replicator) = &self.replicator {
            // The flush barrier above forwarded everything to the
            // replicator; let it ship what it holds, then stop.
            replicator.shutdown();
        }
    }

    /// Answers one frame in process through the one answer entry, as a
    /// connection's frames are answered, and returns the answer's bytes: a
    /// JSON line without its newline, or a whole response frame. Blocks
    /// until the answer is ready. Never panics and never drops a request
    /// silently — hostile bytes come back as structured `protocol` errors,
    /// and a request whose deadline passes answers `cancelled`.
    pub fn handle_frame(self: &Arc<Self>, frame: Frame<'_>) -> Vec<u8> {
        wait_for(|respond| self.answer(frame, CancelToken::new(), respond))
    }

    /// Counts one answered request — its outcome, and unless it was
    /// cancelled its latency (encoding included) and the slow-request log
    /// — then returns the answer `edge` encoded. Shared by every transport,
    /// so both protocols feed the same instruments.
    fn finish(
        &self,
        trace: &Arc<Trace>,
        accepted: Instant,
        edge: &Edge,
        outcome: Result<Answer, ServiceError>,
    ) -> Vec<u8> {
        let (outcome_name, cancelled) = match &outcome {
            Ok(_) => {
                self.ins.ok.inc();
                ("ok", false)
            }
            Err(e) => {
                self.counter_for(e.kind).inc();
                (e.kind.as_str(), e.kind == ErrorKind::Cancelled)
            }
        };
        // The reply may run after the worker uninstalled the trace, so
        // the encode span is recorded on the request's trace here.
        let encoded = with_current(trace, || {
            let _span = observed_span("encode", &self.ins.phase_encode);
            edge.encode(outcome)
        });
        // Cancelled work answered nobody in time: like oversized frames it
        // keeps its own counters and stays out of `requests` and the
        // latency histogram, where a flood of dead requests would otherwise
        // masquerade as a latency regression.
        if !cancelled {
            self.ins.requests.inc();
            let elapsed_us = accepted.elapsed().as_micros() as u64;
            self.ins.latency.observe(elapsed_us);
            if let Some(threshold) = self.config.slow_log_micros {
                if elapsed_us >= threshold {
                    eprintln!(
                        "serve: slow-request trace={} outcome={} total_us={} {}",
                        trace.id(),
                        outcome_name,
                        elapsed_us,
                        trace.breakdown()
                    );
                }
            }
        }
        encoded
    }

    /// Resolves a request's effective deadline: `min(client budget, the
    /// server's own cap)`. A client can only tighten the deadline, never
    /// extend it; requests carrying a budget are counted so operators can
    /// see propagation working end to end.
    fn effective_deadline(&self, client_ms: Option<u64>) -> Duration {
        match client_ms {
            Some(ms) => {
                self.ins.deadline_propagated.inc();
                self.config.request_timeout.min(Duration::from_millis(ms))
            }
            None => self.config.request_timeout,
        }
    }

    /// A fresh per-request trace with a process-unique id.
    fn begin_trace(&self) -> Arc<Trace> {
        Trace::start(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    fn counter_for(&self, kind: ErrorKind) -> &Counter {
        match kind {
            ErrorKind::Parse => &self.ins.parse_errors,
            ErrorKind::Analysis => &self.ins.analysis_errors,
            ErrorKind::Overloaded => &self.ins.overloaded,
            ErrorKind::Protocol => &self.ins.protocol_errors,
            ErrorKind::SessionLost => &self.ins.session_lost,
            ErrorKind::Cancelled => &self.ins.cancelled,
        }
    }

    /// The one dispatch behind every transport: answers cheap verbs and
    /// fingerprint cache hits inline and queues solver work. `reply` is
    /// invoked exactly once — before this returns when the request was
    /// answered inline (or the queue rejected it), from a worker
    /// otherwise.
    fn dispatch(
        self: &Arc<Self>,
        req: Request,
        budget_ms: Option<u64>,
        cancel: CancelToken,
        trace: &Arc<Trace>,
        accepted: Instant,
        reply: Reply,
    ) {
        let solver = matches!(
            req,
            Request::Analyze(_) | Request::Custom(_) | Request::Open { .. } | Request::Delta { .. }
        );
        let deadline = if solver {
            self.effective_deadline(budget_ms)
        } else {
            self.config.request_timeout
        };
        match with_current(trace, || self.step(req)) {
            Ok(Step::Done(answer)) => reply(Ok(answer)),
            Err(e) => reply(Err(e)),
            Ok(Step::Queue(task)) => {
                let job = Job {
                    task,
                    accepted,
                    deadline,
                    cancel,
                    trace: Arc::clone(trace),
                };
                let (svc, enqueued) = (Arc::clone(self), Instant::now());
                let queued = self.pool.submit(Box::new(move |admitted| match admitted {
                    Ok(()) => reply(svc.work(&job, enqueued)),
                    Err(refusal) => reply(Err(refusal)),
                }));
                if let Some(depth) = queued {
                    self.ins.queue_depth_hwm.set_max(depth as u64);
                }
            }
        }
    }

    /// Each verb once: answers the cheap ones, applies defaults and
    /// validates the solver ones, and for `analyze`/`custom` carrying a
    /// fingerprint probes the caches right here on the transport thread —
    /// a hit never touches the queue, the parser or the normalizer.
    fn step(&self, req: Request) -> Result<Step, ServiceError> {
        let protocol = |message: String| ServiceError::new(ErrorKind::Protocol, message);
        let utf8 = |bytes: Vec<u8>, what: &str| {
            String::from_utf8(bytes).map_err(|_| {
                ServiceError::new(ErrorKind::Parse, format!("{what} is not valid UTF-8"))
            })
        };
        let defaults = &self.config.engine;
        let (fingerprint, source, problem, distance_bound) = match req {
            Request::Ping { .. } => return Ok(Step::Done(Answer::Text("pong"))),
            Request::Health { .. } => return Ok(Step::Done(Answer::Object(self.health_json()))),
            Request::Metrics { .. } => return Ok(Step::Done(Answer::Metrics(self.exposition()))),
            Request::Compact { .. } => {
                return self.compact_store().map(|j| Step::Done(Answer::Object(j)))
            }
            Request::Replicate { batch, .. } => {
                return self
                    .apply_replica_batch(&batch)
                    .map(|j| Step::Done(Answer::Object(j)))
            }
            Request::Shutdown { .. } => {
                self.shutdown();
                return Ok(Step::Done(Answer::Text("shutting down")));
            }
            Request::Open { source, .. } => {
                let source = utf8(source, "program source")?;
                return Ok(Step::Queue(Task::Open { source }));
            }
            // The carried fingerprint is the router's shard key; the node
            // itself resolves the session by id alone.
            Request::Delta {
                session,
                stmt,
                text,
                ..
            } => {
                let edit = Edit {
                    // An out-of-u32-range id cannot name any statement;
                    // saturating keeps it a clean "no such statement"
                    // edit error instead of a silent wrap onto one.
                    stmt: StmtId(u32::try_from(stmt).unwrap_or(u32::MAX)),
                    text: utf8(text, "edit text")?,
                };
                return Ok(Step::Queue(Task::Delta { session, edit }));
            }
            Request::Analyze(a) => {
                let problems = match a.problems {
                    None => ProblemSet::ALL,
                    Some(bits) => ProblemSet::from_bits(bits)
                        .ok_or_else(|| protocol(format!("bad problem-set bits {bits:#06b}")))?,
                };
                let bound = a.distance_bound.unwrap_or(defaults.dep_max_distance);
                (a.fingerprint, a.source, Problem::Canned(problems), bound)
            }
            Request::Custom(c) => {
                let spec = CustomSpec::from_bits(c.spec)
                    .ok_or_else(|| protocol(format!("bad custom-spec bits {:#08b}", c.spec)))?;
                let bound = c.distance_bound.unwrap_or(defaults.dep_max_distance);
                (c.fingerprint, c.source, Problem::Custom(spec), bound)
            }
        };
        // The bound is part of the wire contract; dependence extraction
        // costs the same at any bound up to it.
        if distance_bound > CustomSpec::MAX_DISTANCE_BOUND {
            return Err(protocol(format!(
                "distance bound {distance_bound} exceeds the {} cap",
                CustomSpec::MAX_DISTANCE_BOUND
            )));
        }
        // Fingerprint-first: probe the cache tiers before any parse work.
        if let Some(bytes) = fingerprint {
            let fingerprint = Fingerprint(u128::from_le_bytes(bytes));
            if let Some(report) = self.engine.probe(fingerprint, problem, distance_bound) {
                return Ok(Step::Done(Answer::Loops(BatchResult {
                    index: 0,
                    loops: vec![LoopReport {
                        fingerprint,
                        report,
                    }],
                    error: None,
                    stats: QueryStats {
                        cache_hits: 1,
                        ..QueryStats::default()
                    },
                })));
            }
        }
        // Miss (or no fingerprint): a full analysis needs source.
        let source = source.ok_or_else(|| {
            ServiceError::new(
                ErrorKind::Analysis,
                "unknown fingerprint (supply program source to analyze)",
            )
        })?;
        Ok(Step::Queue(Task::Solve {
            source: utf8(source, "program source")?,
            problem,
            distance_bound,
        }))
    }

    /// The `compact` verb: flushes pending appends, rewrites live records
    /// into fresh segments, and reports what was reclaimed.
    fn compact_store(&self) -> Result<Json, ServiceError> {
        let Some(tier) = &self.tier else {
            return Err(ServiceError::new(
                ErrorKind::Protocol,
                "no store configured (start with --store DIR)",
            ));
        };
        // Flush first so records still queued for the writer thread are
        // on disk and survive into the compacted generation.
        tier.flush();
        let report = tier.store_handle().compact().map_err(|e| {
            ServiceError::new(ErrorKind::Analysis, format!("compaction failed: {e}"))
        })?;
        Ok(Json::Obj(vec![
            ("live_records".into(), Json::Num(report.live_records as f64)),
            ("dropped".into(), Json::Num(report.dropped as f64)),
            ("bytes_before".into(), Json::Num(report.bytes_before as f64)),
            ("bytes_after".into(), Json::Num(report.bytes_after as f64)),
        ]))
    }

    /// Runs a job on its worker, `enqueued` being when it was queued.
    fn work(&self, job: &Job, enqueued: Instant) -> Result<Answer, ServiceError> {
        // Queue wait ends now: record it as both a histogram observation
        // and a span on the request's trace (the span's start is
        // back-dated to the enqueue instant).
        let wait_us = enqueued.elapsed().as_micros() as u64;
        self.ins.queue_wait.observe(wait_us);
        let now_us = job.trace.elapsed_us();
        job.trace
            .record("queue_wait", now_us.saturating_sub(wait_us), wait_us);
        // Defense in depth under the engine's own panic isolation: a
        // panic anywhere in the job path still answers the request
        // (a dropped reply would leave its transport owed an answer).
        catch_unwind(AssertUnwindSafe(|| {
            with_current(&job.trace, || self.run_job(job))
        }))
        .unwrap_or_else(|payload| {
            Err(ServiceError::new(
                ErrorKind::Analysis,
                format!(
                    "internal: worker panicked: {}",
                    panic_message(payload.as_ref())
                ),
            ))
        })
    }

    /// Counts one abandoned job (reason + wasted-work histogram) and
    /// builds the `cancelled` response. `passes` is the solver work the
    /// job burned before the stop landed — 0 for jobs shed at dequeue.
    fn shed_job(&self, job: &Job, passes: u64, when: &str) -> ServiceError {
        // A marker on the trace timeline pins down *where* the request
        // died in the slow-request log's breakdown.
        if let Some(trace) = arrayflow_obs::trace::current() {
            trace.mark("shed");
        }
        let reason = if job.cancel.is_cancelled() {
            self.ins.cancelled_disconnect.inc();
            "request abandoned"
        } else {
            self.ins.cancelled_expired.inc();
            "deadline budget exhausted"
        };
        self.ins.wasted_passes.observe(passes);
        ServiceError::new(
            ErrorKind::Cancelled,
            format!(
                "{reason} {when} (budget {} ms, {passes} solver passes wasted)",
                job.deadline.as_millis()
            ),
        )
    }

    fn run_job(&self, job: &Job) -> Result<Answer, ServiceError> {
        // Dequeue-time shedding: a job whose client is gone or whose
        // budget drained while it sat queued is dropped for the cost of
        // two loads — the metastable-failure amplifier (a queue full of
        // dead work keeping workers busy) never gets started.
        if job.cancel.is_cancelled() || job.accepted.elapsed() >= job.deadline {
            return Err(self.shed_job(job, 0, "while queued"));
        }
        // In-flight cancellation: the solver polls this between iteration
        // passes, so once the connection drops or the budget runs out the
        // job costs at most one further pass.
        let stop_check = {
            let cancel = job.cancel.clone();
            let accepted = job.accepted;
            let deadline = job.deadline;
            move || cancel.is_cancelled() || accepted.elapsed() >= deadline
        };
        let should_stop: Option<arrayflow_engine::StopCheck<'_>> = Some(&stop_check);
        let parse = |source: &str| {
            let _span = observed_span("parse", &self.ins.phase_parse);
            parse_program_bytes(source.as_bytes())
                .map_err(|e| ServiceError::new(ErrorKind::Parse, e.to_string()))
        };
        // Rejected programs and edits are analysis-kind errors (the frame
        // was well-formed, the request could not be satisfied); a session
        // the node does not hold — expired here, or never replicated to a
        // failed-over replica — is the typed `session_lost`, telling the
        // client to re-open and replay.
        let failed = |e: AnalysisError| match e {
            AnalysisError::Cancelled { passes } => self.shed_job(job, passes, "mid-analysis"),
            AnalysisError::SessionLost(_) => {
                ServiceError::new(ErrorKind::SessionLost, e.to_string())
            }
            _ => ServiceError::new(ErrorKind::Analysis, e.to_string()),
        };
        match &job.task {
            Task::Solve {
                source,
                problem,
                distance_bound,
            } => {
                let mut result =
                    self.engine
                        .solve(0, parse(source)?, *problem, *distance_bound, should_stop);
                match result.error.take() {
                    Some(e) => Err(failed(e)),
                    None => Ok(Answer::Loops(result)),
                }
            }
            Task::Open { source } => self
                .engine
                .open_session_ctrl(parse(source)?, should_stop)
                .map(|(session, report)| Answer::Session(session, report))
                .map_err(failed),
            Task::Delta { session, edit } => self
                .engine
                .analyze_delta_ctrl(*session, edit, should_stop)
                .map(Answer::Delta)
                .map_err(failed),
        }
    }

    /// The `metrics` verb payload: the Prometheus text exposition of
    /// every registered metric, stamped with this node's `node` label
    /// when one is configured.
    fn exposition(&self) -> String {
        let snapshot = self.registry.snapshot();
        match &self.config.node_id {
            Some(id) => snapshot.render_prometheus_with(&[("node", id)]),
            None => snapshot.render_prometheus(),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // A service dropped without `shutdown` still stops its workers,
        // which hold the pool, not the service. No join: the last
        // `Arc<Service>` can drop on a worker, inside a job.
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_engine::CANNED;
    use std::sync::atomic::AtomicBool;

    /// One JSON line through the one answer entry, in process.
    fn ask(svc: &Arc<Service>, line: &[u8]) -> String {
        String::from_utf8(svc.handle_frame(Frame::Json(line))).unwrap()
    }

    fn start_small() -> Arc<Service> {
        Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("no store configured, start cannot fail")
    }

    /// `arrayflow_responses_total` for one outcome.
    fn responses(svc: &Service, outcome: &str) -> Option<u64> {
        let labels = [("outcome", outcome)];
        svc.registry()
            .snapshot()
            .value("arrayflow_responses_total", &labels)
    }

    /// The unlabelled counter or gauge `name`.
    fn count(svc: &Service, name: &str) -> Option<u64> {
        svc.registry().snapshot().value(name, &[])
    }

    #[test]
    fn ping_and_analyze_roundtrip() {
        let svc = start_small();
        let r = ask(&svc, br#"{"id": 1, "verb": "ping"}"#);
        assert_eq!(r, r#"{"id":1,"ok":true,"result":"pong"}"#);
        let r = ask(
            &svc,
            br#"{"id": 2, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.contains(r#""ok":true"#), "{}", r);
        assert!(r.contains("reuse"), "{}", r);
        assert_eq!(count(&svc, "arrayflow_requests_total"), Some(2));
        assert_eq!(responses(&svc, "ok"), Some(2));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn error_taxonomy_is_counted() {
        let svc = start_small();
        // protocol: malformed JSON
        let r = ask(&svc, b"} not json");
        assert!(r.contains(r#""kind":"protocol""#), "{}", r);
        // protocol: unknown verb
        let r = ask(&svc, br#"{"verb": "frobnicate"}"#);
        assert!(r.contains("unknown verb"), "{}", r);
        // parse: bad DSL
        let r = ask(&svc, br#"{"verb": "analyze", "program": "do do do"}"#);
        assert!(r.contains(r#""kind":"parse""#), "{}", r);
        assert_eq!(responses(&svc, "protocol"), Some(2));
        assert_eq!(responses(&svc, "parse"), Some(1));
        assert_eq!(responses(&svc, "ok"), Some(0));
        assert_eq!(count(&svc, "arrayflow_requests_total"), Some(3));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn zero_deadline_times_out() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            request_timeout: Duration::ZERO,
            ..ServiceConfig::default()
        })
        .unwrap();
        // The worker's dequeue shed is the one deadline.
        let r = ask(
            &svc,
            br#"{"id": 9, "verb": "analyze", "program": "x := 1;"}"#,
        );
        assert!(r.contains(r#""kind":"cancelled""#), "{}", r);
        assert_eq!(responses(&svc, "cancelled"), Some(1));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn shutdown_wakes_idle_workers_instead_of_waiting_out_a_poll() {
        // Each idle service lives 2 ms, long enough for its worker to go
        // idle. A join that waited out a 20 ms poll would put forty cycles
        // past 720 ms.
        let started = Instant::now();
        for _ in 0..40 {
            let svc = Service::start(ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            })
            .unwrap();
            std::thread::sleep(Duration::from_millis(2));
            svc.shutdown();
            svc.join_workers();
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(400), "40 cycles took {took:?}");
    }

    #[test]
    fn shutdown_verb_reports_and_flags() {
        let svc = start_small();
        assert!(!svc.is_shutdown());
        let r = ask(&svc, br#"{"id": 1, "verb": "shutdown"}"#);
        assert!(r.contains("shutting down"), "{}", r);
        assert!(svc.is_shutdown());
        // Post-shutdown analyze is rejected as overloaded.
        let r = ask(
            &svc,
            br#"{"id": 2, "verb": "analyze", "program": "x := 1;"}"#,
        );
        assert!(r.contains(r#""kind":"overloaded""#), "{}", r);
        svc.join_workers();
    }

    #[test]
    fn compact_without_store_is_a_protocol_error() {
        let svc = start_small();
        let r = ask(&svc, br#"{"id": 1, "verb": "compact"}"#);
        assert!(r.contains(r#""kind":"protocol""#), "{}", r);
        assert!(r.contains("no store configured"), "{}", r);
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn store_backed_service_persists_and_warm_starts() {
        let dir = std::env::temp_dir().join(format!("afsvc-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            workers: 2,
            store: Some(arrayflow_store::StoreConfig::at(&dir)),
            ..ServiceConfig::default()
        };
        let frame =
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#;

        let svc = Service::start(config()).unwrap();
        assert_eq!(count(&svc, "arrayflow_store_warm_loaded"), Some(0));
        let first = ask(&svc, frame);
        assert!(first.contains(r#""ok":true"#), "{}", first);
        // compact succeeds (flushes the writer first).
        let c = ask(&svc, br#"{"id": 3, "verb": "compact"}"#);
        assert!(c.contains(r#""live_records":1"#), "{}", c);
        svc.shutdown();
        svc.join_workers();
        drop(svc);

        // A fresh service over the same directory warm-starts and answers
        // the same program with byte-identical reports without re-solving
        // (the per-request stats legitimately differ: hit vs miss).
        let svc = Service::start(config()).unwrap();
        assert_eq!(count(&svc, "arrayflow_store_warm_loaded"), Some(1));
        let again = ask(&svc, frame);
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        assert_eq!(loops(&first), loops(&again));
        assert_eq!(count(&svc, "arrayflow_cache_misses_total"), Some(0));
        svc.shutdown();
        svc.join_workers();
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fault surface that kills exactly one worker, at its first seam
    /// check.
    #[derive(Debug, Default)]
    struct ExitOnce(AtomicBool);

    impl FaultSurface for ExitOnce {
        fn worker_exit(&self) -> bool {
            !self.0.swap(true, Ordering::SeqCst)
        }
    }

    #[test]
    fn drop_guards_replace_dead_workers() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            faults: Some(Arc::new(ExitOnce::default())),
            ..ServiceConfig::default()
        })
        .unwrap();
        // The lone worker dies at its first seam check. Wait for its drop
        // guard to respawn it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while count(&svc, "arrayflow_worker_restarts_total") == Some(0) {
            assert!(
                Instant::now() < deadline,
                "the dead worker was never replaced"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The replacement worker serves requests normally.
        let r = ask(
            &svc,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.contains(r#""ok":true"#), "{}", r);
        assert_eq!(count(&svc, "arrayflow_worker_restarts_total"), Some(1));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn a_dropped_service_stops_its_pool() {
        let svc = start_small();
        let r = ask(
            &svc,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.contains(r#""ok":true"#), "{}", r);
        let pool = Arc::downgrade(&svc.pool);
        drop(svc);
        // The workers hold the pool until they exit.
        let deadline = Instant::now() + Duration::from_secs(1);
        while pool.upgrade().is_some() {
            assert!(Instant::now() < deadline, "the pool outlived its service");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn injected_solver_panic_is_a_framed_analysis_error() {
        use arrayflow_resilience::FaultPlan;
        let svc = Service::start(ServiceConfig {
            workers: 2,
            faults: Some(Arc::new(FaultPlan::parse("solver_panic=100%").unwrap())),
            ..ServiceConfig::default()
        })
        .unwrap();
        let r = ask(
            &svc,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
        );
        assert!(r.contains(r#""kind":"analysis""#), "{}", r);
        assert!(r.contains("injected solver fault"), "{}", r);
        // The pool survives: another request is answered (with the same
        // injected failure), not dropped.
        let r = ask(
            &svc,
            br#"{"id": 2, "verb": "analyze", "program": "do i = 1, 9 A[i+1] := A[i]; end"}"#,
        );
        assert!(r.contains(r#""kind":"analysis""#), "{}", r);
        assert_eq!(responses(&svc, "analysis"), Some(2));
        svc.shutdown();
        svc.join_workers();
    }

    /// The acceptance bar for the `custom` verb: a wire spec equivalent to
    /// a canned instance must produce a byte-identical report to the
    /// built-in verb (the engine folds such specs onto the canned cache
    /// key, so this holds by construction — but the wire layer could still
    /// break it).
    #[test]
    fn custom_verb_matches_builtin_reports_byte_for_byte() {
        let svc = start_small();
        let program = "do i = 1, 9 A[i+2] := A[i]; end";
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        // The canned rows' specs, spelled in JSON, in table order.
        let specs = [
            r#"{"gen": ["defs"], "kill": ["defs"]}"#,
            r#"{"gen": ["defs", "uses"], "kill": ["defs"]}"#,
            r#"{"gen": ["defs"], "kill": ["uses"], "direction": "backward"}"#,
            r#"{"gen": ["defs", "uses"], "kill": ["defs"], "mode": "may"}"#,
        ];
        for (spec, (problem, _)) in specs.into_iter().zip(CANNED) {
            let canned = ask(
                &svc,
                format!(
                    r#"{{"verb": "analyze", "program": "{program}", "problems": ["{problem}"]}}"#
                )
                .as_bytes(),
            );
            let custom = ask(
                &svc,
                format!(r#"{{"verb": "custom", "program": "{program}", "spec": {spec}}}"#)
                    .as_bytes(),
            );
            assert!(canned.contains(r#""ok":true"#), "{}", canned);
            assert!(custom.contains(r#""ok":true"#), "{}", custom);
            assert_eq!(loops(&canned), loops(&custom), "spec {spec}");
        }
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn the_canned_verb_caps_the_distance_bound_too() {
        let svc = start_small();
        let analyze = |bound: u64| {
            ask(
                &svc,
                format!(
                    r#"{{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end", "distance_bound": {bound}}}"#
                )
                .as_bytes(),
            )
        };
        let over = analyze(CustomSpec::MAX_DISTANCE_BOUND + 1);
        assert!(over.contains(r#""kind":"protocol""#), "{over}");
        assert!(over.contains("exceeds the 1000000 cap"), "{over}");
        let at_cap = analyze(CustomSpec::MAX_DISTANCE_BOUND);
        assert!(at_cap.contains(r#""ok":true"#), "{at_cap}");
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn custom_verb_solves_non_canned_problems() {
        let svc = start_small();
        // Live array elements: G = uses, K = defs, backward, may — the
        // canonical problem the canned quartet does not cover.
        let r = ask(
            &svc,
            br#"{"id": 1, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        );
        assert!(r.contains(r#""ok":true"#), "{}", r);
        assert!(r.contains("custom spec=gu-kd-bwd-may"), "{}", r);
        // Same program, same spec again: a cache hit, identical bytes.
        let again = ask(
            &svc,
            br#"{"id": 2, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        );
        let loops = |line: &str| {
            let start = line.find(r#""loops":"#).unwrap();
            let end = line.find(r#","error":"#).unwrap();
            line[start..end].to_string()
        };
        assert_eq!(loops(&r), loops(&again));
        assert_eq!(count(&svc, "arrayflow_cache_hits_total"), Some(1));
        // A different spec over the same program is a distinct cache key.
        let other = ask(
            &svc,
            br#"{"id": 3, "verb": "custom", "program": "do i = 1, 9 A[i+2] := A[i]; end",
                 "spec": {"gen": ["uses"], "kill": ["defs"], "direction": "backward"}}"#,
        );
        assert!(other.contains("custom spec=gu-kd-bwd-must"), "{}", other);
        assert_ne!(loops(&r), loops(&other));
        assert_eq!(count(&svc, "arrayflow_cache_misses_total"), Some(2));
        svc.shutdown();
        svc.join_workers();
    }

    #[test]
    fn per_request_problem_selection_hits_distinct_cache_entries() {
        let svc = start_small();
        let frame = |id: u32, problems: &str| {
            format!(
                r#"{{"id": {id}, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end", "problems": {problems}}}"#
            )
        };
        let r1 = ask(&svc, frame(1, r#"["available"]"#).as_bytes());
        let r2 = ask(&svc, frame(2, r#"["busy"]"#).as_bytes());
        assert!(r1.contains("reuse"), "{}", r1);
        assert!(!r2.contains("reuse"), "{}", r2);
        // Distinct problem sets are distinct cache keys: two misses.
        assert_eq!(count(&svc, "arrayflow_cache_misses_total"), Some(2));
        svc.shutdown();
        svc.join_workers();
    }
}
