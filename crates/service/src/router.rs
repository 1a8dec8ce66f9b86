//! The cluster router: `serve --router`'s coordinator process.
//!
//! The router owns no engine and no store. It terminates client
//! connections (both newline-JSON and `AFWIRE01` binary, sniffed per
//! connection exactly like a node does), decodes both with the node's
//! edge codec onto the one request model, answers cheap verbs itself and
//! forwards every solver verb one way: keyed by the request's canonical
//! 128-bit fingerprint — carried by fingerprint-first requests, computed
//! from source otherwise — consistent-hashed across the node list
//! ([`Topology`]), so every alpha-equivalent loop lands on the same
//! node's memo cache and segment log. Aggregate cache capacity multiplies
//! with node count instead of diluting the way random load balancing
//! would.
//!
//! **Failover.** Each backend carries a health flag (refreshed by a
//! background prober speaking the `health` verb), a
//! [`CircuitBreaker`], and a small pool of binary-mode connections
//! ([`arrayflow_wire::Connection`], the client's connection type). A
//! forward that fails rotates to the shard's designated replica — node
//! `(i+1) % n`, the peer `serve --replicate-to` keeps warm with the
//! primary's segment log — and is counted in
//! `arrayflow_router_failovers_total`. A replica answering a failed-over
//! analyze from its replicated store shows up as
//! `arrayflow_router_replica_warm_hits_total`.
//!
//! **Aggregation.** `metrics` is the one cluster-wide counter view: it
//! fans out to every node and merges the Prometheus expositions with a
//! `node` label per series ([`merge_expositions`]), the router's own
//! metrics riding along as `node="router"`. Per-node health and breaker
//! state are in the router's `health` answer.
//!
//! **Serving.** The router is a [`FrameHandler`] on the node's own event
//! loop, so sniffing, framing, idle reaping and response order are the
//! node's. Cheap verbs answer on the loop's thread; forwards and fan-outs
//! go to the node's own work pool, `POOL_CAP` forwarders per node doing
//! blocking round trips. A connection's pipelined requests are forwarded
//! concurrently, and the loop writes the answers back in request order.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arrayflow_cluster::{merge_expositions, source_route_hash, Topology};
use arrayflow_engine::fingerprint_route_hash;
use arrayflow_ir as ir;
use arrayflow_obs::{Counter, Registry};
use arrayflow_resilience::{panic_message, CancelToken, CircuitBreaker};
use arrayflow_wire::proto::{
    ceil_millis, AnalyzeRequest, CustomRequest, Request as WireRequest, Response as WireResponse,
};
use arrayflow_wire::{encode_frame, Connection};

use crate::binproto::answer_of;
use crate::json::Json;
use crate::pool::Pool;
use crate::proto::{ErrorKind, ServiceError};
use crate::server::{Edge, Frame, FrameHandler, Respond};
use crate::service::Answer;

/// Deadline for dialing a backend.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Consecutive backend failures that open its breaker, and the open
/// breaker's cooldown before a half-open probe forward.
const BREAKER_THRESHOLD: u32 = 3;
const BREAKER_COOLDOWN: Duration = Duration::from_secs(1);

/// Cap on a node's response frame: large enough for any report, as the
/// replicator's cap is, whatever the client-frame cap.
const NODE_FRAME_CAP: usize = 64 << 20;

/// Idle backend connections kept per node, and forwarder threads per
/// node: every forwarder can hold one pooled connection.
const POOL_CAP: usize = 8;

/// Frames queued per forwarder before the router answers `overloaded`.
const QUEUE_PER_FORWARDER: usize = 256;

/// Router tuning. Start from [`RouterConfig::new`] and adjust.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The node list and ring.
    pub topology: Topology,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Per-forward deadline cap (write + read on the backend connection).
    /// A client that sent a `deadline_ms` budget gets the *remaining*
    /// budget — elapsed router time already subtracted — as its forward
    /// deadline instead, never more than this cap.
    pub request_timeout: Duration,
    /// Cap on one client frame, either protocol (`serve --max-frame`).
    pub max_frame_bytes: usize,
}

impl RouterConfig {
    /// Defaults: 500 ms probes, 10 s request deadlines, 1 MiB client
    /// frames (a node's default).
    pub fn new(topology: Topology) -> RouterConfig {
        RouterConfig {
            topology,
            probe_interval: Duration::from_millis(500),
            request_timeout: Duration::from_secs(10),
            max_frame_bytes: 1 << 20,
        }
    }
}

/// One backend node: pooled binary connections plus failure containment.
struct Backend {
    healthy: AtomicBool,
    breaker: CircuitBreaker,
    pool: Mutex<Vec<Connection>>,
}

impl Backend {
    /// Feeds one round trip's outcome to the breaker and health flag.
    fn record(&self, ok: bool) {
        self.breaker.record(ok);
        self.healthy.store(ok, Ordering::SeqCst);
    }

    /// One request/response round trip on a pooled connection, bounded by
    /// `deadline` (the caller's remaining budget, never more than the
    /// configured per-forward cap). A stale pooled connection gets exactly
    /// one fresh-dial retry; the caller owns breaker/health accounting.
    fn round_trip(
        &self,
        addr: &str,
        frame: &[u8],
        deadline: Duration,
    ) -> io::Result<(u8, Vec<u8>)> {
        // Pop as a standalone statement: an `if let` on the lock would
        // keep the guard alive across `put_back`, re-locking the pool
        // mutex while it is still held.
        let pooled = self.pool.lock().unwrap().pop();
        if let Some(mut conn) = pooled {
            if let Ok(resp) = conn.exchange_frame(frame, deadline, NODE_FRAME_CAP) {
                self.put_back(conn);
                return Ok(resp);
            }
        }
        let mut conn = Connection::dial(addr, CONNECT_TIMEOUT)?;
        let resp = conn.exchange_frame(frame, deadline, NODE_FRAME_CAP)?;
        self.put_back(conn);
        Ok(resp)
    }

    fn put_back(&self, conn: Connection) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }
}

#[derive(Clone)]
struct RouterInstruments {
    connections: Counter,
    idle_disconnects: Counter,
    oversized_frames: Counter,
    forwards: Counter,
    failovers: Counter,
    replica_warm_hits: Counter,
    unroutable: Counter,
    probes: Counter,
    probe_failures: Counter,
    deadline_forwards: Counter,
    expired_before_forward: Counter,
}

impl RouterInstruments {
    fn registered(registry: &Registry) -> Self {
        Self {
            connections: registry.counter(
                "arrayflow_router_connections_total",
                "client connections accepted by the router",
            ),
            // The event loop's own counters, under the node's family names
            // so a merged exposition shows every loop's count by `node`.
            idle_disconnects: registry.counter(
                "arrayflow_idle_disconnects_total",
                "connections closed by the idle sweep (slow-loris peers included)",
            ),
            oversized_frames: registry.counter(
                "arrayflow_oversized_frames_total",
                "frames discarded for exceeding the size cap (excluded from request latency)",
            ),
            forwards: registry.counter(
                "arrayflow_router_forwards_total",
                "requests forwarded to a backend node",
            ),
            failovers: registry.counter(
                "arrayflow_router_failovers_total",
                "forwards that rotated from a dead primary to its replica",
            ),
            replica_warm_hits: registry.counter(
                "arrayflow_router_replica_warm_hits_total",
                "failed-over analyzes the replica answered from its replicated cache",
            ),
            unroutable: registry.counter(
                "arrayflow_router_unroutable_total",
                "requests whose primary and replica were both unreachable",
            ),
            probes: registry.counter(
                "arrayflow_router_probes_total",
                "backend health probes sent",
            ),
            probe_failures: registry.counter(
                "arrayflow_router_probe_failures_total",
                "backend health probes that failed",
            ),
            deadline_forwards: registry.counter(
                "arrayflow_router_deadline_forwards_total",
                "forwards carrying a propagated remaining-budget deadline",
            ),
            expired_before_forward: registry.counter(
                "arrayflow_router_expired_before_forward_total",
                "requests whose deadline budget was exhausted before any forward",
            ),
        }
    }
}

/// The routing core: the event loop's handler, its forwarders and the
/// health prober share it.
pub struct Router {
    config: RouterConfig,
    backends: Vec<Backend>,
    registry: Registry,
    ins: RouterInstruments,
    next_id: AtomicU64,
    /// The forwarders.
    pool: Arc<Pool>,
    /// The health prober, joined by [`FrameHandler::drain`].
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// Builds the routing core over `config.topology` and starts its
    /// forwarders (`POOL_CAP` per node) and health prober.
    pub fn start(config: RouterConfig) -> io::Result<Arc<Router>> {
        let registry = Registry::new();
        let ins = RouterInstruments::registered(&registry);
        let backends = config
            .topology
            .nodes()
            .iter()
            .map(|_| Backend {
                healthy: AtomicBool::new(true),
                breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN),
                pool: Mutex::new(Vec::new()),
            })
            .collect::<Vec<_>>();
        let forwarders = POOL_CAP * backends.len();
        let capacity = QUEUE_PER_FORWARDER * forwarders;
        let pool = Pool::start("router", forwarders, capacity, None, Counter::new())?;
        let router = Arc::new(Router {
            config,
            backends,
            registry,
            ins,
            next_id: AtomicU64::new(1),
            pool,
            prober: Mutex::new(None),
        });
        let weak = Arc::downgrade(&router);
        let prober = std::thread::spawn(move || Router::probe_loop(weak));
        *router.prober.lock().expect("a fresh lock") = Some(prober);
        Ok(router)
    }

    /// The router's own metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// True once a `shutdown` request was accepted.
    pub fn is_shutdown(&self) -> bool {
        self.pool.is_shutdown()
    }

    /// Begins shutdown: the event loop stops accepting and reading, the
    /// forwarders finish what is queued, the prober wakes and stops.
    pub fn shutdown(&self) {
        self.pool.shutdown();
        if let Some(prober) = &*self.prober.lock().unwrap_or_else(PoisonError::into_inner) {
            prober.thread().unpark();
        }
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends `frame` to `slot`'s node if its breaker admits the attempt,
    /// bounded by `deadline`. Success and failure both feed the breaker
    /// and health flag.
    fn try_backend(&self, slot: usize, frame: &[u8], deadline: Duration) -> Option<(u8, Vec<u8>)> {
        let backend = &self.backends[slot];
        let (admitted, _) = backend.breaker.try_acquire();
        if !admitted {
            return None;
        }
        let addr = &self.config.topology.node(slot).addr;
        let resp = backend.round_trip(addr, frame, deadline).ok();
        backend.record(resp.is_some());
        resp
    }

    /// The per-forward deadline for a request accepted at `accepted` with
    /// client budget `budget`: the remaining budget (elapsed router time
    /// subtracted), capped by the configured per-forward timeout. `Err`
    /// when the budget is already exhausted — the forward is not attempted
    /// and the backend never sees dead work.
    fn forward_deadline(
        &self,
        accepted: Instant,
        budget: Option<Duration>,
    ) -> Result<(Duration, Option<u64>), ServiceError> {
        let Some(budget) = budget else {
            return Ok((self.config.request_timeout, None));
        };
        let remaining = budget.saturating_sub(accepted.elapsed());
        if remaining.is_zero() {
            self.ins.expired_before_forward.inc();
            return Err(ServiceError::new(
                ErrorKind::Cancelled,
                format!(
                    "deadline budget exhausted before the forward (budget {} ms)",
                    budget.as_millis()
                ),
            ));
        }
        self.ins.deadline_forwards.inc();
        Ok((remaining, Some(ceil_millis(remaining))))
    }

    /// Routes `frame` by `hash` under `deadline`: primary shard first,
    /// designated replica on failure. Returns the raw response and whether
    /// the replica answered.
    fn forward_routed(
        &self,
        hash: u64,
        frame: &[u8],
        deadline: Duration,
    ) -> Result<((u8, Vec<u8>), bool), ServiceError> {
        let primary = self.config.topology.ring().node_for_hash(hash);
        let replica = self.config.topology.replica_of(primary);
        if let Some(resp) = self.try_backend(primary, frame, deadline) {
            self.ins.forwards.inc();
            return Ok((resp, false));
        }
        if replica != primary {
            if let Some(resp) = self.try_backend(replica, frame, deadline) {
                self.ins.forwards.inc();
                self.ins.failovers.inc();
                return Ok((resp, true));
            }
        }
        self.ins.unroutable.inc();
        Err(ServiceError::new(
            ErrorKind::Overloaded,
            format!(
                "no live node for shard (primary {}, replica {})",
                self.config.topology.node(primary).id,
                self.config.topology.node(replica).id,
            ),
        ))
    }

    /// Sends `make_req(fresh_id)` to every node. Entries are `(node id,
    /// response)`, `None` where the node was unreachable.
    fn fan_out(
        &self,
        make_req: impl Fn(u64) -> WireRequest,
    ) -> Vec<(String, Option<WireResponse>)> {
        (0..self.backends.len())
            .map(|slot| {
                let frame = make_req(self.fresh_id()).to_frame(None);
                let resp = self
                    .try_backend(slot, &frame, self.config.request_timeout)
                    .and_then(|(tag, payload)| WireResponse::decode(tag, &payload).ok());
                (self.config.topology.node(slot).id.clone(), resp)
            })
            .collect()
    }

    /// One probe round: `health` to every node, updating flags, breakers
    /// and the probe counters.
    fn probe_all(&self) {
        for slot in 0..self.backends.len() {
            let frame = WireRequest::Health {
                id: self.fresh_id(),
            }
            .to_frame(None);
            self.ins.probes.inc();
            let backend = &self.backends[slot];
            let addr = &self.config.topology.node(slot).addr;
            let ok = backend
                .round_trip(addr, &frame, self.config.request_timeout)
                .is_ok();
            if !ok {
                self.ins.probe_failures.inc();
            }
            backend.record(ok);
        }
    }

    /// The prober thread: a probe round every `probe_interval` until
    /// shutdown, parked in between ([`Router::shutdown`] unparks it). It
    /// holds the router weakly, so a router dropped without shutdown
    /// stops it too.
    fn probe_loop(weak: Weak<Router>) {
        while let Some(router) = weak.upgrade().filter(|r| !r.is_shutdown()) {
            router.probe_all();
            let interval = router.config.probe_interval;
            drop(router);
            std::thread::park_timeout(interval);
        }
    }

    /// Per-node health as JSON, used by the router's own `health` verb.
    fn nodes_json(&self) -> Json {
        Json::Arr(
            self.config
                .topology
                .nodes()
                .iter()
                .zip(&self.backends)
                .map(|(spec, backend)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Str(spec.id.clone())),
                        ("addr".into(), Json::Str(spec.addr.clone())),
                        (
                            "healthy".into(),
                            Json::Bool(backend.healthy.load(Ordering::SeqCst)),
                        ),
                        (
                            "breaker".into(),
                            Json::Str(backend.breaker.state().as_str().into()),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn health_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("node".into(), Json::Str("router".into())),
            ("shutting_down".into(), Json::Bool(self.is_shutdown())),
            ("nodes".into(), self.nodes_json()),
        ])
    }

    /// Cluster-wide Prometheus exposition: every reachable node's
    /// exposition (each series carrying its `node` label) merged into
    /// single-HELP families, the router's own metrics as `node="router"`.
    fn merged_exposition(&self) -> String {
        let own = self
            .registry
            .snapshot()
            .render_prometheus_with(&[("node", "router")]);
        let node_parts: Vec<(String, String)> = self
            .fan_out(|id| WireRequest::Metrics { id })
            .into_iter()
            .filter_map(|(id, resp)| match resp {
                Some(WireResponse::Text { text, .. }) => Some((id, text)),
                _ => None,
            })
            .collect();
        let mut parts: Vec<(&str, &str)> = vec![("router", own.as_str())];
        parts.extend(
            node_parts
                .iter()
                .map(|(id, text)| (id.as_str(), text.as_str())),
        );
        merge_expositions(&parts)
    }

    /// `compact` fanned out to every node; per-node results keyed by id.
    fn compact_json(&self) -> Json {
        let nodes = self
            .fan_out(|id| WireRequest::Compact { id })
            .into_iter()
            .map(|(id, resp)| {
                let value = match resp {
                    Some(WireResponse::Text { text, .. }) => {
                        Json::parse(text.as_bytes()).unwrap_or(Json::Str(text))
                    }
                    Some(WireResponse::Err { message, .. }) => {
                        Json::Obj(vec![("error".into(), Json::Str(message))])
                    }
                    _ => Json::Null,
                };
                (id, value)
            })
            .collect();
        Json::Obj(vec![("nodes".into(), Json::Obj(nodes))])
    }

    /// Handles one decoded request from either edge: cheap verbs are
    /// answered here (`metrics` and `compact` fan out to every node),
    /// every solver verb takes the one forward.
    fn handle(&self, req: WireRequest, budget_ms: Option<u64>, accepted: Instant) -> Routed {
        let answer = match req {
            WireRequest::Ping { .. } => Answer::Text("pong"),
            WireRequest::Health { .. } => Answer::Object(self.health_json()),
            WireRequest::Metrics { .. } => Answer::Metrics(self.merged_exposition()),
            WireRequest::Compact { .. } => Answer::Object(self.compact_json()),
            WireRequest::Shutdown { .. } => {
                self.shutdown();
                Answer::Text("shutting down")
            }
            WireRequest::Replicate { .. } => {
                return Routed::Local(Err(ServiceError::new(
                    ErrorKind::Protocol,
                    "replicate targets a node, not the router",
                )))
            }
            req => {
                return match self.forward(req, budget_ms, accepted) {
                    Ok((tag, payload)) => Routed::Forwarded(tag, payload),
                    Err(e) => Routed::Local(Err(e)),
                }
            }
        };
        Routed::Local(Ok(answer))
    }

    /// The one forward: route by [`route_key`], re-encode the request with
    /// the client's *remaining* budget as its deadline prefix (when it sent
    /// one) so elapsed router time is never double-spent on the node, then
    /// try the primary and on failure its replica. The node's response
    /// comes back undecoded, except to count a failed-over analyze the
    /// replica answered warm.
    fn forward(
        &self,
        mut req: WireRequest,
        budget_ms: Option<u64>,
        accepted: Instant,
    ) -> Result<(u8, Vec<u8>), ServiceError> {
        let hash = route_key(&mut req);
        let budget = budget_ms.map(|ms| Duration::from_millis(ms).min(self.config.request_timeout));
        let (deadline, remaining_ms) = self.forward_deadline(accepted, budget)?;
        let frame = req.to_frame(remaining_ms);
        let ((tag, payload), via_replica) = self.forward_routed(hash, &frame, deadline)?;
        if via_replica {
            if let Ok(WireResponse::Analyze(ok)) = WireResponse::decode(tag, &payload) {
                if ok.cache_hits > 0 {
                    self.ins.replica_warm_hits.inc();
                }
            }
        }
        Ok((tag, payload))
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Stops the forwarders and the prober without joining them: the
        // last `Arc<Router>` can drop on either.
        self.shutdown();
    }
}

/// The router's side of the event loop. Decode errors and cheap verbs
/// are answered right here, on the loop's thread; forwards and fan-outs
/// are queued for the forwarders, and a full queue answers `overloaded`,
/// as a node's does.
impl FrameHandler for Router {
    fn answer(self: &Arc<Self>, frame: Frame<'_>, cancel: CancelToken, respond: Respond) {
        let accepted = Instant::now();
        let (edge, decoded) = Edge::decode(frame);
        let (req, budget_ms) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => return respond(edge.encode(Err(e))),
        };
        if let WireRequest::Ping { .. }
        | WireRequest::Health { .. }
        | WireRequest::Shutdown { .. }
        | WireRequest::Replicate { .. } = req
        {
            return respond(encode(&edge, self.handle(req, budget_ms, accepted)));
        }
        let router = Arc::clone(self);
        self.pool.submit(Box::new(move |admitted| match admitted {
            // The loop reaped the connection: nobody is left to read the
            // answer.
            Ok(()) if cancel.is_cancelled() => {}
            Ok(()) => respond(guarded(&edge, || router.handle(req, budget_ms, accepted))),
            Err(refusal) => respond(edge.encode(Err(refusal))),
        }));
    }

    fn max_frame_bytes(&self) -> usize {
        self.config.max_frame_bytes
    }

    fn oversized(&self) {
        self.ins.oversized_frames.inc();
    }

    fn is_shutdown(&self) -> bool {
        Router::is_shutdown(self)
    }

    fn drain(&self) {
        self.pool.join();
        let prober = self.prober.lock().expect("no panic holds it").take();
        if let Some(prober) = prober {
            let _ = prober.join();
        }
    }

    fn connected(&self) {
        self.ins.connections.inc();
    }

    fn reaped(&self) {
        self.ins.idle_disconnects.inc();
    }
}

/// Encodes what the router did with a request for `edge`: its own
/// outcome through the edge codec, and a node's response as forwarded —
/// byte for byte on the binary edge, rendered on the JSON edge exactly as
/// the node's own JSON edge renders it.
fn encode(edge: &Edge, routed: Routed) -> Vec<u8> {
    match (edge, routed) {
        (_, Routed::Local(outcome)) => edge.encode(outcome),
        (Edge::Json(_), Routed::Forwarded(tag, payload)) => edge.encode(answer_of(tag, &payload)),
        (Edge::Binary(_), Routed::Forwarded(tag, payload)) => encode_frame(tag, &payload),
    }
}

/// Routes with `route` and encodes the outcome for `edge`. A panic
/// answers the request with a framed `analysis` error instead of ending
/// the forwarder, so the pool never shrinks.
fn guarded(edge: &Edge, route: impl FnOnce() -> Routed) -> Vec<u8> {
    catch_unwind(AssertUnwindSafe(|| encode(edge, route()))).unwrap_or_else(|payload| {
        let e = ServiceError::new(
            ErrorKind::Analysis,
            format!(
                "internal: forward panicked: {}",
                panic_message(payload.as_ref())
            ),
        );
        edge.encode(Err(e))
    })
}

/// What the router did with a request.
enum Routed {
    /// Answered (or refused) by the router itself.
    Local(Result<Answer, ServiceError>),
    /// The node's response frame, tag and payload.
    Forwarded(u8, Vec<u8>),
}

/// The shard key of a forwarded request: the carried fingerprint, else
/// the canonical fingerprint of a sole-loop source, else a stable hash of
/// the source bytes. A `delta` carries its session's base fingerprint —
/// the one `open` returned, computed from the same source `open` routed
/// by — so a whole session lands on one node's session store. A custom
/// spec is never part of the key: every spec over one loop shards to the
/// node that caches that loop.
///
/// When an `analyze` or `custom` source normalizes to exactly one loop,
/// the fingerprint is also attached to the request, so the node answers a
/// warm loop with a cache probe. A nest routes by its outer loop but gets
/// no fingerprint: a probe would answer that one loop, where the full
/// answer reports every loop of the nest.
fn route_key(req: &mut WireRequest) -> u64 {
    let by_fingerprint =
        |fp: [u8; 16]| fingerprint_route_hash(ir::Fingerprint(u128::from_le_bytes(fp)));
    let (slot, source) = match req {
        WireRequest::Delta { fingerprint, .. } => return by_fingerprint(*fingerprint),
        WireRequest::Analyze(AnalyzeRequest {
            fingerprint,
            source,
            ..
        })
        | WireRequest::Custom(CustomRequest {
            fingerprint,
            source,
            ..
        }) => {
            if let Some(fp) = *fingerprint {
                return by_fingerprint(fp);
            }
            (Some(fingerprint), source.as_deref().unwrap_or_default())
        }
        WireRequest::Open { source, .. } => (None, source.as_slice()),
        _ => (None, &[][..]),
    };
    let Some((fp, flat)) = std::str::from_utf8(source)
        .ok()
        .and_then(|s| ir::fingerprint_source(s).ok().flatten())
    else {
        return source_route_hash(source);
    };
    if let (Some(slot), true) = (slot, flat) {
        *slot = Some(fp.0.to_le_bytes());
    }
    fingerprint_route_hash(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binproto::kind_from_byte;
    use crate::server::wait_for;
    use arrayflow_wire::frame::read_frame;
    use arrayflow_wire::proto::with_deadline;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A respond callback that hands the answer to the returned channel.
    fn channel() -> (Respond, mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = mpsc::channel();
        let respond: Respond = Box::new(move |bytes| {
            let _ = tx.send(bytes);
        });
        (respond, rx)
    }

    fn wait(rx: &mpsc::Receiver<Vec<u8>>) -> Vec<u8> {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every frame is answered")
    }

    /// One JSON line through the router's answer entry and its
    /// forwarder pool.
    fn ask_json(router: &Arc<Router>, line: &[u8]) -> String {
        let frame = Frame::Json(line);
        let answer = wait_for(|respond| router.answer(frame, CancelToken::new(), respond));
        String::from_utf8(answer).unwrap()
    }

    fn error_kind(frame: Vec<u8>) -> Option<ErrorKind> {
        let (tag, payload) = read_frame(&mut io::Cursor::new(frame), 1 << 20).unwrap();
        match WireResponse::decode(tag, &payload) {
            Ok(WireResponse::Err { kind, .. }) => kind_from_byte(kind),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    fn stop(router: Arc<Router>) {
        router.shutdown();
        router.drain();
    }

    fn analyze(fingerprint: Option<[u8; 16]>, source: Option<&str>) -> WireRequest {
        WireRequest::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint,
            problems: None,
            distance_bound: None,
            source: source.map(|s| s.as_bytes().to_vec()),
        })
    }

    fn key(mut req: WireRequest) -> u64 {
        route_key(&mut req)
    }

    #[test]
    fn route_hash_prefers_the_canonical_fingerprint() {
        // Alpha-equivalent single-loop programs must route identically,
        // whether the fingerprint arrives precomputed or as source.
        let a = "do i = 1, 100 A[i+2] := A[i] + x; end";
        let b = "do j = 1, 100 B[j+2] := B[j] + y; end";
        let (fp, _) = ir::fingerprint_source(a).unwrap().unwrap();
        assert_eq!(ir::fingerprint_source(b).unwrap(), Some((fp, true)));
        let fp = fp.0.to_le_bytes();

        let by_source = key(analyze(None, Some(a)));
        let by_fp = key(analyze(Some(fp), None));
        let alpha = key(analyze(None, Some(b)));
        assert_eq!(by_source, by_fp);
        assert_eq!(by_source, alpha);
    }

    #[test]
    fn multi_loop_source_falls_back_to_a_stable_byte_hash() {
        let src = "do i = 1, 9 A[i] := 1; end do j = 1, 9 B[j] := 2; end";
        assert_eq!(ir::fingerprint_source(src).unwrap(), None);
        let h1 = key(analyze(None, Some(src)));
        assert_eq!(h1, source_route_hash(src.as_bytes()));
        assert_ne!(h1, source_route_hash(b"different"));
        // Pinned: a change of the byte hash would move every such program
        // to another shard, away from its cached reports.
        assert_eq!(h1, 0xc98f_4f9d_35f4_7174);
        let not_utf8 = WireRequest::Open {
            id: 1,
            source: vec![b'd', b'o', 0xff, 0xfe, b' ', 0x80],
        };
        assert_eq!(key(not_utf8), 0xd72c_d536_6927_651b);
    }

    #[test]
    fn only_single_loop_sources_get_a_fingerprint_attached() {
        // A flat loop: routed by its fingerprint, which is attached so
        // the node can answer from cache by probe.
        let flat = "do i = 1, 40 X[i+1] := X[i]; end";
        let mut req = analyze(None, Some(flat));
        let hash = route_key(&mut req);
        let (fp, flat) = ir::fingerprint_source(flat).unwrap().unwrap();
        let fp = fp.0.to_le_bytes();
        assert!(flat);
        assert_eq!(hash, key(analyze(Some(fp), None)));
        assert!(matches!(req, WireRequest::Analyze(a) if a.fingerprint == Some(fp)));

        // A nest: routed by its outer loop, but left without a
        // fingerprint — a probe would answer the outer loop alone.
        let nest = "do j = 1, 50 do i = 1, 40 X[i+1] := X[i]; Y[i] := X[i+1]; end end";
        let (outer, flat) = ir::fingerprint_source(nest).unwrap().unwrap();
        let outer = outer.0.to_le_bytes();
        assert!(!flat);
        let mut req = analyze(None, Some(nest));
        assert_eq!(route_key(&mut req), key(analyze(Some(outer), None)));
        assert!(matches!(req, WireRequest::Analyze(a) if a.fingerprint.is_none()));
    }

    #[test]
    fn unroutable_request_is_a_structured_overloaded_error() {
        // Nothing listens on these ports; both candidates fail fast.
        let topology = Topology::parse("a=127.0.0.1:1,b=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();
        let line = ask_json(
            &router,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end"}"#,
        );
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
        assert!(router.ins.unroutable.get() >= 1);
        // The health view reflects the dead nodes after the attempts.
        let health = router.health_json().to_string();
        assert!(health.contains(r#""healthy":false"#), "{health}");
        stop(router);
    }

    #[test]
    fn delta_frames_missing_fields_answer_protocol_errors() {
        // Regression: hand-crafted delta frames with a missing
        // `fingerprint` or `session` used to reach `.expect()` calls that
        // trusted decode invariants, taking the router thread down.
        let topology = Topology::parse("a=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();
        let fp = "000102030405060708090a0b0c0d0e0f";
        let frames = [
            r#"{"id": 1, "verb": "delta", "stmt": 3, "text": "A[i] := 1;"}"#.to_string(),
            format!(
                r#"{{"id": 2, "verb": "delta", "fingerprint": "{fp}", "stmt": 3, "text": "x := 1;"}}"#
            ),
            format!(r#"{{"id": 3, "verb": "delta", "session": 7, "fingerprint": "{fp}"}}"#),
            r#"{"id": 4, "verb": "delta"}"#.to_string(),
        ];
        for frame in frames {
            let line = ask_json(&router, frame.as_bytes());
            assert!(line.contains(r#""kind":"protocol""#), "{line}");
        }
        stop(router);
    }

    #[test]
    fn custom_routes_by_the_same_keys_as_analyze() {
        // The spec is part of the cache key, never the routing key: every
        // spec over one loop must shard to the node that caches it.
        let src = "do i = 1, 100 A[i+2] := A[i] + x; end";
        let (fp, _) = ir::fingerprint_source(src).unwrap().unwrap();
        let fp = fp.0.to_le_bytes();
        let custom = |spec, fingerprint, source: Option<&str>| {
            key(WireRequest::Custom(CustomRequest {
                id: 1,
                spec,
                fingerprint,
                distance_bound: None,
                source: source.map(|s| s.as_bytes().to_vec()),
            }))
        };
        let by_fp = custom(0b01, Some(fp), None);
        let by_source = custom(0b10_0110, None, Some(src));
        assert_eq!(by_fp, by_source);
        assert_eq!(by_fp, key(analyze(Some(fp), None)));
    }

    #[test]
    fn zero_budget_requests_are_cancelled_without_a_forward() {
        // A dead-on-arrival budget must never consume a backend round
        // trip: the router answers `cancelled` itself, on both protocols.
        let topology = Topology::parse("a=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();

        let line = ask_json(
            &router,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end", "deadline_ms": 0}"#,
        );
        assert!(line.contains(r#""kind":"cancelled""#), "{line}");

        let req = WireRequest::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(b"do i = 1, 9 A[i] := 1; end".to_vec()),
        });
        let (tag, payload) = with_deadline(req.tag(), &req.encode_payload(), 0);
        let frame = Frame::Binary(tag, &payload);
        let answer = wait_for(|respond| router.answer(frame, CancelToken::new(), respond));
        assert_eq!(error_kind(answer), Some(ErrorKind::Cancelled));

        assert_eq!(router.ins.forwards.get(), 0);
        assert_eq!(router.ins.expired_before_forward.get(), 2);
        stop(router);
    }

    #[test]
    fn a_full_queue_answers_overloaded() {
        // Every forwarder holds a gate, so every forward stays queued.
        let topology = Topology::parse("a=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();
        let gate = router.pool.occupy();
        let line = br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end"}"#;
        // Reaped before the gate opens, so no queued forward answers.
        let reaped = CancelToken::new();
        for _ in 0..QUEUE_PER_FORWARDER * POOL_CAP {
            let queued = Box::new(|_| panic!("queued"));
            router.answer(Frame::Json(line), reaped.clone(), queued);
        }
        let line = ask_json(&router, line);
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
        assert!(line.contains("queue full (2048 in flight)"), "{line}");
        // Cheap verbs never queue.
        let line = ask_json(&router, br#"{"id": 2, "verb": "ping"}"#);
        assert_eq!(line, r#"{"id":2,"ok":true,"result":"pong"}"#);
        reaped.cancel();
        gate.wait();
        stop(router);
    }

    #[test]
    fn forwarders_skip_reaped_connections_and_spend_the_budget_from_acceptance() {
        let topology = Topology::parse("a=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();
        let gate = router.pool.occupy();
        let analyze = |budget: &str| {
            format!(
                r#"{{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end"{budget}}}"#
            )
        };
        // A frame whose connection the loop reaped while it was queued.
        let reaped = CancelToken::new();
        let (respond, skipped) = channel();
        router.answer(Frame::Json(analyze("").as_bytes()), reaped.clone(), respond);
        reaped.cancel();
        // A frame whose 20 ms budget runs out in the queue.
        let (respond, expired) = channel();
        let budget = analyze(r#", "deadline_ms": 20"#);
        router.answer(Frame::Json(budget.as_bytes()), CancelToken::new(), respond);
        // A live frame, for a dead node.
        let (respond, live) = channel();
        router.answer(
            Frame::Json(analyze("").as_bytes()),
            CancelToken::new(),
            respond,
        );

        std::thread::sleep(Duration::from_millis(30));
        router.shutdown();
        gate.wait();
        router.drain();

        assert!(skipped.try_recv().is_err(), "reaped work is skipped");
        let line = String::from_utf8(wait(&expired)).unwrap();
        assert!(
            line.contains("budget exhausted before the forward"),
            "{line}"
        );
        let line = String::from_utf8(wait(&live)).unwrap();
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
        assert_eq!(router.ins.expired_before_forward.get(), 1);
        assert_eq!(
            router.ins.unroutable.get(),
            1,
            "only the live frame was tried"
        );
    }

    #[test]
    fn shutdown_wakes_the_prober_instead_of_waiting_out_its_sleep() {
        // The prober sleeps 500 ms after each round. A drain that waited
        // for it, even in 50 ms steps, would put twenty cycles near a
        // second.
        let started = Instant::now();
        for _ in 0..20 {
            let topology = Topology::parse("a=127.0.0.1:1").unwrap();
            let router = Router::start(RouterConfig::new(topology)).unwrap();
            // Once a round has begun, the prober sleeps after it.
            while router.ins.probes.get() == 0 {
                std::thread::yield_now();
            }
            stop(router);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(400), "20 cycles took {took:?}");
    }

    #[test]
    fn a_dropped_router_stops_its_pool() {
        let topology = Topology::parse("a=127.0.0.1:1").unwrap();
        let router = Router::start(RouterConfig::new(topology)).unwrap();
        let line = ask_json(
            &router,
            br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i] := 1; end"}"#,
        );
        assert!(line.contains(r#""kind":"overloaded""#), "{line}");
        let pool = Arc::downgrade(&router.pool);
        let weak = Arc::downgrade(&router);
        drop(router);
        // The forwarders hold the pool until they exit; the prober holds
        // the router only weakly.
        let deadline = Instant::now() + Duration::from_secs(1);
        while pool.upgrade().is_some() || weak.upgrade().is_some() {
            assert!(Instant::now() < deadline, "the router left threads behind");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panicking_forward_answers_its_own_request() {
        let line = guarded(&Edge::Json(Json::Num(7.0)), || panic!("boom"));
        let line = String::from_utf8(line).unwrap();
        assert!(line.starts_with(r#"{"id":7,"ok":false"#), "{line}");
        assert!(line.contains("forward panicked: boom"), "{line}");
        let frame = guarded(&Edge::Binary(7), || panic!("boom"));
        assert_eq!(error_kind(frame), Some(ErrorKind::Analysis));
    }

    #[test]
    fn pooled_round_trips_do_not_self_deadlock() {
        // Regression: the second round trip on a backend pops the pooled
        // connection and returns it via `put_back`, which locks the pool
        // again — holding the pop's lock guard across the body wedged
        // the backend (and everything queued behind its mutex) forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..3 {
                let (tag, payload) = read_frame(&mut stream, 1 << 20).unwrap();
                let id = match WireRequest::decode(tag, &payload) {
                    Ok(WireRequest::Ping { id }) => id,
                    other => panic!("expected ping, got {other:?}"),
                };
                let resp = WireResponse::Text {
                    id,
                    text: "pong".into(),
                };
                stream
                    .write_all(&encode_frame(resp.tag(), &resp.encode_payload()))
                    .unwrap();
            }
        });

        let backend = Backend {
            healthy: AtomicBool::new(true),
            breaker: CircuitBreaker::new(3, Duration::from_secs(1)),
            pool: Mutex::new(Vec::new()),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // First trip dials fresh and pools; the next two go through
            // the pooled-connection path.
            for id in 0..3u64 {
                let req = WireRequest::Ping { id };
                let frame = encode_frame(req.tag(), &req.encode_payload());
                backend
                    .round_trip(&addr, &frame, Duration::from_secs(10))
                    .expect("round trip");
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("pooled round trip deadlocked");
        server.join().unwrap();
    }
}
