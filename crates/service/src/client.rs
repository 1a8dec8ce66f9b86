//! A resilient TCP client for the analysis service.
//!
//! [`Client`] sends every verb as one [`arrayflow_wire::proto::Request`],
//! encoded by the protocol of its connection (newline-framed JSON, see
//! [`proto`], or `AFWIRE01`), and layers the fault-tolerance a long-lived
//! caller needs on top of a raw [`arrayflow_wire::Connection`]:
//!
//! * **reconnect** — a dropped or half-dead connection is replaced
//!   transparently on the next request, *into the same protocol mode*:
//!   the client keeps one connection slot per protocol (JSON, binary),
//!   so a reconnect redials straight into the slot's mode instead of
//!   re-running the server's first-bytes protocol detection, and
//!   alternating JSON/binary calls never tear each other's pinned
//!   connection down;
//! * **per-request deadlines** — connect and read/write timeouts from
//!   [`ClientConfig`], so a wedged server costs bounded time, never a
//!   hang, and a response is read up to a size cap, never unbounded;
//! * **retries with jittered exponential backoff** — transport failures
//!   and `overloaded` responses are retried up to
//!   [`ClientConfig::max_retries`] times with full-jitter delays from
//!   [`arrayflow_resilience::Backoff`]. `analyze` is idempotent (same
//!   program, same report), so resending after an ambiguous failure is
//!   safe.
//!
//! Structured service errors other than `overloaded` (`parse`,
//! `analysis`, `protocol`, `session_lost`, `cancelled`) are *not*
//! retried: the server
//! answered, the answer is a fact about the request. Nor is an
//! undecodable response ([`ClientError::Protocol`]).
//!
//! ```no_run
//! use arrayflow_service::{Client, ClientConfig};
//!
//! let mut client = Client::new("127.0.0.1:7433", ClientConfig::default());
//! let report = client
//!     .analyze("do i = 1, 100 A[i+2] := A[i] + x; end")
//!     .unwrap();
//! assert!(report.contains("\"ok\":true"));
//! ```
//!
//! [`proto`]: crate::proto

use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use arrayflow_engine::CustomSpec;
use arrayflow_resilience::{Backoff, RetryBudget};
use arrayflow_wire::proto::{
    ceil_millis, AnalyzeOk, AnalyzeRequest, CustomRequest, DeltaOk, Request as WireRequest,
    Response as WireResponse, SessionOk,
};
use arrayflow_wire::Connection;

use crate::binproto::kind_from_byte;
use crate::json::Json;
use crate::proto::{classify, parse_fingerprint_hex, ErrorKind, JsonRequest, BAD_FINGERPRINT};

/// Cap on a single response (frame payload or JSON line) the client will
/// buffer. Reports are small; anything near this is a protocol violation.
const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Tuning for a [`Client`]: deadlines and the retry envelope.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Per-attempt deadline for sending a request and reading its
    /// response line.
    pub request_timeout: Duration,
    /// Additional attempts after the first (0 disables retries).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (full jitter).
    pub backoff_base: Duration,
    /// Ceiling on a single backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the jitter stream; `None` seeds from the clock. Fix it
    /// for reproducible retry timing in tests.
    pub backoff_seed: Option<u64>,
    /// Overall per-request deadline budget. Each attempt sends what
    /// remains of it (rounded up to whole ms) as `deadline_ms` (JSON) or
    /// a deadline frame prefix (binary) so the server can shed the work
    /// when it runs out; client-side each attempt's socket timeout is the
    /// remaining budget (never more than `request_timeout`), and no
    /// attempt starts once the budget is spent. `None` keeps the
    /// per-attempt `request_timeout` as the only deadline.
    pub deadline: Option<Duration>,
    /// Retry token bucket: back-to-back retries allowed before the
    /// sustained rate applies. Retries across *all* requests spend from
    /// one bucket, so a fleet-wide overload cannot be amplified by
    /// unbounded resends. 0 disables retries outright.
    pub retry_burst: u32,
    /// Retry token bucket: sustained refill rate, retries per second.
    pub retry_per_sec: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_retries: 4,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(2),
            backoff_seed: None,
            deadline: None,
            retry_burst: 16,
            retry_per_sec: 4.0,
        }
    }
}

/// Why a [`Client`] request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure that survived every retry (connect refused,
    /// connection reset, per-attempt deadline exceeded, ...).
    Io(io::Error),
    /// The server answered with a structured error frame. `overloaded`
    /// only lands here after the retry budget is spent.
    Service {
        /// The taxonomy kind from `error.kind`; `None` if the wire name
        /// was not a known kind.
        kind: Option<ErrorKind>,
        /// The human-readable `error.message`.
        message: String,
    },
    /// The response was over the size cap or undecodable (the connection
    /// is dropped), or the request has no form in its protocol.
    Protocol(String),
    /// The configured [`ClientConfig::deadline`] budget was spent before
    /// another attempt could start. The last transport or service error
    /// (if any attempt ran) is folded into the message.
    DeadlineExhausted {
        /// The configured overall budget.
        budget: Duration,
        /// What the final attempt (if any) failed with.
        last_error: Option<Box<ClientError>>,
    },
}

impl ClientError {
    /// True when this error is worth retrying on an idempotent request:
    /// transport failures and `overloaded` responses.
    fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Service { kind, .. } => *kind == Some(ErrorKind::Overloaded),
            ClientError::Protocol(_) => false,
            ClientError::DeadlineExhausted { .. } => false,
        }
    }

    /// True when the server answered `session_lost`: the session a
    /// `delta` targeted no longer exists on the answering node — TTL
    /// expiry, capacity eviction, or a mid-session failover to a replica
    /// that never held it. The remedy is to re-open the session and
    /// replay the edits; resending the delta as-is is pointless, so this
    /// is deliberately not retryable.
    pub fn is_session_lost(&self) -> bool {
        matches!(
            self,
            ClientError::Service {
                kind: Some(ErrorKind::SessionLost),
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Service { kind, message } => match kind {
                Some(k) => write!(f, "service: {k}: {message}"),
                None => write!(f, "service: {message}"),
            },
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::DeadlineExhausted { budget, last_error } => {
                write!(f, "deadline budget of {} ms exhausted", budget.as_millis())?;
                if let Some(e) = last_error {
                    write!(f, " (last attempt: {e})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// An incremental analysis session opened over the JSON protocol: the
/// server-side session id, its base fingerprint (carry it on every
/// [`Client::delta`] — the cluster router's shard key for the session),
/// and the full `ok` response line with the initial report.
#[derive(Debug, Clone)]
pub struct OpenedSession {
    /// Server-side session id; pass to [`Client::delta`].
    pub session: u64,
    /// The session's base fingerprint, 32 hex characters.
    pub fingerprint: String,
    /// The raw `ok` response line (initial report inside `result`).
    pub line: String,
}

/// The protocol a connection was opened with, and its connection slot.
/// The server locks each connection to the protocol of its first bytes,
/// so a mode switch means a redial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnMode {
    Json = 0,
    Binary = 1,
}

/// A successful answer, in the protocol the request went out in.
enum Reply {
    /// The JSON `ok` response line, trailing newline included.
    Line(String),
    /// The decoded binary response.
    Frame(WireResponse),
}

/// A reconnecting, retrying client for the analysis service.
///
/// One request is in flight at a time; responses are matched by arrival
/// order, which the per-connection protocol guarantees. Construction is
/// lazy — the first request dials the server.
pub struct Client {
    addr: String,
    config: ClientConfig,
    /// One slot per [`ConnMode`]: the server pins each connection to the
    /// protocol of its first bytes, so the slot *is* the negotiated mode
    /// and survives reconnects.
    conns: [Option<Connection>; 2],
    next_id: u64,
    connects: u64,
    retries: u64,
    /// One bucket across every request this client makes: retries spend
    /// tokens; a dry bucket surfaces the original error instead of
    /// amplifying an overload with resends.
    retry_budget: RetryBudget,
}

impl Client {
    /// Creates a client for `addr` (e.g. `"127.0.0.1:7433"`). Does not
    /// connect; the first request does.
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Client {
        let retry_budget = RetryBudget::new(config.retry_burst, config.retry_per_sec);
        Client {
            addr: addr.into(),
            config,
            conns: [None, None],
            next_id: 0,
            connects: 0,
            retries: 0,
            retry_budget,
        }
    }

    /// Creates a client and eagerly verifies the server is reachable
    /// with a `ping` (which also exercises the retry envelope).
    pub fn connect(addr: impl Into<String>, config: ClientConfig) -> Result<Client, ClientError> {
        let mut client = Client::new(addr, config);
        client.ping()?;
        Ok(client)
    }

    /// Times the server was (re)dialed. The first connection counts, so
    /// `connects() - 1` is the number of reconnects.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Attempts resent after a retryable failure, across all requests.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retries the token bucket denied; each surfaced the underlying
    /// error instead of resending.
    pub fn retries_denied(&self) -> u64 {
        self.retry_budget.denied()
    }

    /// Analyzes one DSL program; on success returns the server's `ok`
    /// response line (reports, per-request cache stats). Idempotent, so
    /// transport failures and `overloaded` responses are retried.
    pub fn analyze(&mut self, program: &str) -> Result<String, ClientError> {
        let req = self.analyze_req(None, Some(program));
        self.request(req)
    }

    /// Solves a user-specified (G, K) problem over `program`; on success
    /// returns the server's `ok` response line, whose rendered report
    /// carries the spec label and the per-(generator, node) lattice
    /// values in a `custom` section. Idempotent, so transport failures
    /// and `overloaded` responses are retried.
    pub fn custom(&mut self, program: &str, spec: CustomSpec) -> Result<String, ClientError> {
        let req = self.custom_req(spec, None, Some(program));
        self.request(req)
    }

    /// Opens an incremental analysis session over `program`: the server
    /// runs the full analysis once and keeps the converged lattice state
    /// warm for [`Client::delta`] calls. Idempotent at the analysis level
    /// (a retried open may leave an extra session behind; the server's
    /// TTL/capacity bounds reclaim it).
    pub fn open_session(&mut self, program: &str) -> Result<OpenedSession, ClientError> {
        let id = self.fresh_id();
        let line = self.request(WireRequest::Open {
            id,
            source: program.into(),
        })?;
        let json = Json::parse(line.as_bytes())
            .map_err(|e| ClientError::Protocol(format!("unparseable open result: {e}")))?;
        let result = |field: &str| json.get("result")?.get(field);
        let session = result("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("open result has no `session` id".into()))?;
        let fingerprint = result("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("open result has no `fingerprint`".into()))?
            .to_string();
        Ok(OpenedSession {
            session,
            fingerprint,
            line,
        })
    }

    /// Applies one statement replacement to an open session and returns
    /// the server's `ok` line (re-analyzed report, fallback flag, dirty
    /// column counts). `fingerprint` is the base fingerprint from
    /// [`Client::open_session`]; a malformed one is refused as the server
    /// would refuse it (a `protocol` service error), without a round
    /// trip. Statement replacement is idempotent, so transport failures
    /// and `overloaded` responses are retried.
    pub fn delta(
        &mut self,
        session: u64,
        fingerprint: &str,
        stmt: u64,
        text: &str,
    ) -> Result<String, ClientError> {
        let fingerprint =
            parse_fingerprint_hex(fingerprint).ok_or_else(|| ClientError::Service {
                kind: Some(ErrorKind::Protocol),
                message: BAD_FINGERPRINT.into(),
            })?;
        let id = self.fresh_id();
        self.request(WireRequest::Delta {
            id,
            session,
            fingerprint,
            stmt,
            text: text.into(),
        })
    }

    /// `ping` round trip; proves liveness end to end.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.request(WireRequest::Ping { id }).map(drop)
    }

    /// Fetches the server's `metrics` response line, whose result is
    /// `{"prometheus": …}`: the text exposition, merged across nodes at a
    /// router.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        self.request(WireRequest::Metrics { id })
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        self.request(WireRequest::Shutdown { id })
    }

    /// Sends `req` over the JSON protocol, its wire id as the JSON `id`,
    /// with the full resilience envelope, returning the server's `ok`
    /// response line. Only send idempotent requests through this —
    /// ambiguous transport failures are resent.
    pub fn request(&mut self, req: WireRequest) -> Result<String, ClientError> {
        match self.send(ConnMode::Json, &req)? {
            Reply::Line(line) => Ok(line),
            Reply::Frame(_) => unreachable!("a JSON exchange answers with a line"),
        }
    }

    /// Analyzes one DSL program over the binary protocol, returning the
    /// decoded response (per-loop fingerprints + store-codec report
    /// bytes, per-request cache stats).
    pub fn analyze_binary(&mut self, program: &str) -> Result<AnalyzeOk, ClientError> {
        let req = self.analyze_req(None, Some(program));
        self.request_binary(&req).and_then(analyzed)
    }

    /// The fingerprint-first fast path: probes the server's caches with a
    /// precomputed fingerprint (see `arrayflow::fingerprint`), optionally
    /// shipping the source as fallback so a cache miss still analyzes
    /// instead of erroring.
    pub fn analyze_fingerprint(
        &mut self,
        fingerprint: [u8; 16],
        source: Option<&str>,
    ) -> Result<AnalyzeOk, ClientError> {
        let req = self.analyze_req(Some(fingerprint), source);
        self.request_binary(&req).and_then(analyzed)
    }

    /// Opens an incremental analysis session over the binary protocol;
    /// the returned [`SessionOk`] carries the session id, its base
    /// fingerprint bytes (carry them on every [`Client::delta_binary`])
    /// and the store-codec encoding of the initial report.
    pub fn open_session_binary(&mut self, program: &str) -> Result<SessionOk, ClientError> {
        let id = self.fresh_id();
        let source = program.into();
        match self.request_binary(&WireRequest::Open { id, source })? {
            WireResponse::Session(ok) => Ok(ok),
            other => Err(unexpected("a session response", other)),
        }
    }

    /// Applies one statement replacement to an open session over the
    /// binary protocol. `fingerprint` is the base fingerprint from
    /// [`Client::open_session_binary`] (the session's shard key at the
    /// cluster router). Idempotent, so retried on transport failures.
    pub fn delta_binary(
        &mut self,
        session: u64,
        fingerprint: [u8; 16],
        stmt: u64,
        text: &str,
    ) -> Result<DeltaOk, ClientError> {
        let id = self.fresh_id();
        let text = text.into();
        let req = WireRequest::Delta {
            id,
            session,
            fingerprint,
            stmt,
            text,
        };
        match self.request_binary(&req)? {
            WireResponse::Delta(ok) => Ok(ok),
            other => Err(unexpected("a delta response", other)),
        }
    }

    /// Solves a user-specified (G, K) problem over the binary protocol.
    /// The response reuses the analyze shape: per-loop fingerprints and
    /// store-codec report bytes whose decoded form carries the custom
    /// section.
    pub fn custom_binary(
        &mut self,
        program: &str,
        spec: CustomSpec,
    ) -> Result<AnalyzeOk, ClientError> {
        let req = self.custom_req(spec, None, Some(program));
        self.request_binary(&req).and_then(analyzed)
    }

    /// The fingerprint-first fast path for a custom problem: probes the
    /// server's caches under the spec-extended key, optionally shipping
    /// the source as fallback so a miss still solves instead of erroring.
    pub fn custom_fingerprint(
        &mut self,
        fingerprint: [u8; 16],
        spec: CustomSpec,
        source: Option<&str>,
    ) -> Result<AnalyzeOk, ClientError> {
        let req = self.custom_req(spec, Some(fingerprint), source);
        self.request_binary(&req).and_then(analyzed)
    }

    /// Binary `ping` round trip.
    pub fn ping_binary(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        match self.request_binary(&WireRequest::Ping { id })? {
            WireResponse::Text { .. } => Ok(()),
            other => Err(unexpected("a text response", other)),
        }
    }

    /// Fetches the Prometheus metrics exposition over the binary
    /// protocol (the binary `metrics` verb ships it without a JSON
    /// wrapper).
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        match self.request_binary(&WireRequest::Metrics { id })? {
            WireResponse::Text { text, .. } => Ok(text),
            other => Err(unexpected("a text response", other)),
        }
    }

    /// Sends `req` over the binary protocol with the same resilience
    /// envelope as [`Client::request`], returning the decoded response.
    pub fn request_binary(&mut self, req: &WireRequest) -> Result<WireResponse, ClientError> {
        match self.send(ConnMode::Binary, req)? {
            Reply::Frame(resp) => Ok(resp),
            Reply::Line(_) => unreachable!("a binary exchange answers with a frame"),
        }
    }

    /// The retry envelope around [`Client::attempt`]: reconnect on
    /// transport failure, jittered backoff retries for `Io` and
    /// `overloaded` outcomes, every attempt bounded by — and carrying —
    /// the remaining deadline budget.
    fn send(&mut self, mode: ConnMode, req: &WireRequest) -> Result<Reply, ClientError> {
        let mut backoff = self.fresh_backoff();
        let started = Instant::now();
        let mut last: Option<ClientError> = None;
        loop {
            let (timeout, deadline_ms) = self.attempt_deadline(started, &mut last)?;
            let err = match self.attempt(mode, req, timeout, deadline_ms) {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            if !err.is_retryable()
                || backoff.attempt() >= self.config.max_retries
                || !self.retry_budget.try_acquire()
            {
                return Err(err);
            }
            self.retries += 1;
            last = Some(err);
            std::thread::sleep(backoff.next_delay());
        }
    }

    /// A fresh jitter stream, varied per request so concurrent clients
    /// with the same seed do not thunder in lockstep.
    fn fresh_backoff(&self) -> Backoff {
        match self.config.backoff_seed {
            Some(seed) => Backoff::with_seed(
                self.config.backoff_base,
                self.config.backoff_cap,
                seed.wrapping_add(self.next_id),
            ),
            None => Backoff::new(self.config.backoff_base, self.config.backoff_cap),
        }
    }

    /// The next attempt's socket deadline — the remaining overall budget,
    /// never more than `request_timeout` — and the budget it carries on
    /// the wire, the remainder rounded up to whole milliseconds. `Err`
    /// when the budget is spent before the attempt could start.
    fn attempt_deadline(
        &self,
        started: Instant,
        last: &mut Option<ClientError>,
    ) -> Result<(Duration, Option<u64>), ClientError> {
        let Some(budget) = self.config.deadline else {
            return Ok((self.config.request_timeout, None));
        };
        let remaining = budget.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Err(ClientError::DeadlineExhausted {
                budget,
                last_error: last.take().map(Box::new),
            });
        }
        Ok((
            remaining.min(self.config.request_timeout),
            Some(ceil_millis(remaining)),
        ))
    }

    /// One attempt: encode `req` for `mode`, exchange it on that mode's
    /// connection under `timeout`, decode the answer. A transport failure
    /// drops every connection (a late response would desync request and
    /// response pairing); an answer that cannot be trusted drops this
    /// one and is not retried.
    fn attempt(
        &mut self,
        mode: ConnMode,
        req: &WireRequest,
        timeout: Duration,
        deadline_ms: Option<u64>,
    ) -> Result<Reply, ClientError> {
        let frame = encode_attempt(mode, req, deadline_ms)?;
        let exchanged = self.ensure_conn(mode).and_then(|conn| match mode {
            ConnMode::Json => conn
                .exchange_line(&frame, timeout, MAX_RESPONSE_FRAME)
                .map(decode_line),
            ConnMode::Binary => conn
                .exchange_frame(&frame, timeout, MAX_RESPONSE_FRAME)
                .map(|(tag, payload)| decode_frame(tag, &payload)),
        });
        let decoded = match exchanged {
            Ok(decoded) => decoded,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(ClientError::Protocol(format!("unframeable response: {e}")))
            }
            Err(e) => {
                self.transport_failure();
                return Err(ClientError::Io(e));
            }
        };
        if let Err(ClientError::Protocol(_)) = decoded {
            self.conns[mode as usize] = None;
        }
        decoded
    }

    /// A transport-level failure: every connection to the server is
    /// suspect, so drop both slots and let the retry redial.
    fn transport_failure(&mut self) {
        self.conns = [None, None];
    }

    fn ensure_conn(&mut self, mode: ConnMode) -> io::Result<&mut Connection> {
        let slot = mode as usize;
        if self.conns[slot].is_none() {
            let conn = Connection::dial(&self.addr, self.config.connect_timeout)?;
            self.conns[slot] = Some(conn);
            self.connects += 1;
        }
        Ok(self.conns[slot].as_mut().expect("connection just dialed"))
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn analyze_req(&mut self, fingerprint: Option<[u8; 16]>, source: Option<&str>) -> WireRequest {
        WireRequest::Analyze(AnalyzeRequest {
            id: self.fresh_id(),
            fingerprint,
            problems: None,
            distance_bound: None,
            source: source.map(Into::into),
        })
    }

    fn custom_req(
        &mut self,
        spec: CustomSpec,
        fingerprint: Option<[u8; 16]>,
        source: Option<&str>,
    ) -> WireRequest {
        WireRequest::Custom(CustomRequest {
            id: self.fresh_id(),
            spec: spec.bits(),
            fingerprint,
            distance_bound: None,
            source: source.map(Into::into),
        })
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("connected", &self.conns.iter().any(Option::is_some))
            .field("connects", &self.connects)
            .field("retries", &self.retries)
            .finish()
    }
}

/// One attempt's bytes: `req` in `mode`'s encoding — a JSON line through
/// [`JsonRequest::encode`], or an `AFWIRE01` frame — carrying
/// `deadline_ms` when a budget is configured.
fn encode_attempt(
    mode: ConnMode,
    req: &WireRequest,
    deadline_ms: Option<u64>,
) -> Result<Vec<u8>, ClientError> {
    match mode {
        ConnMode::Json => {
            let line = JsonRequest {
                id: Json::Num(req.id() as f64),
                request: req.clone(),
                deadline_ms,
            }
            .encode()
            .map_err(ClientError::Protocol)?;
            Ok(format!("{line}\n").into_bytes())
        }
        ConnMode::Binary => Ok(req.to_frame(deadline_ms)),
    }
}

/// A JSON response line: the `ok` line itself, or its structured error.
fn decode_line(line: Vec<u8>) -> Result<Reply, ClientError> {
    let line = String::from_utf8(line)
        .map_err(|_| ClientError::Protocol("response line is not UTF-8".into()))?;
    classify(&line)?;
    Ok(Reply::Line(line))
}

/// A binary response frame: the decoded response, or its structured
/// error.
fn decode_frame(tag: u8, payload: &[u8]) -> Result<Reply, ClientError> {
    match WireResponse::decode(tag, payload) {
        Ok(WireResponse::Err { kind, message, .. }) => Err(ClientError::Service {
            kind: kind_from_byte(kind),
            message,
        }),
        Ok(resp) => Ok(Reply::Frame(resp)),
        Err(e) => Err(ClientError::Protocol(format!("undecodable response: {e}"))),
    }
}

/// The analyze-shaped answer of `analyze` and `custom`.
fn analyzed(resp: WireResponse) -> Result<AnalyzeOk, ClientError> {
    match resp {
        WireResponse::Analyze(ok) => Ok(ok),
        other => Err(unexpected("an analyze response", other)),
    }
}

/// A well-formed answer of the wrong shape for the verb asked.
fn unexpected(expected: &str, got: WireResponse) -> ClientError {
    ClientError::Protocol(format!("expected {expected}, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayflow_wire::frame::read_frame;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn cfg() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(5),
            max_retries: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            backoff_seed: Some(7),
            ..ClientConfig::default()
        }
    }

    /// Reads one newline-terminated request, `first` being a byte the
    /// caller already consumed (protocol sniffing).
    fn read_json_line(stream: &mut TcpStream, first: Option<u8>) -> Option<String> {
        let mut line: Vec<u8> = first.into_iter().collect();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => return None,
                Ok(_) if byte[0] == b'\n' => {
                    return Some(String::from_utf8_lossy(&line).into_owned())
                }
                Ok(_) => line.push(byte[0]),
            }
        }
    }

    fn serve_json_pings(mut stream: TcpStream, name: &str, first: Option<u8>) {
        let mut first = first;
        while let Some(line) = read_json_line(&mut stream, first.take()) {
            let id = Json::parse(line.as_bytes())
                .ok()
                .and_then(|j| j.get("id").cloned())
                .unwrap_or(Json::Null);
            let resp = format!("{{\"id\":{id},\"ok\":true,\"result\":\"pong-{name}\"}}\n");
            if stream.write_all(resp.as_bytes()).is_err() {
                return;
            }
        }
    }

    /// A JSON ping server. `drop_first` kills the first accepted
    /// connection without answering — the reconnect drill.
    fn json_server(name: &'static str, drop_first: bool, conns: Arc<AtomicU32>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { continue };
                conns.fetch_add(1, Ordering::SeqCst);
                if drop_first && i == 0 {
                    drop(stream);
                    continue;
                }
                std::thread::spawn(move || serve_json_pings(stream, name, None));
            }
        });
        addr
    }

    /// Speaks both protocols, pinned per connection by the first byte —
    /// what the real server's transport does.
    fn dual_server(conns: Arc<AtomicU32>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                conns.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut first = [0u8; 1];
                    if stream.read_exact(&mut first).is_err() {
                        return;
                    }
                    if first[0] == b'{' {
                        serve_json_pings(stream, "dual", Some(first[0]));
                        return;
                    }
                    // Binary: splice the sniffed byte back ahead of the
                    // stream for the framer.
                    let writer = stream.try_clone().unwrap();
                    let mut reader = std::io::Cursor::new(vec![first[0]]).chain(stream);
                    let mut writer = writer;
                    loop {
                        let Ok((tag, payload)) = read_frame(&mut reader, 1 << 20) else {
                            return;
                        };
                        let Ok(WireRequest::Ping { id }) = WireRequest::decode(tag, &payload)
                        else {
                            return;
                        };
                        let resp = WireResponse::Text {
                            id,
                            text: "pong".into(),
                        };
                        let frame =
                            arrayflow_wire::encode_frame(resp.tag(), &resp.encode_payload());
                        if writer.write_all(&frame).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn reconnect_keeps_the_negotiated_mode_and_connection_cached() {
        let conns = Arc::new(AtomicU32::new(0));
        let addr = json_server("S", true, Arc::clone(&conns));
        let mut client = Client::new(addr, cfg());

        // First request: the server kills the first connection, the retry
        // redials and succeeds.
        client
            .ping()
            .expect("retry should recover the dropped connection");
        assert_eq!(client.connects(), 2, "{client:?}");
        assert_eq!(client.retries(), 1, "{client:?}");

        // Subsequent requests reuse the reconnected slot: no new dial.
        client.ping().unwrap();
        client.ping().unwrap();
        assert_eq!(
            client.connects(),
            2,
            "reconnect must cache the mode: {client:?}"
        );
    }

    #[test]
    fn mode_slots_survive_alternating_protocols() {
        let conns = Arc::new(AtomicU32::new(0));
        let addr = dual_server(Arc::clone(&conns));
        let mut client = Client::new(addr, cfg());

        client.ping().unwrap();
        client.ping_binary().unwrap();
        client.ping().unwrap();
        client.ping_binary().unwrap();

        // One connection per protocol, not one per mode switch: the slots
        // keep both pinned connections alive side by side.
        assert_eq!(client.connects(), 2, "{client:?}");
        assert_eq!(conns.load(Ordering::SeqCst), 2);
    }

    /// Answers every `delta` with the typed `session_lost` error a
    /// failed-over replica produces (it never held the session), and
    /// everything else with ok — the client half of the failover drill.
    fn session_lost_server() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                std::thread::spawn(move || {
                    while let Some(line) = read_json_line(&mut stream, None) {
                        let json = Json::parse(line.as_bytes()).ok();
                        let id = json
                            .as_ref()
                            .and_then(|j| j.get("id").cloned())
                            .unwrap_or(Json::Null);
                        let verb = json
                            .as_ref()
                            .and_then(|j| j.get("verb"))
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string();
                        let resp = if verb == "delta" {
                            format!(
                                "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"session_lost\",\
                                 \"message\":\"unknown or expired session 7\"}}}}\n"
                            )
                        } else {
                            format!("{{\"id\":{id},\"ok\":true,\"result\":\"pong\"}}\n")
                        };
                        if stream.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn session_lost_is_typed_and_not_retried() {
        let addr = session_lost_server();
        let mut client = Client::new(addr, cfg());
        let err = client
            .delta(7, "000102030405060708090a0b0c0d0e0f", 1, "x := 1;")
            .expect_err("the fake replica lost the session");
        assert!(err.is_session_lost(), "{err:?}");
        assert!(
            !err.is_retryable(),
            "replaying the same delta cannot succeed"
        );
        assert_eq!(client.retries(), 0, "{client:?}");
        match err {
            ClientError::Service { kind, message } => {
                assert_eq!(kind, Some(ErrorKind::SessionLost));
                assert!(message.contains("session"), "{message}");
            }
            other => panic!("expected a Service error, got {other:?}"),
        }
    }

    #[test]
    fn retry_budget_caps_resends_below_max_retries() {
        // Nothing listens on port 1, so every attempt is a transport
        // failure. With a burst of 1 and no refill the envelope spends
        // exactly one retry before surfacing the error — max_retries
        // alone would have allowed four.
        let mut config = cfg();
        config.connect_timeout = Duration::from_millis(100);
        config.retry_burst = 1;
        config.retry_per_sec = 0.0;
        let mut client = Client::new("127.0.0.1:1", config);
        let err = client.ping().expect_err("nothing listens there");
        assert!(matches!(err, ClientError::Io(_)), "{err:?}");
        assert_eq!(client.retries(), 1, "{client:?}");
        assert!(client.retries_denied() >= 1, "{client:?}");
    }

    #[test]
    fn spent_deadline_budget_fails_fast_without_an_attempt() {
        let mut config = cfg();
        config.deadline = Some(Duration::ZERO);
        let mut client = Client::new("127.0.0.1:1", config);
        let err = client.ping().expect_err("budget already spent");
        assert!(
            matches!(err, ClientError::DeadlineExhausted { .. }),
            "{err:?}"
        );
        assert!(!err.is_retryable());
        assert_eq!(client.retries(), 0, "{client:?}");
        assert_eq!(client.connects(), 0, "no attempt may dial: {client:?}");
    }

    /// The JSON line the client's first attempt at `req` would send.
    fn first_json_attempt(client: &Client, req: &WireRequest) -> String {
        let (_, deadline_ms) = client.attempt_deadline(Instant::now(), &mut None).unwrap();
        let line = encode_attempt(ConnMode::Json, req, deadline_ms).unwrap();
        String::from_utf8(line).unwrap()
    }

    #[test]
    fn configured_deadline_rides_on_json_requests() {
        let mut config = cfg();
        config.deadline = Some(Duration::from_millis(250));
        let mut client = Client::new("127.0.0.1:1", config);
        let req = client.analyze_req(None, Some("x := 1;"));
        let frame = first_json_attempt(&client, &req);
        assert!(frame.contains(r#""deadline_ms":250"#), "{frame}");

        let bare = Client::new("127.0.0.1:1", cfg());
        let frame = first_json_attempt(&bare, &WireRequest::Ping { id: 1 });
        assert!(!frame.contains("deadline_ms"), "{frame}");
    }

    #[test]
    fn every_json_attempt_carries_the_remaining_budget() {
        // The server takes 30 ms to answer `overloaded`, so the retry
        // must ship a budget at least 30 ms smaller than the first
        // attempt's — and never the 0 that means "already expired".
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            while let Some(line) = read_json_line(&mut stream, None) {
                let json = Json::parse(line.as_bytes()).unwrap();
                let _ = seen_tx.send(json.get("deadline_ms").and_then(Json::as_u64));
                std::thread::sleep(Duration::from_millis(30));
                let id = json.get("id").cloned().unwrap_or(Json::Null);
                let resp = format!(
                    "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"overloaded\",\
                     \"message\":\"queue full\"}}}}\n"
                );
                if stream.write_all(resp.as_bytes()).is_err() {
                    return;
                }
            }
        });
        let mut config = cfg();
        config.max_retries = 1;
        config.deadline = Some(Duration::from_secs(2));
        let mut client = Client::new(addr, config);
        let err = client.analyze("x := 1;").expect_err("always overloaded");
        assert!(matches!(err, ClientError::Service { .. }), "{err:?}");
        assert_eq!(client.retries(), 1, "{client:?}");
        let first = seen_rx.recv().unwrap().expect("first attempt budget");
        let retry = seen_rx.recv().unwrap().expect("retry budget");
        assert!(retry >= 1, "{retry}");
        assert!(retry + 30 <= first, "first {first} ms, retry {retry} ms");
    }

    #[test]
    fn an_endless_response_line_is_a_protocol_error() {
        // A server streaming one byte past the cap without a newline must
        // not grow the client's buffer without bound: the read stops at
        // the cap, the connection drops, and nothing is retried.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let _ = read_json_line(&mut stream, None);
            let _ = stream.write_all(&vec![b'x'; MAX_RESPONSE_FRAME + 1]);
            // Hold the socket open until the client is done.
            let _ = done_rx.recv();
        });
        let mut client = Client::new(addr, cfg());
        let started = Instant::now();
        let err = client.ping().expect_err("the response never ends");
        let elapsed = started.elapsed();
        drop(done_tx);
        assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
        assert_eq!(client.retries(), 0, "{client:?}");
        assert!(elapsed < cfg().request_timeout / 2, "{elapsed:?}");
    }

    #[test]
    fn classify_splits_the_three_outcomes() {
        assert!(classify("{\"id\":1,\"ok\":true}\n").is_ok());
        match classify("{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full\"}}") {
            Err(e @ ClientError::Service { kind, .. }) => {
                assert_eq!(kind, Some(ErrorKind::Overloaded));
                assert!(e.is_retryable());
            }
            other => panic!("expected Service error, got {other:?}"),
        }
        match classify("{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"bad\"}}")
        {
            Err(e @ ClientError::Service { .. }) => assert!(!e.is_retryable()),
            other => panic!("expected Service error, got {other:?}"),
        }
        assert!(matches!(classify("garbage"), Err(ClientError::Protocol(_))));
        assert!(matches!(
            classify("{\"id\":1}"),
            Err(ClientError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_error_kind_degrades_gracefully() {
        match classify("{\"ok\":false,\"error\":{\"kind\":\"quantum\",\"message\":\"m\"}}") {
            Err(ClientError::Service { kind, message }) => {
                assert_eq!(kind, None);
                assert_eq!(message, "m");
            }
            other => panic!("expected Service error, got {other:?}"),
        }
    }
}
