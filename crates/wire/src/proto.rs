//! Binary protocol messages: what goes inside an `AFWIRE01` frame.
//!
//! One request frame yields exactly one response frame. Requests carry a
//! client-chosen `id` that the response echoes, so a pipelining client can
//! match responses without relying on ordering (the server does preserve
//! per-connection order, but the id makes the contract checkable).
//!
//! Analysis reports travel as **opaque store-codec bytes**
//! (`arrayflow-store`'s `encode_report`): the server ships the stored
//! encoding directly on a cache hit and the client decodes it with the
//! same shared codec — no re-serialization on the hot path.
//!
//! ```text
//! request tags            response tags
//!   0x01 Ping               0x81 Ok   (body kind: 0 text, 1 analyze,
//!   0x02 Analyze                       2 session, 3 delta)
//!   0x03 (reserved)          0x82 Err  (kind byte + message)
//!   0x04 Metrics
//!   0x05 Compact
//!   0x06 Shutdown
//!   0x07 Health
//!   0x08 Replicate
//!   0x09 Open
//!   0x0A Delta
//!   0x0B Custom
//! ```
//!
//! `Health` is the cluster router's failover probe: a cheap liveness +
//! identity check answered inline (text body with the node id). `Replicate`
//! is node-to-node: it carries a batch of store-codec record frames from a
//! primary to its designated replica, shipped verbatim so the replica's
//! cache and segment log stay warm for failover.

use std::time::Duration;

use crate::codec::{put_bytes, put_u128, put_varint, DecodeError, DecodeResult, Reader};
use crate::frame::encode_frame;

/// Request frame tags.
pub const TAG_PING: u8 = 0x01;
/// Analyze: source and/or fingerprint.
pub const TAG_ANALYZE: u8 = 0x02;
/// Metrics exposition (text body). Tag `0x03`, the retired stats
/// snapshot, stays reserved and decodes as an unknown tag.
pub const TAG_METRICS: u8 = 0x04;
/// Persistent-tier compaction.
pub const TAG_COMPACT: u8 = 0x05;
/// Graceful shutdown.
pub const TAG_SHUTDOWN: u8 = 0x06;
/// Node health / identity probe (router failover probes).
pub const TAG_HEALTH: u8 = 0x07;
/// Replication batch: store-codec record frames for a replica.
pub const TAG_REPLICATE: u8 = 0x08;
/// Open an interactive analysis session.
pub const TAG_OPEN: u8 = 0x09;
/// Apply a single-statement edit to an open session.
pub const TAG_DELTA: u8 = 0x0A;
/// Analyze under a user-specified (G, K) problem spec.
pub const TAG_CUSTOM: u8 = 0x0B;
/// Response frame tag: success.
pub const TAG_OK: u8 = 0x81;
/// Response frame tag: error.
pub const TAG_ERR: u8 = 0x82;

/// Request-tag bit marking a frame that carries a deadline prefix: the
/// payload starts with a varint `deadline_ms` budget, followed by the
/// ordinary payload for the base tag (`tag & !TAG_DEADLINE_BIT`).
///
/// Servers predating this extension reject the unknown tag with a clean
/// in-sync protocol error rather than misparsing the frame, so a client
/// may always send the prefix and fall back on `protocol` errors.
pub const TAG_DEADLINE_BIT: u8 = 0x40;

/// Upper clamp on a wire-supplied deadline budget (one hour). Absurd
/// values — hostile or buggy — are clamped here at decode rather than
/// trusted; the server then takes `min(budget, its own cap)`.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Splits a possibly-deadline-prefixed request frame into its base tag,
/// the clamped deadline budget (if the [`TAG_DEADLINE_BIT`] is set), and
/// the byte offset at which the base payload starts.
///
/// Without the bit this is a zero-cost passthrough. With it, the varint
/// prefix is decoded strictly (truncated or overlong varints fail) and
/// clamped to [`MAX_DEADLINE_MS`]; a zero budget is preserved — it means
/// "already expired" and lets a server shed the request before parsing.
pub fn strip_deadline(tag: u8, payload: &[u8]) -> DecodeResult<(u8, Option<u64>, usize)> {
    if tag & TAG_DEADLINE_BIT == 0 {
        return Ok((tag, None, 0));
    }
    let mut r = Reader::new(payload);
    let ms = r.varint()?;
    let consumed = payload.len() - r.remaining();
    Ok((
        tag & !TAG_DEADLINE_BIT,
        Some(ms.min(MAX_DEADLINE_MS)),
        consumed,
    ))
}

/// Prefixes a request payload with a deadline budget: returns the tag
/// with [`TAG_DEADLINE_BIT`] set and the payload with the varint
/// `deadline_ms` (clamped to [`MAX_DEADLINE_MS`]) prepended. The inverse
/// of [`strip_deadline`].
pub fn with_deadline(tag: u8, payload: &[u8], deadline_ms: u64) -> (u8, Vec<u8>) {
    let mut out = Vec::with_capacity(payload.len() + 10);
    put_varint(&mut out, deadline_ms.min(MAX_DEADLINE_MS));
    out.extend_from_slice(payload);
    (tag | TAG_DEADLINE_BIT, out)
}

/// A remaining budget in the whole milliseconds the wire carries, rounded
/// up: an attempt with under a millisecond left still ships `1`, never
/// the `0` that means "already expired".
pub fn ceil_millis(remaining: Duration) -> u64 {
    u64::try_from(remaining.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX)
}

const BODY_TEXT: u8 = 0;
const BODY_ANALYZE: u8 = 1;
const BODY_SESSION: u8 = 2;
const BODY_DELTA: u8 = 3;

const FLAG_SOURCE: u8 = 1 << 0;
const FLAG_FINGERPRINT: u8 = 1 << 1;
const FLAG_PROBLEMS: u8 = 1 << 2;
const FLAG_DISTANCE: u8 = 1 << 3;

/// The flag byte and the optional fields it announces, in wire order: the
/// shared tail of analyze and custom payloads.
fn put_flagged(
    out: &mut Vec<u8>,
    fingerprint: &Option<[u8; 16]>,
    problems: Option<u8>,
    distance_bound: Option<u64>,
    source: &Option<Vec<u8>>,
) {
    let flag = |present: bool, bit: u8| if present { bit } else { 0 };
    out.push(
        flag(source.is_some(), FLAG_SOURCE)
            | flag(fingerprint.is_some(), FLAG_FINGERPRINT)
            | flag(problems.is_some(), FLAG_PROBLEMS)
            | flag(distance_bound.is_some(), FLAG_DISTANCE),
    );
    if let Some(fp) = fingerprint {
        out.extend_from_slice(fp);
    }
    out.extend(problems);
    if let Some(d) = distance_bound {
        put_varint(out, d);
    }
    if let Some(src) = source {
        put_bytes(out, src);
    }
}

/// An analyze request: at least one of `source` / `fingerprint` must be
/// present. With only a fingerprint the server probes its caches and
/// never parses; with source it can always fall back to full analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Canonical 128-bit fingerprint (little-endian bytes) of the
    /// program's outermost loop, if the client precomputed it.
    pub fingerprint: Option<[u8; 16]>,
    /// Problem-set bits (engine `ProblemSet::bits`); server default when
    /// absent.
    pub problems: Option<u8>,
    /// Dependence distance bound; server default when absent.
    pub distance_bound: Option<u64>,
    /// DSL program source (UTF-8), if supplied.
    pub source: Option<Vec<u8>>,
}

/// The valid range of a custom-spec byte: six low bits (`CustomSpec::bits`
/// in `arrayflow-core`), and the two G bits must not both be clear — a
/// problem that generates nothing solves to bottom everywhere and is
/// always a client error. Checked at decode so hostile bytes die here.
fn custom_spec_byte_is_valid(spec: u8) -> bool {
    spec & !0b11_1111 == 0 && spec & 0b11 != 0
}

/// A custom-problem request: like [`AnalyzeRequest`], but instead of a
/// canned problem selection it carries a (G, K) spec byte (core
/// `CustomSpec::bits`) naming which site roles generate and kill, the
/// direction, and the confluence mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// `CustomSpec::bits` encoding of the (G, K) problem.
    pub spec: u8,
    /// Canonical 128-bit fingerprint (little-endian bytes), if the client
    /// precomputed it; enables the probe-only fast path.
    pub fingerprint: Option<[u8; 16]>,
    /// Dependence distance bound; server default when absent.
    pub distance_bound: Option<u64>,
    /// DSL program source (UTF-8), if supplied.
    pub source: Option<Vec<u8>>,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: u64,
    },
    /// Run (or look up) an analysis.
    Analyze(AnalyzeRequest),
    /// Metrics exposition.
    Metrics {
        /// Echoed id.
        id: u64,
    },
    /// Compact the persistent tier.
    Compact {
        /// Echoed id.
        id: u64,
    },
    /// Graceful shutdown.
    Shutdown {
        /// Echoed id.
        id: u64,
    },
    /// Health / identity probe: answered inline with a text body carrying
    /// the node id, so a router can both check liveness and verify it is
    /// talking to the node it thinks it is.
    Health {
        /// Echoed id.
        id: u64,
    },
    /// A replication batch: opaque store-codec record frames (the same
    /// `len | crc32 | payload` framing the segment log uses), shipped
    /// verbatim from a primary node to its designated replica.
    Replicate {
        /// Echoed id.
        id: u64,
        /// Concatenated record frames, validated record-by-record by the
        /// receiver (CRC + decode) before anything is applied.
        batch: Vec<u8>,
    },
    /// Open an interactive analysis session over a program: analyze it
    /// once, retain the converged state, answer with a session id.
    Open {
        /// Echoed id.
        id: u64,
        /// DSL program source (UTF-8).
        source: Vec<u8>,
    },
    /// Apply one single-statement edit to an open session and re-converge.
    Delta {
        /// Echoed id.
        id: u64,
        /// The session id returned by the open (or previous delta)
        /// response.
        session: u64,
        /// Canonical fingerprint of the session's *current* loop
        /// (little-endian bytes), as returned by the previous response.
        /// The cluster router routes deltas by this base fingerprint, so
        /// a session stays pinned to the shard that holds it.
        fingerprint: [u8; 16],
        /// Statement id (textual order, 0-based) of the assignment to
        /// replace.
        stmt: u64,
        /// Replacement statement source (UTF-8).
        text: Vec<u8>,
    },
    /// Run (or look up) an analysis under a user-specified (G, K) spec.
    Custom(CustomRequest),
}

impl Request {
    /// The frame tag for this request.
    pub fn tag(&self) -> u8 {
        match self {
            Request::Ping { .. } => TAG_PING,
            Request::Analyze(_) => TAG_ANALYZE,
            Request::Metrics { .. } => TAG_METRICS,
            Request::Compact { .. } => TAG_COMPACT,
            Request::Shutdown { .. } => TAG_SHUTDOWN,
            Request::Health { .. } => TAG_HEALTH,
            Request::Replicate { .. } => TAG_REPLICATE,
            Request::Open { .. } => TAG_OPEN,
            Request::Delta { .. } => TAG_DELTA,
            Request::Custom(_) => TAG_CUSTOM,
        }
    }

    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Ping { id }
            | Request::Metrics { id }
            | Request::Compact { id }
            | Request::Shutdown { id }
            | Request::Health { id }
            | Request::Replicate { id, .. }
            | Request::Open { id, .. }
            | Request::Delta { id, .. } => *id,
            Request::Analyze(a) => a.id,
            Request::Custom(c) => c.id,
        }
    }

    /// Encodes the frame payload (not the frame itself).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping { id }
            | Request::Metrics { id }
            | Request::Compact { id }
            | Request::Shutdown { id }
            | Request::Health { id } => put_varint(&mut out, *id),
            Request::Replicate { id, batch } => {
                put_varint(&mut out, *id);
                put_bytes(&mut out, batch);
            }
            Request::Open { id, source } => {
                put_varint(&mut out, *id);
                put_bytes(&mut out, source);
            }
            Request::Delta {
                id,
                session,
                fingerprint,
                stmt,
                text,
            } => {
                put_varint(&mut out, *id);
                put_varint(&mut out, *session);
                out.extend_from_slice(fingerprint);
                put_varint(&mut out, *stmt);
                put_bytes(&mut out, text);
            }
            Request::Analyze(a) => {
                put_varint(&mut out, a.id);
                put_flagged(
                    &mut out,
                    &a.fingerprint,
                    a.problems,
                    a.distance_bound,
                    &a.source,
                );
            }
            Request::Custom(c) => {
                put_varint(&mut out, c.id);
                out.push(c.spec);
                put_flagged(&mut out, &c.fingerprint, None, c.distance_bound, &c.source);
            }
        }
        out
    }

    /// Encodes the whole request frame, behind a deadline prefix
    /// ([`with_deadline`]) when `deadline_ms` is given.
    pub fn to_frame(&self, deadline_ms: Option<u64>) -> Vec<u8> {
        let (tag, payload) = match deadline_ms {
            Some(ms) => with_deadline(self.tag(), &self.encode_payload(), ms),
            None => (self.tag(), self.encode_payload()),
        };
        encode_frame(tag, &payload)
    }

    /// Decodes a request from a frame's tag + payload.
    pub fn decode(tag: u8, payload: &[u8]) -> DecodeResult<Request> {
        let mut r = Reader::new(payload);
        let id = r.varint()?;
        let req = match tag {
            TAG_PING => Request::Ping { id },
            TAG_METRICS => Request::Metrics { id },
            TAG_COMPACT => Request::Compact { id },
            TAG_SHUTDOWN => Request::Shutdown { id },
            TAG_HEALTH => Request::Health { id },
            TAG_REPLICATE => Request::Replicate {
                id,
                batch: r.len_bytes()?.to_vec(),
            },
            TAG_OPEN => Request::Open {
                id,
                source: r.len_bytes()?.to_vec(),
            },
            TAG_DELTA => {
                let session = r.varint()?;
                let mut fingerprint = [0u8; 16];
                fingerprint.copy_from_slice(r.bytes(16)?);
                let stmt = r.varint()?;
                let text = r.len_bytes()?.to_vec();
                Request::Delta {
                    id,
                    session,
                    fingerprint,
                    stmt,
                    text,
                }
            }
            TAG_ANALYZE => {
                let flags = r.u8()?;
                if flags & !(FLAG_SOURCE | FLAG_FINGERPRINT | FLAG_PROBLEMS | FLAG_DISTANCE) != 0 {
                    return Err(DecodeError::BadDiscriminant);
                }
                let fingerprint = if flags & FLAG_FINGERPRINT != 0 {
                    let mut fp = [0u8; 16];
                    fp.copy_from_slice(r.bytes(16)?);
                    Some(fp)
                } else {
                    None
                };
                let problems = if flags & FLAG_PROBLEMS != 0 {
                    Some(r.u8()?)
                } else {
                    None
                };
                let distance_bound = if flags & FLAG_DISTANCE != 0 {
                    Some(r.varint()?)
                } else {
                    None
                };
                let source = if flags & FLAG_SOURCE != 0 {
                    Some(r.len_bytes()?.to_vec())
                } else {
                    None
                };
                if fingerprint.is_none() && source.is_none() {
                    return Err(DecodeError::BadDiscriminant);
                }
                Request::Analyze(AnalyzeRequest {
                    id,
                    fingerprint,
                    problems,
                    distance_bound,
                    source,
                })
            }
            TAG_CUSTOM => {
                let spec = r.u8()?;
                if !custom_spec_byte_is_valid(spec) {
                    return Err(DecodeError::BadDiscriminant);
                }
                let flags = r.u8()?;
                if flags & !(FLAG_SOURCE | FLAG_FINGERPRINT | FLAG_DISTANCE) != 0 {
                    return Err(DecodeError::BadDiscriminant);
                }
                let fingerprint = if flags & FLAG_FINGERPRINT != 0 {
                    let mut fp = [0u8; 16];
                    fp.copy_from_slice(r.bytes(16)?);
                    Some(fp)
                } else {
                    None
                };
                let distance_bound = if flags & FLAG_DISTANCE != 0 {
                    Some(r.varint()?)
                } else {
                    None
                };
                let source = if flags & FLAG_SOURCE != 0 {
                    Some(r.len_bytes()?.to_vec())
                } else {
                    None
                };
                if fingerprint.is_none() && source.is_none() {
                    return Err(DecodeError::BadDiscriminant);
                }
                Request::Custom(CustomRequest {
                    id,
                    spec,
                    fingerprint,
                    distance_bound,
                    source,
                })
            }
            _ => return Err(DecodeError::BadDiscriminant),
        };
        r.finish()?;
        Ok(req)
    }
}

/// One analyzed loop: its canonical fingerprint plus the store-codec
/// report bytes, shipped verbatim from cache or store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopEntry {
    /// Canonical fingerprint (little-endian bytes).
    pub fingerprint: [u8; 16],
    /// `arrayflow-store` `encode_report` bytes.
    pub report: Vec<u8>,
}

/// A successful analyze response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOk {
    /// Echoed request id.
    pub id: u64,
    /// One entry per analyzed loop, outermost-first.
    pub loops: Vec<LoopEntry>,
    /// Memo-cache hits for this request.
    pub cache_hits: u64,
    /// Memo-cache misses for this request.
    pub cache_misses: u64,
    /// Solver passes run.
    pub solver_passes: u64,
    /// Data-flow node visits.
    pub node_visits: u64,
}

/// A successful session-open response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOk {
    /// Echoed request id.
    pub id: u64,
    /// The opened session's id — pass it to subsequent deltas.
    pub session: u64,
    /// Canonical fingerprint of the session's loop (little-endian bytes);
    /// route subsequent deltas by this value.
    pub fingerprint: [u8; 16],
    /// Store-codec report bytes for the initial analysis.
    pub report: Vec<u8>,
}

/// A successful delta response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOk {
    /// Echoed request id.
    pub id: u64,
    /// Echoed session id.
    pub session: u64,
    /// Canonical fingerprint of the loop *after* the edit — the base
    /// fingerprint for the next delta.
    pub fingerprint: [u8; 16],
    /// Store-codec report bytes for the edited loop.
    pub report: Vec<u8>,
    /// True when the edit forced a full re-analysis.
    pub fallback: bool,
    /// Lattice columns re-solved incrementally (0 on fallback).
    pub dirty_columns: u64,
    /// Total lattice columns across the instances.
    pub total_columns: u64,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Text body (ping/health/metrics/compact/shutdown results).
    Text {
        /// Echoed request id.
        id: u64,
        /// UTF-8 body (JSON for health, exposition text for metrics, …).
        text: String,
    },
    /// Analyze result.
    Analyze(AnalyzeOk),
    /// Session opened.
    Session(SessionOk),
    /// Delta applied.
    Delta(DeltaOk),
    /// Error.
    Err {
        /// Echoed request id.
        id: u64,
        /// Error kind byte (service `ErrorKind` wire value).
        kind: u8,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// The frame tag for this response.
    pub fn tag(&self) -> u8 {
        match self {
            Response::Err { .. } => TAG_ERR,
            _ => TAG_OK,
        }
    }

    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Text { id, .. } | Response::Err { id, .. } => *id,
            Response::Analyze(a) => a.id,
            Response::Session(s) => s.id,
            Response::Delta(d) => d.id,
        }
    }

    /// Encodes the frame payload (not the frame itself).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Text { id, text } => {
                put_varint(&mut out, *id);
                out.push(BODY_TEXT);
                put_bytes(&mut out, text.as_bytes());
            }
            Response::Analyze(a) => {
                put_varint(&mut out, a.id);
                out.push(BODY_ANALYZE);
                put_varint(&mut out, a.loops.len() as u64);
                for l in &a.loops {
                    put_u128(&mut out, u128::from_le_bytes(l.fingerprint));
                    put_bytes(&mut out, &l.report);
                }
                put_varint(&mut out, a.cache_hits);
                put_varint(&mut out, a.cache_misses);
                put_varint(&mut out, a.solver_passes);
                put_varint(&mut out, a.node_visits);
            }
            Response::Session(s) => {
                put_varint(&mut out, s.id);
                out.push(BODY_SESSION);
                put_varint(&mut out, s.session);
                put_u128(&mut out, u128::from_le_bytes(s.fingerprint));
                put_bytes(&mut out, &s.report);
            }
            Response::Delta(d) => {
                put_varint(&mut out, d.id);
                out.push(BODY_DELTA);
                put_varint(&mut out, d.session);
                put_u128(&mut out, u128::from_le_bytes(d.fingerprint));
                out.push(d.fallback as u8);
                put_varint(&mut out, d.dirty_columns);
                put_varint(&mut out, d.total_columns);
                put_bytes(&mut out, &d.report);
            }
            Response::Err { id, kind, message } => {
                put_varint(&mut out, *id);
                out.push(*kind);
                put_bytes(&mut out, message.as_bytes());
            }
        }
        out
    }

    /// Decodes a response from a frame's tag + payload.
    pub fn decode(tag: u8, payload: &[u8]) -> DecodeResult<Response> {
        let mut r = Reader::new(payload);
        let id = r.varint()?;
        let resp = match tag {
            TAG_OK => match r.u8()? {
                BODY_TEXT => {
                    let text = String::from_utf8(r.len_bytes()?.to_vec())
                        .map_err(|_| DecodeError::BadDiscriminant)?;
                    Response::Text { id, text }
                }
                BODY_ANALYZE => {
                    let n = r.count(17)?; // fingerprint + at least a length byte
                    let mut loops = Vec::with_capacity(n);
                    for _ in 0..n {
                        let fingerprint = r.u128()?.to_le_bytes();
                        let report = r.len_bytes()?.to_vec();
                        loops.push(LoopEntry {
                            fingerprint,
                            report,
                        });
                    }
                    let cache_hits = r.varint()?;
                    let cache_misses = r.varint()?;
                    let solver_passes = r.varint()?;
                    let node_visits = r.varint()?;
                    Response::Analyze(AnalyzeOk {
                        id,
                        loops,
                        cache_hits,
                        cache_misses,
                        solver_passes,
                        node_visits,
                    })
                }
                BODY_SESSION => {
                    let session = r.varint()?;
                    let fingerprint = r.u128()?.to_le_bytes();
                    let report = r.len_bytes()?.to_vec();
                    Response::Session(SessionOk {
                        id,
                        session,
                        fingerprint,
                        report,
                    })
                }
                BODY_DELTA => {
                    let session = r.varint()?;
                    let fingerprint = r.u128()?.to_le_bytes();
                    let fallback = match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(DecodeError::BadDiscriminant),
                    };
                    let dirty_columns = r.varint()?;
                    let total_columns = r.varint()?;
                    let report = r.len_bytes()?.to_vec();
                    Response::Delta(DeltaOk {
                        id,
                        session,
                        fingerprint,
                        report,
                        fallback,
                        dirty_columns,
                        total_columns,
                    })
                }
                _ => return Err(DecodeError::BadDiscriminant),
            },
            TAG_ERR => {
                let kind = r.u8()?;
                let message = String::from_utf8(r.len_bytes()?.to_vec())
                    .map_err(|_| DecodeError::BadDiscriminant)?;
                Response::Err { id, kind, message }
            }
            _ => return Err(DecodeError::BadDiscriminant),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode_payload();
        let back = Request::decode(req.tag(), &payload).unwrap();
        assert_eq!(back, req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode_payload();
        let back = Response::decode(resp.tag(), &payload).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping { id: 0 });
        round_trip_request(Request::Metrics { id: u64::MAX });
        round_trip_request(Request::Compact { id: 3 });
        round_trip_request(Request::Shutdown { id: 4 });
        round_trip_request(Request::Health { id: 11 });
        round_trip_request(Request::Replicate {
            id: 12,
            batch: vec![0xDE, 0xAD, 0xBE, 0xEF],
        });
        round_trip_request(Request::Replicate {
            id: 13,
            batch: Vec::new(),
        });
        round_trip_request(Request::Analyze(AnalyzeRequest {
            id: 42,
            fingerprint: Some([9; 16]),
            problems: Some(0b1111),
            distance_bound: Some(8),
            source: Some(b"do i = 1, n\nend".to_vec()),
        }));
        round_trip_request(Request::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint: Some([0; 16]),
            problems: None,
            distance_bound: None,
            source: None,
        }));
        round_trip_request(Request::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(b"x".to_vec()),
        }));
        round_trip_request(Request::Open {
            id: 14,
            source: b"do i = 1, 10 A[i] := 0; end".to_vec(),
        });
        round_trip_request(Request::Delta {
            id: 15,
            session: 7,
            fingerprint: [0xAB; 16],
            stmt: 3,
            text: b"A[i+1] := A[i];".to_vec(),
        });
        round_trip_request(Request::Delta {
            id: 16,
            session: u64::MAX,
            fingerprint: [0; 16],
            stmt: 0,
            text: Vec::new(),
        });
        round_trip_request(Request::Custom(CustomRequest {
            id: 17,
            spec: 0b11_0110, // live elements: G=uses, K=defs, backward, may
            fingerprint: Some([6; 16]),
            distance_bound: Some(8),
            source: Some(b"do i = 1, n A[i] := A[i]; end".to_vec()),
        }));
        round_trip_request(Request::Custom(CustomRequest {
            id: 18,
            spec: 0b00_0001, // G=defs, nothing kills, forward, must
            fingerprint: None,
            distance_bound: None,
            source: Some(b"x".to_vec()),
        }));
        round_trip_request(Request::Custom(CustomRequest {
            id: 19,
            spec: 0b00_0111,
            fingerprint: Some([0; 16]),
            distance_bound: None,
            source: None,
        }));
    }

    #[test]
    fn custom_spec_byte_validation_at_decode() {
        let payload_for = |spec: u8| {
            let mut payload = Vec::new();
            put_varint(&mut payload, 1); // id
            payload.push(spec);
            payload.push(FLAG_SOURCE);
            put_bytes(&mut payload, b"x");
            payload
        };
        // High bits beyond the six spec bits: rejected.
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload_for(0b100_0001)),
            Err(DecodeError::BadDiscriminant)
        );
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload_for(0xFF)),
            Err(DecodeError::BadDiscriminant)
        );
        // Empty G (nothing generates): rejected.
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload_for(0b00_0000)),
            Err(DecodeError::BadDiscriminant)
        );
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload_for(0b11_1100)),
            Err(DecodeError::BadDiscriminant)
        );
        // Every valid byte decodes.
        for spec in 0..=0b11_1111u8 {
            let ok = Request::decode(TAG_CUSTOM, &payload_for(spec)).is_ok();
            assert_eq!(ok, spec & 0b11 != 0, "spec {spec:#08b}");
        }
    }

    #[test]
    fn custom_without_source_or_fingerprint_is_rejected() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.push(0b00_0001);
        payload.push(0); // flags: neither source nor fingerprint
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload),
            Err(DecodeError::BadDiscriminant)
        );
        // Unknown flag bits (FLAG_PROBLEMS has no meaning here): rejected.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.push(0b00_0001);
        payload.push(FLAG_PROBLEMS);
        assert_eq!(
            Request::decode(TAG_CUSTOM, &payload),
            Err(DecodeError::BadDiscriminant)
        );
    }

    #[test]
    fn custom_hostile_bytes_do_not_panic() {
        // Truncation at every prefix of a full frame.
        let payload = Request::Custom(CustomRequest {
            id: 9,
            spec: 0b10_0101,
            fingerprint: Some([7; 16]),
            distance_bound: Some(4),
            source: Some(b"do i = 1, 2 A[i] := 0; end".to_vec()),
        })
        .encode_payload();
        for len in 0..payload.len() {
            assert!(
                Request::decode(TAG_CUSTOM, &payload[..len]).is_err(),
                "len {len}"
            );
        }
        // Trailing bytes rejected.
        let mut noisy = payload.clone();
        noisy.push(0);
        assert_eq!(
            Request::decode(TAG_CUSTOM, &noisy),
            Err(DecodeError::TrailingBytes)
        );
        // Source length prefix past the end of the payload.
        let mut p = Vec::new();
        put_varint(&mut p, 1);
        p.push(0b00_0011);
        p.push(FLAG_SOURCE);
        put_varint(&mut p, 1 << 40); // claimed length, no bytes follow
        assert!(Request::decode(TAG_CUSTOM, &p).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Text {
            id: 5,
            text: "pong".into(),
        });
        round_trip_response(Response::Analyze(AnalyzeOk {
            id: 6,
            loops: vec![
                LoopEntry {
                    fingerprint: [1; 16],
                    report: vec![1, 2, 3, 4],
                },
                LoopEntry {
                    fingerprint: [2; 16],
                    report: vec![],
                },
            ],
            cache_hits: 10,
            cache_misses: 2,
            solver_passes: 3,
            node_visits: 999,
        }));
        round_trip_response(Response::Err {
            id: 7,
            kind: 2,
            message: "deadline exceeded".into(),
        });
        round_trip_response(Response::Session(SessionOk {
            id: 8,
            session: 77,
            fingerprint: [3; 16],
            report: vec![9, 8, 7],
        }));
        round_trip_response(Response::Delta(DeltaOk {
            id: 9,
            session: 77,
            fingerprint: [4; 16],
            report: vec![1],
            fallback: true,
            dirty_columns: 0,
            total_columns: 12,
        }));
        round_trip_response(Response::Delta(DeltaOk {
            id: 10,
            session: 1,
            fingerprint: [5; 16],
            report: Vec::new(),
            fallback: false,
            dirty_columns: 3,
            total_columns: 12,
        }));
    }

    #[test]
    fn hostile_session_frames_are_rejected() {
        // Delta with a truncated fingerprint.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // id
        put_varint(&mut payload, 2); // session
        payload.extend_from_slice(&[0u8; 8]); // half a fingerprint
        assert!(Request::decode(TAG_DELTA, &payload).is_err());

        // Delta response with a fallback byte that is neither 0 nor 1.
        let good = Response::Delta(DeltaOk {
            id: 1,
            session: 2,
            fingerprint: [0; 16],
            report: Vec::new(),
            fallback: false,
            dirty_columns: 0,
            total_columns: 0,
        });
        let mut payload = good.encode_payload();
        // Layout: varint id, kind byte, varint session, 16 fp bytes, fallback.
        let fallback_at = 1 + 1 + 1 + 16;
        payload[fallback_at] = 2;
        assert_eq!(
            Response::decode(TAG_OK, &payload),
            Err(DecodeError::BadDiscriminant)
        );

        // Open with trailing bytes.
        let mut payload = Request::Open {
            id: 1,
            source: b"x".to_vec(),
        }
        .encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode(TAG_OPEN, &payload),
            Err(DecodeError::TrailingBytes)
        );

        // Delta with a text length prefix past the end of the payload.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 2);
        payload.extend_from_slice(&[0u8; 16]);
        put_varint(&mut payload, 0); // stmt
        put_varint(&mut payload, 100); // text length, no bytes follow
        assert!(Request::decode(TAG_DELTA, &payload).is_err());
    }

    #[test]
    fn analyze_without_source_or_fingerprint_is_rejected() {
        // flags = 0: neither source nor fingerprint.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.push(0);
        assert_eq!(
            Request::decode(TAG_ANALYZE, &payload),
            Err(DecodeError::BadDiscriminant)
        );
    }

    #[test]
    fn unknown_tags_and_flags_are_rejected() {
        assert!(Request::decode(0x7F, &[0]).is_err());
        // The retired stats tag stays reserved.
        assert_eq!(
            Request::decode(0x03, &[0]),
            Err(DecodeError::BadDiscriminant)
        );
        assert!(Response::decode(0x00, &[0]).is_err());
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        payload.push(0xF0); // unknown flag bits
        assert_eq!(
            Request::decode(TAG_ANALYZE, &payload),
            Err(DecodeError::BadDiscriminant)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping { id: 1 }.encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode(TAG_PING, &payload),
            Err(DecodeError::TrailingBytes)
        );
        let mut payload = Request::Health { id: 1 }.encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode(TAG_HEALTH, &payload),
            Err(DecodeError::TrailingBytes)
        );
        let mut payload = Request::Replicate {
            id: 1,
            batch: vec![1, 2],
        }
        .encode_payload();
        payload.push(0);
        assert_eq!(
            Request::decode(TAG_REPLICATE, &payload),
            Err(DecodeError::TrailingBytes)
        );
    }

    #[test]
    fn deadline_prefix_round_trips_and_clamps() {
        let inner = Request::Ping { id: 9 }.encode_payload();
        let (tag, payload) = with_deadline(TAG_PING, &inner, 1500);
        assert_eq!(tag, TAG_PING | TAG_DEADLINE_BIT);
        let (base, budget, off) = strip_deadline(tag, &payload).unwrap();
        assert_eq!((base, budget), (TAG_PING, Some(1500)));
        assert_eq!(
            Request::decode(base, &payload[off..]),
            Ok(Request::Ping { id: 9 })
        );

        // Without the bit: passthrough, no budget, zero offset.
        assert_eq!(
            strip_deadline(TAG_ANALYZE, &[1, 2, 3]),
            Ok((TAG_ANALYZE, None, 0))
        );

        // Absurd budgets clamp at both ends of the pipe.
        let (tag, payload) = with_deadline(TAG_PING, &inner, u64::MAX);
        let (_, budget, _) = strip_deadline(tag, &payload).unwrap();
        assert_eq!(budget, Some(MAX_DEADLINE_MS));
        let mut hostile = Vec::new();
        put_varint(&mut hostile, u64::MAX);
        hostile.extend_from_slice(&inner);
        let (_, budget, _) = strip_deadline(TAG_PING | TAG_DEADLINE_BIT, &hostile).unwrap();
        assert_eq!(budget, Some(MAX_DEADLINE_MS));

        // Zero means "already expired" and is preserved, not dropped.
        let (tag, payload) = with_deadline(TAG_PING, &inner, 0);
        let (_, budget, _) = strip_deadline(tag, &payload).unwrap();
        assert_eq!(budget, Some(0));
    }

    #[test]
    fn remaining_budgets_round_up_to_whole_milliseconds() {
        assert_eq!(ceil_millis(Duration::from_micros(200)), 1);
        assert_eq!(ceil_millis(Duration::from_micros(249_100)), 250);
        assert_eq!(ceil_millis(Duration::ZERO), 0);
        assert_eq!(ceil_millis(Duration::from_millis(250)), 250);
    }

    #[test]
    fn hostile_deadline_prefixes_are_rejected() {
        // Empty payload with the deadline bit set: truncated varint.
        assert!(strip_deadline(TAG_PING | TAG_DEADLINE_BIT, &[]).is_err());
        // A varint that never terminates (all continuation bits set).
        assert!(strip_deadline(TAG_PING | TAG_DEADLINE_BIT, &[0xFF; 11]).is_err());
        // An overlong-but-terminated varint overflowing 64 bits.
        let mut p = vec![0xFF; 9];
        p.push(0x7F);
        assert!(strip_deadline(TAG_PING | TAG_DEADLINE_BIT, &p).is_err());
        // A valid prefix but garbage base payload still fails in decode.
        let (tag, payload) = with_deadline(TAG_OPEN, &[0xFF, 0xFF], 10);
        let (base, _, off) = strip_deadline(tag, &payload).unwrap();
        assert!(Request::decode(base, &payload[off..]).is_err());
    }

    #[test]
    fn replicate_truncated_batch_is_rejected() {
        // Length prefix claims more bytes than are present.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 10);
        payload.extend_from_slice(&[1, 2, 3]);
        assert!(Request::decode(TAG_REPLICATE, &payload).is_err());
    }
}
