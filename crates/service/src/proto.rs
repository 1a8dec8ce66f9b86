//! The JSON edge codec: newline-framed JSON requests and responses,
//! decoded onto the one request model ([`arrayflow_wire::proto::Request`])
//! and encoded back from the service's answers — and, for the
//! [`Client`](crate::Client), the other way round: requests encoded from
//! the model ([`JsonRequest::encode`]) and response lines classified back.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}
//! ← {"id": 1, "ok": true, "result": {"loops": [...], "stats": {...}}}
//! → {"id": 2, "verb": "nope"}
//! ← {"id": 2, "ok": false, "error": {"kind": "protocol", "message": "unknown verb `nope`"}}
//! ```
//!
//! Requests carry `id` (any JSON value, echoed back verbatim so clients
//! can pipeline), `verb` (`analyze` | `custom` | `open` | `delta` |
//! `metrics` | `ping` | `health` | `compact` | `shutdown`), and
//! for `analyze`/`open`: `program` (DSL text), optional `problems` (array
//! of instance names; default all) and optional `distance_bound` (default
//! from the server config). `custom` carries `program` plus a `spec`
//! object naming a user-defined (G, K) problem:
//!
//! ```text
//! {"verb": "custom", "program": "...",
//!  "spec": {"gen": ["uses"], "kill": ["defs"],
//!           "direction": "backward", "mode": "may"}}
//! ```
//!
//! `delta` carries `session` (the id `open`
//! returned), `fingerprint` (the session's current base fingerprint, hex —
//! the cluster router's shard key), `stmt` (the statement id to replace)
//! and `text` (replacement source). Errors come back structured, never as
//! a dropped connection: [`ErrorKind`] is the taxonomy.

use std::fmt;

use arrayflow_engine::{
    AnalysisReport, BatchResult, CustomSpec, DeltaReport, Direction, Mode, ProblemSet, CANNED,
};
use arrayflow_wire::proto::{AnalyzeRequest, CustomRequest, Request};

use crate::client::ClientError;
use crate::json::Json;
use crate::service::Answer;

/// Why a malformed `fingerprint` is refused, by the decoder and the client.
pub(crate) const BAD_FINGERPRINT: &str = "`fingerprint` must be 32 hex characters";

/// The verbs a JSON request may name.
const VERBS: [&str; 9] = [
    "analyze", "custom", "open", "delta", "metrics", "health", "compact", "shutdown", "ping",
];

/// The failure classes a response can carry. Everything the server
/// can get wrong maps onto exactly one of these, so clients can switch on
/// `error.kind` without string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The DSL program did not parse (invalid UTF-8 included).
    Parse,
    /// The program parsed but a loop could not be analyzed.
    Analysis,
    /// The bounded in-flight queue was full (or the service is shutting
    /// down); back off and retry.
    Overloaded,
    /// The frame itself was unusable: malformed JSON, oversized frame,
    /// unknown verb, missing/mistyped fields.
    Protocol,
    /// The session named by a `delta` no longer exists on the node that
    /// answered — typically because the cluster failed the request over to
    /// a replica after the primary (which held the in-memory session) went
    /// down. Unlike a plain `analysis` error, this one is retryable at the
    /// protocol level: re-`open` the program and replay the edits.
    SessionLost,
    /// The request was abandoned before its work completed: either the
    /// owning connection dropped (nobody is waiting for the answer) or
    /// the request's deadline (the client's budget, capped by the
    /// server's) passed while it was queued or mid-analysis. Not retryable —
    /// a fresh request with a fresh budget is the only sensible follow-up.
    Cancelled,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Analysis => "analysis",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Protocol => "protocol",
            ErrorKind::SessionLost => "session_lost",
            ErrorKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`as_str`](ErrorKind::as_str): decodes the wire name a
    /// response carries in `error.kind`. `None` for unknown names, so a
    /// newer server's kinds degrade gracefully at older clients. The name
    /// `timeout`, a retired kind, is reserved and decodes as unknown.
    pub fn from_wire(name: &str) -> Option<ErrorKind> {
        match name {
            "parse" => Some(ErrorKind::Parse),
            "analysis" => Some(ErrorKind::Analysis),
            "overloaded" => Some(ErrorKind::Overloaded),
            "protocol" => Some(ErrorKind::Protocol),
            "session_lost" => Some(ErrorKind::SessionLost),
            "cancelled" => Some(ErrorKind::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured service error: taxonomy kind plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Which failure class.
    pub kind: ErrorKind,
    /// Details for humans; not part of the stable protocol.
    pub message: String,
}

impl ServiceError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// One decoded JSON request line: the client's id, the request in the
/// one request model, and the client's deadline budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonRequest {
    /// Client-chosen correlation id, echoed back verbatim (any JSON value;
    /// `null` when absent).
    pub id: Json,
    /// The request. Its wire id is 0: JSON correlates by [`Self::id`].
    /// `analyze` and `custom` never carry a fingerprint from this edge.
    pub request: Request,
    /// Client deadline budget in milliseconds, optional on any verb and
    /// ignored by servers predating it (unknown JSON fields are skipped).
    /// Clamped at decode to [`arrayflow_wire::proto::MAX_DEADLINE_MS`];
    /// the server then enforces `min(budget, its own cap)`. Zero means
    /// "already expired" — the request is shed before any work.
    pub deadline_ms: Option<u64>,
}

impl JsonRequest {
    /// Decodes a request from one JSON frame. The returned error pairs the
    /// [`ServiceError`] with whatever `id` could be recovered, so the
    /// response still correlates.
    pub fn decode(frame: &[u8]) -> Result<JsonRequest, (Json, ServiceError)> {
        let v = Json::parse(frame).map_err(|e| {
            (
                Json::Null,
                ServiceError::new(ErrorKind::Protocol, e.to_string()),
            )
        })?;
        let id = v.get("id").cloned().unwrap_or(Json::Null);
        let fail = |msg: String| (id.clone(), ServiceError::new(ErrorKind::Protocol, msg));

        if !matches!(v, Json::Obj(_)) {
            return Err(fail("request must be a JSON object".into()));
        }
        let verb = v
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing or non-string `verb`".into()))?;
        if !VERBS.contains(&verb) {
            return Err(fail(format!("unknown verb `{verb}`")));
        }
        let str_field = |name: &str| match v.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(fail(format!("`{name}` must be a string"))),
        };
        let uint_field = |name: &str| match v.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => match n.as_u64() {
                Some(n) => Ok(Some(n)),
                None => Err(fail(format!("`{name}` must be a non-negative integer"))),
            },
        };

        let program = str_field("program")?;
        if matches!(verb, "analyze" | "custom" | "open") && program.is_none() {
            return Err(fail(format!("`{verb}` requires a `program` string")));
        }

        let problems = match v.get("problems") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut bits = 0u8;
                for item in items {
                    let name = item
                        .as_str()
                        .ok_or_else(|| fail("`problems` entries must be strings".into()))?;
                    let k = CANNED
                        .iter()
                        .position(|&(n, _)| n == name)
                        .ok_or_else(|| fail(format!("unknown problem `{name}`")))?;
                    bits |= 1 << k;
                }
                Some(bits)
            }
            Some(_) => return Err(fail("`problems` must be an array of names".into())),
        };

        let distance_bound = uint_field("distance_bound")?;

        let spec = match v.get("spec") {
            None | Some(Json::Null) => None,
            Some(s @ Json::Obj(_)) => Some(parse_custom_spec(s).map_err(&fail)?),
            Some(_) => return Err(fail("`spec` must be an object".into())),
        };
        if verb == "custom" {
            if spec.is_none() {
                return Err(fail("`custom` requires a `spec` object".into()));
            }
            // Custom problems come from untrusted callers experimenting
            // with the framework; bound the distance lattice they can ask
            // for instead of letting a huge bound grind the solver.
            if let Some(d) = distance_bound {
                if d > CustomSpec::MAX_DISTANCE_BOUND {
                    return Err(fail(format!(
                        "`distance_bound` must be at most {}",
                        CustomSpec::MAX_DISTANCE_BOUND
                    )));
                }
            }
        }

        let session = uint_field("session")?;
        let stmt = uint_field("stmt")?;
        let deadline_ms =
            uint_field("deadline_ms")?.map(|ms| ms.min(arrayflow_wire::proto::MAX_DEADLINE_MS));
        let text = str_field("text")?;
        let fingerprint = match v.get("fingerprint") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => {
                Some(parse_fingerprint_hex(s).ok_or_else(|| fail(BAD_FINGERPRINT.into()))?)
            }
            Some(_) => return Err(fail("`fingerprint` must be a hex string".into())),
        };
        if verb == "delta" {
            for (field, present) in [
                ("session", session.is_some()),
                ("fingerprint", fingerprint.is_some()),
                ("stmt", stmt.is_some()),
                ("text", text.is_some()),
            ] {
                if !present {
                    return Err(fail(format!("`delta` requires a `{field}` field")));
                }
            }
        }

        // Every field a verb requires was checked above.
        let source = program.map(String::into_bytes);
        let request = match verb {
            "analyze" => Request::Analyze(AnalyzeRequest {
                id: 0,
                fingerprint: None,
                problems,
                distance_bound,
                source,
            }),
            "custom" => Request::Custom(CustomRequest {
                id: 0,
                spec: spec.map_or(0, CustomSpec::bits),
                fingerprint: None,
                distance_bound,
                source,
            }),
            "open" => Request::Open {
                id: 0,
                source: source.unwrap_or_default(),
            },
            "delta" => Request::Delta {
                id: 0,
                session: session.unwrap_or_default(),
                fingerprint: fingerprint.unwrap_or_default(),
                stmt: stmt.unwrap_or_default(),
                text: text.unwrap_or_default().into_bytes(),
            },
            "metrics" => Request::Metrics { id: 0 },
            "health" => Request::Health { id: 0 },
            "compact" => Request::Compact { id: 0 },
            "shutdown" => Request::Shutdown { id: 0 },
            _ => Request::Ping { id: 0 },
        };
        Ok(JsonRequest {
            id,
            request,
            deadline_ms,
        })
    }

    /// Encodes the request as one JSON frame (no trailing newline), the
    /// exact inverse of [`JsonRequest::decode`] for every request it
    /// produces. The wire id is not carried: JSON correlates by
    /// [`Self::id`]. `Err` names what JSON cannot carry: `replicate`, a
    /// fingerprint on `analyze`/`custom`, non-UTF-8 text, or problem or
    /// spec bits out of range.
    pub fn encode(&self) -> Result<String, String> {
        let num = |n: u64| Json::Num(n as f64);
        let text = |bytes: &[u8]| match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Json::Str(s.into())),
            Err(_) => Err("request text is not UTF-8".to_string()),
        };
        let program = |source: &Option<Vec<u8>>| source.as_deref().map(text).transpose();
        let (verb, fields) = match &self.request {
            Request::Ping { .. } => ("ping", vec![]),
            Request::Metrics { .. } => ("metrics", vec![]),
            Request::Health { .. } => ("health", vec![]),
            Request::Compact { .. } => ("compact", vec![]),
            Request::Shutdown { .. } => ("shutdown", vec![]),
            Request::Open { source, .. } => ("open", vec![("program", Some(text(source)?))]),
            Request::Delta {
                session,
                fingerprint,
                stmt,
                text: edit,
                ..
            } => {
                let hex = arrayflow_ir::Fingerprint(u128::from_le_bytes(*fingerprint));
                let fields = vec![
                    ("session", Some(num(*session))),
                    ("fingerprint", Some(Json::Str(hex.to_string()))),
                    ("stmt", Some(num(*stmt))),
                    ("text", Some(text(edit)?)),
                ];
                ("delta", fields)
            }
            Request::Analyze(a) if a.fingerprint.is_none() => {
                let problems = match a.problems {
                    Some(bits) if ProblemSet::from_bits(bits).is_none() => {
                        return Err("problem bits out of range".into())
                    }
                    bits => bits.map(|bits| {
                        let names = CANNED.iter().enumerate();
                        flagged(names.map(|(k, &(n, _))| (bits >> k & 1 == 1, n)))
                    }),
                };
                let fields = vec![
                    ("program", program(&a.source)?),
                    ("problems", problems),
                    ("distance_bound", a.distance_bound.map(num)),
                ];
                ("analyze", fields)
            }
            Request::Custom(c) if c.fingerprint.is_none() => {
                let spec = CustomSpec::from_bits(c.spec).ok_or("spec bits out of range")?;
                let fields = vec![
                    ("program", program(&c.source)?),
                    ("spec", Some(custom_spec_json(spec))),
                    ("distance_bound", c.distance_bound.map(num)),
                ];
                ("custom", fields)
            }
            Request::Analyze(_) | Request::Custom(_) => {
                return Err("JSON `analyze` and `custom` carry no fingerprint".into())
            }
            Request::Replicate { .. } => return Err("`replicate` has no JSON form".into()),
        };
        let head = [
            ("id", Some(self.id.clone())),
            ("verb", Some(Json::Str(verb.into()))),
        ];
        let members = head
            .into_iter()
            .chain(fields)
            .chain([("deadline_ms", self.deadline_ms.map(num))])
            .filter_map(|(name, value)| Some((name.to_string(), value?)))
            .collect();
        Ok(Json::Obj(members).encode())
    }
}

/// Parses and validates a `spec` object into a [`CustomSpec`]. Rejects
/// unknown members, unknown site roles, oversized role arrays, empty G
/// (a problem that generates nothing is always a client mistake) and
/// mistyped `direction`/`mode` — with a message naming the offending
/// field, never a panic.
fn parse_custom_spec(v: &Json) -> Result<CustomSpec, String> {
    if let Json::Obj(members) = v {
        for (k, _) in members {
            if !matches!(k.as_str(), "gen" | "kill" | "direction" | "mode") {
                return Err(format!(
                    "unknown `spec` member `{k}` (expected gen, kill, direction, mode)"
                ));
            }
        }
    }
    let roles = |name: &str| -> Result<(bool, bool), String> {
        match v.get(name) {
            None | Some(Json::Null) => Ok((false, false)),
            Some(Json::Arr(items)) => {
                if items.len() > 2 {
                    return Err(format!("`spec.{name}` lists more than the two site roles"));
                }
                let (mut defs, mut uses) = (false, false);
                for item in items {
                    match item.as_str() {
                        Some("defs") => defs = true,
                        Some("uses") => uses = true,
                        Some(other) => {
                            return Err(format!(
                                "unknown site role `{other}` in `spec.{name}` \
                                 (expected \"defs\" or \"uses\")"
                            ))
                        }
                        None => return Err(format!("`spec.{name}` entries must be strings")),
                    }
                }
                Ok((defs, uses))
            }
            Some(_) => Err(format!("`spec.{name}` must be an array of site roles")),
        }
    };
    let (gen_defs, gen_uses) = roles("gen")?;
    let (kill_defs, kill_uses) = roles("kill")?;
    if !gen_defs && !gen_uses {
        return Err("`spec.gen` must name at least one site role".into());
    }
    let direction = match v.get("direction").map(Json::as_str) {
        None | Some(Some("forward")) => Direction::Forward,
        Some(Some("backward")) => Direction::Backward,
        _ => return Err("`spec.direction` must be \"forward\" or \"backward\"".into()),
    };
    let mode = match v.get("mode").map(Json::as_str) {
        None | Some(Some("must")) => Mode::Must,
        Some(Some("may")) => Mode::May,
        _ => return Err("`spec.mode` must be \"must\" or \"may\"".into()),
    };
    Ok(CustomSpec {
        gen_defs,
        gen_uses,
        kill_defs,
        kill_uses,
        direction,
        mode,
    })
}

/// The names whose flag is set, as a JSON array of strings.
fn flagged<'a>(names: impl IntoIterator<Item = (bool, &'a str)>) -> Json {
    let set = names.into_iter().filter(|n| n.0);
    Json::Arr(set.map(|n| Json::Str(n.1.into())).collect())
}

/// Renders a [`CustomSpec`] as the `spec` object, every member spelled
/// out: the inverse of [`parse_custom_spec`].
fn custom_spec_json(spec: CustomSpec) -> Json {
    let roles = |defs, uses| flagged([(defs, "defs"), (uses, "uses")]);
    let word = |first: bool, yes: &str, no: &str| Json::Str(if first { yes } else { no }.into());
    Json::Obj(vec![
        ("gen".into(), roles(spec.gen_defs, spec.gen_uses)),
        ("kill".into(), roles(spec.kill_defs, spec.kill_uses)),
        (
            "direction".into(),
            word(spec.direction == Direction::Forward, "forward", "backward"),
        ),
        ("mode".into(), word(spec.mode == Mode::Must, "must", "may")),
    ])
}

/// Parses the 32-hex-char fingerprint rendering
/// ([`arrayflow_ir::Fingerprint`]'s `Display`) back to its wire bytes
/// (little-endian `u128`, matching the binary protocol's layout).
pub fn parse_fingerprint_hex(s: &str) -> Option<[u8; 16]> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let value = u128::from_str_radix(s, 16).ok()?;
    Some(value.to_le_bytes())
}

/// Encodes a success response line (without trailing newline).
pub fn encode_ok(id: &Json, result: Json) -> String {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ])
    .encode()
}

/// Encodes an error response line (without trailing newline).
pub fn encode_err(id: &Json, err: &ServiceError) -> String {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(err.kind.as_str().into())),
                ("message".into(), Json::Str(err.message.clone())),
            ]),
        ),
    ])
    .encode()
}

/// Splits a response line into ok / structured error / protocol noise:
/// the client's inverse of [`encode_ok`] and [`encode_err`].
pub(crate) fn classify(line: &str) -> Result<(), ClientError> {
    let json = Json::parse(line.as_bytes())
        .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
    let error = |field: &str| json.get("error")?.get(field)?.as_str();
    match json.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        Some(false) => Err(ClientError::Service {
            kind: error("kind").and_then(ErrorKind::from_wire),
            message: error("message")
                .unwrap_or("server sent no error message")
                .to_string(),
        }),
        None => Err(ClientError::Protocol(
            "response frame has no boolean `ok` field".to_string(),
        )),
    }
}

/// Encodes one outcome as its response line (without trailing newline).
pub(crate) fn encode_outcome(id: &Json, outcome: Result<Answer, ServiceError>) -> String {
    match outcome {
        Ok(answer) => encode_ok(id, answer_json(answer)),
        Err(e) => encode_err(id, &e),
    }
}

/// The `result` object of an answer.
fn answer_json(answer: Answer) -> Json {
    match answer {
        Answer::Text(text) => Json::Str(text.into()),
        Answer::Object(json) => json,
        Answer::Metrics(text) => Json::Obj(vec![("prometheus".into(), Json::Str(text))]),
        Answer::Loops(r) => analyze_result_json(&r),
        Answer::Session(session, report) => session_result_json(session, &report),
        Answer::Delta(d) => delta_result_json(&d),
    }
}

/// Renders one [`BatchResult`] as the `analyze` result object. The
/// per-loop `report` strings are exactly
/// [`arrayflow_engine::AnalysisReport::render`] — byte-identical to what a
/// direct in-process `Engine` call produces, which the integration tests
/// assert.
fn analyze_result_json(r: &BatchResult) -> Json {
    let loops = r
        .loops
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("fingerprint".into(), Json::Str(l.fingerprint.to_string())),
                ("report".into(), Json::Str(l.report.render())),
            ])
        })
        .collect();
    let mut members = vec![("loops".into(), Json::Arr(loops))];
    members.push((
        "error".into(),
        match &r.error {
            Some(e) => Json::Str(e.to_string()),
            None => Json::Null,
        },
    ));
    members.push((
        "stats".into(),
        Json::Obj(vec![
            ("cache_hits".into(), Json::Num(r.stats.cache_hits as f64)),
            (
                "cache_misses".into(),
                Json::Num(r.stats.cache_misses as f64),
            ),
            (
                "solver_passes".into(),
                Json::Num(r.stats.solver_passes as f64),
            ),
            ("node_visits".into(), Json::Num(r.stats.node_visits as f64)),
        ]),
    ));
    Json::Obj(members)
}

/// Renders an `open` result: the new session id, the loop's canonical
/// fingerprint (the `delta` routing key), and the rendered initial report.
fn session_result_json(session: u64, report: &AnalysisReport) -> Json {
    Json::Obj(vec![
        ("session".into(), Json::Num(session as f64)),
        (
            "fingerprint".into(),
            Json::Str(report.fingerprint.to_string()),
        ),
        ("report".into(), Json::Str(report.render())),
    ])
}

/// Renders a `delta` result: the session, the canonical fingerprint of
/// the loop *after* the edit (probe the fingerprint-first analyze path
/// with it), the re-analyzed report, and how the re-convergence went
/// (fast path vs full fallback, columns re-solved). Requests keep routing
/// by the fingerprint `open` returned — that is the session's shard key
/// for its whole lifetime.
fn delta_result_json(d: &DeltaReport) -> Json {
    Json::Obj(vec![
        ("session".into(), Json::Num(d.session as f64)),
        ("fingerprint".into(), Json::Str(d.fingerprint.to_string())),
        ("report".into(), Json::Str(d.report.render())),
        ("fallback".into(), Json::Bool(d.fallback)),
        ("dirty_columns".into(), Json::Num(d.dirty_columns as f64)),
        ("total_columns".into(), Json::Num(d.total_columns as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(frame: &[u8]) -> JsonRequest {
        JsonRequest::decode(frame).unwrap()
    }

    #[test]
    fn decodes_minimal_analyze() {
        let r = decode(br#"{"id": 3, "verb": "analyze", "program": "x := 1;"}"#);
        assert_eq!(r.id, Json::Num(3.0));
        assert_eq!(
            r.request,
            Request::Analyze(AnalyzeRequest {
                id: 0,
                fingerprint: None,
                problems: None,
                distance_bound: None,
                source: Some(b"x := 1;".to_vec()),
            })
        );
    }

    #[test]
    fn decodes_problem_selection() {
        let r = decode(
            br#"{"verb": "analyze", "program": "x := 1;", "problems": ["available", "busy"], "distance_bound": 4}"#,
        );
        let Request::Analyze(a) = r.request else {
            panic!("expected analyze, got {:?}", r.request);
        };
        let p = ProblemSet::from_bits(a.problems.unwrap()).unwrap();
        assert!(!p.reaching && p.available && p.busy && !p.reaching_refs);
        assert_eq!(a.distance_bound, Some(4));
        assert_eq!(r.id, Json::Null);
    }

    #[test]
    fn rejects_bad_shapes_with_recovered_id() {
        let (id, e) = JsonRequest::decode(br#"{"id": "q7", "verb": "nope"}"#).unwrap_err();
        assert_eq!(id.as_str(), Some("q7"));
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("unknown verb"));

        let (_, e) = JsonRequest::decode(br#"{"id": 1, "verb": "analyze"}"#).unwrap_err();
        assert!(e.message.contains("requires a `program`"));

        let (id, e) = JsonRequest::decode(b"not json at all").unwrap_err();
        assert_eq!(id, Json::Null);
        assert_eq!(e.kind, ErrorKind::Protocol);
    }

    #[test]
    fn decodes_open_and_delta() {
        let r = decode(br#"{"id": 1, "verb": "open", "program": "x := 1;"}"#);
        assert_eq!(
            r.request,
            Request::Open {
                id: 0,
                source: b"x := 1;".to_vec()
            }
        );

        let fp = "000102030405060708090a0b0c0d0e0f";
        let frame = format!(
            r#"{{"id": 2, "verb": "delta", "session": 7, "fingerprint": "{fp}", "stmt": 3, "text": "A[i] := 1;"}}"#
        );
        let Request::Delta {
            session,
            fingerprint,
            stmt,
            text,
            ..
        } = decode(frame.as_bytes()).request
        else {
            panic!("expected delta");
        };
        assert_eq!(session, 7);
        assert_eq!(stmt, 3);
        assert_eq!(text, b"A[i] := 1;");
        // Display renders the u128 big-endian-first as hex; wire bytes are
        // the little-endian u128 layout, so the round trip must agree with
        // Fingerprint's own rendering.
        let rendered = arrayflow_ir::Fingerprint(u128::from_le_bytes(fingerprint)).to_string();
        assert_eq!(rendered, fp);
    }

    #[test]
    fn rejects_incomplete_delta_and_bad_fingerprints() {
        let (_, e) = JsonRequest::decode(br#"{"verb": "delta", "session": 1}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires a"), "{}", e.message);

        let (_, e) = JsonRequest::decode(br#"{"verb": "open"}"#).unwrap_err();
        assert!(e.message.contains("requires a `program`"), "{}", e.message);

        let (_, e) = JsonRequest::decode(
            br#"{"verb": "delta", "session": 1, "fingerprint": "xyz", "stmt": 0, "text": "x := 1;"}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("32 hex"), "{}", e.message);

        assert_eq!(parse_fingerprint_hex("0"), None);
        assert_eq!(parse_fingerprint_hex(&"f".repeat(32)), Some([0xff; 16]));
    }

    #[test]
    fn decodes_custom_spec() {
        let spec_of = |frame: &[u8]| match decode(frame).request {
            Request::Custom(c) => CustomSpec::from_bits(c.spec).unwrap(),
            other => panic!("expected custom, got {other:?}"),
        };
        let spec = spec_of(
            br#"{"id": 4, "verb": "custom", "program": "x := 1;",
                 "spec": {"gen": ["uses"], "kill": ["defs"],
                          "direction": "backward", "mode": "may"}}"#,
        );
        assert!(!spec.gen_defs && spec.gen_uses && spec.kill_defs && !spec.kill_uses);
        assert_eq!(spec.direction, Direction::Backward);
        assert_eq!(spec.mode, Mode::May);
        assert_eq!(spec.label(), "gu-kd-bwd-may");

        // direction/mode default to forward/must; kill may be absent.
        let spec = spec_of(
            br#"{"verb": "custom", "program": "x := 1;", "spec": {"gen": ["defs", "uses"]}}"#,
        );
        assert!(spec.gen_defs && spec.gen_uses && !spec.kill_defs && !spec.kill_uses);
        assert_eq!(spec.direction, Direction::Forward);
        assert_eq!(spec.mode, Mode::Must);
    }

    #[test]
    fn rejects_hostile_custom_specs() {
        let err = |frame: &[u8]| JsonRequest::decode(frame).unwrap_err().1;
        let e = err(br#"{"verb": "custom", "program": "x := 1;"}"#);
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires a `spec`"), "{}", e.message);

        let e = err(br#"{"verb": "custom", "spec": {"gen": ["defs"]}}"#);
        assert!(e.message.contains("requires a `program`"), "{}", e.message);

        // Empty G: contradictory (nothing generates).
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": [], "kill": ["defs"]}}"#);
        assert!(
            e.message.contains("at least one site role"),
            "{}",
            e.message
        );
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"kill": ["defs"]}}"#);
        assert!(
            e.message.contains("at least one site role"),
            "{}",
            e.message
        );

        // Unknown roles, members, shapes.
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["stores"]}}"#);
        assert!(e.message.contains("unknown site role"), "{}", e.message);
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "bogus": 1}}"#);
        assert!(e.message.contains("unknown `spec` member"), "{}", e.message);
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": "defs"}}"#);
        assert!(e.message.contains("array of site roles"), "{}", e.message);
        let e = err(br#"{"verb": "custom", "program": "x;", "spec": 7}"#);
        assert!(e.message.contains("must be an object"), "{}", e.message);

        // Oversized role array.
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs","defs","defs"]}}"#);
        assert!(e.message.contains("more than the two"), "{}", e.message);

        // Bad direction / mode.
        let e = err(
            br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "direction": "up"}}"#,
        );
        assert!(e.message.contains("forward"), "{}", e.message);
        let e =
            err(br#"{"verb": "custom", "program": "x;", "spec": {"gen": ["defs"], "mode": 3}}"#);
        assert!(e.message.contains("must"), "{}", e.message);

        // Distance bound beyond the custom-path ceiling.
        let frame = format!(
            r#"{{"verb": "custom", "program": "x;", "spec": {{"gen": ["defs"]}}, "distance_bound": {}}}"#,
            CustomSpec::MAX_DISTANCE_BOUND + 1
        );
        let e = err(frame.as_bytes());
        assert!(e.message.contains("at most"), "{}", e.message);
    }

    #[test]
    fn decodes_and_clamps_deadline_ms() {
        let r = decode(br#"{"verb": "analyze", "program": "x := 1;", "deadline_ms": 250}"#);
        assert_eq!(r.deadline_ms, Some(250));

        // Absent or null: no budget.
        let r = decode(br#"{"verb": "ping"}"#);
        assert_eq!(r.deadline_ms, None);
        let r = decode(br#"{"verb": "ping", "deadline_ms": null}"#);
        assert_eq!(r.deadline_ms, None);

        // Zero is preserved (already expired), absurd values are clamped.
        let r = decode(br#"{"verb": "ping", "deadline_ms": 0}"#);
        assert_eq!(r.deadline_ms, Some(0));
        let r = decode(br#"{"verb": "ping", "deadline_ms": 99999999999999}"#);
        assert_eq!(r.deadline_ms, Some(arrayflow_wire::proto::MAX_DEADLINE_MS));

        // Mistyped budgets are protocol errors, not panics.
        for frame in [
            br#"{"verb": "ping", "deadline_ms": -5}"#.as_slice(),
            br#"{"verb": "ping", "deadline_ms": 1.5}"#.as_slice(),
            br#"{"verb": "ping", "deadline_ms": "soon"}"#.as_slice(),
        ] {
            let (_, e) = JsonRequest::decode(frame).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert!(e.message.contains("deadline_ms"), "{}", e.message);
        }
    }

    #[test]
    fn cancelled_round_trips_on_the_wire() {
        assert_eq!(ErrorKind::Cancelled.as_str(), "cancelled");
        assert_eq!(
            ErrorKind::from_wire("cancelled"),
            Some(ErrorKind::Cancelled)
        );
    }

    #[test]
    fn session_lost_round_trips_on_the_wire() {
        assert_eq!(ErrorKind::SessionLost.as_str(), "session_lost");
        assert_eq!(
            ErrorKind::from_wire("session_lost"),
            Some(ErrorKind::SessionLost)
        );
        // Unknown kinds still degrade gracefully, the retired `timeout`
        // among them.
        assert_eq!(ErrorKind::from_wire("future_kind"), None);
        assert_eq!(ErrorKind::from_wire("timeout"), None);
    }

    #[test]
    fn encode_is_the_exact_inverse_of_decode() {
        let source = Some(b"do i = 1, 9 A[i+2] := A[i]; end".to_vec());
        let mut fingerprint = [0u8; 16];
        fingerprint
            .iter_mut()
            .zip(0u8..)
            .for_each(|(b, i)| *b = i * 17);
        let mut requests = vec![
            Request::Ping { id: 0 },
            Request::Metrics { id: 0 },
            Request::Health { id: 0 },
            Request::Compact { id: 0 },
            Request::Shutdown { id: 0 },
            Request::Open {
                id: 0,
                source: b"x := 1;".to_vec(),
            },
            Request::Delta {
                id: 0,
                session: 7,
                fingerprint,
                stmt: 3,
                text: b"A[i] := 1;".to_vec(),
            },
        ];
        for distance_bound in [None, Some(4)] {
            for problems in (0..16).map(Some).chain([None]) {
                requests.push(Request::Analyze(AnalyzeRequest {
                    id: 0,
                    fingerprint: None,
                    problems,
                    distance_bound,
                    source: source.clone(),
                }));
            }
            for spec in (0..=u8::MAX).filter(|&b| CustomSpec::from_bits(b).is_some()) {
                requests.push(Request::Custom(CustomRequest {
                    id: 0,
                    spec,
                    fingerprint: None,
                    distance_bound,
                    source: source.clone(),
                }));
            }
        }
        assert_eq!(requests.len(), 7 + 2 * (17 + 48));
        for request in requests {
            for id in [Json::Str("q7".into()), Json::Num(42.0), Json::Null] {
                for deadline_ms in [None, Some(0), Some(250)] {
                    let r = JsonRequest {
                        id: id.clone(),
                        request: request.clone(),
                        deadline_ms,
                    };
                    let line = r.encode().unwrap();
                    assert_eq!(decode(line.as_bytes()), r, "{line}");
                }
            }
        }
    }

    #[test]
    fn encode_refuses_what_json_cannot_carry() {
        let refused = |request| {
            let r = JsonRequest {
                id: Json::Null,
                request,
                deadline_ms: None,
            };
            r.encode().unwrap_err()
        };
        let e = refused(Request::Replicate {
            id: 1,
            batch: vec![1, 2, 3],
        });
        assert!(e.contains("replicate"), "{e}");
        let probe = Some([9u8; 16]);
        let e = refused(Request::Analyze(AnalyzeRequest {
            id: 0,
            fingerprint: probe,
            problems: None,
            distance_bound: None,
            source: Some(b"x := 1;".to_vec()),
        }));
        assert!(e.contains("fingerprint"), "{e}");
        let e = refused(Request::Custom(CustomRequest {
            id: 0,
            spec: 0b01,
            fingerprint: probe,
            distance_bound: None,
            source: None,
        }));
        assert!(e.contains("fingerprint"), "{e}");
    }

    #[test]
    fn encodes_responses() {
        let ok = encode_ok(&Json::Num(1.0), Json::Str("pong".into()));
        assert_eq!(ok, r#"{"id":1,"ok":true,"result":"pong"}"#);
        let err = encode_err(
            &Json::Null,
            &ServiceError::new(ErrorKind::Overloaded, "queue full"),
        );
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
