#![warn(missing_docs)]
//! A zero-dependency analysis server exposing the batch engine over
//! TCP and stdio.
//!
//! The framework's per-loop cost is bounded (three solver passes for
//! must-problems, two for may-problems), which makes array reference
//! analysis viable as a low-latency network service: clients submit DSL
//! programs plus a problem selection and get per-loop reports back,
//! answered from the shared memoizing [`Engine`](arrayflow_engine::Engine)
//! whenever an alpha-equivalent loop has been analyzed before.
//!
//! Two protocols share one request model
//! ([`arrayflow_wire::proto::Request`]): newline-framed JSON (the
//! [`proto`] edge codec, built on the in-crate encoder/decoder in
//! [`json`] — the workspace builds with zero external dependencies) and
//! `AFWIRE01` binary frames (the [`binproto`] edge codec). One edge codec
//! decodes either onto the model and encodes answers back; everything
//! between is one dispatch. Every frame — from TCP, stdio or an
//! in-process caller ([`Service::handle_frame`]) — is answered through
//! the handler's one answer entry ([`FrameHandler::answer`]). TCP is
//! served by one `poll(2)` event loop ([`EventServer`], unix) for a node
//! and for a cluster [`Router`] alike, stdio by a loop that answers one
//! line at a time ([`run_stdio`]); both frame JSON lines the same way.
//! Robustness is the design center:
//!
//! * a **bounded in-flight queue** with explicit `overloaded` errors on
//!   backpressure, never unbounded buffering;
//! * a **per-request deadline**, enforced by the worker alone: expired
//!   work is shed at dequeue or between solver passes and answered
//!   `cancelled` on every transport;
//! * a **frame size cap** — oversized lines are discarded in bounded
//!   memory and answered with a `protocol` error, and the connection
//!   stays usable;
//! * a **structured error taxonomy** ([`ErrorKind`]: `parse`,
//!   `analysis`, `overloaded`, `protocol`, `session_lost`, `cancelled`)
//!   — hostile bytes
//!   produce error responses, not panics or dropped connections;
//! * **graceful shutdown** that drains every queued request before the
//!   workers exit;
//! * one **`metrics` verb**, the only way counters leave the process:
//!   every metric registered across the service, engine, cache,
//!   sessions, store and tier ([`arrayflow_obs`]) as one Prometheus text
//!   exposition (`{"prometheus": …}` on JSON), and per-request
//!   **tracing spans** feeding an optional slow-request log
//!   ([`ServiceConfig::slow_log_micros`], `--slow-log` on `serve`);
//! * optional **persistence** (`--store DIR` on the `serve` binary, or
//!   [`ServiceConfig::store`]): reports survive restarts in a crash-safe
//!   segment log ([`arrayflow_store`]), the cache warm-starts from disk
//!   at boot, and a **`compact` verb** reclaims space from superseded
//!   records;
//! * **panic isolation and supervision** — a worker that panics answers
//!   its own request with a framed `analysis` error; dead workers are
//!   replaced by their drop guards (`arrayflow_worker_restarts_total`);
//!   deterministic fault plans ([`ServiceConfig::faults`], `--fault-plan`
//!   on `serve`) drill the whole containment stack;
//! * a **resilient [`Client`]** with transparent reconnect, per-request
//!   deadlines, and jittered exponential backoff retries for transport
//!   failures and `overloaded` responses.
//!
//! # Quickstart
//!
//! Run `cargo run --release -p arrayflow-service --bin serve`, then pipe
//! newline-delimited requests to `127.0.0.1:7433` — or embed the service:
//!
//! ```
//! use arrayflow_service::{Frame, Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let answer = service.handle_frame(Frame::Json(
//!     br#"{"id": 1, "verb": "analyze", "program": "do i = 1, 9 A[i+2] := A[i]; end"}"#,
//! ));
//! assert!(String::from_utf8(answer).unwrap().contains("\"ok\":true"));
//! service.shutdown();
//! service.join_workers();
//! ```

pub mod binproto;
pub mod client;
#[cfg(unix)]
pub mod event_server;
pub mod json;
mod pool;
pub mod proto;
pub mod router;
pub mod server;
pub mod service;

pub use binproto::{kind_byte, kind_from_byte};
pub use client::{Client, ClientConfig, ClientError, OpenedSession};
#[cfg(unix)]
pub use event_server::EventServer;
pub use json::{Json, JsonError};
/// The JSON edge's decoded request line, [`proto::JsonRequest`], under
/// the crate-root name callers already use.
pub use proto::JsonRequest as Request;
pub use proto::{ErrorKind, ServiceError};
pub use router::{Router, RouterConfig};
pub use server::{run_stdio, Frame, FrameHandler, Respond};
pub use service::{Service, ServiceConfig, LATENCY_BUCKETS_US};
