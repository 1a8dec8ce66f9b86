#![warn(missing_docs)]
//! Zero-dependency observability for the arrayflow runtime.
//!
//! The paper's central claim is *practicality* — must-problems converge
//! in three passes, may-problems in two — and this crate is what makes
//! that claim measurable in a running service rather than a one-off
//! bench number. It provides two small, self-contained pieces:
//!
//! * a **metrics registry** ([`Registry`]) of named counters, gauges and
//!   fixed-bucket histograms behind cloneable atomic handles, with a
//!   structured [snapshot](Registry::snapshot) that answers a count
//!   in-process ([`MetricsSnapshot::value`]) and renders the standard
//!   [Prometheus text exposition](MetricsSnapshot::render_prometheus);
//! * **tracing spans** ([`trace`]) with per-request trace ids that flow
//!   service → engine → solver → store via a thread-local current trace
//!   (plus one explicit hop across the request queue), recording
//!   per-phase timings for the slow-request log.
//!
//! Both are lock-light by design: the hot path is relaxed atomics, and
//! the registry's mutex is touched only at registration (startup) and
//! snapshot (scrape) time. Like the rest of the workspace, the crate has
//! zero external dependencies.
//!
//! ```
//! use arrayflow_obs::{trace, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total", "requests served");
//! let latency = registry.histogram("latency_us", "request latency", &[100, 1_000]);
//!
//! let t = trace::Trace::start(1);
//! trace::with_current(&t, || {
//!     let _span = trace::observed_span("handle", &latency);
//!     requests.inc();
//! });
//! assert_eq!(t.spans()[0].name, "handle");
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.value("requests_total", &[]), Some(1));
//! assert!(snapshot.render_prometheus().contains("requests_total 1"));
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricValue, MetricsSnapshot, Registry,
    PHASE_BUCKETS_US,
};
pub use trace::{observed_span, span, with_current, Span, SpanGuard, Trace};
