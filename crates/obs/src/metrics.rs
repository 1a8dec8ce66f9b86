//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind cloneable lock-free handles.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path is atomic-cheap.** A handle ([`Counter`], [`Gauge`],
//!    [`Histogram`]) is an `Arc` around plain atomics; incrementing or
//!    observing takes the same relaxed `fetch_add`s the hand-rolled
//!    counters it replaces used. The registry's lock is touched only at
//!    registration (startup) and snapshot (scrape) time.
//! 2. **Registration is idempotent.** Asking for an instrument that
//!    already exists under the same `(name, labels)` returns a clone of
//!    the existing handle, so two components can share one time series
//!    without coordinating. Re-registering under a different instrument
//!    kind is a programming error and panics with both names.
//! 3. **Snapshots are self-describing.** [`Registry::snapshot`] returns
//!    every instrument with its name, help text, labels and current
//!    value; [`MetricsSnapshot::render_prometheus`] renders the standard
//!    text exposition (cumulative `_bucket{le=...}` series, `_sum`,
//!    `_count`), so a scrape endpoint is one string away.
//!
//! Histograms use fixed upper bucket edges plus a final unbounded
//! bucket — the same shape as the service's request-latency histogram —
//! so bucket counts are monotone and mergeable across snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default upper edges for per-phase duration histograms, in
/// microseconds — one decade per bucket, the same shape as the service's
/// request-latency histogram. The final bucket is unbounded.
pub const PHASE_BUCKETS_US: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// A monotone counter handle. Cloning shares the underlying value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (or ratchet up with
/// [`Gauge::set_max`], for high-water marks). Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A standalone gauge, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races is *not* guaranteed;
    /// callers pair `add`/`sub` symmetrically).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Ratchets the value up to at least `v` — a lock-free high-water
    /// mark.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    /// Strictly increasing upper bucket edges; the implicit final bucket
    /// is unbounded.
    edges: Box<[u64]>,
    /// One count per edge plus the unbounded bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning shares the buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("edges", &self.0.edges)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Histogram {
    /// A standalone histogram over `edges` (strictly increasing upper
    /// bounds; a final unbounded bucket is added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing — a
    /// registration-time programming error.
    pub fn new(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Self(Arc::new(HistogramInner {
            edges: edges.into(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// The configured upper edges (without the unbounded bucket).
    pub fn edges(&self) -> &[u64] {
        &self.0.edges
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let i = self
            .0
            .edges
            .iter()
            .position(|&edge| value <= edge)
            .unwrap_or(self.0.edges.len());
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.0.edges.to_vec(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time histogram copy: per-bucket (non-cumulative) counts,
/// the unbounded bucket last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper edges, matching [`Histogram::edges`].
    pub edges: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == edges.len() + 1`.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Cumulative count of observations `<= edge`. `None` if `edge` is
    /// not one of the configured edges.
    pub fn cumulative_le(&self, edge: u64) -> Option<u64> {
        let i = self.edges.iter().position(|&e| e == edge)?;
        Some(self.buckets[..=i].iter().sum())
    }

    /// Total observations across all buckets (equals `count` once the
    /// histogram is quiescent).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// The value part of one registered instrument, as captured by
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A gauge.
    Gauge(u64),
    /// A fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The Prometheus `# TYPE` keyword for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One registered instrument with its identity and current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric family name, e.g. `arrayflow_requests_total`.
    pub name: String,
    /// Help text, rendered into the exposition.
    pub help: String,
    /// Constant labels fixed at registration, e.g. `[("phase", "solve")]`.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of every registered instrument, in
/// registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The captured instruments.
    pub metrics: Vec<Metric>,
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(
    prefix: &[(&str, &str)],
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) -> String {
    let mut parts: Vec<String> = prefix
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl MetricsSnapshot {
    /// The first metric matching `name` (any labels).
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metric matching `name` with the given label pairs.
    pub fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
        })
    }

    /// The value of the counter or gauge `name` with exactly `labels`:
    /// how a process reads its own counts. `None` when no such series is
    /// registered or it is a histogram.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find_with(name, labels)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// Renders the standard Prometheus text exposition (version 0.0.4):
    /// one `# HELP`/`# TYPE` header per family, cumulative
    /// `_bucket{le="..."}` series plus `_sum`/`_count` for histograms.
    /// Families are sorted by name; instances keep registration order.
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_with(&[])
    }

    /// Like [`MetricsSnapshot::render_prometheus`], but stamps `extra`
    /// label pairs (e.g. `node="a"`) onto every series, ahead of the
    /// instrument's own labels. This is how a cluster node's exposition
    /// stays distinguishable after a router merges the fleet's scrapes
    /// into one document.
    pub fn render_prometheus_with(&self, extra: &[(&str, &str)]) -> String {
        // Group by family name, preserving instance registration order
        // within each family.
        let mut families: BTreeMap<&str, Vec<&Metric>> = BTreeMap::new();
        for m in &self.metrics {
            families.entry(&m.name).or_default().push(m);
        }
        let mut out = String::new();
        for (name, metrics) in families {
            let first = metrics[0];
            let _ = writeln!(out, "# HELP {name} {}", first.help);
            let _ = writeln!(out, "# TYPE {name} {}", first.value.type_name());
            for m in metrics {
                match &m.value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                        let _ =
                            writeln!(out, "{name}{} {v}", render_labels(extra, &m.labels, None));
                    }
                    MetricValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &edge) in h.edges.iter().enumerate() {
                            cumulative += h.buckets[i];
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(extra, &m.labels, Some(("le", &edge.to_string())))
                            );
                        }
                        cumulative += h.buckets[h.edges.len()];
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(extra, &m.labels, Some(("le", "+Inf")))
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(extra, &m.labels, None),
                            h.sum
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {cumulative}",
                            render_labels(extra, &m.labels, None)
                        );
                    }
                }
            }
        }
        out
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Registered {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// The instrument registry. Cloning shares the registry; handles stay
/// valid for the life of any clone.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Registered>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("instruments", &self.inner.lock().unwrap().len())
            .finish()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        wrap: impl FnOnce(T) -> Instrument,
        unwrap: impl Fn(&Instrument) -> Option<&T>,
        fresh: impl FnOnce() -> T,
    ) -> T {
        let labels = owned_labels(labels);
        let mut reg = self.inner.lock().unwrap();
        if let Some(existing) = reg.iter().find(|r| r.name == name && r.labels == labels) {
            return unwrap(&existing.instrument)
                .unwrap_or_else(|| {
                    panic!(
                        "metric `{name}` already registered as a {}",
                        existing.instrument.kind()
                    )
                })
                .clone();
        }
        let handle = fresh();
        reg.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument: wrap(handle.clone()),
        });
        handle
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with constant labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(
            name,
            help,
            labels,
            Instrument::Counter,
            |i| match i {
                Instrument::Counter(c) => Some(c),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with constant labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            name,
            help,
            labels,
            Instrument::Gauge,
            |i| match i {
                Instrument::Gauge(g) => Some(g),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Registers (or retrieves) an unlabeled histogram over `edges`.
    pub fn histogram(&self, name: &str, help: &str, edges: &[u64]) -> Histogram {
        self.histogram_with(name, help, &[], edges)
    }

    /// Registers (or retrieves) a histogram with constant labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        edges: &[u64],
    ) -> Histogram {
        self.register(
            name,
            help,
            labels,
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(h),
                _ => None,
            },
            || Histogram::new(edges),
        )
    }

    /// Captures every registered instrument, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.inner.lock().unwrap();
        MetricsSnapshot {
            metrics: reg
                .iter()
                .map(|r| Metric {
                    name: r.name.clone(),
                    help: r.help.clone(),
                    labels: r.labels.clone(),
                    value: match &r.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g", "a gauge");
        g.set(10);
        g.add(5);
        g.sub(3);
        g.set_max(7); // below current: no change
        assert_eq!(g.get(), 12);
        g.set_max(40);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("shared_total", "x");
        let b = r.counter("shared_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().metrics.len(), 1);
        // Distinct labels are distinct instruments.
        let c = r.counter_with("shared_total", "x", &[("k", "v")]);
        c.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.snapshot().metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("twice", "x");
        r.gauge("twice", "x");
    }

    #[test]
    fn histogram_buckets_and_cumulative() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 10 + 11 + 100 + 5000);
        assert_eq!(s.cumulative_le(10), Some(2));
        assert_eq!(s.cumulative_le(100), Some(4));
        assert_eq!(s.cumulative_le(1000), Some(4));
        assert_eq!(s.cumulative_le(7), None);
        assert_eq!(s.total(), s.count);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        let c = r.counter("af_requests_total", "requests");
        c.add(3);
        let h = r.histogram_with("af_latency_us", "latency", &[("kind", "x")], &[100, 1000]);
        h.observe(50);
        h.observe(5000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# HELP af_requests_total requests"), "{text}");
        assert!(text.contains("# TYPE af_requests_total counter"), "{text}");
        assert!(text.contains("af_requests_total 3"), "{text}");
        assert!(text.contains("# TYPE af_latency_us histogram"), "{text}");
        assert!(
            text.contains("af_latency_us_bucket{kind=\"x\",le=\"100\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("af_latency_us_bucket{kind=\"x\",le=\"1000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("af_latency_us_bucket{kind=\"x\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("af_latency_us_sum{kind=\"x\"} 5050"),
            "{text}"
        );
        assert!(text.contains("af_latency_us_count{kind=\"x\"} 2"), "{text}");
    }

    #[test]
    fn extra_labels_stamp_every_series() {
        let r = Registry::new();
        r.counter("plain_total", "x").inc();
        let h = r.histogram_with("lat_us", "y", &[("kind", "a")], &[10]);
        h.observe(5);
        let text = r.snapshot().render_prometheus_with(&[("node", "n0")]);
        assert!(text.contains("plain_total{node=\"n0\"} 1"), "{text}");
        assert!(
            text.contains("lat_us_bucket{node=\"n0\",kind=\"a\",le=\"10\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_us_count{node=\"n0\",kind=\"a\"} 1"),
            "{text}"
        );
        // No extra labels: identical to the plain render.
        assert_eq!(
            r.snapshot().render_prometheus(),
            r.snapshot().render_prometheus_with(&[])
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("weird_total", "x", &[("q", "a\"b\\c\nd")])
            .inc();
        let text = r.snapshot().render_prometheus();
        assert!(text.contains(r#"q="a\"b\\c\nd""#), "{text}");
    }

    #[test]
    fn snapshot_find_helpers() {
        let r = Registry::new();
        r.counter_with("f_total", "x", &[("p", "a")]).add(1);
        r.counter_with("f_total", "x", &[("p", "b")]).add(2);
        let snap = r.snapshot();
        assert!(snap.find("f_total").is_some());
        let b = snap.find_with("f_total", &[("p", "b")]).unwrap();
        assert_eq!(b.value, MetricValue::Counter(2));
        assert!(snap.find_with("f_total", &[("p", "z")]).is_none());
        r.gauge("g", "x").set(7);
        r.histogram("h", "x", &[1]).observe(1);
        let snap = r.snapshot();
        assert_eq!(snap.value("f_total", &[("p", "a")]), Some(1));
        assert_eq!(snap.value("g", &[]), Some(7));
        assert_eq!(snap.value("f_total", &[]), None, "labels must match");
        assert_eq!(snap.value("h", &[]), None, "a histogram has no one value");
    }
}
