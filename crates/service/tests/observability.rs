//! Observability integration tests: the metrics registry exported by a
//! running service, the `metrics` verb's Prometheus exposition, the
//! request-accounting rule over every outcome, and regression coverage
//! for the three accounting bugfixes — oversized frames no longer skew
//! the latency histogram, queue wait is measured and included in request
//! latency, and `serve` reports a store-open failure as a structured
//! one-line error instead of panicking.

mod common;

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use arrayflow_engine::{passes_to_fix, CustomSpec, Engine, EngineConfig, Mode, Problem, CANNED};
use arrayflow_ir::parse_program;
use arrayflow_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use arrayflow_resilience::FaultPlan;
use arrayflow_service::{Frame, FrameHandler, Json, Service, ServiceConfig};
use arrayflow_store::StoreConfig;

/// Every value of `arrayflow_responses_total{outcome}`.
const OUTCOMES: [&str; 7] = [
    "ok",
    "parse",
    "analysis",
    "overloaded",
    "protocol",
    "session_lost",
    "cancelled",
];

fn histogram(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    histogram_with(snap, name, &[])
}

fn histogram_with(
    snap: &MetricsSnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> HistogramSnapshot {
    match snap.find_with(name, labels) {
        Some(m) => match &m.value {
            MetricValue::Histogram(h) => h.clone(),
            other => panic!("{name}{labels:?} is not a histogram: {other:?}"),
        },
        None => panic!("metric {name}{labels:?} not registered"),
    }
}

/// Answers one JSON line in process.
fn ask(service: &Arc<Service>, frame: &[u8]) -> String {
    String::from_utf8(service.handle_frame(Frame::Json(frame))).unwrap()
}

fn analyze_frame(id: usize, program: &str) -> String {
    format!(r#"{{"id": {id}, "verb": "analyze", "program": "{program}"}}"#)
}

/// Structurally distinct single-loop programs (cache misses, so the
/// solver actually runs and pass counts land in the histograms).
fn distinct_programs(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            format!(
                "do i = 1, {} A[i+{}] := A[i] + x; B[i] := A[i+{}]; end",
                50 + k,
                1 + (k % 4),
                1 + (k % 4),
            )
        })
        .collect()
}

fn assert_ok(resp: &str) {
    let json = Json::parse(resp.as_bytes()).expect("valid response JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok response, got {resp}"
    );
}

/// Regression (bugfix 1): oversized frames get their own counter and are
/// never timed — the latency histogram and request total only ever see
/// frames that produced a response. Pre-fix, each oversized frame was
/// counted as a protocol error and observed as a zero-microsecond
/// latency, silently dragging the distribution toward zero.
#[test]
fn oversized_frames_never_enter_the_latency_distribution() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    for i in 0..4 {
        let resp = ask(
            &service,
            format!(r#"{{"id": {i}, "verb": "ping"}}"#).as_bytes(),
        );
        assert_ok(&resp);
    }
    for _ in 0..7 {
        service.oversized();
    }

    let snap = service.registry().snapshot();
    assert_eq!(snap.value("arrayflow_oversized_frames_total", &[]), Some(7));
    assert_eq!(
        snap.value("arrayflow_requests_total", &[]),
        Some(4),
        "oversized frames are not requests"
    );
    assert_eq!(
        snap.value("arrayflow_responses_total", &[("outcome", "protocol")]),
        Some(0),
        "oversized is its own class"
    );
    let latency = histogram(&snap, "arrayflow_request_latency_us");
    assert_eq!(latency.count, 4, "only timed frames reach the histogram");

    service.shutdown();
    service.join_workers();
}

/// The paper's convergence bound, asserted from exported metrics alone:
/// must-problems (reaching, available, busy) fix within three solver
/// passes and the may-problem (reaching_refs) within two, so the
/// cumulative bucket at the bound swallows the whole distribution.
#[test]
fn solver_pass_bound_is_assertable_from_metrics_alone() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    for (i, p) in distinct_programs(8).iter().enumerate() {
        let resp = ask(&service, analyze_frame(i, p).as_bytes());
        assert_ok(&resp);
    }

    let snap = service.registry().snapshot();
    for (problem, spec) in CANNED {
        let h = histogram_with(&snap, "arrayflow_solver_passes", &[("problem", problem)]);
        assert!(h.count > 0, "{problem} recorded no pass counts");
        let bound = match spec.mode {
            Mode::Must => 3,
            Mode::May => 2,
        };
        assert_eq!(
            h.cumulative_le(bound),
            Some(h.count),
            "{problem} exceeded the {bound}-pass bound: {h:?}"
        );
    }

    service.shutdown();
    service.join_workers();
}

/// The pass-accounting invariants, through the canned table: every
/// report a fresh solve produces lands once in the pass histogram of each
/// instance it carries — a canned-equivalent custom spec under its canned
/// name, only a non-canned spec under `custom` — and the engine's effort
/// counters sum the reports' own figures.
#[test]
fn pass_histograms_and_effort_counters_sum_the_reports() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Every request gets a program of its own, so every one is a miss.
    let programs: Vec<_> = distinct_programs(11)
        .iter()
        .map(|p| parse_program(p).unwrap())
        .collect();
    let live = CustomSpec::from_bits(0b11_0110).unwrap();
    assert_eq!(live.label(), "gu-kd-bwd-may");
    let mut results: Vec<_> = programs[..6]
        .iter()
        .map(|p| engine.analyze_one(0, p))
        .collect();
    let specs = CANNED.iter().map(|&(_, spec)| spec).chain([live]);
    for (p, spec) in programs[6..].iter().zip(specs) {
        results.push(engine.solve(0, p.clone(), Problem::Custom(spec), 8, None));
    }
    let reports: Vec<_> = results
        .iter()
        .map(|r| {
            assert!(r.error.is_none() && r.stats.cache_misses == 1, "{r:?}");
            Arc::clone(&r.loops[0].report)
        })
        .collect();

    let snap = engine.registry().snapshot();
    let names = CANNED.iter().map(|&(name, _)| name).chain(["custom"]);
    for problem in names {
        let carried: Vec<u64> = reports
            .iter()
            .flat_map(|r| r.instance_stats())
            .filter(|&(name, _)| name == problem)
            .map(|(_, s)| passes_to_fix(&s))
            .collect();
        let h = histogram_with(&snap, "arrayflow_solver_passes", &[("problem", problem)]);
        assert_eq!(h.count, carried.len() as u64, "{problem}: count");
        assert_eq!(h.sum, carried.iter().sum::<u64>(), "{problem}: sum");
        let expected = if problem == "custom" { 1 } else { 7 };
        assert_eq!(h.count, expected, "{problem}: reports carrying it");
    }
    let passes: usize = reports.iter().map(|r| r.solver_passes()).sum();
    let visits: usize = reports.iter().map(|r| r.node_visits()).sum();
    assert_eq!(
        snap.value("arrayflow_engine_solver_passes_total", &[]),
        Some(passes as u64)
    );
    assert_eq!(
        snap.value("arrayflow_engine_node_visits_total", &[]),
        Some(visits as u64)
    );
}

/// Regression (bugfix 2): time spent queued behind other requests is
/// measured (its own histogram) and included in request latency, which
/// is stamped at frame acceptance rather than at worker pickup.
#[test]
fn queue_wait_is_measured_and_included_in_latency() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let programs = distinct_programs(6);
    std::thread::scope(|scope| {
        for (i, p) in programs.iter().enumerate() {
            let service = &service;
            scope.spawn(move || {
                let resp = ask(service, analyze_frame(i, p).as_bytes());
                assert_ok(&resp);
            });
        }
    });

    let snap = service.registry().snapshot();
    let wait = histogram(&snap, "arrayflow_queue_wait_us");
    let latency = histogram(&snap, "arrayflow_request_latency_us");
    assert_eq!(wait.count, programs.len() as u64, "one wait per analyze");
    assert_eq!(latency.count, programs.len() as u64);
    assert!(
        latency.sum >= wait.sum,
        "queue wait ({}us) must be contained in latency ({}us)",
        wait.sum,
        latency.sum
    );
    assert_eq!(wait.total(), wait.count, "buckets partition the count");

    service.shutdown();
    service.join_workers();
}

/// N writer threads hammer `handle_frame` with a mixed workload while a
/// reader polls registry snapshots: totals must be monotone across
/// polls, and once quiescent the latency histogram count must equal the
/// request total and the per-outcome response counters must partition it.
#[test]
fn metrics_snapshots_stay_consistent_under_concurrent_load() {
    const WRITERS: usize = 4;
    const FRAMES_EACH: usize = 25;
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let stop = AtomicBool::new(false);
    let polls = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let reader_service = &service;
        let (stop, polls) = (&stop, &polls);
        let reader = scope.spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = reader_service.registry().snapshot();
                let requests = snap.value("arrayflow_requests_total", &[]).unwrap();
                assert!(requests >= last, "requests_total went backwards");
                last = requests;
                polls.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let service = &service;
                scope.spawn(move || {
                    for i in 0..FRAMES_EACH {
                        let frame = match i % 4 {
                            0 => format!(r#"{{"id": {i}, "verb": "ping"}}"#),
                            1 => analyze_frame(
                                i,
                                &format!("do i = 1, {} A[i+1] := A[i]; end", 10 + w),
                            ),
                            2 => analyze_frame(i, "do this is not a program"),
                            _ => "{\"not\": \"a request\"".to_string(),
                        };
                        let _ = ask(service, frame.as_bytes());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    });

    assert!(polls.load(Ordering::Relaxed) > 0, "reader never polled");
    let total = (WRITERS * FRAMES_EACH) as u64;
    let snap = service.registry().snapshot();
    assert_eq!(snap.value("arrayflow_requests_total", &[]), Some(total));
    let latency = histogram(&snap, "arrayflow_request_latency_us");
    assert_eq!(latency.count, total, "every request is timed exactly once");
    assert_eq!(
        latency.total(),
        latency.count,
        "buckets partition the count"
    );
    let by_outcome: u64 = OUTCOMES
        .iter()
        .filter(|&&o| o != "cancelled")
        .map(|o| {
            snap.value("arrayflow_responses_total", &[("outcome", o)])
                .unwrap()
        })
        .sum();
    assert_eq!(by_outcome, total, "outcomes partition the request total");

    service.shutdown();
    service.join_workers();
}

/// Answers one frame in process on a thread of its own, so that several
/// can be in flight at once.
fn answer_async(service: &Arc<Service>, frame: &str) -> JoinHandle<String> {
    let (service, frame) = (Arc::clone(service), frame.to_string());
    std::thread::spawn(move || ask(&service, frame.as_bytes()))
}

fn assert_kind(resp: &str, kind: &str) {
    assert!(
        resp.contains(&format!(r#""kind":"{kind}""#)),
        "{kind}: {resp}"
    );
}

/// The request-accounting rule, from one snapshot of one run that
/// produces every outcome: `requests_total` is the sum of
/// `responses_total` over every outcome but `cancelled`, every request is
/// timed exactly once, and cancelled and oversized traffic show only in
/// their own series.
#[test]
fn requests_are_every_outcome_but_cancelled_and_oversized() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        // Every solve stalls, so one job holds the lone worker while the
        // 1-deep queue fills.
        faults: Some(Arc::new(FaultPlan::parse("latency_us=200000").unwrap())),
        ..ServiceConfig::default()
    })
    .unwrap();
    let blocking = |frame: &str| ask(&service, frame.as_bytes());

    assert_ok(&blocking(r#"{"id": 1, "verb": "ping"}"#));
    assert_kind(&blocking(&analyze_frame(2, "do do do")), "parse");
    // Sessions need a single loop.
    let open = r#"{"id": 3, "verb": "open", "program": "x := 1;"}"#;
    assert_kind(&blocking(open), "analysis");
    assert_kind(&blocking("} not json"), "protocol");
    let delta = r#"{"id": 4, "verb": "delta", "session": 99, "fingerprint": "00000000000000000000000000000000", "stmt": 0, "text": "x := 1;"}"#;
    assert_kind(&blocking(delta), "session_lost");
    // A spent budget is shed by the worker, the one deadline.
    let spent = r#"{"id": 5, "verb": "analyze", "program": "do i = 1, 9 A[i+1] := A[i]; end", "deadline_ms": 0}"#;
    assert_kind(&blocking(spent), "cancelled");
    // The worker takes one stalled solve, the queue holds one more, and
    // the rest are turned away.
    let flood: Vec<_> = distinct_programs(3)
        .iter()
        .enumerate()
        .map(|(i, p)| answer_async(&service, &analyze_frame(7 + i, p)))
        .collect();
    let flood: Vec<String> = flood.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        flood.iter().any(|r| r.contains(r#""kind":"overloaded""#)),
        "{flood:?}"
    );
    service.oversized();
    service.oversized();

    let snap = service.registry().snapshot();
    let responses = |outcome| {
        snap.value("arrayflow_responses_total", &[("outcome", outcome)])
            .unwrap()
    };
    for outcome in OUTCOMES {
        assert!(responses(outcome) > 0, "no {outcome} response");
    }
    let requests = snap.value("arrayflow_requests_total", &[]).unwrap();
    let answered: u64 = OUTCOMES
        .iter()
        .filter(|&&o| o != "cancelled")
        .map(|o| responses(o))
        .sum();
    assert_eq!(
        requests, answered,
        "requests are every outcome but cancelled"
    );
    let latency = histogram(&snap, "arrayflow_request_latency_us");
    assert_eq!(latency.count, requests, "every request is timed once");
    // Cancelled and oversized traffic land only in their own series: the
    // eight frames answered in time above are every request, and the one
    // `protocol` answer is the malformed frame's.
    assert_eq!(requests, 8);
    assert_eq!(responses("protocol"), 1);
    assert_eq!(responses("cancelled"), 1);
    let shed = |reason| {
        snap.value("arrayflow_cancelled_jobs_total", &[("reason", reason)])
            .unwrap()
    };
    assert_eq!((shed("expired"), shed("disconnect")), (1, 0));
    assert_eq!(snap.value("arrayflow_oversized_frames_total", &[]), Some(2));

    service.shutdown();
    service.join_workers();
}

/// The `metrics` verb returns every layer's instruments — service,
/// engine, cache, store, tier — as one Prometheus text exposition, the
/// answer's only field.
#[test]
fn metrics_verb_exports_every_layer() {
    let dir = std::env::temp_dir().join(format!("afobs-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::start(ServiceConfig {
        store: Some(StoreConfig::at(&dir)),
        ..ServiceConfig::default()
    })
    .unwrap();
    let resp = ask(
        &service,
        analyze_frame(0, &distinct_programs(1)[0]).as_bytes(),
    );
    assert_ok(&resp);

    let resp = ask(&service, br#"{"id": 1, "verb": "metrics"}"#);
    let json = Json::parse(resp.as_bytes()).expect("metrics response parses");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    // The result is the exposition alone, in the router's shape.
    let prometheus = common::exposition(&json);
    assert_eq!(
        json.get("result"),
        Some(&Json::Obj(vec![(
            "prometheus".into(),
            Json::Str(prometheus.clone())
        )]))
    );
    for expected in [
        "arrayflow_requests_total",            // service
        "arrayflow_request_latency_us",        // service histogram
        "arrayflow_queue_wait_us",             // service histogram
        "arrayflow_oversized_frames_total",    // service counter
        "arrayflow_engine_programs_total",     // engine
        "arrayflow_solver_passes",             // per-problem solver histogram
        "arrayflow_phase_us",                  // per-phase timing histogram
        "arrayflow_cache_hits_total",          // cache
        "arrayflow_store_appends_total",       // store
        "arrayflow_tier_queued_appends_total", // tier
    ] {
        assert!(
            prometheus.contains(&format!("# TYPE {expected} ")),
            "metrics verb is missing {expected}; got {prometheus}"
        );
    }
    assert!(prometheus.contains("# TYPE arrayflow_request_latency_us histogram"));
    assert!(prometheus.contains("arrayflow_request_latency_us_bucket{le=\"+Inf\"}"));
    assert!(prometheus.contains("# TYPE arrayflow_queue_wait_us histogram"));
    assert!(prometheus.contains("arrayflow_solver_passes_bucket{"));
    assert!(prometheus.contains("arrayflow_oversized_frames_total"));

    service.shutdown();
    service.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a `delta`'s TTL sweep drops expired sessions, and the
/// open-sessions gauge follows at once. It used to keep counting them
/// until some later stats request swept the store again.
#[test]
fn a_delta_sweep_updates_the_session_series() {
    let service = Service::start(ServiceConfig {
        engine: EngineConfig {
            session_ttl_ms: 40,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    for id in 1..=2 {
        let resp = ask(
            &service,
            format!(
                r#"{{"id": {id}, "verb": "open", "program": "do i = 1, 9 A[i+1] := A[i]; end"}}"#
            )
            .as_bytes(),
        );
        assert_ok(&resp);
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let resp = ask(&service,
        br#"{"id": 3, "verb": "delta", "session": 1, "fingerprint": "00000000000000000000000000000000", "stmt": 0, "text": "A[i+1] := A[i];"}"#,
    );
    assert!(resp.contains(r#""kind":"session_lost""#), "{resp}");

    let resp = ask(&service, br#"{"id": 4, "verb": "metrics"}"#);
    let text = common::exposition(&Json::parse(resp.as_bytes()).unwrap());
    let series = |name: &str, labels: &[&str]| common::scrape(&text, name, labels);
    assert_eq!(series("arrayflow_sessions_open", &[]), Some(0));
    assert_eq!(
        series("arrayflow_sessions_evicted_total", &[r#"reason="ttl""#]),
        Some(2)
    );
    assert_eq!(series("arrayflow_sessions_opened_total", &[]), Some(2));
    assert_eq!(series("arrayflow_delta_applied_total", &[]), Some(0));
    assert_eq!(series("arrayflow_delta_requests_total", &[]), Some(1));

    service.shutdown();
    service.join_workers();
}

/// Regression (bugfix 3): a store directory that cannot be created makes
/// `serve` exit nonzero with a single structured error line — it used to
/// panic through an `.expect()` in `Service::start`.
#[test]
fn serve_store_open_failure_is_structured_and_nonzero() {
    let file = std::env::temp_dir().join(format!("afobs-notadir-{}", std::process::id()));
    std::fs::write(&file, b"occupies the path").unwrap();
    let store = file.join("store"); // parent is a regular file: create fails
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--store", store.to_str().unwrap()])
        .output()
        .expect("run serve");
    assert!(!out.status.success(), "serve must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serve: error: cannot open report store:"),
        "missing structured error line, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "serve panicked: {stderr}");
    let _ = std::fs::remove_file(&file);
}

/// `--slow-log 0` logs every request to stderr with its trace id and
/// per-phase span breakdown — the answer's `encode` included — and each
/// request's spans fit within its latency: without a store the recorded
/// spans are disjoint, and each is truncated to whole microseconds, so
/// they sum to at most `total_us`.
#[test]
fn slow_log_zero_emits_span_breakdown_per_request() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdio", "--slow-log", "0", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve --stdio");
    let requests = [
        analyze_frame(0, "do i = 1, 20 A[i+1] := A[i]; end"),
        r#"{"id": 1, "verb": "open", "program": "do i = 1, 50 A[i+1] := A[i]; B[i] := A[i]; end"}"#
            .to_string(),
        r#"{"id": 2, "verb": "delta", "session": 1, "fingerprint": "00000000000000000000000000000000", "stmt": 1, "text": "B[i] := A[i] + 1;"}"#
            .to_string(),
        r#"{"id": 3, "verb": "custom", "program": "do i = 1, 40 A[i+2] := A[i]; end", "spec": {"gen": ["uses"], "kill": ["defs"], "direction": "backward", "mode": "may"}}"#
            .to_string(),
        r#"{"id": 4, "verb": "shutdown"}"#.to_string(),
    ];
    {
        let stdin = child.stdin.as_mut().unwrap();
        for request in &requests {
            writeln!(stdin, "{request}").unwrap();
        }
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("serve exit");
    assert!(
        out.status.success(),
        "stdio shutdown exits 0: {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        requests.len(),
        "one response per request: {stdout}"
    );
    for line in stdout.lines() {
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    let slow: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("serve: slow-request trace="))
        .collect();
    assert!(
        slow.len() >= requests.len(),
        "expected a slow-log line per request, stderr: {stderr}"
    );
    let analyze_line = slow
        .iter()
        .find(|l| l.contains("queue_wait="))
        .unwrap_or_else(|| panic!("no analyze slow-log line with spans: {slow:?}"));
    for span in [
        "decode=",
        "queue_wait=",
        "parse=",
        "fingerprint=",
        "solve=",
        "encode=",
        "total_us=",
    ] {
        assert!(
            analyze_line.contains(span),
            "slow-log line missing {span}: {analyze_line}"
        );
    }
    for line in &slow {
        let (_, spans) = line
            .split_once(" total_us=")
            .unwrap_or_else(|| panic!("no total: {line}"));
        let micros = |us: &str| us.parse::<u64>().expect("whole microseconds");
        let (total, spans) = spans.split_once(' ').unwrap_or((spans, ""));
        let total = micros(total);
        let sum: u64 = spans
            .split_whitespace()
            .map(|span| micros(span.rsplit_once('=').expect("name=value").1))
            .sum();
        assert!(
            sum <= total,
            "spans sum to {sum} µs over total {total}: {line}"
        );
    }
}

/// Requests through a cloned `Arc<Service>` land on the same registry:
/// instruments are shared, not per-handle.
#[test]
fn registry_is_shared_across_service_handles() {
    let service = Service::start(ServiceConfig::default()).unwrap();
    let clone = Arc::clone(&service);
    let resp = ask(&clone, br#"{"id": 0, "verb": "ping"}"#);
    assert_ok(&resp);
    let snap = service.registry().snapshot();
    assert_eq!(snap.value("arrayflow_requests_total", &[]), Some(1));
    service.shutdown();
    service.join_workers();
}
