//! The per-layer ledger (`--trace 1`): a sample of the corpus through each
//! layer alone, then through the serving stack, with spans taken in this
//! file around each call into a layer.
//!
//! Layer-alone figures are medians over programs of the time per call.
//! Serving figures combine client round trips with the means of the
//! server's own histograms, scraped from its `metrics` verb.
//! `LoopAnalysis::of_loop` builds the flow graph, the sites and one flow
//! table per instance before iterating, so `fixpoint_us` is what remains
//! of its time once those are subtracted. `router_hop_us` is the median paired
//! difference of routed and direct warm round trips, so it reads below
//! zero when the routed path is no slower than the direct one.

use std::path::Path;

use arrayflow::analyses::{build_spec, enumerate_sites, LoopAnalysis, GK};
use arrayflow::core::{Direction, FlowTable, Mode};
use arrayflow::engine::{AnalysisReport, Engine, EngineConfig, ProblemSet};
use arrayflow::graph::build_loop_graph;
use arrayflow::ir::{fingerprint_loop, normalize, parse_program};
use arrayflow::store::codec::encode_report;
use arrayflow::workloads::random_edit;

use crate::corpus::{self, Source, Stream, TIERS};
use crate::reference::{self, DISTANCE_BOUND};
use crate::serve::{self, histogram_mean, Proc};
use crate::stats::{mean, median, per_call_us, timed, Metric};

/// Back-to-back calls per layer timing.
const REPS: u32 = 8;
/// Paired direct and routed round trips per program for the router hop.
const HOP_ROUNDS: usize = 4;
/// Seeded loops per E16 tier (small, medium, large) in the ledger's
/// sample, besides the eight Livermore kernels.
const PER_TIER: [usize; 3] = [8, 8, 2];
/// The four framework instances `LoopAnalysis::of_loop` solves.
const INSTANCES: [(GK, Direction, Mode); 4] = [
    (GK::REACHING_DEFS, Direction::Forward, Mode::Must),
    (GK::AVAILABLE, Direction::Forward, Mode::Must),
    (GK::BUSY_STORES, Direction::Backward, Mode::Must),
    (GK::REACHING_REFS, Direction::Forward, Mode::May),
];

pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub correct: bool,
}

/// Per-program samples of each layer run alone.
#[derive(Default)]
struct Alone {
    parse: Vec<f64>,
    normalize: Vec<f64>,
    fingerprint: Vec<f64>,
    graph: Vec<f64>,
    sites: Vec<f64>,
    flow_table: Vec<f64>,
    fixpoint: Vec<f64>,
    report: Vec<f64>,
    render: Vec<f64>,
    encode: Vec<f64>,
    direct: Vec<f64>,
    open: Vec<f64>,
    delta: Vec<f64>,
    dirty_columns: usize,
    total_columns: usize,
    passes: Vec<f64>,
    visits: Vec<f64>,
}

fn us(took: std::time::Duration) -> f64 {
    took.as_secs_f64() * 1e6
}

fn single_worker() -> Engine {
    Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
}

fn alone(source: &Source, edit_seed: u64, t: &mut Alone) -> Result<(), String> {
    let text = &source.text;
    let parsed = parse_program(text).map_err(|e| e.to_string())?;
    t.parse.push(per_call_us(REPS, || parse_program(text)));
    t.normalize.push(per_call_us(REPS, || {
        let mut p = parsed.clone();
        normalize(&mut p);
        p.renumber();
        p
    }));
    let mut p = parsed.clone();
    normalize(&mut p);
    p.renumber();
    let l = p.sole_loop().ok_or("ledger programs are single loops")?;
    t.fingerprint
        .push(per_call_us(REPS, || fingerprint_loop(l, &p.symbols)));

    let graph_us = per_call_us(REPS, || build_loop_graph(l));
    let graph = build_loop_graph(l);
    let sites_us = per_call_us(REPS, || enumerate_sites(l, &graph, &p.symbols));
    let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
    let table_us = per_call_us(REPS, || {
        INSTANCES.map(|(gk, direction, mode)| {
            FlowTable::build(&graph, &build_spec(&sites, gk, direction, mode).spec)
        })
    });
    let analysis_us = per_call_us(REPS, || LoopAnalysis::of_loop(l, &p.symbols));
    t.graph.push(graph_us);
    t.sites.push(sites_us);
    t.flow_table.push(table_us);
    t.fixpoint
        .push(analysis_us - graph_us - sites_us - table_us);

    let analysis = LoopAnalysis::of_loop(l, &p.symbols).map_err(|e| e.to_string())?;
    let fingerprint = fingerprint_loop(l, &p.symbols);
    let distill =
        || AnalysisReport::of_analysis(fingerprint, &analysis, ProblemSet::ALL, DISTANCE_BOUND);
    t.report.push(per_call_us(REPS, distill));
    let report = distill();
    t.render.push(per_call_us(REPS, || report.render()));
    t.encode.push(per_call_us(REPS, || encode_report(&report)));
    t.passes.push(report.solver_passes() as f64);
    t.visits.push(report.node_visits() as f64);

    // The direct engine path, cold: a fresh engine per call, built
    // outside the span.
    let mut direct = Vec::new();
    for _ in 0..3 {
        let engine = single_worker();
        let (took, result) = timed(|| engine.analyze_one(0, &parsed));
        if let Some(e) = result.error {
            return Err(format!("direct analysis failed: {e}"));
        }
        direct.push(us(took));
    }
    t.direct.push(median(&direct));

    // A session opened over the program, then one single-statement edit.
    let engine = single_worker();
    let mut numbered = parsed;
    numbered.renumber();
    let (took, opened) = timed(|| engine.open_session(&numbered));
    let (session, _) = opened.map_err(|e| e.to_string())?;
    t.open.push(us(took));
    let edit =
        random_edit(&numbered, &source.shape, edit_seed).ok_or("program without assignments")?;
    let (took, delta) = timed(|| engine.analyze_delta(session, &edit));
    let delta = delta.map_err(|e| e.to_string())?;
    t.delta.push(us(took));
    t.dirty_columns += delta.dirty_columns;
    t.total_columns += delta.total_columns;
    Ok(())
}

/// Round-trip times of `call` over every program, in microseconds.
fn round_trips<T>(
    pool: &[Source],
    mut call: impl FnMut(usize, &str) -> Result<T, String>,
) -> Result<(Vec<f64>, Vec<T>), String> {
    let mut times = Vec::with_capacity(pool.len());
    let mut outs = Vec::with_capacity(pool.len());
    for (i, source) in pool.iter().enumerate() {
        let (took, out) = timed(|| call(i, &source.text));
        times.push(us(took));
        outs.push(out?);
    }
    Ok((times, outs))
}

/// The ledger's sample of the corpus: the Livermore kernels and seeded
/// loops of the small, medium and large E16 tiers.
fn sample(seed: u64) -> Vec<Source> {
    let mut stream = Stream::new(seed, corpus::HOT);
    let mut pool = stream.livermore();
    for (t, &n) in PER_TIER.iter().enumerate() {
        pool.extend((0..n).map(|_| stream.program(TIERS[t])));
    }
    pool
}

/// Runs the ledger with a fresh `serve` node, and a router in front of it
/// for the router hop.
pub fn measure(serve_bin: &Path, seed: u64) -> Result<Ledger, String> {
    let pool = &sample(seed);
    let mut t = Alone::default();
    for (k, source) in pool.iter().enumerate() {
        alone(source, seed.wrapping_add(k as u64), &mut t)?;
    }

    // Cold requests to a fresh node: every program misses, so the node's
    // histograms hold exactly these requests when scraped. The router is
    // started only afterwards, so its health probes stay out of them.
    let node = Proc::spawn(serve_bin, &["--node-id", "n1"])?;
    let mut json = serve::client(&node.addr);
    let (cold, cold_reports) = round_trips(pool, |_, text| serve::analyze(&mut json, text))?;
    let text = serve::exposition(&mut json)?;
    let server_us = histogram_mean(&text, "arrayflow_request_latency_us", None);
    let queue_us = histogram_mean(&text, "arrayflow_queue_wait_us", None);
    let phase = |name: &str| {
        histogram_mean(
            &text,
            "arrayflow_phase_us",
            Some(&format!("phase=\"{name}\"")),
        )
    };
    let (decode_us, parse_us, normalize_us, solve_us) = (
        phase("decode"),
        phase("parse"),
        phase("normalize"),
        phase("solve"),
    );
    let accounted = queue_us
        + decode_us
        + parse_us
        + normalize_us
        + solve_us
        + phase("cache_get")
        + phase("cache_insert");

    let (warm, _) = round_trips(pool, |_, text| serve::analyze(&mut json, text))?;
    let fingerprints = pool
        .iter()
        .map(|s| arrayflow::fingerprint(&s.text))
        .collect::<Result<Vec<_>, _>>()?;
    let mut bin = serve::client(&node.addr);
    let (binary, _) = round_trips(pool, |i, text| {
        serve::analyze_fingerprint(&mut bin, fingerprints[i], text)
    })?;
    let router = Proc::spawn(serve_bin, &["--router", &format!("n1={}", node.addr)])?;
    let mut routed = serve::client(&router.addr);
    // The first pass opens the router's connection to the node. The hop
    // is then the difference of back-to-back direct and routed warm round
    // trips of one program, so both sides see the same host load; which
    // goes first alternates, since the second of a pair finds the report
    // in the processor's caches.
    round_trips(pool, |_, text| serve::analyze(&mut routed, text))?;
    let mut hops = Vec::with_capacity(HOP_ROUNDS * pool.len());
    for round in 0..HOP_ROUNDS {
        for source in pool {
            let mut pair = [0.0; 2];
            for side in [round % 2, 1 - round % 2] {
                let conn = if side == 0 { &mut json } else { &mut routed };
                let (took, out) = timed(|| serve::analyze(conn, &source.text));
                out?;
                pair[side] = us(took);
            }
            hops.push(pair[1] - pair[0]);
        }
    }
    drop((json, bin, routed, router, node));

    let correct = pool.iter().zip(&cold_reports).all(|(source, got)| {
        match reference::parse(&source.text).and_then(|p| reference::analyze_program(&p)) {
            Ok(want) => &want == got,
            Err(e) => {
                eprintln!("afbench: ledger: reference analysis failed: {e}");
                false
            }
        }
    });
    let metrics = vec![
        Metric::new("parse_us", median(&t.parse), "us"),
        Metric::new("normalize_us", median(&t.normalize), "us"),
        Metric::new("fingerprint_us", median(&t.fingerprint), "us"),
        Metric::new("graph_build_us", median(&t.graph), "us"),
        Metric::new("sites_us", median(&t.sites), "us"),
        Metric::new("flow_table_us", median(&t.flow_table), "us"),
        Metric::new("fixpoint_us", median(&t.fixpoint), "us"),
        Metric::new("report_us", median(&t.report), "us"),
        Metric::new("render_us", median(&t.render), "us"),
        Metric::new("encode_us", median(&t.encode), "us"),
        Metric::new("solver_passes", mean(&t.passes), "count"),
        Metric::new("node_visits", mean(&t.visits), "count"),
        Metric::new("direct_engine_us", median(&t.direct), "us"),
        Metric::new("session_open_us", median(&t.open), "us"),
        Metric::new("delta_us", median(&t.delta), "us"),
        Metric::new(
            "dirty_column_ratio",
            t.dirty_columns as f64 / t.total_columns.max(1) as f64,
            "ratio",
        ),
        Metric::new("json_cold_rtt_us", median(&cold), "us"),
        Metric::new("server_request_us", server_us, "us"),
        Metric::new("transport_us", mean(&cold) - server_us, "us"),
        Metric::new("queue_wait_us", queue_us, "us"),
        Metric::new("server_decode_us", decode_us, "us"),
        Metric::new("server_parse_us", parse_us, "us"),
        Metric::new("server_normalize_us", normalize_us, "us"),
        Metric::new("server_solve_us", solve_us, "us"),
        Metric::new(
            "unaccounted_pct",
            100.0 * (server_us - accounted) / server_us,
            "%",
        ),
        Metric::new("json_warm_rtt_us", median(&warm), "us"),
        Metric::new("binary_fingerprint_rtt_us", median(&binary), "us"),
        Metric::new("router_hop_us", median(&hops), "us"),
    ];
    Ok(Ledger { metrics, correct })
}
