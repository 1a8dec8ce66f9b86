//! Incremental analysis throughput: edits/sec through a live session
//! (`Engine::analyze_delta`) against full re-analysis of the edited
//! program, by loop size.
//!
//! The session path pays only for the lattice columns the edit dirties;
//! the full path pays normalize + graph construction + a complete solve
//! on every edit — the cost a session-less server charges per keystroke.
//! The gap must widen with loop size: that is the point of the
//! subsystem. The run also writes machine-readable results to
//! `BENCH_incremental.json` at the workspace root.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use arrayflow_analyses::analyze_nest;
use arrayflow_engine::{Engine, EngineConfig};
use arrayflow_ir::apply_edit;
use arrayflow_workloads::{random_edits, random_loop, LoopShape};

struct Tier {
    name: &'static str,
    stmts: usize,
    edits: usize,
    incremental_eps: f64,
    full_eps: f64,
    speedup: f64,
    dirty_fraction: f64,
    fallbacks: u64,
}

/// Median of three timed runs.
fn median3<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut runs: Vec<(Duration, R)> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let r = f();
            (start.elapsed(), r)
        })
        .collect();
    runs.sort_by_key(|(d, _)| *d);
    runs.swap_remove(1)
}

fn run_tier(name: &'static str, stmts: usize, arrays: usize, edits: usize) -> Tier {
    let shape = LoopShape {
        stmts,
        arrays,
        ..LoopShape::default()
    };
    let base = random_loop(&shape, 42);
    let mut source = base.clone();
    source.renumber();
    let edits = random_edits(&source, &shape, edits, 7);

    // Incremental: a fresh session per run, one delta per edit. The
    // session's program evolves through the same chain the full path
    // replays below.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Opening the session is the one-time full analysis; the per-edit
    // cost under measurement is the delta loop alone.
    let (inc, (dirty, total, fallbacks)) = {
        let mut runs: Vec<(Duration, (u64, u64, u64))> = (0..3)
            .map(|_| {
                let (session, _) = engine.open_session(&base).expect("open session");
                let start = Instant::now();
                let mut dirty = 0u64;
                let mut total = 0u64;
                let mut fallbacks = 0u64;
                for edit in &edits {
                    let d = engine.analyze_delta(session, edit).expect("delta");
                    dirty += d.dirty_columns as u64;
                    total += d.total_columns as u64;
                    fallbacks += d.fallback as u64;
                    black_box(&d.report);
                }
                let elapsed = start.elapsed();
                engine.close_session(session);
                (elapsed, (dirty, total, fallbacks))
            })
            .collect();
        runs.sort_by_key(|(d, _)| *d);
        runs.swap_remove(1)
    };

    // Full: apply each edit, then re-analyze the whole loop from scratch
    // with the uncached sequential driver.
    let (full, _) = median3(|| {
        let mut source = base.clone();
        source.renumber();
        for edit in &edits {
            apply_edit(&mut source, edit).expect("apply edit");
            let mut p = source.clone();
            arrayflow_ir::normalize(&mut p);
            p.renumber();
            black_box(analyze_nest(&p).expect("workload analyzes"));
        }
    });

    let incremental_eps = edits.len() as f64 / inc.as_secs_f64();
    let full_eps = edits.len() as f64 / full.as_secs_f64();
    Tier {
        name,
        stmts,
        edits: edits.len(),
        incremental_eps,
        full_eps,
        speedup: incremental_eps / full_eps,
        dirty_fraction: dirty as f64 / total.max(1) as f64,
        fallbacks,
    }
}

fn main() {
    println!("\n== incremental throughput: edit chains, delta vs full re-analysis ==");
    // The array pool grows with the loop: big loops reference many
    // arrays, while a single-statement edit still touches at most three
    // of them — so the edit's *locality* grows with program size, which
    // is exactly what the incremental path exploits.
    let mut tiers = Vec::new();
    for (name, stmts, arrays, edits) in [
        ("small", 8, 4, 64),
        ("medium", 32, 8, 48),
        ("large", 128, 16, 24),
        ("xlarge", 512, 64, 8),
    ] {
        let t = run_tier(name, stmts, arrays, edits);
        println!(
            "{:<8} {:>4} stmts  {:>10.0} edits/s incremental  {:>9.0} edits/s full  \
             speedup {:>6.2}x  dirty {:>5.1}%  fallbacks {}",
            t.name,
            t.stmts,
            t.incremental_eps,
            t.full_eps,
            t.speedup,
            100.0 * t.dirty_fraction,
            t.fallbacks,
        );
        tiers.push(t);
    }

    // Record the measurement before judging it, so a run that misses the
    // bars below still leaves its numbers behind.
    let rows: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                r#"    {{"tier": "{}", "stmts": {}, "edits": {}, "incremental_edits_per_sec": {:.1}, "full_edits_per_sec": {:.1}, "speedup": {:.2}, "dirty_column_fraction": {:.4}, "fallbacks": {}}}"#,
                t.name, t.stmts, t.edits, t.incremental_eps, t.full_eps, t.speedup, t.dirty_fraction, t.fallbacks
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"incremental_throughput\",\n  \"tiers\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_incremental.json");
    std::fs::write(&out, json).expect("write BENCH_incremental.json");
    println!("\nwrote {}", out.display());

    // The acceptance bar: single-statement edits on the largest tier must
    // be at least 5x faster than re-analyzing from scratch.
    let largest = tiers.last().unwrap();
    assert!(
        largest.speedup >= 5.0,
        "largest tier speedup {:.2}x < 5x",
        largest.speedup
    );
    // And assignment-for-assignment chains never leave the fast path.
    assert!(
        tiers.iter().all(|t| t.fallbacks == 0),
        "unexpected fallbacks"
    );
}
