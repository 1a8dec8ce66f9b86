//! Solver scaling: where a solve's time goes as the loop body grows. On
//! the E16 tier shapes (8/32/128/512 statements over 4/8/16/64 arrays,
//! the loops of `incremental_throughput`), each row times the flow table
//! builds alone and the complete fresh solves of the three column
//! families `analyze_loop` solves (the [`CANNED`] rows that are their own
//! `canned_source`; it selects the fourth), as it solves them: the
//! families of one roles and direction together ([`canned_solves`]), in
//! one `FlowTable::build_modes` and one `solve_modes` per group; the
//! fixpoint
//! iteration is the median of their paired differences (timed back to
//! back), which stays meaningful even where the table build is most of
//! the solve. The paper's claim is linear work — 3·N node visits for
//! must-problems — once every flow function is reduced to constants, so
//! the table build must not outgrow the iteration.
//!
//! Results go to `BENCH_solver.json` at the workspace root, one line per
//! (row, tier), each timing's median beside its first and third quartiles
//! (`_q1_us`, `_q3_us`): one run's rows swing by more than a small
//! change, so two rows differ only where their ranges do not overlap. A run writes its rows under the label given as the first
//! argument (`change` by default; a second argument records a commit)
//! and keeps every row of other labels already in the file, so the
//! baseline is the same bench run on the parent commit with
//! `cargo bench -p arrayflow-bench --bench solver_scaling -- parent <commit>`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use arrayflow_analyses::{build_spec, enumerate_sites, BuiltSpec, GK};
use arrayflow_bench::{bench, report};
use arrayflow_core::{canned_solves, solve_modes, FlowTable, Mode, CANNED};
use arrayflow_graph::build_loop_graph;
use arrayflow_workloads::{random_loop, LoopShape};

/// The E16 tiers: name, statements, arrays.
const TIERS: [(&str, usize, usize); 4] = [
    ("small", 8, 4),
    ("medium", 32, 8),
    ("large", 128, 16),
    ("xlarge", 512, 64),
];

/// Microseconds per call: the first quartile, the median and the third
/// quartile of seven timings.
#[derive(Clone, Copy)]
struct Quartiles([f64; 3]);

impl Quartiles {
    fn of(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        // Nearest rank: the ⌈n·q/4⌉-th smallest of n timings.
        let at = |q: usize| v[(v.len() * q).div_ceil(4) - 1];
        Quartiles([at(1), at(2), at(3)])
    }

    fn median(self) -> f64 {
        self.0[1]
    }

    /// The row fields of a timing named `name`: its median, then its
    /// quartiles.
    fn fields(self, name: &str) -> String {
        let [q1, median, q3] = self.0;
        format!(r#""{name}_us": {median:.1}, "{name}_q1_us": {q1:.1}, "{name}_q3_us": {q3:.1}"#)
    }
}

/// Times `part` and `whole` back to back, seven times each with the same
/// iteration count (calibrated so one timing of `whole` lasts ≥ 20 ms),
/// and returns the quartiles of the microseconds per call of `part`, of
/// `whole`, and of their paired difference.
fn paired(mut part: impl FnMut(), mut whole: impl FnMut()) -> [Quartiles; 3] {
    let iters = bench("calibration", &mut whole).iters;
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    let (mut parts, mut wholes, mut diffs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let (p, w) = (time(&mut part), time(&mut whole));
        parts.push(p);
        wholes.push(w);
        diffs.push(w - p);
    }
    [parts, wholes, diffs].map(Quartiles::of)
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let label = args.next().unwrap_or_else(|| "change".to_string());
    let commit = args
        .next()
        .map_or(String::new(), |c| format!(r#""commit": "{c}", "#));
    println!("\n== solver: three column families per call, E16 tier shapes ==");
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for (tier, stmts, arrays) in TIERS {
        let p = random_loop(
            &LoopShape {
                stmts,
                arrays,
                ..LoopShape::default()
            },
            42,
        );
        let l = p.sole_loop().unwrap();
        let graph = build_loop_graph(l);
        let (sites, _) = enumerate_sites(l, &graph, &p.symbols);
        // The solves `analyze_loop` runs: per group of families, the spec
        // rows of the first and the modes of all.
        let families: Vec<(BuiltSpec, Vec<Mode>)> = canned_solves()
            .into_iter()
            .map(|group| {
                let spec = CANNED[group[0]].1;
                let built = build_spec(&sites, GK::of(spec), spec.direction, spec.mode);
                (built, group.iter().map(|&k| CANNED[k].1.mode).collect())
            })
            .collect();
        let [table, solve, fixpoint] = paired(
            || {
                for (built, modes) in &families {
                    black_box(FlowTable::build_modes(
                        &graph,
                        black_box(&built.spec),
                        modes,
                    ));
                }
            },
            || {
                for (built, modes) in &families {
                    black_box(solve_modes(&graph, black_box(&built.spec), modes, None).unwrap());
                }
            },
        );
        let end_to_end = bench(&format!("analyze_loop/{stmts}"), || {
            black_box(arrayflow_analyses::analyze_loop(black_box(&p)).unwrap());
        });
        let analyze_us = end_to_end.ns() / 1e3;
        let [table_us, solve_us, fixpoint_us] = [table, solve, fixpoint].map(Quartiles::median);
        println!(
            "{tier:<7} {stmts:>4} stmts  flow table {table_us:>12.1} us  fixpoint {fixpoint_us:>10.1} us  \
             solve {solve_us:>12.1} us  analyze_loop {analyze_us:>12.1} us"
        );
        lines.push(format!(
            r#"    {{"row": "{label}", {commit}"tier": "{tier}", "stmts": {stmts}, "arrays": {arrays}, "nodes": {}, {}, {}, {}, "analyze_loop_us": {analyze_us:.1}}}"#,
            graph.len(),
            table.fields("flow_table"),
            fixpoint.fields("fixpoint"),
            solve.fields("solve"),
        ));
        rows.push(end_to_end);
    }
    report("analyze_loop end to end", &rows);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.json");
    let kept: Vec<String> = std::fs::read_to_string(&out)
        .unwrap_or_default()
        .lines()
        .filter(|l| l.contains(r#""row": "#) && !l.contains(&format!(r#""row": "{label}""#)))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"solver_scaling\",\n  \"unit\": \"microseconds per call of the three solved column families; medians of 7 back-to-back runs with their first and third quartiles (_q1_us, _q3_us), fixpoint_us the median paired difference of solve and flow table\",\n  \"host_threads\": {threads},\n  \"rows\": [\n{}\n  ]\n}}\n",
        kept.into_iter().chain(lines).collect::<Vec<_>>().join(",\n")
    );
    std::fs::write(&out, json).expect("write BENCH_solver.json");
    println!("\nwrote {}", out.display());
}
