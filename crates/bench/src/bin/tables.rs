//! Regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p arrayflow-bench --bin tables            # all
//! cargo run --release -p arrayflow-bench --bin tables -- e4 e7   # subset
//! ```

use arrayflow_analyses::{analyze_loop, analyze_nest, report};
use arrayflow_baselines::{compare_reuses, reuses_from_state, simulate_available};
use arrayflow_core::CANNED;
use arrayflow_ir::interp::run_with;
use arrayflow_ir::{Env, Program};
use arrayflow_machine::{
    compile, compile_with, compile_with_style, CostModel, Machine, PipelineStyle,
};
use arrayflow_opt::{
    allocate, dep_graph, eliminate_redundant_loads, eliminate_redundant_stores, unroll,
    PipelineConfig,
};
use arrayflow_workloads::{
    all_kernels, fig1, fig4, fig5, fig6, fig7, pair_sum, random_loop, LoopShape,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |tag: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(tag));

    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
}

fn banner(tag: &str, what: &str) {
    println!("\n================================================================");
    println!("{tag}: {what}");
    println!("================================================================");
}

/// E1 — Table 1: must-reaching definitions on the Fig. 1 loop, per pass.
fn e1() {
    banner(
        "E1",
        "Table 1 — must-reaching definitions on Fig. 1 (per pass)",
    );
    println!("{}", report::render_table1(&fig1(None)).unwrap());
}

/// E2 — Fig. 2 lattice behaviour: solver effort per instance on Fig. 1,
/// plus the 3·N scaling law across loop sizes.
fn e2() {
    banner(
        "E2",
        "lattice/solver behaviour on Fig. 1 (paper bounds: 3N must / 2N may)",
    );
    let a = analyze_loop(&fig1(None)).unwrap();
    for ((name, _), inst) in CANNED.iter().zip(a.instances()) {
        println!("{name:<13} {}", report::render_stats(inst, &a.graph));
    }
    println!(
        "
scaling (δ-available on random loops): visits to fix vs 3·N"
    );
    println!(
        "{:<8} {:>6} {:>14} {:>8}",
        "stmts", "N", "visits_to_fix", "3·N"
    );
    for stmts in [8usize, 32, 128, 512] {
        let p = random_loop(
            &LoopShape {
                stmts,
                arrays: 4,
                cond_pct: 25,
                ..LoopShape::default()
            },
            42,
        );
        let a = analyze_loop(&p).unwrap();
        let n = a.graph.len();
        println!(
            "{:<8} {:>6} {:>14} {:>8}",
            stmts,
            n,
            a.available.sol.stats.visits_to_fix(n),
            3 * n
        );
    }
}

/// E3 — Fig. 4: multi-dimensional recurrences via linearization.
fn e3() {
    banner(
        "E3",
        "Fig. 4 — recurrences in a loop nest (linearized subscripts)",
    );
    let p = fig4();
    for a in analyze_nest(&p).unwrap() {
        let iv = a.symbols.var_name(a.graph.iv).to_string();
        let reuses = a.reuse_pairs();
        println!("with respect to `{iv}`: {} recurrence(s)", reuses.len());
        for r in reuses {
            println!(
                "  {} <- {} at distance {}",
                a.site_text(r.use_site),
                a.site_text(r.gen_site),
                r.distance
            );
        }
    }
    println!("statement (3) Z[i+1,j] := Z[i,j-1]: not expressible per single IV (expected)");
    // §6 extension: distance vectors over the whole nest.
    let (ivs, sites) = arrayflow_analyses::nest_sites(&p).unwrap();
    let names: Vec<&str> = ivs.iter().map(|&v| p.symbols.var_name(v)).collect();
    println!("distance vectors over ({}):", names.join(", "));
    for d in arrayflow_analyses::nest_distance_vectors(&p).unwrap() {
        if sites[d.src].is_def {
            println!(
                "  {} -> {}: {:?}",
                arrayflow_ir::pretty::ref_to_string(&p.symbols, &sites[d.src].aref),
                arrayflow_ir::pretty::ref_to_string(&p.symbols, &sites[d.dst].aref),
                d.distances
            );
        }
    }
}

/// E4 — Fig. 5: register pipelining measured on the simulator.
fn e4() {
    banner(
        "E4",
        "Fig. 5 — register pipelining (loads/stores/moves/cycles per variant)",
    );
    let cost = CostModel::default();
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>10} {:>6}",
        "kernel", "loads", "stores", "moves", "alu", "cycles", "regs"
    );
    for (name, p) in [
        ("fig5/conventional", fig5(1000)),
        ("smooth3", arrayflow_workloads::smooth3(1000)),
        (
            "clipped_wavefront",
            arrayflow_workloads::clipped_wavefront(1000),
        ),
    ] {
        let analysis = analyze_loop(&p).unwrap();
        let alloc = allocate(&analysis, &PipelineConfig::default());
        let conv = compile(&p).unwrap();
        let pipe = compile_with(&p, &alloc.plan).unwrap();
        let unrolled = compile_with_style(&p, &alloc.plan, PipelineStyle::Unrolled).unwrap();
        for (variant, c) in [("conv", &conv), ("pipe", &pipe), ("unroll", &unrolled)] {
            let mut m = Machine::new();
            for arr in p.symbols.array_ids() {
                for k in -8..1100 {
                    m.set_mem(arr, k, k % 23);
                }
            }
            for v in p.symbols.var_ids() {
                m.set_reg(c.scalar_regs[&v], 2);
            }
            m.run(&c.code).unwrap();
            println!(
                "{:<22} {:>9} {:>9} {:>9} {:>9} {:>10} {:>6}",
                format!("{name}/{variant}"),
                m.stats.loads,
                m.stats.stores,
                m.stats.moves,
                m.stats.alu,
                m.stats.cycles(&cost),
                if variant == "conv" {
                    0
                } else {
                    alloc.registers_used
                },
            );
        }
    }
}

fn measure_ir(p: &Program) -> (u64, u64) {
    let env = run_with(p, |e: &mut Env| {
        for a in p.symbols.array_ids() {
            for k in -8..1200 {
                e.set_elem(a, vec![k], k % 13);
            }
        }
        for v in p.symbols.var_ids() {
            e.set_scalar(v, 1);
        }
    })
    .unwrap();
    (env.stats.array_reads, env.stats.array_writes)
}

/// E5 — Fig. 6: redundant store elimination.
fn e5() {
    banner(
        "E5",
        "Fig. 6 — redundant store elimination (array writes before/after)",
    );
    let p = fig6(1000);
    let se = eliminate_redundant_stores(&p).unwrap();
    let (_, w0) = measure_ir(&p);
    let (_, w1) = measure_ir(&se.program);
    println!(
        "stores removed: {}; unpeeled iterations: {}; array writes {w0} -> {w1}",
        se.removed.len(),
        se.unpeeled
    );
}

/// E6 — Fig. 7: redundant load elimination.
fn e6() {
    banner(
        "E6",
        "Fig. 7 — redundant load elimination (array reads before/after)",
    );
    let p = fig7(1000);
    let le = eliminate_redundant_loads(&p).unwrap();
    let (r0, _) = measure_ir(&p);
    let (r1, _) = measure_ir(&le.program);
    println!(
        "loads replaced: {}; temp chains: {}; array reads {r0} -> {r1}",
        le.replaced_uses, le.chains
    );
}

/// E7 — §3.2/§3.3 efficiency: framework node visits vs explicit instance
/// propagation, as the reuse distance grows.
fn e7() {
    banner(
        "E7",
        "pass bounds — framework visits vs Rau-style instance simulation",
    );
    println!(
        "{:<18} {:>6} {:>16} {:>12} {:>12} {:>10}",
        "workload", "N", "framework", "sim visits", "sim iters", "agree"
    );
    for d in [1i64, 2, 4, 8, 16, 32] {
        let p = pair_sum(200, d);
        let a = analyze_loop(&p).unwrap();
        let sim = simulate_available(&a.graph, &a.sites, 64, 500);
        let fw_reuses: std::collections::BTreeSet<_> = a
            .reuse_pairs()
            .into_iter()
            .map(|r| (r.gen_site, r.use_site, r.distance))
            .collect();
        let sim_reuses: std::collections::BTreeSet<_> = reuses_from_state(&a.graph, &a.sites, &sim)
            .into_iter()
            .collect();
        println!(
            "{:<18} {:>6} {:>16} {:>12} {:>12} {:>10}",
            format!("pair_sum d={d}"),
            a.graph.len(),
            a.available.sol.stats.visits_to_fix(a.graph.len()),
            sim.node_visits,
            sim.iterations,
            fw_reuses == sim_reuses
        );
    }
    // Random structured loops: average over 20 seeds.
    let shape = LoopShape::default();
    let mut fw = 0usize;
    let mut sim_v = 0usize;
    let mut max_pass = 0usize;
    for seed in 0..20 {
        let p = random_loop(&shape, 400 + seed);
        let a = analyze_loop(&p).unwrap();
        fw += a.available.sol.stats.visits_to_fix(a.graph.len());
        max_pass = max_pass.max(a.available.sol.stats.changing_passes);
        let sim = simulate_available(&a.graph, &a.sites, 32, 500);
        sim_v += sim.node_visits;
    }
    println!(
        "random x20:        avg framework visits {}, avg sim visits {}, max changing passes {}",
        fw / 20,
        sim_v / 20,
        max_pass
    );
}

/// E8 — §4.3: predicted vs measured critical path of unrolled bodies.
fn e8() {
    banner(
        "E8",
        "controlled unrolling — predicted l_unroll vs ground truth",
    );
    println!(
        "{:<20} {:>3} {:>10} {:>10} {:>8}",
        "kernel", "f", "predicted", "measured", "bound"
    );
    for (name, p) in all_kernels(64) {
        let Ok(a) = analyze_loop(&p) else { continue };
        let g = dep_graph(&a, 8);
        let l1 = g.critical_path(1);
        for f in [2u64, 4] {
            let predicted = g.critical_path(f);
            let Ok(u) = unroll(&p, f) else { continue };
            let main = match &u.body[0] {
                arrayflow_ir::Stmt::Do(l) => l.clone(),
                _ => continue,
            };
            let Ok(ua) = arrayflow_analyses::LoopAnalysis::of_loop(&main, &u.symbols) else {
                continue;
            };
            let measured = dep_graph(&ua, 1).critical_path(1);
            println!(
                "{:<20} {:>3} {:>10} {:>10} {:>8}",
                name,
                f,
                predicted,
                measured,
                if predicted as u64 <= 2 * f / 2 * l1 as u64 * f {
                    "l..2l ok"
                } else {
                    "!"
                }
            );
        }
    }
}

/// E10 — the full pipeline on a Livermore-style kernel suite: reuses,
/// pipelined load reduction, redundancy elimination and the unrolling
/// decision, per kernel.
fn e10() {
    banner(
        "E10",
        "kernel suite — end-to-end optimization summary (UB = 1000)",
    );
    println!(
        "{:<20} {:>7} {:>11} {:>11} {:>9} {:>9} {:>7}",
        "kernel", "reuses", "loads conv", "loads pipe", "st.elim", "ld.elim", "unroll"
    );
    for (name, p) in arrayflow_workloads::livermore_kernels(1000) {
        let mut p = p;
        arrayflow_ir::normalize(&mut p);
        let Ok(analysis) = analyze_loop(&p) else {
            continue;
        };
        let reuses = analysis.reuse_pairs().len();
        let alloc = allocate(&analysis, &PipelineConfig::default());
        let conv = compile(&p).unwrap();
        let pipe = compile_with(&p, &alloc.plan).unwrap();
        let run = |c: &arrayflow_machine::Compiled| {
            let mut m = Machine::new();
            for a in p.symbols.array_ids() {
                for k in -16..1100 {
                    m.set_mem(a, k, (k % 13) + 1);
                }
            }
            for v in p.symbols.var_ids() {
                m.set_reg(c.scalar_regs[&v], 2);
            }
            m.run(&c.code).unwrap();
            m.stats
        };
        let s_conv = run(&conv);
        let s_pipe = run(&pipe);
        let se = eliminate_redundant_stores(&p).unwrap();
        let le = eliminate_redundant_loads(&p).unwrap();
        let unroll_decision =
            arrayflow_opt::controlled_unroll(&p, &arrayflow_opt::UnrollConfig::default())
                .map(|r| r.factor)
                .unwrap_or(1);
        println!(
            "{:<20} {:>7} {:>11} {:>11} {:>9} {:>9} {:>7}",
            name,
            reuses,
            s_conv.loads,
            s_pipe.loads,
            se.removed.len(),
            le.replaced_uses,
            unroll_decision
        );
    }
}

/// E9 — §1/§5: flow-sensitive framework vs dependence-based scalar
/// replacement under conditional control flow.
fn e9() {
    banner(
        "E9",
        "flow sensitivity — framework vs dependence-based scalar replacement",
    );
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "framework", "dep-based", "fw-only", "base-only"
    );
    for (name, p) in all_kernels(100) {
        let Ok(a) = analyze_loop(&p) else { continue };
        let cmp = compare_reuses(&a);
        println!(
            "{:<20} {:>10} {:>10} {:>10} {:>10}",
            name, cmp.framework, cmp.dependence_based, cmp.framework_only, cmp.baseline_only
        );
    }
    // Conditional-heavy random loops, aggregated.
    let shape = LoopShape {
        cond_pct: 60,
        ..LoopShape::default()
    };
    let mut fw = 0;
    let mut base = 0;
    let mut fw_only = 0;
    let mut base_only = 0;
    for seed in 0..30 {
        let p = random_loop(&shape, 900 + seed);
        let a = analyze_loop(&p).unwrap();
        let cmp = compare_reuses(&a);
        fw += cmp.framework;
        base += cmp.dependence_based;
        fw_only += cmp.framework_only;
        base_only += cmp.baseline_only;
    }
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>10}   (30 random conditional-heavy loops)",
        "random/cond60", fw, base, fw_only, base_only
    );
}
