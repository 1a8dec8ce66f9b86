//! `AnalysisReport::render` against the formatter-based rendering it
//! replaced: every canned selection and every custom spec, at two
//! distance bounds, over seeded random loops and the Livermore kernels,
//! answered through the engine's one solve entry.

use std::fmt::Write as _;

use arrayflow_core::Dist;
use arrayflow_engine::{AnalysisReport, CustomSpec, Engine, EngineConfig, Problem, ProblemSet};
use arrayflow_workloads::{livermore_kernels, random_loop, LoopShape};

/// The formatter-based rendering [`AnalysisReport::render`] replaced:
/// every line through `writeln!`, and a `String` per custom value.
fn reference_render(r: &AnalysisReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loop fp={} problems={:#06b} maxdist={} nodes={} sites={}",
        r.fingerprint,
        r.problems.bits(),
        r.dep_max_distance,
        r.nodes,
        r.sites
    );
    if let Some(c) = &r.custom {
        let _ = writeln!(out, "  custom spec={} width={}", c.spec.label(), c.width);
    }
    for (name, s) in r.instance_stats() {
        let _ = writeln!(
            out,
            "  solve {name}: init={} iter={} passes={} changing={}",
            s.init_visits, s.iter_visits, s.passes, s.changing_passes
        );
    }
    if let Some(c) = &r.custom {
        for v in &c.values {
            let dist = match v.dist {
                Dist::Bottom => "bot".to_string(),
                Dist::Fin(x) => x.to_string(),
                Dist::Top => "top".to_string(),
            };
            let _ = writeln!(
                out,
                "  val gen={} site={} node={} dist={dist}",
                v.gen, v.gen_site, v.node
            );
        }
    }
    for u in &r.reuses {
        let _ = writeln!(
            out,
            "  reuse use_site={} gen_site={} dist={} gen_is_def={}",
            u.use_site, u.gen_site, u.distance, u.gen_is_def
        );
    }
    for s in &r.redundant_stores {
        let _ = writeln!(
            out,
            "  redundant_store site={} killer={} dist={}",
            s.store_site, s.killer_site, s.distance
        );
    }
    for d in &r.dependences {
        let _ = writeln!(
            out,
            "  dep {:?} src={} dst={} dist={}",
            d.kind, d.src_site, d.dst_site, d.distance
        );
    }
    out
}

#[test]
fn render_matches_the_formatter_reference() {
    let shapes = [
        LoopShape::default(),
        LoopShape {
            stmts: 24,
            arrays: 4,
            cond_pct: 35,
            ..LoopShape::default()
        },
    ];
    let mut programs: Vec<_> = (0..24)
        .map(|k| random_loop(&shapes[k % shapes.len()], k as u64))
        .collect();
    programs.extend(livermore_kernels(100).into_iter().map(|(_, p)| p));
    let problems = (0..=0b1111)
        .filter_map(ProblemSet::from_bits)
        .map(Problem::Canned);
    let specs = (0..=u8::MAX)
        .filter_map(CustomSpec::from_bits)
        .map(Problem::Custom);
    let queries: Vec<Problem> = problems.chain(specs).collect();
    let engine = Engine::new(EngineConfig::default());
    let mut lines = 0;
    for program in &programs {
        for &problem in &queries {
            for bound in [0, 8] {
                let result = engine.solve(0, program.clone(), problem, bound, None);
                assert!(result.error.is_none(), "{:?}", result.error);
                for l in &result.loops {
                    let text = l.report.render();
                    assert_eq!(text, reference_render(&l.report));
                    lines += text.lines().count();
                }
            }
        }
    }
    assert!(lines > 10_000, "the corpus rendered only {lines} lines");
}
