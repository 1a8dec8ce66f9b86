//! Human-readable rendering of analysis results — used by the benchmark
//! harness to regenerate the paper's Table 1 and by diagnostics.

use std::fmt::Write;

use arrayflow_core::Dist;
use arrayflow_graph::{LoopGraph, NodeKind};
use arrayflow_ir::SymbolTable;

use crate::instances::Instance;

/// Renders the fixed point of an instance as a Table-1-style grid: one row
/// per node (`IN`/`OUT` pairs), one column per tracked reference.
pub fn render_solution(inst: &Instance, graph: &LoopGraph, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    let headers: Vec<String> = inst
        .built
        .spec
        .gens
        .iter()
        .map(|g| arrayflow_ir::pretty::ref_to_string(symbols, &g.aref))
        .collect();
    let _ = writeln!(out, "        tuples ({})", headers.join(", "));
    for node in graph.node_ids() {
        let label = match &graph.node(node).kind {
            NodeKind::Entry => "entry".to_string(),
            NodeKind::Exit => "exit ".to_string(),
            _ => format!("{node}   "),
        };
        let fmt_tuple = |v: &[Dist]| {
            let cells: Vec<String> = v.iter().map(|d| d.to_string()).collect();
            format!("({})", cells.join(", "))
        };
        let _ = writeln!(
            out,
            "IN [{label}] {}",
            fmt_tuple(&inst.sol.before_row(node))
        );
        let _ = writeln!(out, "OUT[{label}] {}", fmt_tuple(&inst.sol.after_row(node)));
    }
    out
}

/// Regenerates the paper's **Table 1** for a loop: the data flow tuples of
/// must-reaching definitions after the initialization pass and after each
/// iteration pass, at every node.
///
/// # Errors
///
/// Returns [`crate::AnalyzeError`] if the program is not a single
/// normalized loop.
pub fn render_table1(program: &arrayflow_ir::Program) -> Result<String, crate::AnalyzeError> {
    use arrayflow_core::{solve, solve_passes, CANNED};

    let l = program
        .sole_loop()
        .ok_or(crate::AnalyzeError::NotASingleLoop)?;
    let (graph, sites, symbols) = crate::prepare_loop(l, &program.symbols)?;
    let (_, reaching) = CANNED[0];
    let built = crate::spec::build_spec(
        &sites,
        crate::spec::GK::of(reaching),
        reaching.direction,
        reaching.mode,
    );
    // The state after initialization and after each iteration pass, up to
    // the confirming pass that changes nothing.
    let passes = solve(&graph, &built.spec, None)
        .expect("no stop check installed")
        .stats
        .passes;
    let snapshots = (0..=passes).map(|k| solve_passes(&graph, &built.spec, k));

    let headers: Vec<String> = built
        .spec
        .gens
        .iter()
        .map(|g| arrayflow_ir::pretty::ref_to_string(&symbols, &g.aref))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "tuples ({})", headers.join(", "));
    for (k, snapshot) in snapshots.enumerate() {
        let title = if k == 0 {
            "(i) initialization pass".to_string()
        } else {
            format!("(ii) pass {k}")
        };
        let _ = writeln!(out, "--- {title} ---");
        for node in graph.node_ids() {
            let label = graph.node(node).label(&symbols);
            let fmt_tuple = |v: &[Dist]| {
                let cells: Vec<String> = v.iter().map(|d| d.to_string()).collect();
                format!("({})", cells.join(", "))
            };
            let _ = writeln!(
                out,
                "IN [{node}] {:<22} OUT[{node}] {:<22} {label}",
                fmt_tuple(&snapshot.before_row(node)),
                fmt_tuple(&snapshot.after_row(node)),
            );
        }
    }
    Ok(out)
}

/// One-line summary of solver effort, e.g. `visits=21 (3 passes, N=7)`.
pub fn render_stats(inst: &Instance, graph: &LoopGraph) -> String {
    let s = &inst.sol.stats;
    format!(
        "init_visits={} iter_visits={} changing_passes={} visits_to_fix={} (N={})",
        s.init_visits,
        s.iter_visits,
        s.changing_passes,
        s.visits_to_fix(graph.len()),
        graph.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_solution_lists_every_node_and_reference() {
        let p = arrayflow_ir::parse_program("do i = 1, 10 A[i+1] := A[i] + 1; end").unwrap();
        let a = crate::analyze_loop(&p).unwrap();
        let txt = render_solution(&a.reaching, &a.graph, &a.symbols);
        assert!(txt.contains("tuples (A[i + 1])"), "{txt}");
        assert!(txt.contains("IN [entry]"), "{txt}");
        assert!(txt.contains("OUT[exit "), "{txt}");
        // One IN and one OUT line per node.
        assert_eq!(txt.matches("IN [").count(), a.graph.len(), "{txt}");
        assert_eq!(txt.matches("OUT[").count(), a.graph.len(), "{txt}");
    }

    #[test]
    fn render_table1_errors_on_non_loops() {
        let p = arrayflow_ir::parse_program("x := 1;").unwrap();
        assert!(render_table1(&p).is_err());
        let p2 = arrayflow_ir::parse_program("do i = 2, 9 A[i] := 0; end").unwrap();
        assert_eq!(
            render_table1(&p2).unwrap_err(),
            crate::AnalyzeError::NotNormalized
        );
    }
}
