//! Integration tests for the four framework instances, driven from source
//! text through the full pipeline (parse → graph → sites → spec → solve →
//! interpretation).

use arrayflow_analyses::{analyze_loop, best_reuse, DepKind};
use arrayflow_core::{Dist, CANNED};
use arrayflow_ir::parse_program;

fn fig1() -> arrayflow_ir::Program {
    parse_program(
        "do i = 1, UB
           C[i+2] := C[i] * 2;
           B[2*i] := C[i] + x;
           if C[i] == 0 then C[i] := B[i-1]; end
           B[i] := C[i+1];
         end",
    )
    .unwrap()
}

#[test]
fn fig1_reuses_match_section_3_5() {
    let a = analyze_loop(&fig1()).unwrap();
    let reuses = a.reuse_pairs();
    // §3.5 names three guaranteed reuses from must-reaching definitions:
    //   * C[i] in nodes 1 and 2 reuse C[i+2] from two iterations earlier,
    //   * B[i-1] reuses B[i] from one iteration earlier,
    //   * C[i+1] reuses C[i+2] from one iteration earlier.
    let mut found = Vec::new();
    for r in &reuses {
        if r.gen_is_def {
            found.push((a.site_text(r.use_site), a.site_text(r.gen_site), r.distance));
        }
    }
    assert!(
        found.contains(&("C[i]".into(), "C[i + 2]".into(), 2)),
        "{found:?}"
    );
    assert!(
        found.contains(&("B[i - 1]".into(), "B[i]".into(), 1)),
        "{found:?}"
    );
    assert!(
        found.contains(&("C[i + 1]".into(), "C[i + 2]".into(), 1)),
        "{found:?}"
    );
    // And NOT a reuse of C[i] at distance 2 at node 4's successor once the
    // conditional kill has struck… the guarded C[i] def kills instances of
    // C[i+2] beyond distance 1, which the framework models: the use C[i+1]
    // (distance 1) survives, a hypothetical C[i+2]-use at distance 2 after
    // the conditional would not. Verify via the raw solution:
    let c_plus_2 = a
        .available
        .built
        .spec
        .gens
        .iter()
        .find(|g| g.is_def && a.site_text_of(g) == "C[i + 2]")
        .unwrap();
    let final_node = a
        .sites
        .iter()
        .find(|s| a.site_text_of_ref(&s.aref) == "C[i + 1]")
        .unwrap()
        .node;
    assert_eq!(a.available.before(final_node, c_plus_2.id), Dist::Fin(1));
}

#[test]
fn same_iteration_use_use_reuse_is_found() {
    // Both uses of A[i] read the same element; the second can reuse the
    // first's loaded value at distance 0.
    let p = parse_program(
        "do i = 1, 100
           B[i] := A[i] + 1;
           Z[i] := A[i] * 2;
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let reuses = a.reuse_pairs();
    let zero = reuses
        .iter()
        .find(|r| r.distance == 0 && !r.gen_is_def)
        .expect("use→use reuse at distance 0");
    assert_eq!(a.site_text(zero.use_site), "A[i]");
}

#[test]
fn conditional_kill_blocks_must_reuse() {
    // The def A[i] under the conditional destroys the guarantee that A[i]'s
    // loaded value equals A[i-1] next iteration — scalar replacement based
    // on dependences alone would miss this.
    let p = parse_program(
        "do i = 1, 100
           B[i] := A[i];
           if x == 0 then A[i] := 0; end
           Z[i] := A[i-1];
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let reuses = a.reuse_pairs();
    // The use A[i-1] must NOT be served by the use A[i] of the previous
    // iteration (distance 1), because the conditional def may have
    // intervened.
    assert!(
        !reuses
            .iter()
            .any(|r| a.site_text(r.use_site) == "A[i - 1]" && !r.gen_is_def && r.distance == 1),
        "unsound reuse through a conditional kill: {reuses:?}"
    );
    // With the def unconditional, the reuse is *from the def* (distance 1).
    let p2 = parse_program(
        "do i = 1, 100
           B[i] := A[i];
           A[i] := 0;
           Z[i] := A[i-1];
         end",
    )
    .unwrap();
    let a2 = analyze_loop(&p2).unwrap();
    let reuses2 = a2.reuse_pairs();
    let use_site = a2
        .sites
        .iter()
        .position(|s| !s.is_def && a2.site_text_of_ref(&s.aref) == "A[i - 1]")
        .unwrap();
    let best = best_reuse(&reuses2, use_site).expect("reuse exists");
    assert!(best.gen_is_def, "the def provides the value");
    assert_eq!(best.distance, 1);
}

#[test]
fn fig6_redundant_store_is_detected() {
    // Fig. 6: the conditional store A[i+1] is 1-redundant — the
    // unconditional store A[i] overwrites the same element one iteration
    // later, and nothing reads A in between.
    let p = parse_program(
        "do i = 1, 1000
           A[i] := x;
           if c == 0 then A[i+1] := y; end
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let red = a.redundant_stores();
    assert_eq!(red.len(), 1, "{red:?}");
    assert_eq!(a.site_text(red[0].store_site), "A[i + 1]");
    assert_eq!(red[0].distance, 1);
    assert_eq!(a.site_text(red[0].killer_site), "A[i]");
}

#[test]
fn intervening_use_blocks_store_redundancy() {
    let p = parse_program(
        "do i = 1, 1000
           A[i] := x;
           z := A[i-1] + z;
           if c == 0 then A[i+1] := y; end
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    // A[i-1] reads the element A[i+1] wrote two iterations earlier…
    // actually it reads what A[i] wrote one iteration earlier — and A[i+1]'s
    // element is read by A[i-1] two iterations later *before* A[i]
    // overwrites it? A[i+1] at iteration i writes loc i+1; A[i-1] at
    // iteration i+2 reads loc i+1; A[i] at iteration i+1 *also* writes loc
    // i+1 — the use at distance 2 comes after the kill at distance 1, but
    // busy-ness requires NO preceding use within δ iterations; the use at
    // the top of iteration i+1 (loc i) ≠ loc i+1, so the kill still wins…
    // except the use z := A[i-1] in iteration i+1 reads loc i — fine.
    // The real blocker: the use in iteration i+1 happens *before* A[i]
    // executes? Order: A[i] first, then the use. So A[i] (distance 1) still
    // kills A[i+1] without a preceding use → still redundant!
    let red = a.redundant_stores();
    assert!(
        red.iter().any(|r| a.site_text(r.store_site) == "A[i + 1]"),
        "store remains redundant: the use reads a different element first"
    );

    // Now make the use actually read the element before the overwrite.
    let p2 = parse_program(
        "do i = 1, 1000
           z := A[i] + z;
           A[i] := x;
           if c == 0 then A[i+1] := y; end
         end",
    )
    .unwrap();
    let a2 = analyze_loop(&p2).unwrap();
    let red2 = a2.redundant_stores();
    assert!(
        !red2
            .iter()
            .any(|r| a2.site_text(r.store_site) == "A[i + 1]"),
        "the use A[i] at the top of the next iteration reads A[i+1]'s value first: {red2:?}"
    );
}

#[test]
fn dead_store_within_iteration() {
    let p = parse_program(
        "do i = 1, 100
           A[i] := 1;
           A[i] := 2;
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let red = a.redundant_stores();
    assert_eq!(red.len(), 1, "{red:?}");
    assert_eq!(red[0].distance, 0, "dead within its own iteration");
}

#[test]
fn dependences_of_simple_recurrence() {
    let p = parse_program("do i = 1, 100 A[i+1] := A[i]; end").unwrap();
    let a = analyze_loop(&p).unwrap();
    let deps = a.dependences(8);
    assert_eq!(deps.len(), 1, "{deps:?}");
    assert_eq!(deps[0].kind, DepKind::Flow);
    assert_eq!(deps[0].distance, 1);
}

#[test]
fn dependence_kinds_and_distances() {
    let p = parse_program(
        "do i = 1, 100
           A[i] := B[i-2];
           B[i] := A[i-3];
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let deps = a.dependences(8);
    // Flow: def A[i] → use A[i-3] at distance 3; def B[i] → use B[i-2] at 2.
    assert!(deps
        .iter()
        .any(|d| d.kind == DepKind::Flow && d.distance == 3 && a.site_text(d.src_site) == "A[i]"));
    assert!(deps
        .iter()
        .any(|d| d.kind == DepKind::Flow && d.distance == 2 && a.site_text(d.src_site) == "B[i]"));
    // No output dependences (each array has one def).
    assert!(!deps.iter().any(|d| d.kind == DepKind::Output));
}

#[test]
fn anti_dependence_is_reported() {
    // use A[i+1] at iteration i reads loc i+1; def A[i] at iteration i+1
    // overwrites it → anti dependence, distance 1.
    let p = parse_program(
        "do i = 1, 100
           B[i] := A[i+1];
           A[i] := x;
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let deps = a.dependences(8);
    assert!(
        deps.iter()
            .any(|d| d.kind == DepKind::Anti && d.distance == 1),
        "{deps:?}"
    );
}

#[test]
fn may_reaching_is_flow_sensitive_but_optimistic() {
    // The conditional def kills only on one path: may-reaching keeps the
    // dependence alive (conservative for parallelization), while
    // must-available denies the reuse (conservative for registers).
    let p = parse_program(
        "do i = 1, 100
           B[i] := A[i-1];
           if x == 0 then A[i] := 0; end
         end",
    )
    .unwrap();
    let a = analyze_loop(&p).unwrap();
    let deps = a.dependences(8);
    assert!(
        deps.iter()
            .any(|d| d.kind == DepKind::Flow && d.distance == 1),
        "may-analysis reports the potential flow dep: {deps:?}"
    );
    let reuses = a.reuse_pairs();
    assert!(
        !reuses
            .iter()
            .any(|r| r.gen_is_def && a.site_text(r.use_site) == "A[i - 1]"),
        "must-analysis denies guaranteed reuse from the conditional def"
    );
}

#[test]
fn solver_bounds_hold_for_all_four_instances() {
    let a = analyze_loop(&fig1()).unwrap();
    for ((name, _), inst) in CANNED.iter().zip(a.instances()) {
        assert!(
            inst.sol.stats.changing_passes <= 2,
            "{name}: {:?}",
            inst.sol.stats
        );
    }
    // Must-instances additionally ran the initialization pass.
    assert_eq!(a.reaching.sol.stats.init_visits, a.graph.len());
    assert_eq!(a.reaching_refs.sol.stats.init_visits, 0);
}

mod live_elements {
    use arrayflow_analyses::{enumerate_sites, Instance, GK};
    use arrayflow_core::{Direction, Dist, Mode};
    use arrayflow_graph::build_loop_graph;
    use arrayflow_ir::parse_program;

    fn live_instance(
        src: &str,
    ) -> (
        arrayflow_ir::Program,
        arrayflow_graph::LoopGraph,
        Vec<arrayflow_analyses::Site>,
        Instance,
    ) {
        let p = parse_program(src).unwrap();
        let l = p.sole_loop().unwrap().clone();
        let g = build_loop_graph(&l);
        let (sites, _) = enumerate_sites(&l, &g, &p.symbols);
        let inst = Instance::run(
            &g,
            &sites,
            GK::LIVE_ELEMENTS,
            Direction::Backward,
            Mode::May,
            None,
        )
        .unwrap();
        (p, g, sites, inst)
    }

    #[test]
    fn element_is_live_from_def_to_its_future_use() {
        // A[i+1] written at stmt 1 is read as A[i] one iteration later: at
        // the exit of the def node, the use's element is live at distance 1.
        let (_, g, _, inst) = live_instance(
            "do i = 1, 100
               A[i+1] := x;
               B[i] := A[i];
             end",
        );
        // The use A[i] is the only generator; its backward IN at the def
        // node (node 1) covers distance 1: the def writes an element the
        // use will read next iteration.
        let use_id = arrayflow_core::RefId(0);
        let def_node = arrayflow_graph::NodeId(1);
        assert!(
            inst.before(def_node, use_id).covers(1),
            "{:?}",
            inst.sol.before_row(def_node)
        );
        let _ = g;
    }

    #[test]
    fn overwrite_kills_liveness_beyond_the_def() {
        // Def first, use after: the use at iteration i + δ reads an element
        // the def of iteration i + δ has *already* rewritten, so at the
        // def's exit only the same-iteration read keeps the element live.
        let (_, _, sites, inst) = live_instance(
            "do i = 1, 100
               A[i] := x;
               B[i] := A[i];
             end",
        );
        let use_site = sites.iter().position(|s| !s.is_def).unwrap();
        let (use_id, _) = inst.gens().find(|&(_, s)| s == use_site).unwrap();
        let def_node = sites.iter().find(|s| s.is_def).unwrap().node;
        // Backward orientation: `before` at the def node is the solution at
        // its control *exit*. Only distance 0 (this iteration's read)
        // survives; every older instance is definitely overwritten first.
        let v = inst.before(def_node, use_id);
        assert!(v <= Dist::Fin(0), "liveness beyond the overwrite: {v}");
        assert!(v.covers(0), "the same-iteration read keeps it live: {v}");
    }

    #[test]
    fn use_before_def_keeps_liveness_unbounded() {
        // Use first: the future read happens before the future overwrite,
        // so the element stays live across iterations (⊤).
        let (_, _, sites, inst) = live_instance(
            "do i = 1, 100
               B[i] := A[i];
               A[i] := x;
             end",
        );
        let use_site = sites.iter().position(|s| !s.is_def).unwrap();
        let (use_id, _) = inst.gens().find(|&(_, s)| s == use_site).unwrap();
        let def_node = sites.iter().find(|s| s.is_def).unwrap().node;
        assert_eq!(inst.before(def_node, use_id), Dist::Top);
    }

    #[test]
    fn may_liveness_survives_conditional_defs() {
        let (_, _, sites, inst) = live_instance(
            "do i = 1, 100
               B[i] := A[i];
               if x > 0 then A[i] := 0; end
             end",
        );
        let use_site = sites.iter().position(|s| !s.is_def).unwrap();
        let (use_id, _) = inst.gens().find(|&(_, s)| s == use_site).unwrap();
        let def_node = sites.iter().find(|s| s.is_def).unwrap().node;
        // The conditional def is not a *definite* kill in may-mode: the
        // element may still be read arbitrarily far in the future (the
        // use sweeps every element eventually).
        assert_eq!(inst.before(def_node, use_id), Dist::Top);
    }

    #[test]
    fn backward_may_respects_pass_bound() {
        let (_, g, _, inst) = live_instance(
            "do i = 1, 100
               A[i+2] := A[i] + x;
               if A[i] > 3 then B[i] := A[i+1]; end
             end",
        );
        assert!(inst.sol.stats.changing_passes <= 2, "{:?}", inst.sol.stats);
        assert_eq!(inst.sol.stats.init_visits, 0);
        let _ = g;
    }
}

#[test]
fn overflowing_subscripts_analyze_without_panicking() {
    // The offset difference of the first pair overflows i64; the second
    // overflows the i128 kill-range arithmetic of the must derivation.
    for src in [
        "do i = 1, UB X[i + 9223372036854775807] := 0; X[i - 9223372036854775807] := 0; end",
        "do i = 1, 9000000000000000000 X[4611686018427387903*i] := 0; X[i+1] := X[3*i]; end",
    ] {
        let p = arrayflow_ir::parse_program(src).unwrap();
        let a = arrayflow_analyses::analyze_loop(&p).unwrap();
        a.reuse_pairs();
        a.redundant_stores();
        a.dependences(16);
    }
}

#[test]
fn distances_beyond_32_bits_are_exact() {
    let p = arrayflow_ir::parse_program(
        "do i = 1, UB A[i+5000000000] := 0; A[i] := A[i+5000000000]; end",
    )
    .unwrap();
    let a = arrayflow_analyses::analyze_loop(&p).unwrap();
    // The latest 5 000 000 000 instances of A[i+5000000000] reach the
    // second statement, whose A[i] overwrites the oldest of them.
    let (def, _) = a.reaching.gens().next().unwrap();
    let second = arrayflow_graph::NodeId(2);
    assert_eq!(a.reaching.before(second, def), Dist::Fin(5_000_000_000));
    assert_eq!(
        a.reaching.sol.after_at(second, def),
        Dist::Fin(4_999_999_999)
    );
}
