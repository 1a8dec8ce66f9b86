//! Hierarchical analysis of loop nests (paper §3.2): inner loops are
//! summarized when an outer loop is analyzed — summary nodes may generate
//! outer-IV references and conservatively kill what they write.

use arrayflow::analyses::{analyze_nest, nest_distance_vectors, nest_sites};
use arrayflow::core::Dist;
use arrayflow::ir::parse_program;

#[test]
fn summary_kill_blocks_outer_reuse() {
    // The inner loop rewrites B; the outer-level recurrence on B must be
    // conservatively dropped (the paper's "kills all instances" rule).
    let p = parse_program(
        "do j = 1, 100
           B[j+1] := B[j] + 1;
           do i = 1, 50
             B[i] := A[i] + j;
           end
         end",
    )
    .unwrap();
    let analyses = analyze_nest(&p).unwrap();
    let outer = analyses
        .iter()
        .find(|a| a.symbols.var_name(a.graph.iv) == "j")
        .unwrap();
    assert!(
        outer
            .reuse_pairs()
            .iter()
            .all(|r| outer.site_text(r.use_site) != "B[j]"),
        "the summary kill must block the B[j+1] → B[j] reuse: {:?}",
        outer.reuse_pairs()
    );
}

#[test]
fn summary_on_disjoint_array_preserves_outer_reuse() {
    // The inner loop touches only C — the outer B recurrence survives.
    let p = parse_program(
        "do j = 1, 100
           B[j+1] := B[j] + 1;
           do i = 1, 50
             C[i] := C[i] + j;
           end
         end",
    )
    .unwrap();
    let analyses = analyze_nest(&p).unwrap();
    let outer = analyses
        .iter()
        .find(|a| a.symbols.var_name(a.graph.iv) == "j")
        .unwrap();
    assert!(
        outer
            .reuse_pairs()
            .iter()
            .any(|r| r.gen_is_def && r.distance == 1),
        "{:?}",
        outer.reuse_pairs()
    );
}

#[test]
fn summary_generates_outer_iv_references() {
    // D[j] inside the inner loop is subscripted by the *outer* IV only:
    // it generates for the j-analysis (paper §3.2: "G[l₁] contains only
    // references whose subscripts are functions of the outer induction
    // variable").
    let p = parse_program(
        "do j = 1, 100
           do i = 1, 50
             D[j] := D[j] + A[i];
           end
           s := D[j-1] + s;
         end",
    )
    .unwrap();
    let analyses = analyze_nest(&p).unwrap();
    let outer = analyses
        .iter()
        .find(|a| a.symbols.var_name(a.graph.iv) == "j")
        .unwrap();
    // D[j] written in iteration j−1 is what D[j−1] reads — but D[j] is
    // rewritten (only at the same location) each iteration… for the outer
    // analysis D[j] kills only distance-0 instances of itself (same-node
    // post kill in summaries is conservative), so check the raw solution:
    // the D[j] generator must at least reach the following statement.
    let d_gen = outer
        .available
        .built
        .spec
        .gens
        .iter()
        .find(|g| outer.site_text_of(g) == "D[j]" && g.is_def);
    assert!(d_gen.is_some(), "summary contributes the D[j] generator");
    // And its instances reach the use node at distance ≥ 1 unless the
    // conservative summary post-kill suppressed it — either way the
    // solution is sound; here the subscripts are identical so the exact
    // kill applies: distance 0 only at the summary, aged to 1 at the use.
    let g = d_gen.unwrap();
    let use_node = outer
        .sites
        .iter()
        .find(|s| !s.is_def && outer.site_text_of_ref(&s.aref) == "D[j - 1]")
        .unwrap()
        .node;
    let v = outer.available.before(use_node, g.id);
    assert!(v >= Dist::Fin(0), "solution present: {v}");
}

#[test]
fn three_deep_nest_analyzes_every_level() {
    let p = parse_program(
        "do k = 1, 10
           do j = 1, 10
             do i = 1, 10
               T[i+1, j, k] := T[i, j, k] + 1;
             end
           end
         end",
    )
    .unwrap();
    let analyses = analyze_nest(&p).unwrap();
    assert_eq!(analyses.len(), 3);
    // The i-level sees the distance-1 recurrence; j and k levels see the
    // conservative summary (no constant-distance reuse in j or k alone).
    let by_iv = |name: &str| {
        analyses
            .iter()
            .find(|a| a.symbols.var_name(a.graph.iv) == name)
            .unwrap()
    };
    assert!(by_iv("i").reuse_pairs().iter().any(|r| r.distance == 1));
    assert!(by_iv("j").reuse_pairs().is_empty());
    assert!(by_iv("k").reuse_pairs().is_empty());
    // The distance-vector extension summarizes the whole nest: (0, 0, 1).
    let (_, sites) = nest_sites(&p).unwrap();
    let vectors: Vec<_> = nest_distance_vectors(&p)
        .unwrap()
        .into_iter()
        .filter(|d| sites[d.src].is_def)
        .map(|d| d.distances)
        .collect();
    assert_eq!(vectors, vec![vec![0, 0, 1]]);
}

#[test]
fn pass_bounds_hold_with_summaries() {
    let p = parse_program(
        "do j = 1, 100
           A[j+2] := A[j] * 2;
           do i = 1, 20
             C[i] := C[i] + A[j];
           end
           B[j] := A[j+1];
         end",
    )
    .unwrap();
    for a in analyze_nest(&p).unwrap() {
        for inst in a.instances() {
            assert!(inst.sol.stats.changing_passes <= 2, "{:?}", inst.sol.stats);
        }
    }
}

#[test]
fn outer_reuse_across_a_harmless_summary() {
    // Fig. 1-style outer recurrence with an inner loop between generator
    // and use that does not touch A: the A[j+2] → A[j+1] distance-1 reuse
    // must survive the summary node.
    let p = parse_program(
        "do j = 1, 100
           A[j+2] := A[j] * 2;
           do i = 1, 20
             C[i] := C[i] + A[j];
           end
           B[j] := A[j+1];
         end",
    )
    .unwrap();
    let analyses = analyze_nest(&p).unwrap();
    let outer = analyses
        .iter()
        .find(|a| a.symbols.var_name(a.graph.iv) == "j")
        .unwrap();
    assert!(
        outer.reuse_pairs().iter().any(|r| {
            r.gen_is_def
                && outer.site_text(r.gen_site) == "A[j + 2]"
                && outer.site_text(r.use_site) == "A[j + 1]"
                && r.distance == 1
        }),
        "{:?}",
        outer
            .reuse_pairs()
            .iter()
            .map(|r| (
                outer.site_text(r.gen_site),
                outer.site_text(r.use_site),
                r.distance
            ))
            .collect::<Vec<_>>()
    );
}
