//! Quickstart: parse a loop, run the analyses, inspect the results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use arrayflow::analyses::analyze_loop;
use arrayflow::core::CANNED;
use arrayflow::ir::parse_program;

fn main() {
    // A Fortran-like DO loop in the crate's text format. Array subscripts
    // are affine in the induction variable; conditionals are allowed (and
    // are exactly where this framework beats dependence-based methods).
    let program = parse_program(
        "do i = 1, 1000
           A[i+2] := A[i] + x;
           if A[i+2] > 100 then B[i] := A[i+1]; end
         end",
    )
    .expect("well-formed source");

    // One call yields all four canned framework instances: must-reaching
    // definitions, δ-available values, δ-busy stores and δ-reaching
    // references (three solves; reaching definitions are a selection of
    // δ-available values' columns).
    let analysis = analyze_loop(&program).expect("single normalized loop");

    println!("guaranteed value reuses (δ-available values):");
    for r in analysis.reuse_pairs() {
        println!(
            "  {} reuses the value of {} from {} iteration(s) earlier ({})",
            analysis.site_text(r.use_site),
            analysis.site_text(r.gen_site),
            r.distance,
            if r.gen_is_def {
                "stored value"
            } else {
                "loaded value"
            },
        );
    }

    println!("\npotential loop-carried dependences (δ-reaching references):");
    for d in analysis.dependences(4) {
        println!(
            "  {:?} dependence {} -> {} at distance {}",
            d.kind,
            analysis.site_text(d.src_site),
            analysis.site_text(d.dst_site),
            d.distance
        );
    }

    println!("\nsolver effort (the paper's three-pass bound):");
    for ((name, _), inst) in CANNED.iter().zip(analysis.instances()) {
        println!(
            "  {name:<13} {}",
            arrayflow::analyses::report::render_stats(inst, &analysis.graph)
        );
    }
}
