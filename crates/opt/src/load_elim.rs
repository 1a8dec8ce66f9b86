//! Redundant load elimination / scalar replacement (paper §4.2.2, Fig. 7).
//!
//! Every guaranteed reuse found by the δ-available analysis is realized at
//! the source level by a chain of scalar temporaries — the IR-level
//! counterpart of a register pipeline:
//!
//! ```text
//! t₁ := A[f(0)]; …                       (pre-loop initialization)
//! do i = 1, UB
//!   t₀ := rhs; A[f(i)] := t₀;            (generating definition)
//!   … t_δ …                              (reuse point, was A[f(i−δ)])
//!   t_δ := t_{δ−1}; …                    (chain shift, end of body)
//! end
//! ```
//!
//! A generating *use* instead loads once into `t₀`. The transformation is
//! semantics-preserving by construction of the must-analysis: a reuse is
//! only reported when the generator's value reaches the use on **all**
//! paths, which also implies the generator executes unconditionally when
//! δ ≥ 1.

use std::collections::HashMap;

use arrayflow_analyses::{analyze_loop, best_reuse, AnalyzeError, LoopAnalysis, Reuse};
use arrayflow_ir::stmt::Assign;
use arrayflow_ir::stmt::StmtId;
use arrayflow_ir::{ArrayRef, Block, Expr, LValue, Program, Stmt, VarId};

/// Outcome of [`eliminate_redundant_loads`].
#[derive(Debug, Clone)]
pub struct LoadElim {
    /// The transformed program.
    pub program: Program,
    /// Number of array reads replaced by temporaries.
    pub replaced_uses: usize,
    /// Number of temporary chains introduced.
    pub chains: usize,
}

/// Plans and applies scalar replacement on a single-loop program.
///
/// # Errors
///
/// Propagates [`AnalyzeError`] from the analysis phase.
pub fn eliminate_redundant_loads(program: &Program) -> Result<LoadElim, AnalyzeError> {
    let analysis = analyze_loop(program)?;
    Ok(apply(program, &analysis))
}

struct Chain {
    gen_site: usize,
    temps: Vec<VarId>, // temps[j] = t_j
    reuses: Vec<Reuse>,
}

/// Applies scalar replacement given a completed analysis.
pub fn apply(program: &Program, analysis: &LoopAnalysis) -> LoadElim {
    let mut out = program.clone();
    let reuses = analysis.reuse_pairs();

    // One provider per use; group by generator.
    let mut per_gen: std::collections::BTreeMap<usize, Vec<Reuse>> = Default::default();
    let mut seen = std::collections::HashSet::new();
    for r in &reuses {
        if seen.insert(r.use_site) {
            if let Some(best) = best_reuse(&reuses, r.use_site) {
                per_gen.entry(best.gen_site).or_default().push(best.clone());
            }
        }
    }

    let mut chains = Vec::new();
    for (gen_site, rs) in per_gen {
        let site = &analysis.sites[gen_site];
        let usable = site.stmt.is_some()
            && !site.in_summary
            && site
                .sub
                .as_ref()
                .is_some_and(|s| s.coef.as_constant().is_some() && s.rest.as_constant().is_some())
            && rs.iter().all(|r| {
                analysis.sites[r.use_site].stmt.is_some() && !analysis.sites[r.use_site].in_summary
            });
        if !usable {
            continue;
        }
        let delta0 = rs.iter().map(|r| r.distance).max().unwrap_or(0) as usize;
        let base = analysis
            .site_text(gen_site)
            .replace(['[', ']', ' ', '+', '-', '*'], "_");
        let temps: Vec<VarId> = (0..=delta0)
            .map(|j| out.symbols.fresh_var(&format!("t_{base}_{j}")))
            .collect();
        chains.push(Chain {
            gen_site,
            temps,
            reuses: rs,
        });
    }

    if chains.is_empty() {
        return LoadElim {
            program: out,
            replaced_uses: 0,
            chains: 0,
        };
    }

    // Index the rewrites by statement.
    // use replacement: (stmt, textual ref) → temp
    let mut use_rewrites: HashMap<(StmtId, ArrayRef), VarId> = HashMap::new();
    // generator handling: stmt → (chain idx)
    let mut def_gens: HashMap<StmtId, usize> = HashMap::new();
    let mut use_gens: HashMap<StmtId, Vec<usize>> = HashMap::new();
    let mut replaced = 0usize;
    for (k, chain) in chains.iter().enumerate() {
        let gsite = &analysis.sites[chain.gen_site];
        let gstmt = gsite.stmt.expect("filtered");
        if gsite.is_def {
            def_gens.insert(gstmt, k);
        } else {
            use_gens.entry(gstmt).or_default().push(k);
        }
        for r in &chain.reuses {
            let usite = &analysis.sites[r.use_site];
            use_rewrites.insert(
                (usite.stmt.expect("filtered"), ArrayRef::clone(&usite.aref)),
                chain.temps[r.distance as usize],
            );
            replaced += 1;
        }
    }

    // The analysis facts hold only after δ₀ start-up iterations (paper
    // §3.2): peel the first P = max δ₀ iterations to run unchanged, then
    // initialize each temporary chain from memory — must-availability
    // guarantees the elements are still intact at that point — and enter
    // the rewritten steady-state loop at iteration P + 1.
    let peel = chains
        .iter()
        .map(|c| c.temps.len() as i64 - 1)
        .max()
        .unwrap_or(0);
    let original_body;
    let loop_iv;
    let upper;
    {
        let l = out.sole_loop_mut().expect("analyzed as a single loop");
        original_body = l.body.clone();
        loop_iv = l.iv;
        upper = l.upper.clone();
        let mut body = std::mem::take(&mut l.body);
        body = rewrite_block(body, &use_rewrites, &def_gens, &use_gens, &chains, analysis);
        // Chain shifts at the end of the body.
        for chain in &chains {
            for j in (1..chain.temps.len()).rev() {
                body.push(Stmt::Assign(Assign::new(
                    LValue::Scalar(chain.temps[j]),
                    Expr::Scalar(chain.temps[j - 1]),
                )));
            }
        }
        l.body = body;
        if peel > 0 {
            l.lower = arrayflow_ir::LoopBound::Const(peel + 1);
        }
    }

    let mut pre: Vec<Stmt> = Vec::new();
    if peel > 0 {
        // Peeled prologue: `do i = 1, min(P, UB)` — realized with an
        // `if i <= UB` guard when the bound is symbolic.
        let prologue_body = match upper.as_const() {
            Some(_) => original_body,
            None => vec![Stmt::If {
                cond: arrayflow_ir::Cond::new(
                    Expr::Scalar(loop_iv),
                    arrayflow_ir::RelOp::Le,
                    upper.to_expr(),
                ),
                then_blk: original_body,
                else_blk: Vec::new(),
            }],
        };
        let prologue_ub = match upper.as_const() {
            Some(u) => u.min(peel),
            None => peel,
        };
        pre.push(Stmt::Do(arrayflow_ir::Loop {
            iv: loop_iv,
            lower: arrayflow_ir::LoopBound::Const(1),
            upper: arrayflow_ir::LoopBound::Const(prologue_ub),
            step: 1,
            body: prologue_body,
        }));
    }
    // Chain initialization: t_j := A[f(P + 1 − j)].
    for chain in &chains {
        let gsite = &analysis.sites[chain.gen_site];
        let sub = gsite.sub.as_ref().expect("filtered");
        let a = sub.coef.as_constant().expect("filtered");
        let b = sub.rest.as_constant().expect("filtered");
        for (j, &t) in chain.temps.iter().enumerate().skip(1) {
            let elem = a * (peel + 1 - j as i64) + b;
            pre.push(Stmt::Assign(Assign::new(
                LValue::Scalar(t),
                Expr::Elem(ArrayRef::new(gsite.aref.array, Expr::Const(elem))),
            )));
        }
    }
    let mut body = std::mem::take(&mut out.body);
    pre.append(&mut body);
    out.body = pre;
    out.renumber();

    LoadElim {
        program: out,
        replaced_uses: replaced,
        chains: chains.len(),
    }
}

fn rewrite_block(
    block: Block,
    use_rewrites: &HashMap<(StmtId, ArrayRef), VarId>,
    def_gens: &HashMap<StmtId, usize>,
    use_gens: &HashMap<StmtId, Vec<usize>>,
    chains: &[Chain],
    analysis: &LoopAnalysis,
) -> Block {
    let mut out = Vec::new();
    for stmt in block {
        match stmt {
            Stmt::Assign(mut a) => {
                let id = a.id;
                // Replace reuse-point reads with temporaries.
                a.rhs = replace_uses(&a.rhs, id, use_rewrites);
                if let LValue::Elem(r) = &mut a.lhs {
                    for s in &mut r.subs {
                        *s = replace_uses(s, id, use_rewrites);
                    }
                }
                // A generating use loads once into t₀ before the statement.
                if let Some(ks) = use_gens.get(&id) {
                    for &k in ks {
                        let chain = &chains[k];
                        let gref = ArrayRef::clone(&analysis.sites[chain.gen_site].aref);
                        out.push(Stmt::Assign(Assign::new(
                            LValue::Scalar(chain.temps[0]),
                            Expr::Elem(gref.clone()),
                        )));
                        a.rhs = substitute_ref(&a.rhs, &gref, chain.temps[0]);
                        if let LValue::Elem(r) = &mut a.lhs {
                            for s in &mut r.subs {
                                *s = substitute_ref(s, &gref, chain.temps[0]);
                            }
                        }
                    }
                }
                // A generating definition stores through t₀.
                if let Some(&k) = def_gens.get(&id) {
                    let chain = &chains[k];
                    let t0 = chain.temps[0];
                    let rhs = std::mem::replace(&mut a.rhs, Expr::Scalar(t0));
                    out.push(Stmt::Assign(Assign::new(LValue::Scalar(t0), rhs)));
                }
                out.push(Stmt::Assign(a));
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                out.push(Stmt::If {
                    cond,
                    then_blk: rewrite_block(
                        then_blk,
                        use_rewrites,
                        def_gens,
                        use_gens,
                        chains,
                        analysis,
                    ),
                    else_blk: rewrite_block(
                        else_blk,
                        use_rewrites,
                        def_gens,
                        use_gens,
                        chains,
                        analysis,
                    ),
                });
            }
            Stmt::Do(l) => out.push(Stmt::Do(l)),
        }
    }
    out
}

fn replace_uses(e: &Expr, stmt: StmtId, rewrites: &HashMap<(StmtId, ArrayRef), VarId>) -> Expr {
    match e {
        Expr::Elem(r) => {
            if let Some(&t) = rewrites.get(&(stmt, r.clone())) {
                return Expr::Scalar(t);
            }
            Expr::Elem(ArrayRef {
                array: r.array,
                subs: r
                    .subs
                    .iter()
                    .map(|s| replace_uses(s, stmt, rewrites))
                    .collect(),
            })
        }
        Expr::Bin(op, l, r) => Expr::bin(
            *op,
            replace_uses(l, stmt, rewrites),
            replace_uses(r, stmt, rewrites),
        ),
        _ => e.clone(),
    }
}

fn substitute_ref(e: &Expr, target: &ArrayRef, temp: VarId) -> Expr {
    match e {
        Expr::Elem(r) if r == target => Expr::Scalar(temp),
        Expr::Elem(r) => Expr::Elem(ArrayRef {
            array: r.array,
            subs: r
                .subs
                .iter()
                .map(|s| substitute_ref(s, target, temp))
                .collect(),
        }),
        Expr::Bin(op, l, r) => Expr::bin(
            *op,
            substitute_ref(l, target, temp),
            substitute_ref(r, target, temp),
        ),
        _ => e.clone(),
    }
}
