//! Dynamic soundness fuzzing: analysis facts and transformations are
//! checked against actual executions of seeded random loops.
//!
//! * every reported must-reuse pair is validated by a tracing interpreter
//!   that records, per array element, which site wrote/read it last and in
//!   which iteration;
//! * every optimization (scalar replacement, store elimination, unrolling,
//!   register pipelining) must leave the final array state unchanged.

use std::collections::HashMap;

use arrayflow::analyses::analyze_loop;
use arrayflow::machine::{compile, compile_with, compile_with_style, Machine, PipelineStyle};
use arrayflow::opt::{
    allocate, eliminate_redundant_loads, eliminate_redundant_stores, unroll, PipelineConfig,
};
use arrayflow::workloads::{random_loop, LoopShape};
use arrayflow_ir::interp::run_with;
use arrayflow_ir::stmt::StmtId;
use arrayflow_ir::{Cond, Env, Expr, LValue, Program, Stmt};

fn seed_env(p: &Program, e: &mut Env) {
    for a in p.symbols.array_ids() {
        for k in -64..1200 {
            e.set_elem(a, vec![k], (k * 31 + 5) % 97);
        }
    }
    for v in p.symbols.var_ids() {
        e.set_scalar(v, (v.0 as i64 % 7) - 2);
    }
}

fn final_state(p: &Program) -> Env {
    run_with(p, |e| seed_env(p, e)).unwrap()
}

fn assert_same_arrays(orig: &Program, opt: &Program, tag: &str) {
    let e1 = final_state(orig);
    let e2 = final_state(opt);
    for a in orig.symbols.array_ids() {
        assert_eq!(
            e1.array_state().get(&a),
            e2.array_state().get(&a),
            "{tag}: array {} differs\n--- original ---\n{}\n--- optimized ---\n{}",
            orig.array_name(a),
            arrayflow_ir::pretty::print_program(orig),
            arrayflow_ir::pretty::print_program(opt)
        );
    }
}

#[test]
fn transformations_preserve_semantics_on_random_loops() {
    let shape = LoopShape {
        stmts: 10,
        arrays: 3,
        cond_pct: 35,
        max_offset: 5,
        max_coef: 2,
        ub: 60,
    };
    for seed in 0..40 {
        let p = random_loop(&shape, 31_000 + seed);

        let le = eliminate_redundant_loads(&p).unwrap();
        assert_same_arrays(&p, &le.program, &format!("load_elim seed {seed}"));

        let se = eliminate_redundant_stores(&p).unwrap();
        assert_same_arrays(&p, &se.program, &format!("store_elim seed {seed}"));

        for f in [2, 3, 4] {
            let u = unroll(&p, f).unwrap();
            assert_same_arrays(&p, &u, &format!("unroll x{f} seed {seed}"));
        }
    }
}

#[test]
fn pipelined_code_matches_conventional_code_on_random_loops() {
    let shape = LoopShape {
        stmts: 8,
        arrays: 2,
        cond_pct: 30,
        max_offset: 4,
        max_coef: 2,
        ub: 50,
    };
    for seed in 0..40 {
        let p = random_loop(&shape, 52_000 + seed);
        let analysis = analyze_loop(&p).unwrap();
        let alloc = allocate(&analysis, &PipelineConfig::default());

        let conv = compile(&p).unwrap();
        let pipe = compile_with(&p, &alloc.plan).unwrap();
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        for (m, c) in [(&mut m1, &conv), (&mut m2, &pipe)] {
            for a in p.symbols.array_ids() {
                for k in -64..600 {
                    m.set_mem(a, k, (k * 17 + 3) % 89);
                }
            }
            for v in p.symbols.var_ids() {
                m.set_reg(c.scalar_regs[&v], (v.0 as i64 % 7) - 2);
            }
        }
        m1.run(&conv.code).unwrap();
        m2.run(&pipe.code).unwrap();
        assert_eq!(
            m1.memory(),
            m2.memory(),
            "seed {seed}, plan {:?}\n{}",
            alloc.plan,
            arrayflow_ir::pretty::print_program(&p)
        );
        // Pipelining may only ever add its constant start-up cost: the
        // pre-loop initialization loads one value per pipeline stage. When
        // every reuse point sits under a conditional that never fires at
        // run time, the savings are zero and that start-up cost is the
        // whole difference; any growth beyond it is a real regression.
        let startup: u64 = alloc.plan.ranges.iter().map(|r| r.depth as u64).sum();
        assert!(
            m2.stats.loads <= m1.stats.loads + startup,
            "seed {seed}: pipelining must not add loads beyond start-up \
             (conv {}, pipe {}, start-up allowance {startup})",
            m1.stats.loads,
            m2.stats.loads
        );

        // The unrolled (modulo-renamed) progression must agree too.
        let unr = compile_with_style(&p, &alloc.plan, PipelineStyle::Unrolled).unwrap();
        let mut m3 = Machine::new();
        for a in p.symbols.array_ids() {
            for k in -64..600 {
                m3.set_mem(a, k, (k * 17 + 3) % 89);
            }
        }
        for v in p.symbols.var_ids() {
            m3.set_reg(unr.scalar_regs[&v], (v.0 as i64 % 7) - 2);
        }
        m3.run(&unr.code).unwrap();
        assert_eq!(
            m1.memory(),
            m3.memory(),
            "seed {seed}: unrolled pipeline diverges\n{}",
            arrayflow_ir::pretty::print_program(&p)
        );
    }
}

/// A tracing interpreter for single-level loops: records, per array element,
/// the last site that *generated* a value into it (write, or read for
/// use-generators) and the iteration when that happened.
struct Tracer {
    env: Env,
    /// (array, index) → (stmt, iteration, was_def)
    last_gen: HashMap<(arrayflow_ir::ArrayId, i64), (StmtId, i64, bool)>,
    /// Collected violations.
    violations: Vec<String>,
    /// Expected providers: (use stmt, textual ref) → (gen stmt, distance,
    /// gen_is_def).
    expectations: HashMap<(StmtId, arrayflow_ir::ArrayRef), (StmtId, u64, bool)>,
    start_up: u64,
}

impl Tracer {
    fn eval(&mut self, e: &Expr, stmt: StmtId, iter: i64) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Scalar(v) => self.env.scalar(*v),
            Expr::Elem(r) => {
                let idx: Vec<i64> = r.subs.iter().map(|s| self.eval(s, stmt, iter)).collect();
                let key = (r.array, idx[0]);
                // Check the expectation for this use site.
                if idx.len() == 1 && iter > self.start_up as i64 {
                    if let Some(&(gen_stmt, dist, gen_is_def)) =
                        self.expectations.get(&(stmt, r.clone()))
                    {
                        match self.last_gen.get(&key) {
                            Some(&(actual_stmt, actual_iter, actual_def)) => {
                                // The provider recorded the element in
                                // iteration iter − dist.
                                if gen_is_def
                                    && actual_def
                                    && (actual_stmt != gen_stmt
                                        || actual_iter != iter - dist as i64)
                                {
                                    self.violations.push(format!(
                                        "use {stmt:?} at iter {iter}: expected def {gen_stmt:?}@{}, \
                                         last generator was {actual_stmt:?}@{actual_iter}",
                                        iter - dist as i64
                                    ));
                                }
                            }
                            None => self.violations.push(format!(
                                "use {stmt:?} at iter {iter}: element never generated"
                            )),
                        }
                    }
                }
                let v = self.env.elem(r.array, &idx);
                if idx.len() == 1 {
                    // Record the read as a (use-kind) generation only if
                    // nothing newer exists; defs always overwrite below.
                    self.last_gen.entry(key).or_insert((stmt, iter, false));
                }
                v
            }
            Expr::Bin(op, l, rr) => {
                let a = self.eval(l, stmt, iter);
                let b = self.eval(rr, stmt, iter);
                match op {
                    arrayflow_ir::BinOp::Add => a.wrapping_add(b),
                    arrayflow_ir::BinOp::Sub => a.wrapping_sub(b),
                    arrayflow_ir::BinOp::Mul => a.wrapping_mul(b),
                    arrayflow_ir::BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a / b
                        }
                    }
                }
            }
        }
    }

    fn exec_block(&mut self, block: &[Stmt], iter: i64) {
        for s in block {
            match s {
                Stmt::Assign(a) => {
                    let v = self.eval(&a.rhs, a.id, iter);
                    match &a.lhs {
                        LValue::Scalar(sc) => self.env.set_scalar(*sc, v),
                        LValue::Elem(r) => {
                            let idx: Vec<i64> =
                                r.subs.iter().map(|e| self.eval(e, a.id, iter)).collect();
                            if idx.len() == 1 {
                                self.last_gen.insert((r.array, idx[0]), (a.id, iter, true));
                            }
                            self.env.set_elem(r.array, idx, v);
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let Cond { lhs, op, rhs } = cond;
                    let l = self.eval(lhs, StmtId::UNASSIGNED, iter);
                    let r = self.eval(rhs, StmtId::UNASSIGNED, iter);
                    if op.eval(l, r) {
                        self.exec_block(then_blk, iter);
                    } else {
                        self.exec_block(else_blk, iter);
                    }
                }
                Stmt::Do(_) => panic!("tracer only handles single-level loops"),
            }
        }
    }
}

#[test]
fn reported_def_reuses_hold_dynamically() {
    let shape = LoopShape {
        stmts: 8,
        arrays: 2,
        cond_pct: 30,
        max_offset: 4,
        max_coef: 1, // coefficient 1 keeps element↔iteration mapping simple
        ub: 40,
    };
    let mut total_checked = 0usize;
    for seed in 0..50 {
        let p = random_loop(&shape, 97_000 + seed);
        let analysis = analyze_loop(&p).unwrap();
        let reuses = analysis.reuse_pairs();
        let mut expectations = HashMap::new();
        let mut max_dist = 0;
        for r in &reuses {
            // Validate def-provided reuses (the ones register allocation
            // relies on most).
            if !r.gen_is_def {
                continue;
            }
            let us = &analysis.sites[r.use_site];
            let gs = &analysis.sites[r.gen_site];
            let (Some(ustmt), Some(gstmt)) = (us.stmt, gs.stmt) else {
                continue;
            };
            expectations.insert((ustmt, (*us.aref).clone()), (gstmt, r.distance, true));
            max_dist = max_dist.max(r.distance);
            total_checked += 1;
        }
        if expectations.is_empty() {
            continue;
        }
        let l = p.sole_loop().unwrap();
        let mut tracer = Tracer {
            env: Env::new(),
            last_gen: HashMap::new(),
            violations: Vec::new(),
            expectations,
            start_up: max_dist,
        };
        seed_env(&p, &mut tracer.env);
        let ub = l.upper.as_const().unwrap();
        for iter in 1..=ub {
            tracer.env.set_scalar(l.iv, iter);
            let body = l.body.clone();
            tracer.exec_block(&body, iter);
        }
        assert!(
            tracer.violations.is_empty(),
            "seed {seed}:\n{}\nprogram:\n{}",
            tracer.violations.join("\n"),
            arrayflow_ir::pretty::print_program(&p)
        );
    }
    assert!(
        total_checked > 20,
        "fuzz should exercise a healthy number of reuses, got {total_checked}"
    );
}

#[test]
fn register_allocation_preserves_semantics_on_random_loops() {
    use arrayflow::machine::{assign_physical, Reg};
    use arrayflow_ir::ArrayId;

    let shape = LoopShape {
        stmts: 8,
        arrays: 2,
        cond_pct: 30,
        max_offset: 4,
        max_coef: 2,
        ub: 40,
    };
    for seed in 0..25 {
        let p = random_loop(&shape, 64_000 + seed);
        let c = compile(&p).unwrap();
        let pinned: Vec<Reg> = c.scalar_regs.values().copied().collect();
        let spill = ArrayId(p.symbols.num_arrays() as u32 + 7);
        for k in [4u32, 6, 12] {
            let alloc = assign_physical(&c.code, k, spill, &pinned).unwrap();
            assert!(alloc.physical_used <= k, "seed {seed}, k {k}");
            let mut m1 = Machine::new();
            let mut m2 = Machine::new();
            for a in p.symbols.array_ids() {
                for i in -64..400 {
                    m1.set_mem(a, i, (i * 23 + 1) % 71);
                    m2.set_mem(a, i, (i * 23 + 1) % 71);
                }
            }
            for (v, &r) in &c.scalar_regs {
                let value = (v.0 as i64 % 7) - 2;
                m1.set_reg(r, value);
                alloc.seed(&mut m2, r, value);
            }
            m1.run(&c.code).unwrap();
            m2.run(&alloc.code).unwrap();
            for a in p.symbols.array_ids() {
                assert_eq!(
                    m1.memory().get(&a),
                    m2.memory().get(&a),
                    "seed {seed}, k {k}, array {}\n{}",
                    p.array_name(a),
                    arrayflow_ir::pretty::print_program(&p)
                );
            }
            // Scalar results are recoverable through the map.
            for (v, &r) in &c.scalar_regs {
                assert_eq!(
                    m1.reg(r),
                    alloc.read(&m2, r),
                    "seed {seed}, k {k}, scalar {}",
                    p.name(*v)
                );
            }
        }
    }
}
