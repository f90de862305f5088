//! Parametric CHC shapes from which the benchmark suites are generated.
//!
//! Each shape targets a known region of the Figure-3 expressiveness
//! diagram, so the suites can be composed with a designed solver
//! profile (who should solve what) while staying genuine CHC problems:
//!
//! * [`mod_k_nat`] — mod-`k` regularity over Peano numbers: `Reg` always
//!   (a `k`-state automaton); `SizeElem` iff the solver carries mod-`k`
//!   templates (`k = 2` parities are shared, `k = 3` is RInGen-only);
//! * [`even_left_tree`] — `EvenLeft` variants: `Reg` only (Prop. 2/9);
//! * [`bool_eval`] — the Example 2 evaluator: `Reg` only;
//! * [`inc_dec_offset`] — `IncDec` variants: `Elem ∩ Reg ∩ SizeElem`;
//! * [`diag_ctx`] — `Diag` variants: `Elem` only (Prop. 11);
//! * [`lt_gt_offset`] — `LtGt` variants: `SizeElem` only (Prop. 12);
//! * [`phase_ring`], [`dual_phase_ring`] — phase-counter rings whose
//!   finite-model size sweeps stress the model finder (the
//!   incremental-sweep benchmark workloads);
//! * [`unsat_chain`] — refutable instances whose counterexample depth is
//!   a knob (differentiates refuter budgets, as in Table 1's UNSAT rows);
//! * [`plus_comm`], [`list_rel`] — the hard tail: safe systems whose
//!   proofs need lemmas no representation in the paper expresses.

use ringen_chc::{ChcSystem, SystemBuilder};

/// `p(S^r(Z))`, `p(x) → p(S^k(x))`, `p(x) ∧ p(S^j(x)) → ⊥`.
/// Safe iff `j ≢ 0 (mod k)`; regular invariant = the mod-`k` automaton.
pub fn mod_k_nat(k: usize, r: usize, j: usize) -> ChcSystem {
    assert!(k >= 2 && !j.is_multiple_of(k), "unsafe parameterization");
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let p = b.pred("p", vec![nat]);
    b.clause(|c| {
        let base = (0..r).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(p, vec![base]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let t = (0..k).fold(c.v(x), |t, _| c.app(s, vec![t]));
        c.body(p, vec![c.v(x)]);
        c.head(p, vec![t]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let t = (0..j).fold(c.v(x), |t, _| c.app(s, vec![t]));
        c.body(p, vec![c.v(x)]);
        c.body(p, vec![t]);
    });
    b.finish()
}

/// `EvenLeft` generalized: the leftmost spine grows by `step` nodes per
/// rule; the query offsets by `off` (`off % step != 0` keeps it safe).
pub fn even_left_tree(step: usize, off: usize) -> ChcSystem {
    assert!(step >= 2 && !off.is_multiple_of(step));
    let mut b = SystemBuilder::new();
    let tree = b.sort("Tree");
    let leaf = b.ctor("leaf", vec![], tree);
    let node = b.ctor("node", vec![tree, tree], tree);
    let p = b.pred("p", vec![tree]);
    b.clause(|c| {
        c.head(p, vec![c.app0(leaf)]);
    });
    b.clause(|c| {
        let x = c.var("x", tree);
        let pads: Vec<_> = (0..step).map(|i| c.var(format!("y{i}"), tree)).collect();
        c.body(p, vec![c.v(x)]);
        let mut t = c.v(x);
        for &pad in &pads {
            t = c.app(node, vec![t, c.v(pad)]);
        }
        c.head(p, vec![t]);
    });
    b.clause(|c| {
        let x = c.var("x", tree);
        let pads: Vec<_> = (0..off).map(|i| c.var(format!("y{i}"), tree)).collect();
        c.body(p, vec![c.v(x)]);
        let mut t = c.v(x);
        for &pad in &pads {
            t = c.app(node, vec![t, c.v(pad)]);
        }
        c.body(p, vec![t]);
    });
    b.finish()
}

/// Example 2: true/false propositional formulas never coincide. `ops`
/// selects how many of {and, or, imp} to include (2 or 3).
pub fn bool_eval(ops: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let prop = b.sort("Prop");
    let tt = b.ctor("TT", vec![], prop);
    let ff = b.ctor("FF", vec![], prop);
    let and = b.ctor("And", vec![prop, prop], prop);
    let or = b.ctor("Or", vec![prop, prop], prop);
    let imp = (ops >= 3).then(|| b.ctor("Imp", vec![prop, prop], prop));
    let evt = b.pred("evalT", vec![prop]);
    let evf = b.pred("evalF", vec![prop]);
    b.clause(|c| {
        c.head(evt, vec![c.app0(tt)]);
    });
    b.clause(|c| {
        c.head(evf, vec![c.app0(ff)]);
    });
    // And.
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evt, vec![c.v(x)]);
        c.body(evt, vec![c.v(y)]);
        c.head(evt, vec![c.app(and, vec![c.v(x), c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evf, vec![c.v(x)]);
        c.head(evf, vec![c.app(and, vec![c.v(x), c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evf, vec![c.v(y)]);
        c.head(evf, vec![c.app(and, vec![c.v(x), c.v(y)])]);
    });
    // Or.
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evt, vec![c.v(x)]);
        c.head(evt, vec![c.app(or, vec![c.v(x), c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evt, vec![c.v(y)]);
        c.head(evt, vec![c.app(or, vec![c.v(x), c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", prop), c.var("y", prop));
        c.body(evf, vec![c.v(x)]);
        c.body(evf, vec![c.v(y)]);
        c.head(evf, vec![c.app(or, vec![c.v(x), c.v(y)])]);
    });
    if let Some(imp) = imp {
        b.clause(|c| {
            let (x, y) = (c.var("x", prop), c.var("y", prop));
            c.body(evt, vec![c.v(x)]);
            c.body(evf, vec![c.v(y)]);
            c.head(evf, vec![c.app(imp, vec![c.v(x), c.v(y)])]);
        });
        b.clause(|c| {
            let (x, y) = (c.var("x", prop), c.var("y", prop));
            c.body(evf, vec![c.v(x)]);
            c.head(evt, vec![c.app(imp, vec![c.v(x), c.v(y)])]);
        });
        b.clause(|c| {
            let (x, y) = (c.var("x", prop), c.var("y", prop));
            c.body(evt, vec![c.v(y)]);
            c.head(evt, vec![c.app(imp, vec![c.v(x), c.v(y)])]);
        });
    }
    // Query: no formula is both true and false.
    b.clause(|c| {
        let x = c.var("x", prop);
        c.body(evt, vec![c.v(x)]);
        c.body(evf, vec![c.v(x)]);
    });
    b.finish()
}

/// `IncDec` generalized: `inc` relates `x` to `x + d`, `dec` the other
/// way; safe for every `d ≥ 1`.
pub fn inc_dec_offset(d: usize) -> ChcSystem {
    assert!(d >= 1);
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let inc = b.pred("inc", vec![nat, nat]);
    let dec = b.pred("dec", vec![nat, nat]);
    b.clause(|c| {
        let base = c.app0(z);
        let bumped = (0..d).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(inc, vec![base, bumped]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(inc, vec![c.v(x), c.v(y)]);
        c.head(inc, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let base = (0..d).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(dec, vec![base, c.app0(z)]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(dec, vec![c.v(x), c.v(y)]);
        c.head(dec, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(inc, vec![c.v(x), c.v(y)]);
        c.body(dec, vec![c.v(x), c.v(y)]);
    });
    b.finish()
}

/// A `k`-phase counter ring: `p_0(Z)`, `p_i(x) → p_{i+1 mod k}(S(x))`,
/// and pairwise-disjointness queries `p_i(x) ∧ p_j(x) → ⊥` (`i < j`).
/// Safe for every `k ≥ 2`; the minimal finite model is exactly the
/// mod-`k` counter (`|ℳ| = k`, `p_i = {i}`), and every smaller domain
/// is UNSAT: the `Z`-trajectory under the successor function is
/// eventually periodic with period `ρ ≤ n < k`, which forces two
/// phases onto one element. Every clause flattens to ≤ 2 variables, so
/// the size sweep is SAT-search-dominated rather than
/// grounding-dominated — the finite-model finder's incremental-sweep
/// benchmark workload (learnt clauses from refuted sizes prune the
/// next size).
pub fn phase_ring(k: usize) -> ChcSystem {
    assert!(k >= 2);
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let preds: Vec<_> = (0..k).map(|i| b.pred(format!("p{i}"), vec![nat])).collect();
    b.clause(|c| {
        c.head(preds[0], vec![c.app0(z)]);
    });
    for i in 0..k {
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(preds[i], vec![c.v(x)]);
            c.head(preds[(i + 1) % k], vec![c.app(s, vec![c.v(x)])]);
        });
    }
    for i in 0..k {
        for j in i + 1..k {
            b.clause(|c| {
                let x = c.var("x", nat);
                c.body(preds[i], vec![c.v(x)]);
                c.body(preds[j], vec![c.v(x)]);
            });
        }
    }
    b.finish()
}

/// Two independent phase rings over two sorts: a [`phase_ring`]-style
/// `k`-counter on `Nat` and an `m`-counter on a second `Tok` sort. The
/// minimal finite model has the size *vector* `(k, m)`, so a sweep
/// whose total-size budget stays below `k + m` exhausts every vector —
/// and each vector is refuted through whichever coordinate is still
/// too small. One solver instantiation serves ~`T²/2` queries whose
/// refutations repeat per coordinate, which is exactly the shape the
/// incremental sweep collapses: the finite-model finder's
/// `fmf_incremental` benchmark workload.
pub fn dual_phase_ring(k: usize, m: usize) -> ChcSystem {
    assert!(k >= 2 && m >= 2);
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let tok = b.sort("Tok");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let z2 = b.ctor("T", vec![], tok);
    let s2 = b.ctor("N", vec![tok], tok);
    let ps: Vec<_> = (0..k).map(|i| b.pred(format!("p{i}"), vec![nat])).collect();
    let qs: Vec<_> = (0..m).map(|i| b.pred(format!("q{i}"), vec![tok])).collect();
    b.clause(|c| {
        c.head(ps[0], vec![c.app0(z)]);
    });
    for i in 0..k {
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(ps[i], vec![c.v(x)]);
            c.head(ps[(i + 1) % k], vec![c.app(s, vec![c.v(x)])]);
        });
    }
    for i in 0..k {
        for j in i + 1..k {
            b.clause(|c| {
                let x = c.var("x", nat);
                c.body(ps[i], vec![c.v(x)]);
                c.body(ps[j], vec![c.v(x)]);
            });
        }
    }
    b.clause(|c| {
        c.head(qs[0], vec![c.app0(z2)]);
    });
    for i in 0..m {
        b.clause(|c| {
            let y = c.var("y", tok);
            c.body(qs[i], vec![c.v(y)]);
            c.head(qs[(i + 1) % m], vec![c.app(s2, vec![c.v(y)])]);
        });
    }
    for i in 0..m {
        for j in i + 1..m {
            b.clause(|c| {
                let y = c.var("y", tok);
                c.body(qs[i], vec![c.v(y)]);
                c.body(qs[j], vec![c.v(y)]);
            });
        }
    }
    b.finish()
}

/// `Diag` in a constructor context of depth `depth` (the query wraps
/// both sides in `S^depth`). `Elem` only.
pub fn diag_ctx(depth: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let eq = b.pred("eq", vec![nat, nat]);
    let diseq = b.pred("diseq", vec![nat, nat]);
    b.clause(|c| {
        let x = c.var("x", nat);
        c.head(eq, vec![c.v(x), c.v(x)]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        c.head(diseq, vec![c.app(s, vec![c.v(x)]), c.app0(z)]);
    });
    b.clause(|c| {
        let y = c.var("y", nat);
        c.head(diseq, vec![c.app0(z), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(diseq, vec![c.v(x), c.v(y)]);
        c.head(diseq, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        let lhs = (0..depth).fold(c.v(x), |t, _| c.app(s, vec![t]));
        let rhs = (0..depth).fold(c.v(y), |t, _| c.app(s, vec![t]));
        c.body(eq, vec![lhs, rhs]);
        c.body(diseq, vec![c.v(x), c.v(y)]);
    });
    b.finish()
}

/// `LtGt` with the `lt` base shifted by `off`: `lt` relates `x` to
/// values at least `off + 1` larger. `SizeElem` only.
pub fn lt_gt_offset(off: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let lt = b.pred("lt", vec![nat, nat]);
    let gt = b.pred("gt", vec![nat, nat]);
    b.clause(|c| {
        let y = c.var("y", nat);
        let rhs = (0..=off).fold(c.v(y), |t, _| c.app(s, vec![t]));
        c.head(lt, vec![c.app0(z), rhs]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(lt, vec![c.v(x), c.v(y)]);
        c.head(lt, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        c.head(gt, vec![c.app(s, vec![c.v(x)]), c.app0(z)]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(gt, vec![c.v(x), c.v(y)]);
        c.head(gt, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(lt, vec![c.v(x), c.v(y)]);
        c.body(gt, vec![c.v(x), c.v(y)]);
    });
    b.finish()
}

/// An unsatisfiable reachability instance: `p(Z)`, `p(x) → p(S(x))`,
/// `p(S^depth(Z)) → ⊥`. The counterexample derivation has `depth + 2`
/// steps, so refuters with smaller round budgets miss deep instances —
/// the Table 1 UNSAT differentiation.
pub fn unsat_chain(depth: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let p = b.pred("p", vec![nat]);
    b.clause(|c| {
        c.head(p, vec![c.app0(z)]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        c.body(p, vec![c.v(x)]);
        c.head(p, vec![c.app(s, vec![c.v(x)])]);
    });
    b.clause(|c| {
        let target = (0..depth).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.body(p, vec![target]);
    });
    b.finish()
}

/// The hard tail: commutativity of addition as a safety property.
/// `plus(x, y, z) ∧ plus(y, x, w) ∧ lt(z, w) → ⊥` is safe (addition is
/// commutative) but the proof needs a lemma no representation in the
/// paper expresses; every engine diverges. `seed` varies the query
/// arithmetic slightly so instances are distinct.
pub fn plus_comm(seed: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let plus = b.pred("plus", vec![nat, nat, nat]);
    let lt = b.pred("lt", vec![nat, nat]);
    b.clause(|c| {
        let y = c.var("y", nat);
        c.head(plus, vec![c.app0(z), c.v(y), c.v(y)]);
    });
    b.clause(|c| {
        let (x, y, r) = (c.var("x", nat), c.var("y", nat), c.var("r", nat));
        c.body(plus, vec![c.v(x), c.v(y), c.v(r)]);
        c.head(
            plus,
            vec![c.app(s, vec![c.v(x)]), c.v(y), c.app(s, vec![c.v(r)])],
        );
    });
    b.clause(|c| {
        let y = c.var("y", nat);
        c.head(lt, vec![c.v(y), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(lt, vec![c.v(x), c.v(y)]);
        c.head(lt, vec![c.v(x), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y, u, w) = (
            c.var("x", nat),
            c.var("y", nat),
            c.var("u", nat),
            c.var("w", nat),
        );
        let xq = (0..seed % 3).fold(c.v(x), |t, _| c.app(s, vec![t]));
        c.body(plus, vec![xq.clone(), c.v(y), c.v(u)]);
        c.body(plus, vec![c.v(y), xq, c.v(w)]);
        c.body(lt, vec![c.v(u), c.v(w)]);
    });
    b.finish()
}

/// More of the hard tail, over lists: `app(xs, ys, zs)` is list append
/// and `len2(xs, n)` relates a list to its length; the query asserts the
/// classic `|xs ++ ys| = |ys ++ xs|` fact through an ordering violation.
/// Safe, lemma-hard, diverges everywhere.
pub fn list_rel(seed: usize) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let list = b.sort("List");
    let nil = b.ctor("nil", vec![], list);
    let cons = b.ctor("cons", vec![nat, list], list);
    let app = b.pred("app", vec![list, list, list]);
    let len = b.pred("len", vec![list, nat]);
    let lt = b.pred("lt", vec![nat, nat]);
    b.clause(|c| {
        let ys = c.var("ys", list);
        c.head(app, vec![c.app0(nil), c.v(ys), c.v(ys)]);
    });
    b.clause(|c| {
        let (h, xs, ys, zs) = (
            c.var("h", nat),
            c.var("xs", list),
            c.var("ys", list),
            c.var("zs", list),
        );
        c.body(app, vec![c.v(xs), c.v(ys), c.v(zs)]);
        c.head(
            app,
            vec![
                c.app(cons, vec![c.v(h), c.v(xs)]),
                c.v(ys),
                c.app(cons, vec![c.v(h), c.v(zs)]),
            ],
        );
    });
    b.clause(|c| {
        c.head(len, vec![c.app0(nil), c.app0(z)]);
    });
    b.clause(|c| {
        let (h, xs, n) = (c.var("h", nat), c.var("xs", list), c.var("n", nat));
        c.body(len, vec![c.v(xs), c.v(n)]);
        c.head(
            len,
            vec![c.app(cons, vec![c.v(h), c.v(xs)]), c.app(s, vec![c.v(n)])],
        );
    });
    b.clause(|c| {
        let y = c.var("y", nat);
        c.head(lt, vec![c.v(y), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(lt, vec![c.v(x), c.v(y)]);
        c.head(lt, vec![c.v(x), c.app(s, vec![c.v(y)])]);
    });
    b.clause(|c| {
        let (xs, ys, u, w, n, m) = (
            c.var("xs", list),
            c.var("ys", list),
            c.var("u", list),
            c.var("w", list),
            c.var("n", nat),
            c.var("m", nat),
        );
        let mut xs_t = c.v(xs);
        for _ in 0..seed % 2 {
            let h = c.var("h0", nat);
            xs_t = c.app(cons, vec![c.v(h), xs_t]);
        }
        c.body(app, vec![xs_t.clone(), c.v(ys), c.v(u)]);
        c.body(app, vec![c.v(ys), xs_t, c.v(w)]);
        c.body(len, vec![c.v(u), c.v(n)]);
        c.body(len, vec![c.v(w), c.v(m)]);
        c.body(lt, vec![c.v(n), c.v(m)]);
    });
    b.finish()
}

/// A `Diseq`-family shape: safe only because the *shallow* disequality
/// in the query can be satisfied by a small finite model (§4.4's
/// observation). `p` marks numbers ≡ r (mod k); the query needs
/// `p(x) ∧ x ≠ S^r(Z)` with `x` forced to the base — never fires.
pub fn shallow_diseq(k: usize, r: usize) -> ChcSystem {
    assert!(k >= 2);
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let p = b.pred("p", vec![nat]);
    b.clause(|c| {
        let base = (0..r).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(p, vec![base]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let t = (0..k).fold(c.v(x), |t, _| c.app(s, vec![t]));
        c.body(p, vec![c.v(x)]);
        c.head(p, vec![t]);
    });
    // Query: p(x) ∧ p(y) ∧ x ≠ y ∧ y = S^k(x)… made safe by asking for
    // two *equal-residue* members that differ by less than a period.
    b.clause(|c| {
        let x = c.var("x", nat);
        let y = c.var("y", nat);
        c.body(p, vec![c.v(x)]);
        c.body(p, vec![c.v(y)]);
        c.neq(c.v(x), c.v(y));
        // y strictly inside the same period window: y = S^j(x), j < k.
        let t = c.app(s, vec![c.v(x)]);
        c.eq(c.v(y), t);
    });
    b.finish()
}

/// A `Diseq`-family shape that forces disequalities on unboundedly many
/// pairs: the query demands `diseq`-style separation along the whole
/// chain, so no small finite model exists and the model search diverges
/// (§4.4's "less likely to be satisfiable in some finite model").
pub fn deep_diseq(k: usize) -> ChcSystem {
    assert!(k >= 1);
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let p = b.pred("p", vec![nat, nat]);
    // p(x, S^k(x)) for all x, by recursion.
    b.clause(|c| {
        let base = c.app0(z);
        let bumped = (0..k).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(p, vec![base, bumped]);
    });
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(p, vec![c.v(x), c.v(y)]);
        c.head(p, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
    });
    // Query: some pair coincides — safe (x and x+k always differ), but
    // proving it needs disequality of unboundedly many pairs.
    b.clause(|c| {
        let (x, y) = (c.var("x", nat), c.var("y", nat));
        c.body(p, vec![c.v(x), c.v(y)]);
        c.eq(c.v(x), c.v(y));
    });
    b.finish()
}

/// The diagonal-with-regularity family generalizing `EvenDiag`:
/// `p(S^r Z, S^r Z)`, `p(x, y) → p(S^k x, S^k y)`, plus the diagonal
/// query (`x ≠ y → ⊥`) and the shifted-pair query
/// (`p(x, y) ∧ p(S^j x, S^j y) → ⊥`). Safe iff `j ≢ 0 (mod k)`. Safe
/// inductive invariants must combine the diagonal (∉ `Reg`, Prop. 11)
/// with the mod-`k` residue (∉ `Elem`, Prop. 1's argument), i.e. the
/// `RegElem` shape `#0 = #1 ∧ #0 ∈ L(mod-k automaton)`; for `k = 2`
/// `SizeElem` also expresses it via size parity (Prop. 8).
pub fn diag_mod_k(k: usize, r: usize, j: usize) -> ChcSystem {
    assert!(k >= 2 && !j.is_multiple_of(k), "unsafe parameterization");
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let p = b.pred("p", vec![nat, nat]);
    b.clause(|c| {
        let base = (0..r).fold(c.app0(z), |t, _| c.app(s, vec![t]));
        c.head(p, vec![base.clone(), base]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let y = c.var("y", nat);
        c.body(p, vec![c.v(x), c.v(y)]);
        let bx = (0..k).fold(c.v(x), |t, _| c.app(s, vec![t]));
        let by = (0..k).fold(c.v(y), |t, _| c.app(s, vec![t]));
        c.head(p, vec![bx, by]);
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let y = c.var("y", nat);
        c.body(p, vec![c.v(x), c.v(y)]);
        c.neq(c.v(x), c.v(y));
    });
    b.clause(|c| {
        let x = c.var("x", nat);
        let y = c.var("y", nat);
        c.body(p, vec![c.v(x), c.v(y)]);
        let jx = (0..j).fold(c.v(x), |t, _| c.app(s, vec![t]));
        let jy = (0..j).fold(c.v(y), |t, _| c.app(s, vec![t]));
        c.body(p, vec![jx, jy]);
    });
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_well_sorted() {
        for (name, sys) in [
            ("mod_k", mod_k_nat(3, 0, 1)),
            ("even_left", even_left_tree(2, 1)),
            ("bool_eval", bool_eval(3)),
            ("inc_dec", inc_dec_offset(2)),
            ("phase_ring", phase_ring(4)),
            ("dual_phase_ring", dual_phase_ring(3, 2)),
            ("diag", diag_ctx(1)),
            ("lt_gt", lt_gt_offset(1)),
            ("unsat", unsat_chain(5)),
            ("plus_comm", plus_comm(0)),
            ("list_rel", list_rel(1)),
            ("diag_mod_k", diag_mod_k(3, 1, 2)),
            ("shallow_diseq", shallow_diseq(2, 0)),
            ("deep_diseq", deep_diseq(2)),
        ] {
            assert!(sys.well_sorted().is_ok(), "{name} ill-sorted");
        }
    }

    #[test]
    fn unsat_chain_is_refutable() {
        use ringen_core::saturation::{saturate_guarded, SaturationConfig, SaturationOutcome};
        use ringen_core::Guard;
        let sys = unsat_chain(4);
        let (outcome, _) = saturate_guarded(&sys, &SaturationConfig::default(), &Guard::new());
        assert!(matches!(outcome, SaturationOutcome::Refuted(_)));
    }

    #[test]
    fn mod3_has_a_three_state_model() {
        use ringen_core::definability::search_regular_invariant;
        let found = search_regular_invariant(&mod_k_nat(3, 0, 1), 6);
        assert_eq!(found.found_at, Some(3));
    }
}
