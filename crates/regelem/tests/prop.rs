//! Property and integration tests for the `RegElem` class.
//!
//! The decisive property is *UNSAT soundness* of the layered cube
//! procedure: whenever `check_cube` refutes a cube, no ground
//! assignment (up to a height bound) satisfies it. The integration
//! half certifies the two showcase programs (`EvenDiag`,
//! `EvenLeftDiag`) whose invariants live outside every Figure 3 class.

use proptest::prelude::*;
use ringen_automata::{AutStore, Dfta};
use ringen_benchgen::programs;
use ringen_core::{solve_guarded, Answer, Guard, RingenConfig};
use ringen_regelem::{
    check_cube, check_inductive, DpBudget, Lang, RegCubeSat, RegElemCheck, RegElemFormula,
    RegElemInvariant, RegLiteral,
};
use ringen_terms::signature_helpers::nat_signature;
use ringen_terms::{GroundTerm, Signature, Term, VarContext, VarId};

fn nat_langs(sig: &Signature) -> Vec<Lang> {
    let nat = sig.sort_by_name("Nat").unwrap();
    let z = sig.func_by_name("Z").unwrap();
    let s = sig.func_by_name("S").unwrap();
    let mut even_d = Dfta::new();
    let s0 = even_d.add_state(nat);
    let s1 = even_d.add_state(nat);
    even_d.add_transition(z, vec![], s0);
    even_d.add_transition(s, vec![s0], s1);
    even_d.add_transition(s, vec![s1], s0);
    let even = Lang::new("Even", sig, even_d.clone(), [s0]);
    let odd = Lang::new("Odd", sig, even_d, [s1]);
    let mut m3 = Dfta::new();
    let q: Vec<_> = (0..3).map(|_| m3.add_state(nat)).collect();
    m3.add_transition(z, vec![], q[0]);
    for i in 0..3 {
        m3.add_transition(s, vec![q[i]], q[(i + 1) % 3]);
    }
    let mult3 = Lang::new("Mult3", sig, m3, [q[0]]);
    vec![even, odd, mult3]
}

/// A pool of nat terms over variables `x`, `y`.
fn term_pool(sig: &Signature, x: VarId, y: VarId) -> Vec<Term> {
    let z = sig.func_by_name("Z").unwrap();
    let s = sig.func_by_name("S").unwrap();
    vec![
        Term::var(x),
        Term::var(y),
        Term::app(s, vec![Term::var(x)]),
        Term::iterate(s, Term::var(x), 2),
        Term::app(s, vec![Term::var(y)]),
        Term::leaf(z),
        Term::app(s, vec![Term::leaf(z)]),
    ]
}

#[allow(clippy::too_many_arguments)] // mirrors the strategy tuple it decodes
fn literal(
    sig: &Signature,
    kind: usize,
    ti: usize,
    ui: usize,
    li: usize,
    positive: bool,
    x: VarId,
    y: VarId,
) -> RegLiteral {
    let pool = term_pool(sig, x, y);
    let t = pool[ti % pool.len()].clone();
    let u = pool[ui % pool.len()].clone();
    let langs = nat_langs(sig);
    let z = sig.func_by_name("Z").unwrap();
    let s = sig.func_by_name("S").unwrap();
    match kind % 4 {
        0 => {
            if positive {
                RegLiteral::Eq(t, u)
            } else {
                RegLiteral::Neq(t, u)
            }
        }
        1 => RegLiteral::Member {
            term: t,
            lang: langs[li % langs.len()].clone(),
            positive,
        },
        2 => RegLiteral::Tester {
            ctor: z,
            term: t,
            positive,
        },
        _ => RegLiteral::Tester {
            ctor: s,
            term: t,
            positive,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// UNSAT answers of the layered procedure are sound: a refuted
    /// cube has no ground model with variables up to height 7.
    #[test]
    fn refuted_cubes_have_no_small_models(
        lits in prop::collection::vec(
            (0usize..4, 0usize..7, 0usize..7, 0usize..3, any::<bool>()), 1..5),
    ) {
        let (sig, nat, z, s) = nat_signature();
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube: Vec<RegLiteral> = lits
            .iter()
            .map(|&(k, ti, ui, li, pos)| literal(&sig, k, ti, ui, li, pos, x, y))
            .collect();
        if check_cube(&sig, &vars, &cube, &DpBudget::default()) == RegCubeSat::Unsat {
            let num = |n: usize| GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            for vx in 0..7 {
                for vy in 0..7 {
                    let gx = num(vx);
                    let gy = num(vy);
                    let env = |v: VarId| {
                        if v == x { Some(gx.clone()) }
                        else if v == y { Some(gy.clone()) }
                        else { None }
                    };
                    let all = cube.iter().all(|l| l.eval(&env) == Some(true));
                    prop_assert!(
                        !all,
                        "refuted cube satisfied by x={vx}, y={vy}: {cube:?}"
                    );
                }
            }
        }
    }

    /// Formula evaluation distributes over the DNF operations.
    #[test]
    fn and_negation_respect_semantics(
        lits_a in prop::collection::vec(
            (0usize..4, 0usize..7, 0usize..7, 0usize..3, any::<bool>()), 1..3),
        lits_b in prop::collection::vec(
            (0usize..4, 0usize..7, 0usize..7, 0usize..3, any::<bool>()), 1..3),
        vx in 0usize..6, vy in 0usize..6,
    ) {
        let (sig, nat, z, s) = nat_signature();
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let mk = |lits: &[(usize, usize, usize, usize, bool)]| {
            RegElemFormula::cube(
                lits.iter()
                    .map(|&(k, ti, ui, li, pos)| literal(&sig, k, ti, ui, li, pos, x, y))
                    .collect(),
            )
        };
        let a = mk(&lits_a);
        let b = mk(&lits_b);
        let num = |n: usize| GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        let gx = num(vx);
        let gy = num(vy);
        let env = move |v: VarId| {
            if v == x { Some(gx.clone()) } else if v == y { Some(gy.clone()) } else { None }
        };
        let va = a.eval(&env).unwrap();
        let vb = b.eval(&env).unwrap();
        if let Some(c) = a.and(&b, 64) {
            prop_assert_eq!(c.eval(&env).unwrap(), va && vb);
        }
        if let Some(n) = a.negated(64) {
            prop_assert_eq!(n.eval(&env).unwrap(), !va);
        }
        prop_assert_eq!(a.or(&b).eval(&env).unwrap(), va || vb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `member_count_up_to` agrees with brute-force enumeration on
    /// random 2-state Nat automata: exact below the cap, saturated at
    /// the cap otherwise.
    #[test]
    fn member_counts_match_enumeration(
        zt in 0usize..2, st in prop::collection::vec(0usize..2, 2), fm in 1u8..4,
    ) {
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let states = [d.add_state(nat), d.add_state(nat)];
        d.add_transition(z, vec![], states[zt]);
        d.add_transition(s, vec![states[0]], states[st[0]]);
        d.add_transition(s, vec![states[1]], states[st[1]]);
        let finals: Vec<_> = states
            .iter()
            .enumerate()
            .filter(|(i, _)| fm & (1 << i) != 0)
            .map(|(_, q)| *q)
            .collect();
        let lang = Lang::new("L", &sig, d, finals);
        // Brute force over numbers 0..64: a 2-state unary automaton's
        // language is determined by a transient ≤ 2 and period ≤ 2, so
        // the window is exhaustive for the ≤ 8 counting cap.
        let cap = 8usize;
        let brute = (0..64)
            .filter(|&n| lang.accepts(&GroundTerm::iterate(s, GroundTerm::leaf(z), n)))
            .count()
            .min(cap);
        prop_assert_eq!(lang.member_count_up_to(cap), brute);
    }
}

/// The EvenLeftDiag invariant `#0 = #1 ∧ #0 ∈ EvenLeft` is certified —
/// a relation outside `Elem` (diagonal pumping), outside `Reg`
/// (diagonal, Prop. 11) *and* outside `SizeElem` (spine parity,
/// Prop. 2), yet inside `RegElem`.
#[test]
fn evenleftdiag_combined_invariant_is_certified() {
    let sys = programs::even_left_diag();
    let tree = sys.sig.sort_by_name("Tree").unwrap();
    let leaf = sys.sig.func_by_name("leaf").unwrap();
    let node = sys.sig.func_by_name("node").unwrap();
    let mut d = Dfta::new();
    let s0 = d.add_state(tree);
    let s1 = d.add_state(tree);
    d.add_transition(leaf, vec![], s0);
    d.add_transition(node, vec![s0, s0], s1);
    d.add_transition(node, vec![s0, s1], s1);
    d.add_transition(node, vec![s1, s0], s0);
    d.add_transition(node, vec![s1, s1], s0);
    let evenleft = Lang::new("EvenLeft", &sys.sig, d, [s0]);

    let p = sys.rels.by_name("evenleftpair").unwrap();
    let formula = RegElemFormula::cube(vec![
        RegLiteral::Eq(Term::var(VarId(0)), Term::var(VarId(1))),
        RegLiteral::member(Term::var(VarId(0)), evenleft),
    ]);
    let inv = RegElemInvariant {
        formulas: [(p, formula)].into(),
    };
    assert_eq!(
        check_inductive(&sys, &inv, 64, &DpBudget::default()),
        RegElemCheck::Inductive
    );

    // Semantics spot checks.
    let l = GroundTerm::leaf(leaf);
    let spine1 = GroundTerm::app(node, vec![l.clone(), l.clone()]);
    let spine2 = GroundTerm::app(node, vec![spine1.clone(), l.clone()]);
    assert!(inv.holds(p, &[l.clone(), l.clone()]));
    assert!(inv.holds(p, &[spine2.clone(), spine2.clone()]));
    assert!(
        !inv.holds(p, &[spine1.clone(), spine1.clone()]),
        "odd spine"
    );
    assert!(!inv.holds(p, &[spine2, l]), "off-diagonal");
}

/// The regular embedding agrees with the regular invariant it came
/// from, on every Peano number up to 12.
#[test]
fn regular_embedding_preserves_acceptance() {
    let sys = programs::even();
    let (answer, _) = solve_guarded(
        &sys,
        &RingenConfig::quick(),
        &mut AutStore::new(),
        &Guard::new(),
    );
    let sat = match answer {
        Answer::Sat(s) => s,
        other => panic!("Even is SAT, got {other:?}"),
    };
    let embedded = RegElemInvariant::from_regular(&sat.preprocessed.system, &sat.invariant);
    let even = sys.rels.by_name("even").unwrap();
    let z = sys.sig.func_by_name("Z").unwrap();
    let s = sys.sig.func_by_name("S").unwrap();
    for n in 0..12 {
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        assert_eq!(
            embedded.holds(even, std::slice::from_ref(&t)),
            sat.invariant.holds(even, std::slice::from_ref(&t)),
            "n = {n}"
        );
    }
}

/// Both builder-made showcase programs are well-sorted and their
/// queries mention the right predicates.
#[test]
fn showcase_programs_shape() {
    for (name, sys, preds) in [
        ("EvenDiag", programs::even_diag(), 1usize),
        ("EvenLeftDiag", programs::even_left_diag(), 1),
    ] {
        assert!(sys.well_sorted().is_ok(), "{name}");
        assert_eq!(sys.rels.len(), preds, "{name}");
        assert_eq!(sys.queries().count(), 2, "{name} has two queries");
    }
}

/// A certified invariant of the builder-made EvenDiag matches the
/// parse-based one used in unit tests: the combined solver finds it
/// and the answer has the forced semantics.
#[test]
fn evendiag_builder_solves_combined() {
    use ringen_regelem::{solve_regelem_guarded, Provenance, RegElemAnswer, RegElemConfig};
    let sys = programs::even_diag();
    let cfg = RegElemConfig {
        regular: None,
        elementary: None,
        ..RegElemConfig::quick()
    };
    let (answer, _) = solve_regelem_guarded(&sys, &cfg, &Guard::new());
    let (inv, provenance) = match answer {
        RegElemAnswer::Sat(inv, p) => (inv, p),
        other => panic!("expected SAT, got {other:?}"),
    };
    assert_eq!(provenance, Provenance::Combined);
    let p = sys.rels.by_name("evenpair").unwrap();
    let z = sys.sig.func_by_name("Z").unwrap();
    let s = sys.sig.func_by_name("S").unwrap();
    let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
    assert!(inv.holds(p, &[n(0), n(0)]));
    assert!(inv.holds(p, &[n(8), n(8)]));
    assert!(!inv.holds(p, &[n(7), n(7)]));
    assert!(!inv.holds(p, &[n(4), n(2)]));
}

/// Multi-sort guard: a membership constraint over `Nat` must not leak
/// onto `List` variables sharing the cube, and a satisfiable mixed-sort
/// cube stays `Maybe`.
#[test]
fn membership_on_distinct_sorts_is_not_conflated() {
    let (sig, nat, list, z, s, _nil, cons) = ringen_terms::signature_helpers::nat_list_signature();
    // Parity language over the Nat component of the combined signature.
    let mut d = Dfta::new();
    let s0 = d.add_state(nat);
    let s1 = d.add_state(nat);
    d.add_transition(z, vec![], s0);
    d.add_transition(s, vec![s0], s1);
    d.add_transition(s, vec![s1], s0);
    let even = Lang::new("Even", &sig, d, [s0]);

    let mut vars = VarContext::new();
    let x = vars.fresh("x", nat);
    let xs = vars.fresh("xs", list);
    let ys = vars.fresh("ys", list);
    // x ∈ Even ∧ xs = cons(x, ys): satisfiable (x := Z, ys := nil).
    let cube = vec![
        RegLiteral::member(Term::var(x), even.clone()),
        RegLiteral::Eq(
            Term::var(xs),
            Term::app(cons, vec![Term::var(x), Term::var(ys)]),
        ),
    ];
    assert_eq!(
        check_cube(&sig, &vars, &cube, &DpBudget::default()),
        RegCubeSat::Maybe
    );
    // x ∈ Even ∧ S(x) ∈ Even stays refutable in the combined signature.
    let cube = vec![
        RegLiteral::member(Term::var(x), even.clone()),
        RegLiteral::member(Term::app(s, vec![Term::var(x)]), even),
    ];
    assert_eq!(
        check_cube(&sig, &vars, &cube, &DpBudget::default()),
        RegCubeSat::Unsat
    );
}
