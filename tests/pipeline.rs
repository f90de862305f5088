//! Integration test walking every arrow of Figure 1 on a system that
//! exercises all preprocessing passes at once: testers, selectors,
//! disequalities and equalities.

use ringen::automata::AutStore;
use ringen::chc::parse_str;
use ringen::core::preprocess::{preprocess, skolemize};
use ringen::core::{
    check_inductive_guarded, check_refutation, solve_guarded, Answer, Guard, RegularInvariant,
    RingenConfig,
};
use ringen::fmf::{find_model_guarded, FinderConfig};

fn full_featured_system() -> ringen::chc::ChcSystem {
    // p marks non-zero evens; the query mixes a tester, a selector and a
    // disequality. Satisfiable: p ⊆ {2, 4, …} and pre(x) of an even
    // non-zero x is odd, hence never equal to x.
    parse_str(
        r#"
        (set-logic HORN)
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (p (S (S Z))))
        (assert (forall ((x Nat)) (=> (p x) (p (S (S x))))))
        (assert (forall ((x Nat))
          (=> (and (p x) ((_ is S) x) (= (pre x) x)) false)))
        (assert (forall ((x Nat) (y Nat))
          (=> (and (p x) (p y) (distinct x y) (= y (S x))) false)))
        "#,
    )
    .unwrap()
}

#[test]
fn figure1_every_arrow() {
    let sys = full_featured_system();
    assert!(sys.has_testers_or_selectors());
    assert!(sys.has_disequalities());

    // Arrow 1-3: preprocessing to constraint-free EUF clauses.
    let pre = preprocess(&sys);
    assert!(!pre.system.has_testers_or_selectors());
    assert!(!pre.system.has_disequalities());
    assert!(pre.system.clauses.iter().all(|c| c.is_constraint_free()));
    assert!(pre.stats.diseq_preds >= 1);
    assert!(pre.stats.tester_preds >= 1);

    // Arrow 4: the finite-model finder.
    let (outcome, _) =
        find_model_guarded(&pre.skolemized, &FinderConfig::default(), &Guard::new()).unwrap();
    let model = outcome.model().expect("a finite model exists");
    assert!(model.satisfies(&pre.skolemized));

    // Arrow 5: Theorem 1 — model to tree-tuple automaton.
    let inv = RegularInvariant::from_model(&pre.system, &model);
    assert!(
        check_inductive_guarded(&pre.system, &inv, &mut AutStore::new(), &Guard::new())
            .is_inductive()
    );

    // The invariant solves the original problem end to end.
    let (answer, stats) = solve_guarded(
        &sys,
        &RingenConfig::default(),
        &mut AutStore::new(),
        &Guard::new(),
    );
    let sat = match answer {
        Answer::Sat(s) => s,
        other => panic!("expected SAT, got {other:?}"),
    };
    assert_eq!(stats.model_size, Some(sat.invariant.state_count()));

    // Semantics spot check: p holds of 2,4,6 and not of odds or zero.
    let p = sys.rels.by_name("p").unwrap();
    let z = sys.sig.func_by_name("Z").unwrap();
    let s = sys.sig.func_by_name("S").unwrap();
    let n = |k| ringen::terms::GroundTerm::iterate(s, ringen::terms::GroundTerm::leaf(z), k);
    for k in 0..10usize {
        if k >= 2 && k % 2 == 0 {
            assert!(sat.invariant.holds(p, &[n(k)]), "p should hold of {k}");
        }
        if k % 2 == 1 {
            assert!(!sat.invariant.holds(p, &[n(k)]), "p must not hold of {k}");
        }
    }
}

#[test]
fn refutations_replay_end_to_end() {
    let sys = parse_str(
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (forall ((x Nat)) (=> (and (p x) ((_ is S) x) (distinct x (S Z))) false)))
        "#,
    )
    .unwrap();
    let (answer, _) = solve_guarded(
        &sys,
        &RingenConfig::default(),
        &mut AutStore::new(),
        &Guard::new(),
    );
    let r = match answer {
        Answer::Unsat(r) => r,
        other => panic!("expected UNSAT, got {other:?}"),
    };
    assert!(check_refutation(&sys, &r).is_ok());
}

#[test]
fn skolemization_preserves_universal_systems() {
    let sys = full_featured_system();
    let pre = preprocess(&sys);
    let sk = skolemize(&pre.system);
    assert!(sk.skolem_funcs.is_empty());
    assert_eq!(sk.system.clauses.len(), pre.system.clauses.len());
}

#[test]
fn stlc_system_round_trips_through_smtlib() {
    use ringen::benchgen::stlc::{type_check_system, TypeExpr};
    let sys = type_check_system(&TypeExpr::paper_goal());
    let printed = ringen::chc::to_smtlib(&sys);
    let re = ringen::chc::parse_str(&printed).expect("printer output parses");
    assert_eq!(re.clauses.len(), sys.clauses.len());
    let q = re.clauses.iter().find(|c| c.is_query()).unwrap();
    assert_eq!(q.exist_vars.len(), 2, "∀∃ query survives the round trip");
    assert!(re.well_sorted().is_ok());
}
