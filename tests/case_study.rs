//! The §5 case study as an integration test: the finite-model finder
//! discovers the paper's invariant ℐ for `(a → b) → a`, its semantics
//! match the paper's description, and Peirce's law diverges.

use ringen::automata::AutStore;
use ringen::benchgen::stlc::{type_check_system, TypeExpr};
use ringen::core::{solve_guarded, Answer, Guard, RingenConfig};
use ringen::terms::GroundTerm;

#[test]
fn paper_goal_gets_the_six_state_invariant() {
    let sys = type_check_system(&TypeExpr::paper_goal());
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
    // The paper's model: |Var| + |Type| + |Expr| + |Env| = 1+2+1+2 = 6.
    assert_eq!(stats.model_size, Some(6));

    // Check the invariant against the paper's ℐ on ground instances:
    // ⟨empty, e, t⟩ ∈ ℐ iff M₀ ⊨ t for the all-false interpretation
    // (since the empty environment has no type to falsify).
    let sig = &sat.preprocessed.system.sig;
    let tc = sat.preprocessed.system.rels.by_name("typeCheck").unwrap();
    let prim = sig.func_by_name("prim0").unwrap();
    let arrow = sig.func_by_name("arrow").unwrap();
    let empty = sig.func_by_name("empty").unwrap();
    let evar = sig.func_by_name("evar").unwrap();
    let v0 = sig.func_by_name("v0").unwrap();
    let e = GroundTerm::app(evar, vec![GroundTerm::leaf(v0)]);
    let p = GroundTerm::leaf(prim);
    let arr = |a: &GroundTerm, b: &GroundTerm| GroundTerm::app(arrow, vec![a.clone(), b.clone()]);

    // M₀ ⊭ prim, so ⟨empty, e, prim⟩ ∉ ℐ …
    assert!(!sat
        .invariant
        .holds(tc, &[GroundTerm::leaf(empty), e.clone(), p.clone()]));
    // … but prim → prim is satisfied by M₀, so it is in ℐ.
    let p_to_p = arr(&p, &p);
    assert!(sat
        .invariant
        .holds(tc, &[GroundTerm::leaf(empty), e.clone(), p_to_p.clone()]));
    // The goal instance (prim → prim) → prim is falsified by M₀: not in ℐ.
    let goal = arr(&p_to_p, &p);
    assert!(!sat.invariant.holds(tc, &[GroundTerm::leaf(empty), e, goal]));
}

#[test]
fn peirce_diverges() {
    let sys = type_check_system(&TypeExpr::peirce());
    let mut cfg = RingenConfig::quick();
    cfg.finder.max_total_size = 7;
    let (answer, _) = solve_guarded(&sys, &cfg, &mut AutStore::new(), &Guard::new());
    assert!(answer.is_unknown(), "Peirce must diverge, got {answer:?}");
}
