//! Exactness of the saturation refuter per clause shape. Each case pins
//! one system's outcome, its `SaturationStats` and an FNV-1a digest of
//! its fact list (of the certificate's steps for a refutation). Every
//! shape leaves the plain body join somewhere: free head variables,
//! equalities between bound terms, equalities that bind variables,
//! disequalities, testers, and a skipped `∃` query. The pinned values
//! are those of the boxed substitution matcher the pooled one replaced;
//! they must not move.

use ringen::benchgen::{diseq_suite, shapes, type_check_system, TypeExpr};
use ringen::chc::{parse_str, ChcSystem, PredId};
use ringen::core::saturation::{
    check_refutation, saturate_guarded, SaturationConfig, SaturationOutcome,
};
use ringen::core::Guard;
use ringen::parallel::ParallelConfig;
use ringen::terms::GroundTerm;

/// `(outcome, rounds, facts, steps, candidates, pooled_terms, digest)`.
type Pinned = (&'static str, usize, usize, u64, u64, usize, u64);

/// 64-bit FNV-1a over a canonical serialization of ground facts.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, x: usize) {
        for b in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn term(&mut self, t: &GroundTerm) {
        self.write(t.func().index());
        self.write(t.args().len());
        for a in t.args() {
            self.term(a);
        }
    }

    fn fact(&mut self, pred: PredId, args: &[GroundTerm]) {
        self.write(pred.index());
        for a in args {
            self.term(a);
        }
    }
}

/// Saturates `sys` under a 2k-fact budget, replays any refutation, and
/// returns the pinned tuple.
fn run(sys: &ChcSystem) -> Pinned {
    let cfg = SaturationConfig {
        max_facts: 2_000,
        parallel: ParallelConfig::sequential(),
        ..SaturationConfig::default()
    };
    let (outcome, stats) = saturate_guarded(sys, &cfg, &Guard::new());
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let kind = match &outcome {
        SaturationOutcome::Refuted(r) => {
            check_refutation(sys, r).expect("every refutation replays");
            for step in r.boxed_steps() {
                digest.write(step.clause);
                for (v, t) in &step.binding {
                    digest.write(v.index());
                    digest.term(t);
                }
                for &p in &step.premises {
                    digest.write(p);
                }
                if let Some((pred, args)) = &step.fact {
                    digest.fact(*pred, args);
                }
            }
            "refuted"
        }
        SaturationOutcome::Saturated(base) | SaturationOutcome::Budget(base) => {
            for (pred, args) in base.ground_facts() {
                digest.fact(pred, &args);
            }
            if matches!(outcome, SaturationOutcome::Saturated(_)) {
                "saturated"
            } else {
                "budget"
            }
        }
        SaturationOutcome::Interrupted(_) => panic!("an unarmed guard never trips"),
    };
    (
        kind,
        stats.rounds,
        stats.facts,
        stats.steps,
        stats.candidates,
        stats.pooled_terms,
        digest.0,
    )
}

/// Free head variables: every rule pads the left spine with five free
/// subtrees, each enumerated over the first candidates of its sort.
#[test]
fn free_head_variables() {
    assert_eq!(run(&shapes::even_left_tree(5, 2)), PIN_FREE_HEAD);
}

fn diseq(name: &str) -> ChcSystem {
    diseq_suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name} is in the suite"))
        .system
}

/// A free head variable (`snoc(nil, a, [a])`) beside a disequality
/// query (`diseq/deep-0`).
#[test]
fn free_head_variable_with_a_disequality() {
    assert_eq!(run(&diseq("diseq/deep-0")), PIN_DISEQ);
}

/// Equalities whose sides the body join binds, beside disequalities
/// (`diseq/shallow-2-0`): both sides are interned and compared by id.
#[test]
fn bound_equalities_with_disequalities() {
    assert_eq!(run(&diseq("diseq/shallow-2-0")), PIN_SHALLOW);
}

/// A skipped `∀∃` query beside free variables (`handwritten/inhab-peirce`).
#[test]
fn skipped_exists_query_with_free_variables() {
    assert_eq!(run(&type_check_system(&TypeExpr::peirce())), PIN_PEIRCE);
}

/// Testers, a selector and a disequality (the `tests/pipeline.rs`
/// system).
#[test]
fn testers_selectors_and_disequalities() {
    let sys = parse_str(
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
    .expect("the pipeline system parses");
    assert_eq!(run(&sys), PIN_TESTERS);
}

/// Equalities with one side bound, on an UNSAT system: the bound side
/// is interned and the other side matched against it, binding `y` in
/// the rule and `y` and `z` in the query. The certificate's bindings
/// are in `clause.vars` order.
#[test]
fn one_side_bound_equalities_refute() {
    let sys = parse_str(
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (declare-fun q (Nat) Bool)
        (assert (p (S (S Z))))
        (assert (forall ((x Nat)) (=> (p x) (p (S (S x))))))
        (assert (forall ((x Nat) (y Nat)) (=> (and (p x) (= y (S (S x)))) (q y))))
        (assert (forall ((x Nat) (y Nat) (z Nat))
          (=> (and (q x) (= x (S y)) ((_ is S) y) (distinct y z) (= z (S (S Z)))) false)))
        "#,
    )
    .expect("the system parses");
    assert_eq!(run(&sys), PIN_REFUTED);
}

const PIN_FREE_HEAD: Pinned = ("budget", 2, 2000, 2288, 2000, 2290, 15630717060575982565);
const PIN_SHALLOW: Pinned = ("saturated", 13, 12, 234, 12, 23, 16290009518948963877);
const PIN_DISEQ: Pinned = ("budget", 4, 2000, 2269, 2000, 1936, 12332974703690264133);
const PIN_PEIRCE: Pinned = ("budget", 2, 2000, 2379, 2000, 1908, 15510296326791619436);
const PIN_TESTERS: Pinned = ("saturated", 12, 11, 209, 11, 23, 1499679828344781381);
const PIN_REFUTED: Pinned = ("refuted", 3, 5, 5, 5, 7, 4340719496111681446);
