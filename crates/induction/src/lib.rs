//! `ringen-induction` — a structural-induction prover standing in for
//! the CVC4 induction solver (`CVC4-Ind`) in the paper's evaluation
//! (§8).
//!
//! The prover works backwards from each query clause: a *goal* is a
//! conjunction of atoms (with constraints) whose simultaneous
//! derivability in the least Herbrand model would violate safety.
//! Unfolding resolves one atom against every definite clause; branches
//! die when their ADT constraints clash (decided by the Oppen-style
//! procedure of `ringen-elem`). If every branch dies within the depth
//! budget the system is proved safe.
//!
//! Two regimes, matching the paper's measurements and the ablation
//! bench:
//!
//! * **default (CVC4-Ind profile)** — no cyclic discharge: only goals
//!   whose unfolding tree closes *finitely* are proved. Like CVC4's
//!   quantifier-instantiation induction on these benchmarks, this proves
//!   almost nothing SAT (Table 1 reports 0) while the saturation refuter
//!   still finds counterexamples (UNSAT).
//! * **cyclic discharge on** ([`InductionConfig::cyclic`]) — a goal
//!   subsumed by an ancestor is discharged by infinite descent: any
//!   derivation of the descendant would embed a strictly smaller
//!   derivation of the ancestor. This is the "automating induction"
//!   extension discussed in §9 (Related Work), and proves e.g. `Even`.

use std::collections::BTreeMap;

use ringen_chc::{Atom, ChcSystem, Clause, Constraint, IllSorted, PredId};
use ringen_core::saturation::{saturate_guarded, Refutation, SaturationConfig, SaturationOutcome};
use ringen_core::Guard;
use ringen_elem::{check_cube, CubeSat, Literal};
use ringen_terms::{unify_all, Substitution, Term, VarContext, VarId};

/// Budgets and regime for [`solve_induction`].
#[derive(Debug, Clone)]
pub struct InductionConfig {
    /// Refuter budgets.
    pub saturation: SaturationConfig,
    /// Maximum unfolding depth per branch.
    pub max_depth: usize,
    /// Maximum goals expanded over the whole proof attempt.
    pub max_goals: u64,
    /// Enable discharge of goals subsumed by an ancestor (cyclic /
    /// infinite-descent induction).
    pub cyclic: bool,
}

impl Default for InductionConfig {
    fn default() -> Self {
        InductionConfig {
            saturation: SaturationConfig::default(),
            max_depth: 12,
            max_goals: 50_000,
            cyclic: false,
        }
    }
}

impl InductionConfig {
    /// Small-budget configuration for batch benchmarking.
    pub fn quick() -> Self {
        InductionConfig {
            saturation: SaturationConfig {
                max_facts: 4_000,
                max_rounds: 32,
                max_term_height: 16,
                free_var_candidates: 6,
                max_steps: 400_000,
                ..SaturationConfig::default()
            },
            max_depth: 10,
            max_goals: 10_000,
            ..InductionConfig::default()
        }
    }

    /// The cyclic-induction regime (the §9 extension; ablation target).
    pub fn cyclic() -> Self {
        InductionConfig {
            cyclic: true,
            ..InductionConfig::quick()
        }
    }
}

/// How the queries were closed.
#[derive(Debug, Clone)]
pub struct InductionProof {
    /// Goals expanded.
    pub goals_expanded: u64,
    /// Goals discharged by the infinite-descent rule (0 in the default
    /// regime).
    pub cyclic_discharges: u64,
}

/// The prover's verdict.
#[derive(Debug, Clone)]
pub enum InductionAnswer {
    /// Safe: every query's unfolding tree closed.
    Sat(InductionProof),
    /// Unsafe, with a ground refutation.
    Unsat(Refutation),
    /// Budgets exhausted.
    Unknown,
}

impl InductionAnswer {
    /// `true` for [`InductionAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, InductionAnswer::Sat(_))
    }

    /// `true` for [`InductionAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, InductionAnswer::Unsat(_))
    }

    /// `true` for [`InductionAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, InductionAnswer::Unknown)
    }
}

/// A backward-proof goal: derive all atoms under the constraints.
#[derive(Debug, Clone)]
struct Goal {
    vars: VarContext,
    atoms: Vec<Atom>,
    constraints: Vec<Constraint>,
    depth: usize,
}

/// Runs the prover. Returns the answer and the refuter's step count
/// (for the timing harness).
///
/// # Errors
///
/// Returns [`IllSorted`] if `sys` is not well-sorted.
pub fn solve_induction(
    sys: &ChcSystem,
    cfg: &InductionConfig,
) -> Result<(InductionAnswer, u64), IllSorted> {
    sys.well_sorted()?;

    let (outcome, sat_stats) = saturate_guarded(sys, &cfg.saturation, &Guard::new());
    if let SaturationOutcome::Refuted(r) = outcome {
        return Ok((InductionAnswer::Unsat(r), sat_stats.steps));
    }

    let mut proof = InductionProof {
        goals_expanded: 0,
        cyclic_discharges: 0,
    };
    for clause in sys.queries() {
        if !clause.exist_vars.is_empty() {
            // The backward prover handles universal queries only.
            return Ok((InductionAnswer::Unknown, sat_stats.steps));
        }
        let root = Goal {
            vars: clause.vars.clone(),
            atoms: clause.body.clone(),
            constraints: clause.constraints.clone(),
            depth: 0,
        };
        match prove_unreachable(sys, cfg, root, &mut Vec::new(), &mut proof) {
            Some(true) => {}
            Some(false) | None => return Ok((InductionAnswer::Unknown, sat_stats.steps)),
        }
    }
    Ok((InductionAnswer::Sat(proof), sat_stats.steps))
}

/// `Some(true)` — the goal is underivable (all branches die);
/// `Some(false)` — could not be shown within the depth budget;
/// `None` — global goal budget exhausted.
fn prove_unreachable(
    sys: &ChcSystem,
    cfg: &InductionConfig,
    goal: Goal,
    ancestors: &mut Vec<Goal>,
    proof: &mut InductionProof,
) -> Option<bool> {
    proof.goals_expanded += 1;
    if proof.goals_expanded > cfg.max_goals {
        return None;
    }
    // Constraint clash kills the branch.
    if constraints_unsat(sys, &goal) {
        return Some(true);
    }
    // A goal with no atoms and consistent constraints is derivable: the
    // query fires, safety cannot be proven on this branch.
    if goal.atoms.is_empty() {
        return Some(false);
    }
    if cfg.cyclic && ancestors.iter().any(|a| subsumes(a, &goal)) {
        proof.cyclic_discharges += 1;
        return Some(true);
    }
    if goal.depth >= cfg.max_depth {
        return Some(false);
    }

    // Unfold the most constrained atom (fewest potentially matching
    // clauses) — completeness is preserved whichever atom is picked.
    let pick = select_atom(sys, &goal);
    let atom = goal.atoms[pick].clone();
    let mut rest = goal.atoms.clone();
    rest.remove(pick);

    ancestors.push(goal.clone());
    let mut all_die = true;
    for clause in sys.definite_clauses() {
        let head = clause.head.as_ref().expect("definite clause has a head");
        if head.pred != atom.pred {
            continue;
        }
        if let Some(child) = resolve(&goal, &rest, &atom, clause) {
            match prove_unreachable(sys, cfg, child, ancestors, proof) {
                Some(true) => {}
                Some(false) => {
                    all_die = false;
                    break;
                }
                None => {
                    ancestors.pop();
                    return None;
                }
            }
        }
    }
    ancestors.pop();
    Some(all_die)
}

/// Resolves `atom` in the goal against a definite clause, renaming the
/// clause apart and unifying with its head.
fn resolve(goal: &Goal, rest: &[Atom], atom: &Atom, clause: &Clause) -> Option<Goal> {
    let mut vars = goal.vars.clone();
    let rename = vars.import(&clause.vars);
    let head = clause.head.as_ref().expect("definite clause");
    let pairs: Vec<(Term, Term)> = atom
        .args
        .iter()
        .zip(&head.args)
        .map(|(a, h)| (a.clone(), h.rename(&rename)))
        .collect();
    let mgu = unify_all(pairs).ok()?;
    let apply_atom = |a: &Atom, ren: Option<&BTreeMap<VarId, VarId>>, mgu: &Substitution| -> Atom {
        let args = a
            .args
            .iter()
            .map(|t| {
                let t = match ren {
                    Some(r) => t.rename(r),
                    None => t.clone(),
                };
                mgu.apply_deep(&t)
            })
            .collect();
        Atom::new(a.pred, args)
    };
    let mut atoms: Vec<Atom> = rest.iter().map(|a| apply_atom(a, None, &mgu)).collect();
    atoms.extend(
        clause
            .body
            .iter()
            .map(|a| apply_atom(a, Some(&rename), &mgu)),
    );
    let mut constraints: Vec<Constraint> = goal
        .constraints
        .iter()
        .map(|k| apply_constraint(k, None, &mgu))
        .collect();
    constraints.extend(
        clause
            .constraints
            .iter()
            .map(|k| apply_constraint(k, Some(&rename), &mgu)),
    );
    Some(Goal {
        vars,
        atoms,
        constraints,
        depth: goal.depth + 1,
    })
}

fn apply_constraint(
    k: &Constraint,
    ren: Option<&BTreeMap<VarId, VarId>>,
    mgu: &Substitution,
) -> Constraint {
    let tr = |t: &Term| {
        let t = match ren {
            Some(r) => t.rename(r),
            None => t.clone(),
        };
        mgu.apply_deep(&t)
    };
    match k {
        Constraint::Eq(a, b) => Constraint::Eq(tr(a), tr(b)),
        Constraint::Neq(a, b) => Constraint::Neq(tr(a), tr(b)),
        Constraint::Tester {
            ctor,
            term,
            positive,
        } => Constraint::Tester {
            ctor: *ctor,
            term: tr(term),
            positive: *positive,
        },
    }
}

fn constraints_unsat(sys: &ChcSystem, goal: &Goal) -> bool {
    let cube: Vec<Literal> = goal
        .constraints
        .iter()
        .map(|k| match k {
            Constraint::Eq(a, b) => Literal::Eq(a.clone(), b.clone()),
            Constraint::Neq(a, b) => Literal::Neq(a.clone(), b.clone()),
            Constraint::Tester {
                ctor,
                term,
                positive,
            } => Literal::Tester {
                ctor: *ctor,
                term: term.clone(),
                positive: *positive,
            },
        })
        .collect();
    check_cube(&sys.sig, &goal.vars, &cube) == CubeSat::Unsat
}

fn select_atom(sys: &ChcSystem, goal: &Goal) -> usize {
    let matching = |p: PredId| {
        sys.definite_clauses()
            .filter(|c| c.head.as_ref().is_some_and(|h| h.pred == p))
            .count()
    };
    goal.atoms
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| matching(a.pred))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Whether ancestor `a` subsumes goal `g`: a substitution θ on `a`'s
/// variables with `aθ ⊆ g` (atoms and constraints). Conservative
/// syntactic check via left-to-right matching.
fn subsumes(a: &Goal, g: &Goal) -> bool {
    fn match_terms(pat: &Term, tgt: &Term, sub: &mut Substitution) -> bool {
        match pat {
            Term::Var(v) => match sub.get(*v) {
                Some(bound) => bound.clone() == *tgt,
                None => {
                    sub.bind(*v, tgt.clone());
                    true
                }
            },
            Term::App(f, fa) => match tgt {
                Term::App(g2, ga) if f == g2 && fa.len() == ga.len() => {
                    fa.iter().zip(ga).all(|(p, t)| match_terms(p, t, sub))
                }
                _ => false,
            },
        }
    }
    fn match_atoms(pats: &[Atom], tgts: &[Atom], sub: Substitution) -> Option<Substitution> {
        let Some((first, rest)) = pats.split_first() else {
            return Some(sub);
        };
        for t in tgts {
            if t.pred != first.pred {
                continue;
            }
            let mut s2 = sub.clone();
            if first
                .args
                .iter()
                .zip(&t.args)
                .all(|(p, u)| match_terms(p, u, &mut s2))
            {
                if let Some(done) = match_atoms(rest, tgts, s2) {
                    return Some(done);
                }
            }
        }
        None
    }
    let Some(sub) = match_atoms(&a.atoms, &g.atoms, Substitution::new()) else {
        return false;
    };
    // Constraints of the ancestor must appear (instantiated) in the goal.
    a.constraints.iter().all(|k| {
        let inst = apply_constraint(k, None, &sub);
        g.constraints.contains(&inst)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn ok_solve(sys: &ChcSystem, cfg: &InductionConfig) -> (InductionAnswer, u64) {
        solve_induction(sys, cfg).expect("well-sorted test system")
    }

    fn even_system() -> ChcSystem {
        parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn default_regime_cannot_prove_even() {
        // CVC4-Ind profile: no cyclic discharge, so Even's unfolding tree
        // never closes.
        let (answer, _) = ok_solve(&even_system(), &InductionConfig::quick());
        assert!(answer.is_unknown(), "got {answer:?}");
    }

    #[test]
    fn cyclic_regime_proves_even() {
        let (answer, _) = ok_solve(&even_system(), &InductionConfig::cyclic());
        let proof = match answer {
            InductionAnswer::Sat(p) => p,
            other => panic!("expected SAT, got {other:?}"),
        };
        assert!(proof.cyclic_discharges > 0);
    }

    #[test]
    fn finite_closure_is_provable_without_cycles() {
        // p(Z); query p(S(x)): every unfolding clashes immediately.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (forall ((x Nat)) (=> (p (S x)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = ok_solve(&sys, &InductionConfig::quick());
        assert!(answer.is_sat(), "got {answer:?}");
    }

    #[test]
    fn unsat_is_refuted() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
            (assert (=> (p (S (S Z))) false))
            "#,
        )
        .unwrap();
        let (answer, _) = ok_solve(&sys, &InductionConfig::quick());
        assert!(answer.is_unsat());
    }

    #[test]
    fn cyclic_regime_proves_evenleft_on_trees() {
        // Subsumption must work through binary constructors, not just
        // unary chains.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Tree 0))
              (((leaf) (node (left Tree) (right Tree)))))
            (declare-fun el (Tree) Bool)
            (assert (el leaf))
            (assert (forall ((x Tree) (y Tree) (z Tree))
              (=> (el x) (el (node (node x y) z)))))
            (assert (forall ((x Tree) (y Tree))
              (=> (and (el x) (el (node x y))) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = ok_solve(&sys, &InductionConfig::cyclic());
        let proof = match answer {
            InductionAnswer::Sat(p) => p,
            other => panic!("expected SAT, got {other:?}"),
        };
        assert!(proof.cyclic_discharges > 0);
    }

    #[test]
    fn goal_budget_exhaustion_reports_unknown() {
        let mut cfg = InductionConfig::cyclic();
        cfg.max_goals = 1;
        // Keep the refuter from answering first.
        cfg.saturation.max_rounds = 1;
        cfg.saturation.max_facts = 1;
        let (answer, _) = ok_solve(&even_system(), &cfg);
        assert!(answer.is_unknown(), "got {answer:?}");
    }

    #[test]
    fn multiple_queries_must_all_close() {
        // One finitely-closable query plus one that needs cyclic
        // discharge: the default regime fails on the second.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (=> (even (S Z)) false))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let (plain, _) = ok_solve(&sys, &InductionConfig::quick());
        assert!(plain.is_unknown(), "got {plain:?}");
        let (cyclic, _) = ok_solve(&sys, &InductionConfig::cyclic());
        assert!(cyclic.is_sat(), "got {cyclic:?}");
    }

    #[test]
    fn ill_sorted_input_is_a_typed_error() {
        use ringen_chc::{Atom, Clause, Relations, SystemErrorKind};
        use ringen_terms::signature_helpers::nat_signature;
        let (sig, nat, z, _s) = nat_signature();
        let mut rels = Relations::new();
        let p = rels.add("p", vec![nat, nat]);
        let mut sys = ChcSystem::new(sig);
        sys.rels = rels;
        // p applied at the wrong arity: a sort error, not a panic.
        let vars = VarContext::new();
        sys.clauses = vec![Clause::new(
            vars,
            vec![],
            vec![],
            Some(Atom::new(p, vec![Term::leaf(z)])),
        )];
        let err = solve_induction(&sys, &InductionConfig::quick()).unwrap_err();
        assert!(matches!(err.0.kind, SystemErrorKind::AtomArity { .. }));
        assert!(err.to_string().contains("not well-sorted"));
    }

    #[test]
    fn forall_exists_queries_are_unknown() {
        // The backward prover is universal-only; a ∀∃ query (the §5
        // STLC shape) must degrade to unknown, not misreport.
        use ringen_chc::{Atom, Clause, Relations};
        use ringen_terms::signature_helpers::nat_signature;
        let (sig, nat, z, _s) = nat_signature();
        let mut rels = Relations::new();
        let p = rels.add("p", vec![nat]);
        let mut sys = ChcSystem::new(sig);
        sys.rels = rels;
        // p(Z).
        let mut vars = VarContext::new();
        let fact = Clause::new(
            vars.clone(),
            vec![],
            vec![],
            Some(Atom::new(p, vec![Term::leaf(z)])),
        );
        // ∃y. p(y) → ⊥ (y existential).
        let y = vars.fresh("y", nat);
        let query = Clause::new(vars, vec![], vec![Atom::new(p, vec![Term::var(y)])], None)
            .with_exists(vec![y]);
        sys.clauses = vec![fact, query];
        assert!(sys.well_sorted().is_ok());
        let (answer, _) = ok_solve(&sys, &InductionConfig::quick());
        assert!(answer.is_unknown(), "got {answer:?}");
    }
}
