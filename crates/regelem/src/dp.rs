//! A sound unsatisfiability check for conjunctions of `RegElem`
//! literals.
//!
//! The full first-order theory of ADTs with membership constraints is
//! decidable (Comon and Delor [15]), but its decision procedure is far
//! beyond what invariant checking needs. Inductiveness of a candidate
//! only ever asks one-sided questions — *prove this violation cube
//! unsatisfiable* — so this module implements a layered, sound-for-UNSAT
//! procedure and returns [`RegCubeSat::Maybe`] whenever no layer
//! applies. A candidate whose violation cube cannot be *proved*
//! unsatisfiable is rejected; the solver never claims inductiveness it
//! cannot certify (exactly how `ringen-elem` uses its Oppen-style
//! procedure).
//!
//! Layers, each individually sound over the Herbrand structure:
//!
//! 1. **Elementary projection** — membership atoms are dropped and the
//!    remaining cube goes to the Oppen-style procedure of
//!    `ringen-elem` (congruence closure, injectivity, distinctness,
//!    acyclicity, testers).
//! 2. **Unification** — the equality atoms are solved syntactically;
//!    a clash or occurs-cycle refutes the cube outright (constructors
//!    are injective, distinct and acyclic), otherwise the mgu `θ` is
//!    applied to every remaining literal. `t ≠ t` after `θ` refutes
//!    the cube.
//! 3. **State propagation** — every membership literal `t ∈ L` / `t ∉
//!    L` is compiled to the per-variable sets of automaton states its
//!    satisfying runs allow (a projection, hence an
//!    over-approximation). For each variable, the sets from literals
//!    over the *same* automaton are intersected; emptiness refutes the
//!    cube. A literal with no satisfying state assignment at all
//!    refutes the cube by itself.
//! 4. **Joint realizability** — a variable constrained by several
//!    *different* automata must denote one ground term whose run
//!    states agree with every constraint simultaneously; the reachable
//!    tuples of the product of all constraining automata (with the top
//!    constructors that can realize them, for tester interplay) decide
//!    whether such a term exists.
//! 5. **Pigeonhole counting** — variables restricted to the same
//!    *finite* value set (distinct-term counts of the deterministic
//!    product, exact below a saturation cap) cannot be pairwise
//!    disequal in greater number than the set holds. This recovers,
//!    inside the membership fragment, §4.4's observation that
//!    disequalities demand sufficiently populated domains.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ringen_automata::store::{
    joint_member_counts, joint_reachable_products, JointCounts, JointReach,
};
use ringen_automata::{AutStore, Dfta, DftaId, StateId};
use ringen_elem::{check_cube as elem_check_cube, CubeSat};
use ringen_terms::{unify_all, FuncId, Signature, SortId, Term, UnifyError, VarContext, VarId};

use crate::formula::{RegCube, RegLiteral};
use crate::lang::Lang;

/// Verdict of the cube check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegCubeSat {
    /// The cube is provably contradictory modulo ADT axioms and the
    /// membership semantics.
    Unsat,
    /// No layer could refute the cube. It may or may not have a
    /// Herbrand model; callers must treat this conservatively.
    Maybe,
}

/// Resource guards for the propagation layers.
#[derive(Debug, Clone, Copy)]
pub struct DpBudget {
    /// Skip per-literal state enumeration beyond this many
    /// assignments (states ^ distinct variables).
    pub max_literal_assignments: usize,
    /// Skip the joint product fixpoint beyond this many product
    /// tuples.
    pub max_product_tuples: usize,
    /// Saturation point of the pigeonhole counting layer; counts at
    /// the cap are treated as "possibly infinite" and never refute.
    pub count_cap: usize,
}

impl Default for DpBudget {
    fn default() -> Self {
        DpBudget {
            max_literal_assignments: 4_096,
            max_product_tuples: 20_000,
            count_cap: 8,
        }
    }
}

/// Checks a cube of `RegElem` literals for provable unsatisfiability
/// over the Herbrand structure.
///
/// Sound for [`RegCubeSat::Unsat`]: every refutation corresponds to a
/// genuine contradiction. Incomplete: [`RegCubeSat::Maybe`] carries no
/// information.
///
/// # Example
///
/// The Example 1 query `even(x) ∧ even(S(x))`, phrased with
/// membership atoms:
///
/// ```
/// use ringen_automata::Dfta;
/// use ringen_regelem::{check_cube, DpBudget, Lang, RegCubeSat, RegLiteral};
/// use ringen_terms::{signature_helpers::nat_signature, Term, VarContext};
///
/// let (sig, nat, z, s) = nat_signature();
/// let mut d = Dfta::new();
/// let s0 = d.add_state(nat);
/// let s1 = d.add_state(nat);
/// d.add_transition(z, vec![], s0);
/// d.add_transition(s, vec![s0], s1);
/// d.add_transition(s, vec![s1], s0);
/// let even = Lang::new("Even", &sig, d, [s0]);
///
/// let mut vars = VarContext::new();
/// let x = vars.fresh("x", nat);
/// let cube = vec![
///     RegLiteral::member(Term::var(x), even.clone()),
///     RegLiteral::member(Term::app(s, vec![Term::var(x)]), even),
/// ];
/// assert_eq!(
///     check_cube(&sig, &vars, &cube, &DpBudget::default()),
///     RegCubeSat::Unsat
/// );
/// ```
pub fn check_cube(
    sig: &Signature,
    vars: &VarContext,
    cube: &RegCube,
    budget: &DpBudget,
) -> RegCubeSat {
    check_cube_impl(sig, vars, cube, budget, None)
}

/// [`check_cube`] routed through a hash-consed [`AutStore`]: the joint
/// products of layer 4 and the counting fixpoints of layer 5 are
/// memoized by the interned ids of the constraining automata, so the
/// thousands of cubes a solver loop checks against the same language
/// combinations pay one fixpoint and then one hash probe each.
pub fn check_cube_in(
    sig: &Signature,
    vars: &VarContext,
    cube: &RegCube,
    budget: &DpBudget,
    store: &mut AutStore,
) -> RegCubeSat {
    check_cube_impl(sig, vars, cube, budget, Some(store))
}

pub(crate) fn check_cube_impl(
    sig: &Signature,
    vars: &VarContext,
    cube: &RegCube,
    budget: &DpBudget,
    mut store: Option<&mut AutStore>,
) -> RegCubeSat {
    // Layer 1: the elementary projection.
    let elem_cube: Vec<_> = cube.iter().filter_map(RegLiteral::as_elem).collect();
    if elem_check_cube(sig, vars, &elem_cube) == CubeSat::Unsat {
        return RegCubeSat::Unsat;
    }
    if !cube.iter().any(|l| matches!(l, RegLiteral::Member { .. })) {
        // Nothing the remaining layers could add.
        return RegCubeSat::Maybe;
    }

    // Layer 2: solve the equalities syntactically.
    let eqs = cube.iter().filter_map(|l| match l {
        RegLiteral::Eq(a, b) => Some((a.clone(), b.clone())),
        _ => None,
    });
    let theta = match unify_all(eqs) {
        Ok(theta) => theta,
        Err(UnifyError::Clash(..) | UnifyError::Occurs(..)) => return RegCubeSat::Unsat,
    };

    let mut members: Vec<(Term, Lang, bool)> = Vec::new();
    let mut var_ctors: BTreeMap<VarId, BTreeSet<FuncId>> = BTreeMap::new();
    let mut neq_pairs: Vec<(VarId, VarId)> = Vec::new();
    for lit in cube {
        match lit.apply(&theta) {
            RegLiteral::Eq(..) => {}
            RegLiteral::Neq(a, b) => {
                if a == b {
                    return RegCubeSat::Unsat;
                }
                if let (Term::Var(x), Term::Var(y)) = (&a, &b) {
                    neq_pairs.push((*x.min(y), *x.max(y)));
                }
            }
            RegLiteral::Tester {
                ctor,
                term,
                positive,
            } => match &term {
                Term::App(f, _) => {
                    if (*f == ctor) != positive {
                        return RegCubeSat::Unsat;
                    }
                }
                Term::Var(v) => {
                    let Some(sort) = vars.sort(*v) else { continue };
                    let allowed = var_ctors
                        .entry(*v)
                        .or_insert_with(|| sig.constructors_of(sort).iter().copied().collect());
                    if positive {
                        allowed.retain(|c| *c == ctor);
                    } else {
                        allowed.remove(&ctor);
                    }
                    if allowed.is_empty() {
                        return RegCubeSat::Unsat;
                    }
                }
            },
            RegLiteral::Member {
                term,
                lang,
                positive,
            } => {
                members.push((term, lang, positive));
            }
        }
    }
    if members.is_empty() {
        return RegCubeSat::Maybe;
    }

    // Layer 3: per-literal state propagation.
    // allowed[(var, lang key)] = states the variable may run to in that
    // language's automaton.
    let mut allowed: BTreeMap<(VarId, usize), BTreeSet<StateId>> = BTreeMap::new();
    let mut langs: BTreeMap<usize, Lang> = BTreeMap::new();
    for (term, lang, positive) in &members {
        langs.entry(lang.key()).or_insert_with(|| lang.clone());
        match propagate_literal(vars, term, lang, *positive, budget) {
            Propagation::Unsat => return RegCubeSat::Unsat,
            Propagation::Skipped => {}
            Propagation::Allowed(per_var) => {
                for (v, states) in per_var {
                    let entry = allowed
                        .entry((v, lang.key()))
                        .or_insert_with(|| states.clone());
                    *entry = entry.intersection(&states).copied().collect();
                    if entry.is_empty() {
                        return RegCubeSat::Unsat;
                    }
                }
            }
        }
    }

    // Layer 4: joint realizability across distinct automata. The
    // feasible product tuples are kept per variable for the counting
    // layer below. With a store, the joint fixpoint is memoized by the
    // interned table ids — a warm solver-loop iteration pays one hash
    // probe here instead of re-running it.
    let constrained_vars: BTreeSet<VarId> = allowed.keys().map(|(v, _)| *v).collect();
    let keys: Vec<usize> = langs.keys().copied().collect();
    let dfta_ids: Option<Vec<DftaId>> = store.as_deref_mut().map(|st| {
        keys.iter()
            .map(|k| langs[k].intern_dfta_in(st))
            .collect::<Vec<_>>()
    });
    let products: Arc<JointReach> = match (&mut store, &dfta_ids) {
        (Some(st), Some(ids)) => match st.joint_reachable(sig, ids, budget.max_product_tuples) {
            Some(p) => p,
            None => return RegCubeSat::Maybe,
        },
        _ => {
            let dftas: Vec<&Dfta> = keys.iter().map(|k| langs[k].dfta()).collect();
            match joint_reachable_products(sig, &dftas, budget.max_product_tuples) {
                Some(p) => Arc::new(p),
                None => return RegCubeSat::Maybe,
            }
        }
    };
    let mut feasible_tuples: BTreeMap<VarId, BTreeSet<Vec<StateId>>> = BTreeMap::new();
    for &v in &constrained_vars {
        let Some(sort) = vars.sort(v) else { continue };
        let Some(tuples) = products.get(&sort) else {
            // No ground term of this sort at all: the membership
            // constraint (and hence the cube) is unsatisfiable.
            return RegCubeSat::Unsat;
        };
        let ctors = var_ctors.get(&v);
        let feas: BTreeSet<Vec<StateId>> = tuples
            .iter()
            .filter(|(tuple, tops)| {
                keys.iter()
                    .zip(tuple.iter())
                    .all(|(k, s)| allowed.get(&(v, *k)).is_none_or(|set| set.contains(s)))
                    && ctors.is_none_or(|cs| tops.iter().any(|t| cs.contains(t)))
            })
            .map(|(tuple, _)| tuple.clone())
            .collect();
        if feas.is_empty() {
            return RegCubeSat::Unsat;
        }
        feasible_tuples.insert(v, feas);
    }

    // Layer 5: pigeonhole counting. Variables restricted to the same
    // finite value set cannot be pairwise distinct in greater number
    // than the set holds; counts come from the deterministic product
    // (each ground term has exactly one run tuple, so tuple counts are
    // disjoint and add up exactly).
    if !neq_pairs.is_empty() && !feasible_tuples.is_empty() {
        let counts: Arc<JointCounts> = match (&mut store, &dfta_ids) {
            (Some(st), Some(ids)) => st.joint_counts(sig, ids, budget.count_cap),
            _ => {
                let dftas: Vec<&Dfta> = keys.iter().map(|k| langs[k].dfta()).collect();
                Arc::new(joint_member_counts(sig, &dftas, budget.count_cap))
            }
        };
        // Group the constrained variables by (sort, feasible set).
        let mut groups: BTreeMap<(SortId, &BTreeSet<Vec<StateId>>), Vec<VarId>> = BTreeMap::new();
        for (&v, feas) in &feasible_tuples {
            if let Some(sort) = vars.sort(v) {
                groups.entry((sort, feas)).or_default().push(v);
            }
        }
        for ((sort, feas), group) in groups {
            if group.len() < 2 {
                continue;
            }
            let Some(per_tuple) = counts.get(&sort) else {
                continue;
            };
            let values: usize = feas
                .iter()
                .map(|t| per_tuple.get(t).copied().unwrap_or(0))
                .fold(0usize, |acc, n| acc.saturating_add(n));
            // A value count at (or beyond) the cap may stand for an
            // arbitrarily large set: only exact counts refute.
            if values >= budget.count_cap || values >= group.len() {
                continue;
            }
            // Fewer values than variables: contradiction if the group
            // is fully pairwise disequal.
            let all_pairs = group.iter().enumerate().all(|(i, &x)| {
                group[i + 1..]
                    .iter()
                    .all(|&y| neq_pairs.contains(&(x.min(y), x.max(y))))
            });
            if all_pairs {
                return RegCubeSat::Unsat;
            }
        }
    }

    RegCubeSat::Maybe
}

enum Propagation {
    /// The literal alone has no satisfying state assignment.
    Unsat,
    /// Per-variable allowed state sets (a projection of the satisfying
    /// assignments).
    Allowed(BTreeMap<VarId, BTreeSet<StateId>>),
    /// Budget exceeded; the literal contributes no constraint.
    Skipped,
}

/// Enumerates state assignments for the distinct variables of `term`
/// and keeps those whose run matches the literal's polarity.
fn propagate_literal(
    vars: &VarContext,
    term: &Term,
    lang: &Lang,
    positive: bool,
    budget: &DpBudget,
) -> Propagation {
    let mut term_vars: Vec<VarId> = term.vars();
    term_vars.sort_unstable();
    term_vars.dedup();

    // Candidate states per variable: reachable states of the variable's
    // sort in this automaton.
    let mut domains: Vec<Vec<StateId>> = Vec::with_capacity(term_vars.len());
    for v in &term_vars {
        let Some(sort) = vars.sort(*v) else {
            return Propagation::Skipped;
        };
        let states = lang.reachable_of_sort(sort);
        if states.is_empty() {
            // No ground term of this sort runs anywhere: the literal is
            // vacuously unsatisfiable (its term has no ground instance
            // tracked by the automaton).
            return Propagation::Unsat;
        }
        domains.push(states);
    }
    let combinations: usize = domains.iter().map(Vec::len).product();
    if combinations > budget.max_literal_assignments {
        return Propagation::Skipped;
    }

    let mut satisfying: BTreeMap<VarId, BTreeSet<StateId>> =
        term_vars.iter().map(|v| (*v, BTreeSet::new())).collect();
    let mut any = false;
    let mut idx = vec![0usize; domains.len()];
    loop {
        let env: BTreeMap<VarId, StateId> = term_vars
            .iter()
            .enumerate()
            .map(|(k, v)| (*v, domains[k][idx[k]]))
            .collect();
        if let Some(state) = lang.dfta().eval(term, &env) {
            if lang.is_final(state) == positive {
                any = true;
                for (v, s) in &env {
                    satisfying.get_mut(v).unwrap().insert(*s);
                }
            }
        }
        // Advance the mixed-radix counter; overflow means every
        // assignment has been visited.
        let mut k = 0;
        loop {
            if k == idx.len() {
                return if any {
                    Propagation::Allowed(satisfying)
                } else {
                    Propagation::Unsat
                };
            }
            idx[k] += 1;
            if idx[k] < domains[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};
    use ringen_terms::Term;

    fn even_lang(sig: &Signature) -> Lang {
        let nat = sig.sort_by_name("Nat").unwrap();
        let z = sig.func_by_name("Z").unwrap();
        let s = sig.func_by_name("S").unwrap();
        let mut d = Dfta::new();
        let s0 = d.add_state(nat);
        let s1 = d.add_state(nat);
        d.add_transition(z, vec![], s0);
        d.add_transition(s, vec![s0], s1);
        d.add_transition(s, vec![s1], s0);
        Lang::new("Even", sig, d, [s0])
    }

    fn evenleft_lang(sig: &Signature) -> Lang {
        let tree = sig.sort_by_name("Tree").unwrap();
        let leaf = sig.func_by_name("leaf").unwrap();
        let node = sig.func_by_name("node").unwrap();
        let mut d = Dfta::new();
        let s0 = d.add_state(tree);
        let s1 = d.add_state(tree);
        d.add_transition(leaf, vec![], s0);
        d.add_transition(node, vec![s0, s0], s1);
        d.add_transition(node, vec![s0, s1], s1);
        d.add_transition(node, vec![s1, s0], s0);
        d.add_transition(node, vec![s1, s1], s0);
        Lang::new("EvenLeft", sig, d, [s0])
    }

    #[test]
    fn parity_clash_between_x_and_sx() {
        // x ∈ Even ∧ S(x) ∈ Even is the paper's Example 1 query.
        let (sig, nat, _z, s) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::member(Term::app(s, vec![Term::var(x)]), even),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn equalities_route_membership_through_unification() {
        // x = y ∧ x ∈ Even ∧ S(S(y)) ∉ Even: both memberships constrain
        // the same variable after unification and disagree.
        let (sig, nat, _z, s) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube = vec![
            RegLiteral::Eq(Term::var(x), Term::var(y)),
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::Member {
                term: Term::iterate(s, Term::var(y), 2),
                lang: even,
                positive: false,
            },
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn satisfiable_membership_is_maybe() {
        let (sig, nat, _z, s) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::Member {
                term: Term::app(s, vec![Term::var(x)]),
                lang: even,
                positive: false,
            },
        ];
        // x even ∧ S(x) odd — satisfiable, so not refuted.
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Maybe
        );
    }

    #[test]
    fn ground_membership_decided_exactly() {
        let (sig, _nat, z, s) = nat_signature();
        let even = even_lang(&sig);
        let vars = VarContext::new();
        let three = Term::iterate(s, Term::leaf(z), 3);
        let cube = vec![RegLiteral::member(three.clone(), even.clone())];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat,
            "3 ∉ Even"
        );
        let cube = vec![RegLiteral::Member {
            term: three,
            lang: even,
            positive: false,
        }];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Maybe,
            "3 ∉ Even holds, nothing to refute"
        );
    }

    #[test]
    fn elementary_layer_still_fires() {
        // Z = S(x) clashes regardless of membership literals.
        let (sig, nat, z, s) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::Eq(Term::leaf(z), Term::app(s, vec![Term::var(x)])),
            RegLiteral::member(Term::var(x), even),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn disequality_after_unification_refutes() {
        let (sig, nat, ..) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube = vec![
            RegLiteral::Eq(Term::var(x), Term::var(y)),
            RegLiteral::member(Term::var(x), even),
            RegLiteral::Neq(Term::var(x), Term::var(y)),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn spine_parity_through_constructor_context() {
        // x ∈ EvenLeft ∧ node(x, u) ∈ EvenLeft: the EvenLeftDiag query.
        let (sig, tree, _leaf, node) = tree_signature();
        let el = evenleft_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", tree);
        let u = vars.fresh("u", tree);
        let cube = vec![
            RegLiteral::member(Term::var(x), el.clone()),
            RegLiteral::member(Term::app(node, vec![Term::var(x), Term::var(u)]), el),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn tester_and_membership_interact() {
        // Z?(x) ∧ x ∉ Even: Z is even, so the only allowed constructor
        // contradicts the negative membership.
        let (sig, nat, z, _s) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::Tester {
                ctor: z,
                term: Term::var(x),
                positive: true,
            },
            RegLiteral::Member {
                term: Term::var(x),
                lang: even,
                positive: false,
            },
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn distinct_automata_joint_realizability() {
        // x ∈ Even ∧ x ∈ Mult3 is satisfiable (x = 0, 6, …): Maybe.
        // x ∈ Even ∧ x ∈ Odd' where Odd' is a *separate* allocation of
        // the complement automaton: jointly unrealizable → Unsat.
        let (sig, nat, z, s) = nat_signature();
        let even = even_lang(&sig);
        let mut d = Dfta::new();
        let q0 = d.add_state(nat);
        let q1 = d.add_state(nat);
        d.add_transition(z, vec![], q0);
        d.add_transition(s, vec![q0], q1);
        d.add_transition(s, vec![q1], q0);
        let odd = Lang::new("Odd", &sig, d, [q1]);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::member(Term::var(x), odd),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat,
            "even ∧ odd jointly unrealizable"
        );

        let mut d = Dfta::new();
        let m: Vec<StateId> = (0..3).map(|_| d.add_state(nat)).collect();
        d.add_transition(z, vec![], m[0]);
        for i in 0..3 {
            d.add_transition(s, vec![m[i]], m[(i + 1) % 3]);
        }
        let mult3 = Lang::new("Mult3", &sig, d, [m[0]]);
        let cube = vec![
            RegLiteral::member(Term::var(x), even),
            RegLiteral::member(Term::var(x), mult3),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Maybe,
            "even ∧ mult3 realizable by 0"
        );
    }

    /// The language `{Z}`: everything past zero sinks.
    fn only_z_lang(sig: &Signature) -> Lang {
        let nat = sig.sort_by_name("Nat").unwrap();
        let z = sig.func_by_name("Z").unwrap();
        let s = sig.func_by_name("S").unwrap();
        let mut d = Dfta::new();
        let a = d.add_state(nat);
        let sink = d.add_state(nat);
        d.add_transition(z, vec![], a);
        d.add_transition(s, vec![a], sink);
        d.add_transition(s, vec![sink], sink);
        Lang::new("OnlyZ", sig, d, [a])
    }

    /// The language `{Z, S(Z)}`.
    fn zero_or_one_lang(sig: &Signature) -> Lang {
        let nat = sig.sort_by_name("Nat").unwrap();
        let z = sig.func_by_name("Z").unwrap();
        let s = sig.func_by_name("S").unwrap();
        let mut d = Dfta::new();
        let a = d.add_state(nat);
        let b = d.add_state(nat);
        let c = d.add_state(nat);
        d.add_transition(z, vec![], a);
        d.add_transition(s, vec![a], b);
        d.add_transition(s, vec![b], c);
        d.add_transition(s, vec![c], c);
        Lang::new("ZeroOrOne", sig, d, [a, b])
    }

    #[test]
    fn store_routed_cubes_agree_and_memoize_joint_products() {
        use ringen_automata::AutStore;
        let (sig, nat, z, s) = nat_signature();
        let mut store = AutStore::new();
        let even = {
            let mut d = Dfta::new();
            let s0 = d.add_state(nat);
            let s1 = d.add_state(nat);
            d.add_transition(z, vec![], s0);
            d.add_transition(s, vec![s0], s1);
            d.add_transition(s, vec![s1], s0);
            Lang::new_in("Even", &sig, d, [s0], &mut store)
        };
        let mult3 = {
            let mut d = Dfta::new();
            let m: Vec<StateId> = (0..3).map(|_| d.add_state(nat)).collect();
            d.add_transition(z, vec![], m[0]);
            for i in 0..3 {
                d.add_transition(s, vec![m[i]], m[(i + 1) % 3]);
            }
            Lang::new_in("Mult3", &sig, d, [m[0]], &mut store)
        };
        assert_ne!(even.key(), mult3.key());
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::member(Term::var(x), mult3.clone()),
            RegLiteral::member(Term::var(y), even.clone()),
            RegLiteral::Neq(Term::var(x), Term::var(y)),
        ];
        let budget = DpBudget::default();
        let plain = check_cube(&sig, &vars, &cube, &budget);
        let routed = check_cube_in(&sig, &vars, &cube, &budget, &mut store);
        assert_eq!(plain, routed, "store routing must not change verdicts");
        assert_eq!(routed, RegCubeSat::Maybe, "x ∈ Even ∩ Mult3 is realizable");
        // A repeated check — the solver-loop shape — answers the joint
        // product and counting fixpoints from the memo.
        let after_cold = store.stats();
        let warm = check_cube_in(&sig, &vars, &cube, &budget, &mut store);
        assert_eq!(warm, routed);
        let after_warm = store.stats();
        assert_eq!(after_warm.memo_misses, after_cold.memo_misses);
        assert!(after_warm.memo_hits >= after_cold.memo_hits + 2);
    }

    #[test]
    fn store_backed_identity_strengthens_state_propagation() {
        use ringen_automata::AutStore;
        // Even and Odd built separately over the *same* parity table:
        // the store gives them one structural identity, so layer 3
        // already intersects their allowed-state sets (the plain path
        // needs the layer-4 joint product for the same verdict).
        let (sig, nat, z, s) = nat_signature();
        let mut store = AutStore::new();
        let parity = |finals: usize, store: &mut AutStore| {
            let mut d = Dfta::new();
            let s0 = d.add_state(nat);
            let s1 = d.add_state(nat);
            d.add_transition(z, vec![], s0);
            d.add_transition(s, vec![s0], s1);
            d.add_transition(s, vec![s1], s0);
            let f = if finals == 0 { s0 } else { s1 };
            Lang::new_in(format!("P{finals}"), &sig, d, [f], store)
        };
        let even = parity(0, &mut store);
        let odd = parity(1, &mut store);
        assert_eq!(
            even.key(),
            odd.key(),
            "structurally equal tables share one identity"
        );
        assert_eq!(store.stats().dedup_hits, 1, "second table deduped");
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even),
            RegLiteral::member(Term::var(x), odd),
        ];
        assert_eq!(
            check_cube_in(&sig, &vars, &cube, &DpBudget::default(), &mut store),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn pigeonhole_refutes_disequal_singletons() {
        let (sig, nat, ..) = nat_signature();
        let only_z = only_z_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), only_z.clone()),
            RegLiteral::member(Term::var(y), only_z),
            RegLiteral::Neq(Term::var(x), Term::var(y)),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }

    #[test]
    fn pigeonhole_spares_infinite_languages() {
        let (sig, nat, ..) = nat_signature();
        let even = even_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let cube = vec![
            RegLiteral::member(Term::var(x), even.clone()),
            RegLiteral::member(Term::var(y), even),
            RegLiteral::Neq(Term::var(x), Term::var(y)),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Maybe,
            "two distinct evens exist"
        );
    }

    #[test]
    fn pigeonhole_counts_cliques() {
        let (sig, nat, ..) = nat_signature();
        let two = zero_or_one_lang(&sig);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let z = vars.fresh("z", nat);
        let member = |v| RegLiteral::member(Term::var(v), two.clone());
        let neq = |a, b| RegLiteral::Neq(Term::var(a), Term::var(b));
        // Three pairwise-distinct variables in a two-term language.
        let cube = vec![
            member(x),
            member(y),
            member(z),
            neq(x, y),
            neq(y, z),
            neq(x, z),
        ];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
        // Dropping one edge leaves room: x = z is permitted.
        let cube = vec![member(x), member(y), member(z), neq(x, y), neq(y, z)];
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Maybe
        );
    }

    #[test]
    fn repeated_variable_in_one_literal() {
        // node(x, x) ∈ OnlyLeafPairs where the language accepts only
        // node(leaf, node(…)) shapes — no single x fits both positions.
        let (sig, tree, leaf, node) = tree_signature();
        let mut d = Dfta::new();
        let ql = d.add_state(tree); // leaf only
        let qn = d.add_state(tree); // node only
        let qf = d.add_state(tree); // the accepted shape
        d.add_transition(leaf, vec![], ql);
        d.add_transition(node, vec![ql, qn], qf);
        d.add_transition(node, vec![ql, ql], qn);
        let lang = Lang::new("Shape", &sig, d, [qf]);
        let mut vars = VarContext::new();
        let x = vars.fresh("x", tree);
        let cube = vec![RegLiteral::member(
            Term::app(node, vec![Term::var(x), Term::var(x)]),
            lang,
        )];
        // x would have to be both a leaf (state ql) and a node (state
        // qn) — the shared-state enumeration rules that out.
        assert_eq!(
            check_cube(&sig, &vars, &cube, &DpBudget::default()),
            RegCubeSat::Unsat
        );
    }
}
