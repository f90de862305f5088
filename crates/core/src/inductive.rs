//! Decidable inductiveness checking for regular invariants.
//!
//! For a *constraint-free* system (the output of
//! [`crate::preprocess::preprocess`]) and a [`RegularInvariant`], clause
//! validity is decidable: a deterministic complete automaton maps every
//! ground term to exactly one state, so a clause `R₁(t̄₁) ∧ … → H` is
//! violated iff some assignment of *reachable* states to its variables
//! makes every body tuple final and the head tuple non-final. Reachable
//! states all have ground witnesses, which turns any violating state
//! assignment into a concrete ground counterexample.
//!
//! This check independently validates every SAT answer the solver
//! produces — Theorem 5 is not trusted, it is re-verified.
//!
//! # The bulk evaluation side table
//!
//! The inner loop sweeps the full product of reachable-state
//! assignments and evaluates every atom argument term under each — a
//! term walk per (term, assignment) pair, although a term typically
//! mentions a strict subset of the clause's variables and therefore
//! takes only a handful of distinct values across the whole sweep.
//! Each clause's distinct argument terms are deduplicated into dense
//! **slots** (the clause-local analogue of pool `TermId`s), and
//! evaluations land in one dense 2-D side table indexed by
//! `(slot, packed assignment of the slot's own variables)` — a direct
//! array walk on the sweep's hot path, with no hashing and no repeated
//! term traversal. This closes the ROADMAP's "pool-wide bulk
//! operations" item for the inductiveness check.

use std::collections::{BTreeMap, BTreeSet};

use ringen_automata::{AutStore, Dfta, StateId};
use ringen_chc::{Atom, ChcSystem, Clause};
use ringen_parallel::{Guard, Poller};
use ringen_terms::{GroundTerm, Term, VarId};

use crate::invariant::RegularInvariant;

/// Outcome of [`check_inductive_guarded`].
#[derive(Debug, Clone)]
pub enum InductiveCheck {
    /// Every clause is satisfied by the invariant.
    Inductive,
    /// Some clause is violated; the witness is a ground counterexample.
    Violated(Violation),
    /// The system is not constraint-free, so the state-level check does
    /// not apply (run preprocessing first).
    Unsupported(&'static str),
    /// The [`Guard`] tripped before the check finished; no verdict. The
    /// store's memo tables contain only complete fixpoints, so a retry
    /// on the same store is sound.
    Interrupted,
}

impl InductiveCheck {
    /// `true` iff the invariant was verified inductive.
    pub fn is_inductive(&self) -> bool {
        matches!(self, InductiveCheck::Inductive)
    }
}

/// A concrete clause violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the violated clause in [`ChcSystem::clauses`].
    pub clause: usize,
    /// A ground witness per clause variable.
    pub assignment: Vec<(VarId, GroundTerm)>,
}

/// Whether the state-level check applies at all — decided *before* any
/// fixpoint is run (or any table interned), so unsupported systems are
/// rejected for free.
fn unsupported(sys: &ChcSystem) -> Option<InductiveCheck> {
    sys.clauses
        .iter()
        .any(|c| !c.is_constraint_free())
        .then_some(InductiveCheck::Unsupported(
            "system has constraints; preprocess first",
        ))
}

/// Checks that `inv` satisfies every clause of `sys` (which must be
/// constraint-free). See the module docs for why this is exact.
///
/// The check runs through a hash-consed [`AutStore`]: the invariant's
/// shared transition table is interned (deduplicated against previously
/// checked candidates) and the reachability / witness fixpoints come
/// from the store's memo — re-verifying a candidate whose table a
/// previous solver iteration already analyzed costs one hash probe
/// instead of two worklist fixpoints.
///
/// The [`Guard`] is polled inside the store's worklist fixpoints and
/// between assignment sweeps; once it trips the check returns
/// [`InductiveCheck::Interrupted`] without memoizing any partial
/// fixpoint.
pub fn check_inductive_guarded(
    sys: &ChcSystem,
    inv: &RegularInvariant,
    store: &mut AutStore,
    guard: &Guard,
) -> InductiveCheck {
    if let Some(u) = unsupported(sys) {
        return u;
    }
    let id = store.intern_dfta(inv.dfta().clone());
    let Some(reachable) = store.reachable_guarded(id, guard) else {
        return InductiveCheck::Interrupted;
    };
    let Some(witnesses) = store.witnesses_guarded(id, guard) else {
        return InductiveCheck::Interrupted;
    };
    check_with_fixpoints(sys, inv, &reachable, &witnesses, guard)
}

fn check_with_fixpoints(
    sys: &ChcSystem,
    inv: &RegularInvariant,
    reachable: &BTreeSet<StateId>,
    witnesses: &[Option<GroundTerm>],
    guard: &Guard,
) -> InductiveCheck {
    debug_assert!(unsupported(sys).is_none(), "callers check first");
    let dfta = inv.dfta();
    // Reachable states per sort, in a stable order.
    let mut per_sort: BTreeMap<ringen_terms::SortId, Vec<StateId>> = BTreeMap::new();
    for s in dfta.states() {
        if reachable.contains(&s) {
            per_sort.entry(dfta.sort_of(s)).or_default().push(s);
        }
    }

    for (ci, clause) in sys.clauses.iter().enumerate() {
        match violated(inv, clause, &per_sort, witnesses, guard) {
            Sweep::Violated(v) => {
                return InductiveCheck::Violated(Violation {
                    clause: ci,
                    assignment: v,
                })
            }
            Sweep::Interrupted => return InductiveCheck::Interrupted,
            Sweep::Clean => {}
        }
    }
    InductiveCheck::Inductive
}

/// Outcome of one clause's assignment sweep.
enum Sweep {
    Clean,
    Violated(Vec<(VarId, GroundTerm)>),
    Interrupted,
}

/// Largest per-slot memo (packed assignments) the dense table will
/// hold; slots over more assignments than this fall back to direct
/// evaluation. The sweep itself is bounded by the same product, so in
/// practice the cap only guards degenerate many-variable clauses.
const MAX_SLOT_TABLE: usize = 1 << 16;

/// One distinct argument term of a clause, compiled for the sweep: the
/// variables it actually mentions, with the mixed-radix stride of each
/// in the slot's packed assignment index.
struct SlotInfo<'a> {
    term: &'a Term,
    /// `(variable, stride)` — packed index = Σ digit(v) · stride.
    vars: Vec<(VarId, usize)>,
}

/// The clause's evaluation engine: argument terms deduplicated into
/// dense slots, results memoized in one 2-D `tables[slot][packed]`
/// side table (`None` = not evaluated yet; the inner `Option` is the
/// automaton's own partiality). A term mentioning few of the clause's
/// variables takes few distinct values across the sweep, so the hot
/// path is an array load instead of a term walk.
struct ClauseEval<'a> {
    clause: &'a Clause,
    dfta: &'a Dfta,
    slots: Vec<SlotInfo<'a>>,
    /// Per body atom: the slot of each argument.
    body: Vec<Vec<usize>>,
    /// Head argument slots, if the clause has a head.
    head: Option<Vec<usize>>,
    tables: Vec<Vec<Option<Option<StateId>>>>,
}

impl<'a> ClauseEval<'a> {
    fn new(
        clause: &'a Clause,
        dfta: &'a Dfta,
        per_sort: &BTreeMap<ringen_terms::SortId, Vec<StateId>>,
    ) -> ClauseEval<'a> {
        let mut slots: Vec<SlotInfo<'a>> = Vec::new();
        let mut tables: Vec<Vec<Option<Option<StateId>>>> = Vec::new();
        let mut slot_of: BTreeMap<&'a Term, usize> = BTreeMap::new();
        let mut compile_atom = |atom: &'a Atom| -> Vec<usize> {
            atom.args
                .iter()
                .map(|t| {
                    *slot_of.entry(t).or_insert_with(|| {
                        let mut vars: Vec<VarId> = t.vars();
                        vars.sort_unstable();
                        vars.dedup();
                        // Digit range of a variable = its sort's
                        // reachable-state count; strides are the
                        // running product.
                        let mut strided = Vec::with_capacity(vars.len());
                        let mut size = 1usize;
                        for v in vars {
                            let sort = clause.vars.sort(v).expect("var in context");
                            let range = per_sort.get(&sort).map(Vec::len).unwrap_or(0);
                            strided.push((v, size));
                            size = size.saturating_mul(range);
                        }
                        slots.push(SlotInfo {
                            term: t,
                            vars: strided,
                        });
                        // `size == 0` (a variable with no reachable
                        // state) never reaches evaluation: the sweep
                        // over that variable is empty.
                        tables.push(if size > 0 && size <= MAX_SLOT_TABLE {
                            vec![None; size]
                        } else {
                            Vec::new()
                        });
                        slots.len() - 1
                    })
                })
                .collect()
        };
        let body = clause.body.iter().map(&mut compile_atom).collect();
        let head = clause.head.as_ref().map(&mut compile_atom);
        ClauseEval {
            clause,
            dfta,
            slots,
            body,
            head,
            tables,
        }
    }

    /// The state of one slot under the current assignment: a direct
    /// 2-D array probe, falling back to one compositional evaluation
    /// per *distinct* sub-assignment of the slot's variables.
    fn eval_slot(
        &mut self,
        slot: usize,
        pos: &BTreeMap<VarId, usize>,
        env: &BTreeMap<VarId, StateId>,
    ) -> Option<StateId> {
        let info = &self.slots[slot];
        let table = &mut self.tables[slot];
        if table.is_empty() {
            return self.dfta.eval(info.term, env);
        }
        let packed: usize = info.vars.iter().map(|&(v, stride)| pos[&v] * stride).sum();
        if let Some(hit) = table[packed] {
            return hit;
        }
        let r = self.dfta.eval(info.term, env);
        table[packed] = Some(r);
        r
    }

    /// The state tuple of body atom `ai`, or `None` if any argument
    /// has no run (a foreign symbol; the atom is then false). Slot ids
    /// are read back by index so the sweep's hot path allocates only
    /// the returned tuple.
    fn body_tuple(
        &mut self,
        ai: usize,
        pos: &BTreeMap<VarId, usize>,
        env: &BTreeMap<VarId, StateId>,
    ) -> Option<Vec<StateId>> {
        (0..self.body[ai].len())
            .map(|j| {
                let slot = self.body[ai][j];
                self.eval_slot(slot, pos, env)
            })
            .collect()
    }

    /// The state tuple of the head atom ([`ClauseEval::body_tuple`]'s
    /// head counterpart); the clause must have a head.
    fn head_tuple(
        &mut self,
        pos: &BTreeMap<VarId, usize>,
        env: &BTreeMap<VarId, StateId>,
    ) -> Option<Vec<StateId>> {
        (0..self.head.as_ref().expect("clause has a head").len())
            .map(|j| {
                let slot = self.head.as_ref().expect("clause has a head")[j];
                self.eval_slot(slot, pos, env)
            })
            .collect()
    }
}

fn violated(
    inv: &RegularInvariant,
    clause: &Clause,
    per_sort: &BTreeMap<ringen_terms::SortId, Vec<StateId>>,
    witnesses: &[Option<GroundTerm>],
    guard: &Guard,
) -> Sweep {
    let universals: Vec<VarId> = clause
        .vars
        .vars()
        .filter(|v| !clause.exist_vars.contains(v))
        .collect();
    let mut u_choices: Vec<&[StateId]> = Vec::with_capacity(universals.len());
    for &v in &universals {
        let sort = clause.vars.sort(v).expect("var in context");
        match per_sort.get(&sort) {
            // A sort with no reachable state has no ground terms in the
            // automaton's world; the clause is vacuously satisfied.
            None => return Sweep::Clean,
            Some(states) => u_choices.push(states),
        }
    }
    let mut e_choices: Vec<&[StateId]> = Vec::with_capacity(clause.exist_vars.len());
    for &v in &clause.exist_vars {
        let sort = clause.vars.sort(v).expect("var in context");
        // A sort with no reachable state makes the ∃ unsatisfiable, which
        // is an empty choice list below.
        e_choices.push(per_sort.get(&sort).map(Vec::as_slice).unwrap_or(&[]));
    }

    let mut eval = ClauseEval::new(clause, inv.dfta(), per_sort);
    let mut poller = Poller::new(guard);
    let mut idx = vec![0usize; universals.len()];
    loop {
        if poller.poll() {
            return Sweep::Interrupted;
        }
        let mut env: BTreeMap<VarId, StateId> = universals
            .iter()
            .zip(&idx)
            .zip(&u_choices)
            .map(|((&v, &i), states)| (v, states[i]))
            .collect();
        let mut pos: BTreeMap<VarId, usize> =
            universals.iter().zip(&idx).map(|(&v, &i)| (v, i)).collect();
        // ∀∃ semantics: the clause is violated at this universal
        // assignment iff NO existential assignment satisfies the matrix
        // (equivalently: every existential choice gives body ∧ ¬head).
        let violated_here = !exists_satisfying(
            inv,
            &mut eval,
            &clause.exist_vars,
            &e_choices,
            0,
            &mut env,
            &mut pos,
        );
        if violated_here {
            let assignment = universals
                .iter()
                .map(|&v| {
                    let s = env[&v];
                    let w = witnesses[s.index()]
                        .clone()
                        .expect("reachable state has a witness");
                    (v, w)
                })
                .collect();
            return Sweep::Violated(assignment);
        }
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == universals.len() {
                return Sweep::Clean;
            }
            idx[k] += 1;
            if idx[k] < u_choices[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Whether some assignment of the existential variables makes the clause
/// matrix `B → H` true under `env`. With no existential variables this
/// degenerates to a single matrix evaluation.
#[allow(clippy::too_many_arguments)]
fn exists_satisfying(
    inv: &RegularInvariant,
    eval: &mut ClauseEval<'_>,
    exist: &[VarId],
    e_choices: &[&[StateId]],
    k: usize,
    env: &mut BTreeMap<VarId, StateId>,
    pos: &mut BTreeMap<VarId, usize>,
) -> bool {
    if k == exist.len() {
        return !body_holds(inv, eval, env, pos) || head_holds(inv, eval, env, pos);
    }
    let v = exist[k];
    for (i, &s) in e_choices[k].iter().enumerate() {
        env.insert(v, s);
        pos.insert(v, i);
        let ok = exists_satisfying(inv, eval, exist, e_choices, k + 1, env, pos);
        env.remove(&v);
        pos.remove(&v);
        if ok {
            return true;
        }
    }
    false
}

fn body_holds(
    inv: &RegularInvariant,
    eval: &mut ClauseEval<'_>,
    env: &BTreeMap<VarId, StateId>,
    pos: &BTreeMap<VarId, usize>,
) -> bool {
    (0..eval.body.len()).all(|ai| {
        let pred = eval.clause.body[ai].pred;
        match eval.body_tuple(ai, pos, env) {
            Some(tuple) => inv.finals(pred).contains(&tuple),
            // An undefined transition means the term denotes nothing the
            // automaton can reach; treat the atom as false (the model
            // automaton is total, so this only happens for foreign
            // symbols).
            None => false,
        }
    })
}

fn head_holds(
    inv: &RegularInvariant,
    eval: &mut ClauseEval<'_>,
    env: &BTreeMap<VarId, StateId>,
    pos: &BTreeMap<VarId, usize>,
) -> bool {
    let Some(atom) = &eval.clause.head else {
        return false;
    };
    let pred = atom.pred;
    match eval.head_tuple(pos, env) {
        Some(tuple) => inv.finals(pred).contains(&tuple),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use ringen_chc::parse_str;
    use ringen_fmf::{find_model_guarded, FinderConfig};

    #[test]
    fn even_invariant_is_inductive() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let pre = preprocess(&sys);
        let (outcome, _) =
            find_model_guarded(&pre.system, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().unwrap();
        let inv = RegularInvariant::from_model(&pre.system, &model);
        assert!(
            check_inductive_guarded(&pre.system, &inv, &mut AutStore::new(), &Guard::new())
                .is_inductive()
        );
    }

    #[test]
    fn corrupted_invariant_is_caught() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            "#,
        )
        .unwrap();
        let pre = preprocess(&sys);
        let (outcome, _) =
            find_model_guarded(&pre.system, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().unwrap();
        let mut inv = RegularInvariant::from_model(&pre.system, &model);
        // Empty the finals of `even`: the fact clause `→ even(Z)` must now
        // be reported violated.
        let even = sys.rels.by_name("even").unwrap();
        inv.finals_mut(even).clear();
        match check_inductive_guarded(&pre.system, &inv, &mut AutStore::new(), &Guard::new()) {
            InductiveCheck::Violated(v) => {
                // The violated clause derives even(Z) — no body needed.
                assert!(pre.system.clauses[v.clause].body.is_empty());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn store_backed_check_memoizes_the_fixpoints() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let pre = preprocess(&sys);
        let (outcome, _) =
            find_model_guarded(&pre.system, &FinderConfig::default(), &Guard::new()).unwrap();
        let inv = RegularInvariant::from_model(&pre.system, &outcome.model().unwrap());
        let mut store = AutStore::new();
        assert!(
            check_inductive_guarded(&pre.system, &inv, &mut store, &Guard::new()).is_inductive()
        );
        let after_cold = store.stats();
        assert_eq!(after_cold.memo_misses, 2, "reachable + witnesses computed");
        // Re-verifying the same candidate (the solver-loop shape) pays
        // two hash probes: the table dedups and both fixpoints hit.
        assert!(
            check_inductive_guarded(&pre.system, &inv, &mut store, &Guard::new()).is_inductive()
        );
        let after_warm = store.stats();
        assert_eq!(after_warm.memo_misses, after_cold.memo_misses);
        assert_eq!(after_warm.memo_hits, after_cold.memo_hits + 2);
        assert!(after_warm.dedup_hits >= 1);
    }

    #[test]
    fn slot_tables_agree_on_repeated_and_multivar_arguments() {
        // evenpair has 2-variable clauses whose argument terms repeat
        // (S(S(x)) twice) and mention different variable subsets — the
        // shapes the dense (slot, packed assignment) side table must
        // dedup and memoize without changing any verdict.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun evenpair (Nat Nat) Bool)
            (assert (evenpair Z Z))
            (assert (forall ((x Nat) (y Nat))
              (=> (evenpair x y) (evenpair (S (S x)) (S (S y))))))
            (assert (forall ((x Nat) (y Nat))
              (=> (and (evenpair x y) (evenpair (S (S x)) y)) (evenpair x y))))
            (assert (forall ((x Nat) (y Nat))
              (=> (and (evenpair x y) (evenpair (S x) (S y))) false)))
            "#,
        )
        .unwrap();
        let pre = preprocess(&sys);
        let (outcome, _) =
            find_model_guarded(&pre.system, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().expect("evenpair has a finite model");
        let inv = RegularInvariant::from_model(&pre.system, &model);
        assert!(
            check_inductive_guarded(&pre.system, &inv, &mut AutStore::new(), &Guard::new())
                .is_inductive()
        );
        // Corrupt the finals: the violation (and its witness) must
        // still be found through the memoized tables.
        let p = sys.rels.by_name("evenpair").unwrap();
        let mut bad = inv.clone();
        bad.finals_mut(p).clear();
        match check_inductive_guarded(&pre.system, &bad, &mut AutStore::new(), &Guard::new()) {
            InductiveCheck::Violated(v) => {
                assert!(pre.system.clauses[v.clause].body.is_empty());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn constrained_systems_are_rejected() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (forall ((x Nat)) (=> (= x Z) (p x))))
            "#,
        )
        .unwrap();
        let pre = preprocess(&sys);
        let (outcome, _) =
            find_model_guarded(&pre.system, &FinderConfig::default(), &Guard::new()).unwrap();
        let inv = RegularInvariant::from_model(&pre.system, &outcome.model().unwrap());
        assert!(matches!(
            check_inductive_guarded(&sys, &inv, &mut AutStore::new(), &Guard::new()),
            InductiveCheck::Unsupported(_)
        ));
    }
}
