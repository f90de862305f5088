//! The end-to-end RInGen solver (Figure 1).
//!
//! [`solve_guarded`] orchestrates: a quick bottom-up refutation attempt
//! (UNSAT with a certificate, replayed before it answers), then the §4
//! preprocessing pipeline and the finite-model search (SAT with a
//! regular invariant, re-verified inductive by the decidable check of
//! [`crate::inductive`]). Every budget is a deterministic step count.

use ringen_automata::AutStore;
use ringen_chc::ChcSystem;
use ringen_fmf::{find_model_guarded, FinderConfig, FinderStats, FmfOutcome};
use ringen_parallel::Guard;

use crate::inductive::{check_inductive_guarded, InductiveCheck};
use crate::invariant::RegularInvariant;
use crate::portfolio::{refute, EngineVerdict};
use crate::preprocess::{preprocess, PreprocessStats, Preprocessed};
use crate::saturation::{Refutation, SaturationConfig, SaturationStats};

/// Tuning knobs for [`solve_guarded`].
#[derive(Debug, Clone)]
pub struct RingenConfig {
    /// Finite-model search budgets.
    pub finder: FinderConfig,
    /// Refuter budgets.
    pub saturation: SaturationConfig,
    /// Re-check SAT invariants with the independent inductiveness
    /// checker (cheap; on by default). UNSAT refutations are always
    /// replayed ([`refute`]).
    pub verify_invariants: bool,
}

impl Default for RingenConfig {
    fn default() -> Self {
        RingenConfig {
            finder: FinderConfig::default(),
            saturation: SaturationConfig::default(),
            verify_invariants: true,
        }
    }
}

impl RingenConfig {
    /// A small-budget configuration for batch benchmarking: the solver
    /// answers quickly or reports divergence.
    pub fn quick() -> Self {
        RingenConfig {
            finder: FinderConfig {
                max_total_size: 8,
                max_conflicts: 20_000,
                max_ground_instances: 400_000,
                ..FinderConfig::default()
            },
            saturation: SaturationConfig {
                max_facts: 4_000,
                max_rounds: 32,
                max_term_height: 16,
                free_var_candidates: 6,
                max_steps: 400_000,
                ..SaturationConfig::default()
            },
            ..RingenConfig::default()
        }
    }
}

/// A successful SAT answer: the finite model and the regular invariant
/// it induces (Theorem 1), plus the preprocessed system the invariant
/// was verified against.
#[derive(Debug, Clone)]
pub struct SatAnswer {
    /// The regular inductive invariant over all predicates (original and
    /// auxiliary).
    pub invariant: RegularInvariant,
    /// The finite model the invariant was read off.
    pub model: ringen_fmf::FiniteModel,
    /// The constraint-free system of Figure 1.
    pub preprocessed: Preprocessed,
}

/// Why the solver gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Model search exhausted its size/conflict budgets. The system may
    /// still have a larger finite model, or only infinite ones (finite
    /// model existence is semidecidable, §9).
    ModelSearchExhausted,
    /// The input could not be reduced to EUF (internal error; the
    /// preprocessing pipeline should prevent this).
    NotReducible(String),
}

/// The solver's verdict.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Satisfiable: the program is safe; here is a regular invariant.
    Sat(Box<SatAnswer>),
    /// Unsatisfiable: here is a ground derivation of ⊥.
    Unsat(Refutation),
    /// Budgets exhausted (the paper's "timeout").
    Unknown(Divergence),
    /// The run was cancelled by its [`Guard`] (deadline or explicit
    /// cancel) before reaching a verdict. [`SolveStats`] still carries
    /// the partial statistics of the phases that ran.
    Interrupted,
}

impl Answer {
    /// `true` for [`Answer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Answer::Sat(_))
    }

    /// `true` for [`Answer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Answer::Unsat(_))
    }

    /// `true` for [`Answer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Answer::Unknown(_))
    }

    /// `true` for [`Answer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, Answer::Interrupted)
    }
}

/// Cost accounting for a [`solve_guarded`] run.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Preprocessing statistics.
    pub preprocess: Option<PreprocessStats>,
    /// Refuter statistics.
    pub saturation: Option<SaturationStats>,
    /// Model-finder statistics.
    pub finder: Option<FinderStats>,
    /// Sum of sort cardinalities of the found model (Figure 6's x-axis).
    pub model_size: Option<usize>,
}

/// Solves a CHC system over ADTs: SAT with a regular invariant, UNSAT
/// with a refutation, or Unknown when budgets run out.
///
/// The invariant verification routes through the caller-owned
/// [`AutStore`]'s memo tables, so an outer loop — a portfolio, a CEGAR
/// loop, the CLI solving one file — pays each automaton fixpoint once
/// across all its calls.
///
/// The guard is threaded into every long-running phase (refuter rounds,
/// SAT search, automaton fixpoints, inductiveness sweep). A trip —
/// deadline or explicit [`Guard::cancel`] — yields
/// [`Answer::Interrupted`] with the statistics of the completed work;
/// the shared `store` and term pool are left consistent, so a later call
/// may resume against them.
///
/// # Panics
///
/// Panics if `sys` is not well-sorted, if a verified invariant fails its
/// own inductiveness check, or if a refutation fails to replay — all
/// three indicate bugs, not user errors.
pub fn solve_guarded(
    sys: &ChcSystem,
    cfg: &RingenConfig,
    store: &mut AutStore,
    guard: &Guard,
) -> (Answer, SolveStats) {
    if let Err(e) = sys.well_sorted() {
        panic!("input system is not well-sorted: {e}");
    }
    let rec = guard.recorder().clone();
    // Lift the store's cache accounting into the counter registry as a
    // delta: a shared store may arrive warm from an earlier solve.
    let store_before = store.stats();
    let (answer, stats) = solve_phases(sys, cfg, store, guard);
    let after = store.stats();
    rec.add(
        "aut.dedup_hits",
        after.dedup_hits.wrapping_sub(store_before.dedup_hits) as i64,
    );
    rec.add(
        "aut.memo_hits",
        after.memo_hits.wrapping_sub(store_before.memo_hits) as i64,
    );
    rec.add(
        "aut.memo_misses",
        after.memo_misses.wrapping_sub(store_before.memo_misses) as i64,
    );
    (answer, stats)
}

fn solve_phases(
    sys: &ChcSystem,
    cfg: &RingenConfig,
    store: &mut AutStore,
    guard: &Guard,
) -> (Answer, SolveStats) {
    let rec = guard.recorder().clone();
    let mut stats = SolveStats::default();

    // Phase 1: cheap refutation attempt on the original clauses,
    // replayed before it answers UNSAT.
    let (verdict, refutation, sat_stats) = refute(sys, &cfg.saturation, guard);
    stats.saturation = Some(sat_stats);
    if let Some(r) = refutation {
        return (Answer::Unsat(r), stats);
    }
    if verdict == EngineVerdict::Interrupted {
        return (Answer::Interrupted, stats);
    }

    // Phase 2: Figure 1 pipeline + finite-model search.
    let pre = {
        let mut span = rec.span("preprocess");
        let pre = preprocess(sys);
        span.note("clauses_in", pre.stats.clauses_in as i64);
        span.note("clauses_out", pre.stats.clauses_out as i64);
        span.note("tester_preds", pre.stats.tester_preds as i64);
        span.note("diseq_preds", pre.stats.diseq_preds as i64);
        pre
    };
    stats.preprocess = Some(pre.stats.clone());
    let (outcome, fstats) = match find_model_guarded(&pre.skolemized, &cfg.finder, guard) {
        Ok(pair) => pair,
        Err(e) => {
            return (
                Answer::Unknown(Divergence::NotReducible(e.to_string())),
                stats,
            )
        }
    };
    stats.finder = Some(fstats);
    match outcome {
        FmfOutcome::Model(model) => {
            stats.model_size = Some(model.size());
            rec.gauge("model_size", model.size() as i64);
            let invariant = RegularInvariant::from_model(&pre.system, &model);
            if cfg.verify_invariants {
                let mut span = rec.span("inductive_check");
                match check_inductive_guarded(&pre.system, &invariant, store, guard) {
                    InductiveCheck::Inductive => span.note_str("outcome", "inductive"),
                    InductiveCheck::Interrupted => {
                        span.note_str("outcome", "interrupted");
                        return (Answer::Interrupted, stats);
                    }
                    InductiveCheck::Violated(v)
                        if sys.clauses.iter().any(|c| !c.exist_vars.is_empty()) =>
                    {
                        // A Skolem witness landed on an unreachable domain
                        // element, so the finite model does not induce a
                        // Herbrand model of the ∀∃ query (see
                        // `preprocess::skolemize`). Honest answer: unknown.
                        let _ = v;
                        span.note_str("outcome", "skolem_miss");
                        return (Answer::Unknown(Divergence::ModelSearchExhausted), stats);
                    }
                    other => panic!("model-derived invariant failed verification: {other:?}"),
                }
            }
            (
                Answer::Sat(Box::new(SatAnswer {
                    invariant,
                    model,
                    preprocessed: pre,
                })),
                stats,
            )
        }
        FmfOutcome::Exhausted => (Answer::Unknown(Divergence::ModelSearchExhausted), stats),
        FmfOutcome::Interrupted => (Answer::Interrupted, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;
    use ringen_terms::GroundTerm;

    #[test]
    fn even_is_sat_with_two_state_invariant() {
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
        assert_eq!(stats.model_size, Some(2));
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        assert!(sat
            .invariant
            .holds(even, &[GroundTerm::iterate(s, GroundTerm::leaf(z), 8)]));
        assert!(!sat
            .invariant
            .holds(even, &[GroundTerm::iterate(s, GroundTerm::leaf(z), 7)]));
    }

    #[test]
    fn unsat_diseq_query_is_refuted() {
        // Example 3: Z ≠ S(Z) → ⊥ is unsatisfiable over ADTs.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (assert (=> (distinct Z (S Z)) false))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_guarded(
            &sys,
            &RingenConfig::default(),
            &mut AutStore::new(),
            &Guard::new(),
        );
        assert!(answer.is_unsat(), "got {answer:?}");
    }

    #[test]
    fn quick_config_diverges_on_hard_instances_gracefully() {
        // eq/diseq over Nat: the Diag system has no regular invariant, so
        // model search must exhaust and report Unknown rather than hang.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun eq (Nat Nat) Bool)
            (declare-fun diseq (Nat Nat) Bool)
            (assert (forall ((x Nat)) (eq x x)))
            (assert (forall ((x Nat)) (diseq (S x) Z)))
            (assert (forall ((y Nat)) (diseq Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (diseq x y) (diseq (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (eq x y) (diseq x y)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_guarded(
            &sys,
            &RingenConfig::quick(),
            &mut AutStore::new(),
            &Guard::new(),
        );
        assert!(answer.is_unknown(), "Diag must diverge, got {answer:?}");
    }

    #[test]
    fn cancelled_solve_interrupts_and_leaves_the_store_reusable() {
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
        let mut store = AutStore::new();
        // A tripped guard interrupts before any phase runs to completion.
        let g = Guard::new();
        g.cancel();
        let (answer, _) = solve_guarded(&sys, &RingenConfig::default(), &mut store, &g);
        assert!(answer.is_interrupted(), "got {answer:?}");
        // A fuel guard trips mid-run; the answer is still Interrupted and
        // the stats reflect partial work.
        let g = Guard::with_fuel(2);
        let (answer, stats) = solve_guarded(&sys, &RingenConfig::default(), &mut store, &g);
        assert!(answer.is_interrupted(), "got {answer:?}");
        assert!(stats.saturation.is_some());
        // The same store then serves an uncancelled solve normally.
        let (answer, _) = solve_guarded(&sys, &RingenConfig::default(), &mut store, &Guard::new());
        assert!(answer.is_sat(), "got {answer:?}");
    }
}
