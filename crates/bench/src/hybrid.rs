//! The hybrid portfolio — §8's concluding conjecture, executed.
//!
//! > "In the future, however, a hybrid approach to infer invariants in
//! > parts by automata and in parts by FOL should exhibit the best
//! > performance."
//!
//! [`run_hybrid`] chains the competing engines in decreasing
//! cost-effectiveness order (the ordering the Figure 4/5 scatter
//! justifies): regular invariants by finite-model finding first, then
//! elementary templates, then size templates, and finally the
//! genuinely combined template-plus-membership search of
//! `ringen-regelem`, which no single-class engine subsumes. Every
//! phase keeps its Table 1 budget, so the portfolio's cost is the
//! honest sum of its parts.

use ringen_automata::AutStore;
use ringen_chc::ChcSystem;
use ringen_core::{Answer, Guard, RingenConfig};
use ringen_elem::{ElemAnswer, ElemConfig};
use ringen_regelem::{
    solve_regelem_guarded, DpBudget, LangPoolConfig, RegElemAnswer, RegElemConfig, RegElemInvariant,
};
use ringen_sizeelem::{SizeElemAnswer, SizeElemConfig};

use crate::{RunAnswer, SolverKind};

/// Which phase of the portfolio produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HybridEngine {
    /// Finite-model finding (the RInGen profile).
    Regular,
    /// Elementary templates (the Spacer profile).
    Elementary,
    /// Size templates (the Eldarica profile).
    Size,
    /// The combined `RegElem` phase.
    Combined,
}

impl HybridEngine {
    /// Display name for tabulation.
    pub fn name(self) -> &'static str {
        match self {
            HybridEngine::Regular => "Reg",
            HybridEngine::Elementary => "Elem",
            HybridEngine::Size => "SizeElem",
            HybridEngine::Combined => "RegElem",
        }
    }
}

/// Outcome of a portfolio run: the verdict, the deciding phase (for
/// SAT/UNSAT) and the certified invariant when the combined phase
/// produced one.
#[derive(Debug)]
pub struct HybridOutcome {
    /// The verdict.
    pub answer: RunAnswer,
    /// The phase that decided, `None` on divergence.
    pub engine: Option<HybridEngine>,
    /// The combined-phase invariant, when that phase decided SAT.
    pub invariant: Option<RegElemInvariant>,
}

/// The combined-phase budgets used by the portfolio (the regular and
/// elementary phases run separately with their Table 1 budgets, so the
/// `RegElem` solver is configured for its third phase only).
pub fn combined_config(kind: SolverKind) -> RegElemConfig {
    RegElemConfig {
        saturation: kind.saturation(),
        regular: None,
        elementary: None,
        langs: LangPoolConfig::default(),
        combine_prefix: 24,
        max_assignments: 20_000,
        dnf_cap: 64,
        dp_budget: DpBudget::default(),
        ..RegElemConfig::quick()
    }
}

/// Runs the four-phase portfolio on one system.
pub fn run_hybrid(sys: &ChcSystem) -> HybridOutcome {
    // Budgets, not wall time, bound every phase: the guard never trips.
    let guard = Guard::new();
    // Phase 1: regular invariants (the paper's tool).
    let cfg = RingenConfig {
        finder: crate::finder_config(),
        saturation: SolverKind::RInGen.saturation(),
        verify_invariants: true,
    };
    let (answer, _) = ringen_core::solve_guarded(sys, &cfg, &mut AutStore::new(), &guard);
    match answer {
        Answer::Sat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Sat,
                engine: Some(HybridEngine::Regular),
                invariant: None,
            }
        }
        Answer::Unsat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Unsat,
                engine: Some(HybridEngine::Regular),
                invariant: None,
            }
        }
        // Interrupted is unreachable: the guard is never armed.
        Answer::Unknown(_) | Answer::Interrupted => {}
    }

    // Phase 2: elementary templates.
    let cfg = ElemConfig {
        saturation: SolverKind::Spacer.saturation(),
        max_assignments: crate::TEMPLATE_ASSIGNMENTS,
        ..ElemConfig::quick()
    };
    let (answer, _) = ringen_elem::solve_elem_guarded(sys, &cfg, &guard);
    match answer {
        ElemAnswer::Sat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Sat,
                engine: Some(HybridEngine::Elementary),
                invariant: None,
            }
        }
        ElemAnswer::Unsat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Unsat,
                engine: Some(HybridEngine::Elementary),
                invariant: None,
            }
        }
        ElemAnswer::Unknown | ElemAnswer::Interrupted => {}
    }

    // Phase 3: size templates.
    let cfg = SizeElemConfig {
        saturation: SolverKind::Eldarica.saturation(),
        max_assignments: crate::TEMPLATE_ASSIGNMENTS,
        ..SizeElemConfig::quick()
    };
    let (answer, _) = ringen_sizeelem::solve_size_elem_guarded(sys, &cfg, &guard);
    match answer {
        SizeElemAnswer::Sat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Sat,
                engine: Some(HybridEngine::Size),
                invariant: None,
            }
        }
        SizeElemAnswer::Unsat(_) => {
            return HybridOutcome {
                answer: RunAnswer::Unsat,
                engine: Some(HybridEngine::Size),
                invariant: None,
            }
        }
        SizeElemAnswer::Unknown | SizeElemAnswer::Interrupted => {}
    }

    // Phase 4: the combined template-plus-membership search.
    let (answer, _) = solve_regelem_guarded(sys, &combined_config(SolverKind::RInGen), &guard);
    match answer {
        RegElemAnswer::Sat(inv, _) => HybridOutcome {
            answer: RunAnswer::Sat,
            engine: Some(HybridEngine::Combined),
            invariant: Some(*inv),
        },
        RegElemAnswer::Unsat(_) => HybridOutcome {
            answer: RunAnswer::Unsat,
            engine: Some(HybridEngine::Combined),
            invariant: None,
        },
        RegElemAnswer::Unknown | RegElemAnswer::Interrupted => HybridOutcome {
            answer: RunAnswer::Unknown,
            engine: None,
            invariant: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_benchgen::programs;

    /// The §8 conjecture, executed: the portfolio solves the union of
    /// what the single-class engines solve — every Figure 3 program —
    /// plus `EvenDiag` (diagonal ∧ parity), which neither `Reg` nor
    /// `Elem` can express. `EvenDiag` may fall to the size phase
    /// (`x = y ∧ size parity` is a `SizeElem` invariant, cf. Prop. 8)
    /// or to the combined phase; both are correct attributions.
    #[test]
    fn hybrid_solves_the_union_and_more() {
        let cases = [
            ("Even", programs::even(), vec![HybridEngine::Regular]),
            ("IncDec", programs::inc_dec(), vec![HybridEngine::Regular]),
            (
                "EvenLeft",
                programs::even_left(),
                vec![HybridEngine::Regular],
            ),
            ("Diag", programs::diag(), vec![HybridEngine::Elementary]),
            ("LtGt", programs::lt_gt(), vec![HybridEngine::Size]),
            (
                "EvenDiag",
                programs::even_diag(),
                vec![HybridEngine::Size, HybridEngine::Combined],
            ),
        ];
        for (name, sys, want_engines) in cases {
            let outcome = run_hybrid(&sys);
            assert_eq!(outcome.answer, RunAnswer::Sat, "{name}");
            let engine = outcome.engine.expect(name);
            assert!(
                want_engines.contains(&engine),
                "{name}: got {engine:?}, wanted one of {want_engines:?}"
            );
        }
    }

    #[test]
    fn hybrid_refutes_unsafe_systems() {
        let sys = ringen_chc::parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (assert (=> (distinct Z (S Z)) false))
            "#,
        )
        .unwrap();
        let outcome = run_hybrid(&sys);
        assert_eq!(outcome.answer, RunAnswer::Unsat);
        assert_eq!(outcome.engine, Some(HybridEngine::Regular));
    }
}
