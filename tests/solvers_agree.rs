//! Cross-solver consistency over suite samples: no solver may ever
//! contradict the ground truth or another solver, every RInGen SAT
//! carries a verified invariant, and template invariants must contain
//! the least model while excluding query violations.

use ringen::automata::AutStore;
use ringen::benchgen::{diseq_suite, positive_eq_suite, tip_suite, Expected};
use ringen::core::definability::LfpOracle;
use ringen::core::saturation::SaturationConfig;
use ringen::core::{solve_guarded, Answer, Guard, RingenConfig};
use ringen::elem::{solve_elem_guarded, ElemAnswer, ElemConfig};
use ringen::sizeelem::{solve_size_elem_guarded, SizeElemAnswer, SizeElemConfig};

fn sample() -> Vec<ringen::benchgen::Benchmark> {
    let mut out = Vec::new();
    out.extend(positive_eq_suite().into_iter().take(8));
    let diseq = diseq_suite();
    out.extend(diseq.iter().take(7).cloned());
    // Predicate-free and UNSAT: only a refuter or an exact check of the
    // empty assignment may decide it.
    out.push(
        diseq
            .iter()
            .find(|b| b.name == "diseq/example3")
            .unwrap()
            .clone(),
    );
    let tip = tip_suite();
    // A slice from each designed region, plus a deep refutation.
    for name in [
        "tip/reg-only-0",
        "tip/parity-0",
        "tip/order-0",
        "tip/diag-0",
        "tip/incdec-0",
        "tip/unsat-depth-2",
        "tip/unsat-depth-20",
        "tip/hard-0",
    ] {
        out.push(tip.iter().find(|b| b.name == name).unwrap().clone());
    }
    out
}

/// Every engine's verdict on `sys` under its quick budgets, with its
/// refuter budget replaced by `refuter` when given.
fn verdicts(
    sys: &ringen::chc::ChcSystem,
    refuter: Option<&SaturationConfig>,
) -> [(&'static str, bool, bool); 4] {
    use ringen::regelem::{solve_regelem_guarded, RegElemConfig};
    let mut core_cfg = RingenConfig::quick();
    let mut elem_cfg = ElemConfig::quick();
    let mut size_cfg = SizeElemConfig::quick();
    // The combined phase alone: the regular and elementary phases are
    // the ringen and elem columns.
    let mut regelem_cfg = RegElemConfig {
        regular: None,
        elementary: None,
        ..RegElemConfig::quick()
    };
    if let Some(refuter) = refuter {
        core_cfg.saturation = refuter.clone();
        elem_cfg.saturation = refuter.clone();
        size_cfg.saturation = refuter.clone();
        regelem_cfg.saturation = refuter.clone();
    }
    let (core_ans, _) = solve_guarded(sys, &core_cfg, &mut AutStore::new(), &Guard::new());
    let (elem_ans, _) = solve_elem_guarded(sys, &elem_cfg, &Guard::new());
    let (size_ans, _) = solve_size_elem_guarded(sys, &size_cfg, &Guard::new());
    let (regelem_ans, _) = solve_regelem_guarded(sys, &regelem_cfg, &Guard::new());
    [
        ("ringen", core_ans.is_sat(), core_ans.is_unsat()),
        ("elem", elem_ans.is_sat(), elem_ans.is_unsat()),
        ("sizeelem", size_ans.is_sat(), size_ans.is_unsat()),
        ("regelem", regelem_ans.is_sat(), regelem_ans.is_unsat()),
    ]
}

#[test]
fn no_solver_contradicts_ground_truth() {
    // Each engine runs with its own refuter in front and, on the UNSAT
    // systems, with a zero-round one, as it races beside the refute
    // entrant: an engine that assumes a refuter ran first fails the
    // second column. (Without a refuter no engine can claim UNSAT, so
    // the column cannot go wrong on a SAT system.)
    let zero = SaturationConfig::zero_rounds();
    for b in sample() {
        let columns = match b.expected {
            Expected::Sat => vec![("own refuter", None)],
            Expected::Unsat => vec![("own refuter", None), ("zero-round refuter", Some(&zero))],
        };
        for (column, refuter) in columns {
            for (who, sat, unsat) in verdicts(&b.system, refuter) {
                match b.expected {
                    Expected::Sat => {
                        assert!(!unsat, "{who} ({column}) refuted satisfiable {}", b.name)
                    }
                    Expected::Unsat => {
                        assert!(!sat, "{who} ({column}) proved unsatisfiable {}", b.name)
                    }
                }
            }
        }
    }
}

#[test]
fn template_invariants_contain_the_least_model() {
    // On SAT answers, the inferred invariant must contain every
    // saturation-derived fact (it over-approximates the least model) and
    // never make a query body true.
    let cfg = SaturationConfig {
        max_facts: 200,
        max_rounds: 12,
        max_term_height: 10,
        free_var_candidates: 4,
        max_steps: 50_000,
        ..SaturationConfig::default()
    };
    for b in sample() {
        if b.expected != Expected::Sat {
            continue;
        }
        let oracle = LfpOracle::new(&b.system, &cfg);
        if let (ElemAnswer::Sat(inv), _) =
            solve_elem_guarded(&b.system, &ElemConfig::quick(), &Guard::new())
        {
            for p in b.system.rels.iter() {
                for fact in oracle.members(p) {
                    assert!(
                        inv.holds(p, fact),
                        "elem invariant of {} misses a least-model fact",
                        b.name
                    );
                }
            }
        }
        if let (SizeElemAnswer::Sat(inv), _) =
            solve_size_elem_guarded(&b.system, &SizeElemConfig::quick(), &Guard::new())
        {
            for p in b.system.rels.iter() {
                for fact in oracle.members(p) {
                    assert!(
                        inv.holds(p, fact),
                        "sizeelem invariant of {} misses a least-model fact",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn regular_invariants_contain_the_least_model() {
    let cfg = SaturationConfig {
        max_facts: 200,
        max_rounds: 12,
        max_term_height: 10,
        free_var_candidates: 4,
        max_steps: 50_000,
        ..SaturationConfig::default()
    };
    for b in sample() {
        if b.expected != Expected::Sat {
            continue;
        }
        if let (Answer::Sat(sat), _) = solve_guarded(
            &b.system,
            &RingenConfig::quick(),
            &mut AutStore::new(),
            &Guard::new(),
        ) {
            let oracle = LfpOracle::new(&b.system, &cfg);
            for p in b.system.rels.iter() {
                for fact in oracle.members(p) {
                    assert!(
                        sat.invariant.holds(p, fact),
                        "regular invariant of {} misses a least-model fact",
                        b.name
                    );
                }
            }
        }
    }
}
