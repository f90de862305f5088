//! The hybrid-portfolio experiment (§8's concluding conjecture) and
//! the extended Figure 3: the `RegElem` column.
//!
//! Part 1 re-runs the Figure 3 definability table with two additions:
//! the `RegElem` portfolio column and the two new separation programs
//! (`EvenDiag`, `EvenLeftDiag`).
//!
//! Part 2 races the portfolio against every single-class engine on the
//! PositiveEq and Diseq suites: the portfolio must solve the union of
//! what its parts solve, at the cost of the sum of their budgets.

use std::time::Instant;

use ringen_bench::hybrid::{combined_config, run_hybrid, HybridEngine};
use ringen_bench::{run_solver, RunAnswer, SolverKind};
use ringen_benchgen::{diseq_suite, positive_eq_suite, programs, shapes, Expected};
use ringen_core::Guard;
use ringen_regelem::{solve_regelem_guarded, LangPoolConfig};

fn main() {
    part1_extended_fig3();
    part2_portfolio_race();
    part3_pool_ablation();
}

fn part1_extended_fig3() {
    println!("Figure 3 (extended): definability incl. the RegElem class\n");
    println!(
        "{:<14} {:>6} {:>9} {:>6} {:>9}   deciding phase",
        "program", "Elem", "SizeElem", "Reg", "RegElem"
    );
    let cases = [
        ("IncDec", programs::inc_dec()),
        ("Diag", programs::diag()),
        ("LtGt", programs::lt_gt()),
        ("Even", programs::even()),
        ("EvenLeft", programs::even_left()),
        ("EvenDiag", programs::even_diag()),
        ("EvenLeftDiag", programs::even_left_diag()),
    ];
    for (name, sys) in cases {
        let mark = |k: SolverKind| {
            if run_solver(k, &sys).0 == RunAnswer::Sat {
                "yes"
            } else {
                "-"
            }
        };
        let elem = mark(SolverKind::Spacer);
        let size = mark(SolverKind::Eldarica);
        let reg = mark(SolverKind::RInGen);
        let outcome = run_hybrid(&sys);
        let (regelem, phase) = match (outcome.answer, outcome.engine) {
            (RunAnswer::Sat, Some(e)) => ("yes", e.name()),
            _ => ("-", "diverged"),
        };
        println!("{name:<14} {elem:>6} {size:>9} {reg:>6} {regelem:>9}   {phase}");
    }
    println!();
}

fn part2_portfolio_race() {
    println!("Portfolio race on PositiveEq + Diseq (SAT instances solved)\n");
    let mut suite = positive_eq_suite();
    suite.extend(diseq_suite());

    // Single-class engines.
    let singles = [SolverKind::RInGen, SolverKind::Spacer, SolverKind::Eldarica];
    let mut single_sat = vec![0usize; singles.len()];
    let mut single_unsat = vec![0usize; singles.len()];
    let mut single_micros = vec![0u128; singles.len()];
    for (i, kind) in singles.iter().enumerate() {
        for b in &suite {
            let start = Instant::now();
            let (answer, _) = run_solver(*kind, &b.system);
            single_micros[i] += start.elapsed().as_micros();
            match answer {
                RunAnswer::Sat => single_sat[i] += 1,
                RunAnswer::Unsat => single_unsat[i] += 1,
                RunAnswer::Unknown => {}
            }
            assert!(
                !(answer == RunAnswer::Sat && b.expected == Expected::Unsat
                    || answer == RunAnswer::Unsat && b.expected == Expected::Sat),
                "{} contradicted ground truth on {}",
                kind.name(),
                b.name
            );
        }
    }

    // The portfolio.
    let mut hybrid_sat = 0usize;
    let mut hybrid_unsat = 0usize;
    let mut hybrid_micros = 0u128;
    let mut per_engine: std::collections::BTreeMap<HybridEngine, usize> = Default::default();
    for b in &suite {
        let start = Instant::now();
        let outcome = run_hybrid(&b.system);
        hybrid_micros += start.elapsed().as_micros();
        match outcome.answer {
            RunAnswer::Sat => {
                hybrid_sat += 1;
                *per_engine.entry(outcome.engine.unwrap()).or_default() += 1;
            }
            RunAnswer::Unsat => hybrid_unsat += 1,
            RunAnswer::Unknown => {}
        }
        assert!(
            !(outcome.answer == RunAnswer::Sat && b.expected == Expected::Unsat
                || outcome.answer == RunAnswer::Unsat && b.expected == Expected::Sat),
            "portfolio contradicted ground truth on {}",
            b.name
        );
    }

    println!(
        "{:<22} {:>5} {:>7} {:>12}",
        "engine", "SAT", "UNSAT", "total ms"
    );
    for (i, kind) in singles.iter().enumerate() {
        println!(
            "{:<22} {:>5} {:>7} {:>12}",
            kind.name(),
            single_sat[i],
            single_unsat[i],
            single_micros[i] / 1_000
        );
    }
    println!(
        "{:<22} {:>5} {:>7} {:>12}",
        "Hybrid portfolio",
        hybrid_sat,
        hybrid_unsat,
        hybrid_micros / 1_000
    );
    let best_single = single_sat.iter().copied().max().unwrap_or(0);
    println!(
        "\nportfolio ≥ best single engine: {} (hybrid {hybrid_sat} vs best {best_single})",
        hybrid_sat >= best_single
    );
    println!("\nSAT attribution inside the portfolio:");
    for (engine, n) in &per_engine {
        println!("  {:<10} {n}", engine.name());
    }
    println!();
}

/// The combined phase's one real knob: the size of the enumerated
/// language pool. `DiagMod3` (`x = y ∧ x ≡ r (mod 3)`) needs a 3-state
/// automaton, which the default 2-state pool cannot contain — the same
/// budget-vs-expressiveness trade-off the paper's Figure 6 shows for
/// finite-model sizes.
fn part3_pool_ablation() {
    println!("Combined-phase language-pool ablation on DiagMod3\n");
    let sys = shapes::diag_mod_k(3, 0, 1);
    for (name, langs) in [
        ("2-state pool (default)", LangPoolConfig::default()),
        (
            "3-state pool",
            LangPoolConfig {
                states_per_sort: 3,
                max_langs: 512,
                max_dftas: 8_192,
                ..LangPoolConfig::default()
            },
        ),
    ] {
        let mut cfg = combined_config(SolverKind::RInGen);
        cfg.langs = langs;
        cfg.max_assignments = 60_000;
        let start = Instant::now();
        let (answer, stats) = solve_regelem_guarded(&sys, &cfg, &Guard::new());
        let ms = start.elapsed().as_millis();
        let verdict = if answer.is_sat() {
            "SAT"
        } else if answer.is_unsat() {
            "UNSAT"
        } else {
            "diverged"
        };
        println!(
            "  {name:<24} {verdict:<9} {:>6} langs, {:>7} assignments, {ms:>6} ms",
            stats.langs, stats.assignments
        );
    }
}
