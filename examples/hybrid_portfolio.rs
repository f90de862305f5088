//! The hybrid portfolio of §8's concluding conjecture, run as a race:
//!
//! > "a hybrid approach to infer invariants in parts by automata and
//! > in parts by FOL should exhibit the best performance."
//!
//! Five entrants race concurrently on each program: the bottom-up
//! refuter, regular invariants by finite-model finding, the elementary
//! and size-elementary template solvers, and the combined
//! template-plus-membership search. The first definitive SAT/UNSAT
//! cancels the rest; the refuter can only win with UNSAT, so on these
//! safe programs it is one of the losers. Losers are reported per
//! entrant (won / lost / cancelled / timed-out / panicked / unknown).
//!
//! ```text
//! cargo run --release --example hybrid_portfolio
//! RINGEN_DEADLINE_MS=50 cargo run --release --example hybrid_portfolio
//! ```
//!
//! With `RINGEN_DEADLINE_MS` set, the race is wall-clock bounded and
//! degrades gracefully: engines come home `TimedOut`, the verdict is
//! `Interrupted`, and the process still exits cleanly.

use ringen::benchgen::programs;
use ringen::core::Guard;
use ringen::portfolio::{solve_portfolio_guarded, PortfolioAnswer, PortfolioConfig};

fn main() {
    let cfg = PortfolioConfig::from_env();
    match cfg.deadline {
        Some(d) => println!("per-race deadline: {d:?}\n"),
        None => println!("per-race deadline: none (set RINGEN_DEADLINE_MS to bound)\n"),
    }
    println!("{:<14} {:>12}   per-engine outcomes", "program", "verdict");
    let cases = [
        ("Even", programs::even()),          // Reg: the paper's tool wins
        ("IncDec", programs::inc_dec()),     // everyone's favourite
        ("Diag", programs::diag()),          // Elem only
        ("EvenDiag", programs::even_diag()), // needs the combination
    ];
    for (name, sys) in cases {
        let (answer, stats) = solve_portfolio_guarded(&sys, &cfg, &Guard::new());
        let verdict = match &answer {
            PortfolioAnswer::Sat(_) => "SAT",
            PortfolioAnswer::Unsat(_) => "UNSAT",
            PortfolioAnswer::Unknown => "unknown",
            PortfolioAnswer::Interrupted => "interrupted",
        };
        let outcomes = stats
            .engines
            .iter()
            .map(|r| format!("{}:{:?}({}ms)", r.name, r.status, r.elapsed.as_millis()))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{name:<14} {verdict:>12}   {outcomes}");
    }
    println!(
        "\nLtGt is deliberately absent: orderings live in SizeElem \\ (Reg ∪ Elem);\n\
         add the size engine's win by running it on `programs::lt_gt()` yourself."
    );
}
