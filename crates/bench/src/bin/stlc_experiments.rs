//! Regenerates the §5 case study and the §8 "Other experiments":
//! STLC inhabitation of `(a → b) → a` (regular invariant found),
//! Peirce's law (divergence), and the 23 hand-written type-theory
//! problems against all five solvers.

use ringen_automata::AutStore;
use ringen_bench::{run_solver, RunAnswer, SolverKind};
use ringen_benchgen::stlc::{handwritten_suite, type_check_system, TypeExpr};
use ringen_core::{solve_guarded, Answer, Guard, RingenConfig};

fn main() {
    println!("== §5 case study: inhabitation of (a → b) → a ==\n");
    let sys = type_check_system(&TypeExpr::paper_goal());
    let guard = Guard::new();
    let (answer, stats) =
        solve_guarded(&sys, &RingenConfig::default(), &mut AutStore::new(), &guard);
    match answer {
        Answer::Sat(sat) => {
            println!(
                "SAT: regular invariant with {} states (model size {:?})",
                sat.invariant.state_count(),
                stats.model_size
            );
            println!("{}", sat.invariant.display(&sat.preprocessed.system));
        }
        other => println!("unexpected: {other:?}"),
    }

    println!("== Peirce's law ((a → b) → a) → a ==\n");
    let sys = type_check_system(&TypeExpr::peirce());
    let mut cfg = RingenConfig::quick();
    cfg.finder.max_total_size = 7;
    let (answer, _) = solve_guarded(&sys, &cfg, &mut AutStore::new(), &guard);
    println!(
        "answer: {}\n",
        match answer {
            Answer::Sat(_) => "SAT (unexpected!)",
            Answer::Unsat(_) => "UNSAT (unexpected!)",
            Answer::Unknown(_) | Answer::Interrupted => "diverged, as §5 reports",
        }
    );

    println!("== §8 other experiments: 23 hand-written problems ==\n");
    println!(
        "{:<26} {:>8} {:>9} {:>8} {:>9} {:>13}",
        "problem", "RInGen", "Eldarica", "Spacer", "CVC4-Ind", "VeriMAP-iddt"
    );
    let mut solved = [0usize; 5];
    for (name, sys) in handwritten_suite() {
        let mut row = Vec::new();
        for (i, kind) in SolverKind::all().into_iter().enumerate() {
            let (a, _) = run_solver(kind, &sys);
            if a != RunAnswer::Unknown {
                solved[i] += 1;
            }
            row.push(match a {
                RunAnswer::Sat => "sat",
                RunAnswer::Unsat => "unsat",
                RunAnswer::Unknown => "-",
            });
        }
        println!(
            "{:<26} {:>8} {:>9} {:>8} {:>9} {:>13}",
            name, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!(
        "\nsolved: RInGen {}, Eldarica {}, Spacer {}, CVC4-Ind {}, VeriMAP-iddt {}",
        solved[0], solved[1], solved[2], solved[3], solved[4]
    );
    println!("(the paper: intractable for all solvers except the finite model finder)");
}
