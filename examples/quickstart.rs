//! Quickstart: infer a regular invariant for the paper's Example 1.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ringen::automata::AutStore;
use ringen::chc::parse_str;
use ringen::core::{solve_guarded, Answer, Guard, RingenConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `even` over Peano numbers: the assertion says no two consecutive
    // numbers are both even.
    let sys = parse_str(
        r#"
        (set-logic HORN)
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun even (Nat) Bool)
        (assert (even Z))
        (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
        (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
        (check-sat)
        "#,
    )?;

    // `Guard::with_deadline` would bound the run; this guard never trips.
    let guard = Guard::new();
    let mut store = AutStore::new();
    let (answer, stats) = solve_guarded(&sys, &RingenConfig::default(), &mut store, &guard);
    match answer {
        Answer::Sat(sat) => {
            println!("sat — the program is safe");
            println!("finite model size: {:?}", stats.model_size);
            println!("regular invariant (the paper's two-state automaton):");
            print!("{}", sat.invariant.display(&sat.preprocessed.system));
        }
        Answer::Unsat(r) => println!("unsat — refutation with {} steps", r.len()),
        Answer::Unknown(d) => println!("unknown: {d:?}"),
        // Unreachable: this guard is never cancelled.
        Answer::Interrupted => println!("interrupted"),
    }
    Ok(())
}
