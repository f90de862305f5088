//! The §5 case study: is the STLC type scheme `(a → b) → a` inhabited
//! by a closed term at every instance? The tool proves it is not, with
//! a regular invariant the paper calls ℐ; Peirce's law diverges.
//!
//! ```text
//! cargo run --release --example stlc_inhabitation
//! ```

use ringen::automata::AutStore;
use ringen::benchgen::stlc::{type_check_system, TypeExpr};
use ringen::core::{solve_guarded, Answer, Guard, RingenConfig};

fn main() {
    let goal = TypeExpr::paper_goal();
    println!("goal scheme: (a -> b) -> a");
    let sys = type_check_system(&goal);
    let guard = Guard::new();
    let (answer, _) = solve_guarded(&sys, &RingenConfig::default(), &mut AutStore::new(), &guard);
    match answer {
        Answer::Sat(sat) => {
            println!(
                "uninhabited: regular invariant with {} states",
                sat.invariant.state_count()
            );
            print!("{}", sat.invariant.display(&sat.preprocessed.system));
        }
        other => println!("unexpected: {other:?}"),
    }

    println!("\ngoal scheme: ((a -> b) -> a) -> a  (Peirce)");
    let sys = type_check_system(&TypeExpr::peirce());
    let mut cfg = RingenConfig::quick();
    cfg.finder.max_total_size = 7;
    let (answer, _) = solve_guarded(&sys, &cfg, &mut AutStore::new(), &guard);
    match answer {
        Answer::Unknown(_) => println!("diverged — exactly as §5 reports for Peirce's law"),
        other => println!("unexpected: {other:?}"),
    }
}
