//! Figure 3, executed: which of the three invariant representation
//! classes can express a safe inductive invariant for each of the five
//! §7 programs?
//!
//! ```text
//! cargo run --release --example expressiveness
//! ```

use ringen::automata::AutStore;
use ringen::benchgen::programs;
use ringen::core::{solve_guarded, Guard, RingenConfig};
use ringen::elem::{solve_elem_guarded, ElemConfig};
use ringen::sizeelem::{solve_size_elem_guarded, SizeElemConfig};

fn main() {
    println!(
        "{:<10} {:>6} {:>9} {:>6}",
        "program", "Elem", "SizeElem", "Reg"
    );
    for (name, sys) in [
        ("IncDec", programs::inc_dec()),
        ("Diag", programs::diag()),
        ("LtGt", programs::lt_gt()),
        ("Even", programs::even()),
        ("EvenLeft", programs::even_left()),
    ] {
        let guard = Guard::new();
        let elem = solve_elem_guarded(&sys, &ElemConfig::quick(), &guard)
            .0
            .is_sat();
        let size = solve_size_elem_guarded(&sys, &SizeElemConfig::quick(), &guard)
            .0
            .is_sat();
        let reg = solve_guarded(&sys, &RingenConfig::quick(), &mut AutStore::new(), &guard)
            .0
            .is_sat();
        let mark = |b: bool| if b { "yes" } else { "-" };
        println!(
            "{:<10} {:>6} {:>9} {:>6}",
            name,
            mark(elem),
            mark(size),
            mark(reg)
        );
    }
}
