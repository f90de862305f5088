//! Beyond Figure 3: the `RegElem` class of §7's future work.
//!
//! The `EvenDiag` program pairs even Peano numbers with themselves, so
//! its safe inductive invariants must express the diagonal (which no
//! tree automaton can, Prop. 11) *and* the parity (which no elementary
//! formula can, Prop. 1). First-order formulas with regular membership
//! predicates express both at once: this example certifies
//! `#0 = #1 ∧ #0 ∈ Even` and then lets the combined solver rediscover
//! it from scratch.
//!
//! ```text
//! cargo run --release --example regular_membership
//! ```

use ringen::automata::Dfta;
use ringen::benchgen::programs;
use ringen::regelem::{
    check_inductive, solve_regelem_guarded, DpBudget, Lang, RegElemConfig, RegElemFormula,
    RegElemInvariant, RegLiteral,
};
use ringen::terms::{GroundTerm, Term, VarId};

fn main() {
    let sys = programs::even_diag();
    println!("EvenDiag: {} clauses over Nat × Nat\n", sys.clauses.len());

    // Hand-written candidate: the diagonal restricted to the Even
    // language of the paper's Example 1.
    let nat = sys.sig.sort_by_name("Nat").expect("Nat sort");
    let z = sys.sig.func_by_name("Z").expect("Z");
    let s = sys.sig.func_by_name("S").expect("S");
    let mut d = Dfta::new();
    let s0 = d.add_state(nat);
    let s1 = d.add_state(nat);
    d.add_transition(z, vec![], s0);
    d.add_transition(s, vec![s0], s1);
    d.add_transition(s, vec![s1], s0);
    let even = Lang::new("Even", &sys.sig, d, [s0]);

    let evenpair = sys.rels.by_name("evenpair").expect("evenpair");
    let formula = RegElemFormula::cube(vec![
        RegLiteral::Eq(Term::var(VarId(0)), Term::var(VarId(1))),
        RegLiteral::member(Term::var(VarId(0)), even),
    ]);
    println!(
        "candidate: evenpair(#0, #1) ≡ {}",
        formula.display(&sys.sig)
    );
    let inv = RegElemInvariant {
        formulas: [(evenpair, formula)].into(),
    };
    let verdict = check_inductive(&sys, &inv, 64, &DpBudget::default());
    println!("inductiveness check: {verdict:?}\n");

    // Semantics on ground pairs.
    let n = |k| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
    for (a, b) in [(0, 0), (4, 4), (3, 3), (2, 4)] {
        println!(
            "  evenpair({a}, {b})  →  {}",
            inv.holds(evenpair, &[n(a), n(b)])
        );
    }

    // Now let the combined phase rediscover an invariant from scratch
    // (the regular and elementary phases provably diverge here, so we
    // skip straight to phase 3).
    println!("\nsearching the combined template space ...");
    let cfg = RegElemConfig {
        regular: None,
        elementary: None,
        ..RegElemConfig::quick()
    };
    let (answer, stats) = solve_regelem_guarded(&sys, &cfg, &ringen::core::Guard::new());
    match answer {
        ringen::regelem::RegElemAnswer::Sat(found, provenance) => {
            println!(
                "found after {} assignments ({provenance:?}): {}",
                stats.assignments,
                found.formulas[&evenpair].display(&sys.sig)
            );
        }
        other => println!("unexpected outcome: {other:?}"),
    }
}
