//! Property tests: the CDCL solver agrees with brute force on random
//! small CNFs, and models it reports really satisfy the clauses.

use proptest::prelude::*;
use ringen_sat::{Guard, Lit, SatResult, Solver, Var};

/// A random CNF over `n` variables: clauses are non-empty lists of
/// signed variable indices.
fn cnf_strategy(n: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    prop::collection::vec(prop::collection::vec((0..n, any::<bool>()), 1..4), 0..12)
}

fn brute_force(n: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    (0..(1u32 << n)).any(|m| {
        cnf.iter()
            .all(|clause| clause.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force(cnf in cnf_strategy(6)) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        let mut ok = true;
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| Lit::with_sign(vars[v], pos))
                .collect();
            ok &= s.add_clause(&lits);
        }
        let expected = brute_force(6, &cnf);
        if !ok {
            // Clause addition already detected unsatisfiability.
            prop_assert!(!expected);
            return Ok(());
        }
        match s.solve_guarded(u64::MAX, &Guard::new()) {
            SatResult::Sat => {
                prop_assert!(expected, "solver claimed SAT on an UNSAT instance");
                // The model satisfies every clause.
                for clause in &cnf {
                    let satisfied = clause.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos));
                    prop_assert!(satisfied);
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver claimed UNSAT on a SAT instance"),
            SatResult::Unknown => prop_assert!(false, "budget exhausted on a tiny instance"),
        }
    }
}
