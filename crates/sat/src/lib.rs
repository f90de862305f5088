//! An incremental CDCL SAT solver.
//!
//! Substrate for `ringen-fmf`, the MACE-style finite-model finder of §4 of
//! *"Beyond the Elementary Representations of Program Invariants over
//! Algebraic Data Types"* (PLDI 2021). Implements conflict-driven clause
//! learning with two-watched literals, first-UIP conflict analysis, VSIDS
//! branching, phase saving and Luby restarts. Solving is budgeted by
//! conflict count so that callers get deterministic "timeouts".
//!
//! The solver is *incremental*: clauses can be added between queries,
//! queries can be posed under assumptions
//! ([`Solver::solve_assuming_guarded`]) with failed-literal unsat-core
//! extraction ([`Solver::failed_assumptions`]), and learnt clauses plus
//! branching heuristics persist across queries — the FMF size sweep
//! leans on all three to reuse one solver for the whole sweep.
//!
//! # Example
//!
//! ```
//! use ringen_sat::{Guard, Lit, SatResult, Solver};
//!
//! // An unarmed guard never cancels; a deadline guard would.
//! let guard = Guard::new();
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! match s.solve_guarded(u64::MAX, &guard) {
//!     SatResult::Sat => {
//!         assert_eq!(s.value(a), Some(false));
//!         assert_eq!(s.value(b), Some(true));
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//!
//! // The same solver can answer restricted follow-up queries without
//! // rebuilding: assuming `b` is false forces the clause set UNSAT,
//! // and the failed assumptions name the culprit.
//! assert_eq!(
//!     s.solve_assuming_guarded(u64::MAX, &guard, &[Lit::neg(b)]),
//!     SatResult::Unsat
//! );
//! assert_eq!(s.failed_assumptions(), &[Lit::neg(b)]);
//! assert_eq!(s.solve_guarded(u64::MAX, &guard), SatResult::Sat);
//! ```

mod solver;

pub use ringen_guard::Guard;
pub use solver::{Lit, SatResult, Solver, Var, GUARD_CONFLICT_PERIOD, GUARD_DECISION_PERIOD};
