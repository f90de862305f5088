//! `ringen-regelem` — the `RegElem` representation class: first-order
//! formulas over ADTs extended with **regular-language membership
//! predicates**, the class the paper's §7 future work singles out as
//! "decidable and closed under Boolean operations, subsuming both
//! `Reg` and `Elem`" (Comon and Delor [15]).
//!
//! * [`Lang`] — immutable regular tree languages (completed DFTAs);
//! * [`RegLiteral`], [`RegElemFormula`] — DNF formulas mixing the
//!   elementary atoms of Definition 6 with membership atoms `t ∈ L`;
//! * [`check_cube`] — a layered, sound-for-UNSAT satisfiability check
//!   (elementary projection, unification, automaton state propagation,
//!   joint product realizability);
//! * [`RegElemInvariant`], [`check_inductive`] — certified
//!   inductiveness of `RegElem` candidates, with the `Elem ⊆ RegElem`
//!   and `Reg ⊆ RegElem` embeddings;
//! * [`solve_regelem_guarded`] — a three-phase solver (regular →
//!   elementary → genuinely combined), realizing the hybrid approach
//!   §8's discussion conjectures "should exhibit the best performance".
//!
//! The showcase separation: the `EvenDiag` program (see
//! `ringen-benchgen`) pairs even Peano numbers with themselves. Its
//! safe inductive invariants must express *both* the diagonal (not
//! regular, Prop. 11) and the parity (not elementary, Prop. 1), so
//! every Figure 3 solver diverges — while the combined phase finds
//! `#0 = #1 ∧ #0 ∈ Even` in milliseconds.
//!
//! # Example
//!
//! ```
//! use ringen_core::Guard;
//! use ringen_regelem::{solve_regelem_guarded, Provenance, RegElemAnswer, RegElemConfig};
//!
//! let sys = ringen_chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun evenpair (Nat Nat) Bool)
//!   (assert (evenpair Z Z))
//!   (assert (forall ((x Nat) (y Nat))
//!     (=> (evenpair x y) (evenpair (S (S x)) (S (S y))))))
//!   (assert (forall ((x Nat) (y Nat))
//!     (=> (and (evenpair x y) (distinct x y)) false)))
//!   (assert (forall ((x Nat) (y Nat))
//!     (=> (and (evenpair x y) (evenpair (S x) (S y))) false)))
//! "#)?;
//! // Skip straight to the combined phase: the regular and elementary
//! // phases provably diverge on this program.
//! let cfg = RegElemConfig { regular: None, elementary: None, ..RegElemConfig::quick() };
//! // `Guard::with_deadline` would bound every phase; this one never trips.
//! let (answer, _) = solve_regelem_guarded(&sys, &cfg, &Guard::new());
//! match answer {
//!     RegElemAnswer::Sat(_, provenance) => {
//!         assert_eq!(provenance, Provenance::Combined);
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! # Ok::<(), ringen_chc::ParseError>(())
//! ```

pub mod dp;
pub mod enumerate;
pub mod formula;
pub mod invariant;
pub mod lang;
pub mod solver;

pub use dp::{check_cube, check_cube_in, DpBudget, RegCubeSat};
pub use enumerate::{enumerate_langs, enumerate_langs_in, LangPoolConfig};
pub use formula::{RegCube, RegElemFormula, RegLiteral};
pub use invariant::{check_inductive, check_inductive_in, RegElemCheck, RegElemInvariant};
pub use lang::Lang;
pub use solver::{solve_regelem_guarded, Provenance, RegElemAnswer, RegElemConfig, RegElemStats};
