//! `ringen-sizeelem` — the `SizeElem` representation class: first-order
//! formulas over ADTs *with size constraints* (§6.3), and a solver
//! standing in for Eldarica in the paper's evaluation (§8).
//!
//! * [`LinearSet`], [`PeriodicSet`] — (semi)linear sets over ℕ, the
//!   size images `S_σ` and the `T ⊆ S_σ` of Lemma 7 (with the Lemma 10
//!   intersection property);
//! * [`check_lia`] — a sound decision procedure for linear
//!   inequalities + congruences over term sizes;
//! * [`SizeElemFormula`] — DNF formulas mixing elementary literals with
//!   size atoms;
//! * [`solve_size_elem_guarded`] — template-based invariant inference:
//!   solves size orderings (`LtGt`) and parities (`Even`) that `Elem`
//!   cannot express, diverges on `EvenLeft` (Prop. 2);
//! * [`pumping`] — the executable Lemma 7 ingredients.
//!
//! # Example
//!
//! ```
//! use ringen_core::Guard;
//! use ringen_sizeelem::{solve_size_elem_guarded, SizeElemConfig};
//!
//! // Even ∈ SizeElem (Prop. 8): even(x) ⇔ size(x) ≡ 1 (mod 2).
//! let sys = ringen_chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun even (Nat) Bool)
//!   (assert (even Z))
//!   (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
//!   (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
//! "#)?;
//! // `Guard::with_deadline` would bound the sweep; this one never trips.
//! let (answer, _) = solve_size_elem_guarded(&sys, &SizeElemConfig::quick(), &Guard::new());
//! assert!(answer.is_sat());
//! # Ok::<(), ringen_chc::ParseError>(())
//! ```

pub mod formula;
pub mod lia;
pub mod linear;
pub mod pumping;
pub mod solver;

pub use formula::{SizeElemFormula, SizeLit};
pub use lia::{check_lia, LiaConfig, LiaProblem, LiaSat, LinAtom, LinOp, ModAtom};
pub use linear::{LinearSet, PeriodicSet};
pub use pumping::{size_elem_pump, term_of_size};
pub use solver::{
    solve_size_elem_guarded, SizeElemAnswer, SizeElemConfig, SizeElemInvariant, SizeElemStats,
};
