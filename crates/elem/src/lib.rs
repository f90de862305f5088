//! `ringen-elem` — the `Elem` representation class: first-order formulas
//! over ADTs, and an elementary-invariant solver standing in for
//! Z3/Spacer in the paper's evaluation (§8).
//!
//! * [`Literal`], [`ElemFormula`] — quantifier-free DNF formulas over
//!   predicate parameters (the bounded-depth atoms of Definition 6);
//! * [`check_cube`] — an Oppen-style decision procedure for conjunctions
//!   of ADT literals (congruence closure + injectivity, distinctness,
//!   acyclicity, testers): hash-consed, near-linear in the cube's term
//!   size, and independent of literal order;
//! * [`solve_elem_guarded`] — template-based invariant inference with
//!   exact inductiveness checking; diverges exactly on programs without
//!   elementary invariants, the behaviour Table 1 measures for Spacer.
//!
//! # Example
//!
//! ```
//! use ringen_core::Guard;
//! use ringen_elem::{solve_elem_guarded, ElemAnswer, ElemConfig};
//!
//! // IncDec (Example 4) has the elementary invariant inc(x,y) ≡ y = S(x).
//! let sys = ringen_chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun inc (Nat Nat) Bool)
//!   (assert (inc Z (S Z)))
//!   (assert (forall ((x Nat) (y Nat)) (=> (inc x y) (inc (S x) (S y)))))
//!   (assert (forall ((x Nat)) (=> (inc x x) false)))
//! "#)?;
//! // `Guard::with_deadline` would bound the sweep; this one never trips.
//! let (answer, _) = solve_elem_guarded(&sys, &ElemConfig::quick(), &Guard::new());
//! assert!(answer.is_sat());
//! # Ok::<(), ringen_chc::ParseError>(())
//! ```

pub mod dp;
pub mod lit;
pub mod search;
pub mod solver;
pub mod template;

pub use dp::{check_cube, CubeSat};
pub use lit::{Cube, ElemFormula, Literal};
pub use solver::{solve_elem_guarded, ElemAnswer, ElemConfig, ElemInvariant, ElemStats};
pub use template::{atoms, candidates, TemplateConfig};
