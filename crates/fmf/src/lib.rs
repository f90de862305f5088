//! A MACE-style finite-model finder for CHCs over EUF.
//!
//! This crate stands in for the CVC4 `--finite-model-find` backend used by
//! the original RInGen (§4 of the paper): given an equality-only CHC
//! system whose constructors are treated as *free* function symbols, it
//! searches for a finite first-order model by grounding to SAT, iterating
//! per-sort domain sizes in order of total size. The returned
//! [`FiniteModel`] is exactly the object Theorem 1 converts into a tree
//! automaton.
//!
//! # Example
//!
//! ```
//! use ringen_chc::parse_str;
//! use ringen_fmf::{find_model_guarded, FinderConfig, FmfOutcome};
//! use ringen_parallel::Guard;
//!
//! let sys = parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun even (Nat) Bool)
//!   (assert (even Z))
//!   (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
//!   (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
//! "#).unwrap();
//! // A deadline guard (`Guard::with_deadline`) would bound the search.
//! let (outcome, _stats) = find_model_guarded(&sys, &FinderConfig::default(), &Guard::new())?;
//! let model = match outcome { FmfOutcome::Model(m) => m, _ => unreachable!() };
//! assert_eq!(model.size(), 2); // the paper's §4.1 model
//! # Ok::<(), ringen_fmf::FlattenError>(())
//! ```

mod finder;
mod flatten;
mod model;

pub use finder::{find_model_guarded, has_free_symbols, FinderConfig, FinderStats, FmfOutcome};
pub use flatten::{flatten_clause, flatten_system, FlatClause, FlatVar, FlattenError};
pub use model::{DisplayModel, FiniteModel};
