//! `ringen-verimap` — an ADT-eliminating clause transformer standing in
//! for VeriMAP-iddt in the paper's evaluation (§8).
//!
//! VeriMAP-iddt removes ADTs from the verification conditions entirely
//! by fold/unfold transformation, leaving CHCs over linear integer
//! arithmetic; it therefore *never returns an invariant over ADTs*.
//! This stand-in realizes the same observable behaviour with a measure
//! abstraction: every ADT variable is abstracted to its constructor
//! count (`size`), clause equalities become linear size equations, and
//! the resulting integer system is solved by the size-only template
//! engine of `ringen-sizeelem` (elementary atoms and the Oppen
//! projection disabled — no ADT structure survives the
//! transformation). Disequalities are dropped by the abstraction, which
//! is exactly why the original tool solves so few `Diseq` problems.
//!
//! # Example
//!
//! ```
//! use ringen_core::Guard;
//! use ringen_verimap::{solve_verimap_guarded, VerimapAnswer, VerimapConfig};
//!
//! let sys = ringen_chc::parse_str(r#"
//!   (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
//!   (declare-fun lt (Nat Nat) Bool)
//!   (assert (forall ((y Nat)) (lt Z (S y))))
//!   (assert (forall ((x Nat) (y Nat)) (=> (lt x y) (lt (S x) (S y)))))
//!   (assert (forall ((x Nat)) (=> (lt x x) false)))
//! "#)?;
//! let (answer, _) = solve_verimap_guarded(&sys, &VerimapConfig::quick(), &Guard::new()).unwrap();
//! assert!(answer.is_sat()); // size ordering survives the abstraction
//! # Ok::<(), ringen_chc::ParseError>(())
//! ```

use ringen_chc::{ChcSystem, IllSorted};
use ringen_core::saturation::Refutation;
use ringen_core::Guard;
use ringen_sizeelem::{
    solve_size_elem_guarded, SizeElemAnswer, SizeElemConfig, SizeElemInvariant, SizeElemStats,
};

/// Budgets for [`solve_verimap_guarded`].
#[derive(Debug, Clone, Default)]
pub struct VerimapConfig {
    /// The underlying size-engine configuration; `elem_atoms` and
    /// `elem_projection` are forced off by [`solve_verimap_guarded`].
    pub engine: SizeElemConfig,
}

impl VerimapConfig {
    /// Small-budget configuration for batch benchmarking.
    pub fn quick() -> Self {
        VerimapConfig {
            engine: SizeElemConfig::quick(),
        }
    }
}

/// The transformer's verdict. A SAT answer deliberately carries *no*
/// ADT invariant — only the size-level certificate — mirroring the
/// original tool's output (§8: "it does not produce invariants over
/// ADTs").
#[derive(Debug, Clone)]
pub enum VerimapAnswer {
    /// Safe; the size-abstracted integer system has an invariant.
    Sat(SizeElemInvariant),
    /// Unsafe, with a ground refutation of the *original* system.
    Unsat(Refutation),
    /// Budgets exhausted.
    Unknown,
    /// The run was cancelled by its [`Guard`].
    Interrupted,
}

impl VerimapAnswer {
    /// `true` for [`VerimapAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, VerimapAnswer::Sat(_))
    }

    /// `true` for [`VerimapAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, VerimapAnswer::Unsat(_))
    }

    /// `true` for [`VerimapAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, VerimapAnswer::Unknown)
    }

    /// `true` for [`VerimapAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, VerimapAnswer::Interrupted)
    }
}

/// Runs the ADT-eliminating pipeline under cooperative cancellation
/// (the guard is threaded into the underlying size engine).
///
/// # Errors
///
/// Returns [`IllSorted`] if `sys` is not well-sorted.
pub fn solve_verimap_guarded(
    sys: &ChcSystem,
    cfg: &VerimapConfig,
    guard: &Guard,
) -> Result<(VerimapAnswer, SizeElemStats), IllSorted> {
    sys.well_sorted()?;
    let mut engine = cfg.engine.clone();
    engine.elem_atoms = false;
    engine.elem_projection = false;
    let (answer, stats) = solve_size_elem_guarded(sys, &engine, guard);
    let answer = match answer {
        SizeElemAnswer::Sat(inv) => VerimapAnswer::Sat(inv),
        SizeElemAnswer::Unsat(r) => VerimapAnswer::Unsat(r),
        SizeElemAnswer::Unknown => VerimapAnswer::Unknown,
        SizeElemAnswer::Interrupted => VerimapAnswer::Interrupted,
    };
    Ok((answer, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    #[test]
    fn diag_diverges_without_adt_structure() {
        // eq/diseq needs term equality, which the size abstraction loses.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun eq (Nat Nat) Bool)
            (declare-fun diseq (Nat Nat) Bool)
            (assert (forall ((x Nat)) (eq x x)))
            (assert (forall ((x Nat)) (diseq (S x) Z)))
            (assert (forall ((y Nat)) (diseq Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (diseq x y) (diseq (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (eq x y) (diseq x y)) false)))
            "#,
        )
        .unwrap();
        let mut cfg = VerimapConfig::quick();
        cfg.engine.max_assignments = 2_000;
        let (answer, _) = solve_verimap_guarded(&sys, &cfg, &Guard::new()).unwrap();
        assert!(answer.is_unknown(), "got {answer:?}");
    }

    #[test]
    fn even_parity_survives_the_abstraction() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let (answer, _) =
            solve_verimap_guarded(&sys, &VerimapConfig::quick(), &Guard::new()).unwrap();
        assert!(answer.is_sat(), "got {answer:?}");
    }

    #[test]
    fn unsat_is_refuted_concretely() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (=> (p Z) false))
            "#,
        )
        .unwrap();
        let (answer, _) =
            solve_verimap_guarded(&sys, &VerimapConfig::quick(), &Guard::new()).unwrap();
        assert!(answer.is_unsat());
    }

    #[test]
    fn orderings_survive_the_abstraction() {
        // LtGt is the size abstraction's strength: size(x) < size(y)
        // is exactly the surviving information.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun lt (Nat Nat) Bool)
            (declare-fun gt (Nat Nat) Bool)
            (assert (forall ((y Nat)) (lt Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (lt x y) (lt (S x) (S y)))))
            (assert (forall ((x Nat)) (gt (S x) Z)))
            (assert (forall ((x Nat) (y Nat)) (=> (gt x y) (gt (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (lt x y) (gt x y)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) =
            solve_verimap_guarded(&sys, &VerimapConfig::quick(), &Guard::new()).unwrap();
        assert!(answer.is_sat(), "got {answer:?}");
    }

    #[test]
    fn spine_parity_is_lost_by_total_size() {
        // EvenLeft counts only the leftmost spine; total constructor
        // counts cannot see it (Prop. 2's intuition), so the
        // transformer diverges.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Tree 0))
              (((leaf) (node (left Tree) (right Tree)))))
            (declare-fun el (Tree) Bool)
            (assert (el leaf))
            (assert (forall ((x Tree) (y Tree) (z Tree))
              (=> (el x) (el (node (node x y) z)))))
            (assert (forall ((x Tree) (y Tree))
              (=> (and (el x) (el (node x y))) false)))
            "#,
        )
        .unwrap();
        let mut cfg = VerimapConfig::quick();
        cfg.engine.max_assignments = 2_000;
        let (answer, _) = solve_verimap_guarded(&sys, &cfg, &Guard::new()).unwrap();
        assert!(answer.is_unknown(), "got {answer:?}");
    }

    #[test]
    fn engine_flags_are_forced_off() {
        // Even if the caller enables elementary atoms, the transformer
        // must strip them: no ADT structure may survive (the defining
        // property of the stand-in).
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun eq (Nat Nat) Bool)
            (declare-fun diseq (Nat Nat) Bool)
            (assert (forall ((x Nat)) (eq x x)))
            (assert (forall ((x Nat)) (diseq (S x) Z)))
            (assert (forall ((y Nat)) (diseq Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (diseq x y) (diseq (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (eq x y) (diseq x y)) false)))
            "#,
        )
        .unwrap();
        let mut cfg = VerimapConfig::quick();
        cfg.engine.elem_atoms = true;
        cfg.engine.elem_projection = true;
        cfg.engine.max_assignments = 2_000;
        // With elem atoms this system is Elem-solvable (Diag); the
        // transformer must still diverge because it forces them off.
        let (answer, _) = solve_verimap_guarded(&sys, &cfg, &Guard::new()).unwrap();
        assert!(answer.is_unknown(), "got {answer:?}");
    }

    #[test]
    fn cancelled_guard_interrupts() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let g = Guard::new();
        g.cancel();
        let (answer, stats) = solve_verimap_guarded(&sys, &VerimapConfig::quick(), &g).unwrap();
        assert!(answer.is_interrupted(), "got {answer:?}");
        assert_eq!(stats.assignments, 0);
    }
}
