//! The executable `SizeElem` pumping lemma (Lemma 7, Appendix B.2).
//!
//! Lemma 7 pumps a deep leaf of a term `g` in a `SizeElem` language with
//! a replacement `t` whose size ranges over an infinite linear set
//! `T ⊆ S_σ`. This module provides the two ingredients the Prop. 2
//! argument needs executably:
//!
//! * [`term_of_size`] — a ground term of a requested size (the lemma's
//!   `t` with `size(t) ∈ T`), built by dynamic programming over the
//!   size-image;
//! * [`size_elem_pump`] — the substitution `g[p ← t]` at a single leaf
//!   path (the other paths `P ← U` of the lemma preserve sizes and are
//!   identities for the single-predicate demonstrations).

use ringen_terms::{GroundTerm, Path, Signature, SizeSet, SortId};

/// Builds a ground term of `sort` whose size is exactly `size`, if one
/// exists. Deterministic: constructors are tried in declaration order.
pub fn term_of_size(sig: &Signature, sort: SortId, size: u64) -> Option<GroundTerm> {
    if size == 0 || size > 4_096 {
        return None;
    }
    let sets = SizeSet::of_all_sorts(sig, || false).expect("never cancelled");
    build(sig, &sets, sort, size)
}

/// `sets` holds every sort's size set, indexed by sort.
fn build(sig: &Signature, sets: &[SizeSet], sort: SortId, size: u64) -> Option<GroundTerm> {
    let realizable = |s: SortId, k: u64| k >= 1 && sets[s.index()].contains(k);
    if !realizable(sort, size) {
        return None;
    }
    for &c in sig.constructors_of(sort) {
        let decl = sig.func(c);
        if decl.arity() == 0 {
            if size == 1 {
                return Some(GroundTerm::leaf(c));
            }
            continue;
        }
        // Distribute size-1 over the arguments.
        let domain = decl.domain.clone();
        let mut args: Vec<GroundTerm> = Vec::with_capacity(domain.len());
        if distribute(sig, sets, &domain, size - 1, &mut args) {
            return Some(GroundTerm::app(c, args));
        }
    }
    None
}

fn distribute(
    sig: &Signature,
    sets: &[SizeSet],
    domain: &[SortId],
    budget: u64,
    args: &mut Vec<GroundTerm>,
) -> bool {
    if domain.is_empty() {
        return budget == 0;
    }
    let s = domain[0];
    let rest_min: u64 = domain[1..].len() as u64;
    for k in 1..=budget.saturating_sub(rest_min) {
        let fits_rest = |remaining: u64| domain.len() > 1 || remaining == 0;
        let _ = fits_rest;
        if let Some(t) = build(sig, sets, s, k) {
            args.push(t);
            if distribute(sig, sets, &domain[1..], budget - k, args) {
                return true;
            }
            args.pop();
        }
    }
    false
}

/// Lemma 7's substitution at a single leaf path: `g[p ← t]`.
pub fn size_elem_pump(g: &GroundTerm, p: &Path, t: &GroundTerm) -> Option<GroundTerm> {
    p.replace(g, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};

    #[test]
    fn nat_terms_of_every_size() {
        let (sig, nat, _, _) = nat_signature();
        for k in 1..12 {
            let t = term_of_size(&sig, nat, k).expect("Nat has every size");
            assert_eq!(t.size(), k);
        }
    }

    #[test]
    fn tree_terms_only_odd_sizes() {
        let (sig, tree, _, _) = tree_signature();
        assert!(term_of_size(&sig, tree, 4).is_none());
        for k in [1u64, 3, 5, 7, 9] {
            let t = term_of_size(&sig, tree, k).expect("odd sizes exist");
            assert_eq!(t.size(), k);
            assert!(t.well_sorted(&sig));
        }
    }

    #[test]
    fn pump_replaces_the_leaf() {
        let (sig, _, z, s) = nat_signature();
        let _ = sig;
        let g = GroundTerm::iterate(s, GroundTerm::leaf(z), 4);
        // Path to the innermost Z: four steps of argument 0.
        let p = Path::descend(0, 4);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), 3);
        let pumped = size_elem_pump(&g, &p, &t).unwrap();
        assert_eq!(pumped.size(), 4 + 3 + 1);
    }
}
