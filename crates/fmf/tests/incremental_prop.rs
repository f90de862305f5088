//! Differential property tests: the incremental (shared-solver,
//! assumption-selected) size sweep against the one-shot reference path
//! (`FinderConfig::incremental = false`) on random CHC systems.
//!
//! The contract: same verdict on every system, same first-model size
//! vector, same skip decisions — the extracted models may differ only
//! in which (equally minimal, when shrinking) witness they pick, and
//! both must satisfy the system.

use proptest::prelude::*;

use ringen_chc::{ChcSystem, SystemBuilder};
use ringen_fmf::{find_model_guarded, FinderConfig, FmfOutcome};
use ringen_parallel::Guard;
use ringen_terms::Term;

/// A term over one Nat-like sort: `S^iters(base)` where the base is
/// either the constant `Z` or one of the clause's variables.
#[derive(Debug, Clone)]
struct TermDesc {
    base: Option<usize>,
    iters: usize,
}

#[derive(Debug, Clone)]
struct AtomDesc {
    pred: usize,
    args: Vec<TermDesc>,
}

#[derive(Debug, Clone)]
struct ClauseDesc {
    nvars: usize,
    body: Vec<AtomDesc>,
    head: Option<AtomDesc>,
    eq: Option<(TermDesc, TermDesc)>,
}

fn term_desc(nvars: usize) -> impl Strategy<Value = TermDesc> {
    (0..=nvars, 0usize..=2).prop_map(move |(b, iters)| TermDesc {
        base: b.checked_sub(1),
        iters,
    })
}

/// Predicate 0 is unary, predicate 1 binary.
fn atom_desc(nvars: usize) -> impl Strategy<Value = AtomDesc> {
    (0usize..2).prop_flat_map(move |pred| {
        let arity = if pred == 0 { 1 } else { 2 };
        proptest::collection::vec(term_desc(nvars), arity)
            .prop_map(move |args| AtomDesc { pred, args })
    })
}

fn clause_desc() -> impl Strategy<Value = ClauseDesc> {
    (0usize..=2).prop_flat_map(|nvars| {
        (
            proptest::collection::vec(atom_desc(nvars), 0..=2),
            proptest::option::of(atom_desc(nvars)),
            proptest::option::of((term_desc(nvars), term_desc(nvars))),
        )
            .prop_map(move |(body, head, eq)| ClauseDesc {
                nvars,
                body,
                head,
                eq,
            })
    })
}

fn build_system(clauses: &[ClauseDesc]) -> ChcSystem {
    let mut b = SystemBuilder::new();
    let nat = b.sort("Nat");
    let z = b.ctor("Z", vec![], nat);
    let s = b.ctor("S", vec![nat], nat);
    let preds = [b.pred("p", vec![nat]), b.pred("q", vec![nat, nat])];
    for cd in clauses {
        b.clause(|c| {
            let names = ["x0", "x1"];
            let vars: Vec<_> = (0..cd.nvars).map(|i| c.var(names[i], nat)).collect();
            let term = |c: &ringen_chc::ClauseBuilder, t: &TermDesc| -> Term {
                let base = match t.base {
                    Some(i) => c.v(vars[i]),
                    None => c.app0(z),
                };
                Term::iterate(s, base, t.iters)
            };
            for a in &cd.body {
                let args: Vec<Term> = a.args.iter().map(|t| term(c, t)).collect();
                c.body(preds[a.pred], args);
            }
            if let Some(a) = &cd.head {
                let args: Vec<Term> = a.args.iter().map(|t| term(c, t)).collect();
                c.head(preds[a.pred], args);
            }
            if let Some((l, r)) = &cd.eq {
                let tl = term(c, l);
                let tr = term(c, r);
                c.eq(tl, tr);
            }
        });
    }
    b.finish()
}

fn config(incremental: bool, minimize: bool) -> FinderConfig {
    FinderConfig {
        max_total_size: 4,
        incremental,
        minimize,
        ..FinderConfig::default()
    }
}

fn verdict(o: &FmfOutcome) -> &'static str {
    match o {
        FmfOutcome::Model(_) => "model",
        FmfOutcome::Exhausted => "exhausted",
        FmfOutcome::Interrupted => "interrupted",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental and one-shot sweeps answer identically on random
    /// systems, with minimization on (the default configuration).
    #[test]
    fn incremental_matches_one_shot(clauses in proptest::collection::vec(clause_desc(), 1..=5)) {
        let sys = build_system(&clauses);
        let (oi, si) = find_model_guarded(&sys, &config(true, true), &Guard::new()).unwrap();
        let (oo, so) = find_model_guarded(&sys, &config(false, true), &Guard::new()).unwrap();
        prop_assert_eq!(verdict(&oi), verdict(&oo));
        prop_assert_eq!(si.vectors_tried, so.vectors_tried);
        prop_assert_eq!(si.skipped_too_large, so.skipped_too_large);
        if let (FmfOutcome::Model(mi), FmfOutcome::Model(mo)) = (oi, oo) {
            prop_assert_eq!(mi.sizes(), mo.sizes());
            prop_assert!(mi.satisfies(&sys));
            prop_assert!(mo.satisfies(&sys));
        }
    }

    /// The agreement is independent of minimization: with shrinking off,
    /// the two paths still reach the same verdict at the same vector.
    #[test]
    fn agreement_survives_minimize_off(clauses in proptest::collection::vec(clause_desc(), 1..=4)) {
        let sys = build_system(&clauses);
        let (oi, si) = find_model_guarded(&sys, &config(true, false), &Guard::new()).unwrap();
        let (oo, so) = find_model_guarded(&sys, &config(false, false), &Guard::new()).unwrap();
        prop_assert_eq!(verdict(&oi), verdict(&oo));
        prop_assert_eq!(si.vectors_tried, so.vectors_tried);
        if let (FmfOutcome::Model(mi), FmfOutcome::Model(mo)) = (oi, oo) {
            prop_assert_eq!(mi.sizes(), mo.sizes());
            prop_assert!(mi.satisfies(&sys));
            prop_assert!(mo.satisfies(&sys));
        }
    }

    /// Minimization never changes the verdict or the first-model size
    /// vector — it only shrinks the predicate extension.
    #[test]
    fn minimization_preserves_the_verdict(clauses in proptest::collection::vec(clause_desc(), 1..=4)) {
        let sys = build_system(&clauses);
        let (om, sm) = find_model_guarded(&sys, &config(true, true), &Guard::new()).unwrap();
        let (or, sr) = find_model_guarded(&sys, &config(true, false), &Guard::new()).unwrap();
        prop_assert_eq!(verdict(&om), verdict(&or));
        prop_assert_eq!(sm.vectors_tried, sr.vectors_tried);
        if let (FmfOutcome::Model(mm), FmfOutcome::Model(mr)) = (om, or) {
            prop_assert_eq!(mm.sizes(), mr.sizes());
            let atoms = |m: &ringen_fmf::FiniteModel| -> usize {
                sys.rels.iter().map(|p| m.pred_table(p).count()).sum()
            };
            prop_assert!(atoms(&mm) <= atoms(&mr));
            prop_assert!(mm.satisfies(&sys));
        }
    }
}
