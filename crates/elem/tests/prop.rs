//! Property tests for the Oppen-style decision procedure: `Unsat`
//! verdicts are never contradicted by an explicit small model,
//! ground-satisfiable cubes are never reported `Unsat`, and the order of
//! a cube's literals never changes its verdict.

use proptest::prelude::*;
use ringen_elem::{check_cube, CubeSat, Literal};
use ringen_terms::{
    herbrand::terms_by_size,
    signature_helpers::{nat_signature, tree_signature},
    FuncId, GroundTerm, SortId, Term, VarContext,
};

fn ground_term(t: &Term, gx: &GroundTerm, gy: &GroundTerm, x: ringen_terms::VarId) -> GroundTerm {
    match t {
        Term::Var(v) => {
            if *v == x {
                gx.clone()
            } else {
                gy.clone()
            }
        }
        Term::App(f, args) => {
            GroundTerm::app(*f, args.iter().map(|a| ground_term(a, gx, gy, x)).collect())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn unsat_verdicts_have_no_small_model(seeds in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3, 0u8..3), 1..4)) {
        let (sig, nat, z, s) = nat_signature();
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        let term = |side: u8, wrap: u8| -> Term {
            let base = if side == 0 { Term::var(x) } else if side == 1 { Term::var(y) } else { Term::leaf(z) };
            (0..wrap).fold(base, |t, _| Term::app(s, vec![t]))
        };
        let cube: Vec<Literal> = seeds
            .iter()
            .map(|&(a, wa, b, wb, kind)| {
                let (ta, tb) = (term(a, wa), term(b, wb));
                match kind {
                    0 => Literal::Eq(ta, tb),
                    1 => Literal::Neq(ta, tb),
                    _ => Literal::Tester { ctor: if wb % 2 == 0 { s } else { z }, term: ta, positive: a % 2 == 0 },
                }
            })
            .collect();
        let verdict = check_cube(&sig, &vars, &cube);
        // Ground check over all pairs of small terms.
        let pool = terms_by_size(&sig, nat, 6);
        let mut ground_sat = false;
        'outer: for gx in &pool {
            for gy in &pool {
                let holds = cube.iter().all(|l| {
                    let eval = |t: &Term| ground_term(t, gx, gy, x);
                    match l {
                        Literal::Eq(a, b) => eval(a) == eval(b),
                        Literal::Neq(a, b) => eval(a) != eval(b),
                        Literal::Tester { ctor, term, positive } => {
                            (eval(term).func() == *ctor) == *positive
                        }
                    }
                });
                if holds {
                    ground_sat = true;
                    break 'outer;
                }
            }
        }
        if verdict == CubeSat::Unsat {
            prop_assert!(!ground_sat, "DP said Unsat but a small model exists: {cube:?}");
        }
        if ground_sat {
            prop_assert_eq!(verdict, CubeSat::Sat);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn literal_order_never_changes_the_verdict(seeds in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..3, 0u8..4), 2..7), deep in 3u8..25, rot in 1usize..6) {
        let (nat_sig, nat, z, s) = nat_signature();
        let (tree_sig, tree, leaf, node) = tree_signature();
        let (nat_vars, nat_cube) =
            seeded_cube(nat, z, |t| Term::app(s, vec![t]), [z, s], &seeds, deep);
        let (tree_vars, tree_cube) = seeded_cube(
            tree,
            leaf,
            |t| Term::app(node, vec![t, Term::leaf(leaf)]),
            [leaf, node],
            &seeds,
            deep,
        );
        for (sig, vars, cube) in [(&nat_sig, &nat_vars, nat_cube), (&tree_sig, &tree_vars, tree_cube)] {
            let verdict = check_cube(sig, vars, &cube);
            let mut reversed = cube.clone();
            reversed.reverse();
            let mut rotated = cube.clone();
            rotated.rotate_left(rot % cube.len());
            prop_assert_eq!(check_cube(sig, vars, &reversed), verdict, "{verdict:?} for {cube:?}, not for its reversal");
            prop_assert_eq!(check_cube(sig, vars, &rotated), verdict, "{verdict:?} for {cube:?}, not for its rotation");
        }
    }
}

/// One literal: left side, its wrap, right side, its wrap, kind. Kinds 0
/// and 1 are equalities, 2 a disequality and 3 a tester of the left
/// side's variable, whose constructor and polarity come from the right
/// seeds.
type LitSeed = (u8, u8, u8, u8, u8);

/// Builds a cube over `sort` from literal seeds. Sides 0 and 1 are the
/// variables `x` and `y`, side 2 is `constant`; wrap seeds 0 and 1 apply
/// `wrap` that many times and 2 applies it `deep` times.
fn seeded_cube(
    sort: SortId,
    constant: FuncId,
    wrap: impl Fn(Term) -> Term,
    testers: [FuncId; 2],
    seeds: &[LitSeed],
    deep: u8,
) -> (VarContext, Vec<Literal>) {
    let mut vars = VarContext::new();
    let (x, y) = (vars.fresh("x", sort), vars.fresh("y", sort));
    let term = |side: u8, w: u8| {
        let base = match side {
            0 => Term::var(x),
            1 => Term::var(y),
            _ => Term::leaf(constant),
        };
        (0..if w == 2 { deep } else { w }).fold(base, |t, _| wrap(t))
    };
    let cube = seeds
        .iter()
        .map(|&(a, wa, b, wb, kind)| match kind {
            0 | 1 => Literal::Eq(term(a, wa), term(b, wb)),
            2 => Literal::Neq(term(a, wa), term(b, wb)),
            _ => Literal::Tester {
                ctor: testers[usize::from(wb % 2)],
                term: term(a % 2, 0),
                positive: b % 2 == 0,
            },
        })
        .collect();
    (vars, cube)
}
