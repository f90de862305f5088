//! Executable definability analysis (§6, §7, Appendix A–C).
//!
//! The paper separates three representation classes with pumping lemmas
//! (negative results) and explicit constructions (positive results). This
//! module makes both directions executable:
//!
//! * **Positive `Reg`**: Theorem 1 turns the finite-model search itself
//!   into a complete enumeration of regular invariants by state count —
//!   [`search_regular_invariant`] reports the least one.
//! * **Negative `Reg`**: [`no_regular_invariant_up_to`] certifies that no
//!   model (equivalently, no shared-transition DFTA invariant) of total
//!   size ≤ k exists, the machine-checkable core of `Diag ∉ Reg` and
//!   `LtGt ∉ Reg` (Prop. 11/12 cite Comon et al. for the unbounded
//!   claim).
//! * **Negative `Elem`** (Lemma 6): [`pump`] computes `g[P ← t]` and
//!   [`pumping_refutes_elem`] runs the Prop. 1 argument: the pumped tuple
//!   must stay in any elementary safe invariant, yet together with facts
//!   of the least model it fires a query clause — contradiction.
//!
//! The `SizeElem` pumping lemma (Lemma 7) needs linear-set arithmetic and
//! lives in the `ringen-sizeelem` crate, which builds on these helpers.

use ringen_chc::{ChcSystem, Constraint, PredId};
use ringen_fmf::{find_model_guarded, FinderConfig, FmfOutcome};
use ringen_parallel::Guard;
use ringen_terms::{leaves, replace_all, GroundTerm, Path};

use crate::preprocess::preprocess;
use crate::saturation::Fact;

use rustc_hash::FxHashMap;

/// Result of the bounded regular-invariant search.
#[derive(Debug, Clone)]
pub struct RegSearch {
    /// The least model size at which an invariant was found, if any.
    pub found_at: Option<usize>,
    /// Sizes were exhausted up to this total (inclusive).
    pub exhausted_up_to: usize,
}

/// Searches for a regular invariant with total state count ≤
/// `max_total_size` by running the Figure 1 pipeline. Because model size
/// vectors are enumerated in order of total size, a `found_at = k` answer
/// means *no* smaller regular invariant of this shared-transition shape
/// exists.
pub fn search_regular_invariant(sys: &ChcSystem, max_total_size: usize) -> RegSearch {
    let pre = preprocess(sys);
    let cfg = FinderConfig {
        max_total_size,
        ..FinderConfig::default()
    };
    match find_model_guarded(&pre.system, &cfg, &Guard::new()) {
        Ok((FmfOutcome::Model(m), _)) => RegSearch {
            found_at: Some(m.size()),
            exhausted_up_to: m.size().saturating_sub(1),
        },
        // Interrupted is unreachable here: an unarmed guard never
        // trips, but the match must stay exhaustive.
        Ok((FmfOutcome::Exhausted | FmfOutcome::Interrupted, _)) | Err(_) => RegSearch {
            found_at: None,
            exhausted_up_to: max_total_size,
        },
    }
}

/// Certifies that the system has no regular invariant representable by a
/// finite model of total size ≤ `k` (the bounded, machine-checkable part
/// of the paper's negative `Reg` results).
pub fn no_regular_invariant_up_to(sys: &ChcSystem, k: usize) -> bool {
    search_regular_invariant(sys, k).found_at.is_none()
}

/// The pumping substitution of Lemma 6: replaces the subterms of `g` at
/// every path in `paths` simultaneously by `t`. Returns `None` if a path
/// misses `g`.
pub fn pump(g: &GroundTerm, paths: &[Path], t: &GroundTerm) -> Option<GroundTerm> {
    replace_all(g, paths, t)
}

/// A run of the Prop. 1 pumping argument against elementary
/// definability.
#[derive(Debug, Clone)]
pub struct ElemPumpingRefutation {
    /// The base tuple `⟨g₁,…,gₙ⟩` taken from the least model.
    pub base: Fact,
    /// The pumped component index `i` of Lemma 6.
    pub component: usize,
    /// Paths `P` that were replaced.
    pub paths: Vec<Path>,
    /// The replacement term `t` (height > N for the lemma's `N`).
    pub pumped_with: GroundTerm,
    /// The resulting tuple, which fires a query clause together with
    /// `context` — contradicting safety of any Elem invariant containing
    /// the least model.
    pub pumped: Fact,
    /// Additional least-model facts used to fire the query.
    pub context: Vec<Fact>,
    /// Index of the fired query clause.
    pub query_clause: usize,
}

/// Runs the Prop. 1 argument. `base` must be a least-model fact of
/// `pred` whose `component`-th term has `sort`-leaves deeper than the
/// would-be constant `K`; `pumped_with` plays the lemma's `t`; `context`
/// supplies the other least-model facts a query clause needs.
///
/// Returns a certificate if the pumped tuple (which Lemma 6 forces into
/// every elementary invariant L ⊇ lfp) makes some query clause fire —
/// i.e. L cannot be safe, so no elementary safe invariant exists.
///
/// The check instantiates each query clause with the pumped fact and the
/// context facts in every order and evaluates the ground constraints
/// natively; it is a complete check for the fixed instantiation.
pub fn pumping_refutes_elem(
    sys: &ChcSystem,
    pred: PredId,
    base: &[GroundTerm],
    component: usize,
    sort: ringen_terms::SortId,
    pumped_with: &GroundTerm,
    context: &[Fact],
) -> Option<ElemPumpingRefutation> {
    let g = &base[component];
    let paths = leaves(&sys.sig, g, sort);
    if paths.is_empty() {
        return None;
    }
    let mut pumped_terms = base.to_vec();
    pumped_terms[component] = pump(g, &paths, pumped_with)?;
    let pumped: Fact = (pred, pumped_terms);

    let mut facts: Vec<Fact> = vec![pumped.clone()];
    facts.extend(context.iter().cloned());

    for (ci, clause) in sys.clauses.iter().enumerate() {
        if !clause.is_query() {
            continue;
        }
        if query_fires(sys, ci, &facts) {
            return Some(ElemPumpingRefutation {
                base: (pred, base.to_vec()),
                component,
                paths,
                pumped_with: pumped_with.clone(),
                pumped,
                context: context.to_vec(),
                query_clause: ci,
            });
        }
    }
    None
}

/// Whether query clause `ci` fires given exactly the listed facts.
pub fn query_fires(sys: &ChcSystem, ci: usize, facts: &[Fact]) -> bool {
    let clause = &sys.clauses[ci];
    assert!(clause.is_query(), "clause {ci} is not a query");
    fires_from(sys, ci, 0, &ringen_terms::Substitution::new(), facts)
}

fn fires_from(
    sys: &ChcSystem,
    ci: usize,
    k: usize,
    sub: &ringen_terms::Substitution,
    facts: &[Fact],
) -> bool {
    let clause = &sys.clauses[ci];
    if k == clause.body.len() {
        return ground_constraints_hold(clause, sub);
    }
    let atom = &clause.body[k];
    for (p, args) in facts {
        if *p != atom.pred {
            continue;
        }
        let mut sub2 = sub.clone();
        let ok =
            atom.args.iter().zip(args).all(|(pat, g)| {
                ringen_terms::match_ground_into(&sub2.apply_deep(pat), g, &mut sub2)
            });
        if ok && fires_from(sys, ci, k + 1, &sub2, facts) {
            return true;
        }
    }
    false
}

fn ground_constraints_hold(clause: &ringen_chc::Clause, sub: &ringen_terms::Substitution) -> bool {
    clause.constraints.iter().all(|c| match c {
        Constraint::Eq(a, b) => {
            match (sub.apply_deep(a).to_ground(), sub.apply_deep(b).to_ground()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        }
        Constraint::Neq(a, b) => {
            match (sub.apply_deep(a).to_ground(), sub.apply_deep(b).to_ground()) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            }
        }
        Constraint::Tester {
            ctor,
            term,
            positive,
        } => match sub.apply_deep(term).to_ground() {
            Some(g) => (g.func() == *ctor) == *positive,
            None => false,
        },
    })
}

/// Membership oracle backed by bounded saturation: the facts of the
/// least Herbrand model up to the configured budgets. Useful for
/// checking that candidate invariants contain the least model.
#[derive(Debug, Clone)]
pub struct LfpOracle {
    facts: FxHashMap<PredId, Vec<Vec<GroundTerm>>>,
}

impl LfpOracle {
    /// Saturates the system and indexes the derived facts.
    pub fn new(sys: &ChcSystem, cfg: &crate::saturation::SaturationConfig) -> Self {
        use crate::saturation::SaturationOutcome;
        let (outcome, _) = crate::saturation::saturate_guarded(sys, cfg, &Guard::new());
        let base = match outcome {
            SaturationOutcome::Saturated(b)
            | SaturationOutcome::Budget(b)
            | SaturationOutcome::Interrupted(b) => b,
            SaturationOutcome::Refuted(_) => {
                // Unsat systems have no invariant; an empty oracle is the
                // honest answer.
                return LfpOracle {
                    facts: FxHashMap::default(),
                };
            }
        };
        let mut facts: FxHashMap<PredId, Vec<Vec<GroundTerm>>> = FxHashMap::default();
        for (p, args) in base.ground_facts() {
            facts.entry(p).or_default().push(args);
        }
        LfpOracle { facts }
    }

    /// Whether the tuple was derived (false negatives are possible beyond
    /// the saturation budget; false positives are not).
    pub fn contains(&self, p: PredId, args: &[GroundTerm]) -> bool {
        self.facts
            .get(&p)
            .is_some_and(|v| v.iter().any(|a| a == args))
    }

    /// All derived members of a predicate.
    pub fn members(&self, p: PredId) -> &[Vec<GroundTerm>] {
        self.facts.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn even_system() -> ChcSystem {
        parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (even x) (even y) (= y (S x))) false)))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn even_proposition_1() {
        // Prop. 1: pump g = S^{2K}(Z) at its single Nat leaf with the odd
        // term t = S^{2N+1}(Z); the result S^{2K+2N+1}(Z) together with
        // even(S^{2K+2N}(Z)) fires the query.
        let sys = even_system();
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let nat = sys.sig.sort_by_name("Nat").unwrap();
        let k = 4;
        let n = 3;
        let g = GroundTerm::iterate(s, GroundTerm::leaf(z), 2 * k);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), 2 * n + 1);
        // Context: even(S^{2K + 2N}(Z)) is in the least model.
        let ctx = vec![(
            even,
            vec![GroundTerm::iterate(s, GroundTerm::leaf(z), 2 * k + 2 * n)],
        )];
        let refutation =
            pumping_refutes_elem(&sys, even, &[g], 0, nat, &t, &ctx).expect("Prop. 1 applies");
        assert_eq!(refutation.paths.len(), 1);
        assert_eq!(refutation.pumped.1[0].height(), 2 * k + 2 * n + 1 + 1);
    }

    #[test]
    fn even_has_a_two_state_regular_invariant() {
        let sys = even_system();
        let found = search_regular_invariant(&sys, 6);
        assert_eq!(found.found_at, Some(2));
    }

    #[test]
    fn lfp_oracle_contains_even_numbers() {
        let sys = even_system();
        let oracle = LfpOracle::new(&sys, &crate::saturation::SaturationConfig::default());
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        for n in 0..6 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            assert_eq!(oracle.contains(even, &[t]), n % 2 == 0, "n = {n}");
        }
    }
}
