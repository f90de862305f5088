//! Regular invariants: finite models as tree tuple automata (Theorem 1).
//!
//! A finite model `ℳ` of the EUF-reduced system induces one shared
//! transition table (`τ f(x₁…xₙ) = ℳ(f)(x₁…xₙ)`, states = domain
//! elements) and, per predicate `P`, the final-state set `ℳ(P)`. The
//! resulting [`RegularInvariant`] *is* the safe inductive invariant the
//! paper's tool returns.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ringen_automata::{Dfta, StateId, TupleAutomaton};
use ringen_chc::{ChcSystem, PredId};
use ringen_fmf::FiniteModel;
use ringen_terms::{FuncKind, GroundTerm, SortId};

/// A regular (tree-automaton) interpretation of every uninterpreted
/// predicate of a CHC system — the `Reg` representation class.
#[derive(Debug, Clone)]
pub struct RegularInvariant {
    dfta: Dfta,
    /// `state_of[sort.index()][element]` is the automaton state of that
    /// model element.
    state_of: Vec<Vec<StateId>>,
    /// Final tuples per predicate.
    finals: BTreeMap<PredId, BTreeSet<Vec<StateId>>>,
    /// Predicate domains, for display and acceptance.
    domains: BTreeMap<PredId, Vec<SortId>>,
}

impl RegularInvariant {
    /// Converts a finite model into the invariant of Theorem 1. Only
    /// constructor symbols enter the transition table: selectors were
    /// eliminated by preprocessing and free symbols have no place in a
    /// Herbrand invariant.
    pub fn from_model(sys: &ChcSystem, model: &FiniteModel) -> Self {
        let sig = &sys.sig;
        let mut dfta = Dfta::new();
        let mut state_of: Vec<Vec<StateId>> = Vec::with_capacity(sig.sort_count());
        for sort in sig.sorts() {
            let n = model.size_of(sort);
            state_of.push((0..n).map(|_| dfta.add_state(sort)).collect());
        }
        for f in sig.funcs() {
            let decl = sig.func(f);
            if decl.kind != FuncKind::Constructor {
                continue;
            }
            let dims: Vec<usize> = decl.domain.iter().map(|&s| model.size_of(s)).collect();
            for args in product(&dims) {
                let target = model.apply(sig, f, &args);
                let arg_states: Vec<StateId> = args
                    .iter()
                    .zip(&decl.domain)
                    .map(|(&a, &s)| state_of[s.index()][a])
                    .collect();
                dfta.add_transition(f, arg_states, state_of[decl.range.index()][target]);
            }
        }
        let mut finals = BTreeMap::new();
        let mut domains = BTreeMap::new();
        for p in sys.rels.iter() {
            let domain = sys.rels.decl(p).domain.clone();
            let set: BTreeSet<Vec<StateId>> = model
                .pred_table(p)
                .map(|tuple| {
                    tuple
                        .iter()
                        .zip(&domain)
                        .map(|(&a, &s)| state_of[s.index()][a])
                        .collect()
                })
                .collect();
            finals.insert(p, set);
            domains.insert(p, domain);
        }
        RegularInvariant {
            dfta,
            state_of,
            finals,
            domains,
        }
    }

    /// The shared transition table.
    pub fn dfta(&self) -> &Dfta {
        &self.dfta
    }

    /// The predicates interpreted by this invariant.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.finals.keys().copied()
    }

    /// Final state tuples of a predicate.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not interpreted by this invariant.
    pub fn finals(&self, p: PredId) -> &BTreeSet<Vec<StateId>> {
        &self.finals[&p]
    }

    /// Mutable access to the final tuples of a predicate — useful for
    /// building invariants by hand (examples, weakening experiments) and
    /// for negative tests of the inductiveness checker.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not interpreted by this invariant.
    pub fn finals_mut(&mut self, p: PredId) -> &mut BTreeSet<Vec<StateId>> {
        self.finals.get_mut(&p).expect("predicate is interpreted")
    }

    /// The automaton state of a model element.
    pub fn state_of(&self, sort: SortId, element: usize) -> StateId {
        self.state_of[sort.index()][element]
    }

    /// Builds the standalone tuple automaton of one predicate
    /// (Definition 2/3), sharing no structure with the invariant.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not interpreted by this invariant.
    pub fn automaton(&self, p: PredId) -> TupleAutomaton {
        let mut a = TupleAutomaton::new(self.dfta.clone(), self.domains[&p].clone());
        for tuple in &self.finals[&p] {
            a.add_final(tuple.clone());
        }
        a
    }

    /// Whether the invariant holds of a ground tuple: runs the shared
    /// DFTA on every component and looks the state tuple up (Def. 3).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not interpreted by this invariant.
    pub fn holds(&self, p: PredId, terms: &[GroundTerm]) -> bool {
        let states: Option<Vec<StateId>> = terms.iter().map(|t| self.dfta.run(t)).collect();
        match states {
            Some(tuple) => self.finals[&p].contains(&tuple),
            None => false,
        }
    }

    /// Total number of automaton states (= sum of model sort
    /// cardinalities; the x-axis of the paper's Figure 6).
    pub fn state_count(&self) -> usize {
        self.dfta.state_count()
    }

    /// Renders the invariant with sort/predicate names.
    pub fn display<'a>(&'a self, sys: &'a ChcSystem) -> DisplayInvariant<'a> {
        DisplayInvariant { inv: self, sys }
    }
}

/// Enumerates all index tuples below the per-position bounds.
fn product(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for &d in dims {
        let mut next = Vec::with_capacity(out.len() * d);
        for prefix in &out {
            for i in 0..d {
                let mut t = prefix.clone();
                t.push(i);
                next.push(t);
            }
        }
        out = next;
    }
    out
}

/// Human-readable rendering of a [`RegularInvariant`].
#[derive(Debug)]
pub struct DisplayInvariant<'a> {
    inv: &'a RegularInvariant,
    sys: &'a ChcSystem,
}

impl fmt::Display for DisplayInvariant<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.inv.dfta.display(&self.sys.sig))?;
        for (p, finals) in &self.inv.finals {
            let name = &self.sys.rels.decl(*p).name;
            write!(f, "finals({name}) = {{")?;
            for (i, tuple) in finals.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, s) in tuple.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "q{}", s.index())?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;
    use ringen_fmf::{find_model_guarded, FinderConfig};
    use ringen_parallel::Guard;
    use ringen_terms::GroundTerm;

    fn even_system() -> ChcSystem {
        parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn even_model_gives_the_papers_automaton() {
        let sys = even_system();
        let (outcome, _) =
            find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().expect("even has a 2-element model");
        let inv = RegularInvariant::from_model(&sys, &model);
        assert_eq!(inv.state_count(), 2);
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        for n in 0..20usize {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            assert_eq!(inv.holds(even, &[t]), n % 2 == 0, "n = {n}");
        }
        // The per-predicate automaton agrees.
        let a = inv.automaton(even);
        let four = GroundTerm::iterate(s, GroundTerm::leaf(z), 4);
        assert!(a.accepts(&[four]));
    }

    #[test]
    fn product_enumerates_lexicographically() {
        assert_eq!(product(&[]), vec![Vec::<usize>::new()]);
        assert_eq!(product(&[2, 2]).len(), 4);
        assert_eq!(product(&[3])[2], vec![2]);
    }
}
