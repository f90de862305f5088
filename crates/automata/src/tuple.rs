//! Tree-tuple automata: DFTAs with a set of final state *tuples*.
//!
//! Definition 2–3 of the paper: an `n`-automaton accepts a tuple
//! `⟨t₁, …, tₙ⟩` iff `⟨A[t₁], …, A[tₙ]⟩ ∈ S_F`. The relations they accept
//! are the paper's `Reg` class. Boolean operations (product intersection /
//! union, complement via completion) witness the closure properties used
//! in §7 (e.g. Proposition 12's argument that `lt ∪ gt` would be regular).
//!
//! The constructions ride on the interned kernel of [`Dfta`]:
//! intersection and union are driven by the pair-interning worklist
//! product (only product-reachable state pairs are materialized), union
//! and complement enumerate final tuples over component indices instead
//! of the full state-space cartesian square, and 1-automaton
//! minimization refines partitions with single passes over the flat
//! rule table. Final tuples themselves are interned into a flat arena
//! keyed by an Fx probe table (`TupleSet`), so membership during
//! `accepts` and the tuple sweeps of `union`/`complement` is a single
//! hash probe instead of a `BTreeSet<Vec<StateId>>` walk.

use std::collections::BTreeMap;
use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHashSet, FxHasher};

use ringen_parallel::Guard;
use ringen_terms::intern::InternTable;
use ringen_terms::{GroundTerm, Signature, SortId};

use crate::dfta::{cartesian, Dfta, StateId};

/// An interned set of state tuples: every tuple lives once in a flat
/// arena, keyed through an open-addressing Fx table — the same design
/// as the transition left-hand sides, replacing the former
/// `BTreeSet<Vec<StateId>>` (one heap allocation per tuple and a
/// lexicographic walk per probe) with contiguous storage and O(1)
/// hash-probe membership. Iteration order is insertion order.
#[derive(Debug, Clone, Default)]
struct TupleSet {
    arity: usize,
    arena: Vec<StateId>,
    count: usize,
    table: InternTable,
}

fn tuple_hash(tuple: &[StateId]) -> u64 {
    let mut h = FxHasher::default();
    for s in tuple {
        h.write_u32(s.index() as u32);
    }
    h.finish()
}

impl TupleSet {
    fn with_arity(arity: usize) -> Self {
        TupleSet {
            arity,
            ..TupleSet::default()
        }
    }

    #[inline]
    fn tuple(&self, i: usize) -> &[StateId] {
        &self.arena[i * self.arity..(i + 1) * self.arity]
    }

    fn len(&self) -> usize {
        self.count
    }

    fn contains(&self, tuple: &[StateId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.table
            .find(tuple_hash(tuple), |i| self.tuple(i as usize) == tuple)
            .is_some()
    }

    /// Inserts the tuple; returns whether it was new.
    fn insert(&mut self, tuple: &[StateId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let hash = tuple_hash(tuple);
        if self
            .table
            .find(hash, |i| self.tuple(i as usize) == tuple)
            .is_some()
        {
            return false;
        }
        // `u32::MAX` is the probe table's empty sentinel — reject it
        // (not just overflow) so a full arena cannot corrupt the table.
        let i = u32::try_from(self.count)
            .ok()
            .filter(|i| *i != u32::MAX)
            .expect("final tuple count fits the id space");
        self.arena.extend_from_slice(tuple);
        self.count += 1;
        let TupleSet {
            table,
            arena,
            arity,
            ..
        } = self;
        table.insert_new(hash, i, |v| {
            tuple_hash(&arena[v as usize * *arity..(v as usize + 1) * *arity])
        });
        true
    }

    fn iter(&self) -> impl Iterator<Item = &[StateId]> + '_ {
        (0..self.count).map(|i| self.tuple(i))
    }
}

/// Set equality: insertion order does not matter.
impl PartialEq for TupleSet {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.count == other.count
            && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for TupleSet {}

/// A tree-tuple automaton over a shared [`Dfta`].
///
/// # Example
///
/// The 1-automaton for `even` (Example 1):
///
/// ```
/// use ringen_automata::{Dfta, TupleAutomaton};
/// use ringen_terms::{signature_helpers::nat_signature, GroundTerm};
///
/// let (sig, nat, z, s) = nat_signature();
/// let mut a = Dfta::new();
/// let s0 = a.add_state(nat);
/// let s1 = a.add_state(nat);
/// a.add_transition(z, vec![], s0);
/// a.add_transition(s, vec![s0], s1);
/// a.add_transition(s, vec![s1], s0);
/// let mut even = TupleAutomaton::new(a, vec![nat]);
/// even.add_final(vec![s0]);
///
/// let two = GroundTerm::iterate(s, GroundTerm::leaf(z), 2);
/// assert!(even.accepts(&[two]));
/// let one = GroundTerm::iterate(s, GroundTerm::leaf(z), 1);
/// assert!(!even.accepts(&[one]));
/// # let _ = sig;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleAutomaton {
    dfta: Dfta,
    sorts: Vec<SortId>,
    finals: TupleSet,
}

impl TupleAutomaton {
    /// Creates an automaton accepting tuples of the given component sorts,
    /// with an empty final set.
    pub fn new(dfta: Dfta, sorts: Vec<SortId>) -> Self {
        let finals = TupleSet::with_arity(sorts.len());
        TupleAutomaton {
            dfta,
            sorts,
            finals,
        }
    }

    /// Marks a state tuple as final.
    ///
    /// # Panics
    ///
    /// Panics if the tuple length or a component's sort does not match the
    /// automaton's arity declaration.
    pub fn add_final(&mut self, tuple: Vec<StateId>) {
        assert_eq!(tuple.len(), self.sorts.len(), "final tuple arity mismatch");
        for (s, want) in tuple.iter().zip(&self.sorts) {
            assert_eq!(
                self.dfta.sort_of(*s),
                *want,
                "final tuple component sort mismatch"
            );
        }
        self.finals.insert(&tuple);
    }

    /// Number of final tuples.
    pub fn final_count(&self) -> usize {
        self.finals.len()
    }

    /// The shared transition table.
    pub fn dfta(&self) -> &Dfta {
        &self.dfta
    }

    /// The component sorts `σ₁ × … × σₙ`.
    pub fn sorts(&self) -> &[SortId] {
        &self.sorts
    }

    /// Arity `n` of the accepted tuples.
    pub fn arity(&self) -> usize {
        self.sorts.len()
    }

    /// The final state tuples `S_F`, in insertion order.
    pub fn finals(&self) -> impl Iterator<Item = &[StateId]> + '_ {
        self.finals.iter()
    }

    /// Whether the tuple of ground terms is accepted (Definition 3).
    ///
    /// # Panics
    ///
    /// Panics if `terms.len()` differs from the automaton arity.
    pub fn accepts(&self, terms: &[GroundTerm]) -> bool {
        assert_eq!(terms.len(), self.sorts.len(), "tuple arity mismatch");
        let states: Option<Vec<StateId>> = terms.iter().map(|t| self.dfta.run(t)).collect();
        states.is_some_and(|sts| self.finals.contains(&sts))
    }

    /// Whether the accepted language is empty, considering only reachable
    /// states.
    pub fn is_empty(&self) -> bool {
        self.witness().is_none()
    }

    /// A tuple of ground terms accepted by the automaton, if any.
    pub fn witness(&self) -> Option<Vec<GroundTerm>> {
        let wit = self
            .dfta
            .witnesses_guarded(&Guard::new())
            .expect("an unarmed guard never trips");
        'tuples: for tuple in self.finals.iter() {
            let mut terms = Vec::with_capacity(tuple.len());
            for s in tuple {
                match &wit[s.index()] {
                    Some(t) => terms.push(t.clone()),
                    None => continue 'tuples,
                }
            }
            return Some(terms);
        }
        None
    }

    /// Intersection via the product construction. Both automata must have
    /// the same component sorts.
    ///
    /// # Panics
    ///
    /// Panics on arity/sort mismatch.
    pub fn intersection(&self, other: &TupleAutomaton) -> TupleAutomaton {
        assert_eq!(self.sorts, other.sorts, "intersecting different arities");
        let (p, map) = self
            .dfta
            .product_guarded(&other.dfta, &[], &Guard::new())
            .expect("an unarmed guard never trips");
        let mut out = TupleAutomaton::new(p, self.sorts.clone());
        for a in self.finals.iter() {
            for b in other.finals.iter() {
                let tuple: Option<Vec<StateId>> = a
                    .iter()
                    .zip(b)
                    .map(|(x, y)| map.get(&(*x, *y)).copied())
                    .collect();
                if let Some(t) = tuple {
                    out.finals.insert(&t);
                }
            }
        }
        out
    }

    /// Union via the product construction over *completed* automata (so
    /// that a run failing in one component cannot mask acceptance in the
    /// other).
    ///
    /// Final tuples are enumerated per final tuple of either operand,
    /// over indices of the product-reachable pairs sharing a component —
    /// not by sweeping every sort-correct tuple of the product square.
    ///
    /// # Panics
    ///
    /// Panics on arity/sort mismatch.
    pub fn union(&self, other: &TupleAutomaton, sig: &Signature) -> TupleAutomaton {
        assert_eq!(self.sorts, other.sorts, "uniting different arities");
        let a = self.dfta.completed(sig);
        let b = other.dfta.completed(sig);
        let (p, map) = a
            .product_guarded(&b, &[], &Guard::new())
            .expect("an unarmed guard never trips");
        let mut out = TupleAutomaton::new(p, self.sorts.clone());
        // Index the materialized pairs by each side's component.
        let mut by_left: FxHashMap<StateId, Vec<(StateId, StateId)>> = FxHashMap::default();
        let mut by_right: FxHashMap<StateId, Vec<(StateId, StateId)>> = FxHashMap::default();
        for &(x, y) in map.keys() {
            by_left.entry(x).or_default().push((x, y));
            by_right.entry(y).or_default().push((x, y));
        }
        let add_projected = |finals: &TupleSet,
                             index: &FxHashMap<StateId, Vec<(StateId, StateId)>>,
                             out_finals: &mut TupleSet| {
            for tuple in finals.iter() {
                let choices: Vec<Vec<(StateId, StateId)>> = tuple
                    .iter()
                    .map(|s| index.get(s).cloned().unwrap_or_default())
                    .collect();
                for combo in cartesian(&choices) {
                    let projected: Vec<StateId> = combo.iter().map(|xy| map[xy]).collect();
                    out_finals.insert(&projected);
                }
            }
        };
        add_projected(&self.finals, &by_left, &mut out.finals);
        add_projected(&other.finals, &by_right, &mut out.finals);
        out
    }

    /// Complement: completes the automaton and makes every sort-correct
    /// *reachable* non-final tuple final. (A run always lands on
    /// reachable states, so unreachable tuples cannot affect the
    /// language; skipping them keeps the final set small.)
    pub fn complement(&self, sig: &Signature) -> TupleAutomaton {
        let c = self.dfta.completed(sig);
        let reach = c
            .reachable_guarded(&Guard::new())
            .expect("an unarmed guard never trips");
        let choices: Vec<Vec<StateId>> = self
            .sorts
            .iter()
            .map(|s| c.states_of_sort(*s).filter(|q| reach.contains(q)).collect())
            .collect();
        let mut out = TupleAutomaton::new(c, self.sorts.clone());
        for combo in cartesian(&choices) {
            if !self.finals.contains(&combo) {
                out.finals.insert(&combo);
            }
        }
        out
    }

    /// Restricts to reachable states (dropping unreachable final tuples).
    pub fn trim(&self) -> TupleAutomaton {
        let reach = self
            .dfta
            .reachable_guarded(&Guard::new())
            .expect("an unarmed guard never trips");
        let (d, map) = self.dfta.restrict(&reach);
        let mut out = TupleAutomaton::new(d, self.sorts.clone());
        for tuple in self.finals.iter() {
            let t: Option<Vec<StateId>> = tuple.iter().map(|s| map.get(s).copied()).collect();
            if let Some(t) = t {
                out.finals.insert(&t);
            }
        }
        out
    }

    /// Minimizes a **1-automaton** by Moore partition refinement after
    /// trimming; the result accepts the same language.
    ///
    /// Refinement uses the substitution criterion of TATA §1.5: states
    /// `q ≡ q'` when exchanging one for the other at any single
    /// position of any rule — the *other* argument positions held at
    /// **concrete states** — reaches equivalent (or both-missing)
    /// targets. Abstracting the other positions to their classes, as the
    /// pre-interning kernel did, is unsound: two rules can share an
    /// argument-class vector yet reach different classes, so the
    /// "stable" partition merged inequivalent states and the quotient
    /// accepted extra terms. The differential property tests caught
    /// this; both kernels now carry the correct criterion, which also
    /// handles partial automata (a missing rule is a visibly absent
    /// signature entry).
    ///
    /// Each refinement round is a single pass over the flat rule table
    /// (appending one signature entry per rule argument occurrence),
    /// followed by a hash-grouping of states — `O(|Δ|·arity²)` per
    /// round instead of a per-state rescan of every rule.
    ///
    /// # Panics
    ///
    /// Panics if the arity is not 1 (tuple-automaton minimization is not
    /// canonical and is out of scope).
    pub fn minimized(&self, sig: &Signature) -> TupleAutomaton {
        assert_eq!(self.arity(), 1, "minimization requires a 1-automaton");
        let trimmed = self.trim();
        let d = &trimmed.dfta;
        let n = d.state_count();
        if n == 0 {
            return trimmed;
        }
        // class[s]: initially split by (sort, finality).
        let mut class: Vec<usize> = (0..n)
            .map(|i| {
                let s = StateId::from_index(i);
                let fin = trimmed.finals.contains(&[s]);
                2 * d.sort_of(s).index() + usize::from(fin)
            })
            .collect();
        // Signature entry of one rule occurrence: (func, occurrence
        // position, the *concrete* states at the other positions,
        // target class).
        type SigEntry = (usize, usize, Vec<usize>, usize);
        loop {
            let mut sigs: Vec<Vec<SigEntry>> = vec![Vec::new(); n];
            for (f, args, t) in d.transitions() {
                let t_class = class[t.index()];
                for (pos, a) in args.iter().enumerate() {
                    let others: Vec<usize> = args
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != pos)
                        .map(|(_, x)| x.index())
                        .collect();
                    sigs[a.index()].push((f.index(), pos, others, t_class));
                }
            }
            let mut next_class: FxHashMap<(usize, Vec<SigEntry>), usize> = FxHashMap::default();
            let mut new_ids: Vec<usize> = Vec::with_capacity(n);
            for (i, s) in sigs.iter_mut().enumerate() {
                s.sort();
                s.dedup();
                let key = (class[i], std::mem::take(s));
                let next = next_class.len();
                let id = *next_class.entry(key).or_insert(next);
                new_ids.push(id);
            }
            if new_ids == class {
                break;
            }
            class = new_ids;
        }
        // Build the quotient automaton.
        let mut out_d = Dfta::new();
        let mut rep: BTreeMap<usize, StateId> = BTreeMap::new();
        for (i, c) in class.iter().enumerate() {
            rep.entry(*c)
                .or_insert_with(|| out_d.add_state(d.sort_of(StateId::from_index(i))));
        }
        let mut seen: FxHashSet<(usize, Vec<StateId>)> = FxHashSet::default();
        let mut new_args: Vec<StateId> = Vec::new();
        for (f, args, t) in d.transitions() {
            new_args.clear();
            new_args.extend(args.iter().map(|a| rep[&class[a.index()]]));
            if seen.insert((f.index(), new_args.clone())) {
                out_d.add_transition_slice(f, &new_args, rep[&class[t.index()]]);
            }
        }
        let mut out = TupleAutomaton::new(out_d, trimmed.sorts.clone());
        for tuple in trimmed.finals.iter() {
            out.finals.insert(&[rep[&class[tuple[0].index()]]]);
        }
        // `sig` is kept in the signature for API stability (completion-
        // based strategies need it); the substitution criterion does not.
        let _ = sig;
        out
    }

    /// Bounded language-equivalence check: compares acceptance on every
    /// tuple of ground terms with height ≤ `height`. Used by tests; exact
    /// equivalence for 1-automata follows from minimization.
    pub fn agrees_with(&self, other: &TupleAutomaton, sig: &Signature, height: usize) -> bool {
        let per_sort: Vec<Vec<GroundTerm>> = self
            .sorts
            .iter()
            .map(|s| ringen_terms::herbrand::terms_up_to_height(sig, *s, height))
            .collect();
        for combo in cartesian(&per_sort) {
            if self.accepts(&combo) != other.accepts(&combo) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};
    use ringen_terms::FuncId;

    fn even_automaton() -> (Signature, TupleAutomaton, FuncId, FuncId) {
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let s0 = d.add_state(nat);
        let s1 = d.add_state(nat);
        d.add_transition(z, vec![], s0);
        d.add_transition(s, vec![s0], s1);
        d.add_transition(s, vec![s1], s0);
        let mut a = TupleAutomaton::new(d, vec![nat]);
        a.add_final(vec![s0]);
        (sig, a, z, s)
    }

    fn num(n: usize, z: FuncId, s: FuncId) -> GroundTerm {
        GroundTerm::iterate(s, GroundTerm::leaf(z), n)
    }

    #[test]
    fn tuple_set_interns_and_dedups() {
        let mut set = TupleSet::with_arity(2);
        let a = StateId::from_index(0);
        let b = StateId::from_index(1);
        assert!(set.insert(&[a, b]));
        assert!(!set.insert(&[a, b]));
        assert!(set.insert(&[b, a]));
        assert_eq!(set.len(), 2);
        assert!(set.contains(&[a, b]) && set.contains(&[b, a]));
        assert!(!set.contains(&[a, a]));
        // Equality is set equality, independent of insertion order.
        let mut other = TupleSet::with_arity(2);
        other.insert(&[b, a]);
        other.insert(&[a, b]);
        assert_eq!(set, other);
        other.insert(&[a, a]);
        assert_ne!(set, other);
        // Arity-0 sets hold at most the empty tuple.
        let mut nullary = TupleSet::with_arity(0);
        assert!(nullary.insert(&[]));
        assert!(!nullary.insert(&[]));
        assert_eq!(nullary.len(), 1);
    }

    #[test]
    fn accepts_even_numbers_only() {
        let (_sig, a, z, s) = even_automaton();
        for n in 0..12 {
            assert_eq!(a.accepts(&[num(n, z, s)]), n % 2 == 0, "n = {n}");
        }
    }

    #[test]
    fn incdec_two_automaton_of_proposition_4() {
        // Q_inc = {(s0,s1),(s1,s2),(s2,s0)} over the mod-3 automaton.
        let (_sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let q: Vec<StateId> = (0..3).map(|_| d.add_state(nat)).collect();
        d.add_transition(z, vec![], q[0]);
        for i in 0..3 {
            d.add_transition(s, vec![q[i]], q[(i + 1) % 3]);
        }
        let mut inc = TupleAutomaton::new(d.clone(), vec![nat, nat]);
        inc.add_final(vec![q[0], q[1]]);
        inc.add_final(vec![q[1], q[2]]);
        inc.add_final(vec![q[2], q[0]]);
        let mut dec = TupleAutomaton::new(d, vec![nat, nat]);
        dec.add_final(vec![q[1], q[0]]);
        dec.add_final(vec![q[2], q[1]]);
        dec.add_final(vec![q[0], q[2]]);
        // inc accepts (x, x+1); dec accepts (x+1, x); they are disjoint.
        for x in 0..8 {
            assert!(inc.accepts(&[num(x, z, s), num(x + 1, z, s)]));
            assert!(dec.accepts(&[num(x + 1, z, s), num(x, z, s)]));
            assert!(!inc.accepts(&[num(x + 1, z, s), num(x, z, s)]));
        }
        let both = inc.intersection(&dec);
        assert!(both.is_empty());
    }

    #[test]
    fn witness_and_emptiness() {
        let (_sig, a, _z, _s) = even_automaton();
        let w = a.witness().unwrap();
        assert_eq!(w[0].size(), 1); // Z
        assert!(!a.is_empty());
        // Automaton with unreachable final state is empty.
        let (sig2, nat, _z2, s2) = nat_signature();
        let mut d = Dfta::new();
        let dead = d.add_state(nat);
        d.add_transition(s2, vec![dead], dead);
        let mut b = TupleAutomaton::new(d, vec![nat]);
        b.add_final(vec![dead]);
        assert!(b.is_empty());
        assert_eq!(b.witness(), None);
        let _ = sig2;
    }

    #[test]
    fn complement_flips_membership() {
        let (sig, a, z, s) = even_automaton();
        let odd = a.complement(&sig);
        for n in 0..10 {
            assert_eq!(odd.accepts(&[num(n, z, s)]), n % 2 == 1, "n = {n}");
        }
        // Complement twice gives the original language.
        let even2 = odd.complement(&sig);
        assert!(even2.agrees_with(&a, &sig, 7));
    }

    #[test]
    fn union_and_intersection_semantics() {
        let (sig, even, z, s) = even_automaton();
        // mod-3 == 0 automaton.
        let nat = even.sorts()[0];
        let mut d = Dfta::new();
        let q: Vec<StateId> = (0..3).map(|_| d.add_state(nat)).collect();
        d.add_transition(z, vec![], q[0]);
        for i in 0..3 {
            d.add_transition(s, vec![q[i]], q[(i + 1) % 3]);
        }
        let mut mult3 = TupleAutomaton::new(d, vec![nat]);
        mult3.add_final(vec![q[0]]);

        let u = even.union(&mult3, &sig);
        let i = even.intersection(&mult3);
        for n in 0..20 {
            let t = [num(n, z, s)];
            assert_eq!(u.accepts(&t), n % 2 == 0 || n % 3 == 0, "u, n = {n}");
            assert_eq!(i.accepts(&t), n % 6 == 0, "i, n = {n}");
        }
    }

    #[test]
    fn union_of_two_automata_covers_both_relations() {
        // 2-ary union: inc ∪ eq over the mod-3 skeleton.
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let q: Vec<StateId> = (0..3).map(|_| d.add_state(nat)).collect();
        d.add_transition(z, vec![], q[0]);
        for i in 0..3 {
            d.add_transition(s, vec![q[i]], q[(i + 1) % 3]);
        }
        let mut inc = TupleAutomaton::new(d.clone(), vec![nat, nat]);
        for i in 0..3 {
            inc.add_final(vec![q[i], q[(i + 1) % 3]]);
        }
        let mut eq = TupleAutomaton::new(d, vec![nat, nat]);
        for qi in &q {
            eq.add_final(vec![*qi, *qi]);
        }
        let u = inc.union(&eq, &sig);
        for x in 0..6usize {
            for y in 0..6usize {
                let want = y % 3 == (x + 1) % 3 || x % 3 == y % 3;
                assert_eq!(
                    u.accepts(&[num(x, z, s), num(y, z, s)]),
                    want,
                    "x = {x}, y = {y}"
                );
            }
        }
    }

    #[test]
    fn trim_preserves_language() {
        let (sig, a, _z, _s) = even_automaton();
        // Add junk states.
        let mut big = a.clone();
        let nat = big.sorts()[0];
        let mut d = big.dfta().clone();
        let _junk = d.add_state(nat);
        let mut b = TupleAutomaton::new(d, vec![nat]);
        for f in a.finals() {
            b.add_final(f.to_vec());
        }
        let t = b.trim();
        assert_eq!(t.dfta().state_count(), 2);
        assert!(t.agrees_with(&a, &sig, 7));
        big = t;
        let _ = big;
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        // even-automaton duplicated: 4 states accepting the same language.
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let a0 = d.add_state(nat);
        let a1 = d.add_state(nat);
        let b0 = d.add_state(nat);
        let b1 = d.add_state(nat);
        d.add_transition(z, vec![], a0);
        d.add_transition(s, vec![a0], a1);
        d.add_transition(s, vec![a1], b0);
        d.add_transition(s, vec![b0], b1);
        d.add_transition(s, vec![b1], a0);
        let mut a = TupleAutomaton::new(d, vec![nat]);
        a.add_final(vec![a0]);
        a.add_final(vec![b0]);
        let m = a.minimized(&sig);
        assert_eq!(m.dfta().state_count(), 2);
        assert!(m.agrees_with(&a, &sig, 9));
    }

    #[test]
    fn minimize_keeps_distinct_states() {
        let (sig, a, ..) = even_automaton();
        let m = a.minimized(&sig);
        assert_eq!(m.dfta().state_count(), 2);
        assert!(m.agrees_with(&a, &sig, 9));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let (_sig, a, z, _s) = even_automaton();
        let _ = a.accepts(&[GroundTerm::leaf(z), GroundTerm::leaf(z)]);
    }

    #[test]
    #[should_panic(expected = "component sort mismatch")]
    fn final_sort_mismatch_panics() {
        // One signature with two sorts, so the ids genuinely differ.
        let (_sig, nat, list, _z, _s, nil, _cons) =
            ringen_terms::signature_helpers::nat_list_signature();
        let mut d = Dfta::new();
        let ql = d.add_state(list);
        d.add_transition(nil, vec![], ql);
        let mut a = TupleAutomaton::new(d, vec![nat]);
        a.add_final(vec![ql]);
    }

    #[test]
    fn evenleft_automaton_of_proposition_9() {
        let (sig, tree, leaf, node) = tree_signature();
        let mut d = Dfta::new();
        let s0 = d.add_state(tree);
        let s1 = d.add_state(tree);
        d.add_transition(leaf, vec![], s0);
        d.add_transition(node, vec![s0, s0], s1);
        d.add_transition(node, vec![s0, s1], s1);
        d.add_transition(node, vec![s1, s0], s0);
        d.add_transition(node, vec![s1, s1], s0);
        let mut a = TupleAutomaton::new(d, vec![tree]);
        a.add_final(vec![s0]);
        // Leftmost-branch length parity: leaf has 0 nodes on the left spine.
        let l = GroundTerm::leaf(leaf);
        assert!(a.accepts(std::slice::from_ref(&l)));
        let one = GroundTerm::app(node, vec![l.clone(), l.clone()]);
        assert!(!a.accepts(std::slice::from_ref(&one)));
        let two = GroundTerm::app(node, vec![one.clone(), l.clone()]);
        assert!(a.accepts(std::slice::from_ref(&two)));
        // Right children do not matter.
        let two_bushy = GroundTerm::app(node, vec![one.clone(), one.clone()]);
        assert!(a.accepts(std::slice::from_ref(&two_bushy)));
        assert!(a.minimized(&sig).agrees_with(&a, &sig, 4));
    }
}
