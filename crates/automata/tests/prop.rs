//! Property tests: the boolean operations on tuple automata agree with
//! their set semantics on enumerated ground terms.

use proptest::prelude::*;
use ringen_automata::{Dfta, Nfta, TupleAutomaton};
use ringen_terms::{signature_helpers::nat_signature, GroundTerm};

/// A random complete 1-DFTA over the Nat signature with `n` states:
/// pick the Z target and the S successor per state, plus a final set.
fn automaton(n: usize, z_t: usize, s_t: &[usize], finals: &[bool]) -> TupleAutomaton {
    let (sig, nat, z, s) = nat_signature();
    let _ = sig;
    let mut d = Dfta::new();
    let states: Vec<_> = (0..n).map(|_| d.add_state(nat)).collect();
    d.add_transition(z, vec![], states[z_t % n]);
    for (i, &t) in s_t.iter().enumerate().take(n) {
        d.add_transition(s, vec![states[i]], states[t % n]);
    }
    let mut a = TupleAutomaton::new(d, vec![nat]);
    for (i, &f) in finals.iter().enumerate().take(n) {
        if f {
            a.add_final(vec![states[i]]);
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn boolean_ops_match_set_semantics(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
        zb in 0usize..3, sb in prop::collection::vec(0usize..3, 3),
        fb in prop::collection::vec(any::<bool>(), 3),
        n in 0usize..24,
    ) {
        let (sig, _, z, s) = nat_signature();
        let a = automaton(3, za, &sa, &fa);
        let b = automaton(3, zb, &sb, &fb);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        let ta = a.accepts(std::slice::from_ref(&t));
        let tb = b.accepts(std::slice::from_ref(&t));
        prop_assert_eq!(a.intersection(&b).accepts(std::slice::from_ref(&t)), ta && tb);
        prop_assert_eq!(a.union(&b, &sig).accepts(std::slice::from_ref(&t)), ta || tb);
        prop_assert_eq!(a.complement(&sig).accepts(std::slice::from_ref(&t)), !ta);
        // Minimization preserves the language.
        prop_assert_eq!(a.minimized(&sig).accepts(std::slice::from_ref(&t)), ta);
    }

    #[test]
    fn emptiness_agrees_with_witnesses(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
    ) {
        let a = automaton(3, za, &sa, &fa);
        match a.witness() {
            Some(w) => prop_assert!(a.accepts(&w)),
            None => prop_assert!(a.is_empty()),
        }
    }
}

/// A random NFTA over the Nat signature with 3 states: bitmask-encoded
/// target sets for Z and for S from each state, plus a final bitmask.
fn random_nfta(z_mask: u8, s_masks: &[u8], final_mask: u8) -> Nfta {
    let (_sig, nat, z, s) = nat_signature();
    let mut a = Nfta::new();
    let states: Vec<_> = (0..3).map(|_| a.add_state(nat)).collect();
    let targets = |mask: u8| -> Vec<_> {
        states
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, q)| *q)
            .collect()
    };
    a.add_transition(z, vec![], &targets(z_mask));
    for (i, &m) in s_masks.iter().enumerate().take(3) {
        a.add_transition(s, vec![states[i]], &targets(m));
    }
    for (i, q) in states.iter().enumerate() {
        if final_mask & (1 << i) != 0 {
            a.add_final(*q);
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Subset-construction determinization preserves the language: the
    /// decisive NFTA-vs-DFTA equivalence, on random 3-state automata.
    #[test]
    fn determinization_preserves_language(
        zm in 0u8..8, sm in prop::collection::vec(0u8..8, 3), fm in 0u8..8,
        n in 0usize..24,
    ) {
        let (_sig, _, z, s) = nat_signature();
        let a = random_nfta(zm, &sm, fm);
        let d = a.determinize();
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        prop_assert_eq!(d.accepts(std::slice::from_ref(&t)), a.accepts(&t));
    }

    /// NFTA union by juxtaposition is language union, and determinizing
    /// the union agrees with the deterministic union of determinizations.
    #[test]
    fn nfta_union_is_language_union(
        zma in 0u8..8, sma in prop::collection::vec(0u8..8, 3), fma in 0u8..8,
        zmb in 0u8..8, smb in prop::collection::vec(0u8..8, 3), fmb in 0u8..8,
        n in 0usize..20,
    ) {
        let (_sig, _, z, s) = nat_signature();
        let a = random_nfta(zma, &sma, fma);
        let b = random_nfta(zmb, &smb, fmb);
        let u = a.union(&b);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        prop_assert_eq!(u.accepts(&t), a.accepts(&t) || b.accepts(&t));
        let du = u.determinize();
        prop_assert_eq!(du.accepts(std::slice::from_ref(&t)), a.accepts(&t) || b.accepts(&t));
    }

    /// A round trip through `from_dfta` changes nothing.
    #[test]
    fn dfta_embedding_round_trips(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
        n in 0usize..20,
    ) {
        let (_sig, _, z, s) = nat_signature();
        let a = automaton(3, za, &sa, &fa);
        let finals: Vec<_> = a.finals().map(|f| f[0]).collect();
        let nf = Nfta::from_dfta(a.dfta(), finals);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        prop_assert_eq!(nf.accepts(&t), a.accepts(std::slice::from_ref(&t)));
        prop_assert_eq!(
            nf.determinize().accepts(std::slice::from_ref(&t)),
            a.accepts(std::slice::from_ref(&t))
        );
    }
}

// ---------------------------------------------------------------------
// Differential tests: the interned kernel against the pre-refactor
// ordered-map kernel (`ringen_automata::reference`), which is kept as
// the executable specification. Every operation the refactor touched —
// `run`, `eval`, product, the Boolean closures, minimization and the
// fixpoints — must agree on randomly generated automata and terms.
// ---------------------------------------------------------------------

use ringen_automata::reference::{RefDfta, RefTupleAutomaton};
use ringen_automata::StateId;
use ringen_parallel::Guard;
use ringen_terms::signature_helpers::tree_signature;
use ringen_terms::Term;
use std::collections::BTreeMap;

/// Builds the same random complete Nat 1-automaton in both kernels.
fn nat_pair(
    n: usize,
    z_t: usize,
    s_t: &[usize],
    finals: &[bool],
) -> (RefTupleAutomaton, TupleAutomaton) {
    let (_sig, nat, z, s) = nat_signature();
    let mut rd = RefDfta::new();
    let mut d = Dfta::new();
    let rstates: Vec<_> = (0..n).map(|_| rd.add_state(nat)).collect();
    let states: Vec<_> = (0..n).map(|_| d.add_state(nat)).collect();
    rd.add_transition(z, vec![], rstates[z_t % n]);
    d.add_transition(z, vec![], states[z_t % n]);
    for (i, &t) in s_t.iter().enumerate().take(n) {
        rd.add_transition(s, vec![rstates[i]], rstates[t % n]);
        d.add_transition(s, vec![states[i]], states[t % n]);
    }
    let mut ra = RefTupleAutomaton::new(rd, vec![nat]);
    let mut a = TupleAutomaton::new(d, vec![nat]);
    for (i, &f) in finals.iter().enumerate().take(n) {
        if f {
            ra.add_final(vec![rstates[i]]);
            a.add_final(vec![states[i]]);
        }
    }
    (ra, a)
}

/// Builds the same random (possibly partial) Tree 1-automaton in both
/// kernels: `node_t[i * n + j]` is the target of `node(qᵢ, qⱼ)`; an
/// entry of `n` means "no rule" (partial run, exercising ⊥).
fn tree_pair(
    n: usize,
    leaf_t: usize,
    node_t: &[usize],
    finals: &[bool],
) -> (RefTupleAutomaton, TupleAutomaton) {
    let (_sig, tree, leaf, node) = tree_signature();
    let mut rd = RefDfta::new();
    let mut d = Dfta::new();
    let rstates: Vec<_> = (0..n).map(|_| rd.add_state(tree)).collect();
    let states: Vec<_> = (0..n).map(|_| d.add_state(tree)).collect();
    rd.add_transition(leaf, vec![], rstates[leaf_t % n]);
    d.add_transition(leaf, vec![], states[leaf_t % n]);
    for i in 0..n {
        for j in 0..n {
            let t = node_t[i * n + j];
            if t < n {
                rd.add_transition(node, vec![rstates[i], rstates[j]], rstates[t]);
                d.add_transition(node, vec![states[i], states[j]], states[t]);
            }
        }
    }
    let mut ra = RefTupleAutomaton::new(rd, vec![tree]);
    let mut a = TupleAutomaton::new(d, vec![tree]);
    for (i, &f) in finals.iter().enumerate().take(n) {
        if f {
            ra.add_final(vec![rstates[i]]);
            a.add_final(vec![states[i]]);
        }
    }
    (ra, a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn differential_run_on_nat_chains(
        zt in 0usize..3, st in prop::collection::vec(0usize..3, 3),
        fin in prop::collection::vec(any::<bool>(), 3),
        n in 0usize..40,
    ) {
        let (_sig, _, z, s) = nat_signature();
        let (ra, a) = nat_pair(3, zt, &st, &fin);
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        prop_assert_eq!(a.dfta().run(&t), ra.dfta().run(&t));
        prop_assert_eq!(a.accepts(std::slice::from_ref(&t)), ra.accepts(std::slice::from_ref(&t)));
    }

    #[test]
    fn differential_run_on_bushy_trees(
        lt in 0usize..3,
        // Entries up to 3 inclusive: 3 = missing rule (partial automaton).
        nt in prop::collection::vec(0usize..4, 9),
        fin in prop::collection::vec(any::<bool>(), 3),
    ) {
        let (sig, tree, _leaf, _node) = tree_signature();
        let (ra, a) = tree_pair(3, lt, &nt, &fin);
        for t in ringen_terms::herbrand::terms_up_to_height(&sig, tree, 3) {
            prop_assert_eq!(a.dfta().run(&t), ra.dfta().run(&t));
            prop_assert_eq!(
                a.accepts(std::slice::from_ref(&t)),
                ra.accepts(std::slice::from_ref(&t))
            );
        }
    }

    #[test]
    fn differential_eval_under_all_envs(
        zt in 0usize..3, st in prop::collection::vec(0usize..3, 3),
        fin in prop::collection::vec(any::<bool>(), 3),
        depth in 0usize..6,
    ) {
        let (_sig, nat, _z, s) = nat_signature();
        let (ra, a) = nat_pair(3, zt, &st, &fin);
        let mut ctx = ringen_terms::VarContext::new();
        let x = ctx.fresh("x", nat);
        let term = Term::iterate(s, Term::var(x), depth); // Sᵈᵉᵖᵗʰ(x)
        for q in 0..3 {
            let env: BTreeMap<_, _> = [(x, StateId::from_index(q))].into();
            prop_assert_eq!(a.dfta().eval(&term, &env), ra.dfta().eval(&term, &env));
        }
        let empty = BTreeMap::new();
        prop_assert_eq!(a.dfta().eval(&term, &empty), ra.dfta().eval(&term, &empty));
    }

    #[test]
    fn differential_product_runs(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        zb in 0usize..3, sb in prop::collection::vec(0usize..3, 3),
        n in 0usize..24,
    ) {
        let (_sig, _, z, s) = nat_signature();
        let fin = vec![false; 3];
        let (ra, a) = nat_pair(3, za, &sa, &fin);
        let (rb, b) = nat_pair(3, zb, &sb, &fin);
        let (p, map) = a.dfta().product_guarded(b.dfta(), &[], &Guard::new()).unwrap();
        let (rp, rmap) = ra.dfta().product(rb.dfta());
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
        // Both products track the pair of component runs.
        let (qa, qb) = (a.dfta().run(&t).unwrap(), b.dfta().run(&t).unwrap());
        prop_assert_eq!(p.run(&t), map.get(&(qa, qb)).copied());
        prop_assert_eq!(rp.run(&t), rmap.get(&(qa, qb)).copied());
        // The interned product materializes exactly the reachable pairs,
        // which must be a subset of the reference's full square.
        for pair in map.keys() {
            prop_assert!(rmap.contains_key(pair));
        }
    }

    #[test]
    fn differential_boolean_ops(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
        zb in 0usize..3, sb in prop::collection::vec(0usize..3, 3),
        fb in prop::collection::vec(any::<bool>(), 3),
        n in 0usize..24,
    ) {
        let (sig, _, z, s) = nat_signature();
        let (ra, a) = nat_pair(3, za, &sa, &fa);
        let (rb, b) = nat_pair(3, zb, &sb, &fb);
        let t = [GroundTerm::iterate(s, GroundTerm::leaf(z), n)];
        prop_assert_eq!(
            a.intersection(&b).accepts(&t),
            ra.intersection(&rb).accepts(&t)
        );
        prop_assert_eq!(a.union(&b, &sig).accepts(&t), ra.union(&rb, &sig).accepts(&t));
        prop_assert_eq!(a.complement(&sig).accepts(&t), ra.complement(&sig).accepts(&t));
    }

    #[test]
    fn differential_minimization(
        lt in 0usize..3,
        // Entries up to 3 inclusive: 3 = missing rule, so minimization
        // of *partial* automata is exercised too.
        nt in prop::collection::vec(0usize..4, 9),
        fin in prop::collection::vec(any::<bool>(), 3),
    ) {
        let (sig, tree, _leaf, _node) = tree_signature();
        let (ra, a) = tree_pair(3, lt, &nt, &fin);
        let m = a.minimized(&sig);
        let rm = ra.minimized(&sig);
        // Moore refinement is canonical on the trimmed automaton: both
        // kernels must land on the same number of classes…
        prop_assert_eq!(m.dfta().state_count(), rm.dfta().state_count());
        // …and the same language.
        for t in ringen_terms::herbrand::terms_up_to_height(&sig, tree, 3) {
            let want = ra.accepts(std::slice::from_ref(&t));
            prop_assert_eq!(m.accepts(std::slice::from_ref(&t)), want);
            prop_assert_eq!(rm.accepts(std::slice::from_ref(&t)), want);
        }
    }

    #[test]
    fn differential_fixpoints(
        lt in 0usize..3,
        nt in prop::collection::vec(0usize..4, 9),
        fin in prop::collection::vec(any::<bool>(), 3),
    ) {
        let (ra, a) = tree_pair(3, lt, &nt, &fin);
        prop_assert_eq!(a.dfta().reachable_guarded(&Guard::new()).unwrap(), ra.dfta().reachable());
        let wit = a.dfta().witnesses_guarded(&Guard::new()).unwrap();
        let rwit = ra.dfta().witnesses();
        for (i, (w, rw)) in wit.iter().zip(&rwit).enumerate() {
            prop_assert_eq!(w.is_some(), rw.is_some(), "state {}", i);
            if let (Some(w), Some(rw)) = (w, rw) {
                // Both witnesses must run to their state; the worklist
                // kernel's breadth-first witness is never taller.
                let s = StateId::from_index(i);
                prop_assert_eq!(a.dfta().run(w), Some(s));
                prop_assert_eq!(ra.dfta().run(rw), Some(s));
                prop_assert!(w.height() <= rw.height());
            }
        }
    }

    #[test]
    fn differential_run_cached(
        lt in 0usize..3,
        nt in prop::collection::vec(0usize..4, 9),
    ) {
        let (sig, tree, _leaf, _node) = tree_signature();
        let (_ra, a) = tree_pair(3, lt, &nt, &[false, false, false]);
        // The cache borrows the terms, so keep them alive across it.
        let terms = ringen_terms::herbrand::terms_up_to_height(&sig, tree, 3);
        let mut cache = ringen_automata::RunCache::new();
        for t in &terms {
            prop_assert_eq!(a.dfta().run_cached(t, &mut cache), a.dfta().run(t));
        }
    }

    /// `run_pooled` keyed on `TermId` agrees with the plain iterative
    /// run, the structural-hash `run_cached`, and the reference kernel
    /// — on partial automata too (cached ⊥ results included).
    #[test]
    fn differential_run_pooled(
        lt in 0usize..3,
        nt in prop::collection::vec(0usize..4, 9),
    ) {
        let (sig, tree, _leaf, _node) = tree_signature();
        let (ra, a) = tree_pair(3, lt, &nt, &[false, false, false]);
        let mut pool = ringen_terms::TermPool::new();
        let ids =
            ringen_terms::herbrand::pooled_terms_up_to_height(&sig, tree, 3, &mut pool);
        let mut pooled_cache = ringen_automata::PoolRunCache::new();
        let mut cache = ringen_automata::RunCache::new();
        let terms: Vec<GroundTerm> = ids.iter().map(|&id| pool.to_ground(id)).collect();
        for (id, t) in ids.iter().zip(&terms) {
            let by_id = a.dfta().run_pooled(&pool, *id, &mut pooled_cache);
            prop_assert_eq!(by_id, a.dfta().run(t));
            prop_assert_eq!(by_id, a.dfta().run_cached(t, &mut cache));
            prop_assert_eq!(by_id, ra.dfta().run(t));
        }
        // Replay from the warm cache: answers must be stable.
        for (id, t) in ids.iter().zip(&terms) {
            prop_assert_eq!(
                a.dfta().run_pooled(&pool, *id, &mut pooled_cache),
                a.dfta().run(t)
            );
        }
    }
}
