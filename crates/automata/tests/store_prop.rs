//! Differential property tests for the hash-consed automaton store:
//! every memoized Boolean operation — cold call and warm call — is
//! pinned against the reference kernel of `ringen_automata::reference`,
//! including minimize-after-product chains.

use proptest::prelude::*;
use ringen_automata::reference::{RefDfta, RefTupleAutomaton};
use ringen_automata::{AutStore, Dfta, TupleAutomaton};
use ringen_terms::signature_helpers::nat_signature;
use ringen_terms::GroundTerm;

/// A random complete 1-DFTA over the Nat signature with `n` states, in
/// both kernels: pick the Z target and the S successor per state, plus
/// a final set.
fn automata(
    n: usize,
    z_t: usize,
    s_t: &[usize],
    finals: &[bool],
) -> (TupleAutomaton, RefTupleAutomaton) {
    let (_sig, nat, z, s) = nat_signature();
    let mut d = Dfta::new();
    let mut rd = RefDfta::new();
    let states: Vec<_> = (0..n).map(|_| d.add_state(nat)).collect();
    let rstates: Vec<_> = (0..n).map(|_| rd.add_state(nat)).collect();
    d.add_transition(z, vec![], states[z_t % n]);
    rd.add_transition(z, vec![], rstates[z_t % n]);
    for (i, &t) in s_t.iter().enumerate().take(n) {
        d.add_transition(s, vec![states[i]], states[t % n]);
        rd.add_transition(s, vec![rstates[i]], rstates[t % n]);
    }
    let mut a = TupleAutomaton::new(d, vec![nat]);
    let mut ra = RefTupleAutomaton::new(rd, vec![nat]);
    for (i, &f) in finals.iter().enumerate().take(n) {
        if f {
            a.add_final(vec![states[i]]);
            ra.add_final(vec![rstates[i]]);
        }
    }
    (a, ra)
}

fn nums(up_to: usize) -> Vec<GroundTerm> {
    let (_sig, _nat, z, s) = nat_signature();
    (0..up_to)
        .map(|n| GroundTerm::iterate(s, GroundTerm::leaf(z), n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cold and warm store calls agree with the reference kernel on
    /// every operation; the warm call is a pure memo hit returning the
    /// same id.
    #[test]
    fn store_ops_match_reference_cold_and_warm(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
        zb in 0usize..3, sb in prop::collection::vec(0usize..3, 3),
        fb in prop::collection::vec(any::<bool>(), 3),
    ) {
        let (sig, ..) = nat_signature();
        let (a, ra) = automata(3, za, &sa, &fa);
        let (b, rb) = automata(3, zb, &sb, &fb);
        let terms = nums(16);

        let mut store = AutStore::new();
        let (ia, ib) = (store.intern(a), store.intern(b));

        // Cold pass.
        let inter = store.intersection(ia, ib);
        let uni = store.union(ia, ib, &sig);
        let comp = store.complement(ia, &sig);
        let mini = store.minimized(ia, &sig);
        let misses_after_cold = store.stats().memo_misses;

        let rinter = ra.intersection(&rb);
        let runi = ra.union(&rb, &sig);
        let rcomp = ra.complement(&sig);
        let rmini = ra.minimized(&sig);

        for t in &terms {
            let t = std::slice::from_ref(t);
            prop_assert_eq!(store.get(inter).accepts(t), rinter.accepts(t));
            prop_assert_eq!(store.get(uni).accepts(t), runi.accepts(t));
            prop_assert_eq!(store.get(comp).accepts(t), rcomp.accepts(t));
            prop_assert_eq!(store.get(mini).accepts(t), rmini.accepts(t));
        }

        // Warm pass: identical ids, no new kernel constructions.
        prop_assert_eq!(store.intersection(ia, ib), inter);
        prop_assert_eq!(store.union(ia, ib, &sig), uni);
        prop_assert_eq!(store.complement(ia, &sig), comp);
        prop_assert_eq!(store.minimized(ia, &sig), mini);
        prop_assert_eq!(store.stats().memo_misses, misses_after_cold);
        prop_assert!(store.stats().memo_hits >= 4);
    }

    /// Minimize-after-product chains: the store's composition agrees
    /// with the reference kernel's, cold and warm.
    #[test]
    fn minimize_after_product_chain_matches_reference(
        za in 0usize..3, sa in prop::collection::vec(0usize..3, 3),
        fa in prop::collection::vec(any::<bool>(), 3),
        zb in 0usize..3, sb in prop::collection::vec(0usize..3, 3),
        fb in prop::collection::vec(any::<bool>(), 3),
    ) {
        let (sig, ..) = nat_signature();
        let (a, ra) = automata(3, za, &sa, &fa);
        let (b, rb) = automata(3, zb, &sb, &fb);
        let terms = nums(16);

        let mut store = AutStore::new();
        let (ia, ib) = (store.intern(a), store.intern(b));
        let inter = store.intersection(ia, ib);
        let chain = store.minimized(inter, &sig);
        let rchain = ra.intersection(&rb).minimized(&sig);
        for t in &terms {
            let t = std::slice::from_ref(t);
            prop_assert_eq!(store.get(chain).accepts(t), rchain.accepts(t));
        }
        // The whole chain re-runs as two memo hits.
        let hits = store.stats().memo_hits;
        let inter2 = store.intersection(ia, ib);
        prop_assert_eq!(store.minimized(inter2, &sig), chain);
        prop_assert_eq!(store.stats().memo_hits, hits + 2);
    }
}
