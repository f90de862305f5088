//! Enumeration of small regular languages for the combined solver.
//!
//! The combined search of [`crate::solver`] conjoins elementary
//! templates with membership atoms `#i ∈ L`. The pool of candidate
//! languages `L` is enumerated the same way the finite-model finder
//! sweeps domains: every complete DFTA with a fixed number of states
//! per sort (two by default — Figure 6 shows most models found in the
//! evaluation are that small), paired with every nonempty proper final
//! set over the queried sort. Trivial and semantically duplicate
//! languages are pruned with a ground-term fingerprint.

use std::collections::BTreeMap;

use ringen_automata::{AutStore, Dfta, StateId};
use ringen_parallel::{Guard, ParallelConfig, Pool};
use ringen_terms::{herbrand, FuncId, Signature, SortId, TermPool};

use crate::lang::Lang;

/// Knobs for [`enumerate_langs`].
#[derive(Debug, Clone)]
pub struct LangPoolConfig {
    /// States per sort in every enumerated automaton.
    pub states_per_sort: usize,
    /// Stop after this many transition tables.
    pub max_dftas: usize,
    /// Stop after this many kept languages.
    pub max_langs: usize,
    /// Height bound of the ground terms used to fingerprint languages
    /// for deduplication and triviality pruning.
    pub fingerprint_height: usize,
}

impl Default for LangPoolConfig {
    fn default() -> Self {
        LangPoolConfig {
            states_per_sort: 2,
            max_dftas: 4_096,
            max_langs: 64,
            fingerprint_height: 5,
        }
    }
}

/// Enumerates candidate languages over `sort`, deduplicated by their
/// acceptance fingerprint on all ground terms up to the configured
/// height. Languages accepting none or all of the fingerprint terms
/// are dropped (they constrain nothing a template could not).
pub fn enumerate_langs(sig: &Signature, sort: SortId, cfg: &LangPoolConfig) -> Vec<Lang> {
    enumerate_impl(sig, sort, cfg, None, &Guard::new()).expect("an unarmed guard never trips")
}

/// [`enumerate_langs`] with every kept language built through an
/// [`AutStore`] ([`Lang::new_in`]): completed tables are hash-consed
/// (final-set variants of one table share a single arena entry and one
/// reachability fixpoint) and every language carries a structural
/// identity, so the cube procedure's joint products over the pool hit
/// the store's memo tables.
///
/// The guard is polled before every transition table; `None` if it
/// trips.
pub fn enumerate_langs_in(
    sig: &Signature,
    sort: SortId,
    cfg: &LangPoolConfig,
    store: &mut AutStore,
    guard: &Guard,
) -> Option<Vec<Lang>> {
    enumerate_impl(sig, sort, cfg, Some(store), guard)
}

fn enumerate_impl(
    sig: &Signature,
    sort: SortId,
    cfg: &LangPoolConfig,
    mut store: Option<&mut AutStore>,
    guard: &Guard,
) -> Option<Vec<Lang>> {
    let k = cfg.states_per_sort.max(1);
    // One block of k states per sort; cells are (constructor, argument
    // state combination) pairs, each choosing one of k targets.
    let sorts: Vec<SortId> = sig.sorts().collect();
    let mut cells: Vec<(FuncId, Vec<usize>)> = Vec::new();
    for c in sig.constructors() {
        let domain = &sig.func(c).domain;
        let mut combo = vec![0usize; domain.len()];
        loop {
            cells.push((c, combo.clone()));
            // Mixed-radix advance over argument state indices.
            let mut i = 0;
            loop {
                if i == combo.len() {
                    break;
                }
                combo[i] += 1;
                if combo[i] < k {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
            if combo.iter().all(|&x| x == 0) {
                break;
            }
        }
    }

    // Fingerprint terms are hash-consed once; every candidate table
    // runs them by pooled id with a dense memo, so shared subterms
    // across the whole enumeration are evaluated once per table. The
    // batch is sharded across workers (`RINGEN_THREADS` overrides the
    // count; results are identical at any value).
    let par = Pool::new(&ParallelConfig::default());
    let mut term_pool = TermPool::new();
    let fingerprint_ids =
        herbrand::pooled_terms_up_to_height(sig, sort, cfg.fingerprint_height, &mut term_pool);
    let mut seen: BTreeMap<Vec<bool>, ()> = BTreeMap::new();
    let mut out: Vec<Lang> = Vec::new();

    // Sweep target assignments (one of k states per cell).
    let mut assignment = vec![0usize; cells.len()];
    let mut dftas = 0usize;
    'sweep: loop {
        if guard.is_cancelled() {
            return None;
        }
        dftas += 1;
        if dftas > cfg.max_dftas {
            break;
        }
        let mut d = Dfta::new();
        let mut block: BTreeMap<SortId, Vec<StateId>> = BTreeMap::new();
        for &s in &sorts {
            block.insert(s, (0..k).map(|_| d.add_state(s)).collect());
        }
        for ((c, combo), &target) in cells.iter().zip(&assignment) {
            let decl = sig.func(*c);
            let args: Vec<StateId> = combo
                .iter()
                .zip(&decl.domain)
                .map(|(&i, s)| block[s][i])
                .collect();
            d.add_transition(*c, args, block[&decl.range][target]);
        }
        // Run every fingerprint term once per table: the run states are
        // independent of the final set, so all 2^k − 2 final-set
        // variants below reuse this one pass.
        let run_states: Vec<Option<StateId>> =
            d.run_pooled_batch(&term_pool, &fingerprint_ids, &par);
        // Every nonempty proper final set over the queried sort.
        let states = &block[&sort];
        for finals_mask in 1..(1usize << k) - 1 {
            let finals: Vec<StateId> = states
                .iter()
                .enumerate()
                .filter(|(i, _)| finals_mask & (1 << i) != 0)
                .map(|(_, s)| *s)
                .collect();
            let fp: Vec<bool> = run_states
                .iter()
                .map(|st| st.is_some_and(|s| finals.contains(&s)))
                .collect();
            if fp.iter().all(|&b| b) || fp.iter().all(|&b| !b) {
                continue; // trivial on the fingerprint set
            }
            if seen.insert(fp, ()).is_none() {
                // Languages are materialized (completed + reachability)
                // only for fingerprints that survive the pruning.
                let name = format!("L{}f{}", dftas, finals_mask);
                out.push(match store.as_deref_mut() {
                    Some(st) => Lang::new_in(name, sig, d.clone(), finals, st),
                    None => Lang::new(name, sig, d.clone(), finals),
                });
                if out.len() >= cfg.max_langs {
                    break 'sweep;
                }
            }
        }
        // Advance the assignment counter.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                break 'sweep;
            }
            assignment[i] += 1;
            if assignment[i] < k {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};
    use ringen_terms::GroundTerm;

    #[test]
    fn nat_pool_contains_the_parity_language() {
        let (sig, nat, z, s) = nat_signature();
        let pool = enumerate_langs(&sig, nat, &LangPoolConfig::default());
        assert!(!pool.is_empty());
        let is_parity = |l: &Lang| {
            (0..8)
                .all(|n| l.accepts(&GroundTerm::iterate(s, GroundTerm::leaf(z), n)) == (n % 2 == 0))
        };
        assert!(
            pool.iter().any(is_parity),
            "the Even language must appear in the 2-state pool"
        );
    }

    #[test]
    fn tree_pool_contains_the_spine_parity_language() {
        let (sig, tree, leaf, node) = tree_signature();
        let pool = enumerate_langs(&sig, tree, &LangPoolConfig::default());
        fn spine(t: &GroundTerm) -> usize {
            if t.args().is_empty() {
                0
            } else {
                1 + spine(&t.args()[0])
            }
        }
        let terms = herbrand::terms_up_to_height(&sig, tree, 4);
        let is_evenleft = |l: &Lang| {
            terms
                .iter()
                .all(|t| l.accepts(t) == spine(t).is_multiple_of(2))
        };
        assert!(
            pool.iter().any(is_evenleft),
            "the EvenLeft language must appear in the 2-state pool"
        );
        let _ = (leaf, node);
    }

    #[test]
    fn pool_has_no_trivial_or_duplicate_fingerprints() {
        let (sig, nat, z, s) = nat_signature();
        let cfg = LangPoolConfig::default();
        let pool = enumerate_langs(&sig, nat, &cfg);
        let terms = herbrand::terms_up_to_height(&sig, nat, cfg.fingerprint_height);
        let mut fps = std::collections::BTreeSet::new();
        for l in &pool {
            let fp: Vec<bool> = terms.iter().map(|t| l.accepts(t)).collect();
            assert!(fp.iter().any(|&b| b), "empty language kept");
            assert!(!fp.iter().all(|&b| b), "full language kept");
            assert!(fps.insert(fp), "duplicate fingerprint kept");
        }
        let _ = (z, s);
    }

    #[test]
    fn caps_are_respected() {
        let (sig, nat, ..) = nat_signature();
        let cfg = LangPoolConfig {
            max_langs: 3,
            ..LangPoolConfig::default()
        };
        assert!(enumerate_langs(&sig, nat, &cfg).len() <= 3);
        let cfg = LangPoolConfig {
            max_dftas: 1,
            ..LangPoolConfig::default()
        };
        // One table still yields at most its final-set variants.
        assert!(enumerate_langs(&sig, nat, &cfg).len() <= 2);
    }
}
