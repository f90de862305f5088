//! Regular tree languages as membership-atom constants.
//!
//! A [`Lang`] is the denotation of a membership predicate `· ∈ L(A)`:
//! a deterministic finite tree automaton over one ADT sort, completed
//! over the signature at construction so that runs are total. Languages
//! are immutable and cheaply clonable (shared behind an [`Arc`]), so
//! one automaton can appear in many literals of a formula without
//! copying its transition table.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use ringen_automata::{AutStore, Dfta, DftaId, StateId, TupleAutomaton};
use ringen_parallel::Guard;
use ringen_terms::{GroundTerm, Signature, SortId};

#[derive(Debug)]
struct LangInner {
    name: String,
    sort: SortId,
    /// Complete over the construction signature: `run` is total on
    /// well-sorted ground terms. Shared with the [`AutStore`] arena for
    /// store-backed languages.
    dfta: Arc<Dfta>,
    finals: BTreeSet<StateId>,
    /// States reachable by some ground term (membership propagation
    /// only ever assigns these).
    reachable: Arc<BTreeSet<StateId>>,
    /// The interned id of `dfta` — together with the minting store's
    /// token — when the language was built through an [`AutStore`];
    /// gives the language a structural identity ([`Lang::key`]) and
    /// lets the cube procedure route its joint products through the
    /// store's memo tables. Ids are dense *per store*, so the token is
    /// checked before the id is ever used against a store.
    store_id: Option<(u64, DftaId)>,
}

/// An immutable regular tree language over a single ADT sort.
///
/// # Example
///
/// The even-number language of the paper's Example 1:
///
/// ```
/// use ringen_automata::Dfta;
/// use ringen_regelem::Lang;
/// use ringen_terms::{signature_helpers::nat_signature, GroundTerm};
///
/// let (sig, nat, z, s) = nat_signature();
/// let mut d = Dfta::new();
/// let s0 = d.add_state(nat);
/// let s1 = d.add_state(nat);
/// d.add_transition(z, vec![], s0);
/// d.add_transition(s, vec![s0], s1);
/// d.add_transition(s, vec![s1], s0);
/// let even = Lang::new("Even", &sig, d, [s0]);
/// assert!(even.accepts(&GroundTerm::iterate(s, GroundTerm::leaf(z), 4)));
/// assert!(!even.accepts(&GroundTerm::iterate(s, GroundTerm::leaf(z), 3)));
/// ```
#[derive(Debug, Clone)]
pub struct Lang(Arc<LangInner>);

impl Lang {
    /// Wraps an automaton as a language over the sort its final states
    /// carry. The automaton is completed over `sig`, so membership
    /// queries are total on well-sorted terms.
    ///
    /// # Panics
    ///
    /// Panics if `finals` is empty or the final states carry mixed
    /// sorts.
    pub fn new(
        name: impl Into<String>,
        sig: &Signature,
        dfta: Dfta,
        finals: impl IntoIterator<Item = StateId>,
    ) -> Lang {
        let finals: BTreeSet<StateId> = finals.into_iter().collect();
        let sort = Lang::check_finals(&dfta, &finals);
        let completed = dfta.completed(sig);
        let reachable = completed
            .reachable_guarded(&Guard::new())
            .expect("an unarmed guard never trips");
        Lang(Arc::new(LangInner {
            name: name.into(),
            sort,
            dfta: Arc::new(completed),
            finals,
            reachable: Arc::new(reachable),
            store_id: None,
        }))
    }

    /// [`Lang::new`], interning the completed automaton in `store`: the
    /// transition table is hash-consed (structurally equal tables from
    /// different enumeration paths share one arena entry and one
    /// reachability fixpoint), and the language carries the store id as
    /// its identity — so the cube procedure's joint-realizability
    /// products over it hit the store's memo tables.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Lang::new`].
    pub fn new_in(
        name: impl Into<String>,
        sig: &Signature,
        dfta: Dfta,
        finals: impl IntoIterator<Item = StateId>,
        store: &mut AutStore,
    ) -> Lang {
        let finals: BTreeSet<StateId> = finals.into_iter().collect();
        let sort = Lang::check_finals(&dfta, &finals);
        let id = store.intern_dfta(dfta.completed(sig));
        let reachable = store
            .reachable_guarded(id, &Guard::new())
            .expect("an unarmed guard never trips");
        Lang(Arc::new(LangInner {
            name: name.into(),
            sort,
            dfta: store.dfta_arc(id),
            finals,
            reachable,
            store_id: Some((store.token(), id)),
        }))
    }

    /// Validates the final set (nonempty, one sort) and returns the
    /// language sort.
    fn check_finals(dfta: &Dfta, finals: &BTreeSet<StateId>) -> SortId {
        let first = finals
            .iter()
            .next()
            .expect("a language needs at least one final state");
        let sort = dfta.sort_of(*first);
        assert!(
            finals.iter().all(|s| dfta.sort_of(*s) == sort),
            "final states of mixed sorts"
        );
        sort
    }

    /// Wraps a 1-automaton (its final tuples become final states).
    ///
    /// # Panics
    ///
    /// Panics if the automaton arity is not 1 or it has no final
    /// states.
    pub fn from_tuple_automaton(
        name: impl Into<String>,
        sig: &Signature,
        a: &TupleAutomaton,
    ) -> Lang {
        assert_eq!(a.arity(), 1, "a language is a 1-automaton");
        Lang::new(name, sig, a.dfta().clone(), a.finals().map(|t| t[0]))
    }

    /// A short name used when rendering membership atoms.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The sort of the language's members.
    pub fn sort(&self) -> SortId {
        self.0.sort
    }

    /// The completed transition table.
    pub fn dfta(&self) -> &Dfta {
        &self.0.dfta
    }

    /// The final states.
    pub fn finals(&self) -> &BTreeSet<StateId> {
        &self.0.finals
    }

    /// States of the completed automaton reachable by some ground term.
    pub fn reachable(&self) -> &BTreeSet<StateId> {
        &self.0.reachable
    }

    /// Makes sure the language's table is interned in `store`,
    /// returning an id valid *for that store*: a store-backed language
    /// answers from its cached id only when `store` is the store that
    /// minted it (checked by token — ids are dense per store); any
    /// other language interns (with structural dedup) on first use.
    /// Does **not** rewrite the language's identity — [`Lang::key`]
    /// stays stable either way.
    pub fn intern_dfta_in(&self, store: &mut AutStore) -> DftaId {
        match self.0.store_id {
            Some((token, id)) if token == store.token() => id,
            _ => store.intern_dfta_arc(self.0.dfta.clone()),
        }
    }

    /// Reachable states carrying the given sort — the candidate values
    /// for a variable of that sort during membership propagation.
    pub fn reachable_of_sort(&self, sort: SortId) -> Vec<StateId> {
        self.0
            .reachable
            .iter()
            .filter(|s| self.0.dfta.sort_of(**s) == sort)
            .copied()
            .collect()
    }

    /// Whether a ground term belongs to the language.
    pub fn accepts(&self, t: &GroundTerm) -> bool {
        match self.0.dfta.run(t) {
            Some(s) => self.0.finals.contains(&s),
            None => false,
        }
    }

    /// Whether a state is final.
    pub fn is_final(&self, s: StateId) -> bool {
        self.0.finals.contains(&s)
    }

    /// Number of distinct ground terms in the language, saturating at
    /// `cap`. Because the automaton is deterministic, terms running to
    /// different states are distinct, so per-state counts add up
    /// exactly.
    pub fn member_count_up_to(&self, cap: usize) -> usize {
        let d = &self.0.dfta;
        let mut count = vec![0usize; d.state_count()];
        loop {
            let mut changed = false;
            for s in d.states() {
                if count[s.index()] >= cap {
                    continue;
                }
                let mut total = 0usize;
                for (_, args, target) in d.transitions() {
                    if target != s {
                        continue;
                    }
                    let prod = args
                        .iter()
                        .fold(1usize, |acc, a| acc.saturating_mul(count[a.index()]));
                    total = total.saturating_add(prod);
                    if total >= cap {
                        break;
                    }
                }
                let total = total.min(cap);
                if total > count[s.index()] {
                    count[s.index()] = total;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.0
            .finals
            .iter()
            .fold(0usize, |acc, f| acc.saturating_add(count[f.index()]))
            .min(cap)
    }

    /// Identity key: two literals whose languages share a key run over
    /// the *same* transition table, so their per-variable state sets
    /// may be intersected and their joint products share one automaton.
    ///
    /// Store-backed languages ([`Lang::new_in`]) key by the minting
    /// store's token plus the interned table id — a structural identity
    /// that survives re-enumeration within one store, and cannot
    /// collide across stores — tagged into the odd space; plain
    /// languages fall back to the allocation address, which is even
    /// (the inner struct is word-aligned), so the two spaces never
    /// collide.
    pub fn key(&self) -> usize {
        match self.0.store_id {
            Some((token, id)) => {
                // Ids are u32; tokens occupy the bits above. A token
                // beyond 2³¹ (after billions of stores) would wrap
                // within the odd space — still partitioned from
                // pointer keys, merely with a theoretical token alias.
                ((token as usize) << 33) ^ ((id.index() << 1) | 1)
            }
            None => Arc::as_ptr(&self.0) as usize,
        }
    }

    /// The interned transition-table id and its minting store's token,
    /// for store-backed languages.
    pub fn store_id(&self) -> Option<(u64, DftaId)> {
        self.0.store_id
    }
}

impl PartialEq for Lang {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.sort == other.0.sort
                && self.0.finals == other.0.finals
                && self.0.dfta == other.0.dfta)
    }
}

impl Eq for Lang {}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::nat_signature;

    fn even_lang() -> (Signature, Lang, ringen_terms::FuncId, ringen_terms::FuncId) {
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let s0 = d.add_state(nat);
        let s1 = d.add_state(nat);
        d.add_transition(z, vec![], s0);
        d.add_transition(s, vec![s0], s1);
        d.add_transition(s, vec![s1], s0);
        let lang = Lang::new("Even", &sig, d, [s0]);
        (sig, lang, z, s)
    }

    #[test]
    fn membership_is_parity() {
        let (_sig, even, z, s) = even_lang();
        for n in 0..10 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            assert_eq!(even.accepts(&t), n % 2 == 0, "n = {n}");
        }
    }

    #[test]
    fn completion_keeps_originals_reachable() {
        let (_sig, even, ..) = even_lang();
        // Both parity states are reachable; the sink (added by
        // completion) is not, because the original automaton was
        // already complete.
        assert_eq!(even.reachable().len(), 2);
        assert_eq!(even.reachable_of_sort(even.sort()).len(), 2);
    }

    #[test]
    fn equality_is_structural_or_shared() {
        let (_sig, a, ..) = even_lang();
        let (_sig2, b, ..) = even_lang();
        let shared = a.clone();
        assert_eq!(a, shared);
        assert_eq!(a, b, "structurally equal languages compare equal");
        assert_eq!(a.key(), shared.key());
        assert_ne!(a.key(), b.key(), "distinct allocations, distinct keys");
    }

    #[test]
    fn member_counts_saturate_or_finish() {
        let (sig, nat, z, s) = nat_signature();
        // Infinite language: Even saturates at the cap.
        let (_sig2, even, ..) = even_lang();
        assert_eq!(even.member_count_up_to(10), 10);
        // Singleton language {Z}: Z → s0, everything else sinks.
        let mut d = Dfta::new();
        let a = d.add_state(nat);
        let sink = d.add_state(nat);
        d.add_transition(z, vec![], a);
        d.add_transition(s, vec![a], sink);
        d.add_transition(s, vec![sink], sink);
        let only_z = Lang::new("OnlyZ", &sig, d, [a]);
        assert_eq!(only_z.member_count_up_to(10), 1);
        // Two-term language {Z, S(Z)}.
        let mut d = Dfta::new();
        let a = d.add_state(nat);
        let b = d.add_state(nat);
        let c = d.add_state(nat);
        d.add_transition(z, vec![], a);
        d.add_transition(s, vec![a], b);
        d.add_transition(s, vec![b], c);
        d.add_transition(s, vec![c], c);
        let two = Lang::new("ZeroOrOne", &sig, d, [a, b]);
        assert_eq!(two.member_count_up_to(10), 2);
        assert_eq!(two.member_count_up_to(1), 1, "cap saturates");
    }

    #[test]
    fn store_backed_langs_intern_and_key_structurally() {
        use ringen_automata::AutStore;
        let (sig, nat, z, s) = nat_signature();
        let mut store = AutStore::new();
        let build = |store: &mut AutStore, final_idx: usize| {
            let mut d = Dfta::new();
            let s0 = d.add_state(nat);
            let s1 = d.add_state(nat);
            d.add_transition(z, vec![], s0);
            d.add_transition(s, vec![s0], s1);
            d.add_transition(s, vec![s1], s0);
            let f = if final_idx == 0 { s0 } else { s1 };
            Lang::new_in(format!("L{final_idx}"), &sig, d, [f], store)
        };
        let even = build(&mut store, 0);
        let odd = build(&mut store, 1);
        // One table in the arena, one reachability fixpoint, one key.
        assert_eq!(store.dfta_count(), 1);
        assert_eq!(even.store_id(), odd.store_id());
        assert_eq!(even.key(), odd.key());
        assert_ne!(even, odd, "different finals, different languages");
        // Store-backed keys live in the odd space; plain keys are even
        // pointers — the spaces cannot collide.
        assert_eq!(even.key() % 2, 1);
        let (_s2, plain, ..) = even_lang();
        assert_eq!(plain.key() % 2, 0, "plain keys are aligned pointers");
        // Semantics are unchanged by interning.
        for n in 0..8 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            assert_eq!(even.accepts(&t), n % 2 == 0);
            assert_eq!(odd.accepts(&t), n % 2 == 1);
        }
        // `intern_dfta_in` is stable and answers from the cached id.
        assert_eq!(even.intern_dfta_in(&mut store), even.store_id().unwrap().1);
        // A *different* store must not trust the foreign id: the table
        // is re-interned there, and keys never collide across stores.
        let mut other = AutStore::new();
        let foreign = build(&mut other, 0);
        let reinterned = even.intern_dfta_in(&mut other);
        assert_eq!(other.dfta(reinterned), even.dfta());
        assert_ne!(
            foreign.key(),
            even.key(),
            "same table, different stores, different identities"
        );
    }

    #[test]
    #[should_panic(expected = "at least one final state")]
    fn empty_finals_panic() {
        let (sig, nat, z, _s) = nat_signature();
        let mut d = Dfta::new();
        let q = d.add_state(nat);
        d.add_transition(z, vec![], q);
        let _ = Lang::new("none", &sig, d, []);
    }
}
