//! Hash-consed automaton store with a memoized, incremental Boolean
//! algebra.
//!
//! The solvers converge by repeatedly applying Boolean operations
//! (product, intersection, union, complement, determinize, minimize) to
//! candidate-invariant automata that change only slightly between
//! iterations — yet the free operations of [`crate::TupleAutomaton`]
//! rebuild every result from scratch. [`AutStore`] lifts the
//! hash-consing design of `ringen_terms::TermPool` one level up, to
//! whole automata:
//!
//! * **Interning.** Every [`Dfta`] and [`TupleAutomaton`] handed to the
//!   store is deduplicated behind a dense id ([`DftaId`] / [`AutId`])
//!   using a *canonical structural fingerprint*, computed once at
//!   intern time: an Fx hash over the state-sort list, the transition
//!   rules sorted by `(func, args, target)` (insertion order does not
//!   matter — matching the kernels' set-semantics `PartialEq`), and,
//!   for tuple automata, the component sorts plus the final tuples in
//!   sorted order. Fingerprint collisions fall back to the structural
//!   equality of the kernels, so two ids are equal iff the automata
//!   are.
//! * **Memoization.** Each Boolean operation keeps a memo table keyed
//!   on `(op, AutId, AutId)` (unary ops drop the second id). A warm
//!   call — the second and every later iteration of a solver loop
//!   hitting the same subexpression — is a single hash probe instead
//!   of a worklist fixpoint. Derived automata are interned too, so
//!   chains like *minimize ∘ product* memoize at every level.
//! * **Incremental products.** The pair-interning map of every product
//!   is retained, and every intern records which recent table the new
//!   one merely *grew from* (states appended with unchanged sorts,
//!   rules a superset — the shape of a CEGAR-style refinement). A
//!   product miss walks the two operands' `grew_from` ancestor chains
//!   and restarts the worklist from the first ancestor pair with a
//!   cached map (the `seed` of [`Dfta::product_guarded`]) instead of
//!   from the nullary rules — an O(1) bounded probe of the memo table,
//!   with the rule-subset check paid once per intern rather than once
//!   per miss.
//!   Grown operands keep old reachable pairs reachable (runs of a
//!   deterministic automaton are unchanged by new rules, which always
//!   carry fresh left-hand sides), and `grew_from` is transitive, so
//!   the seeded restart computes the same pair set.
//! * **Derived-analysis caches.** [`AutStore::reachable_guarded`] and
//!   [`AutStore::witnesses_guarded`] memoize the per-automaton
//!   fixpoints the inductiveness check runs, and [`AutStore::joint_reachable`] /
//!   [`AutStore::joint_counts`] memoize the joint-realizability
//!   products of the `RegElem` decision procedure's layer 4/5, keyed
//!   on the exact [`DftaId`] list plus the budget.
//!
//! # Memo invalidation
//!
//! There is none — by construction. Interned automata are immutable
//! (the store hands out shared [`Arc`]s and never mutates an arena
//! entry), ids are never reused, and every memoized operation is a pure
//! function of its operand ids (plus the ambient [`Signature`], which
//! must be the same for all automata in one store — use one store per
//! solve, not one per process). A "changed" automaton is simply a new
//! intern with a new id; stale results cannot be observed because the
//! old id still denotes the old value.
//!
//! The free operations of [`TupleAutomaton`] and [`Dfta`] stay the
//! semantics the store must reproduce; the `store_prop` differential
//! tests pin every memoized operation to the reference kernel.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hasher;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHasher};

use ringen_parallel::Guard;
use ringen_terms::{FuncId, GroundTerm, Signature, SortId};

use crate::dfta::{Dfta, StateId};
use crate::nfta::Nfta;
use crate::tuple::TupleAutomaton;

/// Dense id of an interned [`TupleAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AutId(u32);

impl AutId {
    /// Raw index, usable for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned [`Dfta`] (a bare transition table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DftaId(u32);

impl DftaId {
    /// Raw index, usable for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The `(left, right) → product state` map of a product construction.
pub type PairMap = BTreeMap<(StateId, StateId), StateId>;

/// Reachable joint-run tuples per sort, each with the top constructors
/// able to produce it (layer 4 of the `RegElem` cube procedure).
pub type JointReach = BTreeMap<SortId, BTreeMap<Vec<StateId>, BTreeSet<FuncId>>>;

/// Distinct-term counts per reachable joint-run tuple, saturating at a
/// cap (layer 5 of the `RegElem` cube procedure).
pub type JointCounts = BTreeMap<SortId, BTreeMap<Vec<StateId>, usize>>;

/// Binary memoized operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BinOp {
    Intersection,
    Union,
}

/// Unary memoized operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum UnOp {
    Complement,
    Minimized,
}

/// Hit/miss accounting of an [`AutStore`]; read via [`AutStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct tuple automata interned.
    pub interned_auts: usize,
    /// Distinct bare transition tables interned.
    pub interned_dftas: usize,
    /// Intern calls answered by an existing structurally equal entry.
    pub dedup_hits: u64,
    /// Operation calls answered from a memo table (one hash probe).
    pub memo_hits: u64,
    /// Operation calls that had to run a kernel construction.
    pub memo_misses: u64,
    /// Product misses that restarted from a cached pair map instead of
    /// an empty worklist.
    pub seeded_products: u64,
}

/// How many recently interned tables are scanned for a `grew_from`
/// ancestor at intern time, and the probe budget a product miss spends
/// walking the two ancestor chains. The scan costs one rule-subset
/// check per candidate, so it is kept short; solver loops refine the
/// *same* handful of automata anyway.
const SEED_CANDIDATES: usize = 8;

/// The hash-consed automaton store. See the [module docs](self).
/// `Default` is [`AutStore::new`].
#[derive(Debug)]
pub struct AutStore {
    /// Process-unique token distinguishing this store's id space from
    /// every other store's (see [`AutStore::token`]).
    token: u64,
    /// Tuple-automaton arena plus, per entry, the id of its interned
    /// transition table (shared across the `n`-automata of one model).
    auts: Vec<Arc<TupleAutomaton>>,
    aut_dfta: Vec<DftaId>,
    aut_index: FxHashMap<u64, Vec<u32>>,
    /// Bare transition-table arena.
    dftas: Vec<Arc<Dfta>>,
    dfta_index: FxHashMap<u64, Vec<u32>>,
    /// Memo tables.
    binary: FxHashMap<(BinOp, u32, u32), u32>,
    unary: FxHashMap<(UnOp, u32), u32>,
    products: FxHashMap<(u32, u32), (DftaId, Arc<PairMap>)>,
    /// `lineage[i]`: an earlier interned table that table `i` grew from
    /// (checked once, at intern time). Ancestor ids are strictly
    /// smaller, so chains are acyclic.
    lineage: Vec<Option<u32>>,
    /// The tables most recently interned — the candidates scanned for a
    /// `grew_from` ancestor when the next table arrives.
    recent_interns: VecDeque<u32>,
    determinized: FxHashMap<u64, Vec<(Nfta, u32)>>,
    reach: FxHashMap<u32, Arc<BTreeSet<StateId>>>,
    wits: FxHashMap<u32, Arc<Vec<Option<GroundTerm>>>>,
    #[allow(clippy::type_complexity)]
    joint_reach: FxHashMap<(Vec<u32>, usize), Option<Arc<JointReach>>>,
    #[allow(clippy::type_complexity)]
    joint_counts: FxHashMap<(Vec<u32>, usize), Arc<JointCounts>>,
    stats: StoreStats,
}

/// Canonical fingerprint of a bare transition table: state sorts plus
/// the rule list sorted by `(func, args, target)`.
fn dfta_fingerprint(d: &Dfta) -> u64 {
    let mut rules: Vec<(FuncId, &[StateId], StateId)> = d.transitions().collect();
    rules.sort_unstable();
    let mut h = FxHasher::default();
    h.write_usize(d.state_count());
    for s in d.states() {
        h.write_u32(d.sort_of(s).index() as u32);
    }
    h.write_usize(rules.len());
    for (f, args, t) in rules {
        h.write_u32(f.index() as u32);
        h.write_u32(args.len() as u32);
        for a in args {
            h.write_u32(a.index() as u32);
        }
        h.write_u32(t.index() as u32);
    }
    h.finish()
}

/// Canonical fingerprint of a tuple automaton: the table fingerprint,
/// the component sorts and the final tuples in sorted order.
fn tuple_fingerprint(a: &TupleAutomaton) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(dfta_fingerprint(a.dfta()));
    for s in a.sorts() {
        h.write_u32(s.index() as u32);
    }
    let mut finals: Vec<&[StateId]> = a.finals().collect();
    finals.sort_unstable();
    h.write_usize(finals.len());
    for tuple in finals {
        for s in tuple {
            h.write_u32(s.index() as u32);
        }
    }
    h.finish()
}

/// Canonical fingerprint of an NFTA (determinize memo key).
fn nfta_fingerprint(n: &Nfta) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(n.state_count());
    for s in n.states() {
        h.write_u32(n.sort_of(s).index() as u32);
    }
    for f in n.finals() {
        h.write_u32(f.index() as u32);
    }
    for (f, args, targets) in n.canonical_rules() {
        h.write_u32(f.index() as u32);
        h.write_u32(args.len() as u32);
        for a in args {
            h.write_u32(a.index() as u32);
        }
        for t in targets {
            h.write_u32(t.index() as u32);
        }
    }
    h.finish()
}

/// Whether `new` merely *grew from* `old`: `old`'s states are a prefix
/// with unchanged sorts and `old`'s rules all still step identically.
/// Under this relation every product-reachable pair of `old` stays
/// product-reachable, which is what licenses seeding.
fn grew_from(new: &Dfta, old: &Dfta) -> bool {
    if old.state_count() > new.state_count() || old.rule_count() > new.rule_count() {
        return false;
    }
    if old.states().any(|s| new.sort_of(s) != old.sort_of(s)) {
        return false;
    }
    old.transitions()
        .all(|(f, args, t)| new.step(f, args) == Some(t))
}

impl AutStore {
    /// An empty store.
    pub fn new() -> AutStore {
        static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        AutStore {
            token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            auts: Vec::new(),
            aut_dfta: Vec::new(),
            aut_index: FxHashMap::default(),
            dftas: Vec::new(),
            dfta_index: FxHashMap::default(),
            binary: FxHashMap::default(),
            unary: FxHashMap::default(),
            products: FxHashMap::default(),
            lineage: Vec::new(),
            recent_interns: VecDeque::new(),
            determinized: FxHashMap::default(),
            reach: FxHashMap::default(),
            wits: FxHashMap::default(),
            joint_reach: FxHashMap::default(),
            joint_counts: FxHashMap::default(),
            stats: StoreStats::default(),
        }
    }

    /// A process-unique token for this store. Ids ([`AutId`] /
    /// [`DftaId`]) are dense *per store*; anything that caches an id
    /// outside the store (e.g. a `Lang`'s structural identity) must
    /// remember which store minted it — compare tokens before indexing,
    /// and fold the token into any derived identity key so ids from
    /// different stores can never collide.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of interned tuple automata.
    pub fn len(&self) -> usize {
        self.auts.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.auts.is_empty() && self.dftas.is_empty()
    }

    /// Number of interned bare transition tables.
    pub fn dfta_count(&self) -> usize {
        self.dftas.len()
    }

    /// The interned tuple automaton behind an id.
    pub fn get(&self, id: AutId) -> &TupleAutomaton {
        &self.auts[id.index()]
    }

    /// Shared handle to an interned tuple automaton.
    pub fn arc(&self, id: AutId) -> Arc<TupleAutomaton> {
        self.auts[id.index()].clone()
    }

    /// The interned transition table behind an id.
    pub fn dfta(&self, id: DftaId) -> &Dfta {
        &self.dftas[id.index()]
    }

    /// Shared handle to an interned transition table.
    pub fn dfta_arc(&self, id: DftaId) -> Arc<Dfta> {
        self.dftas[id.index()].clone()
    }

    /// The interned transition table of a tuple automaton.
    pub fn dfta_of(&self, id: AutId) -> DftaId {
        self.aut_dfta[id.index()]
    }

    /// Interns a tuple automaton (and its transition table), returning
    /// the id of a structurally equal entry when one exists.
    pub fn intern(&mut self, aut: TupleAutomaton) -> AutId {
        self.intern_arc(Arc::new(aut))
    }

    /// [`AutStore::intern`] from an existing shared handle (no clone
    /// when the value is new).
    pub fn intern_arc(&mut self, aut: Arc<TupleAutomaton>) -> AutId {
        let fp = tuple_fingerprint(&aut);
        if let Some(ids) = self.aut_index.get(&fp) {
            for &i in ids {
                if *self.auts[i as usize] == *aut {
                    self.stats.dedup_hits += 1;
                    return AutId(i);
                }
            }
        }
        let id = self.push_aut(aut);
        self.aut_index.entry(fp).or_default().push(id.0);
        id
    }

    fn push_aut(&mut self, aut: Arc<TupleAutomaton>) -> AutId {
        let dfta = self.intern_dfta_arc(Arc::new(aut.dfta().clone()));
        let i = u32::try_from(self.auts.len()).expect("automaton count fits u32");
        self.auts.push(aut);
        self.aut_dfta.push(dfta);
        self.stats.interned_auts = self.auts.len();
        AutId(i)
    }

    /// Interns a bare transition table.
    pub fn intern_dfta(&mut self, dfta: Dfta) -> DftaId {
        self.intern_dfta_arc(Arc::new(dfta))
    }

    /// [`AutStore::intern_dfta`] from an existing shared handle.
    pub fn intern_dfta_arc(&mut self, dfta: Arc<Dfta>) -> DftaId {
        let fp = dfta_fingerprint(&dfta);
        if let Some(ids) = self.dfta_index.get(&fp) {
            for &i in ids {
                if *self.dftas[i as usize] == *dfta {
                    self.stats.dedup_hits += 1;
                    return DftaId(i);
                }
            }
        }
        let id = self.push_dfta(dfta);
        self.dfta_index.entry(fp).or_default().push(id.0);
        id
    }

    fn push_dfta(&mut self, dfta: Arc<Dfta>) -> DftaId {
        let i = u32::try_from(self.dftas.len()).expect("table count fits u32");
        // Lineage is recorded once, here: the newest recently interned
        // table the new one grew from, if any.
        let ancestor = self
            .recent_interns
            .iter()
            .rev()
            .copied()
            .find(|&old| grew_from(&dfta, &self.dftas[old as usize]));
        self.dftas.push(dfta);
        self.lineage.push(ancestor);
        self.recent_interns.push_back(i);
        if self.recent_interns.len() > SEED_CANDIDATES {
            self.recent_interns.pop_front();
        }
        self.stats.interned_dftas = self.dftas.len();
        DftaId(i)
    }

    /// The `grew_from` ancestor chain of a table, nearest first,
    /// starting with the table itself. Ancestor ids strictly decrease,
    /// so the walk terminates; it is also capped at [`SEED_CANDIDATES`]
    /// links to bound the product-miss probe.
    fn ancestor_chain(&self, d: u32) -> Vec<u32> {
        let mut chain = vec![d];
        let mut cur = d;
        while let Some(prev) = self.lineage[cur as usize] {
            if chain.len() > SEED_CANDIDATES {
                break;
            }
            chain.push(prev);
            cur = prev;
        }
        chain
    }

    /// Memoized [`TupleAutomaton::intersection`], driven by the
    /// store's (seedable) product so repeated intersections over a
    /// shared transition table reuse one pair map.
    ///
    /// # Panics
    ///
    /// Panics on arity/sort mismatch (as the free operation does).
    pub fn intersection(&mut self, a: AutId, b: AutId) -> AutId {
        if let Some(&r) = self.binary.get(&(BinOp::Intersection, a.0, b.0)) {
            self.stats.memo_hits += 1;
            return AutId(r);
        }
        self.stats.memo_misses += 1;
        let (pd, map) = self
            .product_guarded(
                self.aut_dfta[a.index()],
                self.aut_dfta[b.index()],
                &Guard::new(),
            )
            .expect("an unarmed guard never trips");
        let left = self.auts[a.index()].clone();
        let right = self.auts[b.index()].clone();
        assert_eq!(
            left.sorts(),
            right.sorts(),
            "intersecting different arities"
        );
        let mut out = TupleAutomaton::new((*self.dftas[pd.index()]).clone(), left.sorts().to_vec());
        for fa in left.finals() {
            for fb in right.finals() {
                let tuple: Option<Vec<StateId>> = fa
                    .iter()
                    .zip(fb)
                    .map(|(x, y)| map.get(&(*x, *y)).copied())
                    .collect();
                if let Some(t) = tuple {
                    out.add_final(t);
                }
            }
        }
        let r = self.intern(out);
        self.binary.insert((BinOp::Intersection, a.0, b.0), r.0);
        r
    }

    /// Memoized [`TupleAutomaton::union`].
    ///
    /// # Panics
    ///
    /// Panics on arity/sort mismatch.
    pub fn union(&mut self, a: AutId, b: AutId, sig: &Signature) -> AutId {
        if let Some(&r) = self.binary.get(&(BinOp::Union, a.0, b.0)) {
            self.stats.memo_hits += 1;
            return AutId(r);
        }
        self.stats.memo_misses += 1;
        let out = self.auts[a.index()].union(&self.auts[b.index()], sig);
        let r = self.intern(out);
        self.binary.insert((BinOp::Union, a.0, b.0), r.0);
        r
    }

    /// Memoized [`TupleAutomaton::complement`].
    pub fn complement(&mut self, a: AutId, sig: &Signature) -> AutId {
        self.unary_op(UnOp::Complement, a, |aut| aut.complement(sig))
    }

    /// Memoized [`TupleAutomaton::minimized`].
    ///
    /// # Panics
    ///
    /// Panics if the arity is not 1.
    pub fn minimized(&mut self, a: AutId, sig: &Signature) -> AutId {
        self.unary_op(UnOp::Minimized, a, |aut| aut.minimized(sig))
    }

    fn unary_op(
        &mut self,
        op: UnOp,
        a: AutId,
        f: impl FnOnce(&TupleAutomaton) -> TupleAutomaton,
    ) -> AutId {
        if let Some(&r) = self.unary.get(&(op, a.0)) {
            self.stats.memo_hits += 1;
            return AutId(r);
        }
        self.stats.memo_misses += 1;
        let out = f(&self.auts[a.index()]);
        let r = self.intern(out);
        self.unary.insert((op, a.0), r.0);
        r
    }

    /// Memoized [`Nfta::determinize`], keyed on the canonical structure
    /// of the input automaton.
    ///
    /// # Panics
    ///
    /// Panics under the free operation's conditions (empty automaton,
    /// mixed-sort finals).
    pub fn determinized(&mut self, n: &Nfta) -> AutId {
        let fp = nfta_fingerprint(n);
        if let Some(entries) = self.determinized.get(&fp) {
            if let Some((_, id)) = entries.iter().find(|(input, _)| input == n) {
                self.stats.memo_hits += 1;
                return AutId(*id);
            }
        }
        self.stats.memo_misses += 1;
        let r = self.intern(n.determinize());
        self.determinized
            .entry(fp)
            .or_default()
            .push((n.clone(), r.0));
        r
    }

    /// Memoized [`Dfta::reachable_guarded`]. A memo hit returns the
    /// (complete) cached set even under a tripped guard; a miss runs
    /// the guarded fixpoint and, on cancellation, returns `None`
    /// *without* memoizing — the store never caches a partial result,
    /// so a cancelled solve leaves it consistent for reuse.
    ///
    /// Misses record an `aut.reachable` span on the guard's recorder
    /// (memo hits stay a single hash probe); the sibling guarded ops
    /// do the same.
    pub fn reachable_guarded(
        &mut self,
        d: DftaId,
        guard: &Guard,
    ) -> Option<Arc<BTreeSet<StateId>>> {
        if let Some(r) = self.reach.get(&d.0) {
            self.stats.memo_hits += 1;
            return Some(r.clone());
        }
        let mut span = guard.recorder().span("aut.reachable");
        span.note("states", self.dftas[d.index()].state_count() as i64);
        let Some(r) = self.dftas[d.index()].reachable_guarded(guard).map(Arc::new) else {
            span.note_str("outcome", "interrupted");
            return None;
        };
        self.stats.memo_misses += 1;
        self.reach.insert(d.0, r.clone());
        Some(r)
    }

    /// Memoized [`Dfta::witnesses_guarded`]; same memo contract as
    /// [`AutStore::reachable_guarded`].
    pub fn witnesses_guarded(
        &mut self,
        d: DftaId,
        guard: &Guard,
    ) -> Option<Arc<Vec<Option<GroundTerm>>>> {
        if let Some(w) = self.wits.get(&d.0) {
            self.stats.memo_hits += 1;
            return Some(w.clone());
        }
        let mut span = guard.recorder().span("aut.witnesses");
        span.note("states", self.dftas[d.index()].state_count() as i64);
        let Some(w) = self.dftas[d.index()].witnesses_guarded(guard).map(Arc::new) else {
            span.note_str("outcome", "interrupted");
            return None;
        };
        self.stats.memo_misses += 1;
        self.wits.insert(d.0, w.clone());
        Some(w)
    }

    /// Memoized [`Dfta::product_guarded`], with grown-operand seeding on
    /// a miss. Returns the interned product table and the shared pair
    /// map. Same memo contract as [`AutStore::reachable_guarded`]: a
    /// cancelled product is not interned, not counted, and not recorded
    /// as a seed candidate.
    pub fn product_guarded(
        &mut self,
        a: DftaId,
        b: DftaId,
        guard: &Guard,
    ) -> Option<(DftaId, Arc<PairMap>)> {
        if let Some((id, map)) = self.products.get(&(a.0, b.0)) {
            self.stats.memo_hits += 1;
            return Some((*id, map.clone()));
        }
        let mut span = guard.recorder().span("aut.product");
        span.note(
            "states",
            (self.dftas[a.index()].state_count() + self.dftas[b.index()].state_count()) as i64,
        );
        // Re-seed lookup: walk the operands' `grew_from` ancestor
        // chains (recorded at intern time — no rule-subset check here)
        // and take the first ancestor pair whose product is cached.
        // `grew_from` is transitive along a chain, so any such pair's
        // reachable set is a valid seed.
        let chain_b = self.ancestor_chain(b.0);
        let seed: Option<Vec<(StateId, StateId)>> = self
            .ancestor_chain(a.0)
            .into_iter()
            .find_map(|pa| {
                chain_b
                    .iter()
                    .filter(|&&pb| (pa, pb) != (a.0, b.0))
                    .find_map(|&pb| self.products.get(&(pa, pb)))
            })
            .map(|(_, map)| map.keys().copied().collect());
        let Some((d, m)) = self.dftas[a.index()].product_guarded(
            &self.dftas[b.index()],
            seed.as_deref().unwrap_or_default(),
            guard,
        ) else {
            span.note_str("outcome", "interrupted");
            return None;
        };
        self.stats.memo_misses += 1;
        if seed.is_some() {
            self.stats.seeded_products += 1;
        }
        let id = self.intern_dfta(d);
        let map = Arc::new(m);
        self.products.insert((a.0, b.0), (id, map.clone()));
        Some((id, map))
    }

    /// Memoized [`joint_reachable_products`] over interned tables, keyed
    /// on the exact id list and the tuple budget (`None` = budget
    /// exceeded — negative results are memoized too).
    pub fn joint_reachable(
        &mut self,
        sig: &Signature,
        ids: &[DftaId],
        max_tuples: usize,
    ) -> Option<Arc<JointReach>> {
        let dftas: Vec<&Dfta> = ids.iter().map(|d| &*self.dftas[d.index()]).collect();
        let key = (ids.iter().map(|d| d.0).collect::<Vec<u32>>(), max_tuples);
        if let Some(r) = self.joint_reach.get(&key) {
            self.stats.memo_hits += 1;
            return r.clone();
        }
        let r = joint_reachable_products(sig, &dftas, max_tuples).map(Arc::new);
        self.stats.memo_misses += 1;
        self.joint_reach.insert(key, r.clone());
        r
    }

    /// Memoized [`joint_member_counts`] over interned tables, keyed on
    /// the exact id list and the saturation cap.
    pub fn joint_counts(
        &mut self,
        sig: &Signature,
        ids: &[DftaId],
        cap: usize,
    ) -> Arc<JointCounts> {
        let dftas: Vec<&Dfta> = ids.iter().map(|d| &*self.dftas[d.index()]).collect();
        let key = (ids.iter().map(|d| d.0).collect::<Vec<u32>>(), cap);
        if let Some(c) = self.joint_counts.get(&key) {
            self.stats.memo_hits += 1;
            return c.clone();
        }
        let c = Arc::new(joint_member_counts(sig, &dftas, cap));
        self.stats.memo_misses += 1;
        self.joint_counts.insert(key, c.clone());
        c
    }
}

impl Default for AutStore {
    fn default() -> Self {
        AutStore::new()
    }
}

/// Reachable tuples of states when running all `dftas` in parallel, per
/// sort, each with the set of top constructors that can produce it.
/// `None` when more than `max_tuples` tuples materialize. (The free
/// function behind [`AutStore::joint_reachable`]; callers without a
/// store use it directly.)
pub fn joint_reachable_products(
    sig: &Signature,
    dftas: &[&Dfta],
    max_tuples: usize,
) -> Option<JointReach> {
    let mut out: JointReach = BTreeMap::new();
    loop {
        let mut changed = false;
        for c in sig.constructors() {
            let decl = sig.func(c);
            let empty = BTreeMap::new();
            let choices: Vec<Vec<Vec<StateId>>> = decl
                .domain
                .iter()
                .map(|s| out.get(s).unwrap_or(&empty).keys().cloned().collect())
                .collect();
            for combo in cartesian_tuples(&choices) {
                // Step every automaton componentwise.
                let mut target = Vec::with_capacity(dftas.len());
                let mut ok = true;
                for (i, d) in dftas.iter().enumerate() {
                    let args: Vec<StateId> = combo.iter().map(|t| t[i]).collect();
                    match d.step(c, &args) {
                        Some(s) => target.push(s),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let per_sort = out.entry(decl.range).or_default();
                let tops = per_sort.entry(target).or_default();
                if tops.insert(c) {
                    changed = true;
                }
            }
        }
        let total: usize = out.values().map(BTreeMap::len).sum();
        if total > max_tuples {
            return None;
        }
        if !changed {
            return Some(out);
        }
    }
}

/// Distinct-term counts per reachable joint-run tuple, saturating at
/// `cap` (the counting analogue of [`joint_reachable_products`]).
/// Counts strictly below `cap` are **exact**: determinism makes the
/// per-tuple term sets disjoint, and the least fixpoint of the counting
/// equations is reached from below — a value can only fall short of the
/// truth by hitting the cap, which callers treat as "possibly
/// infinite". (The free function behind [`AutStore::joint_counts`].)
pub fn joint_member_counts(sig: &Signature, dftas: &[&Dfta], cap: usize) -> JointCounts {
    let mut out: JointCounts = BTreeMap::new();
    loop {
        let mut next: JointCounts = BTreeMap::new();
        for c in sig.constructors() {
            let decl = sig.func(c);
            let empty = BTreeMap::new();
            let choices: Vec<Vec<(Vec<StateId>, usize)>> = decl
                .domain
                .iter()
                .map(|s| {
                    out.get(s)
                        .unwrap_or(&empty)
                        .iter()
                        .map(|(t, n)| (t.clone(), *n))
                        .collect()
                })
                .collect();
            for combo in cartesian_counted(&choices) {
                let mut target = Vec::with_capacity(dftas.len());
                let mut ok = true;
                for (i, d) in dftas.iter().enumerate() {
                    let args: Vec<StateId> = combo.0.iter().map(|t| t[i]).collect();
                    match d.step(c, &args) {
                        Some(s) => target.push(s),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let slot = next
                    .entry(decl.range)
                    .or_default()
                    .entry(target)
                    .or_insert(0);
                *slot = slot.saturating_add(combo.1).min(cap);
            }
        }
        if next == out {
            return out;
        }
        out = next;
    }
}

/// All combinations with one element from each choice list (tuples
/// variant of the kernel's cartesian helper).
fn cartesian_tuples(choices: &[Vec<Vec<StateId>>]) -> Vec<Vec<Vec<StateId>>> {
    let mut out: Vec<Vec<Vec<StateId>>> = vec![Vec::new()];
    for c in choices {
        let mut next = Vec::with_capacity(out.len() * c.len().max(1));
        for prefix in &out {
            for x in c {
                let mut row = prefix.clone();
                row.push(x.clone());
                next.push(row);
            }
        }
        out = next;
    }
    out
}

/// Cartesian product of per-position `(tuple, count)` choices; the
/// combined count is the product of the component counts.
fn cartesian_counted(choices: &[Vec<(Vec<StateId>, usize)>]) -> Vec<(Vec<Vec<StateId>>, usize)> {
    let mut out: Vec<(Vec<Vec<StateId>>, usize)> = vec![(Vec::new(), 1)];
    for c in choices {
        let mut next = Vec::with_capacity(out.len() * c.len().max(1));
        for (prefix, n) in &out {
            for (x, m) in c {
                let mut row = prefix.clone();
                row.push(x.clone());
                next.push((row, n.saturating_mul(*m)));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::nat_signature;

    /// The mod-`k` automaton with residues in `finals` final.
    fn mod_k(k: usize, finals: &[usize]) -> (Signature, TupleAutomaton) {
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let qs: Vec<StateId> = (0..k).map(|_| d.add_state(nat)).collect();
        d.add_transition(z, vec![], qs[0]);
        for i in 0..k {
            d.add_transition(s, vec![qs[i]], qs[(i + 1) % k]);
        }
        let mut a = TupleAutomaton::new(d, vec![nat]);
        for &f in finals {
            a.add_final(vec![qs[f]]);
        }
        (sig, a)
    }

    #[test]
    fn guarded_fixpoints_cancel_without_polluting_the_memo() {
        let (_sig, a) = mod_k(3, &[0]);
        let mut store = AutStore::new();
        let ia = store.intern(a);
        let d = store.dfta_of(ia);
        // A tripped guard cancels the miss and memoizes nothing.
        let tripped = Guard::new();
        tripped.cancel();
        assert!(store.reachable_guarded(d, &tripped).is_none());
        assert!(store.witnesses_guarded(d, &tripped).is_none());
        assert!(store.product_guarded(d, d, &tripped).is_none());
        let misses_after_cancel = store.stats().memo_misses;
        // An uncancelled retry on the same store computes the full
        // result (a genuine miss: nothing partial was cached)...
        let live = Guard::new();
        let r = store.reachable_guarded(d, &live).expect("uncancelled");
        assert_eq!(r.len(), 3);
        assert!(store.stats().memo_misses > misses_after_cancel);
        // ...and is now memoized: a memo hit is served even under a
        // tripped guard (it is a complete result).
        assert_eq!(*store.reachable_guarded(d, &tripped).expect("memo hit"), *r);
        let (pd, _) = store.product_guarded(d, d, &live).expect("uncancelled");
        let (pd2, _) = store.product_guarded(d, d, &tripped).expect("memo hit");
        assert_eq!(pd, pd2, "the product memoizes one entry");
    }

    #[test]
    fn intern_dedups_structurally_equal_automata() {
        let (_sig, a) = mod_k(2, &[0]);
        let (_sig2, b) = mod_k(2, &[0]);
        let mut store = AutStore::new();
        let ia = store.intern(a);
        let ib = store.intern(b);
        assert_eq!(ia, ib, "equal automata share one id");
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().dedup_hits, 1);
        let (_sig3, c) = mod_k(2, &[1]);
        let ic = store.intern(c);
        assert_ne!(ia, ic, "different finals, different id");
        // The two tuple automata share one transition table.
        assert_eq!(store.dfta_of(ia), store.dfta_of(ic));
        assert_eq!(store.dfta_count(), 1);
    }

    #[test]
    fn warm_ops_are_memo_hits_returning_the_same_id() {
        let (sig, a) = mod_k(2, &[0]);
        let (_s2, b) = mod_k(3, &[0]);
        let mut store = AutStore::new();
        let (ia, ib) = (store.intern(a), store.intern(b));
        let cold = store.intersection(ia, ib);
        let misses = store.stats().memo_misses;
        let warm = store.intersection(ia, ib);
        assert_eq!(cold, warm);
        assert_eq!(store.stats().memo_misses, misses, "no new construction");
        assert!(store.stats().memo_hits >= 1);
        // Chained ops memoize at every level.
        let m1 = store.minimized(cold, &sig);
        let m2 = store.minimized(warm, &sig);
        assert_eq!(m1, m2);
        let c1 = store.complement(ia, &sig);
        let c2 = store.complement(ia, &sig);
        assert_eq!(c1, c2);
        let u1 = store.union(ia, ib, &sig);
        let u2 = store.union(ia, ib, &sig);
        assert_eq!(u1, u2);
    }

    #[test]
    fn store_ops_agree_with_free_ops_on_the_language() {
        let (sig, a) = mod_k(2, &[0]);
        let (_s2, b) = mod_k(3, &[0, 2]);
        let mut store = AutStore::new();
        let (ia, ib) = (store.intern(a.clone()), store.intern(b.clone()));
        let inter = store.intersection(ia, ib);
        assert!(store.get(inter).agrees_with(&a.intersection(&b), &sig, 8));
        let uni = store.union(ia, ib, &sig);
        assert!(store.get(uni).agrees_with(&a.union(&b, &sig), &sig, 8));
        let comp = store.complement(ia, &sig);
        assert!(store.get(comp).agrees_with(&a.complement(&sig), &sig, 8));
        let min = store.minimized(ia, &sig);
        assert!(store.get(min).agrees_with(&a.minimized(&sig), &sig, 8));
    }

    #[test]
    fn grown_operands_seed_the_product_worklist() {
        let (sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let q0 = d.add_state(nat);
        let q1 = d.add_state(nat);
        d.add_transition(z, vec![], q0);
        d.add_transition(s, vec![q0], q1);
        d.add_transition(s, vec![q1], q0);
        let mut store = AutStore::new();
        let a = store.intern_dfta(d.clone());
        let (_, cold_map) = store.product_guarded(a, a, &Guard::new()).unwrap();

        // Grow the automaton: a new state and a rule into it.
        let mut d2 = d.clone();
        let q2 = d2.add_state(nat);
        let _ = q2;
        let a2 = store.intern_dfta(d2.clone());
        let (pd, warm_map) = store.product_guarded(a2, a2, &Guard::new()).unwrap();
        assert_eq!(store.stats().seeded_products, 1);
        // The seeded pair set equals the cold pair set of the grown
        // operands.
        let (cold_d, cold2) = d2.product_guarded(&d2, &[], &Guard::new()).unwrap();
        assert_eq!(
            warm_map.keys().collect::<Vec<_>>(),
            cold2.keys().collect::<Vec<_>>()
        );
        assert!(cold_map.keys().all(|k| warm_map.contains_key(k)));
        assert_eq!(store.dfta(pd).state_count(), cold_d.state_count());
        let _ = sig;
    }

    #[test]
    fn lineage_chain_reaches_a_distant_ancestor_product() {
        // Two refinement steps between products: the re-seed lookup
        // walks the `grew_from` chain recorded at intern time, so the
        // grand-ancestor's cached pair map still seeds the product.
        let (_sig, nat, z, s) = nat_signature();
        let mut d = Dfta::new();
        let q0 = d.add_state(nat);
        let q1 = d.add_state(nat);
        d.add_transition(z, vec![], q0);
        d.add_transition(s, vec![q0], q1);
        d.add_transition(s, vec![q1], q0);
        let mut store = AutStore::new();
        let a = store.intern_dfta(d.clone());
        let _ = store.product_guarded(a, a, &Guard::new()).unwrap();

        let mut d2 = d.clone();
        let q2 = d2.add_state(nat);
        let a2 = store.intern_dfta(d2.clone());
        let mut d3 = d2.clone();
        let q3 = d3.add_state(nat);
        d3.add_transition(s, vec![q2], q3);
        let a3 = store.intern_dfta(d3.clone());
        // No product was ever computed for a2; the seed comes from a's.
        let (_, warm_map) = store.product_guarded(a3, a3, &Guard::new()).unwrap();
        assert_eq!(store.stats().seeded_products, 1);
        let (_, cold_map) = d3.product_guarded(&d3, &[], &Guard::new()).unwrap();
        assert_eq!(
            warm_map.keys().collect::<Vec<_>>(),
            cold_map.keys().collect::<Vec<_>>()
        );
        let _ = (a2, q3);
    }

    #[test]
    fn determinize_memoizes_by_structure() {
        let (_sig, nat, z, s) = nat_signature();
        let build = || {
            let mut n = Nfta::new();
            let any = n.add_state(nat);
            let pos = n.add_state(nat);
            n.add_transition(z, vec![], &[any]);
            n.add_transition(s, vec![any], &[any, pos]);
            n.add_transition(s, vec![pos], &[pos]);
            n.add_final(pos);
            n
        };
        let mut store = AutStore::new();
        let d1 = store.determinized(&build());
        let hits = store.stats().memo_hits;
        let d2 = store.determinized(&build());
        assert_eq!(d1, d2);
        assert_eq!(store.stats().memo_hits, hits + 1);
    }

    #[test]
    fn reachable_and_witnesses_memoize() {
        let (_sig, a) = mod_k(3, &[0]);
        let mut store = AutStore::new();
        let ia = store.intern(a);
        let d = store.dfta_of(ia);
        let r1 = store.reachable_guarded(d, &Guard::new()).unwrap();
        let r2 = store.reachable_guarded(d, &Guard::new()).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        let w1 = store.witnesses_guarded(d, &Guard::new()).unwrap();
        let w2 = store.witnesses_guarded(d, &Guard::new()).unwrap();
        assert!(Arc::ptr_eq(&w1, &w2));
        assert_eq!(r1.len(), 3);
        assert_eq!(w1.len(), 3);
    }
}
