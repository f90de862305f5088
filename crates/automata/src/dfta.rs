//! Deterministic finite tree automata with an interned, shared
//! transition table.
//!
//! Definition 2 of the paper: a DFTA over `Σ_F` is `⟨S, Σ_F, S_F, Δ⟩` with
//! transition rules `f(s₁, …, sₘ) → s` and no two rules sharing a
//! left-hand side. [`Dfta`] holds `S` and `Δ`; the final-state component
//! lives in [`crate::TupleAutomaton`], because `n`-automata share one
//! transition table across all predicates (§4.2).
//!
//! # Representation
//!
//! Rules are *interned*: every left-hand side argument tuple lives in one
//! flat arena (`Vec<StateId>`), each rule is a fixed-size record pointing
//! into it, and an open-addressing table keyed by an Fx hash of
//! `(f, args…)` maps left-hand sides to rule indices. Consequences:
//!
//! * [`Dfta::step`] is a single hash probe with **zero heap
//!   allocation** (the old representation allocated an owned `Vec` key
//!   per lookup);
//! * [`Dfta::transitions`] walks a dense `Vec` of records — cache-line
//!   friendly, no tree pointer chasing;
//! * rules are additionally grouped by function symbol (`by_func`) and
//!   states by sort (`by_sort`), so [`Dfta::states_of_sort`] and the
//!   per-symbol scans of the product/determinization constructions are
//!   index lookups instead of full-table filters.
//!
//! Fixpoints ([`Dfta::reachable_guarded`],
//! [`Dfta::witnesses_guarded`]) are worklist algorithms with per-rule
//! pending-argument counters: `O(|Δ| · arity)` total, instead of
//! rescanning the whole table once per round.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHasher};

use ringen_parallel::{Guard, Poller};
use ringen_terms::intern::InternTable;
use ringen_terms::{FuncId, GroundTerm, Signature, SortId, Term, TermId, TermPool, VarId};

/// A state of a [`Dfta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Raw index, usable for dense per-state tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from an index previously obtained from
    /// [`StateId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds `u32::MAX` (instead of silently
    /// truncating, which would alias an unrelated state).
    pub fn from_index(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(raw) => StateId(raw),
            Err(_) => panic!("state index {i} exceeds u32::MAX"),
        }
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Fx hash of a rule left-hand side. Query slices and arena slices go
/// through this one function so probes agree.
#[inline]
fn lhs_hash(f: FuncId, args: &[StateId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(f.index() as u32);
    h.write_u32(args.len() as u32);
    for a in args {
        h.write_u32(a.0);
    }
    h.finish()
}

/// One transition rule `f(args…) → target`; `start/len` index the
/// shared argument arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rule {
    func: FuncId,
    start: u32,
    len: u32,
    target: StateId,
}

/// The state set and transition relation of a deterministic finite tree
/// automaton (without final states).
///
/// # Example
///
/// The `even` automaton of the paper's Example 1:
///
/// ```
/// use ringen_automata::Dfta;
/// use ringen_terms::{signature_helpers::nat_signature, GroundTerm};
///
/// let (sig, nat, z, s) = nat_signature();
/// let mut a = Dfta::new();
/// let s0 = a.add_state(nat);
/// let s1 = a.add_state(nat);
/// a.add_transition(z, vec![], s0);
/// a.add_transition(s, vec![s0], s1);
/// a.add_transition(s, vec![s1], s0);
///
/// let four = GroundTerm::iterate(s, GroundTerm::leaf(z), 4);
/// assert_eq!(a.run(&four), Some(s0));
/// let five = GroundTerm::iterate(s, GroundTerm::leaf(z), 5);
/// assert_eq!(a.run(&five), Some(s1));
/// ```
/// A product automaton together with the map from live state pairs of
/// the operands to the states of the product — the return shape of
/// [`Dfta::product_guarded`].
pub type ProductWithMap = (Dfta, BTreeMap<(StateId, StateId), StateId>);

#[derive(Debug, Clone, Default)]
pub struct Dfta {
    sorts: Vec<SortId>,
    /// Per-sort state index, maintained by [`Dfta::add_state`].
    by_sort: Vec<Vec<StateId>>,
    /// Flat arena holding every rule's argument tuple back to back.
    lhs_args: Vec<StateId>,
    /// Dense rule records, in insertion order.
    rules: Vec<Rule>,
    /// Rule indices grouped by function symbol.
    by_func: Vec<Vec<u32>>,
    /// Left-hand-side intern table over `rules`.
    table: InternTable,
}

impl Dfta {
    /// Creates an automaton with no states.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state carrying the given sort.
    pub fn add_state(&mut self, sort: SortId) -> StateId {
        let id = StateId::from_index(self.sorts.len());
        self.sorts.push(sort);
        if sort.index() >= self.by_sort.len() {
            self.by_sort.resize_with(sort.index() + 1, Vec::new);
        }
        self.by_sort[sort.index()].push(id);
        id
    }

    /// Adds the rule `f(args…) → target`.
    ///
    /// # Panics
    ///
    /// Panics if a rule with the same left-hand side exists (the automaton
    /// would no longer be deterministic) or a state id is stale.
    pub fn add_transition(&mut self, f: FuncId, args: Vec<StateId>, target: StateId) {
        self.add_transition_slice(f, &args, target);
    }

    /// [`Dfta::add_transition`] without taking ownership of the argument
    /// tuple — the builder entry point for allocation-free construction.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Dfta::add_transition`].
    pub fn add_transition_slice(&mut self, f: FuncId, args: &[StateId], target: StateId) {
        for s in args.iter().chain(Some(&target)) {
            assert!(s.index() < self.sorts.len(), "stale state id {s}");
        }
        let hash = lhs_hash(f, args);
        let dup = self
            .table
            .find(hash, |ri| self.rule_matches(ri, f, args))
            .is_some();
        assert!(!dup, "duplicate transition left-hand side");
        let ri = u32::try_from(self.rules.len()).expect("rule count fits u32");
        let start = u32::try_from(self.lhs_args.len()).expect("arena offset fits u32");
        self.lhs_args.extend_from_slice(args);
        self.rules.push(Rule {
            func: f,
            start,
            len: args.len() as u32,
            target,
        });
        if f.index() >= self.by_func.len() {
            self.by_func.resize_with(f.index() + 1, Vec::new);
        }
        self.by_func[f.index()].push(ri);
        let Dfta {
            table,
            rules,
            lhs_args,
            ..
        } = self;
        table.insert_new(hash, ri, |v| {
            let r = &rules[v as usize];
            lhs_hash(
                r.func,
                &lhs_args[r.start as usize..(r.start + r.len) as usize],
            )
        });
    }

    #[inline]
    fn rule_args(&self, r: &Rule) -> &[StateId] {
        &self.lhs_args[r.start as usize..(r.start + r.len) as usize]
    }

    #[inline]
    fn rule_matches(&self, ri: u32, f: FuncId, args: &[StateId]) -> bool {
        let r = &self.rules[ri as usize];
        r.func == f && self.rule_args(r) == args
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.sorts.len()
    }

    /// Number of transition rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.sorts.len() as u32).map(StateId)
    }

    /// The sort a state carries.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this automaton.
    pub fn sort_of(&self, s: StateId) -> SortId {
        self.sorts[s.index()]
    }

    /// States carrying the given sort, from the per-sort index (O(1) to
    /// obtain, not a scan over all states).
    pub fn states_of_sort(&self, sort: SortId) -> impl Iterator<Item = StateId> + '_ {
        self.by_sort
            .get(sort.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// The target of `f(args…)`, if a rule exists. A single hash probe;
    /// performs no heap allocation.
    #[inline]
    pub fn step(&self, f: FuncId, args: &[StateId]) -> Option<StateId> {
        let hash = lhs_hash(f, args);
        self.table
            .find(hash, |ri| self.rule_matches(ri, f, args))
            .map(|ri| self.rules[ri as usize].target)
    }

    /// Iterates over all rules `(f, args) → target`, in insertion order,
    /// reading a dense flat table.
    pub fn transitions(&self) -> impl Iterator<Item = (FuncId, &[StateId], StateId)> + '_ {
        self.rules
            .iter()
            .map(|r| (r.func, self.rule_args(r), r.target))
    }

    /// Iterates over the rules of one function symbol.
    pub fn transitions_of(&self, f: FuncId) -> impl Iterator<Item = (&[StateId], StateId)> + '_ {
        self.by_func
            .get(f.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&ri| {
                let r = &self.rules[ri as usize];
                (self.rule_args(r), r.target)
            })
    }

    /// Runs the automaton on a ground term (Definition 3's `A[t]`).
    /// `None` is the paper's `⊥` — no applicable rule.
    ///
    /// Iterative post-order evaluation with an explicit frame stack: no
    /// recursion (deep terms cannot overflow the call stack) and one
    /// zero-allocation [`Dfta::step`] probe per subterm.
    pub fn run(&self, t: &GroundTerm) -> Option<StateId> {
        let mut frames: Vec<(&GroundTerm, usize)> = Vec::with_capacity(16);
        let mut values: Vec<StateId> = Vec::with_capacity(16);
        frames.push((t, 0));
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            let args = term.args();
            if next < args.len() {
                frame.1 += 1;
                frames.push((&args[next], 0));
            } else {
                frames.pop();
                let base = values.len() - args.len();
                let s = self.step(term.func(), &values[base..])?;
                values.truncate(base);
                values.push(s);
            }
        }
        values.pop()
    }

    /// [`Dfta::run`] with hash-consed memoization of shared ground
    /// subterms: structurally equal subterms are evaluated once per
    /// cache. Worth it for workloads running many terms with common
    /// substructure (bulk acceptance checks, saturation rounds); for a
    /// single deep chain plain [`Dfta::run`] is faster because hashing a
    /// subterm costs as much as running it.
    pub fn run_cached<'t>(&self, t: &'t GroundTerm, cache: &mut RunCache<'t>) -> Option<StateId> {
        if let Some(&hit) = cache.map.get(t) {
            return hit;
        }
        let mut frames: Vec<(&'t GroundTerm, usize)> = Vec::with_capacity(16);
        let mut values: Vec<StateId> = Vec::with_capacity(16);
        frames.push((t, 0));
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            let args = term.args();
            if next < args.len() {
                frame.1 += 1;
                let child = &args[next];
                match cache.map.get(child) {
                    Some(Some(s)) => values.push(*s),
                    Some(None) => {
                        // A subterm with no run makes every ancestor ⊥.
                        for (anc, _) in frames {
                            cache.map.insert(anc, None);
                        }
                        return None;
                    }
                    None => frames.push((child, 0)),
                }
            } else {
                frames.pop();
                let base = values.len() - args.len();
                match self.step(term.func(), &values[base..]) {
                    Some(s) => {
                        cache.map.insert(term, Some(s));
                        values.truncate(base);
                        values.push(s);
                    }
                    None => {
                        cache.map.insert(term, None);
                        for (anc, _) in frames {
                            cache.map.insert(anc, None);
                        }
                        return None;
                    }
                }
            }
        }
        values.pop()
    }

    /// [`Dfta::run`] over a term interned in a [`TermPool`], memoized
    /// by dense [`TermId`] in a [`PoolRunCache`]: a cache probe is a
    /// vector index — no hashing, no subtree walks — and results are
    /// shared across every term in the pool. This is the keying the
    /// saturation and enumeration workloads use; [`Dfta::run_cached`]
    /// remains for terms that are not pooled.
    pub fn run_pooled(
        &self,
        pool: &TermPool,
        t: TermId,
        cache: &mut PoolRunCache,
    ) -> Option<StateId> {
        if cache.states.len() < pool.len() {
            cache.states.resize(pool.len(), None);
        }
        if let Some(hit) = cache.states[t.index()] {
            return hit;
        }
        let mut frames: Vec<(TermId, usize)> = Vec::with_capacity(16);
        let mut values: Vec<StateId> = Vec::with_capacity(16);
        frames.push((t, 0));
        while let Some(frame) = frames.last_mut() {
            let (id, next) = *frame;
            let args = pool.args(id);
            if next < args.len() {
                frame.1 += 1;
                let child = args[next];
                match cache.states[child.index()] {
                    Some(Some(s)) => values.push(s),
                    Some(None) => {
                        // A subterm with no run makes every ancestor ⊥.
                        for (anc, _) in frames {
                            cache.states[anc.index()] = Some(None);
                        }
                        return None;
                    }
                    None => frames.push((child, 0)),
                }
            } else {
                frames.pop();
                let base = values.len() - args.len();
                match self.step(pool.func(id), &values[base..]) {
                    Some(s) => {
                        cache.states[id.index()] = Some(Some(s));
                        values.truncate(base);
                        values.push(s);
                    }
                    None => {
                        cache.states[id.index()] = Some(None);
                        for (anc, _) in frames {
                            cache.states[anc.index()] = Some(None);
                        }
                        return None;
                    }
                }
            }
        }
        values.pop()
    }

    /// Batch [`Dfta::run_pooled`] over a slice of pooled ids, sharded
    /// across `par`'s workers; each worker evaluates its contiguous
    /// chunk under its own dense memo. The result matches `ids`
    /// element-wise and — `run_pooled` being a pure function of
    /// `(self, pool, id)` — is identical at any worker count; a
    /// sequential pool runs the whole batch inline under one memo.
    ///
    /// Per-worker memos trade subterm sharing for parallelism: on a
    /// batch closed under subterms (the fingerprint enumerations),
    /// every worker may re-derive the deep closure its chunk touches,
    /// so *total* work can grow by up to the worker count while
    /// wall-clock stays at worst around the sequential pass — which is
    /// why the batch is cut into exactly `threads` chunks here, not the
    /// finer load-balancing chunks of [`Pool::map_chunks`]
    /// (`ringen_parallel::Pool::map_chunks`). Batches of mostly
    /// unshared terms parallelize near-linearly.
    ///
    /// This is the batch surface the fingerprint sweeps use
    /// (`ringen-regelem`); anything that evaluates many pooled terms
    /// against one automaton can go through it.
    pub fn run_pooled_batch(
        &self,
        pool: &TermPool,
        ids: &[TermId],
        par: &ringen_parallel::Pool,
    ) -> Vec<Option<StateId>> {
        if par.is_sequential() || ids.len() < 2 {
            let mut cache = PoolRunCache::new();
            return ids
                .iter()
                .map(|&id| self.run_pooled(pool, id, &mut cache))
                .collect();
        }
        let chunk = ids.len().div_ceil(par.threads());
        let ranges: Vec<(usize, usize)> = (0..ids.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(ids.len())))
            .collect();
        par.map_items(&ranges, |_, &(a, b)| {
            let mut cache = PoolRunCache::new();
            ids[a..b]
                .iter()
                .map(|&id| self.run_pooled(pool, id, &mut cache))
                .collect::<Vec<_>>()
        })
        .concat()
    }

    /// Evaluates a term with variables under a state assignment. This is
    /// the compositional evaluation used by the regular-inductiveness
    /// check (every ground instance of `t` where variable `v` evaluates to
    /// `env[v]` runs to the returned state). Iterative, like
    /// [`Dfta::run`].
    pub fn eval(&self, t: &Term, env: &BTreeMap<VarId, StateId>) -> Option<StateId> {
        let mut frames: Vec<(&Term, usize)> = Vec::with_capacity(16);
        let mut values: Vec<StateId> = Vec::with_capacity(16);
        frames.push((t, 0));
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            match term {
                Term::Var(v) => {
                    frames.pop();
                    values.push(*env.get(v)?);
                }
                Term::App(f, ts) => {
                    if next < ts.len() {
                        frame.1 += 1;
                        frames.push((&ts[next], 0));
                    } else {
                        frames.pop();
                        let base = values.len() - ts.len();
                        let s = self.step(*f, &values[base..])?;
                        values.truncate(base);
                        values.push(s);
                    }
                }
            }
        }
        values.pop()
    }

    /// The set of *reachable* states: those `s` with `A[t] = s` for some
    /// ground constructor term `t`.
    ///
    /// Worklist with per-rule pending-argument counters: `O(|Δ|·arity)`
    /// total work, instead of one full table scan per round. Polls
    /// `guard` between worklist pops and returns `None` (discarding the
    /// partial fixpoint) once it trips.
    pub fn reachable_guarded(&self, guard: &Guard) -> Option<BTreeSet<StateId>> {
        let mut poller = Poller::new(guard);
        let mut reached = vec![false; self.state_count()];
        let (mut pending, occ) = self.rule_dependencies();
        let mut stack: Vec<StateId> = Vec::new();
        for r in &self.rules {
            if r.len == 0 && !reached[r.target.index()] {
                reached[r.target.index()] = true;
                stack.push(r.target);
            }
        }
        while let Some(s) = stack.pop() {
            if poller.poll() {
                return None;
            }
            for &ri in &occ[s.index()] {
                pending[ri as usize] -= 1;
                if pending[ri as usize] == 0 {
                    let t = self.rules[ri as usize].target;
                    if !reached[t.index()] {
                        reached[t.index()] = true;
                        stack.push(t);
                    }
                }
            }
        }
        Some(
            reached
                .iter()
                .enumerate()
                .filter(|(_, r)| **r)
                .map(|(i, _)| StateId::from_index(i))
                .collect(),
        )
    }

    /// For every state, a smallest-height witness term running to it
    /// (`None` for unreachable states).
    ///
    /// Breadth-first worklist: states are discovered in non-decreasing
    /// witness height, so the first rule to complete for a state yields
    /// a minimum-height witness. `O(|Δ|·arity)` plus term construction.
    /// Polls `guard` between worklist pops and returns `None`
    /// (discarding partial witnesses) once it trips.
    pub fn witnesses_guarded(&self, guard: &Guard) -> Option<Vec<Option<GroundTerm>>> {
        let mut poller = Poller::new(guard);
        let mut wit: Vec<Option<GroundTerm>> = vec![None; self.state_count()];
        let (mut pending, occ) = self.rule_dependencies();
        let mut queue: VecDeque<StateId> = VecDeque::new();
        let fire = |ri: usize, wit: &mut Vec<Option<GroundTerm>>, queue: &mut VecDeque<StateId>| {
            let r = &self.rules[ri];
            if wit[r.target.index()].is_some() {
                return;
            }
            let args: Vec<GroundTerm> = self
                .rule_args(r)
                .iter()
                .map(|a| {
                    wit[a.index()]
                        .clone()
                        .expect("fired rule has witnessed args")
                })
                .collect();
            wit[r.target.index()] = Some(GroundTerm::app(r.func, args));
            queue.push_back(r.target);
        };
        for ri in 0..self.rules.len() {
            if self.rules[ri].len == 0 {
                fire(ri, &mut wit, &mut queue);
            }
        }
        while let Some(s) = queue.pop_front() {
            if poller.poll() {
                return None;
            }
            for &ri in &occ[s.index()] {
                pending[ri as usize] -= 1;
                if pending[ri as usize] == 0 {
                    fire(ri as usize, &mut wit, &mut queue);
                }
            }
        }
        Some(wit)
    }

    /// Per-rule pending-argument counters plus the state → rule
    /// occurrence lists (one entry per argument position, so duplicated
    /// arguments count twice — matching the one decrement per position
    /// the worklists perform).
    fn rule_dependencies(&self) -> (Vec<u32>, Vec<Vec<u32>>) {
        let pending: Vec<u32> = self.rules.iter().map(|r| r.len).collect();
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); self.state_count()];
        for (ri, r) in self.rules.iter().enumerate() {
            for a in self.rule_args(r) {
                occ[a.index()].push(ri as u32);
            }
        }
        (pending, occ)
    }

    /// Whether every constructor of `sig` has a rule for every sort-correct
    /// argument combination — i.e. `run` is total on well-sorted terms.
    pub fn is_complete(&self, sig: &Signature) -> bool {
        self.missing_lhs(sig).is_empty()
    }

    fn missing_lhs(&self, sig: &Signature) -> Vec<(FuncId, Vec<StateId>)> {
        let mut missing = Vec::new();
        for c in sig.constructors() {
            let domain = &sig.func(c).domain;
            let choices: Vec<Vec<StateId>> = domain
                .iter()
                .map(|s| self.states_of_sort(*s).collect())
                .collect();
            for combo in cartesian(&choices) {
                if self.step(c, &combo).is_none() {
                    missing.push((c, combo));
                }
            }
        }
        missing
    }

    /// Completes the automaton over `sig`: adds one sink state per sort
    /// and routes every missing left-hand side to the sink of the
    /// target sort. Returns the completed automaton; `run` on it is total
    /// for well-sorted terms.
    pub fn completed(&self, sig: &Signature) -> Dfta {
        let mut out = self.clone();
        let mut sinks: BTreeMap<SortId, StateId> = BTreeMap::new();
        // Sinks must exist for every ADT sort before enumerating rules, as
        // sink states themselves generate argument combinations.
        for adt in sig.adts() {
            let sink = out.add_state(adt.sort);
            sinks.insert(adt.sort, sink);
        }
        // One pass suffices: all sinks already exist, and filling rules
        // adds no states, so no new left-hand sides can appear.
        for (f, args) in out.missing_lhs(sig) {
            let target = sinks[&sig.func(f).range];
            out.add_transition_slice(f, &args, target);
        }
        debug_assert!(out.missing_lhs(sig).is_empty());
        out
    }

    /// Product automaton, built by a pair-interning worklist: only the
    /// *product-reachable* sort-compatible pairs are materialized (the
    /// pairs `(a, b)` with `self[t] = a` and `other[t] = b` for some
    /// ground `t`), instead of the full `|S₁|·|S₂|` square. Returns the
    /// product and the mapping `(left, right) → product state`; pairs no
    /// ground term reaches are absent from the map.
    ///
    /// The worklist starts from the nullary-rule pairs plus `seed` — the
    /// incremental restart used by [`crate::store::AutStore`] when an
    /// operand has merely *grown* (states appended, rules added) since a
    /// previous product. Every seeded pair is materialized up front, so
    /// seeding with known-reachable pairs of a previous run yields the
    /// same pair set as a cold (`seed = &[]`) run without re-deriving
    /// those pairs bottom-up. Seeding pairs that are *not*
    /// product-reachable is still language-safe (every emitted rule
    /// remains a correct componentwise step; the extra states are
    /// unreachable) but enlarges the output, so callers should only seed
    /// pairs known to stay reachable. Out-of-range seed pairs are
    /// ignored.
    ///
    /// Polls `guard` during the rule-pair enumeration and between
    /// worklist pops, returning `None` (discarding the partial product)
    /// once it trips.
    pub fn product_guarded(
        &self,
        other: &Dfta,
        seed: &[(StateId, StateId)],
        guard: &Guard,
    ) -> Option<ProductWithMap> {
        let mut poller = Poller::new(guard);
        let mut out = Dfta::new();
        let mut map: FxHashMap<(StateId, StateId), StateId> = FxHashMap::default();

        // One record per same-symbol rule pair, with a pending counter
        // over its argument positions.
        struct RulePair {
            ra: u32,
            rb: u32,
            pending: u32,
        }
        let mut pairs_of_rules: Vec<RulePair> = Vec::new();
        // (left, right) pair → rule-pair occurrences, one per position.
        let mut occ: FxHashMap<(StateId, StateId), Vec<u32>> = FxHashMap::default();
        let mut ready: Vec<u32> = Vec::new();
        let shared_funcs = self.by_func.len().min(other.by_func.len());
        for f in 0..shared_funcs {
            for &ra in &self.by_func[f] {
                if poller.poll() {
                    return None;
                }
                for &rb in &other.by_func[f] {
                    let a = &self.rules[ra as usize];
                    let b = &other.rules[rb as usize];
                    if a.len != b.len {
                        continue;
                    }
                    let id = u32::try_from(pairs_of_rules.len()).expect("rule pairs fit u32");
                    pairs_of_rules.push(RulePair {
                        ra,
                        rb,
                        pending: a.len,
                    });
                    if a.len == 0 {
                        ready.push(id);
                    } else {
                        for (x, y) in self.rule_args(a).iter().zip(other.rule_args(b)) {
                            occ.entry((*x, *y)).or_default().push(id);
                        }
                    }
                }
            }
        }

        let mut queue: Vec<(StateId, StateId)> = Vec::new();
        let mut args_p: Vec<StateId> = Vec::new();
        // Materialize the seed pairs before any rule fires, so the
        // worklist resumes from them instead of re-deriving them.
        for &(x, y) in seed {
            if x.index() >= self.state_count() || y.index() >= other.state_count() {
                continue;
            }
            map.entry((x, y)).or_insert_with(|| {
                queue.push((x, y));
                out.add_state(self.sort_of(x))
            });
        }
        let fire = |rp: &RulePair,
                    out: &mut Dfta,
                    map: &mut FxHashMap<(StateId, StateId), StateId>,
                    queue: &mut Vec<(StateId, StateId)>,
                    args_p: &mut Vec<StateId>| {
            let a = &self.rules[rp.ra as usize];
            let b = &other.rules[rp.rb as usize];
            args_p.clear();
            args_p.extend(
                self.rule_args(a)
                    .iter()
                    .zip(other.rule_args(b))
                    .map(|(x, y)| map[&(*x, *y)]),
            );
            let tp_pair = (a.target, b.target);
            let tp = *map.entry(tp_pair).or_insert_with(|| {
                queue.push(tp_pair);
                out.add_state(self.sort_of(a.target))
            });
            out.add_transition_slice(a.func, args_p, tp);
        };
        for id in ready {
            fire(
                &pairs_of_rules[id as usize],
                &mut out,
                &mut map,
                &mut queue,
                &mut args_p,
            );
        }
        while let Some(pair) = queue.pop() {
            if poller.poll() {
                return None;
            }
            let Some(deps) = occ.remove(&pair) else {
                continue;
            };
            for ri in deps {
                let rp = &mut pairs_of_rules[ri as usize];
                rp.pending -= 1;
                if rp.pending == 0 {
                    let rp = &pairs_of_rules[ri as usize];
                    fire(rp, &mut out, &mut map, &mut queue, &mut args_p);
                }
            }
        }
        Some((out, map.into_iter().collect()))
    }

    /// Restricts the automaton to the given states, renumbering them.
    /// Rules mentioning removed states are dropped. Returns the restricted
    /// automaton and the old-to-new state mapping.
    pub fn restrict(&self, keep: &BTreeSet<StateId>) -> (Dfta, BTreeMap<StateId, StateId>) {
        let mut out = Dfta::new();
        let mut map = BTreeMap::new();
        for s in self.states() {
            if keep.contains(&s) {
                let n = out.add_state(self.sort_of(s));
                map.insert(s, n);
            }
        }
        let mut new_args: Vec<StateId> = Vec::new();
        for (f, args, t) in self.transitions() {
            if !keep.contains(&t) || args.iter().any(|a| !keep.contains(a)) {
                continue;
            }
            new_args.clear();
            new_args.extend(args.iter().map(|a| map[a]));
            out.add_transition_slice(f, &new_args, map[&t]);
        }
        (out, map)
    }

    /// Display adaptor printing rules with names from `sig`.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> DisplayDfta<'a> {
        DisplayDfta { dfta: self, sig }
    }
}

/// Structural equality on the state list and the rule *set* (insertion
/// order of rules does not matter, mirroring the old ordered-map
/// representation).
impl PartialEq for Dfta {
    fn eq(&self, other: &Self) -> bool {
        if self.sorts != other.sorts || self.rules.len() != other.rules.len() {
            return false;
        }
        self.transitions()
            .all(|(f, args, t)| other.step(f, args) == Some(t))
    }
}

impl Eq for Dfta {}

/// Memo table for [`Dfta::run_cached`], borrowing the cached subterms.
#[derive(Debug, Default)]
pub struct RunCache<'t> {
    map: FxHashMap<&'t GroundTerm, Option<StateId>>,
}

impl<'t> RunCache<'t> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized subterms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Memo table for [`Dfta::run_pooled`]: a dense per-[`TermId`] vector.
/// `None` = not yet evaluated, `Some(None)` = the paper's ⊥ (no rule),
/// `Some(Some(s))` = runs to `s`. Valid for one `(Dfta, TermPool)`
/// pair; the vector grows lazily as the pool grows.
#[derive(Debug, Clone, Default)]
pub struct PoolRunCache {
    states: Vec<Option<Option<StateId>>>,
}

impl PoolRunCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized terms.
    pub fn len(&self) -> usize {
        self.states.iter().filter(|s| s.is_some()).count()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets all memoized runs (e.g. after mutating the automaton)
    /// while keeping the allocation.
    pub fn clear(&mut self) {
        self.states.iter_mut().for_each(|s| *s = None);
    }
}

/// All combinations with one element from each choice list.
pub(crate) fn cartesian<T: Clone>(choices: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![Vec::new()];
    for c in choices {
        let mut next = Vec::with_capacity(out.len() * c.len());
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

/// Displays a [`Dfta`] transition table. Returned by [`Dfta::display`].
#[derive(Debug, Clone, Copy)]
pub struct DisplayDfta<'a> {
    dfta: &'a Dfta,
    sig: &'a Signature,
}

impl fmt::Display for DisplayDfta<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (func, args, target) in self.dfta.transitions() {
            let name = &self.sig.func(func).name;
            if args.is_empty() {
                writeln!(f, "{name} -> {target}")?;
            } else {
                let parts: Vec<String> = args.iter().map(|s| s.to_string()).collect();
                writeln!(f, "{name}({}) -> {target}", parts.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_signature, tree_signature};

    fn even_dfta() -> (Signature, Dfta, StateId, StateId, FuncId, FuncId) {
        let (sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let s0 = a.add_state(nat);
        let s1 = a.add_state(nat);
        a.add_transition(z, vec![], s0);
        a.add_transition(s, vec![s0], s1);
        a.add_transition(s, vec![s1], s0);
        (sig, a, s0, s1, z, s)
    }

    #[test]
    fn run_flips_states_on_successor() {
        let (_sig, a, s0, s1, z, s) = even_dfta();
        for n in 0..10 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            let expect = if n % 2 == 0 { s0 } else { s1 };
            assert_eq!(a.run(&t), Some(expect), "n = {n}");
        }
    }

    #[test]
    fn run_is_none_without_rule() {
        let (sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let s0 = a.add_state(nat);
        a.add_transition(z, vec![], s0);
        // No rule for S at all.
        assert_eq!(a.run(&GroundTerm::iterate(s, GroundTerm::leaf(z), 1)), None);
        assert!(!a.is_complete(&sig));
    }

    #[test]
    fn run_survives_very_deep_terms() {
        // The recursive kernel would overflow the stack here. `run`
        // itself is iterative; the big stack is only for `GroundTerm`'s
        // recursive drop glue at the end of the closure.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let (_sig, a, s0, _s1, z, s) = even_dfta();
                let t = GroundTerm::iterate(s, GroundTerm::leaf(z), 200_000);
                assert_eq!(a.run(&t), Some(s0));
            })
            .expect("spawn test thread")
            .join()
            .expect("deep-term run");
    }

    #[test]
    fn run_cached_memoizes_shared_subterms() {
        let (_sig, a, s0, s1, z, s) = even_dfta();
        let mut cache = RunCache::new();
        let two = GroundTerm::iterate(s, GroundTerm::leaf(z), 2);
        let three = GroundTerm::app(s, vec![two.clone()]);
        assert_eq!(a.run_cached(&two, &mut cache), Some(s0));
        let filled = cache.len();
        assert!(filled >= 3);
        assert_eq!(a.run_cached(&three, &mut cache), Some(s1));
        // `three`'s subterm `two` came from the cache: only the new root
        // was added.
        assert_eq!(cache.len(), filled + 1);
    }

    #[test]
    fn run_cached_records_failures() {
        let (_sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let s0 = a.add_state(nat);
        a.add_transition(z, vec![], s0);
        let mut cache = RunCache::new();
        let one = GroundTerm::iterate(s, GroundTerm::leaf(z), 1);
        let two = GroundTerm::app(s, vec![one.clone()]);
        assert_eq!(a.run_cached(&two, &mut cache), None);
        assert_eq!(a.run_cached(&one, &mut cache), None);
        assert_eq!(a.run_cached(&GroundTerm::leaf(z), &mut cache), Some(s0));
    }

    #[test]
    fn run_pooled_agrees_with_run_and_memoizes() {
        let (_sig, a, s0, s1, z, s) = even_dfta();
        let mut pool = TermPool::new();
        let mut cache = PoolRunCache::new();
        for n in 0..10 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n);
            let id = pool.intern_term(&t);
            let expect = if n % 2 == 0 { s0 } else { s1 };
            assert_eq!(a.run_pooled(&pool, id, &mut cache), Some(expect));
            assert_eq!(a.run(&t), Some(expect));
        }
        // Every distinct subterm was memoized exactly once.
        assert_eq!(cache.len(), pool.len());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn run_pooled_records_failures() {
        let (_sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let s0 = a.add_state(nat);
        a.add_transition(z, vec![], s0);
        let mut pool = TermPool::new();
        let mut cache = PoolRunCache::new();
        let two = pool.intern_term(&GroundTerm::iterate(s, GroundTerm::leaf(z), 2));
        let one = pool.intern_term(&GroundTerm::iterate(s, GroundTerm::leaf(z), 1));
        let zero = pool.intern(z, &[]);
        assert_eq!(a.run_pooled(&pool, two, &mut cache), None);
        // The inner S(Z) was marked ⊥ as an ancestor of nothing — it is
        // itself unrunnable and cached as such.
        assert_eq!(a.run_pooled(&pool, one, &mut cache), None);
        assert_eq!(a.run_pooled(&pool, zero, &mut cache), Some(s0));
    }

    #[test]
    fn run_pooled_batch_matches_per_id_runs_at_any_thread_count() {
        let (sig, a, _s0, _s1, _z, _s) = even_dfta();
        let nat = a.states().next().map(|q| a.sort_of(q)).unwrap();
        let mut pool = TermPool::new();
        let ids = ringen_terms::herbrand::pooled_terms_up_to_height(&sig, nat, 7, &mut pool);
        let mut cache = PoolRunCache::new();
        let expect: Vec<Option<StateId>> = ids
            .iter()
            .map(|&id| a.run_pooled(&pool, id, &mut cache))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let par =
                ringen_parallel::Pool::new(&ringen_parallel::ParallelConfig::with_threads(threads));
            assert_eq!(
                a.run_pooled_batch(&pool, &ids, &par),
                expect,
                "threads = {threads}"
            );
        }
        // Degenerate batches.
        let par = ringen_parallel::Pool::new(&ringen_parallel::ParallelConfig::with_threads(4));
        assert_eq!(a.run_pooled_batch(&pool, &[], &par), Vec::new());
        assert_eq!(a.run_pooled_batch(&pool, &ids[..1], &par), expect[..1]);
    }

    #[test]
    #[should_panic(expected = "duplicate transition")]
    fn duplicate_lhs_panics() {
        let (_sig, mut a, s0, s1, z, _s) = even_dfta();
        let _ = s1;
        a.add_transition(z, vec![], s0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_state_index_panics() {
        let _ = StateId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn eval_term_with_variables() {
        let (_sig, a, s0, s1, _z, s) = even_dfta();
        let mut ctx = ringen_terms::VarContext::new();
        let nat = a.sort_of(s0);
        let x = ctx.fresh("x", nat);
        let t = Term::iterate(s, Term::var(x), 2); // S(S(x))
        let env: BTreeMap<_, _> = [(x, s1)].into();
        assert_eq!(a.eval(&t, &env), Some(s1));
        let empty = BTreeMap::new();
        assert_eq!(a.eval(&t, &empty), None);
    }

    #[test]
    fn reachability_and_witnesses() {
        let (_sig, mut a, s0, s1, _z, s) = even_dfta();
        let nat = a.sort_of(s0);
        let dead = a.add_state(nat);
        a.add_transition(s, vec![dead], dead);
        let reach = a.reachable_guarded(&Guard::new()).unwrap();
        assert!(reach.contains(&s0) && reach.contains(&s1));
        assert!(!reach.contains(&dead));
        let wit = a.witnesses_guarded(&Guard::new()).unwrap();
        assert_eq!(wit[s0.index()].as_ref().map(GroundTerm::size), Some(1));
        assert_eq!(wit[s1.index()].as_ref().map(GroundTerm::size), Some(2));
        assert_eq!(wit[dead.index()], None);
    }

    #[test]
    fn witnesses_pick_minimum_height_across_rules() {
        // Two ways into q2: via a height-3 chain and via a direct leaf.
        let (_sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let q0 = a.add_state(nat);
        let q1 = a.add_state(nat);
        let q2 = a.add_state(nat);
        a.add_transition(z, vec![], q0);
        a.add_transition(s, vec![q0], q1);
        a.add_transition(s, vec![q1], q2);
        let mut b = a.clone();
        // In `b`, q2 also has a nullary rule; its witness must shrink.
        let z2 = z; // same symbol, different LHS is impossible — use sort trick
        let _ = z2;
        assert_eq!(
            a.witnesses_guarded(&Guard::new()).unwrap()[q2.index()]
                .as_ref()
                .map(GroundTerm::size),
            Some(3)
        );
        let extra = b.add_state(nat);
        b.add_transition(s, vec![extra], q2);
        // extra is unreachable, so q2's witness is unchanged.
        assert_eq!(
            b.witnesses_guarded(&Guard::new()).unwrap()[q2.index()]
                .as_ref()
                .map(GroundTerm::size),
            Some(3)
        );
    }

    #[test]
    fn completion_makes_runs_total() {
        let (sig, nat, z, s) = nat_signature();
        let mut a = Dfta::new();
        let s0 = a.add_state(nat);
        a.add_transition(z, vec![], s0);
        let c = a.completed(&sig);
        assert!(c.is_complete(&sig));
        // The original rule is preserved; new states absorb the rest.
        assert_eq!(c.run(&GroundTerm::leaf(z)), Some(s0));
        let t = GroundTerm::iterate(s, GroundTerm::leaf(z), 3);
        let sink = c.run(&t).unwrap();
        assert_ne!(sink, s0);
        // Completing a complete automaton only adds unreachable sinks.
        let (_sig2, full, ..) = even_dfta();
        let c2 = full.completed(&sig);
        assert_eq!(c2.run(&t), full.run(&t));
    }

    #[test]
    fn product_tracks_both_runs() {
        // Product of even-automaton with itself shifted: mod-3 automaton.
        let (sig, nat, z, s) = nat_signature();
        let mut b = Dfta::new();
        let t0 = b.add_state(nat);
        let t1 = b.add_state(nat);
        let t2 = b.add_state(nat);
        b.add_transition(z, vec![], t0);
        b.add_transition(s, vec![t0], t1);
        b.add_transition(s, vec![t1], t2);
        b.add_transition(s, vec![t2], t0);
        let (_sig_e, a, s0, _s1, ..) = even_dfta();
        let (p, map) = a.product_guarded(&b, &[], &Guard::new()).unwrap();
        assert_eq!(p.state_count(), 6);
        for n in 0..12u32 {
            let t = GroundTerm::iterate(s, GroundTerm::leaf(z), n as usize);
            let pa = a.run(&t).unwrap();
            let pb = b.run(&t).unwrap();
            assert_eq!(p.run(&t), Some(map[&(pa, pb)]));
        }
        let _ = (sig, s0, t0);
    }

    #[test]
    fn product_materializes_only_reachable_pairs() {
        // even × even: of the 4 sort-compatible pairs only the diagonal
        // is reachable (a term cannot be even and odd at once).
        let (_sig, a, s0, s1, ..) = even_dfta();
        let (p, map) = a.product_guarded(&a, &[], &Guard::new()).unwrap();
        assert_eq!(p.state_count(), 2);
        assert!(map.contains_key(&(s0, s0)) && map.contains_key(&(s1, s1)));
        assert!(!map.contains_key(&(s0, s1)));
    }

    #[test]
    fn restrict_drops_rules_of_removed_states() {
        let (_sig, mut a, s0, s1, _z, s) = even_dfta();
        let nat = a.sort_of(s0);
        let dead = a.add_state(nat);
        a.add_transition(s, vec![dead], dead);
        let keep: BTreeSet<_> = [s0, s1].into();
        let (r, map) = a.restrict(&keep);
        assert_eq!(r.state_count(), 2);
        assert_eq!(r.transitions().count(), 3);
        assert!(map.contains_key(&s0) && !map.contains_key(&dead));
    }

    #[test]
    fn display_names_constructors() {
        let (sig, a, ..) = even_dfta();
        let s = a.display(&sig).to_string();
        assert!(s.contains("Z -> q0"));
        assert!(s.contains("S(q0) -> q1"));
    }

    #[test]
    fn states_of_sort_filters() {
        let (sig, tree, leaf, node) = tree_signature();
        let mut a = Dfta::new();
        let q = a.add_state(tree);
        a.add_transition(leaf, vec![], q);
        a.add_transition(node, vec![q, q], q);
        assert_eq!(a.states_of_sort(tree).count(), 1);
        assert!(a.is_complete(&sig));
        assert_eq!(a.run(&GroundTerm::leaf(leaf)), Some(q));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let (_sig, nat, z, s) = nat_signature();
        let build = |flip: bool| {
            let mut a = Dfta::new();
            let s0 = a.add_state(nat);
            let s1 = a.add_state(nat);
            if flip {
                a.add_transition(s, vec![s1], s0);
                a.add_transition(s, vec![s0], s1);
                a.add_transition(z, vec![], s0);
            } else {
                a.add_transition(z, vec![], s0);
                a.add_transition(s, vec![s0], s1);
                a.add_transition(s, vec![s1], s0);
            }
            a
        };
        assert_eq!(build(false), build(true));
        let (_sig2, other, ..) = even_dfta();
        assert_eq!(build(false), other);
    }

    #[test]
    fn transitions_of_groups_by_symbol() {
        let (_sig, a, _s0, _s1, z, s) = even_dfta();
        assert_eq!(a.transitions_of(z).count(), 1);
        assert_eq!(a.transitions_of(s).count(), 2);
        assert_eq!(a.rule_count(), 3);
    }
}
