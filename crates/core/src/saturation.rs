//! Bottom-up saturation: least-model computation and refutations.
//!
//! Finite-model finding only ever proves satisfiability. Unsatisfiability
//! of a CHC system is witnessed by a *ground derivation of ⊥*: a forward
//! chain of clause instances deriving facts until a query clause fires.
//! This module computes the least Herbrand model bottom-up (with
//! deterministic budgets) and, on refutation, returns a replayable
//! [`Refutation`] object that [`check_refutation`] validates from scratch
//! — UNSAT answers are certified, mirroring how SAT answers carry a
//! checkable [`crate::RegularInvariant`].
//!
//! Constraints (`=`, `≠`, testers) are decided natively on interned
//! terms, so the refuter runs on the *original* system, independent of
//! the preprocessing pipeline it cross-validates.
//!
//! # The interned fact base
//!
//! Every derived term is hash-consed into one [`TermPool`] owned by the
//! [`FactBase`]: facts are `(PredId, args)` with [`TermId`] arguments,
//! the body join matches clause patterns directly against pooled ids
//! (variable bindings are `VarId → TermId` pairs — comparing a bound
//! variable against a candidate subterm is a `u32` compare, never a
//! tree walk), and the fact index is an open-addressing probe table
//! over the fact arena, so a fact is stored exactly once. Derived-term
//! heights come from the pool's memoized table. Boxed [`GroundTerm`]s
//! appear in only two places: the per-sort cache of enumeration
//! candidates (below) and the certificate boundary ([`Refutation`] /
//! [`check_refutation`]), which replays derivations independently of
//! the pool.
//!
//! # Constraints and free variables, on pooled ids
//!
//! A clause whose body join binds every variable and which has no
//! constraint derives its head straight from the join's binding. Any
//! other clause stays on pooled ids too; each worker's matcher works in
//! its [`ScratchPool`], a view that resolves snapshot and scratch ids
//! alike:
//!
//! - **Equalities** are solved to a fixpoint. When every variable of
//!   one side is bound, that side is interned into the scratch pool
//!   and the other side is matched against the resulting id, binding
//!   its variables; two bound sides compare by id. The matcher is the
//!   one the body join uses.
//! - **Free variables** — those neither the join nor an equality binds
//!   — are enumerated in `clause.vars` order. Each ranges over the
//!   first [`SaturationConfig::free_var_candidates`] terms of its sort
//!   by size, interned once per work item; one step per candidate, and
//!   a binding is a push onto the pooled binding.
//! - **Disequalities** are decided by id comparison and **testers** by
//!   the head symbol, once every variable is bound. So are equalities
//!   whose sides both still held unbound variables after the fixpoint
//!   (`x = S(y)` with `x` and `y` free): both variables are enumerated
//!   and the equality checked afterwards — enumerate, then check.
//!
//! A binding that took this path is recorded in `clause.vars` order; one
//! straight from the join keeps the join's order.
//!
//! # Sharded rounds: snapshot, delta, merge
//!
//! Within a round every clause matches against the **frozen snapshot**
//! of the fact base taken at the round's start (Jacobi iteration — a
//! clause never sees facts derived earlier in the *same* round). That
//! makes clauses independent, so the round shards the clause list
//! across a [`ringen_parallel::Pool`]: each worker joins its clauses
//! against the shared `&FactBase`, interning derived terms into a
//! thread-local [`ScratchPool`] and accumulating a private delta of
//! candidate facts. A sequential merge then folds the deltas **in
//! clause order** — re-interning scratch terms into the master pool
//! ([`TermPool::reintern`]), deduplicating, recording provenance, and
//! applying the fact/step budgets — so the outcome, the fact order, the
//! pool contents, and any refutation certificate are a pure function of
//! the per-clause results and therefore bit-for-bit identical at any
//! thread count (`RINGEN_THREADS=1` forces the spawn-free inline
//! path; the differential property tests in `tests/` pin 2, 4 and 8
//! workers to it). Budgets stay deterministic because each clause runs
//! under the budget remaining at the round's start, and the merge
//! re-applies the global caps clause by clause. The workers themselves
//! are spawned **once per [`saturate_guarded`] call** and parked between
//! rounds ([`ringen_parallel::Pool::persistent`]), so many-round
//! instances pay no per-round spawn latency.
//!
//! # Semi-naive rounds: delta-driven variants
//!
//! A naive round rematches every clause against the **whole** frozen
//! snapshot, so round `r` re-derives (and re-discards) everything
//! round `r-1` already found — the dominant cost on recursive systems.
//! The default engine is instead *semi-naive*: the fact base is
//! partitioned by the previous round's merge point into `old` rows and
//! last round's `delta` rows (rows are in insertion order, so the
//! partition is a binary search on the fact index, not a second
//! store), and a clause with `k` body atoms is scheduled as `k`
//! **variants** — variant `i` ranges atom `i` over the delta, atoms
//! `< i` over old rows, and atoms `> i` over old ∪ delta:
//!
//! ```text
//!        naive round                 semi-naive round (k = 3)
//!  ┌───────────────────┐    v0: Δ        × (old∪Δ) × (old∪Δ)
//!  │ all  × all  × all │    v1: old      × Δ       × (old∪Δ)
//!  └───────────────────┘    v2: old      × old     × Δ
//! ```
//!
//! Every derivation with at least one new premise is enumerated by
//! exactly one variant (the one whose index is its first delta
//! premise), and all-old tuples — whose conclusions were already
//! merged, deduplicated, or height-rejected in an earlier round — are
//! never rematched. Joins are additionally backed by a per-`(pred,
//! argument position, TermId)` **argument index** in [`FactBase`]:
//! when a body atom's argument is a variable the left-to-right join
//! has already bound, the matcher scans that id's posting list instead
//! of the whole predicate row (ids are hash-consed, so equality is id
//! equality). Variants shard across the worker pool exactly like
//! clauses did, and the sequential merge is extended from clause order
//! to **variant order**: each clause's candidates are merged sorted by
//! their premise tuple, which is precisely the order the naive
//! engine's nested left-to-right join emits them in — so outcome, fact
//! order, pool contents, and refutation certificates are identical to
//! the naive engine (and to themselves at any thread count). The one
//! intentional difference is [`SaturationStats::steps`] /
//! [`SaturationStats::candidates`], which measure the *work actually
//! done* — the entire point is that the semi-naive engine does less of
//! it, so a `max_steps` budget that cuts one engine mid-round may not
//! cut the other at the same fact.
//!
//! Two budget edge cases keep the engines aligned: (1) a worker that
//! exhausts the *step* budget always ends the run in that same round —
//! `Budget`, or `Refuted` when a sibling variant or earlier clause
//! fires a query first — so its truncated matches never leak into a
//! later round; (2) a worker truncated by the *fact* cap whose round
//! ends below the cap (possible when another clause merged the same
//! facts first) marks its clause **dirty**, and a dirty clause is
//! rescheduled as a full naive rescan next round — exactly how the
//! naive engine rediscovers the dropped candidates. Setting
//! [`SaturationConfig::semi_naive`] to `false` selects the naive
//! matcher, kept verbatim as the differential reference for tests and
//! benches.

use std::error::Error;
use std::fmt;
use std::hash::Hasher;

use ringen_chc::{Atom, ChcSystem, Clause, Constraint, PredId};
use ringen_parallel::{Guard, ParallelConfig, Pool, Recorder};
use ringen_terms::intern::InternTable;
use ringen_terms::{
    herbrand::terms_by_size, GroundTerm, ScratchNodes, ScratchPool, SortId, Term, TermId, TermPool,
    VarId,
};
use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use smallvec::SmallVec;

/// Budgets for [`saturate_guarded`]. All limits are deterministic step counts,
/// never wall time, so results are reproducible.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Stop after deriving this many facts.
    pub max_facts: usize,
    /// Stop after this many saturation rounds.
    pub max_rounds: usize,
    /// Discard derived facts containing a term higher than this.
    pub max_term_height: usize,
    /// How many candidate ground terms to enumerate per sort when a head
    /// variable is not bound by the body (e.g. `⊤ → p(c(x))`).
    pub free_var_candidates: usize,
    /// Abort once the merged body-match attempts reach this count. The
    /// cap is applied deterministically at clause boundaries of the
    /// round merge, and every clause of a round runs under the budget
    /// remaining at the *round's start* — so in the terminal round the
    /// engine may speculatively attempt (and then discard) up to
    /// `clauses × remaining` matches beyond the cap. A budget, not an
    /// exact step count.
    pub max_steps: u64,
    /// Worker threads for the sharded round engine. The default honors
    /// `RINGEN_THREADS` (1 forces the inline path); outcomes are
    /// bit-for-bit identical at any value.
    pub parallel: ParallelConfig,
    /// Use the delta-driven semi-naive round engine with
    /// argument-indexed joins (see the [module docs](self)). Defaults to
    /// `true`; `false` selects the naive reference matcher, kept for
    /// differential tests and benches. Outcomes, fact order, pool
    /// contents and certificates are identical either way — only
    /// [`SaturationStats::steps`] / [`SaturationStats::candidates`]
    /// reflect the engine's actual (smaller) workload.
    pub semi_naive: bool,
}

impl Default for SaturationConfig {
    fn default() -> Self {
        SaturationConfig {
            max_facts: 20_000,
            max_rounds: 64,
            max_term_height: 24,
            free_var_candidates: 8,
            max_steps: 2_000_000,
            parallel: ParallelConfig::default(),
            semi_naive: true,
        }
    }
}

impl SaturationConfig {
    /// A budget of zero rounds: [`saturate_guarded`] returns
    /// [`SaturationOutcome::Budget`] at once, spawning no worker and
    /// recording no span. Engines racing beside a dedicated refutation
    /// entrant run with it, so the race refutes once instead of once per
    /// engine.
    pub fn zero_rounds() -> Self {
        SaturationConfig {
            max_rounds: 0,
            ..SaturationConfig::default()
        }
    }
}

/// A ground fact in the boxed certificate representation.
pub type Fact = (PredId, Vec<GroundTerm>);

/// Interned fact arguments: inline up to arity 4, ids into the base's
/// [`TermPool`].
pub type FactArgs = SmallVec<[TermId; 4]>;

/// Interned variable binding of one clause instance.
type Bind = SmallVec<[(VarId, TermId); 8]>;

/// Provenance of a derived fact: (clause index, pooled variable
/// binding, premise fact indices).
type Provenance = (usize, Vec<(VarId, TermId)>, Vec<usize>);

/// A fired query-clause instance awaiting certificate construction at
/// merge time: (pooled binding, premise fact indices).
type QueryFire = (Vec<(VarId, TermId)>, Vec<usize>);

/// One step of a ground derivation, in the boxed *view*
/// representation ([`Refutation::step`]): bindings and facts are
/// reconstructed [`GroundTerm`] trees, convenient for display and
/// independent replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefStep {
    /// Index of the applied clause in [`ChcSystem::clauses`].
    pub clause: usize,
    /// Ground instantiation of every clause variable.
    pub binding: Vec<(VarId, GroundTerm)>,
    /// Indices (into the step list) of the facts matching the body atoms,
    /// in body order.
    pub premises: Vec<usize>,
    /// The derived fact; `None` for the final ⊥ step of a query clause.
    pub fact: Option<Fact>,
}

/// One step of a ground derivation in the *stored* representation:
/// every term is a [`TermId`] into the certificate's own pool dump
/// ([`Refutation::pool`]). Large derivations share their subterms —
/// `S²ᵏ(Z)` chains cost one node apiece instead of one boxed tree per
/// step they appear in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PooledStep {
    /// Index of the applied clause in [`ChcSystem::clauses`].
    pub clause: usize,
    /// Ground instantiation of every clause variable, as pool ids.
    pub binding: Vec<(VarId, TermId)>,
    /// Indices (into the step list) of the facts matching the body atoms,
    /// in body order.
    pub premises: Vec<usize>,
    /// The derived fact; `None` for the final ⊥ step of a query clause.
    pub fact: Option<(PredId, Vec<TermId>)>,
}

/// A ground derivation of ⊥ — the UNSAT certificate.
///
/// Stored pooled: the steps carry [`TermId`]s plus **one** hash-consed
/// pool dump holding exactly the terms the derivation references (built
/// by [`TermPool::import`] at the certificate boundary, so the solver's
/// much larger working pool is never retained). The boxed
/// [`RefStep`] form is a lazy view ([`Refutation::step`] /
/// [`Refutation::boxed_steps`]) materialized only for display and
/// replay.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// The certificate's private term pool; every [`PooledStep`] id
    /// points here.
    pub pool: TermPool,
    /// Derivation steps; the last step derives ⊥.
    pub steps: Vec<PooledStep>,
}

impl Refutation {
    /// Number of clause applications in the derivation.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the derivation is empty (never true for real refutations).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `i`-th step in the boxed view (terms reconstructed from the
    /// pool on demand).
    pub fn step(&self, i: usize) -> RefStep {
        let s = &self.steps[i];
        RefStep {
            clause: s.clause,
            binding: s
                .binding
                .iter()
                .map(|(v, id)| (*v, self.pool.to_ground(*id)))
                .collect(),
            premises: s.premises.clone(),
            fact: s
                .fact
                .as_ref()
                .map(|(p, args)| (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect())),
        }
    }

    /// All steps in the boxed view, materialized lazily in order.
    pub fn boxed_steps(&self) -> impl Iterator<Item = RefStep> + '_ {
        (0..self.len()).map(|i| self.step(i))
    }
}

/// Semantic equality: two certificates are equal when their boxed views
/// are — independent of how each pool dump happens to be laid out.
impl PartialEq for Refutation {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.step(i) == other.step(i))
    }
}

impl Eq for Refutation {}

/// Fx hash of a fact. Query slices and stored facts go through this one
/// function so probes agree.
#[inline]
fn fact_hash(pred: PredId, args: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(pred.index() as u32);
    for a in args {
        h.write_u32(a.index() as u32);
    }
    h.finish()
}

/// The facts derived by a (partial) saturation, interned end to end.
#[derive(Debug, Clone, Default)]
pub struct FactBase {
    /// Hash-consing pool every fact argument (and subterm) lives in.
    pool: TermPool,
    facts: Vec<(PredId, FactArgs)>,
    /// Open-addressing index over `facts` — the fact arena *is* the
    /// storage; the index holds only `u32` slots.
    table: InternTable,
    by_pred: FxHashMap<PredId, Vec<u32>>,
    /// Argument index: `(pred, argument position, argument TermId)` →
    /// the rows of `pred` whose argument at that position *is* that id
    /// (ids are hash-consed, so equality is id equality). Lists are in
    /// insertion order — i.e. ascending fact index — so the semi-naive
    /// old/delta split applies to them by binary search, exactly as it
    /// does to `by_pred` rows. Maintained only when `index_args` is
    /// set (the semi-naive engine); the naive reference scans rows.
    arg_index: FxHashMap<(PredId, u32, TermId), Vec<u32>>,
    /// Whether inserts maintain `arg_index`.
    index_args: bool,
    /// For each fact: (clause index, binding, premise fact indices).
    provenance: Vec<Provenance>,
}

impl FactBase {
    /// The term pool all fact arguments are interned in.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// All facts in derivation order, as `(pred, pooled args)`.
    pub fn pooled_facts(&self) -> impl Iterator<Item = (PredId, &[TermId])> + '_ {
        self.facts.iter().map(|(p, args)| (*p, args.as_slice()))
    }

    /// All facts in derivation order, reconstructed as boxed terms.
    pub fn ground_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts
            .iter()
            .map(|(p, args)| (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect()))
    }

    /// The `i`-th derived fact, reconstructed.
    pub fn ground_fact(&self, i: usize) -> Fact {
        let (p, args) = &self.facts[i];
        (*p, args.iter().map(|a| self.pool.to_ground(*a)).collect())
    }

    /// Whether a fact has been derived.
    pub fn contains(&self, fact: &Fact) -> bool {
        let Some(args) = fact
            .1
            .iter()
            .map(|g| self.pool.find_term(g))
            .collect::<Option<FactArgs>>()
        else {
            // A fact whose terms were never interned cannot be present.
            return false;
        };
        self.find(fact.0, &args).is_some()
    }

    /// Index of the interned fact, if derived.
    fn find(&self, pred: PredId, args: &[TermId]) -> Option<u32> {
        self.table.find(fact_hash(pred, args), |i| {
            let (p, a) = &self.facts[i as usize];
            *p == pred && a.as_slice() == args
        })
    }

    /// Pooled argument tuples of one predicate's facts.
    pub fn of_pred(&self, p: PredId) -> impl Iterator<Item = &[TermId]> + '_ {
        self.by_pred
            .get(&p)
            .into_iter()
            .flatten()
            .map(move |&i| self.facts[i as usize].1.as_slice())
    }

    /// The row list of one predicate, in ascending fact-index order.
    fn pred_row(&self, p: PredId) -> &[u32] {
        self.by_pred.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The argument-index posting list for `(pred, position, id)`, in
    /// ascending fact-index order; empty when no fact has that
    /// argument (or when the index is disabled — callers must not
    /// consult it then).
    fn arg_row(&self, p: PredId, pos: usize, id: TermId) -> &[u32] {
        debug_assert!(self.index_args, "argument index consulted but not built");
        self.arg_index
            .get(&(p, pos as u32, id))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no fact was derived.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    fn insert(
        &mut self,
        pred: PredId,
        args: FactArgs,
        clause: usize,
        binding: Vec<(VarId, TermId)>,
        premises: Vec<usize>,
    ) -> bool {
        let hash = fact_hash(pred, &args);
        let present = self
            .table
            .find(hash, |i| {
                let (p, a) = &self.facts[i as usize];
                *p == pred && *a == args
            })
            .is_some();
        if present {
            return false;
        }
        // `u32::MAX` is the probe table's empty sentinel — reject it
        // (not just overflow) so a full arena cannot corrupt the table.
        let i = u32::try_from(self.facts.len())
            .ok()
            .filter(|i| *i != u32::MAX)
            .expect("fact count fits the id space");
        self.by_pred.entry(pred).or_default().push(i);
        if self.index_args {
            for (pos, &arg) in args.iter().enumerate() {
                self.arg_index
                    .entry((pred, pos as u32, arg))
                    .or_default()
                    .push(i);
            }
        }
        self.facts.push((pred, args));
        self.provenance.push((clause, binding, premises));
        let FactBase { table, facts, .. } = self;
        table.insert_new(hash, i, |v| {
            let (p, a) = &facts[v as usize];
            fact_hash(*p, a)
        });
        true
    }
}

/// Steps between guard polls: join and enumeration steps inside a
/// worker's matcher, and candidates in the sequential round merge (see
/// [`saturate_guarded`]). A cancel noticed by a worker discards the
/// in-flight round; one noticed by the merge keeps the facts merged
/// before it, so an interrupted fact base is always a prefix of the
/// uncancelled run's fact list.
pub const GUARD_STEP_PERIOD: u64 = 128;

/// Outcome of [`saturate_guarded`].
#[derive(Debug, Clone)]
pub enum SaturationOutcome {
    /// A query clause fired: the system is unsatisfiable.
    Refuted(Refutation),
    /// A fixed point was reached below every budget: the fact base *is*
    /// the least Herbrand model restricted to the explored space, and no
    /// query fires in it. (If budgets clipped term heights this is still
    /// only a half-answer; see [`SaturationOutcome::Budget`].)
    Saturated(FactBase),
    /// A budget was exhausted first; facts derived so far are returned.
    Budget(FactBase),
    /// The [`Guard`] tripped (cancellation or deadline). The fact base
    /// is a prefix of the uncancelled run's fact list: every completed
    /// round's facts, plus — when the cancel landed during a round's
    /// merge — the facts that merge added before it polled. A cancel
    /// noticed by the workers discards the in-flight round's deltas
    /// whole. [`SaturationStats::rounds`] counts completed rounds only.
    Interrupted(FactBase),
}

/// Statistics from a [`saturate_guarded`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Completed rounds.
    pub rounds: usize,
    /// Facts derived.
    pub facts: usize,
    /// Body-match attempts *merged into the result*: clauses past an
    /// early round cut (refutation or budget) ran speculatively against
    /// the snapshot, and their attempts are discarded with their
    /// deltas — deterministically, whatever the worker count. This
    /// measures the engine's *actual* matching work, so the semi-naive
    /// engine reports far fewer steps than the naive reference on the
    /// same system.
    pub steps: u64,
    /// Head-fact candidates the merge considered (after worker-side
    /// budget truncation, before cross-clause deduplication). A
    /// derivation re-attempted is a candidate re-counted, so on a
    /// system whose facts each have one derivation the semi-naive
    /// engine keeps this exactly equal to [`SaturationStats::facts`] —
    /// the "each fact derived once" contract the unit tests pin. (The
    /// naive engine's *rescan* cost shows up in
    /// [`SaturationStats::steps`], not here: its workers filter
    /// already-known heads against the snapshot before they become
    /// candidates.)
    pub candidates: u64,
    /// Distinct terms interned in the fact base's pool.
    pub pooled_terms: usize,
}

/// One scheduled unit of a round: a clause matched under a candidate
/// range restriction. The naive engine (and a semi-naive full rescan —
/// round 0, or a dirty clause) uses `delta_atom = None`; the
/// semi-naive variants pin one body atom to last round's delta rows.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    clause: usize,
    /// `None` = full rescan; `Some(i)` = semi-naive variant: atom `i`
    /// over the delta, atoms `< i` over old rows, atoms `> i` over all.
    delta_atom: Option<usize>,
}

/// One work item's contribution to a round: a private delta computed
/// against the frozen snapshot, merged deterministically afterwards.
struct ClauseRun {
    /// Body-match attempts spent by this item.
    steps: u64,
    /// A fired query clause: (binding in scratch ids, premise facts).
    refutation: Option<QueryFire>,
    /// Derived facts in derivation order, args/bindings in scratch ids.
    #[allow(clippy::type_complexity)]
    new_facts: Vec<(PredId, FactArgs, Bind, Vec<usize>)>,
    /// Terms this item interned beyond the snapshot.
    nodes: ScratchNodes,
    /// Enumerated free-variable candidates computed fresh (pure per
    /// sort; merged into the shared cache for later rounds).
    enum_terms: Vec<(SortId, Vec<GroundTerm>)>,
    /// The matcher stopped early on the fact cap: some candidates were
    /// dropped. The semi-naive merge marks the clause dirty so a full
    /// rescan next round rediscovers them (as the naive engine would).
    facts_capped: bool,
    /// The matcher observed a tripped guard; the whole round's deltas
    /// will be discarded.
    interrupted: bool,
}

/// Runs one work item against the frozen snapshot. Pure: depends only
/// on the snapshot, the item, and the round-start step budget — never
/// on sibling items or the worker schedule.
#[allow(clippy::too_many_arguments)]
fn run_item(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    item: WorkItem,
    base: &FactBase,
    old_len: u32,
    use_index: bool,
    enum_cache: &FxHashMap<SortId, Vec<GroundTerm>>,
    step_budget: u64,
    guard: &Guard,
) -> ClauseRun {
    let clause = &sys.clauses[item.clause];
    // A query of the ∀∃ shape (§5) cannot be fired by a finite set of
    // facts; the refuter conservatively skips it.
    if !clause.exist_vars.is_empty() {
        return ClauseRun {
            steps: 0,
            refutation: None,
            new_facts: Vec::new(),
            nodes: ScratchNodes::default(),
            enum_terms: Vec::new(),
            facts_capped: false,
            interrupted: false,
        };
    }
    let mut matcher = Matcher {
        sys,
        cfg,
        clause,
        base,
        delta_atom: item.delta_atom,
        old_len,
        use_index,
        scratch: base.pool.scratch(),
        enum_cache,
        enum_fresh: FxHashMap::default(),
        enum_ids: Vec::new(),
        enum_ranges: FxHashMap::default(),
        steps: 0,
        step_budget,
        budget_hit: false,
        facts_capped: false,
        guard,
        interrupted: false,
        refutation: None,
        new_facts: Vec::new(),
        new_index: FxHashSet::default(),
    };
    matcher.run();
    let mut enum_terms: Vec<(SortId, Vec<GroundTerm>)> = matcher.enum_fresh.into_iter().collect();
    enum_terms.sort_by_key(|(s, _)| *s);
    ClauseRun {
        steps: matcher.steps,
        refutation: matcher.refutation,
        new_facts: matcher.new_facts,
        nodes: matcher.scratch.into_nodes(),
        enum_terms,
        facts_capped: matcher.facts_capped,
        interrupted: matcher.interrupted,
    }
}

/// How a round's merge ended.
enum RoundEnd {
    /// All deltas merged below every budget.
    Done,
    /// A query clause fired; the certificate is already built.
    Refuted(Refutation),
    /// A budget was exhausted while merging.
    Budget,
    /// The guard tripped mid-merge; the facts merged so far stay.
    Interrupted,
}

/// Counts one merged candidate and polls the guard every
/// [`GUARD_STEP_PERIOD`] of them: `true` once it has tripped.
#[inline]
fn merge_poll(merged: &mut u64, guard: &Guard) -> bool {
    *merged += 1;
    merged.is_multiple_of(GUARD_STEP_PERIOD) && guard.is_cancelled()
}

/// Re-interns one scratch id into the master pool. Ids below the
/// round-start pool length are snapshot ids by construction and pass
/// through without touching the intern table (or the memo), so dedup
/// probes on snapshot-only tuples stay allocation- and probe-free.
#[inline]
fn remap(
    pool: &mut TermPool,
    nodes: &ScratchNodes,
    memo: &mut Vec<Option<TermId>>,
    id: TermId,
) -> TermId {
    if id.index() < nodes.split() {
        id
    } else {
        pool.reintern(nodes, memo, id)
    }
}

/// A pre-sized scratch-id → master-id memo for one delta: `reintern`
/// would otherwise grow it by repeated `resize` probes mid-merge.
#[inline]
fn presized_memo(nodes: &ScratchNodes) -> Vec<Option<TermId>> {
    vec![None; nodes.len()]
}

/// Folds the per-clause deltas into the base **in clause order** —
/// dedup, budgets, provenance and refutation selection are all decided
/// here, sequentially, which is what makes the engine deterministic at
/// any thread count. This is the naive engine's merge, kept as the
/// differential reference; the semi-naive engine merges through
/// [`merge_round_semi`]. Both poll the guard between candidates (see
/// [`merge_poll`]).
#[allow(clippy::too_many_arguments)]
fn merge_round(
    cfg: &SaturationConfig,
    base: &mut FactBase,
    enum_cache: &mut FxHashMap<SortId, Vec<GroundTerm>>,
    runs: Vec<ClauseRun>,
    stats: &mut SaturationStats,
    guard: &Guard,
    rec: &Recorder,
    round: usize,
) -> RoundEnd {
    let mut merged = 0u64;
    for (ci, run) in runs.into_iter().enumerate() {
        if rec.text_enabled() {
            rec.text_line(format_args!(
                "round {round} clause {ci} facts={} steps={} (clause spent {} steps, {} candidates)",
                base.len(),
                stats.steps,
                run.steps,
                run.new_facts.len(),
            ));
        }
        stats.steps += run.steps;
        for (sort, terms) in run.enum_terms {
            enum_cache.entry(sort).or_insert(terms);
        }
        // Scratch-id → master-id memo, shared across this delta.
        let mut memo = presized_memo(&run.nodes);
        if let Some((bind, premises)) = run.refutation {
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, &run.nodes, &mut memo, id)))
                .collect();
            return RoundEnd::Refuted(build_refutation(base, ci, &bind, premises));
        }
        for (pred, args, bind, premises) in run.new_facts {
            if merge_poll(&mut merged, guard) {
                return RoundEnd::Interrupted;
            }
            let margs: FactArgs = args
                .iter()
                .map(|&a| remap(&mut base.pool, &run.nodes, &mut memo, a))
                .collect();
            stats.candidates += 1;
            // First derivation wins: a clause earlier in this round (or
            // an earlier round) already owns this fact and its
            // provenance.
            if base.find(pred, &margs).is_some() {
                continue;
            }
            if base.len() >= cfg.max_facts {
                return RoundEnd::Budget;
            }
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, &run.nodes, &mut memo, id)))
                .collect();
            base.insert(pred, margs, ci, bind, premises);
        }
        if stats.steps >= cfg.max_steps || base.len() >= cfg.max_facts {
            return RoundEnd::Budget;
        }
    }
    RoundEnd::Done
}

/// The semi-naive merge: folds per-**variant** deltas into the base in
/// clause order, and within a clause in **premise-tuple order** — the
/// exact order the naive engine's nested join emits candidates in, so
/// first-derivation-wins picks the same provenance, the fact list
/// comes out in the same order, and the fact cap truncates at the same
/// point. `snap_len` is the fact count at the round's start (the
/// worker-side cap threshold); `dirty` is updated for the next round.
#[allow(clippy::too_many_arguments)]
fn merge_round_semi(
    cfg: &SaturationConfig,
    base: &mut FactBase,
    enum_cache: &mut FxHashMap<SortId, Vec<GroundTerm>>,
    items: &[WorkItem],
    mut runs: Vec<ClauseRun>,
    dirty: &mut [bool],
    snap_len: usize,
    stats: &mut SaturationStats,
    guard: &Guard,
    rec: &Recorder,
    round: usize,
) -> RoundEnd {
    let mut merged = 0u64;
    // The naive matcher retains at most this many clause-new candidates
    // before flagging the fact cap; replaying that truncation at merge
    // time is what keeps the engines' Budget behavior aligned.
    let clause_cap = cfg.max_facts.saturating_sub(snap_len);
    let mut start = 0;
    while start < runs.len() {
        let ci = items[start].clause;
        let end = start
            + items[start..]
                .iter()
                .position(|it| it.clause != ci)
                .unwrap_or(items.len() - start);
        let group = &mut runs[start..end];
        let group_steps: u64 = group.iter().map(|r| r.steps).sum();
        if rec.text_enabled() {
            rec.text_line(format_args!(
                "round {round} clause {ci} facts={} steps={} ({} variants spent {} steps, {} candidates)",
                base.len(),
                stats.steps,
                group.len(),
                group_steps,
                group.iter().map(|r| r.new_facts.len()).sum::<usize>(),
            ));
        }
        stats.steps += group_steps;
        for run in group.iter_mut() {
            for (sort, terms) in std::mem::take(&mut run.enum_terms) {
                enum_cache.entry(sort).or_insert(terms);
            }
        }
        let mut memos: Vec<Vec<Option<TermId>>> =
            group.iter().map(|r| presized_memo(&r.nodes)).collect();

        // A fired query clause: the naive engine reports the join's
        // first firing, i.e. the premise-lexicographically least one.
        // Each variant short-circuited at its own least firing, so the
        // minimum over variants is the global least.
        let fire = group
            .iter_mut()
            .enumerate()
            .filter_map(|(vi, r)| r.refutation.take().map(|f| (vi, f)))
            .min_by(|(_, a), (_, b)| a.1.cmp(&b.1));
        if let Some((vi, (bind, premises))) = fire {
            let nodes = &group[vi].nodes;
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, nodes, &mut memos[vi], id)))
                .collect();
            return RoundEnd::Refuted(build_refutation(base, ci, &bind, premises));
        }

        // Candidates of all variants, in the naive join's emission
        // order. Premise tuples are unique per variant (a tuple's first
        // delta position *is* its variant) and emitted in ascending
        // order within one, so a stable sort on the tuple interleaves
        // the variants exactly; enumeration-path candidates that share
        // a tuple keep their in-variant order.
        let mut order: Vec<(usize, usize)> = group
            .iter()
            .enumerate()
            .flat_map(|(vi, r)| (0..r.new_facts.len()).map(move |fi| (vi, fi)))
            .collect();
        order.sort_by(|&(va, fa), &(vb, fb)| {
            group[va].new_facts[fa].3.cmp(&group[vb].new_facts[fb].3)
        });

        // Replay the naive worker's per-clause accounting: `clause_seen`
        // is its `new_index` (cross-variant duplicates were never
        // emitted by the naive matcher, so they are skipped *uncounted*)
        // and `processed` its retained-candidate count.
        let mut clause_seen: FxHashSet<(PredId, FactArgs)> = FxHashSet::default();
        let mut processed = 0usize;
        let mut truncated = false;
        for (vi, fi) in order {
            if merge_poll(&mut merged, guard) {
                return RoundEnd::Interrupted;
            }
            if processed >= clause_cap {
                // The naive worker hit the fact cap here: nothing past
                // this point was ever emitted (or its terms interned),
                // so stop before touching the pool. The remainder may
                // be cross-variant duplicates rather than dropped
                // facts — over-approximating the truncation only costs
                // a no-op rescan, never correctness.
                truncated = true;
                break;
            }
            let (pred, args, bind, premises) = {
                let entry = &mut group[vi].new_facts[fi];
                (
                    entry.0,
                    std::mem::take(&mut entry.1),
                    std::mem::take(&mut entry.2),
                    std::mem::take(&mut entry.3),
                )
            };
            let nodes = &group[vi].nodes;
            let margs: FactArgs = args
                .iter()
                .map(|&a| remap(&mut base.pool, nodes, &mut memos[vi], a))
                .collect();
            if !clause_seen.insert((pred, margs.clone())) {
                // The naive matcher's `new_index` suppressed this
                // cross-variant duplicate before it counted against
                // the cap; its terms are the first occurrence's, so
                // the remap above grew nothing.
                continue;
            }
            processed += 1;
            stats.candidates += 1;
            if base.find(pred, &margs).is_some() {
                continue;
            }
            if base.len() >= cfg.max_facts {
                return RoundEnd::Budget;
            }
            let bind: Vec<(VarId, TermId)> = bind
                .into_iter()
                .map(|(v, id)| (v, remap(&mut base.pool, nodes, &mut memos[vi], id)))
                .collect();
            base.insert(pred, margs, ci, bind, premises);
        }
        dirty[ci] = truncated || group.iter().any(|r| r.facts_capped);
        if stats.steps >= cfg.max_steps || base.len() >= cfg.max_facts {
            return RoundEnd::Budget;
        }
        start = end;
    }
    RoundEnd::Done
}

/// Computes the least model bottom-up; reports a [`Refutation`] as soon
/// as a query clause fires.
///
/// Rounds are sharded across [`SaturationConfig::parallel`] workers,
/// spawned once per call and parked between rounds (see the
/// [module docs](self)); the result is identical at any worker count.
///
/// The [`Guard`] is polled between rounds, every [`GUARD_STEP_PERIOD`]
/// join or enumeration steps inside the workers, and every
/// [`GUARD_STEP_PERIOD`] candidates of the sequential merge. When the
/// workers notice it, the in-flight round's deltas are discarded
/// whole; when the merge does, the facts merged so far stay. Either
/// way [`SaturationOutcome::Interrupted`] returns a prefix of the
/// uncancelled run's fact list, together with the stats accumulated so
/// far. A guard that never trips leaves the run unchanged. A
/// zero-round budget ([`SaturationConfig::zero_rounds`]) returns an
/// empty [`SaturationOutcome::Budget`] before any of this.
pub fn saturate_guarded(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    guard: &Guard,
) -> (SaturationOutcome, SaturationStats) {
    if cfg.max_rounds == 0 {
        return (
            SaturationOutcome::Budget(FactBase::default()),
            SaturationStats::default(),
        );
    }
    // `RINGEN_SAT_DEBUG` arms the recorder's human-readable text sink
    // (the env lookup happens once per call, never per clause); the
    // per-round trace itself goes through `Recorder::text_line`.
    let rec = if std::env::var_os("RINGEN_SAT_DEBUG").is_some() {
        guard.recorder().with_text()
    } else {
        guard.recorder().clone()
    };
    let mut span = rec.span("saturate");
    let (outcome, stats) = saturate_rounds(sys, cfg, guard, &rec);
    span.note("rounds", stats.rounds as i64);
    span.note("facts", stats.facts as i64);
    span.note("steps", stats.steps as i64);
    span.note("candidates", stats.candidates as i64);
    span.note_str(
        "outcome",
        match &outcome {
            SaturationOutcome::Refuted(_) => "refuted",
            SaturationOutcome::Saturated(_) => "saturated",
            SaturationOutcome::Budget(_) => "budget",
            SaturationOutcome::Interrupted(_) => "interrupted",
        },
    );
    rec.add("sat.rounds", stats.rounds as i64);
    rec.add("sat.facts", stats.facts as i64);
    rec.add("sat.candidates", stats.candidates as i64);
    (outcome, stats)
}

/// The round loop behind [`saturate_guarded`] (split out so the
/// wrapper can annotate one `saturate` span around the many returns).
fn saturate_rounds(
    sys: &ChcSystem,
    cfg: &SaturationConfig,
    guard: &Guard,
    rec: &Recorder,
) -> (SaturationOutcome, SaturationStats) {
    let pool = Pool::persistent(&cfg.parallel);
    let semi = cfg.semi_naive;
    let mut base = FactBase {
        index_args: semi,
        ..FactBase::default()
    };
    let mut stats = SaturationStats::default();
    let mut enum_cache: FxHashMap<SortId, Vec<GroundTerm>> = FxHashMap::default();
    // Clauses needing a full rescan next round (fact-cap truncation).
    let mut dirty = vec![false; sys.clauses.len()];
    // Fact count at the start of the *previous* round: everything at or
    // past it is the delta the semi-naive variants pivot on.
    let mut old_len = 0usize;

    let finalize = |stats: &mut SaturationStats, base: &mut FactBase| {
        stats.facts = base.len();
        stats.pooled_terms = base.pool.len();
        // The argument index is the round engine's private join
        // accelerator; outcomes hand the base to consumers that never
        // probe it, so don't make them carry its memory.
        base.arg_index = FxHashMap::default();
    };

    for round in 0..cfg.max_rounds {
        if guard.is_cancelled() {
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Interrupted(base), stats);
        }
        let mut round_span = rec.span("sat.round");
        round_span.note("round", round as i64);
        stats.rounds = round + 1;
        let before = base.len();
        // Round 0 has no delta (and must run the fact clauses), so the
        // semi-naive engine starts with one full rescan; afterwards a
        // clause is either dirty (full rescan) or scheduled as its
        // per-atom delta variants. Empty-body clauses have no variant:
        // their derivations have no new premise, so they can only
        // re-derive what round 0 merged (or a dirty pass recovers).
        let items: Vec<WorkItem> = if !semi || round == 0 {
            (0..sys.clauses.len())
                .map(|clause| WorkItem {
                    clause,
                    delta_atom: None,
                })
                .collect()
        } else {
            let mut items = Vec::new();
            for (clause, c) in sys.clauses.iter().enumerate() {
                if !c.exist_vars.is_empty() {
                    continue; // never matched by the refuter
                }
                if dirty[clause] {
                    items.push(WorkItem {
                        clause,
                        delta_atom: None,
                    });
                } else {
                    items.extend((0..c.body.len()).map(|a| WorkItem {
                        clause,
                        delta_atom: Some(a),
                    }));
                }
            }
            items
        };
        // Every item runs under the budget left at the round's start
        // (not reduced by sibling items — that would reintroduce a
        // cross-item order dependence); the merge re-applies the
        // global cap clause by clause.
        let step_budget = cfg.max_steps.saturating_sub(stats.steps);
        let runs: Vec<ClauseRun> = pool.map_items(&items, |_, &item| {
            run_item(
                sys,
                cfg,
                item,
                &base,
                old_len as u32,
                semi,
                &enum_cache,
                step_budget,
                guard,
            )
        });
        // A guard tripped before the merge discards the whole round:
        // items cut short mid-join hold torn deltas, whose merge would
        // not be a prefix of the uncancelled run. (The merge itself
        // stops at a prefix; see `merge_poll`.) `stats.rounds` already
        // counts this round as started; facts/steps reflect only
        // completed rounds.
        if runs.iter().any(|r| r.interrupted) || guard.is_cancelled() {
            round_span.note_str("end", "interrupted");
            stats.rounds = round;
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Interrupted(base), stats);
        }
        let end = if semi {
            merge_round_semi(
                cfg,
                &mut base,
                &mut enum_cache,
                &items,
                runs,
                &mut dirty,
                before,
                &mut stats,
                guard,
                rec,
                round,
            )
        } else {
            merge_round(
                cfg,
                &mut base,
                &mut enum_cache,
                runs,
                &mut stats,
                guard,
                rec,
                round,
            )
        };
        round_span.note("new_facts", (base.len() - before) as i64);
        match end {
            RoundEnd::Refuted(r) => {
                round_span.note_str("end", "refuted");
                finalize(&mut stats, &mut base);
                return (SaturationOutcome::Refuted(r), stats);
            }
            RoundEnd::Budget => {
                round_span.note_str("end", "budget");
                finalize(&mut stats, &mut base);
                return (SaturationOutcome::Budget(base), stats);
            }
            RoundEnd::Interrupted => {
                round_span.note_str("end", "interrupted");
                stats.rounds = round;
                finalize(&mut stats, &mut base);
                return (SaturationOutcome::Interrupted(base), stats);
            }
            RoundEnd::Done => {}
        }
        if base.len() == before && !dirty.iter().any(|&d| d) {
            round_span.note_str("end", "saturated");
            finalize(&mut stats, &mut base);
            return (SaturationOutcome::Saturated(base), stats);
        }
        old_len = before;
    }
    finalize(&mut stats, &mut base);
    (SaturationOutcome::Budget(base), stats)
}

/// Looks up a variable in a pooled binding.
#[inline]
fn bind_get(bind: &Bind, v: VarId) -> Option<TermId> {
    bind.iter().find(|(w, _)| *w == v).map(|(_, id)| *id)
}

/// Drops the bindings pushed since `mark` (the join and the
/// enumeration use `bind` as a stack).
#[inline]
fn unbind(bind: &mut Bind, mark: usize) {
    while bind.len() > mark {
        bind.pop();
    }
}

/// Whether every variable of a clause term is bound.
fn is_bound(t: &Term, bind: &Bind) -> bool {
    match t {
        Term::Var(v) => bind_get(bind, *v).is_some(),
        Term::App(_, args) => args.iter().all(|a| is_bound(a, bind)),
    }
}

/// Matches a clause pattern against an interned ground term, extending
/// `bind`. Repeated variables compare by id — O(1), never a tree walk.
/// The scratch view resolves snapshot and scratch ids alike, so one
/// matcher serves the body join and the equality solver. On failure
/// `bind` may hold a partial extension, which callers [`unbind`].
fn match_pooled(pool: &ScratchPool<'_>, pat: &Term, id: TermId, bind: &mut Bind) -> bool {
    match pat {
        Term::Var(v) => match bind_get(bind, *v) {
            Some(bound) => bound == id,
            None => {
                bind.push((*v, id));
                true
            }
        },
        Term::App(f, pats) => {
            if pool.func(id) != *f {
                return false;
            }
            let args = pool.args(id);
            debug_assert_eq!(args.len(), pats.len(), "well-sorted pattern arity");
            pats.iter()
                .zip(args)
                .all(|(p, &a)| match_pooled(pool, p, a, bind))
        }
    }
}

/// Instantiates a (fully bound) clause term directly into the worker's
/// scratch pool. `None` if a variable is unbound.
fn intern_pattern(pool: &mut ScratchPool<'_>, pat: &Term, bind: &Bind) -> Option<TermId> {
    match pat {
        Term::Var(v) => bind_get(bind, *v),
        Term::App(f, pats) => {
            let ids: FactArgs = pats
                .iter()
                .map(|p| intern_pattern(pool, p, bind))
                .collect::<Option<_>>()?;
            Some(pool.intern(*f, &ids))
        }
    }
}

/// Height the instantiated pattern *would* have, without interning
/// anything — so over-budget heads are rejected before they pollute
/// the long-lived pool. `None` if a variable is unbound.
fn pattern_height(pool: &ScratchPool<'_>, pat: &Term, bind: &Bind) -> Option<usize> {
    match pat {
        Term::Var(v) => bind_get(bind, *v).map(|id| pool.height(id)),
        Term::App(_, pats) => {
            let mut max = 0usize;
            for p in pats {
                max = max.max(pattern_height(pool, p, bind)?);
            }
            Some(max + 1)
        }
    }
}

struct Matcher<'a> {
    sys: &'a ChcSystem,
    cfg: &'a SaturationConfig,
    clause: &'a Clause,
    /// The frozen snapshot. Shared — many matchers read it at once.
    base: &'a FactBase,
    /// Semi-naive variant: the body atom pinned to last round's delta
    /// rows (atoms before it range over old rows, atoms after it over
    /// all rows). `None` is a full naive rescan.
    delta_atom: Option<usize>,
    /// Fact-index partition point: facts below it are "old" (present
    /// before last round's merge), at or past it are the delta.
    old_len: u32,
    /// Consult the [`FactBase`] argument index for body atoms whose
    /// argument is an already-bound variable (the semi-naive engine;
    /// the naive reference keeps its plain row scans).
    use_index: bool,
    /// Thread-local extension of the snapshot's pool for derived terms.
    scratch: ScratchPool<'a>,
    /// Enumerated candidate terms per sort for unbound head variables:
    /// the shared cache from previous rounds…
    enum_cache: &'a FxHashMap<SortId, Vec<GroundTerm>>,
    /// …plus the entries this clause computed fresh (pure per sort).
    enum_fresh: FxHashMap<SortId, Vec<GroundTerm>>,
    /// The same candidates as scratch ids, interned once per work item:
    /// `enum_ids[enum_ranges[sort]]`.
    enum_ids: Vec<TermId>,
    enum_ranges: FxHashMap<SortId, std::ops::Range<usize>>,
    /// Body-match attempts spent by this clause.
    steps: u64,
    /// Step budget remaining at the round's start.
    step_budget: u64,
    refutation: Option<QueryFire>,
    budget_hit: bool,
    /// `budget_hit` was (also) raised by the fact cap: candidates were
    /// dropped, which the semi-naive merge must repair via a dirty
    /// full rescan.
    facts_capped: bool,
    /// Cooperative cancellation token, polled every
    /// [`GUARD_STEP_PERIOD`] steps.
    guard: &'a Guard,
    /// The guard tripped; stop matching, the round will be discarded.
    interrupted: bool,
    #[allow(clippy::type_complexity)]
    new_facts: Vec<(PredId, FactArgs, Bind, Vec<usize>)>,
    /// Hash index over `new_facts` (the in-round dedup must not scan).
    new_index: FxHashSet<(PredId, FactArgs)>,
}

impl<'a> Matcher<'a> {
    fn run(&mut self) {
        self.match_body(0, &mut Bind::new(), &mut Vec::new());
    }

    /// Whether this item is done: a query fired, a budget ran out, or
    /// the guard tripped.
    fn stopped(&self) -> bool {
        self.refutation.is_some() || self.budget_hit || self.interrupted
    }

    /// Counts one join or enumeration step against the step budget and
    /// polls the guard every [`GUARD_STEP_PERIOD`] steps; `false` once
    /// either stops the item.
    fn step(&mut self) -> bool {
        self.steps += 1;
        if self.steps >= self.step_budget {
            self.budget_hit = true;
            return false;
        }
        if self.steps.is_multiple_of(GUARD_STEP_PERIOD) && self.guard.is_cancelled() {
            self.interrupted = true;
            return false;
        }
        true
    }

    /// The candidate rows for body atom `k` under `bind`: the
    /// argument-indexed posting list when an argument is an
    /// already-bound variable (shortest list wins; a missing list
    /// means no fact can match), the full predicate row otherwise —
    /// then restricted to the variant's old/delta range. Every list is
    /// in ascending fact-index order, so the restriction is a binary
    /// search and the join's emission order is unchanged.
    fn candidates_for(&self, k: usize, bind: &Bind) -> &'a [u32] {
        let atom = &self.clause.body[k];
        let base = self.base;
        let mut list: &'a [u32] = base.pred_row(atom.pred);
        if self.use_index {
            for (pos, pat) in atom.args.iter().enumerate() {
                if let Term::Var(v) = pat {
                    if let Some(id) = bind_get(bind, *v) {
                        let indexed = base.arg_row(atom.pred, pos, id);
                        if indexed.len() < list.len() {
                            list = indexed;
                        }
                    }
                }
            }
        }
        match self.delta_atom {
            None => list,
            Some(i) => {
                let old = self.old_len;
                let split = list.partition_point(|&fi| fi < old);
                match k.cmp(&i) {
                    std::cmp::Ordering::Less => &list[..split],
                    std::cmp::Ordering::Equal => &list[split..],
                    std::cmp::Ordering::Greater => list,
                }
            }
        }
    }

    /// Joins body atoms left to right against the frozen snapshot,
    /// entirely on pooled ids: no term is cloned or reconstructed here.
    /// `bind` and `premises` are stacks: each candidate pushes onto
    /// them and truncates back before the next.
    fn match_body(&mut self, k: usize, bind: &mut Bind, premises: &mut Vec<usize>) {
        if k == self.clause.body.len() {
            self.finish_constraints(bind, premises);
            return;
        }
        let atom = &self.clause.body[k];
        // The snapshot is never written during the round, so the
        // candidate row can be borrowed across the recursion.
        let base = self.base;
        let candidates: &[u32] = self.candidates_for(k, bind);
        let mark = bind.len();
        for &fi in candidates {
            if !self.step() {
                return;
            }
            let fi = fi as usize;
            let ok = atom
                .args
                .iter()
                .zip(&base.facts[fi].1)
                .all(|(pat, id)| match_pooled(&self.scratch, pat, *id, bind));
            if ok {
                premises.push(fi);
                self.match_body(k + 1, bind, premises);
                premises.pop();
            }
            unbind(bind, mark);
            if self.stopped() {
                return;
            }
        }
    }

    /// After the body is matched. The common case — no constraints,
    /// every variable bound — derives the head fact at once, binding in
    /// body-match order. Otherwise the equalities are solved on pooled
    /// ids ([`Matcher::solve_equalities`]), every variable still free
    /// is enumerated ([`Matcher::bind_free`]), and each full binding is
    /// checked and passed on in `clause.vars` order.
    fn finish_constraints(&mut self, bind: &mut Bind, premises: &[usize]) {
        let clause = self.clause;
        let all_bound = clause.vars.vars().all(|v| bind_get(bind, v).is_some());
        if clause.constraints.is_empty() && all_bound {
            self.finish_pooled(bind, premises);
            return;
        }
        let mark = bind.len();
        if let Some(open) = self.solve_equalities(bind) {
            let free: SmallVec<[VarId; 8]> = clause
                .vars
                .vars()
                .filter(|&v| bind_get(bind, v).is_none())
                .collect();
            self.bind_free(&free, bind, open, premises);
        }
        unbind(bind, mark);
    }

    /// Solves the clause's equalities to a fixpoint on pooled ids: a
    /// side whose variables are all bound is interned into the scratch
    /// pool, and the other side is matched against that id, binding its
    /// variables; two bound sides compare by id. `None` on a clash.
    /// Otherwise `Some(open)`, where `open` says some equality still has
    /// unbound variables on both sides. Those are left to enumeration
    /// and checked once every variable is bound (enumerate, then
    /// check).
    fn solve_equalities(&mut self, bind: &mut Bind) -> Option<bool> {
        loop {
            let mut progress = false;
            let mut open = false;
            for c in &self.clause.constraints {
                let Constraint::Eq(a, b) = c else { continue };
                let (pat, id) = match (is_bound(a, bind), is_bound(b, bind)) {
                    (true, true) => {
                        let ia = intern_pattern(&mut self.scratch, a, bind);
                        if ia != intern_pattern(&mut self.scratch, b, bind) {
                            return None;
                        }
                        continue;
                    }
                    (true, false) => (b, intern_pattern(&mut self.scratch, a, bind)?),
                    (false, true) => (a, intern_pattern(&mut self.scratch, b, bind)?),
                    (false, false) => {
                        open = true;
                        continue;
                    }
                };
                if !match_pooled(&self.scratch, pat, id, bind) {
                    return None;
                }
                progress = true;
            }
            if !progress {
                return Some(open);
            }
        }
    }

    /// The scratch-id range of `sort`'s enumeration candidates: the
    /// first [`SaturationConfig::free_var_candidates`] terms by size,
    /// boxed in the per-sort cache and interned here once per work
    /// item.
    fn sort_candidates(&mut self, sort: SortId) -> std::ops::Range<usize> {
        if let Some(r) = self.enum_ranges.get(&sort) {
            return r.clone();
        }
        let terms = match self.enum_cache.get(&sort) {
            Some(terms) => terms,
            None => self.enum_fresh.entry(sort).or_insert_with(|| {
                terms_by_size(&self.sys.sig, sort, self.cfg.free_var_candidates)
            }),
        };
        let start = self.enum_ids.len();
        for t in terms {
            self.enum_ids.push(self.scratch.intern_term(t));
        }
        let range = start..self.enum_ids.len();
        self.enum_ranges.insert(sort, range.clone());
        range
    }

    /// Binds the variables in `free` one after another, each to every
    /// candidate of its sort in turn: one step per candidate, a push
    /// onto `bind` per binding.
    fn bind_free(&mut self, free: &[VarId], bind: &mut Bind, open: bool, premises: &[usize]) {
        let Some((&v, rest)) = free.split_first() else {
            self.finish_ground(bind, open, premises);
            return;
        };
        let sort = self.clause.vars.sort(v).expect("var in context");
        for i in self.sort_candidates(sort) {
            if !self.step() {
                return;
            }
            bind.push((v, self.enum_ids[i]));
            self.bind_free(rest, bind, open, premises);
            bind.pop();
            if self.stopped() {
                return;
            }
        }
    }

    /// A full binding of a clause with constraints or free variables:
    /// decides `≠` by id, a tester by the head symbol, and — when the
    /// equality solver left some open — `=` by id, then derives the head
    /// with the binding in `clause.vars` order.
    fn finish_ground(&mut self, bind: &Bind, open: bool, premises: &[usize]) {
        let clause = self.clause;
        for c in &clause.constraints {
            let holds = match c {
                Constraint::Eq(a, b) => {
                    !open
                        || intern_pattern(&mut self.scratch, a, bind)
                            == intern_pattern(&mut self.scratch, b, bind)
                }
                Constraint::Neq(a, b) => {
                    intern_pattern(&mut self.scratch, a, bind)
                        != intern_pattern(&mut self.scratch, b, bind)
                }
                Constraint::Tester {
                    ctor,
                    term,
                    positive,
                } => {
                    let head = match term {
                        Term::App(f, _) => *f,
                        Term::Var(v) => self
                            .scratch
                            .func(bind_get(bind, *v).expect("every variable is bound")),
                    };
                    (head == *ctor) == *positive
                }
            };
            if !holds {
                return;
            }
        }
        let ordered: Bind = clause
            .vars
            .vars()
            .map(|v| (v, bind_get(bind, v).expect("every variable is bound")))
            .collect();
        self.finish_pooled(&ordered, premises);
    }

    /// Pooled head derivation: instantiate head arguments directly as
    /// interned ids (into the scratch extension), check the height
    /// budget from the memoized tables, dedup by id tuple.
    fn finish_pooled(&mut self, bind: &Bind, premises: &[usize]) {
        let clause = self.clause;
        match &clause.head {
            None => {
                // ⊥ derived. The certificate is built at merge time,
                // against the master pool; stash the instance.
                self.refutation = Some((bind.to_vec(), premises.to_vec()));
            }
            Some(atom) => {
                // Height check *before* interning: rejected heads must
                // not grow the scratch.
                for t in &atom.args {
                    match pattern_height(&self.scratch, t, bind) {
                        Some(h) if h > self.cfg.max_term_height => return,
                        Some(_) => {}
                        None => return,
                    }
                }
                let args: Option<FactArgs> = atom
                    .args
                    .iter()
                    .map(|t| intern_pattern(&mut self.scratch, t, bind))
                    .collect();
                let Some(args) = args else { return };
                let pred = atom.pred;
                // Snapshot facts only reference snapshot ids, so a
                // tuple containing a scratch id correctly misses here.
                if self.base.find(pred, &args).is_none()
                    && !self.new_index.contains(&(pred, args.clone()))
                {
                    if self.base.len() + self.new_facts.len() >= self.cfg.max_facts {
                        self.budget_hit = true;
                        self.facts_capped = true;
                        return;
                    }
                    self.new_index.insert((pred, args.clone()));
                    self.new_facts
                        .push((pred, args, bind.clone(), premises.to_vec()));
                }
            }
        }
    }
}

/// Extracts the sub-derivation ending in the ⊥ step. The certificate
/// gets its own pool dump: every term the derivation references is
/// [`TermPool::import`]ed once (shared subterms stay shared), instead
/// of re-boxing a [`GroundTerm`] tree per step. The binding must
/// already be in master-pool ids (the merge re-interns scratch
/// bindings before calling this).
fn build_refutation(
    base: &FactBase,
    query_clause: usize,
    binding: &[(VarId, TermId)],
    premises: Vec<usize>,
) -> Refutation {
    let mut pool = TermPool::new();
    let mut memo: Vec<Option<TermId>> = Vec::new();
    // Collect all transitively needed facts.
    let mut needed: Vec<usize> = Vec::new();
    let mut stack = premises.clone();
    while let Some(i) = stack.pop() {
        if !needed.contains(&i) {
            needed.push(i);
            stack.extend(base.provenance[i].2.iter().copied());
        }
    }
    needed.sort();
    let renumber: FxHashMap<usize, usize> =
        needed.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let mut steps: Vec<PooledStep> = Vec::with_capacity(needed.len() + 1);
    for &i in &needed {
        let (clause, bind, prem) = &base.provenance[i];
        let (pred, args) = &base.facts[i];
        steps.push(PooledStep {
            clause: *clause,
            binding: bind
                .iter()
                .map(|(v, id)| (*v, pool.import(&base.pool, &mut memo, *id)))
                .collect(),
            premises: prem.iter().map(|p| renumber[p]).collect(),
            fact: Some((
                *pred,
                args.iter()
                    .map(|a| pool.import(&base.pool, &mut memo, *a))
                    .collect(),
            )),
        });
    }
    steps.push(PooledStep {
        clause: query_clause,
        binding: binding
            .iter()
            .map(|(v, id)| (*v, pool.import(&base.pool, &mut memo, *id)))
            .collect(),
        premises: premises.iter().map(|p| renumber[p]).collect(),
        fact: None,
    });
    Refutation { pool, steps }
}

/// Why a refutation failed to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefutationError {
    /// A step references a clause index outside the system.
    BadClause(usize),
    /// The binding does not ground every clause variable.
    UnboundVariable(usize),
    /// A binding's term is ill-sorted or not of its variable's sort.
    IllSorted(usize),
    /// A ground constraint of the instantiated clause is false.
    FalseConstraint(usize),
    /// A premise index is out of range or derives the wrong fact.
    BadPremise(usize),
    /// The instantiated head disagrees with the recorded fact.
    WrongFact(usize),
    /// The final step does not apply a query clause.
    NoQuery,
}

impl fmt::Display for RefutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefutationError::BadClause(i) => write!(f, "step {i}: clause index out of range"),
            RefutationError::UnboundVariable(i) => {
                write!(f, "step {i}: binding leaves a clause variable free")
            }
            RefutationError::IllSorted(i) => {
                write!(
                    f,
                    "step {i}: a binding's term does not have its variable's sort"
                )
            }
            RefutationError::FalseConstraint(i) => {
                write!(f, "step {i}: instantiated constraint is false")
            }
            RefutationError::BadPremise(i) => write!(f, "step {i}: premise mismatch"),
            RefutationError::WrongFact(i) => {
                write!(f, "step {i}: instantiated head differs from recorded fact")
            }
            RefutationError::NoQuery => write!(f, "final step is not a query clause"),
        }
    }
}

impl Error for RefutationError {}

/// Replays a refutation against the system from scratch. Every UNSAT
/// answer the solver returns has passed this check.
///
/// # Errors
///
/// Returns the first [`RefutationError`] encountered.
pub fn check_refutation(sys: &ChcSystem, r: &Refutation) -> Result<(), RefutationError> {
    let mut derived: Vec<Fact> = Vec::with_capacity(r.len());
    for (si, step) in r.boxed_steps().enumerate() {
        let step = &step;
        let clause = sys
            .clauses
            .get(step.clause)
            .ok_or(RefutationError::BadClause(si))?;
        let well_sorted = |&(v, id): &(VarId, TermId)| {
            clause.vars.sort(v) == Some(r.pool.sort(&sys.sig, id))
                && r.pool.well_sorted(&sys.sig, id)
        };
        if !r.steps[si].binding.iter().all(well_sorted) {
            return Err(RefutationError::IllSorted(si));
        }
        let bind: FxHashMap<VarId, &GroundTerm> =
            step.binding.iter().map(|(v, g)| (*v, g)).collect();
        let inst = |t: &Term| -> Option<GroundTerm> { instantiate(t, &bind) };
        // Variables may be missing from the binding only if unused.
        for c in &clause.constraints {
            let ok = match c {
                Constraint::Eq(a, b) => {
                    let (a, b) = (inst(a), inst(b));
                    match (a, b) {
                        (Some(a), Some(b)) => a == b,
                        _ => return Err(RefutationError::UnboundVariable(si)),
                    }
                }
                Constraint::Neq(a, b) => {
                    let (a, b) = (inst(a), inst(b));
                    match (a, b) {
                        (Some(a), Some(b)) => a != b,
                        _ => return Err(RefutationError::UnboundVariable(si)),
                    }
                }
                Constraint::Tester {
                    ctor,
                    term,
                    positive,
                } => match inst(term) {
                    Some(g) => (g.func() == *ctor) == *positive,
                    None => return Err(RefutationError::UnboundVariable(si)),
                },
            };
            if !ok {
                return Err(RefutationError::FalseConstraint(si));
            }
        }
        if step.premises.len() != clause.body.len() {
            return Err(RefutationError::BadPremise(si));
        }
        for (atom, &pi) in clause.body.iter().zip(&step.premises) {
            if pi >= si {
                return Err(RefutationError::BadPremise(si));
            }
            let expected =
                instantiate_atom(atom, &bind).ok_or(RefutationError::UnboundVariable(si))?;
            if derived[pi] != expected {
                return Err(RefutationError::BadPremise(si));
            }
        }
        match (&clause.head, &step.fact) {
            (None, None) => {
                if si + 1 != r.len() {
                    return Err(RefutationError::NoQuery);
                }
                return Ok(());
            }
            (Some(atom), Some(fact)) => {
                let expected =
                    instantiate_atom(atom, &bind).ok_or(RefutationError::UnboundVariable(si))?;
                if &expected != fact {
                    return Err(RefutationError::WrongFact(si));
                }
                derived.push(fact.clone());
            }
            _ => return Err(RefutationError::WrongFact(si)),
        }
    }
    Err(RefutationError::NoQuery)
}

fn instantiate(t: &Term, bind: &FxHashMap<VarId, &GroundTerm>) -> Option<GroundTerm> {
    match t {
        Term::Var(v) => bind.get(v).map(|g| (*g).clone()),
        Term::App(f, args) => {
            let args: Option<Vec<GroundTerm>> = args.iter().map(|a| instantiate(a, bind)).collect();
            Some(GroundTerm::app(*f, args?))
        }
    }
}

fn instantiate_atom(atom: &Atom, bind: &FxHashMap<VarId, &GroundTerm>) -> Option<Fact> {
    let args: Option<Vec<GroundTerm>> = atom.args.iter().map(|t| instantiate(t, bind)).collect();
    Some((atom.pred, args?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn unsat_even() -> ChcSystem {
        // even(Z), even(x) → even(S(S(x))), even(S(S(Z))) → ⊥: unsat.
        parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (=> (even (S (S Z))) false))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn refutes_and_replays() {
        let sys = unsat_even();
        let (outcome, _) = saturate_guarded(&sys, &SaturationConfig::default(), &Guard::new());
        let r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        assert!(check_refutation(&sys, &r).is_ok());
        // Derivation: even(Z), even(S(S(Z))), ⊥.
        assert_eq!(r.len(), 3);
        // The certificate is pooled: one dump holding exactly the
        // shared chain Z, S(Z), S(S(Z)) — not one boxed tree per step.
        assert_eq!(r.pool.len(), 3);
        // The boxed view reconstructs every step coherently.
        let boxed: Vec<RefStep> = r.boxed_steps().collect();
        assert_eq!(boxed.len(), r.len());
        assert!(boxed[0].fact.is_some() && boxed[2].fact.is_none());
        assert_eq!(boxed[2].premises, vec![1]);
        // Semantic equality is pool-layout independent.
        assert_eq!(r.clone(), r);
    }

    #[test]
    fn tampered_refutation_is_rejected() {
        let sys = unsat_even();
        let (outcome, _) = saturate_guarded(&sys, &SaturationConfig::default(), &Guard::new());
        let mut r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        // Point the final step's premise at the wrong fact.
        let last = r.steps.len() - 1;
        r.steps[last].premises[0] = 0;
        assert!(check_refutation(&sys, &r).is_err());
    }

    #[test]
    fn sat_system_saturates_or_budgets() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            (assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
            "#,
        )
        .unwrap();
        let cfg = SaturationConfig {
            max_facts: 50,
            ..SaturationConfig::default()
        };
        let (outcome, stats) = saturate_guarded(&sys, &cfg, &Guard::new());
        match outcome {
            SaturationOutcome::Budget(base) | SaturationOutcome::Saturated(base) => {
                assert!(!base.is_empty());
                let even = sys.rels.by_name("even").unwrap();
                assert!(base.of_pred(even).count() > 3);
                // Interned facts share subterms: S^{2k}(Z) facts need
                // only one chain of nodes in the pool.
                assert!(base.pool().len() <= 2 * base.len() + 2);
            }
            SaturationOutcome::Refuted(_) => panic!("even system is satisfiable"),
            SaturationOutcome::Interrupted(_) => panic!("unguarded saturate cannot trip"),
        }
        assert!(stats.steps > 0);
        assert!(stats.pooled_terms > 0);
    }

    #[test]
    fn diseq_constraints_filter_matches() {
        // p(Z), p(x) ∧ x ≠ Z → ⊥ is satisfiable; with p(S(Z)) it's not.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p Z))
            (assert (p (S Z)))
            (assert (forall ((x Nat)) (=> (and (p x) (distinct x Z)) false)))
            "#,
        )
        .unwrap();
        let (outcome, _) = saturate_guarded(&sys, &SaturationConfig::default(), &Guard::new());
        let r = match outcome {
            SaturationOutcome::Refuted(r) => r,
            other => panic!("expected refutation, got {other:?}"),
        };
        assert!(check_refutation(&sys, &r).is_ok());
    }

    #[test]
    fn ill_sorted_certificates_are_rejected() {
        // ∀x:Nat. p(x) and p(x) ∧ ¬Z?(x) ∧ ¬S?(x) → ⊥ is satisfiable:
        // every Nat is Z or S. Binding x to nil : Lst fakes a refutation
        // that passes every other replay check.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0) (Lst 0))
              (((Z) (S (pre Nat))) ((nil) (cons (hd Nat) (tl Lst)))))
            (declare-fun p (Nat) Bool)
            (assert (forall ((x Nat)) (p x)))
            (assert (forall ((x Nat))
              (=> (and (p x) (not ((_ is Z) x)) (not ((_ is S) x))) false)))
            "#,
        )
        .unwrap();
        let p = sys.rels.by_name("p").unwrap();
        let nil = sys.sig.func_by_name("nil").unwrap();
        let x = |c: usize| sys.clauses[c].vars.vars().next().unwrap();
        let mut pool = TermPool::new();
        let t = pool.intern(nil, &[]);
        let forged = Refutation {
            pool,
            steps: vec![
                PooledStep {
                    clause: 0,
                    binding: vec![(x(0), t)],
                    premises: vec![],
                    fact: Some((p, vec![t])),
                },
                PooledStep {
                    clause: 1,
                    binding: vec![(x(1), t)],
                    premises: vec![0],
                    fact: None,
                },
            ],
        };
        assert_eq!(
            check_refutation(&sys, &forged),
            Err(RefutationError::IllSorted(0))
        );
    }

    #[test]
    fn equalities_open_on_both_sides_are_enumerated_then_checked() {
        // Neither side of x = S(y) or S(x) = S(y) can be interned while
        // x and y are free, so both variables range over the first four
        // Nats and each pair is checked by id once bound.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun q (Nat) Bool)
            (declare-fun r (Nat Nat) Bool)
            (assert (forall ((x Nat) (y Nat)) (=> (= x (S y)) (q x))))
            (assert (forall ((x Nat) (y Nat)) (=> (= (S x) (S y)) (r x y))))
            "#,
        )
        .unwrap();
        let cfg = SaturationConfig {
            free_var_candidates: 4,
            ..SaturationConfig::default()
        };
        let (outcome, stats) = saturate_guarded(&sys, &cfg, &Guard::new());
        let SaturationOutcome::Saturated(base) = outcome else {
            panic!("expected saturation, got {outcome:?}");
        };
        let (q, r) = (
            sys.rels.by_name("q").unwrap(),
            sys.rels.by_name("r").unwrap(),
        );
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let n = |k: usize| GroundTerm::iterate(s, GroundTerm::leaf(z), k);
        // x = S(y) holds for three of the sixteen candidate pairs: S⁴(Z)
        // is no candidate, so q(S⁴(Z)) is not derived.
        let mut expected: Vec<Fact> = (1..4).map(|k| (q, vec![n(k)])).collect();
        expected.extend((0..4).map(|k| (r, vec![n(k), n(k)])));
        assert_eq!(base.ground_facts().collect::<Vec<_>>(), expected);
        // One step per candidate: 4 for x, then 4 × 4 for y, per clause.
        assert_eq!((stats.rounds, stats.steps, stats.candidates), (2, 40, 7));
    }

    #[test]
    fn fact_base_probes_ground_facts() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun even (Nat) Bool)
            (assert (even Z))
            (assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
            "#,
        )
        .unwrap();
        let cfg = SaturationConfig {
            max_facts: 8,
            ..SaturationConfig::default()
        };
        let (outcome, _) = saturate_guarded(&sys, &cfg, &Guard::new());
        let base = match outcome {
            SaturationOutcome::Budget(b) | SaturationOutcome::Saturated(b) => b,
            SaturationOutcome::Refuted(_) => panic!("even system is satisfiable"),
            SaturationOutcome::Interrupted(_) => panic!("unguarded saturate cannot trip"),
        };
        let even = sys.rels.by_name("even").unwrap();
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let two = GroundTerm::iterate(s, GroundTerm::leaf(z), 2);
        let one = GroundTerm::iterate(s, GroundTerm::leaf(z), 1);
        assert!(base.contains(&(even, vec![GroundTerm::leaf(z)])));
        assert!(base.contains(&(even, vec![two])));
        assert!(!base.contains(&(even, vec![one])));
        // Boxed and pooled views agree.
        for (i, fact) in base.ground_facts().enumerate() {
            assert_eq!(base.ground_fact(i), fact);
            assert!(base.contains(&fact));
        }
        assert_eq!(base.pooled_facts().count(), base.len());
    }
}
