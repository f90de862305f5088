//! Deterministic finite tree (tuple) automata — the `Reg` representation
//! class of *"Beyond the Elementary Representations of Program Invariants
//! over Algebraic Data Types"* (PLDI 2021).
//!
//! * [`Dfta`] — states and shared transition table (Definition 2);
//! * [`TupleAutomaton`] — final state tuples and acceptance
//!   (Definition 3), with intersection, union, complement, emptiness,
//!   witnesses, trimming and 1-automaton minimization;
//! * [`Nfta`] — nondeterministic automata with subset-construction
//!   determinization (TATA [14]), the substrate for the regular
//!   language extensions §7 lists as future work;
//! * [`store`] — the hash-consed automaton store: [`Dfta`]s and
//!   [`TupleAutomaton`]s interned behind dense ids by canonical
//!   structural fingerprint, with memoized Boolean operations and
//!   pair-map-seeded incremental products (the layer the solver loops
//!   route through);
//! * [`reference`] — the original ordered-map kernel, kept as the
//!   executable specification for differential tests and as the
//!   baseline the micro-benchmarks measure speedups against.
//!
//! # The interned kernel
//!
//! Everything above a DFTA in this workspace — invariant inference, the
//! inductiveness check, the Boolean closure operations — bottoms out in
//! millions of `step`/`run`/fixpoint calls, so the kernel is built
//! around *interned transitions and dense tables*:
//!
//! * every rule left-hand side `(f, q₁…qₘ)` is stored once in a flat
//!   argument arena (`Vec<StateId>`), with fixed-size rule records
//!   pointing into it, grouped by function symbol and discoverable
//!   through an open-addressing Fx-hashed intern table
//!   ([`Dfta::step`] is a single hash probe, **zero heap
//!   allocations** — the paper's shared-table `n`-automata of §4.2
//!   make every predicate share this one structure);
//! * [`Dfta::run`] / [`Dfta::eval`] are iterative post-order
//!   evaluations with an explicit frame stack (no recursion — deep
//!   counterexample terms cannot overflow the call stack), and
//!   [`Dfta::run_cached`] adds hash-consed memoization of shared
//!   ground subterms for bulk workloads — or, for terms already
//!   interned in a [`ringen_terms::TermPool`], [`Dfta::run_pooled`]
//!   memoizes by dense [`ringen_terms::TermId`] in a plain vector
//!   ([`PoolRunCache`]): no hashing at all on a cache hit;
//! * [`Dfta::reachable_guarded`] and [`Dfta::witnesses_guarded`] are
//!   worklist fixpoints with per-rule pending-argument counters —
//!   `O(|Δ|·arity)` total instead of a full table rescan per round —
//!   and the witness fixpoint discovers states in breadth-first order
//!   so every witness has minimum height;
//! * [`Dfta::product_guarded`] interns only *product-reachable* state
//!   pairs via a worklist over rule pairs, so intersection/union never
//!   materialize the `|S₁|·|S₂|` square, and
//!   [`TupleAutomaton::minimized`] refines partitions with single
//!   passes over the flat rule table.
//!
//! # Example
//!
//! ```
//! use ringen_automata::{Dfta, TupleAutomaton};
//! use ringen_terms::{signature_helpers::nat_signature, GroundTerm};
//!
//! // The even-number automaton of the paper's Example 1.
//! let (sig, nat, z, s) = nat_signature();
//! let mut d = Dfta::new();
//! let s0 = d.add_state(nat);
//! let s1 = d.add_state(nat);
//! d.add_transition(z, vec![], s0);
//! d.add_transition(s, vec![s0], s1);
//! d.add_transition(s, vec![s1], s0);
//! let mut even = TupleAutomaton::new(d, vec![nat]);
//! even.add_final(vec![s0]);
//! assert!(even.accepts(&[GroundTerm::iterate(s, GroundTerm::leaf(z), 6)]));
//! # let _ = sig;
//! ```

mod dfta;
mod nfta;
pub mod reference;
pub mod store;
mod tuple;

pub use dfta::{Dfta, DisplayDfta, PoolRunCache, RunCache, StateId};
pub use nfta::{NState, Nfta};
pub use store::{AutId, AutStore, DftaId, StoreStats};
pub use tuple::TupleAutomaton;
