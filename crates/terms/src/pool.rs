//! Hash-consed term pool: the Herbrand universe behind dense `u32` ids.
//!
//! A [`TermPool`] interns every ground term it is handed into a flat
//! node arena, so that structurally equal (sub)terms share one
//! [`TermId`]. Equality becomes a `u32` compare, hashing becomes
//! hashing a `u32`, and the per-node `height`/`size` of the paper
//! (§6.2, §6.3) are memoized at intern time — O(1) reads instead of a
//! recursive walk. This is the classic maximally-shared smart
//! constructor recipe (Blanqui et al., *On the implementation of
//! construction functions for non-free concrete data types*), applied
//! to the Herbrand terms that the saturation refuter and the automata
//! `run` caches shuttle around.
//!
//! # Representation
//!
//! Nodes live in one flat arena: per-id parallel vectors hold the head
//! symbol, the `(start, len)` window into a shared argument buffer of
//! child `TermId`s, and the memoized height/size. An open-addressing
//! [`InternTable`](crate::intern::InternTable) keyed by an Fx hash of
//! `(f, args…)` maps shallow nodes to ids; probes compare against the
//! arena directly, so interning an already-known node allocates
//! nothing.
//!
//! # Example
//!
//! Build `S(S(Z))` twice — once via the smart constructor, once from a
//! boxed [`GroundTerm`] — and observe maximal sharing:
//!
//! ```
//! use ringen_terms::{signature_helpers::nat_signature, GroundTerm, TermPool};
//!
//! let (_sig, _nat, z, s) = nat_signature();
//! let mut pool = TermPool::new();
//!
//! // Smart constructors: children first, then the application.
//! let zero = pool.intern(z, &[]);
//! let one = pool.intern(s, &[zero]);
//! let two = pool.intern(s, &[one]);
//!
//! // Interning the equal boxed tree yields the *same* id…
//! let boxed = GroundTerm::iterate(s, GroundTerm::leaf(z), 2);
//! assert_eq!(pool.intern_term(&boxed), two);
//! // …and only three nodes exist in total (Z, S(Z), S(S(Z))).
//! assert_eq!(pool.len(), 3);
//!
//! // Memoized measures agree with the recursive definitions.
//! assert_eq!(pool.height(two), boxed.height());
//! assert_eq!(pool.size(two), boxed.size());
//!
//! // Round-trip back to a boxed tree.
//! assert_eq!(pool.to_ground(two), boxed);
//! ```

use std::fmt;
use std::hash::Hasher;

use rustc_hash::FxHasher;

use crate::ground::GroundTerm;
use crate::ids::{FuncId, SortId};
use crate::intern::InternTable;
use crate::signature::Signature;

/// Identifier of an interned ground term in a [`TermPool`].
///
/// Ids are dense (`0..pool.len()`), so callers can build per-term side
/// tables as plain vectors indexed by [`TermId::index`]. Two ids from
/// the *same* pool are equal iff the terms are structurally equal;
/// ids from different pools are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// Raw index, usable for dense per-term tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TermId` from an index previously obtained from
    /// [`TermId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is `u32::MAX` or larger (the all-ones pattern is
    /// reserved; truncating would alias an unrelated term).
    pub fn from_index(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(raw) if raw != u32::MAX => TermId(raw),
            _ => panic!("term index {i} exceeds the id space"),
        }
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Fx hash of a shallow node. Query slices and arena slices go through
/// this one function so probes agree.
#[inline]
fn node_hash(f: FuncId, args: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(f.index() as u32);
    h.write_u32(args.len() as u32);
    for a in args {
        h.write_u32(a.0);
    }
    h.finish()
}

/// A hash-consing arena for ground terms. See the [module
/// docs](self) for the design and a worked example.
#[derive(Debug, Clone, Default)]
pub struct TermPool {
    /// Head symbol per node.
    funcs: Vec<FuncId>,
    /// `(start, len)` window into `args` per node.
    arg_spans: Vec<(u32, u32)>,
    /// Flat buffer holding every node's child ids back to back.
    args: Vec<TermId>,
    /// Memoized `Height` (§6.2) per node.
    heights: Vec<u32>,
    /// Memoized `size` (§6.3) per node, saturating at `u64::MAX`.
    sizes: Vec<u64>,
    /// Shallow-node intern table over the arena.
    table: InternTable,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the pool holds no terms.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    #[inline]
    fn node_matches(&self, id: u32, f: FuncId, args: &[TermId]) -> bool {
        self.funcs[id as usize] == f && self.args_of(id as usize) == args
    }

    #[inline]
    fn args_of(&self, i: usize) -> &[TermId] {
        let (start, len) = self.arg_spans[i];
        &self.args[start as usize..(start + len) as usize]
    }

    /// The maximally-shared smart constructor: interns the application
    /// `f(args…)` and returns its id. Existing nodes are found by a
    /// single hash probe with no allocation; new nodes memoize their
    /// height and size from the (already interned) children.
    ///
    /// # Panics
    ///
    /// Panics if an argument id is stale (not from this pool).
    pub fn intern(&mut self, f: FuncId, args: &[TermId]) -> TermId {
        for a in args {
            assert!(a.index() < self.funcs.len(), "stale term id {a}");
        }
        let hash = node_hash(f, args);
        if let Some(hit) = self.table.find(hash, |id| self.node_matches(id, f, args)) {
            return TermId(hit);
        }
        let id = TermId::from_index(self.funcs.len());
        let start = u32::try_from(self.args.len()).expect("argument arena offset fits u32");
        self.args.extend_from_slice(args);
        self.arg_spans.push((start, args.len() as u32));
        self.funcs.push(f);
        let height = 1 + args
            .iter()
            .map(|a| self.heights[a.index()])
            .max()
            .unwrap_or(0);
        let size = args
            .iter()
            .fold(1u64, |acc, a| acc.saturating_add(self.sizes[a.index()]));
        self.heights.push(height);
        self.sizes.push(size);
        let TermPool {
            table,
            funcs,
            arg_spans,
            args: arena,
            ..
        } = self;
        table.insert_new(hash, id.0, |v| {
            let (start, len) = arg_spans[v as usize];
            node_hash(
                funcs[v as usize],
                &arena[start as usize..(start + len) as usize],
            )
        });
        id
    }

    /// Looks up an application without interning it. `None` means the
    /// node (or one of its children, transitively) was never interned.
    pub fn find(&self, f: FuncId, args: &[TermId]) -> Option<TermId> {
        self.table
            .find(node_hash(f, args), |id| self.node_matches(id, f, args))
            .map(TermId)
    }

    /// Looks up a boxed tree without interning it: the pooled id if
    /// every node of `t` is already interned, `None` otherwise.
    /// Iterative, mutation-free — usable for membership probes on a
    /// shared pool.
    pub fn find_term(&self, t: &GroundTerm) -> Option<TermId> {
        let mut frames: Vec<(&GroundTerm, usize)> = vec![(t, 0)];
        let mut values: Vec<TermId> = Vec::with_capacity(16);
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            let args = term.args();
            if next < args.len() {
                frame.1 += 1;
                frames.push((&args[next], 0));
            } else {
                frames.pop();
                let base = values.len() - args.len();
                let id = self.find(term.func(), &values[base..])?;
                values.truncate(base);
                values.push(id);
            }
        }
        values.pop()
    }

    /// The head symbol of an interned term.
    pub fn func(&self, t: TermId) -> FuncId {
        self.funcs[t.index()]
    }

    /// The immediate subterm ids.
    pub fn args(&self, t: TermId) -> &[TermId] {
        self.args_of(t.index())
    }

    /// Memoized height (§6.2): `Height(c) = 1`,
    /// `Height(c(t₁…tₙ)) = 1 + max Height(tᵢ)`. O(1).
    pub fn height(&self, t: TermId) -> usize {
        self.heights[t.index()] as usize
    }

    /// Memoized size (§6.3): the number of constructor occurrences,
    /// saturating at `u64::MAX`. O(1).
    pub fn size(&self, t: TermId) -> u64 {
        self.sizes[t.index()]
    }

    /// The sort of an interned term under a signature.
    pub fn sort(&self, sig: &Signature, t: TermId) -> SortId {
        sig.func(self.func(t)).range
    }

    /// Interns a boxed [`GroundTerm`] tree bottom-up. Iterative
    /// post-order with an explicit frame stack — deep terms cannot
    /// overflow the call stack.
    pub fn intern_term(&mut self, t: &GroundTerm) -> TermId {
        let mut frames: Vec<(&GroundTerm, usize)> = vec![(t, 0)];
        let mut values: Vec<TermId> = Vec::with_capacity(16);
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            let args = term.args();
            if next < args.len() {
                frame.1 += 1;
                frames.push((&args[next], 0));
            } else {
                frames.pop();
                let base = values.len() - args.len();
                let id = self.intern(term.func(), &values[base..]);
                values.truncate(base);
                values.push(id);
            }
        }
        values.pop().expect("non-empty term")
    }

    /// Reconstructs the boxed tree of an interned term. Iterative, like
    /// [`TermPool::intern_term`].
    pub fn to_ground(&self, t: TermId) -> GroundTerm {
        let mut frames: Vec<(TermId, usize)> = vec![(t, 0)];
        let mut values: Vec<GroundTerm> = Vec::with_capacity(16);
        while let Some(frame) = frames.last_mut() {
            let (id, next) = *frame;
            let args = self.args(id);
            if next < args.len() {
                frame.1 += 1;
                frames.push((args[next], 0));
            } else {
                let argc = args.len();
                frames.pop();
                let children = values.split_off(values.len() - argc);
                values.push(GroundTerm::app(self.func(id), children));
            }
        }
        values.pop().expect("non-empty term")
    }

    /// A copy-on-extend view of this pool frozen at its current
    /// length: reads of existing nodes go to `self`, new interns land
    /// in a private extension. This is the *snapshot* half of the
    /// snapshot/delta/merge recipe the parallel saturation engine
    /// uses — many [`ScratchPool`]s can borrow one frozen master
    /// concurrently.
    pub fn scratch(&self) -> ScratchPool<'_> {
        ScratchPool {
            base: self,
            split: u32::try_from(self.len()).expect("pool length fits u32"),
            funcs: Vec::new(),
            arg_spans: Vec::new(),
            args: Vec::new(),
            heights: Vec::new(),
            table: InternTable::new(),
        }
    }

    /// Re-interns one scratch-extension term into this pool — the
    /// *merge* half of the snapshot/delta/merge recipe. Ids below the
    /// scratch's split point are master ids already and pass through
    /// unchanged; extension nodes are interned bottom-up (children
    /// carry smaller ids by construction), memoized in `memo`, which
    /// must be reused across calls for the same [`ScratchNodes`] and
    /// starts empty.
    ///
    /// Only the nodes reachable from `id` are interned, so deltas whose
    /// facts are deduplicated away never pollute the master pool.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was not taken from a pool of the same
    /// length as this one had when [`TermPool::scratch`] ran (the
    /// master must only have grown by earlier `reintern` calls since).
    pub fn reintern(
        &mut self,
        nodes: &ScratchNodes,
        memo: &mut Vec<Option<TermId>>,
        id: TermId,
    ) -> TermId {
        let split = nodes.split as usize;
        assert!(self.len() >= split, "master pool shrank below the snapshot");
        if id.index() < split {
            return id;
        }
        if memo.len() < nodes.len() {
            memo.resize(nodes.len(), None);
        }
        let mut stack: Vec<TermId> = vec![id];
        while let Some(&top) = stack.last() {
            let li = top.index() - split;
            if memo[li].is_some() {
                stack.pop();
                continue;
            }
            let args = nodes.args_of(li);
            let mut ready = true;
            for &a in args {
                if a.index() >= split && memo[a.index() - split].is_none() {
                    stack.push(a);
                    ready = false;
                }
            }
            if ready {
                let mapped: Vec<TermId> = args
                    .iter()
                    .map(|&a| {
                        if a.index() < split {
                            a
                        } else {
                            memo[a.index() - split].expect("children map first")
                        }
                    })
                    .collect();
                memo[li] = Some(self.intern(nodes.funcs[li], &mapped));
                stack.pop();
            }
        }
        memo[id.index() - split].expect("root mapped")
    }

    /// Copies one term (and its reachable subterms) from another pool
    /// into this one, returning the local id. `memo` maps source ids to
    /// local ids and must be reused across calls for the same source
    /// pool (it starts empty and grows lazily), so a batch of imports
    /// copies every shared subterm once. This is how certificate dumps
    /// are built: only the terms a certificate actually references
    /// leave the (much larger) working pool.
    pub fn import(&mut self, src: &TermPool, memo: &mut Vec<Option<TermId>>, id: TermId) -> TermId {
        if memo.len() < src.len() {
            memo.resize(src.len(), None);
        }
        let mut stack: Vec<TermId> = vec![id];
        while let Some(&top) = stack.last() {
            if memo[top.index()].is_some() {
                stack.pop();
                continue;
            }
            let args = src.args(top);
            let mut ready = true;
            for &a in args {
                if memo[a.index()].is_none() {
                    stack.push(a);
                    ready = false;
                }
            }
            if ready {
                let mapped: Vec<TermId> = args
                    .iter()
                    .map(|&a| memo[a.index()].expect("children map first"))
                    .collect();
                memo[top.index()] = Some(self.intern(src.func(top), &mapped));
                stack.pop();
            }
        }
        memo[id.index()].expect("root mapped")
    }

    /// Checks that an interned term respects the signature's arities
    /// and argument sorts. Iterative over the shared nodes (each
    /// distinct subterm is checked once).
    pub fn well_sorted(&self, sig: &Signature, t: TermId) -> bool {
        let mut stack = vec![t];
        let mut seen = vec![false; self.len()];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            let d = sig.func(self.func(id));
            let args = self.args(id);
            if d.arity() != args.len() {
                return false;
            }
            for (a, s) in args.iter().zip(&d.domain) {
                if self.sort(sig, *a) != *s {
                    return false;
                }
                stack.push(*a);
            }
        }
        true
    }
}

/// A thread-local extension of a frozen [`TermPool`] — the *delta*
/// half of the snapshot/delta/merge recipe (see [`TermPool::scratch`]).
///
/// Ids below the split point (the master's length at snapshot time) are
/// master ids; interning a node that already exists in the master
/// returns that master id, so only genuinely new structure lands in the
/// extension. Reads ([`ScratchPool::func`], [`ScratchPool::args`],
/// [`ScratchPool::height`]) dispatch on the split transparently.
///
/// The extension memoizes heights (the saturation engine's budget
/// checks need them) but not sizes — sizes are recomputed when the
/// delta is re-interned into the master by [`TermPool::reintern`].
#[derive(Debug)]
pub struct ScratchPool<'a> {
    base: &'a TermPool,
    /// `base.len()` at snapshot time; extension ids start here.
    split: u32,
    funcs: Vec<FuncId>,
    arg_spans: Vec<(u32, u32)>,
    args: Vec<TermId>,
    heights: Vec<u32>,
    /// Probe table over the extension nodes only.
    table: InternTable,
}

impl<'a> ScratchPool<'a> {
    /// The frozen master this scratch extends.
    pub fn base(&self) -> &'a TermPool {
        self.base
    }

    /// First extension id: everything below is a master id.
    pub fn split(&self) -> usize {
        self.split as usize
    }

    /// Total distinct terms visible (master snapshot + extension).
    pub fn len(&self) -> usize {
        self.split as usize + self.funcs.len()
    }

    /// Whether neither the master snapshot nor the extension holds a
    /// term.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn local_args_of(&self, li: usize) -> &[TermId] {
        let (start, len) = self.arg_spans[li];
        &self.args[start as usize..(start + len) as usize]
    }

    #[inline]
    fn local_matches(&self, li: u32, f: FuncId, args: &[TermId]) -> bool {
        self.funcs[li as usize] == f && self.local_args_of(li as usize) == args
    }

    /// The head symbol of a visible term.
    pub fn func(&self, t: TermId) -> FuncId {
        if t.index() < self.split as usize {
            self.base.func(t)
        } else {
            self.funcs[t.index() - self.split as usize]
        }
    }

    /// The immediate subterm ids of a visible term.
    pub fn args(&self, t: TermId) -> &[TermId] {
        if t.index() < self.split as usize {
            self.base.args(t)
        } else {
            self.local_args_of(t.index() - self.split as usize)
        }
    }

    /// Memoized height of a visible term. O(1).
    pub fn height(&self, t: TermId) -> usize {
        if t.index() < self.split as usize {
            self.base.height(t)
        } else {
            self.heights[t.index() - self.split as usize] as usize
        }
    }

    /// The maximally-shared smart constructor over the combined
    /// (master + extension) universe: an application already interned
    /// in the frozen master returns its master id; otherwise it is
    /// interned into the extension.
    ///
    /// # Panics
    ///
    /// Panics if an argument id is stale (neither a master nor an
    /// extension id).
    pub fn intern(&mut self, f: FuncId, args: &[TermId]) -> TermId {
        for a in args {
            assert!(a.index() < self.len(), "stale term id {a}");
        }
        let hash = node_hash(f, args);
        // Master nodes only ever reference master ids, so a query with
        // an extension argument simply misses here.
        if let Some(hit) = self
            .base
            .table
            .find(hash, |id| self.base.node_matches(id, f, args))
        {
            return TermId(hit);
        }
        if let Some(hit) = self.table.find(hash, |li| self.local_matches(li, f, args)) {
            return TermId(self.split + hit);
        }
        let li = u32::try_from(self.funcs.len()).expect("extension fits u32");
        let id = TermId::from_index(self.split as usize + li as usize);
        let start = u32::try_from(self.args.len()).expect("argument arena offset fits u32");
        self.args.extend_from_slice(args);
        self.arg_spans.push((start, args.len() as u32));
        self.funcs.push(f);
        let height = 1 + args
            .iter()
            .map(|a| self.height(*a) as u32)
            .max()
            .unwrap_or(0);
        self.heights.push(height);
        let ScratchPool {
            table,
            funcs,
            arg_spans,
            args: arena,
            ..
        } = self;
        table.insert_new(hash, li, |v| {
            let (start, len) = arg_spans[v as usize];
            node_hash(
                funcs[v as usize],
                &arena[start as usize..(start + len) as usize],
            )
        });
        id
    }

    /// Interns a boxed tree bottom-up, like [`TermPool::intern_term`].
    pub fn intern_term(&mut self, t: &GroundTerm) -> TermId {
        let mut frames: Vec<(&GroundTerm, usize)> = vec![(t, 0)];
        let mut values: Vec<TermId> = Vec::with_capacity(16);
        while let Some(frame) = frames.last_mut() {
            let (term, next) = *frame;
            let args = term.args();
            if next < args.len() {
                frame.1 += 1;
                frames.push((&args[next], 0));
            } else {
                frames.pop();
                let base = values.len() - args.len();
                let id = self.intern(term.func(), &values[base..]);
                values.truncate(base);
                values.push(id);
            }
        }
        values.pop().expect("non-empty term")
    }

    /// Extracts the owned extension nodes, dropping the master borrow —
    /// the form a worker hands back across the merge barrier for
    /// [`TermPool::reintern`].
    pub fn into_nodes(self) -> ScratchNodes {
        ScratchNodes {
            split: self.split,
            funcs: self.funcs,
            arg_spans: self.arg_spans,
            args: self.args,
        }
    }
}

/// The owned extension of a [`ScratchPool`], detached from the master
/// borrow. Consumed by [`TermPool::reintern`].
#[derive(Debug, Clone, Default)]
pub struct ScratchNodes {
    split: u32,
    funcs: Vec<FuncId>,
    arg_spans: Vec<(u32, u32)>,
    args: Vec<TermId>,
}

impl ScratchNodes {
    /// Number of extension nodes.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// First extension id: every id below this is a master (snapshot)
    /// id by construction, so callers can skip [`TermPool::reintern`]
    /// entirely for those.
    pub fn split(&self) -> usize {
        self.split as usize
    }

    /// Whether the delta interned nothing new.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    #[inline]
    fn args_of(&self, li: usize) -> &[TermId] {
        let (start, len) = self.arg_spans[li];
        &self.args[start as usize..(start + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{nat_list_signature, nat_signature};

    #[test]
    fn interning_is_maximally_shared() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut pool = TermPool::new();
        let zero = pool.intern(z, &[]);
        let one = pool.intern(s, &[zero]);
        assert_eq!(pool.intern(z, &[]), zero);
        assert_eq!(pool.intern(s, &[zero]), one);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.func(one), s);
        assert_eq!(pool.args(one), &[zero]);
        assert_eq!(pool.find(s, &[one]), None);
        let two = pool.intern(s, &[one]);
        assert_eq!(pool.find(s, &[one]), Some(two));
    }

    #[test]
    fn intern_term_round_trips() {
        let (_sig, _nat, _list, z, s, nil, cons) = nat_list_signature();
        let mut pool = TermPool::new();
        let t = GroundTerm::app(
            cons,
            vec![
                GroundTerm::app(s, vec![GroundTerm::leaf(z)]),
                GroundTerm::app(
                    cons,
                    vec![GroundTerm::app(s, vec![GroundTerm::leaf(z)]), {
                        GroundTerm::leaf(nil)
                    }],
                ),
            ],
        );
        let id = pool.intern_term(&t);
        assert_eq!(pool.to_ground(id), t);
        // S(Z) appears twice but is interned once: cons, cons, nil, S(Z), Z.
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.intern_term(&t), id);
    }

    #[test]
    fn memoized_measures_match_recursive_ones() {
        let (sig, _nat, _list, z, s, nil, cons) = nat_list_signature();
        let mut pool = TermPool::new();
        let t = GroundTerm::app(
            cons,
            vec![
                GroundTerm::iterate(s, GroundTerm::leaf(z), 3),
                GroundTerm::leaf(nil),
            ],
        );
        let id = pool.intern_term(&t);
        assert_eq!(pool.height(id), t.height());
        assert_eq!(pool.size(id), t.size());
        assert_eq!(pool.sort(&sig, id), t.sort(&sig));
        assert!(pool.well_sorted(&sig, id));
    }

    #[test]
    fn ill_sorted_terms_are_detected() {
        let (sig, _nat, _list, z, _s, _nil, cons) = nat_list_signature();
        let mut pool = TermPool::new();
        // cons(Z, Z): second argument must be a list.
        let zero = pool.intern(z, &[]);
        let bad = pool.intern(cons, &[zero, zero]);
        assert!(!pool.well_sorted(&sig, bad));
        assert!(pool.well_sorted(&sig, zero));
    }

    #[test]
    fn deep_terms_do_not_overflow_the_stack() {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let (_sig, _nat, z, s) = nat_signature();
                let mut pool = TermPool::new();
                let deep = GroundTerm::iterate(s, GroundTerm::leaf(z), 200_000);
                let id = pool.intern_term(&deep);
                assert_eq!(pool.height(id), 200_001);
                assert_eq!(pool.to_ground(id), deep);
            })
            .expect("spawn test thread")
            .join()
            .expect("deep-term round trip");
    }

    #[test]
    fn scratch_reuses_master_ids_and_extends_privately() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut master = TermPool::new();
        let zero = master.intern(z, &[]);
        let one = master.intern(s, &[zero]);
        let mut scratch = master.scratch();
        // Known nodes resolve to master ids; nothing lands locally.
        assert_eq!(scratch.intern(z, &[]), zero);
        assert_eq!(scratch.intern(s, &[zero]), one);
        assert_eq!(scratch.len(), master.len());
        // A new node extends the scratch, not the master.
        let two = scratch.intern(s, &[one]);
        assert_eq!(two.index(), master.len());
        assert_eq!(scratch.func(two), s);
        assert_eq!(scratch.args(two), &[one]);
        assert_eq!(scratch.height(two), 3);
        assert_eq!(scratch.height(zero), 1);
        // Idempotent within the extension too.
        let three = scratch.intern(s, &[two]);
        assert_eq!(scratch.intern(s, &[two]), three);
        assert_eq!(scratch.len(), master.len() + 2);
        assert_eq!(master.len(), 2);
    }

    #[test]
    fn scratch_intern_term_shares_across_the_split() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut master = TermPool::new();
        let boxed_one = GroundTerm::iterate(s, GroundTerm::leaf(z), 1);
        master.intern_term(&boxed_one);
        let mut scratch = master.scratch();
        let boxed_three = GroundTerm::iterate(s, GroundTerm::leaf(z), 3);
        let id = scratch.intern_term(&boxed_three);
        // Z and S(Z) resolve to master; only S²(Z), S³(Z) are new.
        assert_eq!(scratch.len() - scratch.split(), 2);
        assert_eq!(scratch.height(id), 4);
    }

    #[test]
    fn reintern_merges_only_reachable_nodes() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut master = TermPool::new();
        let zero = master.intern(z, &[]);
        let mut scratch = master.scratch();
        let one = scratch.intern(s, &[zero]);
        let two = scratch.intern(s, &[one]);
        // A second, unrelated chain that merging `two` must not touch.
        let junk = scratch.intern(s, &[two]);
        let _junk2 = scratch.intern(s, &[junk]);
        let nodes = scratch.into_nodes();
        let mut memo = Vec::new();
        let mtwo = master.reintern(&nodes, &mut memo, two);
        assert_eq!(master.len(), 3, "junk chain must not be interned");
        assert_eq!(
            master.to_ground(mtwo),
            GroundTerm::iterate(s, GroundTerm::leaf(z), 2)
        );
        assert_eq!(master.height(mtwo), 3);
        // Master ids pass through unchanged; memo reuse is stable.
        assert_eq!(master.reintern(&nodes, &mut memo, zero), zero);
        assert_eq!(master.reintern(&nodes, &mut memo, two), mtwo);
    }

    #[test]
    fn reintern_deltas_from_two_scratches_converge() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut master = TermPool::new();
        let zero = master.intern(z, &[]);
        // Two workers derive overlapping structure independently.
        let mut sa = master.scratch();
        let a1 = sa.intern(s, &[zero]);
        let a2 = sa.intern(s, &[a1]);
        let mut sb = master.scratch();
        let b1 = sb.intern(s, &[zero]);
        let b2 = sb.intern(s, &[b1]);
        let b3 = sb.intern(s, &[b2]);
        let (na, nb) = (sa.into_nodes(), sb.into_nodes());
        let (mut ma, mut mb) = (Vec::new(), Vec::new());
        let ma2 = master.reintern(&na, &mut ma, a2);
        let mb3 = master.reintern(&nb, &mut mb, b3);
        // S¹ and S² exist once each despite being derived twice.
        assert_eq!(master.len(), 4);
        assert_eq!(master.args(mb3), &[ma2]);
    }

    #[test]
    fn import_copies_shared_structure_once() {
        let (_sig, _nat, z, s) = nat_signature();
        let mut src = TermPool::new();
        let zero = src.intern(z, &[]);
        let one = src.intern(s, &[zero]);
        let two = src.intern(s, &[one]);
        let three = src.intern(s, &[two]);
        // Grow the source further: imports must not copy unrelated
        // nodes.
        let _four = src.intern(s, &[three]);

        let mut dst = TermPool::new();
        let mut memo = Vec::new();
        let dtwo = dst.import(&src, &mut memo, two);
        let dthree = dst.import(&src, &mut memo, three);
        // Only Z, S, S², S³ were copied — the memo shares the chain.
        assert_eq!(dst.len(), 4);
        assert_eq!(dst.args(dthree), &[dtwo]);
        assert_eq!(dst.to_ground(dthree), src.to_ground(three));
        // Re-importing is a memo hit, not a copy.
        assert_eq!(dst.import(&src, &mut memo, two), dtwo);
        assert_eq!(dst.len(), 4);
    }

    #[test]
    #[should_panic(expected = "stale term id")]
    fn scratch_stale_ids_panic() {
        let (_sig, _nat, _z, s) = nat_signature();
        let master = TermPool::new();
        let mut scratch = master.scratch();
        scratch.intern(s, &[TermId::from_index(0)]);
    }

    #[test]
    #[should_panic(expected = "stale term id")]
    fn stale_ids_panic() {
        let (_sig, _nat, _z, s) = nat_signature();
        let mut pool = TermPool::new();
        pool.intern(s, &[TermId::from_index(0)]);
    }

    #[test]
    #[should_panic(expected = "exceeds the id space")]
    fn oversized_term_index_panics() {
        let _ = TermId::from_index(u32::MAX as usize);
    }
}
