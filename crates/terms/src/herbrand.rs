//! Enumeration and counting of the Herbrand universe.
//!
//! Provides the paper's `T^k_σ` (ground terms of sort `σ` with size `k`),
//! the term-size sets `S_σ` (§6.3), the *expanding sort* check of
//! Definition 5, and bounded enumeration used by tests, the saturation
//! refuter and the pumping demonstrations.

use std::collections::BTreeSet;

use crate::ground::GroundTerm;
use crate::ids::{FuncId, SortId};
use crate::pool::{TermId, TermPool};
use crate::signature::{FuncKind, Signature};

/// Cardinality of a sort's Herbrand universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortCardinality {
    /// Finitely many ground terms (including zero for uninhabited sorts).
    Finite(u64),
    /// Infinitely many ground terms.
    Infinite,
}

impl SortCardinality {
    /// The cardinality as a count, if finite.
    pub fn finite(self) -> Option<u64> {
        match self {
            SortCardinality::Finite(n) => Some(n),
            SortCardinality::Infinite => None,
        }
    }
}

/// Computes the cardinality of `|ℋ|_σ`.
///
/// # Example
///
/// ```
/// use ringen_terms::{herbrand::{cardinality, SortCardinality}, Signature};
///
/// let mut sig = Signature::new();
/// let b = sig.add_sort("B");
/// sig.add_constructor("t", vec![], b);
/// sig.add_constructor("f", vec![], b);
/// assert_eq!(cardinality(&sig, b), SortCardinality::Finite(2));
/// ```
pub fn cardinality(sig: &Signature, sort: SortId) -> SortCardinality {
    if sig.sort_is_infinite(sort) {
        return SortCardinality::Infinite;
    }
    // All terms of a finite sort have height ≤ the number of sorts (no
    // constructor cycle is reachable), so bounded enumeration terminates.
    let bound = sig.sort_count() + 1;
    SortCardinality::Finite(terms_up_to_height(sig, sort, bound).len() as u64)
}

/// Enumerates all ground terms of `sort` with height ≤ `max_height`, in
/// increasing height order (ties broken by construction order).
///
/// The output can be exponentially large; callers cap `max_height`.
/// This is the boxed view of [`pooled_terms_up_to_height`] — workloads
/// that run many automata or caches over the enumeration should keep
/// the pooled ids instead of materializing trees.
pub fn terms_up_to_height(sig: &Signature, sort: SortId, max_height: usize) -> Vec<GroundTerm> {
    let mut pool = TermPool::new();
    pooled_terms_up_to_height(sig, sort, max_height, &mut pool)
        .into_iter()
        .map(|id| pool.to_ground(id))
        .collect()
}

/// [`terms_up_to_height`], hash-consed: every enumerated term (and all
/// its subterms, shared across the whole enumeration) is interned into
/// `pool`, and only ids are returned. Argument heights come from the
/// pool's memoized table, so the layer construction never re-walks
/// subtrees.
pub fn pooled_terms_up_to_height(
    sig: &Signature,
    sort: SortId,
    max_height: usize,
    pool: &mut TermPool,
) -> Vec<TermId> {
    // layers[s][h] = terms of sort s with height exactly h+1.
    let n = sig.sort_count();
    let mut layers: Vec<Vec<Vec<TermId>>> = vec![Vec::new(); n];
    for h in 0..max_height {
        let mut new_layer: Vec<Vec<TermId>> = vec![Vec::new(); n];
        for c in sig.constructors() {
            let d = sig.func(c);
            let target = d.range.index();
            // Build all argument combinations whose max height is exactly h.
            let choices: Vec<Vec<TermId>> = d
                .domain
                .iter()
                .map(|s| {
                    layers[s.index()]
                        .iter()
                        .take(h)
                        .flatten()
                        .copied()
                        .collect::<Vec<_>>()
                })
                .collect();
            combine_with_max_height(pool, c, &choices, h, &mut new_layer[target]);
        }
        for (s, terms) in new_layer.into_iter().enumerate() {
            layers[s].push(terms);
        }
    }
    layers[sort.index()].iter().flatten().copied().collect()
}

fn combine_with_max_height(
    pool: &mut TermPool,
    ctor: FuncId,
    choices: &[Vec<TermId>],
    h: usize,
    out: &mut Vec<TermId>,
) {
    // Nullary constructor: height exactly 1, i.e. h == 0.
    if choices.is_empty() {
        if h == 0 {
            out.push(pool.intern(ctor, &[]));
        }
        return;
    }
    let mut idx = vec![0usize; choices.len()];
    if choices.iter().any(Vec::is_empty) {
        return;
    }
    let mut args: Vec<TermId> = Vec::with_capacity(choices.len());
    loop {
        args.clear();
        args.extend(idx.iter().zip(choices).map(|(&i, c)| c[i]));
        let maxh = args.iter().map(|a| pool.height(*a)).max().unwrap_or(0);
        if maxh == h {
            let id = pool.intern(ctor, &args);
            out.push(id);
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < choices[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == choices.len() {
                return;
            }
        }
    }
}

/// Counts `|T^k_σ|` for `k = 0..=max_size`, saturating at `cap`.
///
/// Counting uses the convolution recurrence
/// `N_σ(k) = Σ_c Σ_{k₁+…+kₙ = k-1} Π N_{σᵢ}(kᵢ)` and never materializes
/// terms, so large `max_size` is cheap.
pub fn count_terms_by_size(sig: &Signature, sort: SortId, max_size: usize, cap: u64) -> Vec<u64> {
    let mut counts = count_all_sorts(sig, max_size, cap, || false).expect("never cancelled");
    counts.swap_remove(sort.index())
}

/// [`count_terms_by_size`] for every sort at once (the recurrence
/// fills them all anyway), indexed by sort. `cancelled` is consulted
/// once per size; `None` if it returned `true`.
fn count_all_sorts(
    sig: &Signature,
    max_size: usize,
    cap: u64,
    mut cancelled: impl FnMut() -> bool,
) -> Option<Vec<Vec<u64>>> {
    let n = sig.sort_count();
    // counts[s][k] = number of terms of sort s and size k (saturated).
    let mut counts: Vec<Vec<u64>> = vec![vec![0; max_size + 1]; n];
    for k in 1..=max_size {
        if cancelled() {
            return None;
        }
        for c in sig.constructors() {
            let d = sig.func(c);
            let total = convolve(&counts, &d.domain, k - 1, cap);
            let slot = &mut counts[d.range.index()][k];
            *slot = slot.saturating_add(total).min(cap);
        }
    }
    Some(counts)
}

/// Number of argument tuples for sorts `domain` with total size `budget`.
fn convolve(counts: &[Vec<u64>], domain: &[SortId], budget: usize, cap: u64) -> u64 {
    match domain.split_first() {
        None => u64::from(budget == 0),
        Some((first, rest)) => {
            let mut total: u64 = 0;
            for k in 0..=budget {
                let here = counts[first.index()][k];
                if here == 0 {
                    continue;
                }
                let there = convolve(counts, rest, budget - k, cap);
                total = total.saturating_add(here.saturating_mul(there)).min(cap);
                if total >= cap {
                    return cap;
                }
            }
            total
        }
    }
}

/// The analysis bound of [`SizeSet::of_sort`]: term sizes are counted
/// up to it, and the periodic tail is detected in its second half.
const SIZE_SET_BOUND: usize = 512;

/// The set of term sizes `S_σ = { size(t) | t ∈ |ℋ|_σ }` (§6.3),
/// represented as an explicit prefix plus an eventually-periodic tail.
///
/// By Parikh's theorem `S_σ` is semilinear; in one dimension every
/// semilinear set is eventually periodic, which this representation
/// captures exactly (given a large enough analysis bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeSet {
    /// Sizes below `tail_start`, explicitly.
    prefix: BTreeSet<u64>,
    /// First size of the periodic tail.
    tail_start: u64,
    /// Period of the tail (0 when the set is finite).
    period: u64,
    /// Residues (mod `period`, offsets from `tail_start`) present in the
    /// tail.
    residues: BTreeSet<u64>,
}

impl SizeSet {
    /// Computes `S_σ` by dynamic programming up to an internal bound and
    /// lasso detection on the reachable-size bitmap.
    ///
    /// # Panics
    ///
    /// Panics if no period is detectable within the internal bound, which
    /// cannot happen for ADT size sets with constructor arities bounded by
    /// the bound (the period divides a constructor-size gcd).
    pub fn of_sort(sig: &Signature, sort: SortId) -> SizeSet {
        SizeSet::from_counts(&count_terms_by_size(sig, sort, SIZE_SET_BOUND, 2))
    }

    /// [`SizeSet::of_sort`] for every sort, indexed by sort, from one
    /// counting pass. `cancelled` is consulted once per term size of
    /// that pass; `None` if it returned `true`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SizeSet::of_sort`].
    pub fn of_all_sorts(sig: &Signature, cancelled: impl FnMut() -> bool) -> Option<Vec<SizeSet>> {
        let counts = count_all_sorts(sig, SIZE_SET_BOUND, 2, cancelled)?;
        Some(counts.iter().map(|c| SizeSet::from_counts(c)).collect())
    }

    /// Lasso detection on one sort's term counts up to [`SIZE_SET_BOUND`].
    fn from_counts(counts: &[u64]) -> SizeSet {
        let present: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
        // Finite set: nothing present in the second half.
        if present[SIZE_SET_BOUND / 2..].iter().all(|&b| !b) {
            let prefix: BTreeSet<u64> = present
                .iter()
                .enumerate()
                .filter_map(|(k, &b)| b.then_some(k as u64))
                .collect();
            return SizeSet {
                prefix,
                tail_start: SIZE_SET_BOUND as u64,
                period: 0,
                residues: BTreeSet::new(),
            };
        }
        // Find the smallest period p and start T with
        // present[k] == present[k+p] for all k in [T, SIZE_SET_BOUND-p].
        for p in 1..=(SIZE_SET_BOUND / 4) {
            let start = SIZE_SET_BOUND / 2;
            if (start..=SIZE_SET_BOUND - p).all(|k| present[k] == present[k + p]) {
                let prefix = present[..start]
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &b)| b.then_some(k as u64))
                    .collect();
                let residues = (0..p)
                    .filter(|&r| present[start + r])
                    .map(|r| r as u64)
                    .collect();
                return SizeSet {
                    prefix,
                    tail_start: start as u64,
                    period: p as u64,
                    residues,
                };
            }
        }
        panic!("no period detected for size set within bound {SIZE_SET_BOUND}");
    }

    /// Whether size `k` is realized by some ground term.
    pub fn contains(&self, k: u64) -> bool {
        if k < self.tail_start {
            return self.prefix.contains(&k);
        }
        if self.period == 0 {
            return false;
        }
        self.residues
            .contains(&((k - self.tail_start) % self.period))
    }

    /// Whether the set is infinite.
    pub fn is_infinite(&self) -> bool {
        self.period > 0 && !self.residues.is_empty()
    }

    /// The eventual period (0 for finite sets).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The smallest member ≥ `k`, if any.
    pub fn next_member(&self, k: u64) -> Option<u64> {
        if let Some(&m) = self.prefix.range(k..).next() {
            return Some(m);
        }
        if self.period == 0 || self.residues.is_empty() {
            return None;
        }
        let mut cur = k.max(self.tail_start);
        loop {
            if self.contains(cur) {
                return Some(cur);
            }
            cur += 1;
        }
    }

    /// An iterator over all members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut next = Some(0u64);
        std::iter::from_fn(move || {
            let k = self.next_member(next?)?;
            next = Some(k + 1);
            Some(k)
        })
    }
}

/// Checks the *expanding sort* condition of Definition 5, up to testable
/// bounds: for every `n ≤ n_max` there must be a bound `b` such that every
/// non-empty size class `T^{b'}_σ` with `b ≤ b' ≤ size_bound` has at least
/// `n` elements.
///
/// This is a bounded check: a `true` answer is evidence (exact for the
/// ADTs used in the paper, whose counting sequences are eventually
/// monotone), a `false` answer is definitive within the bound.
pub fn is_expanding(sig: &Signature, sort: SortId, n_max: u64, size_bound: usize) -> bool {
    let counts = count_terms_by_size(sig, sort, size_bound, n_max.saturating_add(1));
    'outer: for n in 1..=n_max {
        // Find b: all non-empty classes from b on have ≥ n elements.
        let mut b = size_bound + 1;
        for k in (0..=size_bound).rev() {
            if counts[k] == 0 {
                continue;
            }
            if counts[k] >= n {
                b = k;
            } else {
                break;
            }
        }
        if b <= size_bound {
            continue 'outer;
        }
        return false;
    }
    true
}

/// Enumerates ground terms of `sort` in non-decreasing size order,
/// yielding at most `limit` terms. Useful for counterexample search and
/// property tests.
pub fn terms_by_size(sig: &Signature, sort: SortId, limit: usize) -> Vec<GroundTerm> {
    let mut out: Vec<GroundTerm> = Vec::new();
    let mut memo: rustc_hash::FxHashMap<(SortId, usize), Vec<GroundTerm>> =
        rustc_hash::FxHashMap::default();
    let mut budget = 100_000usize;
    for k in 1..=64usize {
        if out.len() >= limit || budget == 0 {
            break;
        }
        let terms = all_terms_of_size(sig, sort, k, &mut memo, &mut budget);
        out.extend(terms);
        // Ties within one size class keep a deterministic order already
        // (constructor declaration order, then argument enumeration).
    }
    out.truncate(limit);
    out
}

/// All ground terms of `sort` with size exactly `k`, memoized; `budget`
/// caps the total number of terms materialized across the recursion
/// (pools never need completeness).
fn all_terms_of_size(
    sig: &Signature,
    sort: SortId,
    k: usize,
    memo: &mut rustc_hash::FxHashMap<(SortId, usize), Vec<GroundTerm>>,
    budget: &mut usize,
) -> Vec<GroundTerm> {
    if let Some(hit) = memo.get(&(sort, k)) {
        return hit.clone();
    }
    let mut out = Vec::new();
    if k >= 1 {
        for &c in sig.constructors_of(sort) {
            let decl = sig.func(c);
            if decl.arity() == 0 {
                if k == 1 {
                    out.push(GroundTerm::leaf(c));
                }
                continue;
            }
            if k < 1 + decl.arity() {
                continue;
            }
            let domain = decl.domain.clone();
            let mut stack: Vec<(usize, usize, Vec<GroundTerm>)> = vec![(0, k - 1, Vec::new())];
            while let Some((pos, rest, args)) = stack.pop() {
                if *budget == 0 {
                    break;
                }
                if pos == domain.len() {
                    if rest == 0 {
                        out.push(GroundTerm::app(c, args));
                        *budget = budget.saturating_sub(1);
                    }
                    continue;
                }
                let remaining_min = domain.len() - pos - 1;
                for k_i in 1..=rest.saturating_sub(remaining_min) {
                    for t in all_terms_of_size(sig, domain[pos], k_i, memo, budget) {
                        let mut a2 = args.clone();
                        a2.push(t);
                        stack.push((pos + 1, rest - k_i, a2));
                    }
                }
            }
        }
    }
    memo.insert((sort, k), out.clone());
    out
}

/// A deterministic pseudo-random ground term of the given sort, or `None`
/// for uninhabited sorts. Used by fuzz-style tests across the workspace
/// without pulling a RNG dependency into the library.
pub fn pseudo_random_term(
    sig: &Signature,
    sort: SortId,
    seed: u64,
    max_height: usize,
) -> Option<GroundTerm> {
    let heights = sig.min_heights();
    heights[sort.index()]?;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Some(random_rec(sig, sort, &mut state, max_height, &heights))
}

fn random_rec(
    sig: &Signature,
    sort: SortId,
    state: &mut u64,
    fuel: usize,
    heights: &[Option<usize>],
) -> GroundTerm {
    let feasible: Vec<FuncId> = sig
        .constructors_of(sort)
        .iter()
        .copied()
        .filter(|&c| {
            let d = sig.func(c);
            d.kind == FuncKind::Constructor
                && d.domain
                    .iter()
                    .all(|s| heights[s.index()].is_some_and(|h| h < fuel.max(1)))
        })
        .collect();
    // Fall back to the minimal-height witness when out of fuel.
    if feasible.is_empty() || fuel <= 1 {
        return sig.some_ground_term(sort).expect("sort checked inhabited");
    }
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let pick = feasible[(*state >> 33) as usize % feasible.len()];
    let args = sig
        .func(pick)
        .domain
        .clone()
        .into_iter()
        .map(|s| random_rec(sig, s, state, fuel - 1, heights))
        .collect();
    GroundTerm::app(pick, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{nat_list_signature, nat_signature, tree_signature};

    #[test]
    fn enumerate_nats_by_height() {
        let (sig, nat, ..) = nat_signature();
        let ts = terms_up_to_height(&sig, nat, 4);
        assert_eq!(ts.len(), 4); // Z, S Z, S S Z, S S S Z
        assert!(ts.iter().all(|t| t.well_sorted(&sig)));
        let hs: Vec<_> = ts.iter().map(GroundTerm::height).collect();
        assert_eq!(hs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn enumerate_trees_by_height() {
        let (sig, tree, ..) = tree_signature();
        let ts = terms_up_to_height(&sig, tree, 3);
        // heights: 1 leaf; 2: node(l,l); 3: node over height ≤2 with max=2: 3
        assert_eq!(ts.len(), 1 + 1 + 3);
        assert!(ts.iter().all(|t| t.well_sorted(&sig)));
    }

    #[test]
    fn pooled_enumeration_shares_subterms() {
        let (sig, tree, ..) = tree_signature();
        let mut pool = TermPool::new();
        let ids = pooled_terms_up_to_height(&sig, tree, 4, &mut pool);
        let boxed = terms_up_to_height(&sig, tree, 4);
        assert_eq!(ids.len(), boxed.len());
        for (id, t) in ids.iter().zip(&boxed) {
            assert_eq!(&pool.to_ground(*id), t);
        }
        // Sharing: the pool holds exactly the distinct subterms, which
        // is far fewer nodes than the sum of the boxed tree sizes.
        let total_nodes: u64 = boxed.iter().map(GroundTerm::size).sum();
        assert!((pool.len() as u64) < total_nodes);
    }

    #[test]
    fn cardinalities() {
        let (sig, nat, ..) = nat_signature();
        assert_eq!(cardinality(&sig, nat), SortCardinality::Infinite);

        let mut fin = Signature::new();
        let b = fin.add_sort("B");
        fin.add_constructor("t", vec![], b);
        fin.add_constructor("f", vec![], b);
        let p = fin.add_sort("P");
        fin.add_constructor("mk", vec![b, b], p);
        assert_eq!(cardinality(&fin, b), SortCardinality::Finite(2));
        assert_eq!(cardinality(&fin, p), SortCardinality::Finite(4));

        let mut empty = Signature::new();
        let e = empty.add_sort("E");
        empty.add_constructor("loop", vec![e], e);
        assert_eq!(cardinality(&empty, e), SortCardinality::Finite(0));
        assert_eq!(SortCardinality::Finite(4).finite(), Some(4));
        assert_eq!(SortCardinality::Infinite.finite(), None);
    }

    #[test]
    fn nat_counts_are_all_one() {
        let (sig, nat, ..) = nat_signature();
        let c = count_terms_by_size(&sig, nat, 16, u64::MAX);
        assert_eq!(c[0], 0);
        assert!(c[1..].iter().all(|&k| k == 1));
    }

    #[test]
    fn list_counts_follow_fibonacci() {
        // Example 7 of the paper: |T^k_List| = fib(k-2) from k = 3.
        let (sig, _nat, list, ..) = nat_list_signature();
        let c = count_terms_by_size(&sig, list, 12, u64::MAX);
        assert_eq!(c[1], 1); // nil
        assert_eq!(c[2], 0);
        // sizes 3..: cons(nat of size a, list of size b), a+b = k-1
        let fib = [1u64, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (i, &f) in fib.iter().enumerate() {
            assert_eq!(c[i + 3], f, "size {}", i + 3);
        }
    }

    #[test]
    fn tree_counts_are_catalan() {
        let (sig, tree, ..) = tree_signature();
        let c = count_terms_by_size(&sig, tree, 11, u64::MAX);
        // Trees have odd sizes; # trees with n inner nodes = Catalan(n).
        assert_eq!(c[1], 1);
        assert_eq!(c[3], 1);
        assert_eq!(c[5], 2);
        assert_eq!(c[7], 5);
        assert_eq!(c[9], 14);
        assert_eq!(c[11], 42);
        assert_eq!(c[2] + c[4] + c[6], 0);
    }

    #[test]
    fn size_set_of_trees_is_odd_numbers() {
        let (sig, tree, ..) = tree_signature();
        let s = SizeSet::of_sort(&sig, tree);
        assert!(s.is_infinite());
        for k in 0..64 {
            assert_eq!(s.contains(k), k % 2 == 1, "size {k}");
        }
        assert_eq!(s.next_member(10), Some(11));
        assert_eq!(s.iter().take(4).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn size_set_of_finite_sort() {
        let mut sig = Signature::new();
        let b = sig.add_sort("B");
        sig.add_constructor("t", vec![], b);
        let p = sig.add_sort("P");
        sig.add_constructor("mk", vec![b, b], p);
        let s = SizeSet::of_sort(&sig, p);
        assert!(!s.is_infinite());
        assert!(s.contains(3)); // mk(t, t)
        assert!(!s.contains(1));
        assert_eq!(s.next_member(4), None);
        assert_eq!(s.period(), 0);
    }

    #[test]
    fn expanding_sorts_match_example_7() {
        // Example 7: Nat is not expanding, List is.
        let (sig, nat, list, ..) = nat_list_signature();
        assert!(!is_expanding(&sig, nat, 4, 64));
        assert!(is_expanding(&sig, list, 16, 64));
        let (tsig, tree, ..) = tree_signature();
        assert!(is_expanding(&tsig, tree, 16, 64));
    }

    #[test]
    fn terms_by_size_is_sorted_and_well_sorted() {
        let (sig, _nat, list, ..) = nat_list_signature();
        let ts = terms_by_size(&sig, list, 10);
        assert_eq!(ts.len(), 10);
        assert!(ts.windows(2).all(|w| w[0].size() <= w[1].size()));
        assert!(ts.iter().all(|t| t.well_sorted(&sig)));
    }

    #[test]
    fn pseudo_random_terms_are_well_sorted_and_vary() {
        let (sig, _nat, list, ..) = nat_list_signature();
        let mut seen = BTreeSet::new();
        for seed in 0..32 {
            let t = pseudo_random_term(&sig, list, seed, 8).unwrap();
            assert!(t.well_sorted(&sig));
            seen.insert(t);
        }
        assert!(seen.len() > 4, "generator should produce variety");

        let mut empty = Signature::new();
        let e = empty.add_sort("E");
        empty.add_constructor("loop", vec![e], e);
        assert_eq!(pseudo_random_term(&empty, e, 0, 8), None);
    }
}
