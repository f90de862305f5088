//! An Oppen-style decision procedure for conjunctions of ADT literals.
//!
//! Decides satisfiability (modulo the theory of algebraic data types, in
//! the Herbrand structure) of cubes over equalities, disequalities and
//! testers: congruence closure with the ADT axioms layered on top —
//!
//! * **injectivity**: `c(ā) = c(b̄)` merges the argument classes;
//! * **distinctness**: `c(ā) = c'(b̄)` with `c ≠ c'` is a clash;
//! * **acyclicity**: a class reachable from itself through constructor
//!   argument edges denotes no finite tree;
//! * **testers**: positive testers label a class, negative testers
//!   exclude constructors; excluding every constructor of the sort is a
//!   clash, and pinning a class to a *nullary* constructor merges it
//!   with that constant;
//! * **exhaustive nullary sorts**: disequalities on one-point sorts
//!   clash.
//!
//! The closure is hash-consed: each variable, and each constructor
//! application over given argument classes, is one node, built once. A
//! signature table keyed on `(constructor, argument classes)` finds
//! congruent applications; a union re-keys only the applications over
//! the class with fewer of them. A cube therefore costs time
//! near-linear in its term size. Every union re-checks the surviving
//! class's tester labels against its constructor witness, so the
//! verdict does not depend on the order of the literals.
//!
//! `Unsat` answers are sound: they follow from the axioms above. `Sat`
//! answers are exact for the literal shapes the solver generates
//! (variable-rooted terms, no selectors) whenever the classes that
//! disequalities separate can each take unboundedly many values (cf.
//! the expanding-sort argument of §6.3). They are not exact in general:
//! disequalities are checked only against merged classes and one-point
//! sorts, so a cube whose disequalities need more distinct values than
//! a finite sort holds (three pairwise distinct `Bool`s, say) comes
//! back `Sat`. Every caller acts on `Unsat` only, so a missed clash
//! rejects a candidate invariant but never yields a wrong answer.

use std::ops::Range;

use rustc_hash::FxHashMap;

use ringen_terms::{FuncId, FuncKind, Signature, SortId, Term, VarContext, VarId};

use crate::lit::{Cube, Literal};

/// Verdict of the cube check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CubeSat {
    /// The cube has a Herbrand model.
    Sat,
    /// The cube is contradictory modulo ADT axioms.
    Unsat,
}

impl CubeSat {
    /// `true` for [`CubeSat::Sat`].
    pub fn is_sat(self) -> bool {
        self == CubeSat::Sat
    }
}

/// Decides a cube. Variables take their sorts from `vars`; every term
/// must be well-sorted (checked by construction in the solver).
///
/// # Panics
///
/// Panics if a term applies a non-constructor symbol (selector/tester
/// elimination happens upstream) or uses a variable not in `vars`.
pub fn check_cube(sig: &Signature, vars: &VarContext, cube: &Cube) -> CubeSat {
    let mut cc = Closure::new(sig, vars);
    let mut neqs: Vec<(usize, usize)> = Vec::new();
    for lit in cube {
        let step = match lit {
            Literal::Eq(a, b) => {
                let (na, nb) = (cc.node(a), cc.node(b));
                cc.merge(na, nb)
            }
            Literal::Neq(a, b) => {
                neqs.push((cc.node(a), cc.node(b)));
                Ok(())
            }
            Literal::Tester {
                ctor,
                term,
                positive,
            } => {
                let n = cc.node(term);
                cc.label(n, *ctor, *positive)
            }
        };
        if step.is_err() {
            return CubeSat::Unsat;
        }
    }
    if cc.has_constructor_cycle() {
        return CubeSat::Unsat;
    }
    // Disequalities: clash if both sides ended up in one class, or the
    // sort cannot hold two distinct values.
    for (a, b) in neqs {
        let (ra, rb) = (cc.find(a), cc.find(b));
        if ra == rb {
            return CubeSat::Unsat;
        }
        let sort = cc.nodes[ra].sort;
        if let Some(card) = ringen_terms::herbrand::cardinality(sig, sort).finite() {
            if card <= 1 {
                return CubeSat::Unsat;
            }
        }
    }
    CubeSat::Sat
}

/// Congruence closure over the cube's hash-consed term DAG.
struct Closure<'a> {
    sig: &'a Signature,
    vars: &'a VarContext,
    /// The node of each variable.
    var_nodes: FxHashMap<VarId, usize>,
    /// Signature table: `(constructor, argument classes)` to an
    /// application of that shape. A union re-keys the applications over
    /// the merged-away class; their old keys name a non-root, which no
    /// lookup forms again.
    table: FxHashMap<(FuncId, Vec<usize>), usize>,
    nodes: Vec<Node>,
    /// Argument nodes of the applications; `Node::args` indexes it.
    args: Vec<usize>,
    /// Union-find forest over the nodes.
    parent: Vec<usize>,
    /// Class data, meaningful at roots only.
    classes: Vec<Class>,
    /// Merges found but not yet performed.
    pending: Vec<(usize, usize)>,
}

struct Node {
    sort: SortId,
    /// The constructor of an application; `None` for a variable.
    ctor: Option<FuncId>,
    args: Range<usize>,
}

#[derive(Default)]
struct Class {
    /// An application in the class. All of the class's applications
    /// share its constructor and, by injectivity, its argument classes.
    witness: Option<usize>,
    /// Positive tester label.
    must_be: Option<FuncId>,
    /// Negative tester labels.
    must_not: Vec<FuncId>,
    /// Applications with an argument in the class.
    uses: Vec<usize>,
}

struct Clash;

impl<'a> Closure<'a> {
    fn new(sig: &'a Signature, vars: &'a VarContext) -> Self {
        Closure {
            sig,
            vars,
            var_nodes: FxHashMap::default(),
            table: FxHashMap::default(),
            nodes: Vec::new(),
            args: Vec::new(),
            parent: Vec::new(),
            classes: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The node of `t`, building the missing ones bottom-up.
    fn node(&mut self, t: &Term) -> usize {
        match t {
            Term::Var(v) => {
                if let Some(&n) = self.var_nodes.get(v) {
                    return n;
                }
                let sort = self.vars.sort(*v).expect("variable has a sort");
                let n = self.push(Node {
                    sort,
                    ctor: None,
                    args: 0..0,
                });
                self.var_nodes.insert(*v, n);
                n
            }
            Term::App(f, ts) => {
                assert_eq!(
                    self.sig.func(*f).kind,
                    FuncKind::Constructor,
                    "decision procedure only handles constructor terms"
                );
                let args = ts.iter().map(|a| self.node(a)).collect();
                self.app(*f, args)
            }
        }
    }

    /// The node of `f(args)`: a congruent application already in the
    /// table, else a new node.
    fn app(&mut self, f: FuncId, mut args: Vec<usize>) -> usize {
        for a in &mut args {
            *a = self.find(*a);
        }
        let key = (f, args);
        if let Some(&n) = self.table.get(&key) {
            return n;
        }
        let start = self.args.len();
        self.args.extend_from_slice(&key.1);
        let n = self.push(Node {
            sort: self.sig.func(f).range,
            ctor: Some(f),
            args: start..self.args.len(),
        });
        for &a in &key.1 {
            self.classes[a].uses.push(n);
        }
        self.table.insert(key, n);
        n
    }

    fn push(&mut self, node: Node) -> usize {
        let n = self.nodes.len();
        self.classes.push(Class {
            witness: node.ctor.map(|_| n),
            ..Class::default()
        });
        self.nodes.push(node);
        self.parent.push(n);
        n
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn merge(&mut self, a: usize, b: usize) -> Result<(), Clash> {
        self.pending.push((a, b));
        self.drain()
    }

    /// Adds the tester literal `c?(n)` (or its negation) to `n`'s class.
    fn label(&mut self, n: usize, c: FuncId, positive: bool) -> Result<(), Clash> {
        let r = self.find(n);
        let class = &mut self.classes[r];
        if positive {
            match class.must_be {
                Some(d) if d != c => return Err(Clash),
                _ => class.must_be = Some(c),
            }
        } else if !class.must_not.contains(&c) {
            class.must_not.push(c);
        }
        self.settle(r)?;
        self.drain()
    }

    fn drain(&mut self) -> Result<(), Clash> {
        while let Some((a, b)) = self.pending.pop() {
            let (mut ra, mut rb) = (self.find(a), self.find(b));
            if ra == rb {
                continue;
            }
            // Keep the class with more uses, so an application is
            // re-keyed O(log n) times.
            if self.classes[ra].uses.len() < self.classes[rb].uses.len() {
                std::mem::swap(&mut ra, &mut rb);
            }
            self.parent[rb] = ra;
            let gone = std::mem::take(&mut self.classes[rb]);
            // Constructor witnesses: distinctness + injectivity.
            match (self.classes[ra].witness, gone.witness) {
                (Some(wa), Some(wb)) => {
                    let (na, nb) = (&self.nodes[wa], &self.nodes[wb]);
                    if na.ctor != nb.ctor {
                        return Err(Clash);
                    }
                    let pairs = self.args[na.args.clone()]
                        .iter()
                        .zip(&self.args[nb.args.clone()]);
                    self.pending.extend(pairs.map(|(&x, &y)| (x, y)));
                }
                (None, w) => self.classes[ra].witness = w,
                (Some(_), None) => {}
            }
            // Congruence: re-key the applications over `rb`.
            for &u in &gone.uses {
                let key = self.signature(u);
                match self.table.get(&key) {
                    Some(&v) => self.pending.push((u, v)),
                    None => {
                        self.table.insert(key, u);
                    }
                }
            }
            let class = &mut self.classes[ra];
            class.uses.extend(gone.uses);
            // Tester labels.
            match (class.must_be, gone.must_be) {
                (Some(c), Some(d)) if c != d => return Err(Clash),
                (None, d) => class.must_be = d,
                _ => {}
            }
            for c in gone.must_not {
                if !class.must_not.contains(&c) {
                    class.must_not.push(c);
                }
            }
            self.settle(ra)?;
        }
        Ok(())
    }

    /// The table key of application `u` under the current classes.
    fn signature(&mut self, u: usize) -> (FuncId, Vec<usize>) {
        let node = &self.nodes[u];
        let (f, range) = (node.ctor.expect("uses are applications"), node.args.clone());
        let args = range.map(|i| self.find(self.args[i])).collect();
        (f, args)
    }

    /// Checks root `r`'s tester labels against its constructor witness
    /// and draws their consequences: exhaustiveness pins the last
    /// constructor not excluded, and a nullary pin means the class *is*
    /// that constant.
    fn settle(&mut self, r: usize) -> Result<(), Clash> {
        let class = &self.classes[r];
        let witnessed = class.witness.and_then(|w| self.nodes[w].ctor);
        let mut pinned = match (class.must_be, witnessed) {
            (Some(c), Some(f)) if c != f => return Err(Clash),
            (c, f) => c.or(f),
        };
        match pinned {
            Some(c) if class.must_not.contains(&c) => return Err(Clash),
            Some(_) => {}
            None if class.must_not.is_empty() => {}
            None => {
                let mut open = self
                    .sig
                    .constructors_of(self.nodes[r].sort)
                    .iter()
                    .filter(|c| !class.must_not.contains(c));
                match (open.next(), open.next()) {
                    (None, _) => return Err(Clash),
                    (Some(&d), None) => {
                        self.classes[r].must_be = Some(d);
                        pinned = Some(d);
                    }
                    _ => {}
                }
            }
        }
        if let Some(c) = pinned.filter(|&c| self.sig.func(c).arity() == 0) {
            let leaf = self.app(c, Vec::new());
            if self.find(leaf) != r {
                self.pending.push((r, leaf));
            }
        }
        Ok(())
    }

    /// Detects a class reachable from itself through constructor
    /// argument edges (the occurs-check / acyclicity axiom). Every
    /// application in a class has its witness's argument classes, so
    /// the witnesses' edges are all the edges.
    fn has_constructor_cycle(&mut self) -> bool {
        const FRESH: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut color = vec![FRESH; self.nodes.len()];
        // DFS stack of (class, argument slots still to visit).
        let mut stack: Vec<(usize, Range<usize>)> = Vec::new();
        for i in 0..self.nodes.len() {
            let root = self.find(i);
            if color[root] != FRESH {
                continue;
            }
            color[root] = OPEN;
            stack.push((root, self.witness_args(root)));
            while let Some((r, slots)) = stack.last_mut() {
                let Some(slot) = slots.next() else {
                    color[*r] = DONE;
                    stack.pop();
                    continue;
                };
                let child = self.find(self.args[slot]);
                match color[child] {
                    OPEN => return true,
                    FRESH => {
                        color[child] = OPEN;
                        stack.push((child, self.witness_args(child)));
                    }
                    _ => {}
                }
            }
        }
        false
    }

    fn witness_args(&self, r: usize) -> Range<usize> {
        self.classes[r]
            .witness
            .map_or(0..0, |w| self.nodes[w].args.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_terms::signature_helpers::{nat_list_signature, nat_signature, tree_signature};
    use ringen_terms::VarId;

    fn nat_ctx(sig: &Signature) -> (VarContext, VarId, VarId) {
        let nat = sig.sort_by_name("Nat").unwrap();
        let mut vars = VarContext::new();
        let x = vars.fresh("x", nat);
        let y = vars.fresh("y", nat);
        (vars, x, y)
    }

    #[test]
    fn distinct_constructors_clash() {
        let (sig, _, z, s) = nat_signature();
        let (vars, x, _) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(Term::var(x), Term::leaf(z)),
            Literal::Eq(Term::var(x), Term::app(s, vec![Term::leaf(z)])),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn injectivity_propagates() {
        // S(x) = S(y) ∧ x ≠ y is unsat.
        let (sig, _, _, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(
                Term::app(s, vec![Term::var(x)]),
                Term::app(s, vec![Term::var(y)]),
            ),
            Literal::Neq(Term::var(x), Term::var(y)),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn acyclicity_detects_occurs() {
        // x = S(x) is unsat over finite trees.
        let (sig, _, _, s) = nat_signature();
        let (vars, x, _) = nat_ctx(&sig);
        let cube = vec![Literal::Eq(Term::var(x), Term::app(s, vec![Term::var(x)]))];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn deep_cycle_detected() {
        // x = S(y) ∧ y = S(x).
        let (sig, _, _, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(Term::var(x), Term::app(s, vec![Term::var(y)])),
            Literal::Eq(Term::var(y), Term::app(s, vec![Term::var(x)])),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn tester_exhaustiveness() {
        // ¬Z?(x) ∧ ¬S?(x) is unsat.
        let (sig, _, z, s) = nat_signature();
        let (vars, x, _) = nat_ctx(&sig);
        let cube = vec![
            Literal::Tester {
                ctor: z,
                term: Term::var(x),
                positive: false,
            },
            Literal::Tester {
                ctor: s,
                term: Term::var(x),
                positive: false,
            },
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn nullary_pin_merges_with_constant() {
        // ¬S?(x) ∧ ¬S?(y) ∧ x ≠ y: both must be Z, so unsat.
        let (sig, _, _, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Tester {
                ctor: s,
                term: Term::var(x),
                positive: false,
            },
            Literal::Tester {
                ctor: s,
                term: Term::var(y),
                positive: false,
            },
            Literal::Neq(Term::var(x), Term::var(y)),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn satisfiable_cubes_pass() {
        let (sig, _, z, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(Term::var(y), Term::app(s, vec![Term::var(x)])),
            Literal::Neq(Term::var(x), Term::leaf(z)),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Sat);
    }

    #[test]
    fn congruence_closes_over_parents() {
        // x = y ∧ S(x) ≠ S(y) is unsat by congruence.
        let (sig, _, _, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(Term::var(x), Term::var(y)),
            Literal::Neq(
                Term::app(s, vec![Term::var(x)]),
                Term::app(s, vec![Term::var(y)]),
            ),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn tree_sort_works_too() {
        let (sig, tree, leaf, node) = tree_signature();
        let mut vars = VarContext::new();
        let t = vars.fresh("t", tree);
        // t = node(leaf, leaf) ∧ leaf?(t) is unsat.
        let cube = vec![
            Literal::Eq(
                Term::var(t),
                Term::app(node, vec![Term::leaf(leaf), Term::leaf(leaf)]),
            ),
            Literal::Tester {
                ctor: leaf,
                term: Term::var(t),
                positive: true,
            },
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    /// `is-S(x) ∧ x = Z` and `¬is-Z(x) ∧ x = Z`: a labelled class that
    /// adopts a constructor witness must check the labels against it,
    /// whichever literal comes first.
    #[test]
    fn labels_are_checked_against_an_adopted_witness() {
        let (sig, _, z, s) = nat_signature();
        let (vars, x, _) = nat_ctx(&sig);
        let is = |ctor, positive| Literal::Tester {
            ctor,
            term: Term::var(x),
            positive,
        };
        let x_is_z = Literal::Eq(Term::var(x), Term::leaf(z));
        for label in [is(s, true), is(z, false)] {
            let cube = vec![label.clone(), x_is_z.clone()];
            assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat, "{cube:?}");
            let cube = vec![x_is_z.clone(), label];
            assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat, "{cube:?}");
        }
    }

    /// A template cube of `tip/hard-8`:
    /// `#1 = #2 ∧ cons?(#1) ∧ #2 = #3 ∧ #2 = nil ∧ cons(#0, #1) ≠ #3`,
    /// where `#1` is both a `cons` and `nil`.
    #[test]
    fn tester_label_meets_a_merged_in_constant() {
        let (sig, nat, list, _, _, nil, cons) = nat_list_signature();
        let mut vars = VarContext::new();
        let p0 = vars.fresh("#0", nat);
        let [p1, p2, p3] = ["#1", "#2", "#3"].map(|n| Term::var(vars.fresh(n, list)));
        let cube = vec![
            Literal::Eq(p1.clone(), p2.clone()),
            Literal::Tester {
                ctor: cons,
                term: p1.clone(),
                positive: true,
            },
            Literal::Eq(p2.clone(), p3.clone()),
            Literal::Eq(p2, Term::leaf(nil)),
            Literal::Neq(Term::app(cons, vec![Term::var(p0), p1]), p3),
        ];
        assert_eq!(check_cube(&sig, &vars, &cube), CubeSat::Unsat);
    }

    const DEEP: usize = 512;

    fn s_pow(s: FuncId, base: Term, d: usize) -> Term {
        (0..d).fold(base, |t, _| Term::app(s, vec![t]))
    }

    /// Decides `cube` over chains of depth [`DEEP`] and asserts that the
    /// fastest of three runs stays under `bound_ms`. Each bound allows a
    /// debug build on a shared host over five times the time it needs;
    /// the closure that compared all node pairs and cloned every
    /// subterm missed each bound by more than ten times.
    fn decides_within(bound_ms: u64, sig: &Signature, vars: &VarContext, cube: &Cube) -> CubeSat {
        let runs = (0..3).map(|_| {
            let start = std::time::Instant::now();
            let verdict = check_cube(sig, vars, cube);
            (start.elapsed(), verdict)
        });
        let (took, verdict) = runs.min_by_key(|&(t, _)| t).expect("three runs");
        assert!(
            took < std::time::Duration::from_millis(bound_ms),
            "took {took:?} on {cube:?}"
        );
        verdict
    }

    #[test]
    fn deep_injectivity_is_fast() {
        // S^d(x) = S^d(y) ∧ x ≠ y.
        let (sig, _, _, s) = nat_signature();
        let (vars, x, y) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(s_pow(s, Term::var(x), DEEP), s_pow(s, Term::var(y), DEEP)),
            Literal::Neq(Term::var(x), Term::var(y)),
        ];
        // 3.7 ms against the old closure's 118 s.
        assert_eq!(decides_within(250, &sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn deep_tester_clash_is_fast() {
        // x = S^d(Z) ∧ is-Z(x).
        let (sig, _, z, s) = nat_signature();
        let (vars, x, _) = nat_ctx(&sig);
        let cube = vec![
            Literal::Eq(Term::var(x), s_pow(s, Term::leaf(z), DEEP)),
            Literal::Tester {
                ctor: z,
                term: Term::var(x),
                positive: true,
            },
        ];
        // 1.5 ms against the old closure's 137 ms.
        assert_eq!(decides_within(12, &sig, &vars, &cube), CubeSat::Unsat);
    }

    #[test]
    fn deep_distinct_numerals_are_fast() {
        // S^d(Z) ≠ S^(d+1)(Z).
        let (sig, _, z, s) = nat_signature();
        let (vars, _, _) = nat_ctx(&sig);
        let cube = vec![Literal::Neq(
            s_pow(s, Term::leaf(z), DEEP),
            s_pow(s, Term::leaf(z), DEEP + 1),
        )];
        // 2.3 ms against the old closure's 27 s.
        assert_eq!(decides_within(250, &sig, &vars, &cube), CubeSat::Sat);
    }
}
