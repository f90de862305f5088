//! The `SizeElem` invariant solver (the paper's Eldarica role).
//!
//! Eldarica's Princess-based size reasoning is replaced by a
//! deterministic template search over [`SizeElemFormula`]s, with clause
//! validity decided by a *pair* of sound procedures: the Oppen-style ADT
//! check of `ringen-elem` on the elementary projection, and the
//! Fourier–Motzkin + congruence procedure of [`crate::lia`] on the size
//! projection (with the Restriction-2 couplings `t = u ⇒ |t| = |u|` and
//! the sort size-image domains `|x| ∈ S_σ`). A violation cube is
//! contradictory if *either* projection is — the reduction of Hojjat &
//! Rümmer in miniature.
//!
//! Observable envelope, as measured in §8: solves size-orderings
//! (`LtGt`) and parities (`Even`) that `Elem` cannot express, and
//! diverges on `EvenLeft` (Prop. 2: no `SizeElem` invariant exists).

use std::collections::BTreeMap;

use ringen_chc::{ChcSystem, Clause, Constraint, PredId};
use ringen_core::portfolio::{refute, EngineVerdict};
use ringen_core::saturation::{Refutation, SaturationConfig};
use ringen_core::Guard;
use ringen_elem::search::for_each_composition;
use ringen_elem::{check_cube as check_elem_cube, CubeSat, Literal, TemplateConfig};
use ringen_terms::{GroundTerm, Signature, SizeSet, SortId, Term, VarContext, VarId};

use crate::formula::{SizeElemFormula, SizeLit};
use crate::lia::{check_lia, LiaConfig, LiaProblem, LiaSat, LinAtom, LinOp, ModAtom};
use crate::linear::PeriodicSet;

/// Budgets for the search.
#[derive(Debug, Clone)]
pub struct SizeElemConfig {
    /// Elementary template pool configuration.
    pub elem_templates: TemplateConfig,
    /// Refuter budgets.
    pub saturation: SaturationConfig,
    /// Maximum candidate assignments to check.
    pub max_assignments: u64,
    /// DNF distribution cap.
    pub dnf_cap: usize,
    /// Size-procedure budgets.
    pub lia: LiaConfig,
    /// Include `mod 3` congruence templates as well as parities.
    pub mod3_templates: bool,
    /// Include elementary atoms in the template pool. The VeriMAP-style
    /// ADT-eliminating mode (`ringen-verimap`) turns this off: after the
    /// fold/unfold transformation to LIA no ADT structure remains.
    pub elem_atoms: bool,
    /// Use the elementary (Oppen) projection when judging violation
    /// cubes. Off in the ADT-eliminating mode, where only the size
    /// abstraction of the clause survives.
    pub elem_projection: bool,
    /// Hard cap on the candidate list length per predicate.
    pub max_candidates: usize,
}

impl Default for SizeElemConfig {
    fn default() -> Self {
        SizeElemConfig {
            elem_templates: TemplateConfig {
                ground_terms_per_sort: 2,
                cubes2: false,
                disjunctions2: false,
                max_candidates: 200,
            },
            saturation: SaturationConfig::default(),
            max_assignments: 200_000,
            dnf_cap: 64,
            lia: LiaConfig::default(),
            mod3_templates: false,
            elem_atoms: true,
            elem_projection: true,
            max_candidates: 400,
        }
    }
}

impl SizeElemConfig {
    /// Small-budget configuration for batch benchmarking.
    pub fn quick() -> Self {
        SizeElemConfig {
            saturation: SaturationConfig {
                max_facts: 4_000,
                max_rounds: 32,
                max_term_height: 16,
                free_var_candidates: 6,
                max_steps: 400_000,
                ..SaturationConfig::default()
            },
            max_assignments: 30_000,
            ..SizeElemConfig::default()
        }
    }
}

/// A `SizeElem` invariant: one formula per predicate.
#[derive(Debug, Clone)]
pub struct SizeElemInvariant {
    /// Formula per predicate, over parameters `#0 …`.
    pub formulas: BTreeMap<PredId, SizeElemFormula>,
}

impl SizeElemInvariant {
    /// Evaluates the invariant on a ground tuple.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no formula.
    pub fn holds(&self, p: PredId, args: &[GroundTerm]) -> bool {
        self.formulas[&p].eval_tuple(args)
    }
}

/// The solver's verdict.
#[derive(Debug, Clone)]
pub enum SizeElemAnswer {
    /// Safe, with a `SizeElem` invariant.
    Sat(SizeElemInvariant),
    /// Unsafe, with a ground refutation.
    Unsat(Refutation),
    /// Budgets exhausted.
    Unknown,
    /// The search was cancelled by its [`Guard`]; [`SizeElemStats`]
    /// still reflects the work completed.
    Interrupted,
}

impl SizeElemAnswer {
    /// `true` for [`SizeElemAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SizeElemAnswer::Sat(_))
    }

    /// `true` for [`SizeElemAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SizeElemAnswer::Unsat(_))
    }

    /// `true` for [`SizeElemAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, SizeElemAnswer::Unknown)
    }

    /// `true` for [`SizeElemAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, SizeElemAnswer::Interrupted)
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeElemStats {
    /// Candidate assignments checked.
    pub assignments: u64,
    /// Cube satisfiability queries.
    pub cube_queries: u64,
}

/// Runs the solver under cooperative cancellation: the guard is
/// threaded into the refuter and the size-domain probe, and polled
/// before every candidate assignment of the template sweep. A trip
/// yields [`SizeElemAnswer::Interrupted`] with the statistics
/// accumulated so far.
///
/// # Panics
///
/// Panics if `sys` is not well-sorted.
pub fn solve_size_elem_guarded(
    sys: &ChcSystem,
    cfg: &SizeElemConfig,
    guard: &Guard,
) -> (SizeElemAnswer, SizeElemStats) {
    if let Err(e) = sys.well_sorted() {
        panic!("input system is not well-sorted: {e}");
    }
    let mut stats = SizeElemStats::default();
    let rec = guard.recorder().clone();

    // Refute first (its `saturate` span notes the outcome).
    match refute(sys, &cfg.saturation, guard) {
        (_, Some(r), _) => return (SizeElemAnswer::Unsat(r), stats),
        (EngineVerdict::Interrupted, ..) => return (SizeElemAnswer::Interrupted, stats),
        _ => {}
    }

    let answer = {
        let mut span = rec.span("sizeelem.sweep");
        let answer = size_elem_sweep(sys, cfg, guard, &mut stats);
        span.note("assignments", stats.assignments as i64);
        span.note("cube_queries", stats.cube_queries as i64);
        span.note_str(
            "outcome",
            match &answer {
                SizeElemAnswer::Sat(_) => "sat",
                SizeElemAnswer::Unsat(_) => "unsat",
                SizeElemAnswer::Unknown => "unknown",
                SizeElemAnswer::Interrupted => "interrupted",
            },
        );
        answer
    };
    (answer, stats)
}

/// The template sweep (phase 2 of [`solve_size_elem_guarded`]).
fn size_elem_sweep(
    sys: &ChcSystem,
    cfg: &SizeElemConfig,
    guard: &Guard,
    stats: &mut SizeElemStats,
) -> SizeElemAnswer {
    // A ∀∃ query (the §5 STLC shape) rejects every candidate outright;
    // report divergence immediately instead of sweeping the template
    // space (observationally identical, much cheaper).
    if sys.clauses.iter().any(|c| !c.exist_vars.is_empty()) {
        return SizeElemAnswer::Unknown;
    }
    // A predicate-free system is a set of ground constraint clauses:
    // the sweep's one (empty) assignment decides them exactly.
    let preds: Vec<PredId> = sys.rels.iter().collect();
    let pools: Vec<Vec<SizeElemFormula>> = preds
        .iter()
        .map(|&p| candidates(&sys.sig, &sys.rels.decl(p).domain, cfg))
        .collect();
    let Some(domains) = DomainCache::new(&sys.sig, guard) else {
        return SizeElemAnswer::Interrupted;
    };

    enum Stop {
        Budget,
        Interrupted,
    }
    let caps: Vec<usize> = pools.iter().map(|p| p.len() - 1).collect();
    let max_total: usize = caps.iter().sum();
    let mut idx = vec![0usize; preds.len()];
    for total in 0..=max_total {
        let stop = for_each_composition(&caps, total, &mut idx, 0, &mut |idx| {
            // One candidate check costs far more than a poll.
            if guard.is_cancelled() {
                return Some(Err(Stop::Interrupted));
            }
            stats.assignments += 1;
            if stats.assignments > cfg.max_assignments {
                return Some(Err(Stop::Budget));
            }
            let assignment: BTreeMap<PredId, &SizeElemFormula> = preds
                .iter()
                .zip(pools.iter().zip(idx))
                .map(|(&p, (pool, &i))| (p, &pool[i]))
                .collect();
            if is_inductive(sys, &assignment, cfg, &domains, stats) {
                let formulas = assignment.iter().map(|(&p, &f)| (p, f.clone())).collect();
                return Some(Ok(SizeElemInvariant { formulas }));
            }
            None
        });
        match stop {
            Some(Ok(inv)) => return SizeElemAnswer::Sat(inv),
            Some(Err(Stop::Budget)) => return SizeElemAnswer::Unknown,
            Some(Err(Stop::Interrupted)) => return SizeElemAnswer::Interrupted,
            None => {}
        }
    }
    SizeElemAnswer::Unknown
}

/// Per-sort size-image domains, probed once.
struct DomainCache {
    per_sort: BTreeMap<SortId, PeriodicSet>,
}

impl DomainCache {
    /// One size-counting pass for all sorts, polling `guard` once per
    /// term size; `None` if it trips.
    fn new(sig: &Signature, guard: &Guard) -> Option<Self> {
        let sets = SizeSet::of_all_sorts(sig, || guard.is_cancelled())?;
        let per_sort = sig
            .sorts()
            .filter(|&s| sig.sort_is_inhabited(s))
            .map(|s| (s, PeriodicSet::from_size_set(&sets[s.index()])))
            .collect();
        Some(DomainCache { per_sort })
    }
}

/// The size-literal pool for a predicate.
fn size_atoms(domain: &[SortId], cfg: &SizeElemConfig) -> Vec<SizeLit> {
    let mut out = Vec::new();
    let size_of = |i: usize| (1i64, Term::var(VarId(i as u32)));
    for i in 0..domain.len() {
        // Parities (and optionally mod-3 residues).
        for r in 0..2 {
            out.push(SizeLit::Mod {
                terms: vec![size_of(i)],
                m: 2,
                r,
            });
        }
        if cfg.mod3_templates {
            for r in 0..3 {
                out.push(SizeLit::Mod {
                    terms: vec![size_of(i)],
                    m: 3,
                    r,
                });
            }
        }
        // Small constants.
        out.push(SizeLit::Lin {
            terms: vec![size_of(i)],
            op: LinOp::Eq,
            k: 1,
        });
        out.push(SizeLit::Lin {
            terms: vec![size_of(i)],
            op: LinOp::Le,
            k: 2,
        });
    }
    for i in 0..domain.len() {
        for j in (i + 1)..domain.len() {
            let diff = |a: usize, b: usize| vec![size_of(a), (-1, Term::var(VarId(b as u32)))];
            // Orderings and exact offsets.
            out.push(SizeLit::Lin {
                terms: diff(i, j),
                op: LinOp::Le,
                k: -1,
            });
            out.push(SizeLit::Lin {
                terms: diff(j, i),
                op: LinOp::Le,
                k: -1,
            });
            out.push(SizeLit::Lin {
                terms: diff(i, j),
                op: LinOp::Eq,
                k: 0,
            });
            out.push(SizeLit::Lin {
                terms: diff(i, j),
                op: LinOp::Eq,
                k: 1,
            });
            out.push(SizeLit::Lin {
                terms: diff(j, i),
                op: LinOp::Eq,
                k: 1,
            });
            // Parity of the sum (list-length parity propagates this way).
            out.push(SizeLit::Mod {
                terms: vec![size_of(i), size_of(j)],
                m: 2,
                r: 0,
            });
            out.push(SizeLit::Mod {
                terms: vec![size_of(i), size_of(j)],
                m: 2,
                r: 1,
            });
        }
    }
    out
}

/// Candidate formulas: `⊤`, every single literal (size atoms first),
/// then two-literal cubes and two-literal disjunctions.
fn candidates(sig: &Signature, domain: &[SortId], cfg: &SizeElemConfig) -> Vec<SizeElemFormula> {
    let mut atoms: Vec<SizeLit> = size_atoms(domain, cfg);
    if cfg.elem_atoms {
        atoms.extend(
            ringen_elem::atoms(sig, domain, &cfg.elem_templates)
                .into_iter()
                .map(SizeLit::Elem),
        );
    }
    let mut out = vec![SizeElemFormula::top()];
    for a in &atoms {
        out.push(SizeElemFormula::lit(a.clone()));
        if out.len() >= cfg.max_candidates {
            return out;
        }
    }
    for (i, a) in atoms.iter().enumerate() {
        for b in atoms.iter().skip(i + 1) {
            out.push(SizeElemFormula::cube(vec![a.clone(), b.clone()]));
            if out.len() >= cfg.max_candidates {
                return out;
            }
        }
    }
    for (i, a) in atoms.iter().enumerate() {
        for b in atoms.iter().skip(i + 1) {
            out.push(SizeElemFormula {
                cubes: vec![vec![a.clone()], vec![b.clone()]],
            });
            if out.len() >= cfg.max_candidates {
                return out;
            }
        }
    }
    out
}

fn is_inductive(
    sys: &ChcSystem,
    assignment: &BTreeMap<PredId, &SizeElemFormula>,
    cfg: &SizeElemConfig,
    domains: &DomainCache,
    stats: &mut SizeElemStats,
) -> bool {
    sys.clauses
        .iter()
        .all(|c| clause_valid(sys, c, assignment, cfg, domains, stats))
}

fn clause_valid(
    sys: &ChcSystem,
    clause: &Clause,
    assignment: &BTreeMap<PredId, &SizeElemFormula>,
    cfg: &SizeElemConfig,
    domains: &DomainCache,
    stats: &mut SizeElemStats,
) -> bool {
    // Universal-only checker; ∀∃ clauses reject every candidate.
    if !clause.exist_vars.is_empty() {
        return false;
    }
    let mut base_cube: Vec<SizeLit> = Vec::new();
    for k in &clause.constraints {
        base_cube.push(SizeLit::Elem(match k {
            Constraint::Eq(a, b) => Literal::Eq(a.clone(), b.clone()),
            Constraint::Neq(a, b) => Literal::Neq(a.clone(), b.clone()),
            Constraint::Tester {
                ctor,
                term,
                positive,
            } => Literal::Tester {
                ctor: *ctor,
                term: term.clone(),
                positive: *positive,
            },
        }));
    }
    let mut violation = SizeElemFormula::cube(base_cube);
    for atom in &clause.body {
        let inst = assignment[&atom.pred].instantiate(&atom.args);
        match violation.and(&inst, cfg.dnf_cap) {
            Some(v) => violation = v,
            None => return false,
        }
    }
    if let Some(head) = &clause.head {
        let inst = assignment[&head.pred].instantiate(&head.args);
        let Some(neg) = inst.negated(cfg.dnf_cap) else {
            return false;
        };
        match violation.and(&neg, cfg.dnf_cap) {
            Some(v) => violation = v,
            None => return false,
        }
    }
    violation.cubes.iter().all(|cube| {
        stats.cube_queries += 1;
        cube_unsat(sys, &clause.vars, cube, cfg, domains)
    })
}

/// A violation cube is contradictory if either its elementary projection
/// or its size projection is.
fn cube_unsat(
    sys: &ChcSystem,
    vars: &VarContext,
    cube: &[SizeLit],
    cfg: &SizeElemConfig,
    domains: &DomainCache,
) -> bool {
    // Elementary projection.
    if cfg.elem_projection {
        let elem_cube: Vec<Literal> = cube
            .iter()
            .filter_map(|l| match l {
                SizeLit::Elem(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        if check_elem_cube(&sys.sig, vars, &elem_cube) == CubeSat::Unsat {
            return true;
        }
    }
    // Size projection.
    match size_projection(sys, vars, cube, domains) {
        Projection::TriviallyUnsat => true,
        Projection::Problem(problem) => check_lia(&problem, &cfg.lia) == LiaSat::Unsat,
    }
}

enum Projection {
    TriviallyUnsat,
    Problem(LiaProblem),
}

/// Builds the size-constraint system of a cube: the size literals, the
/// `|t| = |u|` couplings of elementary equalities, tester implications,
/// and the per-variable domains `|x| ∈ S_σ`.
fn size_projection(
    sys: &ChcSystem,
    vars: &VarContext,
    cube: &[SizeLit],
    domains: &DomainCache,
) -> Projection {
    let mut index: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut problem = LiaProblem::default();
    let mk = |v: VarId, index: &mut BTreeMap<VarId, usize>, problem: &mut LiaProblem| {
        *index.entry(v).or_insert_with(|| {
            let i = problem.n_vars;
            problem.n_vars += 1;
            i
        })
    };

    // Polynomial of a term: constant + per-variable multiplicities.
    fn poly(t: &Term, coeff: i64, k: &mut i64, acc: &mut Vec<(i64, VarId)>) {
        match t {
            Term::Var(v) => acc.push((coeff, *v)),
            Term::App(_, args) => {
                *k += coeff;
                for a in args {
                    poly(a, coeff, k, acc);
                }
            }
        }
    }
    let convert = |terms: &[(i64, Term)],
                   index: &mut BTreeMap<VarId, usize>,
                   problem: &mut LiaProblem|
     -> (Vec<(i64, usize)>, i64) {
        let mut base = 0i64;
        let mut acc: Vec<(i64, VarId)> = Vec::new();
        for (c, t) in terms {
            poly(t, *c, &mut base, &mut acc);
        }
        let lin = acc
            .into_iter()
            .map(|(c, v)| (c, mk(v, index, problem)))
            .collect();
        (lin, base)
    };

    for lit in cube {
        match lit {
            SizeLit::Lin { terms, op, k } => {
                let (lin, base) = convert(terms, &mut index, &mut problem);
                let k = k - base;
                if lin.is_empty() {
                    let holds = match op {
                        LinOp::Le => 0 <= k,
                        LinOp::Eq => 0 == k,
                    };
                    if !holds {
                        return Projection::TriviallyUnsat;
                    }
                } else {
                    problem.lin.push(LinAtom {
                        terms: lin,
                        op: *op,
                        k,
                    });
                }
            }
            SizeLit::Mod { terms, m, r } => {
                let (lin, base) = convert(terms, &mut index, &mut problem);
                let r2 = (*r as i128 - base as i128).rem_euclid(*m as i128) as u64;
                if lin.is_empty() {
                    if r2 != 0 {
                        return Projection::TriviallyUnsat;
                    }
                } else {
                    problem.mods.push(ModAtom {
                        terms: lin,
                        m: *m,
                        r: r2,
                    });
                }
            }
            SizeLit::Elem(Literal::Eq(a, b)) => {
                // Restriction 2: t = u implies |t| = |u|.
                let (lin, base) =
                    convert(&[(1, a.clone()), (-1, b.clone())], &mut index, &mut problem);
                if lin.is_empty() {
                    if base != 0 {
                        return Projection::TriviallyUnsat;
                    }
                } else {
                    problem.lin.push(LinAtom::eq(lin, -base));
                }
            }
            SizeLit::Elem(Literal::Tester {
                ctor,
                term,
                positive: true,
            }) => {
                let decl = sys.sig.func(*ctor);
                let (lin, base) = convert(&[(1, term.clone())], &mut index, &mut problem);
                if decl.arity() == 0 {
                    // |t| = 1 exactly.
                    if lin.is_empty() {
                        if base != 1 {
                            return Projection::TriviallyUnsat;
                        }
                    } else {
                        problem.lin.push(LinAtom::eq(lin, 1 - base));
                    }
                } else {
                    // |t| ≥ 1 + arity (every argument has size ≥ 1).
                    let bound = 1 + decl.arity() as i64;
                    if lin.is_empty() {
                        if base < bound {
                            return Projection::TriviallyUnsat;
                        }
                    } else {
                        let neg: Vec<(i64, usize)> = lin.iter().map(|&(c, v)| (-c, v)).collect();
                        problem.lin.push(LinAtom::le(neg, base - bound));
                    }
                }
            }
            SizeLit::Elem(_) => {}
        }
    }

    // Domains: collect *after* all literals so every used variable has an
    // index; also cover variables of the clause context mentioned in
    // elementary literals (their sizes are still constrained to S_σ).
    let used: Vec<VarId> = index.keys().copied().collect();
    for v in used {
        let Some(sort) = vars.sort(v) else { continue };
        let Some(ps) = domains.per_sort.get(&sort) else {
            continue;
        };
        let i = index[&v];
        let min = ps
            .prefix
            .first()
            .copied()
            .or_else(|| ps.infinite_linear_subset().map(|l| l.base));
        if let Some(min) = min {
            problem.lin.push(LinAtom::le(vec![(-1, i)], -(min as i64)));
        }
        if ps.prefix.is_empty() && ps.period >= 2 && ps.residues.len() == 1 {
            problem.mods.push(ModAtom {
                terms: vec![(1, i)],
                m: ps.period,
                r: ps.residues[0] % ps.period,
            });
        }
    }
    Projection::Problem(problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::parse_str;

    fn quick() -> SizeElemConfig {
        SizeElemConfig::quick()
    }

    fn n(sys: &ChcSystem, k: usize) -> GroundTerm {
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        GroundTerm::iterate(s, GroundTerm::leaf(z), k)
    }

    #[test]
    fn even_has_the_parity_invariant() {
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
        let (answer, _) = solve_size_elem_guarded(&sys, &quick(), &Guard::new());
        let inv = match answer {
            SizeElemAnswer::Sat(inv) => inv,
            other => panic!("expected SAT (Prop. 8), got {other:?}"),
        };
        let even = sys.rels.by_name("even").unwrap();
        assert!(inv.holds(even, &[n(&sys, 6)]));
        assert!(!inv.holds(even, &[n(&sys, 5)]));
    }

    #[test]
    fn ltgt_has_the_size_ordering_invariant() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun lt (Nat Nat) Bool)
            (declare-fun gt (Nat Nat) Bool)
            (assert (forall ((y Nat)) (lt Z (S y))))
            (assert (forall ((x Nat) (y Nat)) (=> (lt x y) (lt (S x) (S y)))))
            (assert (forall ((x Nat)) (gt (S x) Z)))
            (assert (forall ((x Nat) (y Nat)) (=> (gt x y) (gt (S x) (S y)))))
            (assert (forall ((x Nat) (y Nat)) (=> (and (lt x y) (gt x y)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_size_elem_guarded(&sys, &quick(), &Guard::new());
        let inv = match answer {
            SizeElemAnswer::Sat(inv) => inv,
            other => panic!("expected SAT (Prop. 12), got {other:?}"),
        };
        let lt = sys.rels.by_name("lt").unwrap();
        assert!(inv.holds(lt, &[n(&sys, 1), n(&sys, 4)]));
        assert!(!inv.holds(lt, &[n(&sys, 4), n(&sys, 1)]));
    }

    #[test]
    fn evenleft_diverges() {
        // Prop. 2: EvenLeft ∉ SizeElem.
        let sys = parse_str(
            r#"
            (declare-datatypes ((Tree 0)) (((leaf) (node (left Tree) (right Tree)))))
            (declare-fun evenleft (Tree) Bool)
            (assert (evenleft leaf))
            (assert (forall ((x Tree) (y Tree) (z Tree))
              (=> (evenleft x) (evenleft (node (node x y) z)))))
            (assert (forall ((x Tree) (y Tree))
              (=> (and (evenleft x) (evenleft (node x y))) false)))
            "#,
        )
        .unwrap();
        let mut cfg = quick();
        cfg.max_assignments = 2_000;
        let (answer, _) = solve_size_elem_guarded(&sys, &cfg, &Guard::new());
        assert!(answer.is_unknown(), "EvenLeft ∉ SizeElem, got {answer:?}");
    }

    #[test]
    fn unsat_system_is_refuted() {
        let sys = parse_str(
            r#"
            (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
            (declare-fun p (Nat) Bool)
            (assert (p (S Z)))
            (assert (forall ((x Nat)) (=> (p (S x)) false)))
            "#,
        )
        .unwrap();
        let (answer, _) = solve_size_elem_guarded(&sys, &quick(), &Guard::new());
        assert!(answer.is_unsat());
    }

    /// Example 3's `Z ≠ S(Z) → ⊥` has no predicate. Without a refuter in
    /// front, the sweep's one empty assignment must decide it.
    #[test]
    fn predicate_free_systems_are_decided_not_assumed() {
        let cfg = SizeElemConfig {
            saturation: SaturationConfig::zero_rounds(),
            ..quick()
        };
        let nat = "(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))";
        let unsat = parse_str(&format!("{nat} (assert (=> (distinct Z (S Z)) false))")).unwrap();
        let (answer, _) = solve_size_elem_guarded(&unsat, &cfg, &Guard::new());
        assert!(answer.is_unknown(), "got {answer:?}");
        let sat = parse_str(&format!("{nat} (assert (=> (= Z (S Z)) false))")).unwrap();
        let (answer, _) = solve_size_elem_guarded(&sat, &cfg, &Guard::new());
        assert!(answer.is_sat(), "got {answer:?}");
    }

    #[test]
    fn cancelled_guard_interrupts_before_any_assignment() {
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
        let g = Guard::new();
        g.cancel();
        let (answer, stats) = solve_size_elem_guarded(&sys, &quick(), &g);
        assert!(answer.is_interrupted(), "got {answer:?}");
        assert_eq!(stats.assignments, 0);
    }
}
