//! The MACE-style model search: ground to SAT per domain-size vector.
//!
//! The ground-instance sweep — enumerating every variable assignment of
//! every flattened clause and emitting the corresponding SAT clause —
//! is pure per clause (a function of the frozen variable tables and the
//! size vector), so it is sharded across a [`ringen_parallel::Pool`]
//! with the same snapshot/delta/merge shape as the saturation engine:
//! workers *generate* literal lists, the caller *adds* them to the
//! solver sequentially in clause order. The outcome is bit-for-bit
//! identical at any `RINGEN_THREADS` value. The workers are spawned
//! once per [`find_model_guarded`] call and parked between size vectors
//! ([`Pool::persistent`]), not re-spawned per sweep.
//!
//! # Incremental sweeps
//!
//! The whole sweep shares **one live SAT solver**
//! ([`FinderConfig::incremental`]; the one-shot solver-per-vector sweep
//! stays only as the differential reference the `incremental_prop`
//! tests and the `fmf_incremental` bench select). Cell variables are
//! allocated once for the *maximum* domain sizes any attempted vector
//! reaches; each size vector is selected by per-(sort, element)
//! "element exists" literals passed to
//! [`ringen_sat::Solver::solve_assuming_guarded`]; every
//! ground instance is guarded by the negated existence literals of the
//! elements it mentions, so instances outside the current vector are
//! vacuous. Only the *delta* of never-before-grounded assignments is
//! pushed per vector, and learnt clauses from size *n* prune size
//! *n + 1* instead of being thrown away.
//!
//! On SAT, the extracted model is optionally shrunk to a ⊆-minimal
//! predicate extension ([`FinderConfig::minimize`],
//! `RINGEN_FMF_MINIMIZE=0` disables): a dual-query loop pins the false
//! atoms with assumptions, demands that at least one true atom be
//! dropped via an activation literal, and stops when the solver's
//! failed-assumption analysis proves no smaller extension exists.
//! Smaller models mean smaller read-off invariant automata and smaller
//! certificates downstream.

use ringen_chc::ChcSystem;
use ringen_parallel::{Guard, ParallelConfig, Poller, Pool};
use ringen_sat::{Lit, SatResult, Solver, Var};
use ringen_terms::FuncKind;

use crate::flatten::{flatten_system, FlatClause, FlattenError};
use crate::model::FiniteModel;

/// Tuning knobs for [`find_model_guarded`].
#[derive(Debug, Clone)]
pub struct FinderConfig {
    /// Maximum total domain size (sum over sorts) to try.
    pub max_total_size: usize,
    /// SAT conflict budget per size vector.
    pub max_conflicts: u64,
    /// Skip a size vector if it would ground to more instances than this.
    pub max_ground_instances: u64,
    /// Enable constant-ordering symmetry breaking.
    pub symmetry_breaking: bool,
    /// Keep one live solver across the sweep: max-size tables up front,
    /// "element exists" selector assumptions per vector, delta-only
    /// grounding, learnt clauses retained. Defaults to `true`; `false`
    /// selects the one-shot solver-per-vector sweep, kept as the
    /// differential reference for tests and benches. Verdicts are
    /// identical either way.
    pub incremental: bool,
    /// Shrink each found model to a ⊆-minimal predicate extension with
    /// the dual-query assumption loop. The default honors
    /// `RINGEN_FMF_MINIMIZE` (`0` keeps the solver's first model).
    pub minimize: bool,
    /// Worker threads for the ground-instance sweep. The default honors
    /// `RINGEN_THREADS` (1 forces the inline path); results are
    /// identical at any value.
    pub parallel: ParallelConfig,
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map_or(true, |v| v.trim() != "0")
}

impl Default for FinderConfig {
    fn default() -> Self {
        FinderConfig {
            max_total_size: 10,
            max_conflicts: 100_000,
            max_ground_instances: 4_000_000,
            symmetry_breaking: true,
            incremental: true,
            minimize: env_flag("RINGEN_FMF_MINIMIZE"),
            parallel: ParallelConfig::default(),
        }
    }
}

/// Statistics from a [`find_model_guarded`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinderStats {
    /// Size vectors attempted.
    pub vectors_tried: usize,
    /// Total SAT conflicts over all attempts.
    pub conflicts: u64,
    /// Total SAT decisions over all attempts.
    pub decisions: u64,
    /// Total SAT unit propagations over all attempts.
    pub propagations: u64,
    /// Total SAT restarts over all attempts.
    pub restarts: u64,
    /// Size vectors skipped because grounding would be too large.
    pub skipped_too_large: usize,
    /// Size vectors abandoned on conflict budget.
    pub budget_exhausted: usize,
    /// Size vectors answered by a reused (incremental) solver.
    pub solver_reuses: usize,
    /// Ground instances pushed into the solver. In incremental mode
    /// this counts only the per-vector deltas; in one-shot mode, every
    /// instance of every attempted vector.
    pub delta_clauses: u64,
    /// Predicate atoms dropped by minimal-model shrinking.
    pub minimized_atoms: u64,
}

/// Outcome of the search.
#[derive(Debug, Clone)]
pub enum FmfOutcome {
    /// A finite model was found.
    Model(FiniteModel),
    /// No model exists within the configured bounds (the system may still
    /// have larger or infinite models — finite model existence is only
    /// semidecidable, §9).
    Exhausted,
    /// The search was cancelled by its [`Guard`] before the bounds were
    /// exhausted. `FinderStats` still reflects the work completed.
    Interrupted,
}

impl FmfOutcome {
    /// The model, if one was found.
    pub fn model(self) -> Option<FiniteModel> {
        match self {
            FmfOutcome::Model(m) => Some(m),
            FmfOutcome::Exhausted | FmfOutcome::Interrupted => None,
        }
    }
}

/// Searches for a finite model of an equality-only CHC system over EUF,
/// iterating domain-size vectors in order of total size (§4.1–4.2).
///
/// The guard is polled between size vectors, between grounding waves,
/// and inside the SAT search; on the incremental sweep, also while the
/// tables are encoded, inside each clause's grounding odometer, and
/// while the grounded instances are added. A trip yields
/// [`FmfOutcome::Interrupted`] with the statistics accumulated so far;
/// no partial state escapes.
///
/// # Errors
///
/// Returns [`FlattenError`] if the system still contains disequalities or
/// testers (run the §4.4/§4.5 preprocessing first).
pub fn find_model_guarded(
    sys: &ChcSystem,
    config: &FinderConfig,
    guard: &Guard,
) -> Result<(FmfOutcome, FinderStats), FlattenError> {
    let flat = flatten_system(sys)?;
    let mut stats = FinderStats::default();
    let num_sorts = sys.sig.sort_count();
    if num_sorts == 0 {
        // Degenerate: no sorts means no variables; treat as exhausted.
        return Ok((FmfOutcome::Exhausted, stats));
    }
    // One worker set for the whole search: spawned here, parked
    // between size vectors (and between waves within one), joined on
    // return. `RINGEN_THREADS=1` spawns nothing.
    let pool = Pool::persistent(&config.parallel);
    let rec = guard.recorder().clone();
    let mut span = rec.span("fmf.search");
    span.note("max_total_size", config.max_total_size as i64);
    span.note("incremental", i64::from(config.incremental));
    let mut outcome = FmfOutcome::Exhausted;
    if config.incremental {
        // Per-sort caps: the largest size each sort reaches over the
        // vectors the sweep will actually attempt. The skip estimate is
        // a function of the vector alone, so this is exact — tables are
        // never allocated for sizes only skipped vectors would need.
        let mut caps = vec![0usize; num_sorts];
        for total in num_sorts..=config.max_total_size {
            for sizes in compositions(total, num_sorts) {
                if estimate_instances(&flat, &sizes) <= config.max_ground_instances {
                    for (c, s) in caps.iter_mut().zip(&sizes) {
                        *c = (*c).max(*s);
                    }
                }
            }
        }
        let mut sweep: Option<IncrementalSweep> = None;
        'inc: for total in num_sorts..=config.max_total_size {
            for sizes in compositions(total, num_sorts) {
                if guard.is_cancelled() {
                    outcome = FmfOutcome::Interrupted;
                    break 'inc;
                }
                let est = estimate_instances(&flat, &sizes);
                if est > config.max_ground_instances {
                    stats.skipped_too_large += 1;
                    continue;
                }
                if sweep.is_none() {
                    sweep = IncrementalSweep::new(sys, &caps, config, guard);
                    if sweep.is_none() {
                        outcome = FmfOutcome::Interrupted;
                        break 'inc;
                    }
                }
                let sw = sweep.as_mut().expect("the sweep was built above");
                match sw.try_vector(sys, &flat, &sizes, est, config, &pool, guard, &mut stats) {
                    SizeOutcome::Model(m) => {
                        outcome = FmfOutcome::Model(m);
                        break 'inc;
                    }
                    SizeOutcome::Interrupted => {
                        outcome = FmfOutcome::Interrupted;
                        break 'inc;
                    }
                    SizeOutcome::Unsat | SizeOutcome::Skipped | SizeOutcome::Budget => {}
                }
            }
        }
    } else {
        'search: for total in num_sorts..=config.max_total_size {
            for sizes in compositions(total, num_sorts) {
                if guard.is_cancelled() {
                    outcome = FmfOutcome::Interrupted;
                    break 'search;
                }
                match try_sizes(sys, &flat, &sizes, config, &pool, guard, &mut stats) {
                    SizeOutcome::Model(m) => {
                        outcome = FmfOutcome::Model(m);
                        break 'search;
                    }
                    SizeOutcome::Interrupted => {
                        outcome = FmfOutcome::Interrupted;
                        break 'search;
                    }
                    SizeOutcome::Unsat | SizeOutcome::Skipped | SizeOutcome::Budget => {}
                }
            }
        }
    }
    span.note("vectors_tried", stats.vectors_tried as i64);
    span.note_str(
        "outcome",
        match &outcome {
            FmfOutcome::Model(_) => "model",
            FmfOutcome::Exhausted => "exhausted",
            FmfOutcome::Interrupted => "interrupted",
        },
    );
    drop(span);
    rec.add("sat.decisions", stats.decisions as i64);
    rec.add("sat.conflicts", stats.conflicts as i64);
    rec.add("sat.propagations", stats.propagations as i64);
    rec.add("sat.restarts", stats.restarts as i64);
    Ok((outcome, stats))
}

enum SizeOutcome {
    Model(FiniteModel),
    Unsat,
    Budget,
    Skipped,
    Interrupted,
}

/// All vectors of `parts` positive integers summing to `total`.
fn compositions(total: usize, parts: usize) -> Vec<Vec<usize>> {
    fn go(total: usize, parts: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if parts == 1 {
            acc.push(total);
            out.push(acc.clone());
            acc.pop();
            return;
        }
        for first in 1..=total - (parts - 1) {
            acc.push(first);
            go(total - first, parts - 1, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    if total >= parts {
        go(total, parts, &mut Vec::new(), &mut out);
    }
    out
}

/// Number of ground instances a size vector would produce (the skip
/// estimate — identical in both sweep modes, so skip decisions agree).
fn estimate_instances(flat: &[FlatClause], sizes: &[usize]) -> u64 {
    let mut instances: u64 = 0;
    for c in flat {
        let mut rows: u64 = 1;
        for s in &c.var_sorts {
            rows = rows.saturating_mul(sizes[s.index()] as u64);
        }
        instances = instances.saturating_add(rows);
    }
    instances
}

fn try_sizes(
    sys: &ChcSystem,
    flat: &[FlatClause],
    sizes: &[usize],
    config: &FinderConfig,
    pool: &Pool,
    guard: &Guard,
    stats: &mut FinderStats,
) -> SizeOutcome {
    // Estimate the grounding size first.
    let instances = estimate_instances(flat, sizes);
    if instances > config.max_ground_instances {
        stats.skipped_too_large += 1;
        return SizeOutcome::Skipped;
    }
    stats.vectors_tried += 1;
    let mut span = guard.recorder().span("fmf.size");
    span.note("total", sizes.iter().sum::<usize>() as i64);
    span.note("instances", instances as i64);
    span.note("reused", 0);

    let sig = &sys.sig;
    let mut solver = Solver::new();

    // Function-table variables e[f][row][result].
    let func_vars: Vec<Vec<Vec<Var>>> = sig
        .funcs()
        .map(|f| {
            let d = sig.func(f);
            let rows: usize = d.domain.iter().map(|s| sizes[s.index()]).product();
            let range = sizes[d.range.index()];
            (0..rows)
                .map(|_| (0..range).map(|_| solver.new_var()).collect())
                .collect()
        })
        .collect();
    // Predicate-table variables b[p][row].
    let pred_vars: Vec<Vec<Var>> = sys
        .rels
        .iter()
        .map(|p| {
            let d = sys.rels.decl(p);
            let rows: usize = d.domain.iter().map(|s| sizes[s.index()]).product();
            (0..rows).map(|_| solver.new_var()).collect()
        })
        .collect();

    // Totality and functionality: exactly one result per cell.
    for table in &func_vars {
        for cell in table {
            let at_least: Vec<Lit> = cell.iter().map(|&v| Lit::pos(v)).collect();
            solver.add_clause(&at_least);
            for i in 0..cell.len() {
                for j in i + 1..cell.len() {
                    solver.add_clause(&[Lit::neg(cell[i]), Lit::neg(cell[j])]);
                }
            }
        }
    }

    // Symmetry breaking: the i-th constant of each sort takes a value
    // ≤ i (domains can always be permuted into this form).
    if config.symmetry_breaking {
        let mut seen_constants = vec![0usize; sizes.len()];
        for f in sig.funcs() {
            let d = sig.func(f);
            if d.arity() != 0 {
                continue;
            }
            let k = seen_constants[d.range.index()];
            seen_constants[d.range.index()] += 1;
            // NB: the range may be empty (k + 1 > size); take/skip keeps
            // that case a no-op instead of a slice panic.
            for v in func_vars[f.index()][0]
                .iter()
                .take(sizes[d.range.index()])
                .skip(k + 1)
            {
                solver.add_clause(&[Lit::neg(*v)]);
            }
        }
    }

    // Ground every flattened clause. Instance *generation* is pure per
    // clause (a function of the frozen variable tables and the size
    // vector), so it is sharded across workers in bounded batches; each
    // batch's instances are then added to the solver sequentially, in
    // clause and assignment order — the solver sees the exact prefix of
    // the sequence the inline loop produced, so outcome and statistics
    // are identical at any thread count. Batching (instead of
    // generating the whole sweep up front) bounds peak memory to one
    // batch and keeps the old streaming behavior of stopping early on
    // a root-level conflict: at most one batch is generated in vain.
    let batch = (pool.threads() * 4).max(1);
    let mut added: u64 = 0;
    for wave in flat.chunks(batch) {
        if guard.is_cancelled() {
            span.note_str("outcome", "interrupted");
            return SizeOutcome::Interrupted;
        }
        let grounded: Vec<GroundInstances> = pool
            .map_chunks(wave, |_, chunk| {
                chunk
                    .iter()
                    .map(|c| ground_clause(sys, c, sizes, &func_vars, &pred_vars))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        for g in &grounded {
            for lits in g.iter() {
                added += 1;
                if !solver.add_clause(lits) {
                    stats.delta_clauses += added;
                    stats.conflicts += solver.conflict_count();
                    stats.decisions += solver.decision_count();
                    stats.propagations += solver.propagation_count();
                    stats.restarts += solver.restart_count();
                    span.note_str("outcome", "unsat_grounding");
                    return SizeOutcome::Unsat;
                }
            }
        }
    }
    stats.delta_clauses += added;
    span.note("delta_clauses", added as i64);
    span.note("assumptions", 0);

    let result = solver.solve_guarded(config.max_conflicts, guard);
    span.note("decisions", solver.decision_count() as i64);
    span.note("conflicts", solver.conflict_count() as i64);
    let out = match result {
        SatResult::Sat => {
            let (values, dropped) = if config.minimize {
                let active: Vec<Var> = pred_vars.iter().flatten().copied().collect();
                shrink_true_preds(&mut solver, &[], &active, config.max_conflicts, guard)
            } else {
                (solver.model(), 0)
            };
            stats.minimized_atoms += dropped;
            span.note("minimized", dropped as i64);
            let model = extract_model(sys, sizes, sizes, &func_vars, &pred_vars, |v| {
                values[v.index()] == Some(true)
            });
            span.note_str("outcome", "model");
            SizeOutcome::Model(model)
        }
        SatResult::Unsat => {
            span.note_str("outcome", "unsat");
            SizeOutcome::Unsat
        }
        SatResult::Unknown => {
            // `Unknown` is either the conflict budget or a guard trip;
            // the guard's state disambiguates.
            if guard.is_cancelled() {
                span.note_str("outcome", "interrupted");
                SizeOutcome::Interrupted
            } else {
                stats.budget_exhausted += 1;
                span.note_str("outcome", "budget");
                SizeOutcome::Budget
            }
        }
    };
    stats.conflicts += solver.conflict_count();
    stats.decisions += solver.decision_count();
    stats.propagations += solver.propagation_count();
    stats.restarts += solver.restart_count();
    out
}

/// The shared-solver sweep state: max-size tables, existence selectors,
/// and the set of size boxes whose ground instances are already in the
/// solver.
struct IncrementalSweep {
    solver: Solver,
    /// Largest size each sort reaches over the attempted vectors.
    caps: Vec<usize>,
    /// `ex[s][k-1]`: "element `k` of sort `s` exists". Element 0 always
    /// exists (every vector gives every sort size ≥ 1) and has no
    /// selector.
    ex: Vec<Vec<Var>>,
    /// Function-table variables e[f][row][result] at `caps` dimensions.
    func_vars: Vec<Vec<Vec<Var>>>,
    /// Predicate-table variables b[p][row] at `caps` dimensions.
    pred_vars: Vec<Vec<Var>>,
    /// Size boxes already grounded (an antichain: dominated boxes are
    /// pruned). An assignment inside any of them is already a clause in
    /// the solver.
    covered: Vec<Vec<usize>>,
    /// Whether a vector was tried before (for the `reused` span note).
    used: bool,
    /// A root-level conflict was derived: the guarded clause set is
    /// unsatisfiable outright, so *every* remaining vector is UNSAT.
    broken: bool,
}

impl IncrementalSweep {
    /// Encodes the tables at `caps`, polling `guard` once per function
    /// cell; `None` if it trips.
    fn new(
        sys: &ChcSystem,
        caps: &[usize],
        config: &FinderConfig,
        guard: &Guard,
    ) -> Option<IncrementalSweep> {
        let sig = &sys.sig;
        let mut solver = Solver::new();
        // Existence selectors with a monotone chain: element k implies
        // element k-1, so assumptions describe a prefix per sort.
        let ex: Vec<Vec<Var>> = caps
            .iter()
            .map(|&c| (1..c).map(|_| solver.new_var()).collect())
            .collect();
        for col in &ex {
            for w in col.windows(2) {
                solver.add_clause(&[Lit::neg(w[1]), Lit::pos(w[0])]);
            }
        }
        let func_vars: Vec<Vec<Vec<Var>>> = sig
            .funcs()
            .map(|f| {
                let d = sig.func(f);
                let rows: usize = d.domain.iter().map(|s| caps[s.index()]).product();
                let range = caps[d.range.index()];
                (0..rows)
                    .map(|_| (0..range).map(|_| solver.new_var()).collect())
                    .collect()
            })
            .collect();
        let pred_vars: Vec<Vec<Var>> = sys
            .rels
            .iter()
            .map(|p| {
                let d = sys.rels.decl(p);
                let rows: usize = d.domain.iter().map(|s| caps[s.index()]).product();
                (0..rows).map(|_| solver.new_var()).collect()
            })
            .collect();
        // Exactly one result per cell, and the result must exist: cells
        // of phantom rows are unconstrained by instances (their guards
        // are true), but still pick some existing value — value 0 always
        // works, so these clauses can never make the sweep stricter than
        // the one-shot encoding at the selected sizes.
        for f in sig.funcs() {
            let range_sort = sig.func(f).range.index();
            for cell in &func_vars[f.index()] {
                if guard.is_cancelled() {
                    return None;
                }
                let at_least: Vec<Lit> = cell.iter().map(|&v| Lit::pos(v)).collect();
                solver.add_clause(&at_least);
                for i in 0..cell.len() {
                    for j in i + 1..cell.len() {
                        solver.add_clause(&[Lit::neg(cell[i]), Lit::neg(cell[j])]);
                    }
                }
                for (k, &v) in cell.iter().enumerate().skip(1) {
                    solver.add_clause(&[Lit::neg(v), Lit::pos(ex[range_sort][k - 1])]);
                }
            }
        }
        // Symmetry breaking over the full caps: values beyond the
        // current vector are already excluded by the result-exists
        // clauses, so per-vector this is exactly the one-shot constraint.
        if config.symmetry_breaking {
            let mut seen_constants = vec![0usize; caps.len()];
            for f in sig.funcs() {
                let d = sig.func(f);
                if d.arity() != 0 {
                    continue;
                }
                let k = seen_constants[d.range.index()];
                seen_constants[d.range.index()] += 1;
                for v in func_vars[f.index()][0]
                    .iter()
                    .take(caps[d.range.index()])
                    .skip(k + 1)
                {
                    solver.add_clause(&[Lit::neg(*v)]);
                }
            }
        }
        Some(IncrementalSweep {
            solver,
            caps: caps.to_vec(),
            ex,
            func_vars,
            pred_vars,
            covered: Vec::new(),
            used: false,
            broken: false,
        })
    }

    /// The selector assumptions describing `sizes`: element `k` of sort
    /// `s` exists iff `k < sizes[s]`.
    fn assumptions_for(&self, sizes: &[usize]) -> Vec<Lit> {
        let mut out = Vec::new();
        for (s, col) in self.ex.iter().enumerate() {
            for (k, &v) in col.iter().enumerate() {
                out.push(Lit::with_sign(v, k + 1 < sizes[s]));
            }
        }
        out
    }

    /// Records `sizes` as grounded, pruning boxes it dominates.
    fn cover(&mut self, sizes: &[usize]) {
        self.covered
            .retain(|b| !b.iter().zip(sizes).all(|(x, y)| x <= y));
        self.covered.push(sizes.to_vec());
    }

    #[allow(clippy::too_many_arguments)]
    fn try_vector(
        &mut self,
        sys: &ChcSystem,
        flat: &[FlatClause],
        sizes: &[usize],
        est: u64,
        config: &FinderConfig,
        pool: &Pool,
        guard: &Guard,
        stats: &mut FinderStats,
    ) -> SizeOutcome {
        stats.vectors_tried += 1;
        let reused = self.used;
        self.used = true;
        if reused {
            stats.solver_reuses += 1;
        }
        let mut span = guard.recorder().span("fmf.size");
        span.note("total", sizes.iter().sum::<usize>() as i64);
        span.note("instances", est as i64);
        span.note("reused", i64::from(reused));
        let (c0, d0, p0, r0) = (
            self.solver.conflict_count(),
            self.solver.decision_count(),
            self.solver.propagation_count(),
            self.solver.restart_count(),
        );
        let out = self.run_vector(sys, flat, sizes, config, pool, guard, stats, &mut span);
        let dc = self.solver.conflict_count() - c0;
        let dd = self.solver.decision_count() - d0;
        stats.conflicts += dc;
        stats.decisions += dd;
        stats.propagations += self.solver.propagation_count() - p0;
        stats.restarts += self.solver.restart_count() - r0;
        span.note("decisions", dd as i64);
        span.note("conflicts", dc as i64);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn run_vector(
        &mut self,
        sys: &ChcSystem,
        flat: &[FlatClause],
        sizes: &[usize],
        config: &FinderConfig,
        pool: &Pool,
        guard: &Guard,
        stats: &mut FinderStats,
        span: &mut ringen_parallel::Span,
    ) -> SizeOutcome {
        // Push the delta: assignments of this vector's box not inside
        // any previously grounded box. Same batching/determinism
        // contract as the one-shot path.
        let mut delta: u64 = 0;
        if !self.broken {
            let batch = (pool.threads() * 4).max(1);
            let (caps, covered) = (&self.caps, &self.covered);
            let (func_vars, pred_vars, ex) = (&self.func_vars, &self.pred_vars, &self.ex);
            let mut poller = Poller::new(guard);
            'waves: for wave in flat.chunks(batch) {
                if guard.is_cancelled() {
                    span.note_str("outcome", "interrupted");
                    return SizeOutcome::Interrupted;
                }
                let grounded: Option<Vec<GroundInstances>> = pool
                    .map_chunks(wave, |_, chunk| {
                        chunk
                            .iter()
                            .map(|c| {
                                ground_clause_delta(
                                    sys, c, sizes, caps, covered, func_vars, pred_vars, ex, guard,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                let Some(grounded) = grounded else {
                    span.note_str("outcome", "interrupted");
                    return SizeOutcome::Interrupted;
                };
                for g in &grounded {
                    for lits in g.iter() {
                        if poller.poll() {
                            span.note_str("outcome", "interrupted");
                            return SizeOutcome::Interrupted;
                        }
                        delta += 1;
                        if !self.solver.add_clause(lits) {
                            self.broken = true;
                            break 'waves;
                        }
                    }
                }
            }
            if !self.broken {
                self.cover(sizes);
            }
        }
        stats.delta_clauses += delta;
        span.note("delta_clauses", delta as i64);
        let assumptions = self.assumptions_for(sizes);
        span.note("assumptions", assumptions.len() as i64);
        if self.broken {
            // The clause set is unsatisfiable with the selectors still
            // free, i.e. under every size vector at once.
            span.note_str("outcome", "unsat");
            return SizeOutcome::Unsat;
        }
        let result = self
            .solver
            .solve_assuming_guarded(config.max_conflicts, guard, &assumptions);
        match result {
            SatResult::Sat => {
                let (values, dropped) = if config.minimize {
                    let active = self.active_pred_vars(sys, sizes);
                    shrink_true_preds(
                        &mut self.solver,
                        &assumptions,
                        &active,
                        config.max_conflicts,
                        guard,
                    )
                } else {
                    (self.solver.model(), 0)
                };
                stats.minimized_atoms += dropped;
                span.note("minimized", dropped as i64);
                let model = extract_model(
                    sys,
                    sizes,
                    &self.caps,
                    &self.func_vars,
                    &self.pred_vars,
                    |v| values[v.index()] == Some(true),
                );
                span.note_str("outcome", "model");
                SizeOutcome::Model(model)
            }
            SatResult::Unsat => {
                span.note_str("outcome", "unsat");
                SizeOutcome::Unsat
            }
            SatResult::Unknown => {
                if guard.is_cancelled() {
                    span.note_str("outcome", "interrupted");
                    SizeOutcome::Interrupted
                } else {
                    stats.budget_exhausted += 1;
                    span.note_str("outcome", "budget");
                    SizeOutcome::Budget
                }
            }
        }
    }

    /// The predicate-table variables whose rows lie inside `sizes` (the
    /// atoms minimal-model shrinking ranges over; phantom rows float).
    fn active_pred_vars(&self, sys: &ChcSystem, sizes: &[usize]) -> Vec<Var> {
        let mut out = Vec::new();
        for p in sys.rels.iter() {
            let d = sys.rels.decl(p);
            let dims: Vec<usize> = d.domain.iter().map(|s| sizes[s.index()]).collect();
            let rows: usize = dims.iter().product();
            for r in 0..rows {
                let args = unrank(r, &dims);
                let row = pred_row_index(sys, p, &args, &self.caps);
                out.push(self.pred_vars[p.index()][row]);
            }
        }
        out
    }
}

/// The dual-query minimal-model shrink loop: starting from the model in
/// the solver, repeatedly ask for a model whose true predicate atoms are
/// a *proper subset* of the current ones — false atoms pinned by
/// assumptions, "drop at least one" imposed through a fresh activation
/// literal — until the query comes back UNSAT (the failed-assumption
/// analysis then certifies that no strictly smaller extension exists, so
/// the last model's predicate extension is ⊆-minimal). `Unknown`
/// (budget or guard) keeps the best model found so far. Returns the
/// final assignment snapshot and the number of atoms dropped.
fn shrink_true_preds(
    solver: &mut Solver,
    base_assumptions: &[Lit],
    active_preds: &[Var],
    max_conflicts: u64,
    guard: &Guard,
) -> (Vec<Option<bool>>, u64) {
    let mut best = solver.model();
    let initial = active_preds
        .iter()
        .filter(|v| best[v.index()] == Some(true))
        .count();
    loop {
        let true_set: Vec<Var> = active_preds
            .iter()
            .copied()
            .filter(|v| best[v.index()] == Some(true))
            .collect();
        if true_set.is_empty() {
            break;
        }
        let act = solver.new_var();
        let mut drop_one: Vec<Lit> = Vec::with_capacity(true_set.len() + 1);
        drop_one.push(Lit::neg(act));
        drop_one.extend(true_set.iter().map(|&v| Lit::neg(v)));
        if !solver.add_clause(&drop_one) {
            break;
        }
        let mut assumptions: Vec<Lit> =
            Vec::with_capacity(base_assumptions.len() + 1 + active_preds.len());
        assumptions.extend_from_slice(base_assumptions);
        assumptions.push(Lit::pos(act));
        assumptions.extend(
            active_preds
                .iter()
                .copied()
                .filter(|v| best[v.index()] == Some(false))
                .map(Lit::neg),
        );
        let result = solver.solve_assuming_guarded(max_conflicts, guard, &assumptions);
        let improved = match result {
            SatResult::Sat => Some(solver.model()),
            SatResult::Unsat | SatResult::Unknown => None,
        };
        // Retire this iteration's drop clause either way, so later
        // queries on a shared solver never see it.
        solver.add_clause(&[Lit::neg(act)]);
        match improved {
            Some(next) => best = next,
            None => break,
        }
    }
    let fin = active_preds
        .iter()
        .filter(|v| best[v.index()] == Some(true))
        .count();
    (best, (initial - fin) as u64)
}

/// Reads a [`FiniteModel`] at `sizes` out of a variable assignment. The
/// tables may be allocated at larger dimensions (`index_sizes`, the
/// incremental caps); only rows inside `sizes` are consulted.
fn extract_model(
    sys: &ChcSystem,
    sizes: &[usize],
    index_sizes: &[usize],
    func_vars: &[Vec<Vec<Var>>],
    pred_vars: &[Vec<Var>],
    value: impl Fn(Var) -> bool,
) -> FiniteModel {
    let sig = &sys.sig;
    let pred_domains: Vec<Vec<usize>> = sys
        .rels
        .iter()
        .map(|p| {
            sys.rels
                .decl(p)
                .domain
                .iter()
                .map(|s| sizes[s.index()])
                .collect()
        })
        .collect();
    let mut model = FiniteModel::new(sig, &pred_domains, sizes.to_vec());
    for f in sig.funcs() {
        let d = sig.func(f);
        let dims: Vec<usize> = d.domain.iter().map(|s| sizes[s.index()]).collect();
        let rows: usize = dims.iter().product();
        for r in 0..rows {
            let args = unrank(r, &dims);
            let row = row_index(sig, f, &args, index_sizes);
            let cell = &func_vars[f.index()][row];
            let v = cell
                .iter()
                .position(|&v| value(v))
                .expect("exactly-one cell has a true value");
            model.set_func(sig, f, &args, v);
        }
    }
    for p in sys.rels.iter() {
        let dims = &pred_domains[p.index()];
        let rows: usize = dims.iter().product();
        for r in 0..rows {
            let args = unrank(r, dims);
            let row = pred_row_index(sys, p, &args, index_sizes);
            if value(pred_vars[p.index()][row]) {
                model.add_pred(p, args);
            }
        }
    }
    model
}

/// The ground SAT instances of one flattened clause: literal lists
/// stored back to back in one flat buffer (`ends[i]` is the exclusive
/// end of instance `i`), compact enough to materialize a whole clause's
/// sweep before handing it to the solver.
struct GroundInstances {
    lits: Vec<Lit>,
    ends: Vec<usize>,
}

impl GroundInstances {
    fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.ends.iter().scan(0usize, move |start, &end| {
            let s = *start;
            *start = end;
            Some(&self.lits[s..end])
        })
    }
}

/// Enumerates every variable assignment of one flattened clause and
/// emits the surviving ground instances, in odometer order. Pure: reads
/// only frozen tables, writes only its own buffer — the unit of work
/// the parallel sweep fans out.
fn ground_clause(
    sys: &ChcSystem,
    c: &FlatClause,
    sizes: &[usize],
    func_vars: &[Vec<Vec<Var>>],
    pred_vars: &[Vec<Var>],
) -> GroundInstances {
    let sig = &sys.sig;
    let mut out = GroundInstances {
        lits: Vec::new(),
        ends: Vec::new(),
    };
    let dims: Vec<usize> = c.var_sorts.iter().map(|s| sizes[s.index()]).collect();
    if dims.contains(&0) {
        return out;
    }
    let mut assign = vec![0usize; dims.len()];
    'assignments: loop {
        // Equality literals are decided at grounding time.
        let eq_ok = c.eqs.iter().all(|&(a, b)| assign[a] == assign[b]);
        if eq_ok {
            for (f, args, res) in &c.defs {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = row_index(sig, *f, &vals, sizes);
                out.lits
                    .push(Lit::neg(func_vars[f.index()][row][assign[*res]]));
            }
            for (p, args) in &c.body {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = pred_row_index(sys, *p, &vals, sizes);
                out.lits.push(Lit::neg(pred_vars[p.index()][row]));
            }
            if let Some((p, args)) = &c.head {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = pred_row_index(sys, *p, &vals, sizes);
                out.lits.push(Lit::pos(pred_vars[p.index()][row]));
            }
            out.ends.push(out.lits.len());
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == assign.len() {
                break 'assignments;
            }
            assign[i] += 1;
            if assign[i] < dims[i] {
                break;
            }
            assign[i] = 0;
            i += 1;
        }
        if assign.iter().all(|&a| a == 0) {
            break;
        }
    }
    out
}

/// [`ground_clause`] for the incremental sweep: iterates the box of
/// `sizes` but emits only assignments *not* inside any covered box, with
/// tables indexed at `caps` dimensions, and guards every instance with
/// the negated existence selectors of the elements it mentions — so the
/// instance is vacuous whenever a later, smaller vector deselects one of
/// them. The odometer polls `guard` through a [`Poller`]; `None` if it
/// trips.
#[allow(clippy::too_many_arguments)]
fn ground_clause_delta(
    sys: &ChcSystem,
    c: &FlatClause,
    sizes: &[usize],
    caps: &[usize],
    covered: &[Vec<usize>],
    func_vars: &[Vec<Vec<Var>>],
    pred_vars: &[Vec<Var>],
    ex: &[Vec<Var>],
    guard: &Guard,
) -> Option<GroundInstances> {
    let sig = &sys.sig;
    let mut out = GroundInstances {
        lits: Vec::new(),
        ends: Vec::new(),
    };
    let dims: Vec<usize> = c.var_sorts.iter().map(|s| sizes[s.index()]).collect();
    if dims.contains(&0) {
        return Some(out);
    }
    let mut assign = vec![0usize; dims.len()];
    let mut poller = Poller::new(guard);
    'assignments: loop {
        if poller.poll() {
            return None;
        }
        let already = covered.iter().any(|b| {
            assign
                .iter()
                .zip(&c.var_sorts)
                .all(|(&a, s)| a < b[s.index()])
        });
        let eq_ok = !already && c.eqs.iter().all(|&(a, b)| assign[a] == assign[b]);
        if eq_ok {
            for (f, args, res) in &c.defs {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = row_index(sig, *f, &vals, caps);
                out.lits
                    .push(Lit::neg(func_vars[f.index()][row][assign[*res]]));
            }
            for (p, args) in &c.body {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = pred_row_index(sys, *p, &vals, caps);
                out.lits.push(Lit::neg(pred_vars[p.index()][row]));
            }
            if let Some((p, args)) = &c.head {
                let vals: Vec<usize> = args.iter().map(|&v| assign[v]).collect();
                let row = pred_row_index(sys, *p, &vals, caps);
                out.lits.push(Lit::pos(pred_vars[p.index()][row]));
            }
            // Existence guards (duplicates are deduplicated by the
            // solver's clause normalization).
            for (&a, s) in assign.iter().zip(&c.var_sorts) {
                if a >= 1 {
                    out.lits.push(Lit::neg(ex[s.index()][a - 1]));
                }
            }
            out.ends.push(out.lits.len());
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == assign.len() {
                break 'assignments;
            }
            assign[i] += 1;
            if assign[i] < dims[i] {
                break;
            }
            assign[i] = 0;
            i += 1;
        }
        if assign.iter().all(|&a| a == 0) {
            break;
        }
    }
    Some(out)
}

fn row_index(
    sig: &ringen_terms::Signature,
    f: ringen_terms::FuncId,
    args: &[usize],
    sizes: &[usize],
) -> usize {
    let d = sig.func(f);
    let mut idx = 0;
    for (a, s) in args.iter().zip(&d.domain) {
        idx = idx * sizes[s.index()] + a;
    }
    idx
}

fn pred_row_index(
    sys: &ChcSystem,
    p: ringen_chc::PredId,
    args: &[usize],
    sizes: &[usize],
) -> usize {
    let d = sys.rels.decl(p);
    let mut idx = 0;
    for (a, s) in args.iter().zip(&d.domain) {
        idx = idx * sizes[s.index()] + a;
    }
    idx
}

/// Inverse of the row-major ranking.
fn unrank(mut row: usize, dims: &[usize]) -> Vec<usize> {
    let mut out = vec![0; dims.len()];
    for i in (0..dims.len()).rev() {
        out[i] = row % dims[i];
        row /= dims[i];
    }
    out
}

/// Convenience: whether the signature has any non-constructor function
/// symbols (the EUF reduction keeps constructors as free symbols, so this
/// is informational only).
pub fn has_free_symbols(sys: &ChcSystem) -> bool {
    sys.sig
        .funcs()
        .any(|f| sys.sig.func(f).kind == FuncKind::Free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_chc::SystemBuilder;
    use ringen_terms::Term;

    fn even_system() -> ChcSystem {
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let z = b.ctor("Z", vec![], nat);
        let s = b.ctor("S", vec![nat], nat);
        let even = b.pred("even", vec![nat]);
        b.clause(|c| {
            c.head(even, vec![c.app0(z)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(even, vec![c.v(x)]);
            c.head(even, vec![Term::iterate(s, c.v(x), 2)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(even, vec![c.v(x)]);
            c.body(even, vec![c.app(s, vec![c.v(x)])]);
        });
        b.finish()
    }

    #[test]
    fn finds_the_two_element_even_model() {
        let sys = even_system();
        let (outcome, stats) =
            find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().expect("even has a finite model");
        assert_eq!(model.size(), 2, "paper's minimal model has 2 elements");
        assert!(model.satisfies(&sys));
        assert!(stats.vectors_tried >= 1);
        // Z must be even, S(Z) must not.
        let z = sys.sig.func_by_name("Z").unwrap();
        let s = sys.sig.func_by_name("S").unwrap();
        let even = sys.rels.by_name("even").unwrap();
        let e0 = model.eval_ground(&sys.sig, &ringen_terms::GroundTerm::leaf(z));
        assert!(model.holds(even, &[e0]));
        let e1 = model.eval_ground(
            &sys.sig,
            &ringen_terms::GroundTerm::iterate(s, ringen_terms::GroundTerm::leaf(z), 1),
        );
        assert!(!model.holds(even, &[e1]));
    }

    #[test]
    fn incdec_needs_three_elements() {
        // The IncDec system of Example 4 / Proposition 4: minimal regular
        // model is mod-3 counting.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let z = b.ctor("Z", vec![], nat);
        let s = b.ctor("S", vec![nat], nat);
        let inc = b.pred("inc", vec![nat, nat]);
        let dec = b.pred("dec", vec![nat, nat]);
        b.clause(|c| {
            c.head(inc, vec![c.app0(z), c.app(s, vec![c.app0(z)])]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            let y = c.var("y", nat);
            c.body(inc, vec![c.v(x), c.v(y)]);
            c.head(inc, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
        });
        b.clause(|c| {
            c.head(dec, vec![c.app(s, vec![c.app0(z)]), c.app0(z)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            let y = c.var("y", nat);
            c.body(dec, vec![c.v(x), c.v(y)]);
            c.head(dec, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            let y = c.var("y", nat);
            c.body(inc, vec![c.v(x), c.v(y)]);
            c.body(dec, vec![c.v(x), c.v(y)]);
        });
        let sys = b.finish();
        let (outcome, _) =
            find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().expect("IncDec ∈ Reg (Proposition 4)");
        assert!(model.satisfies(&sys));
        assert!(model.size() >= 3, "no 1- or 2-element model can work");
    }

    #[test]
    fn fo_unsat_system_exhausts() {
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let _z = b.ctor("Z", vec![], nat);
        let p = b.pred("p", vec![nat]);
        b.clause(|c| {
            let x = c.var("x", nat);
            c.head(p, vec![c.v(x)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(p, vec![c.v(x)]);
        });
        let sys = b.finish();
        let config = FinderConfig {
            max_total_size: 4,
            ..FinderConfig::default()
        };
        let (outcome, stats) = find_model_guarded(&sys, &config, &Guard::new()).unwrap();
        assert!(outcome.model().is_none());
        assert_eq!(stats.vectors_tried, 4);
    }

    #[test]
    fn equality_constraints_restrict_models() {
        // p(x) for all x, query p(Z) with x = Z constraint forces UNSAT
        // at every size.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let z = b.ctor("Z", vec![], nat);
        let p = b.pred("p", vec![nat]);
        b.clause(|c| {
            let x = c.var("x", nat);
            c.head(p, vec![c.v(x)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.eq(c.v(x), c.app0(z));
            c.body(p, vec![c.v(x)]);
        });
        let sys = b.finish();
        let config = FinderConfig {
            max_total_size: 3,
            ..FinderConfig::default()
        };
        let (outcome, _) = find_model_guarded(&sys, &config, &Guard::new()).unwrap();
        assert!(outcome.model().is_none());
    }

    #[test]
    fn multi_sort_sizes_are_searched() {
        // Two sorts; q over B needs 2 elements, Nat can stay at 1.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let bs = b.sort("B");
        let _z = b.ctor("Z", vec![], nat);
        let t = b.ctor("T", vec![], bs);
        let f = b.ctor("F", vec![], bs);
        let q = b.pred("q", vec![bs]);
        b.clause(|c| {
            c.head(q, vec![c.app0(t)]);
        });
        b.clause(|c| {
            c.body(q, vec![c.app0(f)]);
        });
        let sys = b.finish();
        let (outcome, _) =
            find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        let model = outcome.model().expect("needs T ≠ F only");
        assert!(model.satisfies(&sys));
        assert_eq!(model.size(), 3); // 1 (Nat) + 2 (B)
    }

    #[test]
    fn compositions_enumerate_all_vectors() {
        let cs = compositions(4, 2);
        assert_eq!(cs, vec![vec![1, 3], vec![2, 2], vec![3, 1]]);
        assert_eq!(compositions(1, 2), Vec::<Vec<usize>>::new());
        assert_eq!(compositions(3, 3), vec![vec![1, 1, 1]]);
    }

    #[test]
    fn unrank_inverts_row_major() {
        let dims = [2usize, 3, 2];
        for row in 0..12 {
            let t = unrank(row, &dims);
            let mut back = 0;
            for (v, d) in t.iter().zip(&dims) {
                back = back * d + v;
            }
            assert_eq!(back, row);
        }
    }

    #[test]
    fn parallel_sweep_is_identical_at_any_thread_count() {
        // The sharded ground-instance sweep must reproduce the inline
        // result bit for bit: same model, same statistics — in both
        // sweep modes.
        let sys = even_system();
        for incremental in [true, false] {
            let run = |threads: usize| {
                let cfg = FinderConfig {
                    incremental,
                    parallel: ParallelConfig::with_threads(threads),
                    ..FinderConfig::default()
                };
                let (outcome, stats) = find_model_guarded(&sys, &cfg, &Guard::new()).unwrap();
                (outcome.model(), stats)
            };
            let (m1, s1) = run(1);
            for threads in [2usize, 4, 8] {
                let (m, s) = run(threads);
                assert_eq!(m, m1, "threads = {threads}, incremental = {incremental}");
                assert_eq!(s, s1, "threads = {threads}, incremental = {incremental}");
            }
            assert!(m1.is_some());
        }
    }

    #[test]
    fn parallel_sweep_agrees_on_unsat_and_multi_sort() {
        // UNSAT path (early solver conflict) and a multi-sort grounding
        // both stay deterministic under sharding.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let bs = b.sort("B");
        let _z = b.ctor("Z", vec![], nat);
        let t = b.ctor("T", vec![], bs);
        let q = b.pred("q", vec![bs]);
        b.clause(|c| {
            let x = c.var("x", bs);
            c.head(q, vec![c.v(x)]);
        });
        b.clause(|c| {
            c.body(q, vec![c.app0(t)]);
        });
        let sys = b.finish();
        let run = |threads: usize| {
            let cfg = FinderConfig {
                max_total_size: 4,
                parallel: ParallelConfig::with_threads(threads),
                ..FinderConfig::default()
            };
            let (outcome, stats) = find_model_guarded(&sys, &cfg, &Guard::new()).unwrap();
            (outcome.model().is_some(), stats)
        };
        let base = run(1);
        assert_eq!(run(4), base);
        assert!(!base.0, "q is both total and refuted: no model");
    }

    #[test]
    fn guarded_search_interrupts_and_matches_when_uncancelled() {
        let sys = even_system();
        // Already-tripped guard: no vector is attempted.
        let g = Guard::new();
        g.cancel();
        let (outcome, stats) = find_model_guarded(&sys, &FinderConfig::default(), &g).unwrap();
        assert!(matches!(outcome, FmfOutcome::Interrupted));
        assert_eq!(stats.vectors_tried, 0);
        // Fuel guard: trips mid-search, still reports Interrupted.
        let g = Guard::with_fuel(1);
        let (outcome, _) = find_model_guarded(&sys, &FinderConfig::default(), &g).unwrap();
        assert!(matches!(outcome, FmfOutcome::Interrupted));
        // An armed deadline that never trips changes nothing.
        let g = Guard::with_deadline(std::time::Duration::from_secs(3600));
        let (outcome, stats) = find_model_guarded(&sys, &FinderConfig::default(), &g).unwrap();
        let (plain, plain_stats) =
            find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        assert_eq!(outcome.model(), plain.model());
        assert_eq!(stats, plain_stats);
    }

    #[test]
    fn symmetry_breaking_preserves_satisfiability() {
        let sys = even_system();
        let plain = FinderConfig {
            symmetry_breaking: false,
            ..FinderConfig::default()
        };
        let (o1, _) = find_model_guarded(&sys, &FinderConfig::default(), &Guard::new()).unwrap();
        let (o2, _) = find_model_guarded(&sys, &plain, &Guard::new()).unwrap();
        let m1 = o1.model().unwrap();
        let m2 = o2.model().unwrap();
        assert_eq!(m1.size(), m2.size());
        assert!(m1.satisfies(&sys) && m2.satisfies(&sys));
    }

    #[test]
    fn incremental_and_one_shot_sweeps_agree() {
        // Same verdict, same first-model size vector, same skip
        // decisions — the differential contract behind
        // `FinderConfig::incremental`.
        let sys = even_system();
        let inc = FinderConfig {
            incremental: true,
            ..FinderConfig::default()
        };
        let one = FinderConfig {
            incremental: false,
            ..FinderConfig::default()
        };
        let (oi, si) = find_model_guarded(&sys, &inc, &Guard::new()).unwrap();
        let (oo, so) = find_model_guarded(&sys, &one, &Guard::new()).unwrap();
        let (mi, mo) = (oi.model().unwrap(), oo.model().unwrap());
        assert_eq!(mi.sizes(), mo.sizes());
        assert!(mi.satisfies(&sys) && mo.satisfies(&sys));
        assert_eq!(si.vectors_tried, so.vectors_tried);
        assert_eq!(si.skipped_too_large, so.skipped_too_large);
    }

    #[test]
    fn incremental_sweep_reuses_one_solver() {
        // IncDec walks three size vectors; the shared solver answers all
        // but the first from retained state, and only deltas are pushed.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let z = b.ctor("Z", vec![], nat);
        let s = b.ctor("S", vec![nat], nat);
        let p = b.pred("p", vec![nat]);
        b.clause(|c| {
            c.head(p, vec![c.app0(z)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(p, vec![c.v(x)]);
            c.head(p, vec![Term::iterate(s, c.v(x), 3)]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            c.body(p, vec![c.v(x)]);
            c.body(p, vec![c.app(s, vec![c.v(x)])]);
        });
        let sys = b.finish();
        let cfg = FinderConfig {
            incremental: true,
            ..FinderConfig::default()
        };
        let (outcome, stats) = find_model_guarded(&sys, &cfg, &Guard::new()).unwrap();
        assert!(outcome.model().is_some());
        assert!(stats.vectors_tried >= 3, "mod-3 needs the third vector");
        assert_eq!(stats.solver_reuses, stats.vectors_tried - 1);
        assert!(stats.delta_clauses > 0);

        // The one-shot reference never reuses.
        let one = FinderConfig {
            incremental: false,
            ..FinderConfig::default()
        };
        let (_, so) = find_model_guarded(&sys, &one, &Guard::new()).unwrap();
        assert_eq!(so.solver_reuses, 0);
    }

    #[test]
    fn minimized_model_has_no_satisfying_proper_submodel() {
        // ⊆-minimality of the predicate extension: removing *any*
        // non-empty subset of atoms (functions unchanged) breaks the
        // system. This is exactly what the shrink loop's final UNSAT
        // certifies.
        let mut b = SystemBuilder::new();
        let nat = b.sort("Nat");
        let z = b.ctor("Z", vec![], nat);
        let s = b.ctor("S", vec![nat], nat);
        let inc = b.pred("inc", vec![nat, nat]);
        b.clause(|c| {
            c.head(inc, vec![c.app0(z), c.app(s, vec![c.app0(z)])]);
        });
        b.clause(|c| {
            let x = c.var("x", nat);
            let y = c.var("y", nat);
            c.body(inc, vec![c.v(x), c.v(y)]);
            c.head(inc, vec![c.app(s, vec![c.v(x)]), c.app(s, vec![c.v(y)])]);
        });
        let sys = b.finish();
        for incremental in [true, false] {
            let cfg = FinderConfig {
                incremental,
                minimize: true,
                ..FinderConfig::default()
            };
            let (outcome, _) = find_model_guarded(&sys, &cfg, &Guard::new()).unwrap();
            let model = outcome.model().expect("inc chains are satisfiable");
            assert!(model.satisfies(&sys));
            let atoms: Vec<(ringen_chc::PredId, Vec<usize>)> = sys
                .rels
                .iter()
                .flat_map(|p| {
                    model
                        .pred_table(p)
                        .map(|t| (p, t.to_vec()))
                        .collect::<Vec<_>>()
                })
                .collect();
            assert!(atoms.len() <= 12, "test relies on exhaustive subsets");
            for mask in 1u32..(1 << atoms.len()) {
                let mut sub = model.clone();
                for (i, (p, t)) in atoms.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        sub = sub.without_pred_tuple(*p, t);
                    }
                }
                assert!(
                    !sub.satisfies(&sys),
                    "proper sub-model (mask {mask:#b}) still satisfies the system"
                );
            }
        }
    }

    #[test]
    fn minimize_knob_only_ever_shrinks() {
        let sys = even_system();
        let atoms =
            |m: &FiniteModel| -> usize { sys.rels.iter().map(|p| m.pred_table(p).count()).sum() };
        for incremental in [true, false] {
            let min = FinderConfig {
                incremental,
                minimize: true,
                ..FinderConfig::default()
            };
            let raw = FinderConfig {
                incremental,
                minimize: false,
                ..FinderConfig::default()
            };
            let (om, _) = find_model_guarded(&sys, &min, &Guard::new()).unwrap();
            let (or, _) = find_model_guarded(&sys, &raw, &Guard::new()).unwrap();
            let (mm, mr) = (om.model().unwrap(), or.model().unwrap());
            assert!(mm.satisfies(&sys) && mr.satisfies(&sys));
            assert!(atoms(&mm) <= atoms(&mr));
        }
    }
}
