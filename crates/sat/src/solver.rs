//! The CDCL solver implementation.
//!
//! The solver is *incremental*: clauses may be added between `solve`
//! calls, queries may be posed under assumptions
//! ([`Solver::solve_assuming_guarded`]), and learnt clauses plus
//! variable activity survive from one query to the next. When a query
//! is unsatisfiable because of its assumptions,
//! [`Solver::failed_assumptions`] returns the subset of assumption
//! literals the refutation actually used (the assumption unsat core).

use ringen_guard::Guard;
use std::fmt;

/// A boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Raw index, usable for dense per-variable tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// `v` if `positive`, else `¬v`.
    pub fn with_sign(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The clause set is unsatisfiable (under the assumptions, if any
    /// were passed; see [`Solver::failed_assumptions`]).
    Unsat,
    /// The conflict budget was exhausted first.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClauseRef(u32);

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
}

/// An incremental CDCL SAT solver; see the [crate docs](crate) for an
/// example.
///
/// Between queries the solver keeps its clause database (including
/// learnt clauses), variable activity, and saved phases, so a sequence
/// of related queries — the finite-model-finding size sweep is the
/// motivating client — gets monotonically cheaper instead of starting
/// from scratch each time.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit.code()]: clauses watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    /// Current assignment per variable.
    assign: Vec<Option<bool>>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Decision level per assigned variable.
    level: Vec<u32>,
    /// Implying clause per assigned variable.
    reason: Vec<Option<ClauseRef>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Start of each decision level in the trail.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    act_inc: f64,
    /// Whether an empty clause was added.
    broken: bool,
    /// Assumption unsat core of the most recent UNSAT answer: the
    /// subset of the passed assumptions the refutation used. Empty when
    /// the clause set is unsatisfiable outright.
    failed: Vec<Lit>,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
}

impl Solver {
    /// Creates a solver with no variables.
    pub fn new() -> Self {
        Solver {
            act_inc: 1.0,
            ..Self::default()
        }
    }

    /// Introduces a fresh variable. Variables may be added at any
    /// point, including between queries.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learnt).count()
    }

    /// Number of learnt clauses currently retained.
    pub fn num_learnts(&self) -> usize {
        self.clauses.iter().filter(|c| c.learnt).count()
    }

    /// Conflicts encountered so far (budget bookkeeping).
    pub fn conflict_count(&self) -> u64 {
        self.conflicts
    }

    /// Decisions made so far (branching bookkeeping).
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Literals propagated so far.
    pub fn propagation_count(&self) -> u64 {
        self.propagations
    }

    /// Restarts performed so far.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// After an [`SatResult::Unsat`] answer from an assumption query:
    /// the subset of the assumption literals used to refute it (the
    /// *failed literals*). The clause set conjoined with just these
    /// assumptions is already unsatisfiable. Empty when the clause set
    /// is unsatisfiable on its own.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Adds a clause. Returns `false` if the solver is already broken
    /// (an empty clause was added), in which case `solve` reports UNSAT.
    ///
    /// May be called between queries: any assignment left over from a
    /// previous query is undone (back to the root level) first, so only
    /// permanent root-level facts are used to simplify the clause.
    ///
    /// # Panics
    ///
    /// Panics on a literal over a variable the solver never allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backjump(0);
        if self.broken {
            return false;
        }
        // Deduplicate and drop tautologies.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return true; // x ∨ ¬x: tautology, ignore.
            }
        }
        for l in &ls {
            assert!(l.var().index() < self.num_vars(), "stale variable {l}");
        }
        // Remove already-false root literals; detect satisfied clauses.
        ls.retain(|l| self.lit_value(*l) != Some(false));
        if ls.iter().any(|l| self.lit_value(*l) == Some(true)) {
            return true;
        }
        match ls.len() {
            0 => {
                self.broken = true;
                false
            }
            1 => {
                self.enqueue(ls[0], None);
                if self.propagate().is_some() {
                    self.broken = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach(ls, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        let cref = ClauseRef(self.clauses.len() as u32);
        self.watches[lits[0].negated().code()].push(cref);
        self.watches[lits[1].negated().code()].push(cref);
        self.clauses.push(Clause { lits, learnt });
        cref
    }

    /// The value of a variable in the current (complete after SAT) model.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assign[v.index()]
    }

    /// A snapshot of the whole assignment, indexed by [`Var::index`]
    /// (complete after a [`SatResult::Sat`] answer). Callers that keep
    /// querying the solver — the minimal-model shrink loop — snapshot
    /// the model before the next query erases it.
    pub fn model(&self) -> Vec<Option<bool>> {
        self.assign.clone()
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b == l.is_positive())
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_none());
        let v = l.var().index();
        self.assign[v] = Some(l.is_positive());
        self.phase[v] = l.is_positive();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            // Clauses watching l (i.e. containing ¬l among watches).
            let mut watchers = std::mem::take(&mut self.watches[l.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let cref = watchers[i];
                let ci = cref.0 as usize;
                // Normalize: watched literals are lits[0] and lits[1].
                let false_lit = l.negated();
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.negated().code()].push(cref);
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.lit_value(first) == Some(false) {
                    // Conflict: restore remaining watchers.
                    self.watches[l.code()].append(&mut watchers);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                // Unit.
                self.enqueue(first, Some(cref));
                i += 1;
            }
            let existing = std::mem::take(&mut self.watches[l.code()]);
            watchers.extend(existing);
            self.watches[l.code()] = watchers;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.act_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut seen = vec![false; self.num_vars()];
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        // The literal currently being resolved on; it occurs positively in
        // its own reason clause and must be skipped there.
        let mut resolved: Option<Lit> = None;
        loop {
            let clause_lits = self.clauses[cref.0 as usize].lits.clone();
            for q in clause_lits {
                if Some(q) == resolved {
                    continue;
                }
                let v = q.var();
                if seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                seen[v.index()] = true;
                self.bump(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Pick the next seen trail literal (always at the current
            // level, since lower levels are fully propagated).
            loop {
                trail_idx -= 1;
                if seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let l = self.trail[trail_idx];
            seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = l.negated();
                let back = learnt[1..]
                    .iter()
                    .map(|q| self.level[q.var().index()])
                    .max()
                    .unwrap_or(0);
                return (learnt, back);
            }
            resolved = Some(l);
            cref = self.reason[l.var().index()].expect("UIP literal has a reason");
        }
    }

    /// Computes the assumption unsat core for a failed assumption `p`:
    /// the subset of earlier assumption decisions (plus `p` itself)
    /// whose propagation forced `¬p`. Walks reasons backwards from the
    /// assignment of `¬p`; reason-less trail literals above the root are
    /// exactly the assumption decisions of this query.
    fn analyze_final(&self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.trail_lim.is_empty() {
            // ¬p is a root-level fact: the formula alone refutes `p`.
            return out;
        }
        let mut seen = vec![false; self.num_vars()];
        seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let xv = x.var().index();
            if !seen[xv] {
                continue;
            }
            match self.reason[xv] {
                None => {
                    if x != p {
                        out.push(x);
                    }
                }
                Some(cref) => {
                    for &q in &self.clauses[cref.0 as usize].lits {
                        if self.level[q.var().index()] > 0 {
                            seen[q.var().index()] = true;
                        }
                    }
                }
            }
            seen[xv] = false;
        }
        out
    }

    fn backjump(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let start = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(start..) {
                self.assign[l.var().index()] = None;
                self.reason[l.var().index()] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<Var> = None;
        for i in 0..self.num_vars() {
            if self.assign[i].is_none() {
                let better = match best {
                    None => true,
                    Some(b) => self.activity[i] > self.activity[b.index()],
                };
                if better {
                    best = Some(Var(i as u32));
                }
            }
        }
        best.map(|v| Lit::with_sign(v, self.phase[v.index()]))
    }

    /// Solves under a cooperative [`Guard`], giving up with
    /// [`SatResult::Unknown`] when either `max_conflicts` conflicts are
    /// spent *or* the token trips (polled every
    /// [`GUARD_CONFLICT_PERIOD`] conflicts and every
    /// [`GUARD_DECISION_PERIOD`] decisions, so a propagation-heavy
    /// instance cannot outrun its deadline). Restarts follow the Luby
    /// sequence. The solver stays in a consistent state and can be
    /// re-solved with a fresh budget; the caller distinguishes "budget"
    /// from "cancelled" by checking the guard afterwards.
    pub fn solve_guarded(&mut self, max_conflicts: u64, guard: &Guard) -> SatResult {
        self.solve_assuming_guarded(max_conflicts, guard, &[])
    }

    /// [`Solver::solve_guarded`] under `assumptions`: each literal is
    /// forced for the duration of this query only (installed as a
    /// pseudo-decision, so nothing learnt from it outlives the call
    /// incorrectly — learnt clauses never mention assumption polarity,
    /// only consequences of the clause set). On [`SatResult::Unsat`],
    /// [`Solver::failed_assumptions`] names the responsible subset.
    pub fn solve_assuming_guarded(
        &mut self,
        max_conflicts: u64,
        guard: &Guard,
        assumptions: &[Lit],
    ) -> SatResult {
        self.failed.clear();
        if self.broken {
            return SatResult::Unsat;
        }
        if guard.is_cancelled() {
            return SatResult::Unknown;
        }
        for l in assumptions {
            assert!(l.var().index() < self.num_vars(), "stale assumption {l}");
        }
        // Undo any assignment left over from the previous query.
        self.backjump(0);
        if self.propagate().is_some() {
            self.broken = true;
            return SatResult::Unsat;
        }
        let mut restart_count = 0u64;
        let mut restart_budget = 64 * luby(restart_count);
        let start_conflicts = self.conflicts;
        let mut decisions = 0u64;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    if self.trail_lim.is_empty() {
                        self.broken = true;
                        return SatResult::Unsat;
                    }
                    if self.conflicts - start_conflicts >= max_conflicts {
                        self.backjump(0);
                        return SatResult::Unknown;
                    }
                    if (self.conflicts - start_conflicts).is_multiple_of(GUARD_CONFLICT_PERIOD)
                        && guard.is_cancelled()
                    {
                        self.backjump(0);
                        return SatResult::Unknown;
                    }
                    let (learnt, back) = self.analyze(conflict);
                    self.backjump(back);
                    self.act_inc /= 0.95;
                    match learnt.len() {
                        1 => self.enqueue(learnt[0], None),
                        _ => {
                            // Watch the asserting literal and one literal of
                            // the backjump level.
                            let mut ls = learnt;
                            let wi = ls[1..]
                                .iter()
                                .position(|q| self.level[q.var().index()] == back)
                                .map(|p| p + 1)
                                .unwrap_or(1);
                            ls.swap(1, wi);
                            let asserting = ls[0];
                            let cref = self.attach(ls, true);
                            self.enqueue(asserting, Some(cref));
                        }
                    }
                    restart_budget = restart_budget.saturating_sub(1);
                    if restart_budget == 0 {
                        restart_count += 1;
                        self.restarts += 1;
                        restart_budget = 64 * luby(restart_count);
                        self.backjump(0);
                    }
                }
                None if self.trail_lim.len() < assumptions.len() => {
                    // Install the next assumption as a pseudo-decision.
                    let p = assumptions[self.trail_lim.len()];
                    match self.lit_value(p) {
                        Some(true) => {
                            // Already implied: open an empty level so
                            // assumption i stays the decision of level i+1.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.failed = self.analyze_final(p);
                            self.backjump(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                        }
                    }
                }
                None => match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        decisions += 1;
                        self.decisions += 1;
                        if decisions.is_multiple_of(GUARD_DECISION_PERIOD) && guard.is_cancelled() {
                            self.backjump(0);
                            return SatResult::Unknown;
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                },
            }
        }
    }
}

/// Conflicts between guard polls in [`Solver::solve_guarded`].
pub const GUARD_CONFLICT_PERIOD: u64 = 64;

/// Decisions between guard polls in [`Solver::solve_guarded`].
pub const GUARD_DECISION_PERIOD: u64 = 4096;

/// The Luby restart sequence 1,1,2,1,1,2,4,… (0-based index).
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn lit_encoding_round_trips() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(Lit::pos(v).is_positive());
        assert!(!Lit::neg(v).is_positive());
        assert_eq!(Lit::pos(v).negated(), Lit::neg(v));
        assert_eq!(Lit::with_sign(v, true), Lit::pos(v));
        assert_eq!(Lit::pos(v).to_string(), "v7");
        assert_eq!(Lit::neg(v).to_string(), "!v7");
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_harmless() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[1])]));
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn chain_of_implications_propagates() {
        // x0 ∧ (¬x0∨x1) ∧ (¬x1∨x2) ∧ … forces all true.
        let mut s = Solver::new();
        let v = lits(&mut s, 20);
        s.add_clause(&[Lit::pos(v[0])]);
        for i in 0..19 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        assert!(v.iter().all(|&x| s.value(x) == Some(true)));
        assert!(s.propagation_count() >= 20);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat_with_learning() {
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
        assert!(s.conflict_count() > 0);
    }

    #[test]
    fn xor_chain_is_satisfiable() {
        // (a ⊕ b) as CNF, chained; satisfiable with alternating values.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        for i in 0..9 {
            s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[i + 1])]);
            s.add_clause(&[Lit::neg(v[i]), Lit::neg(v[i + 1])]);
        }
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        for i in 0..9 {
            assert_ne!(s.value(v[i]), s.value(v[i + 1]));
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A hard instance with a tiny budget. PHP(6,5).
        let n = 6;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve_guarded(3, &Guard::new()), SatResult::Unknown);
        // And it can continue afterwards to a definite answer.
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
    }

    #[test]
    fn guarded_solve_stops_on_cancellation_and_recovers() {
        // Same PHP(6,5) instance as the budget test.
        let n = 6;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        // An already-tripped guard yields Unknown without any search...
        let tripped = Guard::new();
        tripped.cancel();
        assert_eq!(s.solve_guarded(u64::MAX, &tripped), SatResult::Unknown);
        // ...a conflict-period poll catches a mid-solve trip...
        let fuel = Guard::with_fuel(1);
        assert_eq!(s.solve_guarded(u64::MAX, &fuel), SatResult::Unknown);
        // ...and the solver state stays reusable for a clean solve.
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
    }

    #[test]
    fn satisfied_root_clauses_are_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0])]);
        // Already satisfied at root; must not confuse the solver.
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]));
        assert!(s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]));
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clauses_can_be_added_between_solves() {
        // Solve, constrain the model away, solve again — repeatedly.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        for _ in 0..(1 << 4) {
            // Block the current total model.
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| Lit::with_sign(x, s.value(x) != Some(true)))
                .collect();
            s.add_clause(&block);
            if s.solve_guarded(u64::MAX, &Guard::new()) == SatResult::Unsat {
                return; // all models enumerated
            }
        }
        panic!("model enumeration did not terminate");
    }

    #[test]
    fn model_enumeration_counts_models() {
        // x0 ∨ x1 over 2 vars has exactly 3 models.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        let mut count = 0;
        while s.solve_guarded(u64::MAX, &Guard::new()) == SatResult::Sat {
            count += 1;
            assert!(count <= 4, "runaway enumeration");
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| Lit::with_sign(x, s.value(x) != Some(true)))
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn assumptions_restrict_a_single_query_only() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        // Under ¬x0 the clause forces x1.
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::neg(v[0])]),
            SatResult::Sat
        );
        assert_eq!(s.value(v[0]), Some(false));
        assert_eq!(s.value(v[1]), Some(true));
        // Under ¬x0 ∧ ¬x1 it is unsatisfiable...
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::neg(v[0]), Lit::neg(v[1])]),
            SatResult::Unsat
        );
        // ...but the solver itself is not poisoned.
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
    }

    #[test]
    fn failed_assumptions_name_the_responsible_subset() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::neg(v[0]), Lit::neg(v[1])]); // ¬(x0 ∧ x1)
        let assumptions = [
            Lit::pos(v[2]),
            Lit::pos(v[0]),
            Lit::pos(v[3]),
            Lit::pos(v[1]),
        ];
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &assumptions),
            SatResult::Unsat
        );
        let mut core = s.failed_assumptions().to_vec();
        core.sort();
        // The irrelevant assumptions x2, x3 are not in the core.
        assert_eq!(core, vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        // The core alone is already unsatisfiable.
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &core),
            SatResult::Unsat
        );
    }

    #[test]
    fn failed_assumption_core_is_just_p_when_root_implied() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::pos(v[1]), Lit::pos(v[0])]),
            SatResult::Unsat
        );
        assert_eq!(s.failed_assumptions(), &[Lit::pos(v[0])]);
    }

    #[test]
    fn unsat_without_assumptions_leaves_an_empty_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::pos(v[0])]),
            SatResult::Unsat
        );
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn learnt_clauses_survive_between_queries() {
        // PHP(5,4) twice: the second solve reuses the learnt clauses and
        // needs strictly fewer new conflicts.
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        let sel = s.new_var(); // selector so UNSAT is assumption-relative
        for row in &p {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            c.push(Lit::neg(sel));
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::pos(sel)]),
            SatResult::Unsat
        );
        let first = s.conflict_count();
        assert!(first > 0);
        assert!(s.num_learnts() > 0);
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[Lit::pos(sel)]),
            SatResult::Unsat
        );
        let second = s.conflict_count() - first;
        assert!(
            second < first,
            "retained learnt clauses should shorten the re-query: {second} vs {first}"
        );
    }

    #[test]
    fn restart_counter_advances_on_long_searches() {
        // PHP(7,6) takes well over 64 conflicts, forcing restarts.
        let n = 7;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a fixed pigeon/hole grid
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in i1 + 1..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Unsat);
        assert!(s.restart_count() > 0);
        assert!(s.propagation_count() > 0);
    }

    #[test]
    fn minimal_true_set_shrinks_via_assumption_queries() {
        // The dual-query shrink loop the FMF finder uses, in miniature:
        // (a ∨ b) ∧ (b ∨ c) has minimal true-sets {b} and {a, c}; from
        // any starting model the loop must reach one of them.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve_guarded(u64::MAX, &Guard::new()), SatResult::Sat);
        let mut acts = Vec::new();
        loop {
            let true_set: Vec<Var> = v
                .iter()
                .copied()
                .filter(|&x| s.value(x) == Some(true))
                .collect();
            let false_set: Vec<Var> = v
                .iter()
                .copied()
                .filter(|&x| s.value(x) == Some(false))
                .collect();
            if true_set.is_empty() {
                break;
            }
            let act = s.new_var();
            acts.push(act);
            let mut drop_one: Vec<Lit> = vec![Lit::neg(act)];
            drop_one.extend(true_set.iter().map(|&x| Lit::neg(x)));
            s.add_clause(&drop_one);
            let mut assumptions: Vec<Lit> = vec![Lit::pos(act)];
            assumptions.extend(false_set.iter().map(|&x| Lit::neg(x)));
            match s.solve_assuming_guarded(u64::MAX, &Guard::new(), &assumptions) {
                SatResult::Sat => continue,
                SatResult::Unsat => break,
                SatResult::Unknown => panic!("tiny instance exhausted its budget"),
            }
        }
        // Deactivate the shrink clauses and re-read the final model.
        for a in &acts {
            s.add_clause(&[Lit::neg(*a)]);
        }
        assert_eq!(
            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &[]),
            SatResult::Sat
        );
        let true_set: Vec<usize> = (0..3).filter(|&i| s.value(v[i]) == Some(true)).collect();
        assert!(
            true_set == vec![1] || true_set == vec![0, 2],
            "expected a minimal true-set, got {true_set:?}"
        );
    }

    /// Brute-force evaluator for cross-checking.
    fn brute_force(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Option<Vec<bool>> {
        for mask in 0..(1u32 << num_vars) {
            let assign: Vec<bool> = (0..num_vars).map(|i| mask >> i & 1 == 1).collect();
            if clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| assign[v] == pos))
            {
                return Some(assign);
            }
        }
        None
    }

    #[test]
    fn agrees_with_brute_force_on_pseudorandom_cnfs() {
        let mut state = 0xDEADBEEFu64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..300 {
            let nv = 3 + rand() % 6; // 3..8 vars
            let nc = 2 + rand() % 16;
            let clauses: Vec<Vec<(usize, bool)>> = (0..nc)
                .map(|_| {
                    let len = 1 + rand() % 3;
                    (0..len).map(|_| (rand() % nv, rand() % 2 == 0)).collect()
                })
                .collect();
            let expected = brute_force(nv, &clauses).is_some();
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            for c in &clauses {
                let ls: Vec<Lit> = c.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect();
                s.add_clause(&ls);
            }
            let got = s.solve_guarded(u64::MAX, &Guard::new());
            assert_eq!(
                got == SatResult::Sat,
                expected,
                "round {round}: cnf {clauses:?}"
            );
            if got == SatResult::Sat {
                // The model must satisfy every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, p)| s.value(vars[v]) == Some(p)),
                        "model violates {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_assumption_queries_agree_with_brute_force() {
        // Random CNFs built up in two stages, queried under random
        // assumptions after each stage; cross-checked against brute
        // force with the assumptions added as unit clauses.
        let mut state = 0x5EED5EEDu64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..200 {
            let nv = 3 + rand() % 5; // 3..7 vars
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut cnf: Vec<Vec<(usize, bool)>> = Vec::new();
            let mut broken = false;
            for _stage in 0..2 {
                let nc = 1 + rand() % 8;
                for _ in 0..nc {
                    let len = 1 + rand() % 3;
                    let c: Vec<(usize, bool)> =
                        (0..len).map(|_| (rand() % nv, rand() % 2 == 0)).collect();
                    let ls: Vec<Lit> = c.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect();
                    broken |= !s.add_clause(&ls);
                    cnf.push(c);
                }
                // Random assumptions over distinct vars.
                let na = rand() % 3;
                let mut assumed: Vec<(usize, bool)> = Vec::new();
                for _ in 0..na {
                    let v = rand() % nv;
                    if !assumed.iter().any(|&(w, _)| w == v) {
                        assumed.push((v, rand() % 2 == 0));
                    }
                }
                let assumptions: Vec<Lit> = assumed
                    .iter()
                    .map(|&(v, p)| Lit::with_sign(vars[v], p))
                    .collect();
                let mut full = cnf.clone();
                full.extend(assumed.iter().map(|&(v, p)| vec![(v, p)]));
                let expected = brute_force(nv, &full).is_some();
                let got = s.solve_assuming_guarded(u64::MAX, &Guard::new(), &assumptions);
                assert_eq!(
                    got == SatResult::Sat,
                    expected,
                    "round {round}: cnf {cnf:?} assumed {assumed:?}"
                );
                if got == SatResult::Sat {
                    for c in &full {
                        assert!(
                            c.iter().any(|&(v, p)| s.value(vars[v]) == Some(p)),
                            "model violates {c:?}"
                        );
                    }
                } else {
                    // The failed assumptions alone must re-refute.
                    let core = s.failed_assumptions().to_vec();
                    assert!(core.iter().all(|l| assumptions.contains(l)));
                    if !broken {
                        assert_eq!(
                            s.solve_assuming_guarded(u64::MAX, &Guard::new(), &core),
                            SatResult::Unsat
                        );
                    }
                }
            }
        }
    }
}
