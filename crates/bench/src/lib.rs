//! `ringen-bench` — the experiment harness regenerating every table and
//! figure of §8.
//!
//! Five solver profiles compete, one per column of Table 1:
//!
//! | profile        | engine             | invariant class |
//! |----------------|--------------------|-----------------|
//! | `RInGen`       | `ringen-core`      | `Reg`           |
//! | `Eldarica`     | `ringen-sizeelem`  | `SizeElem`      |
//! | `Spacer`       | `ringen-elem`      | `Elem`          |
//! | `Cvc4Ind`      | `ringen-induction` | —               |
//! | `VerimapIddt`  | `ringen-verimap`   | — (no ADT inv.) |
//!
//! Budgets are deterministic step counts; the per-profile *refuter*
//! budgets differ deliberately, modelling the very different
//! counterexample-search strength the paper measures (Table 1's UNSAT
//! rows). Wall-clock time is recorded for the Figure 4/5 scatter plots
//! but never used for control flow.

pub mod hybrid;

use std::fmt::Write as _;
use std::time::Instant;

use ringen_automata::AutStore;
use ringen_benchgen::{Benchmark, Expected, Family};
use ringen_chc::ChcSystem;
use ringen_core::saturation::SaturationConfig;
use ringen_core::{Answer, Guard, RingenConfig};
use ringen_elem::{ElemAnswer, ElemConfig};
use ringen_fmf::FinderConfig;
use ringen_induction::{InductionAnswer, InductionConfig};
use ringen_sizeelem::{SizeElemAnswer, SizeElemConfig};
use ringen_verimap::{VerimapAnswer, VerimapConfig};

/// The five competing solver profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolverKind {
    /// Regular invariants by finite-model finding (the paper's tool).
    RInGen,
    /// `SizeElem` invariants (the Eldarica role).
    Eldarica,
    /// Elementary invariants (the Z3/Spacer role).
    Spacer,
    /// Structural induction (the CVC4-Ind role).
    Cvc4Ind,
    /// ADT-eliminating transformation (the VeriMAP-iddt role).
    VerimapIddt,
}

impl SolverKind {
    /// All five, in Table 1 column order.
    pub fn all() -> [SolverKind; 5] {
        [
            SolverKind::RInGen,
            SolverKind::Eldarica,
            SolverKind::Spacer,
            SolverKind::Cvc4Ind,
            SolverKind::VerimapIddt,
        ]
    }

    /// Display name (Table 1 header).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::RInGen => "RInGen",
            SolverKind::Eldarica => "Eldarica",
            SolverKind::Spacer => "Spacer",
            SolverKind::Cvc4Ind => "CVC4-Ind",
            SolverKind::VerimapIddt => "VeriMAP-iddt",
        }
    }

    /// The invariant representation the profile infers (Table 1's first
    /// row).
    pub fn invariant_class(self) -> &'static str {
        match self {
            SolverKind::RInGen => "Reg",
            SolverKind::Eldarica => "SizeElem",
            SolverKind::Spacer => "Elem",
            SolverKind::Cvc4Ind => "-",
            SolverKind::VerimapIddt => "-",
        }
    }

    /// The profile's refuter budget. The differences model the engines'
    /// counterexample-search strength (see module docs).
    pub(crate) fn saturation(self) -> SaturationConfig {
        let rounds = match self {
            SolverKind::Spacer => 46,
            SolverKind::RInGen => 44,
            SolverKind::Cvc4Ind => 28,
            SolverKind::Eldarica => 26,
            SolverKind::VerimapIddt => 22,
        };
        SaturationConfig {
            max_facts: 3_000,
            max_rounds: rounds,
            max_term_height: 72,
            free_var_candidates: 6,
            max_steps: 600_000,
            ..SaturationConfig::default()
        }
    }
}

/// An answer, stripped of certificates for tabulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunAnswer {
    /// Safe (with a verified invariant, where the profile produces one).
    Sat,
    /// Unsafe (with a replayed refutation).
    Unsat,
    /// Budgets exhausted — the paper's "timeout".
    Unknown,
}

/// One (solver, benchmark) outcome.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub family: Family,
    /// Ground truth.
    pub expected: Expected,
    /// The verdict.
    pub answer: RunAnswer,
    /// Wall-clock microseconds (Figure 4/5 axis).
    pub micros: u128,
    /// Finite-model size when the RInGen profile answered SAT
    /// (Figure 6's x-axis).
    pub model_size: Option<usize>,
}

impl RunResult {
    /// Whether the verdict contradicts the ground truth (must never
    /// happen; the harness asserts it).
    pub fn is_wrong(&self) -> bool {
        matches!(
            (self.answer, self.expected),
            (RunAnswer::Sat, Expected::Unsat) | (RunAnswer::Unsat, Expected::Sat)
        )
    }
}

/// Batch budgets shared by all profiles (the refuter differs per
/// profile, see [`SolverKind::saturation`]).
pub(crate) fn finder_config() -> FinderConfig {
    FinderConfig {
        max_total_size: 8,
        max_conflicts: 30_000,
        max_ground_instances: 300_000,
        ..FinderConfig::default()
    }
}

pub(crate) const TEMPLATE_ASSIGNMENTS: u64 = 4_000;

/// Runs one solver profile on one system.
pub fn run_solver(kind: SolverKind, sys: &ChcSystem) -> (RunAnswer, Option<usize>) {
    // Budgets, not wall time, bound every profile: the guard never trips.
    let guard = Guard::new();
    match kind {
        SolverKind::RInGen => {
            let cfg = RingenConfig {
                finder: finder_config(),
                saturation: kind.saturation(),
                verify_invariants: true,
            };
            let (answer, stats) =
                ringen_core::solve_guarded(sys, &cfg, &mut AutStore::new(), &guard);
            match answer {
                Answer::Sat(_) => (RunAnswer::Sat, stats.model_size),
                Answer::Unsat(_) => (RunAnswer::Unsat, None),
                // Interrupted is unreachable under the unarmed guard
                // the harness passes, but tabulate it as a timeout if
                // it ever shows up.
                Answer::Unknown(_) | Answer::Interrupted => (RunAnswer::Unknown, None),
            }
        }
        SolverKind::Eldarica => {
            let cfg = SizeElemConfig {
                saturation: kind.saturation(),
                max_assignments: TEMPLATE_ASSIGNMENTS,
                ..SizeElemConfig::quick()
            };
            let (answer, _) = ringen_sizeelem::solve_size_elem_guarded(sys, &cfg, &guard);
            match answer {
                SizeElemAnswer::Sat(_) => (RunAnswer::Sat, None),
                SizeElemAnswer::Unsat(_) => (RunAnswer::Unsat, None),
                SizeElemAnswer::Unknown | SizeElemAnswer::Interrupted => (RunAnswer::Unknown, None),
            }
        }
        SolverKind::Spacer => {
            let cfg = ElemConfig {
                saturation: kind.saturation(),
                max_assignments: TEMPLATE_ASSIGNMENTS,
                ..ElemConfig::quick()
            };
            let (answer, _) = ringen_elem::solve_elem_guarded(sys, &cfg, &guard);
            match answer {
                ElemAnswer::Sat(_) => (RunAnswer::Sat, None),
                ElemAnswer::Unsat(_) => (RunAnswer::Unsat, None),
                ElemAnswer::Unknown | ElemAnswer::Interrupted => (RunAnswer::Unknown, None),
            }
        }
        SolverKind::Cvc4Ind => {
            let cfg = InductionConfig {
                saturation: kind.saturation(),
                ..InductionConfig::quick()
            };
            let (answer, _) = ringen_induction::solve_induction(sys, &cfg)
                .expect("benchmark systems are well-sorted");
            match answer {
                InductionAnswer::Sat(_) => (RunAnswer::Sat, None),
                InductionAnswer::Unsat(_) => (RunAnswer::Unsat, None),
                InductionAnswer::Unknown => (RunAnswer::Unknown, None),
            }
        }
        SolverKind::VerimapIddt => {
            let mut cfg = VerimapConfig::quick();
            cfg.engine.saturation = kind.saturation();
            cfg.engine.max_assignments = TEMPLATE_ASSIGNMENTS;
            let (answer, _) = ringen_verimap::solve_verimap_guarded(sys, &cfg, &guard)
                .expect("benchmark systems are well-sorted");
            match answer {
                VerimapAnswer::Sat(_) => (RunAnswer::Sat, None),
                VerimapAnswer::Unsat(_) => (RunAnswer::Unsat, None),
                VerimapAnswer::Unknown | VerimapAnswer::Interrupted => (RunAnswer::Unknown, None),
            }
        }
    }
}

/// Runs a solver over a suite, timing every instance.
///
/// # Panics
///
/// Panics if a solver contradicts a benchmark's ground truth — that
/// would be a soundness bug, not a measurement.
pub fn run_suite(kind: SolverKind, suite: &[Benchmark]) -> Vec<RunResult> {
    suite
        .iter()
        .map(|b| {
            let start = Instant::now();
            let (answer, model_size) = run_solver(kind, &b.system);
            let micros = start.elapsed().as_micros().max(1);
            let r = RunResult {
                name: b.name.clone(),
                family: b.family,
                expected: b.expected,
                answer,
                micros,
                model_size,
            };
            assert!(
                !r.is_wrong(),
                "{} answered {:?} on {} (expected {:?})",
                kind.name(),
                r.answer,
                r.name,
                r.expected,
            );
            r
        })
        .collect()
}

/// Tabulates Table 1 from per-solver result rows (all over the same
/// benchmark list, in the same order).
pub fn table1(results: &[(SolverKind, Vec<RunResult>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: correct results within the step budget (paper: 300 s timeout)"
    );
    let _ = writeln!(out);
    let header: Vec<String> = results
        .iter()
        .map(|(k, _)| format!("{:>13}", k.name()))
        .collect();
    let classes: Vec<String> = results
        .iter()
        .map(|(k, _)| format!("{:>13}", k.invariant_class()))
        .collect();
    let _ = writeln!(out, "{:<28}{}", "Solver", header.join(""));
    let _ = writeln!(
        out,
        "{:<28}{}",
        "Invariant representation",
        classes.join("")
    );
    for (family, label, answers) in [
        (Family::PositiveEq, "PositiveEq (35)", vec![RunAnswer::Sat]),
        (
            Family::Diseq,
            "Diseq (26)",
            vec![RunAnswer::Sat, RunAnswer::Unsat],
        ),
        (
            Family::Tip,
            "TIP (454)",
            vec![RunAnswer::Sat, RunAnswer::Unsat],
        ),
    ] {
        for want in answers {
            let label_row = format!(
                "{label} {}",
                match want {
                    RunAnswer::Sat => "SAT",
                    RunAnswer::Unsat => "UNSAT",
                    RunAnswer::Unknown => "?",
                }
            );
            let row: Vec<String> = results
                .iter()
                .map(|(_, rs)| {
                    let n = rs
                        .iter()
                        .filter(|r| r.family == family && r.answer == want)
                        .count();
                    format!("{n:>13}")
                })
                .collect();
            let _ = writeln!(out, "{label_row:<28}{}", row.join(""));
            if family == Family::Tip {
                // Unique rows, TIP only (as in the paper).
                let offset = results[0]
                    .1
                    .iter()
                    .position(|r| r.family == Family::Tip)
                    .unwrap_or(0);
                let _ = offset;
                let row: Vec<String> = results
                    .iter()
                    .enumerate()
                    .map(|(i, (_, rs))| {
                        let n = rs
                            .iter()
                            .enumerate()
                            .filter(|(j, r)| {
                                r.family == family
                                    && r.answer == want
                                    && results
                                        .iter()
                                        .enumerate()
                                        .all(|(i2, (_, rs2))| i2 == i || rs2[*j].answer != want)
                            })
                            .count();
                        format!("{n:>13}")
                    })
                    .collect();
                let ulabel = format!(
                    "  unique {}",
                    match want {
                        RunAnswer::Sat => "SAT",
                        RunAnswer::Unsat => "UNSAT",
                        RunAnswer::Unknown => "?",
                    }
                );
                let _ = writeln!(out, "{ulabel:<28}{}", row.join(""));
            }
        }
    }
    // Totals.
    for want in [RunAnswer::Sat, RunAnswer::Unsat] {
        let row: Vec<String> = results
            .iter()
            .map(|(_, rs)| {
                let n = rs
                    .iter()
                    .filter(|r| {
                        matches!(r.family, Family::PositiveEq | Family::Diseq | Family::Tip)
                            && r.answer == want
                    })
                    .count();
                format!("{n:>13}")
            })
            .collect();
        let label = format!(
            "Total (515) {}",
            if want == RunAnswer::Sat {
                "SAT"
            } else {
                "UNSAT"
            }
        );
        let _ = writeln!(out, "{label:<28}{}", row.join(""));
    }
    out
}

/// A point of the Figure 4/5 scatter: RInGen's time vs a competitor's,
/// with timeouts pinned to the border (as in the paper's dashed lines).
#[derive(Debug, Clone, Copy)]
pub struct ScatterPoint {
    /// RInGen microseconds (or the timeout border).
    pub x: u128,
    /// Competitor microseconds (or the timeout border).
    pub y: u128,
    /// Whether either side timed out.
    pub timeout: bool,
}

/// Builds the Figure 4 scatter (all results) or Figure 5 (`sat_only`).
pub fn scatter(
    ringen: &[RunResult],
    other: &[RunResult],
    sat_only: bool,
    timeout_border: u128,
) -> Vec<ScatterPoint> {
    ringen
        .iter()
        .zip(other)
        .filter(|(a, b)| !sat_only || a.answer == RunAnswer::Sat || b.answer == RunAnswer::Sat)
        .map(|(a, b)| {
            let x = if a.answer == RunAnswer::Unknown {
                timeout_border
            } else {
                a.micros
            };
            let y = if b.answer == RunAnswer::Unknown {
                timeout_border
            } else {
                b.micros
            };
            ScatterPoint {
                x,
                y,
                timeout: a.answer == RunAnswer::Unknown || b.answer == RunAnswer::Unknown,
            }
        })
        .collect()
}

/// Renders a log-log ASCII scatter (the Figure 4/5 plots) plus quadrant
/// counts.
pub fn render_scatter(points: &[ScatterPoint], width: usize, height: usize) -> String {
    let mut grid = vec![vec![' '; width]; height];
    let to_log = |v: u128| (v.max(1) as f64).log10();
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for p in points {
        for v in [p.x, p.y] {
            let l = to_log(v);
            lo = lo.min(l);
            hi = hi.max(l);
        }
    }
    if points.is_empty() || (hi - lo).abs() < f64::EPSILON {
        return "(no points)\n".to_string();
    }
    let place = |v: u128, n: usize| {
        let t = (to_log(v) - lo) / (hi - lo);
        ((t * (n - 1) as f64).round() as usize).min(n - 1)
    };
    let mut below = 0usize;
    let mut above = 0usize;
    for p in points {
        let cx = place(p.x, width);
        let cy = height - 1 - place(p.y, height);
        grid[cy][cx] = if p.timeout { 'x' } else { '*' };
        if p.y > p.x {
            above += 1;
        } else {
            below += 1;
        }
    }
    let mut out = String::new();
    for row in grid {
        let _ = writeln!(out, "|{}", row.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "x: RInGen time →, y: competitor time ↑ (log-log); above diagonal = RInGen faster: {above}, below: {below}"
    );
    out
}

/// The Figure 6 histogram: finite-model sizes (sum of sort
/// cardinalities) over every successful RInGen run.
pub fn fig6_histogram(results: &[RunResult]) -> String {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for r in results {
        if let Some(s) = r.model_size {
            *counts.entry(s).or_default() += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: sizes of finite models found (x = Σ sort cardinalities)"
    );
    for (size, n) in &counts {
        let _ = writeln!(out, "{size:>4} | {} {n}", "#".repeat(*n));
    }
    if counts.is_empty() {
        let _ = writeln!(out, "(no models)");
    }
    out
}

/// CSV dump of the per-instance results (one row per benchmark) for
/// external plotting.
pub fn results_csv(results: &[(SolverKind, Vec<RunResult>)]) -> String {
    let mut out = String::from("benchmark,family,expected");
    for (k, _) in results {
        let _ = write!(out, ",{}_answer,{}_us", k.name(), k.name());
    }
    out.push('\n');
    if results.is_empty() {
        return out;
    }
    let n = results[0].1.len();
    for j in 0..n {
        let r0 = &results[0].1[j];
        let _ = write!(out, "{},{:?},{:?}", r0.name, r0.family, r0.expected);
        for (_, rs) in results {
            let r = &rs[j];
            let _ = write!(out, ",{:?},{}", r.answer, r.micros);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_benchgen::programs;

    #[test]
    fn ringen_profile_solves_even() {
        let (answer, size) = run_solver(SolverKind::RInGen, &programs::even());
        assert_eq!(answer, RunAnswer::Sat);
        assert_eq!(size, Some(2));
    }

    #[test]
    fn profiles_divide_the_figure3_programs() {
        // The Figure 3 Venn diagram, executed.
        let cases = [
            ("Even", programs::even(), [true, true, false]),
            ("IncDec", programs::inc_dec(), [true, true, true]),
            ("EvenLeft", programs::even_left(), [true, false, false]),
            ("Diag", programs::diag(), [false, true, true]),
            ("LtGt", programs::lt_gt(), [false, true, false]),
        ];
        for (name, sys, [reg, sizeelem, elem]) in cases {
            let (r, _) = run_solver(SolverKind::RInGen, &sys);
            assert_eq!(r == RunAnswer::Sat, reg, "{name} vs Reg");
            let (r, _) = run_solver(SolverKind::Eldarica, &sys);
            assert_eq!(r == RunAnswer::Sat, sizeelem, "{name} vs SizeElem");
            let (r, _) = run_solver(SolverKind::Spacer, &sys);
            assert_eq!(r == RunAnswer::Sat, elem, "{name} vs Elem");
        }
    }

    #[test]
    fn scatter_and_histogram_render() {
        let rs = vec![
            RunResult {
                name: "a".into(),
                family: Family::Tip,
                expected: Expected::Sat,
                answer: RunAnswer::Sat,
                micros: 120,
                model_size: Some(2),
            },
            RunResult {
                name: "b".into(),
                family: Family::Tip,
                expected: Expected::Sat,
                answer: RunAnswer::Unknown,
                micros: 10_000,
                model_size: None,
            },
        ];
        let pts = scatter(&rs, &rs, false, 1_000_000);
        assert_eq!(pts.len(), 2);
        assert!(render_scatter(&pts, 40, 10).contains('*'));
        assert!(fig6_histogram(&rs).contains('#'));
    }
}
