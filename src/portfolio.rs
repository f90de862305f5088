//! The concrete portfolio race: five entrants run concurrently on one
//! system, and the first definitive SAT/UNSAT cancels the rest. They
//! are the bottom-up refuter, FMF-backed regular invariants, `Elem`,
//! `SizeElem`, and `RegElem`.
//!
//! This is §8's hybrid conjecture run as a *race* instead of the
//! chained phases of `ringen_regelem::solve_regelem_guarded`: each
//! representation class gets its own engine with effectively unbounded
//! sweep budgets, so a loser keeps searching until the winner's cancel
//! (or the per-race deadline) trips its [`Guard`]. Figure 1's cheap
//! refutation attempt is raced once, as the `refute` entrant
//! ([`ringen_core::portfolio::refute`]), and the four engines start
//! their own phases at once under a zero-round refuter
//! ([`SaturationConfig::zero_rounds`]). Every UNSAT the race returns
//! carries a replayed refutation. The generic harness lives in
//! [`ringen_core::portfolio`]; this module only supplies the entrants
//! and maps their answer enums onto the racer's verdicts.
//!
//! ```no_run
//! use ringen::core::Guard;
//! use ringen::portfolio::{solve_portfolio_guarded, PortfolioConfig};
//!
//! let sys = ringen::benchgen::programs::even_diag();
//! let (answer, stats) = solve_portfolio_guarded(&sys, &PortfolioConfig::default(), &Guard::new());
//! assert!(answer.is_sat()); // the first certified invariant wins; the rest are cancelled
//! for report in &stats.engines {
//!     println!("{:<10} {:?} after {:?}", report.name, report.status, report.elapsed);
//! }
//! ```

use std::time::Duration;

use ringen_automata::AutStore;
use ringen_chc::ChcSystem;
use ringen_core::portfolio::{
    race, refute, refute_budget, Engine, EngineVerdict, RaceConfig, RaceOutcome,
};
use ringen_core::{solve_guarded, Answer, Guard, Refutation, RingenConfig, SaturationConfig};
use ringen_elem::{solve_elem_guarded, ElemAnswer, ElemConfig};
use ringen_parallel::ParallelConfig;
use ringen_regelem::{solve_regelem_guarded, RegElemAnswer, RegElemConfig};
use ringen_sizeelem::{solve_size_elem_guarded, SizeElemAnswer, SizeElemConfig};

pub use ringen_core::portfolio::{EngineReport, EngineStatus, PortfolioStats};

/// The winning entrant's full answer, tagged by engine.
#[derive(Debug)]
pub enum EngineAnswer {
    /// The bottom-up refuter: the replayed refutation when it found one.
    Refute(Option<Refutation>),
    /// The paper's tool: regular invariants by finite-model finding.
    Fmf(Answer),
    /// Elementary templates (the Spacer role).
    Elem(ElemAnswer),
    /// Size-extended elementary templates (the Eldarica role).
    SizeElem(SizeElemAnswer),
    /// The combined template-plus-membership search.
    RegElem(RegElemAnswer),
}

/// The race's overall verdict.
#[derive(Debug)]
pub enum PortfolioAnswer {
    /// Some engine certified the system safe; its answer is attached.
    Sat(EngineAnswer),
    /// Some engine refuted the system; its answer is attached.
    Unsat(EngineAnswer),
    /// Every engine exhausted its own budgets.
    Unknown,
    /// The deadline (or an outer cancel) cut the race short. The
    /// [`PortfolioStats`] still carry every engine's partial outcome.
    Interrupted,
}

impl PortfolioAnswer {
    /// `true` for [`PortfolioAnswer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, PortfolioAnswer::Sat(_))
    }

    /// `true` for [`PortfolioAnswer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, PortfolioAnswer::Unsat(_))
    }

    /// `true` for [`PortfolioAnswer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, PortfolioAnswer::Unknown)
    }

    /// `true` for [`PortfolioAnswer::Interrupted`].
    pub fn is_interrupted(&self) -> bool {
        matches!(self, PortfolioAnswer::Interrupted)
    }
}

/// Number of entrants in the race.
const ENGINES: usize = 5;

/// Budgets and knobs for [`solve_portfolio_guarded`].
///
/// The engine configurations default to *racing* budgets: sweep limits
/// high enough that an entrant effectively runs until cancelled. A
/// race with one worker thread and no deadline therefore degenerates to
/// the sequential chain *and* inherits its divergence — bound it with
/// [`PortfolioConfig::deadline`] (or `RINGEN_DEADLINE_MS` via
/// [`PortfolioConfig::from_env`]).
///
/// The racer pool defaults to one worker per entrant — race
/// concurrency is structural, not hardware-bound, and a loser can only
/// be *cancelled* while a sibling makes progress — unless
/// `RINGEN_THREADS` is set, which pins it like everywhere else.
///
/// The four engine configurations default to a zero-round refuter: the
/// `refute` entrant, under [`refute_budget`], is the race's only
/// refuter, so the race refutes once instead of once per engine.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Wall-clock budget for the whole race; `None` races unbounded.
    pub deadline: Option<Duration>,
    /// Worker pool for the entrants (the engines' inner sweeps read
    /// their own `parallel` knobs independently).
    pub parallel: ParallelConfig,
    /// Budgets for the regular-invariant entrant.
    pub fmf: RingenConfig,
    /// Budgets for the elementary entrant.
    pub elem: ElemConfig,
    /// Budgets for the size-elementary entrant.
    pub sizeelem: SizeElemConfig,
    /// Budgets for the combined entrant.
    pub regelem: RegElemConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        let mut fmf = RingenConfig {
            saturation: SaturationConfig::zero_rounds(),
            ..RingenConfig::default()
        };
        // The model-size sweep grows exponentially; 64 total domain
        // elements is "until cancelled" in practice.
        fmf.finder.max_total_size = 64;
        let parallel = if std::env::var_os("RINGEN_THREADS").is_some() {
            ParallelConfig::from_env()
        } else {
            ParallelConfig::with_threads(ENGINES)
        };
        PortfolioConfig {
            deadline: None,
            parallel,
            fmf,
            elem: ElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                max_assignments: u64::MAX,
                ..ElemConfig::default()
            },
            sizeelem: SizeElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                max_assignments: u64::MAX,
                ..SizeElemConfig::default()
            },
            regelem: RegElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                max_assignments: u64::MAX,
                ..RegElemConfig::default()
            },
        }
    }
}

impl PortfolioConfig {
    /// Default racing budgets plus the `RINGEN_DEADLINE_MS` and
    /// `RINGEN_THREADS` environment knobs (see `ENVIRONMENT.md`).
    pub fn from_env() -> Self {
        PortfolioConfig {
            deadline: ringen_core::deadline_ms_from_env().map(Duration::from_millis),
            ..PortfolioConfig::default()
        }
    }
}

fn fmf_verdict(a: &Answer) -> EngineVerdict {
    match a {
        Answer::Sat(_) => EngineVerdict::Sat,
        Answer::Unsat(_) => EngineVerdict::Unsat,
        Answer::Unknown(_) => EngineVerdict::Unknown,
        Answer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn elem_verdict(a: &ElemAnswer) -> EngineVerdict {
    match a {
        ElemAnswer::Sat(_) => EngineVerdict::Sat,
        ElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        ElemAnswer::Unknown => EngineVerdict::Unknown,
        ElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn sizeelem_verdict(a: &SizeElemAnswer) -> EngineVerdict {
    match a {
        SizeElemAnswer::Sat(_) => EngineVerdict::Sat,
        SizeElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        SizeElemAnswer::Unknown => EngineVerdict::Unknown,
        SizeElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn regelem_verdict(a: &RegElemAnswer) -> EngineVerdict {
    match a {
        RegElemAnswer::Sat(..) => EngineVerdict::Sat,
        RegElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        RegElemAnswer::Unknown => EngineVerdict::Unknown,
        RegElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

/// Races the refuter and the four engines on `sys` (see the module
/// docs) under an outer [`Guard`]: cancelling it cancels every entrant.
pub fn solve_portfolio_guarded(
    sys: &ChcSystem,
    cfg: &PortfolioConfig,
    guard: &Guard,
) -> (PortfolioAnswer, PortfolioStats) {
    let engines: Vec<Engine<'_, EngineAnswer>> = vec![
        Engine::new("refute", |g: &Guard| {
            let (verdict, refutation, _) = refute(sys, &refute_budget(), g);
            (verdict, EngineAnswer::Refute(refutation))
        }),
        Engine::new("fmf", |g: &Guard| {
            // Each entrant owns its store: a cancelled engine must not
            // leave a shared store mid-solve.
            let mut store = AutStore::new();
            let (answer, _) = solve_guarded(sys, &cfg.fmf, &mut store, g);
            (fmf_verdict(&answer), EngineAnswer::Fmf(answer))
        }),
        Engine::new("elem", |g: &Guard| {
            let (answer, _) = solve_elem_guarded(sys, &cfg.elem, g);
            (elem_verdict(&answer), EngineAnswer::Elem(answer))
        }),
        Engine::new("sizeelem", |g: &Guard| {
            let (answer, _) = solve_size_elem_guarded(sys, &cfg.sizeelem, g);
            (sizeelem_verdict(&answer), EngineAnswer::SizeElem(answer))
        }),
        Engine::new("regelem", |g: &Guard| {
            let (answer, _) = solve_regelem_guarded(sys, &cfg.regelem, g);
            (regelem_verdict(&answer), EngineAnswer::RegElem(answer))
        }),
    ];
    let race_cfg = RaceConfig {
        deadline: cfg.deadline,
        parallel: cfg.parallel.clone(),
    };
    let (outcome, stats) = race(engines, &race_cfg, guard);
    let answer = match outcome {
        RaceOutcome::Decided { verdict, value, .. } => match verdict {
            EngineVerdict::Sat => PortfolioAnswer::Sat(value),
            EngineVerdict::Unsat => PortfolioAnswer::Unsat(value),
            _ => unreachable!("a race is only decided by a definitive verdict"),
        },
        RaceOutcome::Undecided => PortfolioAnswer::Unknown,
        RaceOutcome::Interrupted => PortfolioAnswer::Interrupted,
    };
    (answer, stats)
}
