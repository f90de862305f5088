//! Acceptance tests for the cancellation subsystem and the portfolio
//! racer: a divergent system under a tight deadline comes home as
//! `Interrupted` with partial stats (no panic, no hang) at 1 and 4
//! worker threads, and the race agrees with the sequential
//! `solve_regelem_guarded` chain on the showcase programs while actually
//! cancelling the losers.

use std::time::{Duration, Instant};

use ringen::automata::AutStore;
use ringen::benchgen::programs;
use ringen::core::{check_refutation, solve_guarded, Answer, Guard, RingenConfig};
use ringen::parallel::ParallelConfig;
use ringen::portfolio::{
    solve_portfolio_guarded, EngineAnswer, EngineStatus, PortfolioAnswer, PortfolioConfig,
};
use ringen::regelem::{solve_regelem_guarded, RegElemAnswer, RegElemConfig};

/// Diag diverges under the regular-invariant engine (Prop. 11: the
/// diagonal is not regular), so the finder sweeps sizes forever; a
/// 50ms deadline must interrupt it cleanly at any thread count.
#[test]
fn divergent_solve_under_deadline_interrupts_with_partial_stats() {
    let sys = programs::diag();
    for threads in [1usize, 4] {
        let mut cfg = RingenConfig::default();
        // An effectively unbounded sweep: only the deadline stops it.
        cfg.finder.max_total_size = 64;
        cfg.saturation.parallel = ParallelConfig::with_threads(threads);
        cfg.finder.parallel = ParallelConfig::with_threads(threads);
        let mut store = AutStore::new();
        let guard = Guard::with_deadline(Duration::from_millis(50));
        let start = Instant::now();
        let (answer, stats) = solve_guarded(&sys, &cfg, &mut store, &guard);
        let elapsed = start.elapsed();
        assert!(
            matches!(answer, Answer::Interrupted),
            "threads={threads}: expected Interrupted, got {answer:?}"
        );
        // Partial stats from the phases that did run.
        assert!(
            stats.saturation.is_some() || stats.finder.is_some(),
            "threads={threads}: expected partial stats, got {stats:?}"
        );
        // Came home near the deadline — not a hang. Generous bound:
        // the engine polls cooperatively, it does not preempt.
        assert!(
            elapsed < Duration::from_secs(30),
            "threads={threads}: took {elapsed:?}"
        );
        // The store survived the interruption: an easy solve on the
        // same store still succeeds.
        let (answer, _) = solve_guarded(&sys, &RingenConfig::quick(), &mut store, &Guard::new());
        assert!(
            matches!(answer, Answer::Unknown(_)),
            "threads={threads}: quick Diag solve should exhaust budgets, got {answer:?}"
        );
    }
}

/// The deadline also bounds the whole portfolio race.
#[test]
fn deadlined_portfolio_race_degrades_gracefully() {
    let sys = programs::even_left_diag(); // no engine solves this one
    for threads in [1usize, 4] {
        let cfg = PortfolioConfig {
            deadline: Some(Duration::from_millis(50)),
            parallel: ParallelConfig::with_threads(threads),
            ..PortfolioConfig::default()
        };
        let start = Instant::now();
        let (answer, stats) = solve_portfolio_guarded(&sys, &cfg, &Guard::new());
        assert!(
            answer.is_interrupted(),
            "threads={threads}: expected Interrupted, got {answer:?}"
        );
        assert!(stats.timed_out() >= 1, "threads={threads}: {stats:?}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "threads={threads}"
        );
    }
}

/// The race returns the same verdict as the sequential
/// `solve_regelem_guarded` chain on the four `hybrid_portfolio`
/// programs, and in every decided race at least one losing engine is
/// *cancelled* (observed via `PortfolioStats`), not merely left to
/// finish.
#[test]
fn portfolio_matches_sequential_regelem_and_cancels_losers() {
    let cases = [
        ("Even", programs::even()),
        ("IncDec", programs::inc_dec()),
        ("Diag", programs::diag()),
        ("EvenDiag", programs::even_diag()),
    ];
    for (name, sys) in cases {
        let seq_cfg = if name == "EvenDiag" {
            // The regular and elementary phases provably diverge on
            // EvenDiag (Props. 1 and 11); skip straight to the combined
            // phase, as the `ringen-regelem` crate docs do — the
            // verdict is the same, the wall-clock is not.
            RegElemConfig {
                regular: None,
                elementary: None,
                ..RegElemConfig::quick()
            }
        } else {
            RegElemConfig::quick()
        };
        let (sequential, _) = solve_regelem_guarded(&sys, &seq_cfg, &Guard::new());
        let cfg = PortfolioConfig {
            parallel: ParallelConfig::with_threads(4),
            ..PortfolioConfig::default()
        };
        let (raced, stats) = solve_portfolio_guarded(&sys, &cfg, &Guard::new());
        let agree = matches!(
            (&sequential, &raced),
            (RegElemAnswer::Sat(..), PortfolioAnswer::Sat(_))
                | (RegElemAnswer::Unsat(_), PortfolioAnswer::Unsat(_))
                | (RegElemAnswer::Unknown, PortfolioAnswer::Unknown)
        );
        assert!(
            agree,
            "{name}: sequential {sequential:?} vs raced {raced:?}"
        );
        assert!(
            stats.winner.is_some(),
            "{name}: every showcase program is decided, got {stats:?}"
        );
        assert!(
            stats.cancelled() >= 1,
            "{name}: expected at least one cancelled loser, got {stats:?}"
        );
        let winner = stats.winner_report().expect("decided race");
        assert_eq!(winner.status, EngineStatus::Won, "{name}");
    }
}

/// The race refutes once: only the `refute` entrant can claim UNSAT
/// (the four engines race with zero-round refuters), and the
/// refutation it returns replays.
#[test]
fn unsat_races_are_won_by_the_replayed_refutation() {
    let sys = ringen::chc::parse_str(
        r#"
        (declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (p Z))
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))
        (assert (=> (p (S (S Z))) false))
        "#,
    )
    .unwrap();
    for threads in [1usize, 5] {
        let cfg = PortfolioConfig {
            parallel: ParallelConfig::with_threads(threads),
            ..PortfolioConfig::default()
        };
        let (answer, stats) = solve_portfolio_guarded(&sys, &cfg, &Guard::new());
        match answer {
            PortfolioAnswer::Unsat(EngineAnswer::Refute(Some(r))) => {
                assert!(check_refutation(&sys, &r).is_ok(), "threads={threads}")
            }
            other => panic!("threads={threads}: expected the refuter's UNSAT, got {other:?}"),
        }
        assert_eq!(stats.winner_report().map(|w| w.name), Some("refute"));
        for e in &stats.engines {
            assert!(
                e.name == "refute" || e.status != EngineStatus::Lost,
                "threads={threads}: {} also claimed a verdict: {stats:?}",
                e.name
            );
        }
    }
}
