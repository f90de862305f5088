//! Bounded poll gaps: the regions an engine used to run without polling
//! its guard now notice a cancel promptly. Each timing test starts one
//! engine on a system where the region dominates, cancels its guard
//! about 20 ms in, and asserts the engine comes home interrupted within
//! a bound. Each bound is generous for a debug build on a shared host
//! (the polled regions return within a tenth of it), while the unpolled
//! regions took more than ten times as long. The template sweeps and
//! the refuter's round merge are pinned by fuel instead: their
//! candidates are too cheap for a wall-clock difference, so the tests
//! count the candidates between two polls or find where the last poll
//! lands.

use std::time::{Duration, Instant};

use ringen::benchgen::{programs, tip_suite, type_check_system, TypeExpr};
use ringen::chc::{parse_str, ChcSystem};
use ringen::core::portfolio::{refute, refute_budget, EngineVerdict};
use ringen::core::saturation::SaturationConfig;
use ringen::core::{preprocess, Guard};
use ringen::elem::{solve_elem_guarded, ElemConfig};
use ringen::fmf::{find_model_guarded, FinderConfig, FmfOutcome};
use ringen::regelem::{solve_regelem_guarded, RegElemConfig};
use ringen::sizeelem::{solve_size_elem_guarded, SizeElemConfig};

/// Runs `engine` on a fresh guard, cancels the guard 20 ms in, and
/// returns the engine's result with the time it took to return after
/// the cancel.
fn cancel_after_20ms<T: Send>(engine: impl FnOnce(&Guard) -> T + Send) -> (T, Duration) {
    let guard = Guard::new();
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let out = engine(&guard);
            (out, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(20));
        let cancelled = Instant::now();
        guard.cancel();
        let (out, done) = worker.join().expect("engine panicked");
        (out, done.saturating_duration_since(cancelled))
    })
}

/// `handwritten/inhab-prim-id`: the identity type over a primitive.
fn inhab_prim_id() -> ChcSystem {
    type_check_system(&TypeExpr::arrow(TypeExpr::Prim(0), TypeExpr::Prim(0)))
}

/// Asserts the engine reported the cancel within `bound_ms` of it.
fn assert_prompt(region: &str, interrupted: bool, after_cancel: Duration, bound_ms: u64) {
    assert!(
        interrupted,
        "{region}: the engine did not report the cancel"
    );
    assert!(
        after_cancel < Duration::from_millis(bound_ms),
        "{region}: returned {after_cancel:?} after the cancel"
    );
}

/// The grounding odometer and the clause additions of the incremental
/// sweep: on `tip/unsat-depth-20` they ran 3 s between polls in a
/// release build, 40 s in a debug one.
#[test]
fn fmf_grounding_polls_the_guard() {
    let bench = tip_suite()
        .into_iter()
        .find(|b| b.name == "tip/unsat-depth-20")
        .expect("tip/unsat-depth-20 is in the suite");
    let pre = preprocess(&bench.system);
    let (outcome, after) = cancel_after_20ms(|g| {
        find_model_guarded(&pre.skolemized, &FinderConfig::default(), g)
            .expect("a preprocessed system flattens")
            .0
    });
    assert_prompt(
        "fmf grounding",
        matches!(outcome, FmfOutcome::Interrupted),
        after,
        1000,
    );
}

/// The up-front encoding of the incremental sweep, here at a size cap
/// of 192 on Nat: about two million at-most-one clauses, 3.4 s in a
/// debug build. It now polls once per function cell.
#[test]
fn fmf_encoding_polls_the_guard() {
    let pre = preprocess(&programs::even());
    let cfg = FinderConfig {
        max_total_size: 192,
        max_ground_instances: u64::MAX,
        ..FinderConfig::default()
    };
    let (outcome, after) = cancel_after_20ms(|g| {
        find_model_guarded(&pre.skolemized, &cfg, g)
            .expect("a preprocessed system flattens")
            .0
    });
    assert_prompt(
        "fmf encoding",
        matches!(outcome, FmfOutcome::Interrupted),
        after,
        300,
    );
}

/// The combined phase's language enumeration: seconds per sort on
/// `handwritten/inhab-prim-id` in a release build, over a minute in all
/// in a debug one.
#[test]
fn regelem_language_enumeration_polls_the_guard() {
    let sys = inhab_prim_id();
    let cfg = RegElemConfig {
        saturation: SaturationConfig::zero_rounds(),
        regular: None,
        elementary: None,
        ..RegElemConfig::default()
    };
    let (answer, after) = cancel_after_20ms(|g| solve_regelem_guarded(&sys, &cfg, g).0);
    assert_prompt("regelem enumeration", answer.is_interrupted(), after, 1000);
}

/// The size-image domains of every sort, probed before the sweep: 0.9 s
/// in a debug build on `handwritten/inhab-prim-id`. They now share one
/// counting pass that polls once per term size.
#[test]
fn sizeelem_domains_poll_the_guard() {
    let sys = inhab_prim_id();
    let cfg = SizeElemConfig {
        saturation: SaturationConfig::zero_rounds(),
        ..SizeElemConfig::default()
    };
    let (answer, after) = cancel_after_20ms(|g| solve_size_elem_guarded(&sys, &cfg, g).0);
    assert_prompt("sizeelem domains", answer.is_interrupted(), after, 80);
}

/// Every template sweep polls before every candidate: one more unit of
/// fuel is exactly one more candidate checked. (A fuel guard trips on
/// the poll after its fuel runs out; the polls before the sweep, such as
/// sizeelem's 512 size-domain polls, are the same for both runs.)
#[test]
fn template_sweeps_poll_before_every_candidate() {
    let (even_left, lt_gt) = (programs::even_left(), programs::lt_gt());
    let elem = ElemConfig {
        saturation: SaturationConfig::zero_rounds(),
        ..ElemConfig::default()
    };
    let sizeelem = SizeElemConfig {
        saturation: SaturationConfig::zero_rounds(),
        ..SizeElemConfig::default()
    };
    let regelem = RegElemConfig {
        saturation: SaturationConfig::zero_rounds(),
        regular: None,
        elementary: None,
        ..RegElemConfig::default()
    };
    // Each engine diverges on its system, so its sweep is still running
    // when the fuel runs out.
    type Sweep<'a> = (&'a str, u64, Box<dyn Fn(u64) -> u64 + 'a>);
    let sweeps: [Sweep; 3] = [
        (
            "elem on LtGt",
            300,
            Box::new(|fuel| {
                solve_elem_guarded(&lt_gt, &elem, &Guard::with_fuel(fuel))
                    .1
                    .assignments
            }),
        ),
        (
            "sizeelem on EvenLeft",
            600,
            Box::new(|fuel| {
                solve_size_elem_guarded(&even_left, &sizeelem, &Guard::with_fuel(fuel))
                    .1
                    .assignments
            }),
        ),
        (
            "regelem on LtGt",
            300,
            Box::new(|fuel| {
                solve_regelem_guarded(&lt_gt, &regelem, &Guard::with_fuel(fuel))
                    .1
                    .assignments
            }),
        ),
    ];
    for (name, fuel, assignments) in sweeps {
        let (a, b) = (assignments(fuel), assignments(fuel + 1));
        assert!(a > 0, "{name}: fuel {fuel} ran out before the sweep");
        assert_eq!(b, a + 1, "{name}: one poll covered {} candidates", b - a);
    }
}

/// The refuter's round merge polls its guard. `p(leaf)` and
/// `p(x) → p(node(x, y))` with `y` free grow eightfold per round, so
/// the round that reaches the fact cap merges over a thousand
/// candidates. A fuel guard one poll short of the uncancelled run's
/// total trips at that run's last poll, which sits in the final merge:
/// the refuter comes home interrupted with the facts merged before it,
/// strictly between the previous round's facts and the full run's.
/// Before the merge polled, the last poll sat in the final round's
/// matching, whose deltas a trip discards whole, so this fuel level
/// came home at the previous round's facts.
#[test]
fn refuter_merge_polls_the_guard() {
    let sys = parse_str(
        r#"
        (declare-datatypes ((Tree 0)) (((leaf) (node (l Tree) (r Tree)))))
        (declare-fun p (Tree) Bool)
        (assert (p leaf))
        (assert (forall ((x Tree) (y Tree)) (=> (p x) (p (node x y)))))
        "#,
    )
    .expect("the tree system parses");
    let cfg = SaturationConfig {
        max_facts: 2_000,
        ..refute_budget()
    };
    let run = |cfg: &SaturationConfig, guard: &Guard| {
        let (verdict, _, stats) = refute(&sys, cfg, guard);
        (verdict, stats)
    };
    let (_, full) = run(&cfg, &Guard::new());
    let previous = SaturationConfig {
        max_rounds: full.rounds - 1,
        ..cfg.clone()
    };
    let before_last = run(&previous, &Guard::new()).1.facts;
    // The least fuel that lets the run finish: one poll more than the
    // run makes, since the poll that finds the tank empty trips.
    let interrupted =
        |fuel: u64| run(&cfg, &Guard::with_fuel(fuel)).0 == EngineVerdict::Interrupted;
    let mut hi = 1u64;
    while interrupted(hi) {
        hi *= 2;
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if interrupted(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (verdict, cut) = run(&cfg, &Guard::with_fuel(hi - 1));
    assert_eq!(verdict, EngineVerdict::Interrupted);
    assert!(
        before_last < cut.facts && cut.facts < full.facts,
        "cancelled at the last poll with {} facts; the final round starts at {before_last} \
         and ends at {}",
        cut.facts,
        full.facts
    );
}
