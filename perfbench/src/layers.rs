//! The traced run's layer probes. Each probe calls one layer's public
//! function on a pool system, with the engine configs the server was
//! built with, inside one of the benchmark's own spans:
//!
//! * the layer probe replays what each race entrant does, one layer at
//!   a time, under a deadline equal to the race wall the server
//!   reported for that system, so a loser stops where the race stopped
//!   it;
//! * the cancellation probe starts an entrant, cancels its guard at a
//!   fixed offset, and times how long the entrant takes to return.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ringen_automata::AutStore;
use ringen_benchgen::full_evaluation;
use ringen_chc::{parse_str, to_smtlib, ChcSystem};
use ringen_core::{
    check_inductive_guarded, preprocess, saturate_guarded, solve_guarded, RegularInvariant,
    SaturationOutcome,
};
use ringen_elem::solve_elem_guarded;
use ringen_fmf::{find_model_guarded, FmfOutcome};
use ringen_parallel::Guard;
use ringen_regelem::solve_regelem_guarded;
use ringen_server::ServerConfig;
use ringen_sizeelem::solve_size_elem_guarded;

use crate::drive::{ms, LoopResult};
use crate::pools::Input;
use crate::report::{median, quantile, ratio, set_p50_p90, Metrics, ENGINES, LAYERS};
use crate::trace::Tracer;

/// One template engine's standalone run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRun {
    pub ms: f64,
    pub assignments: u64,
    pub decided: bool,
}

/// Everything the layer probe measured on one system.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// The race wall the calls were capped at.
    pub cap_ms: f64,
    pub print_us: f64,
    pub parse_us: f64,
    pub saturation_ms: f64,
    pub facts: f64,
    pub steps: f64,
    pub budget: bool,
    /// `(ms, clauses_out)`, when the refuter did not decide.
    pub preprocess: Option<(f64, f64)>,
    pub fmf: Option<FmfRun>,
    /// `(ms, memo hits, memo misses)`, when fmf found a model.
    pub inductive: Option<(f64, f64, f64)>,
    pub elem: EngineRun,
    pub sizeelem: EngineRun,
    pub regelem: EngineRun,
    pub langs: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FmfRun {
    pub ms: f64,
    pub vectors: f64,
    pub delta_clauses: f64,
    pub conflicts: f64,
    pub decisions: f64,
    pub propagations: f64,
    pub model: bool,
}

/// Runs the layer probe on one system, recording a span per call.
pub fn probe(
    sys: &ChcSystem,
    name: &str,
    cfg: &ServerConfig,
    cap: Duration,
    t: &mut Tracer,
) -> Probe {
    let mut p = Probe {
        cap_ms: ms(cap),
        ..Probe::default()
    };
    let (text, d) = t.time("chc.print", name, || to_smtlib(sys));
    p.print_us = d.as_secs_f64() * 1e6;
    let (_, d) = t.time("chc.parse", name, || {
        let parsed = parse_str(&text).expect("a printed system parses");
        parsed
            .well_sorted()
            .expect("a printed system is well-sorted");
        parsed
    });
    p.parse_us = d.as_secs_f64() * 1e6;

    // The fmf entrant's phases, in its order, under one guard.
    let g = Guard::with_deadline(cap);
    let ((outcome, st), d) = t.time("saturation", name, || {
        saturate_guarded(sys, &cfg.fmf.saturation, &g)
    });
    p.saturation_ms = ms(d);
    p.facts = st.facts as f64;
    p.steps = st.steps as f64;
    p.budget = matches!(outcome, SaturationOutcome::Budget(_));
    if matches!(
        outcome,
        SaturationOutcome::Saturated(_) | SaturationOutcome::Budget(_)
    ) {
        let (pre, d) = t.time("preprocess", name, || preprocess(sys));
        p.preprocess = Some((ms(d), pre.stats.clauses_out as f64));
        let (found, d) = t.time("fmf", name, || {
            find_model_guarded(&pre.skolemized, &cfg.fmf.finder, &g)
        });
        if let Ok((outcome, fs)) = found {
            p.fmf = Some(FmfRun {
                ms: ms(d),
                vectors: fs.vectors_tried as f64,
                delta_clauses: fs.delta_clauses as f64,
                conflicts: fs.conflicts as f64,
                decisions: fs.decisions as f64,
                propagations: fs.propagations as f64,
                model: matches!(outcome, FmfOutcome::Model(_)),
            });
            if let FmfOutcome::Model(model) = outcome {
                let mut store = AutStore::new();
                let (_, d) = t.time("inductive", name, || {
                    let inv = RegularInvariant::from_model(&pre.system, &model);
                    check_inductive_guarded(&pre.system, &inv, &mut store, &g)
                });
                let s = store.stats();
                p.inductive = Some((ms(d), s.memo_hits as f64, s.memo_misses as f64));
            }
        }
    }

    let ((answer, st), d) = t.time("elem", name, || {
        solve_elem_guarded(sys, &cfg.elem, &Guard::with_deadline(cap))
    });
    p.elem = EngineRun {
        ms: ms(d),
        assignments: st.assignments,
        decided: answer.is_sat() || answer.is_unsat(),
    };
    let ((answer, st), d) = t.time("sizeelem", name, || {
        solve_size_elem_guarded(sys, &cfg.sizeelem, &Guard::with_deadline(cap))
    });
    p.sizeelem = EngineRun {
        ms: ms(d),
        assignments: st.assignments,
        decided: answer.is_sat() || answer.is_unsat(),
    };
    let ((answer, st), d) = t.time("regelem", name, || {
        solve_regelem_guarded(sys, &cfg.regelem, &Guard::with_deadline(cap))
    });
    p.regelem = EngineRun {
        ms: ms(d),
        assignments: st.assignments,
        decided: answer.is_sat() || answer.is_unsat(),
    };
    p.langs = st.langs as f64;
    p
}

/// Runs the layer probe over `order` until `budget` is spent (at least
/// `min` systems). Each system is capped at the largest race wall the
/// traced loop saw for it, or at `deadline` if the loop never ran it.
#[allow(clippy::too_many_arguments)]
pub fn probe_pool(
    inputs: &[Input],
    order: &[usize],
    cfg: &ServerConfig,
    traced: &LoopResult,
    deadline: Duration,
    budget: Duration,
    min: usize,
    t: &mut Tracer,
) -> Vec<Probe> {
    let started = Instant::now();
    let mut out = Vec::new();
    for &i in order {
        if out.len() >= min && started.elapsed() >= budget {
            break;
        }
        let cap = traced
            .records
            .iter()
            .filter(|r| r.input == i)
            .filter_map(|r| r.race)
            .max()
            .unwrap_or(deadline);
        let input = &inputs[i];
        out.push(probe(&input.bench.system, &input.query.name, cfg, cap, t));
    }
    out
}

/// Cancel offsets of the cancellation probe.
pub const CANCEL_OFFSETS: [Duration; 3] = [
    Duration::from_millis(5),
    Duration::from_millis(50),
    Duration::from_millis(200),
];

/// The two late-cancellation cases known when the benchmark was
/// written, probed by name in every traced run so a fix is measured
/// against them: `(metric, engine, instance, cancel offset)`.
pub const OUTLIERS: [(&str, &str, &str, Duration); 2] = [
    (
        "cancel.regelem.inhab-prim-id_ms",
        "regelem",
        "handwritten/inhab-prim-id",
        Duration::from_millis(1000),
    ),
    (
        "cancel.fmf.reg-only-12_ms",
        "fmf",
        "tip/reg-only-12",
        Duration::from_millis(1000),
    ),
];

/// Runs one engine the way the server's race entrant does.
fn run_engine(engine: &str, sys: &ChcSystem, cfg: &ServerConfig, g: &Guard) {
    match engine {
        "fmf" => drop(solve_guarded(sys, &cfg.fmf, &mut AutStore::new(), g)),
        "elem" => drop(solve_elem_guarded(sys, &cfg.elem, g)),
        "sizeelem" => drop(solve_size_elem_guarded(sys, &cfg.sizeelem, g)),
        "regelem" => drop(solve_regelem_guarded(sys, &cfg.regelem, g)),
        other => unreachable!("unknown engine {other}"),
    }
}

/// Starts `engine` on `sys`, calls `Guard::cancel` after `offset`, and
/// returns the time from the cancel to the engine's return; `None` if
/// the engine returned before the offset.
pub fn cancel_latency(
    engine: &str,
    sys: &ChcSystem,
    cfg: &ServerConfig,
    offset: Duration,
) -> Option<Duration> {
    let g = Guard::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            run_engine(engine, sys, cfg, &g);
            let done = Instant::now();
            let _ = tx.send(());
            done
        });
        let cancelled = rx.recv_timeout(offset).is_err().then(|| {
            let at = Instant::now();
            g.cancel();
            at
        });
        let done = worker.join().expect("probe engine panicked");
        cancelled.map(|at| done.saturating_duration_since(at))
    })
}

/// Cancellation samples per engine plus the named outliers.
#[derive(Debug, Default)]
pub struct CancelProbe {
    pub samples: Vec<(&'static str, f64)>,
    pub outliers: Vec<(&'static str, f64)>,
}

/// Runs the cancellation probe over `order` until `budget` is spent (at
/// least `min` systems), then the named outliers when `outliers` is
/// set.
pub fn cancel_pool(
    inputs: &[Input],
    order: &[usize],
    cfg: &ServerConfig,
    budget: Duration,
    min: usize,
    outliers: bool,
    t: &mut Tracer,
) -> Result<CancelProbe, String> {
    let started = Instant::now();
    let mut out = CancelProbe::default();
    for (k, &i) in order.iter().enumerate() {
        if k >= min && started.elapsed() >= budget {
            break;
        }
        let input = &inputs[i];
        for engine in ENGINES {
            for offset in CANCEL_OFFSETS {
                let (lat, _) = t.time(span_name(engine), &input.query.name, || {
                    cancel_latency(engine, &input.bench.system, cfg, offset)
                });
                if let Some(lat) = lat {
                    out.samples.push((engine, ms(lat)));
                }
            }
        }
    }
    if outliers {
        let all = full_evaluation();
        for (metric, engine, name, offset) in OUTLIERS {
            let bench = all
                .iter()
                .find(|b| b.name == name)
                .ok_or_else(|| format!("outlier `{name}` is no longer in full_evaluation()"))?;
            let (lat, _) = t.time(span_name(engine), name, || {
                cancel_latency(engine, &bench.system, cfg, offset)
            });
            out.outliers.push((metric, lat.map_or(0.0, ms)));
        }
    }
    Ok(out)
}

fn span_name(engine: &str) -> &'static str {
    match engine {
        "fmf" => "cancel.fmf",
        "elem" => "cancel.elem",
        "sizeelem" => "cancel.sizeelem",
        _ => "cancel.regelem",
    }
}

/// Fills the server, portfolio, layer and guard metrics.
pub fn metrics(m: &mut Metrics, traced: &LoopResult, probes: &[Probe], cancel: &CancelProbe) {
    server_and_portfolio(m, traced);
    let n = probes.len();
    let col =
        |f: &dyn Fn(&Probe) -> Option<f64>| -> Vec<f64> { probes.iter().filter_map(f).collect() };

    set_p50_p90(m, "chc.parse_us", &col(&|p| Some(p.parse_us)));
    set_p50_p90(m, "chc.print_us", &col(&|p| Some(p.print_us)));

    set_p50_p90(m, "saturation.ms", &col(&|p| Some(p.saturation_ms)));
    m.set("saturation.facts", median(&col(&|p| Some(p.facts))), n);
    m.set("saturation.steps", median(&col(&|p| Some(p.steps))), n);
    let budget = probes.iter().filter(|p| p.budget).count();
    m.set("saturation.budget_frac", ratio(budget as f64, n as f64), n);

    let pre = col(&|p| p.preprocess.map(|x| x.0));
    set_p50_p90(m, "preprocess.ms", &pre);
    m.set(
        "preprocess.clauses_out",
        median(&col(&|p| p.preprocess.map(|x| x.1))),
        pre.len(),
    );

    let fmf: Vec<FmfRun> = probes.iter().filter_map(|p| p.fmf).collect();
    let f = |g: fn(&FmfRun) -> f64| -> Vec<f64> { fmf.iter().map(g).collect() };
    let k = fmf.len();
    set_p50_p90(m, "fmf.ms", &f(|r| r.ms));
    m.set("fmf.vectors", median(&f(|r| r.vectors)), k);
    m.set("fmf.delta_clauses", median(&f(|r| r.delta_clauses)), k);
    let models = fmf.iter().filter(|r| r.model).count();
    m.set("fmf.model_frac", ratio(models as f64, k as f64), k);
    m.set("sat.conflicts", median(&f(|r| r.conflicts)), k);
    m.set("sat.decisions", median(&f(|r| r.decisions)), k);
    m.set("sat.propagations", median(&f(|r| r.propagations)), k);
    let props: f64 = f(|r| r.propagations).iter().sum();
    let fmf_ms: f64 = f(|r| r.ms).iter().sum();
    m.set("sat.props_per_ms", ratio(props, fmf_ms), k);

    let ind: Vec<(f64, f64, f64)> = probes.iter().filter_map(|p| p.inductive).collect();
    let ind_ms: Vec<f64> = ind.iter().map(|x| x.0).collect();
    set_p50_p90(m, "inductive.ms", &ind_ms);
    let hits: f64 = ind.iter().map(|x| x.1).sum();
    let misses: f64 = ind.iter().map(|x| x.2).sum();
    m.set("aut.memo_hits", ratio(hits, ind.len() as f64), ind.len());
    m.set(
        "aut.memo_misses",
        ratio(misses, ind.len() as f64),
        ind.len(),
    );

    for (name, get) in [
        ("elem", (|p: &Probe| p.elem) as fn(&Probe) -> EngineRun),
        ("sizeelem", |p: &Probe| p.sizeelem),
        ("regelem", |p: &Probe| p.regelem),
    ] {
        let runs: Vec<EngineRun> = probes.iter().map(get).collect();
        set_p50_p90(
            m,
            &format!("{name}.ms"),
            &runs.iter().map(|r| r.ms).collect::<Vec<_>>(),
        );
        let assignments: Vec<f64> = runs.iter().map(|r| r.assignments as f64).collect();
        m.set(format!("{name}.assignments"), median(&assignments), n);
        let decided = runs.iter().filter(|r| r.decided).count();
        m.set(
            format!("{name}.decided_frac"),
            ratio(decided as f64, n as f64),
            n,
        );
    }
    m.set("regelem.langs", median(&col(&|p| Some(p.langs))), n);

    for engine in ENGINES {
        let lat: Vec<f64> = cancel
            .samples
            .iter()
            .filter(|(e, _)| *e == engine)
            .map(|(_, l)| *l)
            .collect();
        m.set(
            format!("cancel.{engine}.p50_ms"),
            quantile(&lat, 0.5),
            lat.len(),
        );
        m.set(
            format!("cancel.{engine}.max_ms"),
            lat.iter().copied().fold(0.0, f64::max),
            lat.len(),
        );
    }
    for (metric, _, _, _) in OUTLIERS {
        let v = cancel.outliers.iter().find(|(name, _)| *name == metric);
        m.set(metric, v.map_or(0.0, |x| x.1), usize::from(v.is_some()));
    }

    layer_shares(m, traced, probes);
}

fn server_and_portfolio(m: &mut Metrics, traced: &LoopResult) {
    let recs = &traced.records;
    let n = recs.len();
    let overhead: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.race.map(|race| ms(r.latency) - ms(race)))
        .collect();
    set_p50_p90(m, "server.overhead_ms", &overhead);
    let attempts: u32 = recs.iter().map(|r| r.attempts).sum();
    let retries: u32 = recs.iter().map(|r| r.attempts.saturating_sub(1)).sum();
    m.set("server.attempts", ratio(f64::from(attempts), n as f64), n);
    m.set("server.retries", ratio(f64::from(retries), n as f64), n);
    let hits = recs.iter().filter(|r| r.cached).count();
    m.set("server.memo_hits", hits as f64, n);

    let races: Vec<f64> = recs.iter().filter_map(|r| r.race.map(ms)).collect();
    set_p50_p90(m, "portfolio.race_ms", &races);
    let decided: Vec<_> = recs
        .iter()
        .filter_map(|r| Some((r.race?, r.winner?, r.entrant_sum)))
        .collect();
    let winner: Vec<f64> = decided.iter().map(|(_, (_, w), _)| ms(*w)).collect();
    set_p50_p90(m, "portfolio.winner_ms", &winner);
    let drain: Vec<f64> = decided
        .iter()
        .map(|(race, (_, w), _)| ms(*race) - ms(*w))
        .collect();
    set_p50_p90(m, "portfolio.drain_ms", &drain);
    let useful: f64 = winner.iter().sum();
    let spent: f64 = decided.iter().map(|(_, _, sum)| ms(*sum)).sum();
    m.set("portfolio.useful_frac", ratio(useful, spent), decided.len());
    for engine in ENGINES {
        let wins = decided.iter().filter(|(_, (w, _), _)| *w == engine).count();
        m.set(
            format!("portfolio.wins.{engine}"),
            ratio(wins as f64, decided.len() as f64),
            decided.len(),
        );
    }
}

/// Mean time per system in each layer, its share of the summed layer
/// time, and how far race entrants overlap: the standalone entrant time
/// summed over entrants, per unit of race wall.
fn layer_shares(m: &mut Metrics, traced: &LoopResult, probes: &[Probe]) {
    let n = probes.len() as f64;
    let mean = |f: &dyn Fn(&Probe) -> f64| ratio(probes.iter().map(f).sum(), n);
    let overhead: Vec<f64> = traced
        .records
        .iter()
        .filter_map(|r| r.race.map(|race| ms(r.latency) - ms(race)))
        .collect();
    let per_layer = [
        mean(&|p| (p.parse_us + p.print_us) / 1e3),
        ratio(overhead.iter().sum(), overhead.len() as f64),
        mean(&|p| p.saturation_ms),
        mean(&|p| p.preprocess.map_or(0.0, |x| x.0)),
        mean(&|p| p.fmf.map_or(0.0, |x| x.ms)),
        mean(&|p| p.inductive.map_or(0.0, |x| x.0)),
        mean(&|p| p.elem.ms),
        mean(&|p| p.sizeelem.ms),
        mean(&|p| p.regelem.ms),
    ];
    let total: f64 = per_layer.iter().sum();
    for (layer, v) in LAYERS.iter().zip(per_layer) {
        m.set(
            format!("layer.{layer}.share"),
            ratio(v, total),
            probes.len(),
        );
    }
    m.set("layer.total_ms", total, probes.len());
    let entrants: f64 = per_layer[2..].iter().sum();
    m.set(
        "layer.entrant_overlap",
        ratio(entrants, mean(&|p| p.cap_ms)),
        probes.len(),
    );
}

/// The summed layer time and shares, as lines for the run's log.
pub fn describe_shares(m: &Metrics) -> String {
    let mut out =
        String::from("layer shares of summed layer time (race entrants overlap in time):");
    for layer in LAYERS {
        if let Some(v) = m.get(&format!("layer.{layer}.share")) {
            out.push_str(&format!(" {layer}={:.1}%", v.value * 100.0));
        }
    }
    out
}
