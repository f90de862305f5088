//! End-to-end portfolio-race latency recorder (`scripts/bench_solvers.sh`).
//!
//! Races the refuter and the four representation-class engines on each
//! showcase program several times and records, per program, the race
//! verdict, the winning engine, and every entrant's per-run latencies
//! (median over repetitions) plus its final status — the end-to-end
//! numbers a user of the portfolio would feel, as opposed to the kernel
//! ratios of `BENCH_automata.json`.
//!
//! Every rep runs under an enabled [`Recorder`], and each entrant's
//! per-phase time (direct child spans of the entrant span, summed by
//! name within a rep) is folded into a per-(engine, phase)
//! [`Histogram`] across all reps. The JSON therefore shows not one
//! anecdotal breakdown but the cross-rep `p50/p90/p99/max` of where
//! the time went — the numbers `trace_diff` gates in CI. Recording
//! overhead rides inside the measured latencies; it is kept honest by
//! the `obs_overhead` bench group that `bench_diff` gates.
//!
//! Output goes to `$BENCH_SOLVERS_JSON` (the script points it at
//! `BENCH_solvers.json` in the repo root). `$BENCH_SOLVERS_REPS`
//! overrides the repetition count (default 5).

use std::collections::BTreeMap;
use std::time::Duration;

use ringen::benchgen::programs;
use ringen::core::{Guard, Recorder};
use ringen::obs::json::Json;
use ringen::obs::{Histogram, SpanRec};
use ringen::parallel::ParallelConfig;
use ringen::portfolio::{solve_portfolio_guarded, PortfolioAnswer, PortfolioConfig};

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

/// Direct child spans of the entrant span named `engine` (under the
/// `race` span), nanoseconds summed by span name — one rep's phase
/// breakdown.
fn phase_breakdown(spans: &[SpanRec], engine: &str) -> Vec<(String, u64)> {
    let race = spans.iter().find(|s| s.name == "race");
    let entrant = spans
        .iter()
        .find(|s| s.name == engine && s.parent == race.map(|r| r.id));
    let Some(entrant) = entrant else {
        return Vec::new();
    };
    let mut out: Vec<(String, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent == Some(entrant.id)) {
        let ns = s.end_ns.saturating_sub(s.start_ns);
        match out.iter_mut().find(|(n, _)| n == s.name) {
            Some((_, total)) => *total += ns,
            None => out.push((s.name.to_string(), ns)),
        }
    }
    out
}

fn main() {
    let reps: usize = std::env::var("BENCH_SOLVERS_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let cases = [
        ("Even", programs::even()),
        ("IncDec", programs::inc_dec()),
        ("Diag", programs::diag()),
        ("EvenDiag", programs::even_diag()),
    ];
    let engine_names = ["refute", "fmf", "elem", "sizeelem", "regelem"];

    let mut program_objs: Vec<(String, Json)> = Vec::new();
    for (name, sys) in &cases {
        // One worker per entrant, regardless of the measuring host:
        // these are race latencies, not hardware benchmarks.
        let cfg = PortfolioConfig {
            parallel: ParallelConfig::with_threads(engine_names.len()),
            ..PortfolioConfig::default()
        };
        let mut race_ms: Vec<f64> = Vec::with_capacity(reps);
        let mut engine_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); engine_names.len()];
        // Per-engine, per-phase latency distribution across reps: one
        // sample per rep (that rep's total time in the phase).
        let mut phase_hists: Vec<BTreeMap<String, Histogram>> =
            vec![BTreeMap::new(); engine_names.len()];
        let mut verdict = "unknown";
        let mut winner = String::from("none");
        let mut statuses: Vec<String> = vec![String::new(); engine_names.len()];
        for _ in 0..reps {
            let recorder = Recorder::new();
            let guard = Guard::new().with_recorder(recorder.clone());
            let (answer, stats) = solve_portfolio_guarded(sys, &cfg, &guard);
            verdict = match answer {
                PortfolioAnswer::Sat(_) => "sat",
                PortfolioAnswer::Unsat(_) => "unsat",
                PortfolioAnswer::Unknown => "unknown",
                PortfolioAnswer::Interrupted => "interrupted",
            };
            race_ms.push(ms(stats.elapsed));
            if let Some(report) = stats.winner_report() {
                winner = report.name.to_string();
            }
            for (ei, report) in stats.engines.iter().enumerate() {
                engine_ms[ei].push(ms(report.elapsed));
                statuses[ei] = format!("{:?}", report.status);
            }
            let trace = recorder.snapshot();
            for (ei, engine) in engine_names.iter().enumerate() {
                for (phase, ns) in phase_breakdown(&trace.spans, engine) {
                    phase_hists[ei].entry(phase).or_default().record(ns);
                }
            }
        }

        eprintln!(
            "{name:<10} {verdict:>8}  winner={winner:<8}  race {:.2}ms",
            median_ms(&mut race_ms)
        );
        let engines = Json::obj(engine_names.iter().enumerate().map(|(ei, engine)| {
            let mut fields = vec![
                ("status".to_string(), Json::Str(statuses[ei].clone())),
                (
                    "median_ms".to_string(),
                    Json::Num(median_ms(&mut engine_ms[ei])),
                ),
            ];
            if !phase_hists[ei].is_empty() {
                fields.push((
                    "phases".to_string(),
                    Json::Obj(
                        phase_hists[ei]
                            .iter()
                            .map(|(phase, h)| {
                                let s = h.summary();
                                (
                                    phase.clone(),
                                    Json::obj([
                                        ("reps", Json::Int(s.count as i64)),
                                        ("p50_us", us(s.p50)),
                                        ("p90_us", us(s.p90)),
                                        ("p99_us", us(s.p99)),
                                        ("max_us", us(s.max)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ));
            }
            (*engine, Json::Obj(fields))
        }));
        program_objs.push((
            (*name).to_string(),
            Json::obj([
                ("verdict", Json::Str(verdict.to_string())),
                ("winner", Json::Str(winner.clone())),
                ("race_median_ms", Json::Num(median_ms(&mut race_ms))),
                ("engines", engines),
            ]),
        ));
    }
    let doc = Json::obj([
        ("reps", Json::Int(reps as i64)),
        ("programs", Json::Obj(program_objs)),
    ]);
    let mut json = doc.to_pretty();
    json.push('\n');

    match std::env::var("BENCH_SOLVERS_JSON") {
        Ok(path) => {
            std::fs::write(&path, &json).expect("write BENCH_SOLVERS_JSON");
            eprintln!("wrote {path}");
        }
        Err(_) => print!("{json}"),
    }
}
