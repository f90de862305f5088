//! `ringen` — command-line regular-invariant inference for CHCs over
//! ADTs, in the spirit of the original tool: reads an SMT-LIB2-subset
//! file, prints `sat` with the inferred tree-automaton invariant,
//! `unsat` with a ground refutation, or `unknown`.
//!
//! ```text
//! ringen [--quick] [--quiet] [--report-json PATH] FILE.smt2
//! ringen --solver elem|sizeelem|regelem|induction|verimap|portfolio FILE.smt2
//! ringen --serve [--health-json PATH] FILE.smt2 [FILE.smt2 ...]
//! ```
//!
//! The `regelem` solver is the hybrid chain: regular invariants by
//! finite-model finding, then elementary templates, then the combined
//! template-plus-membership search of `ringen-regelem`. The
//! `portfolio` solver *races* the bottom-up refuter and the four
//! representation-class engines concurrently instead, with cooperative
//! cancellation; bound it with
//! `RINGEN_DEADLINE_MS` (a deadlined race exits cleanly with
//! `unknown`).
//!
//! `--report-json PATH` writes a `ringen-solve-report-v1` document —
//! the recorder's span tree plus the engines' statistics — after the
//! solve. Without the flag, `RINGEN_TRACE=PATH` does the same (and
//! `RINGEN_TRACE_FORMAT=chrome` switches the serialization to Chrome
//! `trace_event` JSON for Perfetto). See `ENVIRONMENT.md`.
//!
//! `--serve` runs every positional file as one batch through the
//! fault-tolerant solve service (`ringen-server`): bounded admission,
//! per-query deadlines and retries, panic quarantine, and a shared
//! verdict memo. One status line per file goes to stdout, and the
//! service's health snapshot (`ringen-server-health-v1`) goes to
//! `--health-json PATH` (validated by `trace_check --health`) or, by
//! default, to stdout. The `RINGEN_SERVER_*`, `RINGEN_DEADLINE_MS`,
//! and `RINGEN_FAULTS` knobs configure the service.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ringen::obs::report::Section;
use ringen::report::{self, SolveReport, TraceFormat};
use ringen_automata::AutStore;
use ringen_chc::parse_str;
use ringen_core::{solve_guarded, Answer, Guard, Recorder, RecorderLimits, RingenConfig};

fn main() -> ExitCode {
    let mut quick = false;
    let mut quiet = false;
    let mut serve = false;
    let mut solver = String::from("ringen");
    let mut report_json: Option<PathBuf> = None;
    let mut health_json: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--serve" => serve = true,
            "--solver" => match args.next() {
                Some(s) => solver = s,
                None => return usage("missing value for --solver"),
            },
            "--report-json" => match args.next() {
                Some(p) => report_json = Some(PathBuf::from(p)),
                None => return usage("missing value for --report-json"),
            },
            "--health-json" => match args.next() {
                Some(p) => health_json = Some(PathBuf::from(p)),
                None => return usage("missing value for --health-json"),
            },
            "-h" | "--help" => {
                eprintln!(
                    "usage: ringen [--quick] [--quiet] [--solver NAME] [--report-json PATH] \
                     FILE.smt2"
                );
                eprintln!("       ringen --serve [--health-json PATH] FILE.smt2 [FILE.smt2 ...]");
                eprintln!(
                    "solvers: ringen (default), elem, sizeelem, regelem, induction, verimap, \
                     portfolio"
                );
                return ExitCode::SUCCESS;
            }
            _ if !a.starts_with('-') => files.push(a),
            _ => return usage("unexpected argument"),
        }
    }
    if serve {
        if files.is_empty() {
            return usage("no input files");
        }
        return serve_batch(&files, health_json, quiet);
    }
    if files.len() > 1 {
        return usage("multiple input files need --serve");
    }
    let Some(file) = files.pop() else {
        return usage("no input file");
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ringen: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sys = match parse_str(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ringen: parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = sys.well_sorted() {
        eprintln!("ringen: ill-sorted input: {e}");
        return ExitCode::FAILURE;
    }

    // The flag wins over the environment; `RINGEN_TRACE_FORMAT` only
    // applies to the env path (`--report-json` always writes the
    // report document its name promises).
    let trace = report_json
        .map(|p| (p, TraceFormat::Report))
        .or_else(report::trace_from_env);
    let recorder = if trace.is_some() {
        // Bounded sinks apply to CLI traces too: a capped ring or
        // sampled recorder still reports exact dropped counts.
        Recorder::with_limits(RecorderLimits::from_env())
    } else {
        Recorder::disabled()
    };
    let guard = Guard::from_env().with_recorder(recorder.clone());
    let start = Instant::now();
    let root = recorder.span("solve");

    let mut sections: Vec<Section> = Vec::new();
    let verdict: &'static str = match solver.as_str() {
        "ringen" => {
            let cfg = if quick {
                RingenConfig::quick()
            } else {
                RingenConfig::default()
            };
            // The CLI owns one automaton store for the whole solve, so
            // every verification pass shares the memoized Boolean
            // algebra.
            let mut store = AutStore::new();
            let (answer, stats) = solve_guarded(&sys, &cfg, &mut store, &guard);
            sections = report::solve_sections(&stats);
            sections.push(report::store_section(&store.stats()));
            match answer {
                Answer::Sat(sat) => {
                    println!("sat");
                    if !quiet {
                        println!("; finite model size {:?}", stats.model_size);
                        if let Some(f) = &stats.finder {
                            println!(
                                "; fmf sweep: {} vectors ({} solver reuses), {} delta clauses, \
                                 {} atoms minimized away",
                                f.vectors_tried,
                                f.solver_reuses,
                                f.delta_clauses,
                                f.minimized_atoms
                            );
                        }
                        let st = store.stats();
                        println!(
                            "; automaton store: {} tables, {} memo hits / {} misses",
                            st.interned_dftas, st.memo_hits, st.memo_misses
                        );
                        print!("{}", sat.invariant.display(&sat.preprocessed.system));
                    }
                    "sat"
                }
                Answer::Unsat(r) => {
                    println!("unsat");
                    if !quiet {
                        println!("; ground refutation with {} steps", r.len());
                    }
                    "unsat"
                }
                Answer::Unknown(d) => {
                    println!("unknown");
                    if !quiet {
                        println!("; {d:?}");
                    }
                    "unknown"
                }
                Answer::Interrupted => {
                    println!("unknown");
                    if !quiet {
                        println!("; interrupted (RINGEN_DEADLINE_MS)");
                    }
                    "interrupted"
                }
            }
        }
        "elem" => {
            let cfg = if quick {
                ringen_elem::ElemConfig::quick()
            } else {
                Default::default()
            };
            let (answer, stats) = ringen_elem::solve_elem_guarded(&sys, &cfg, &guard);
            sections.push(report::elem_section(&stats));
            print_plain(answer.is_sat(), answer.is_unsat());
            verdict_str(answer.is_sat(), answer.is_unsat(), answer.is_interrupted())
        }
        "sizeelem" => {
            let cfg = if quick {
                ringen_sizeelem::SizeElemConfig::quick()
            } else {
                Default::default()
            };
            let (answer, stats) = ringen_sizeelem::solve_size_elem_guarded(&sys, &cfg, &guard);
            sections.push(report::sizeelem_section(&stats));
            print_plain(answer.is_sat(), answer.is_unsat());
            verdict_str(answer.is_sat(), answer.is_unsat(), answer.is_interrupted())
        }
        "regelem" => {
            let cfg = if quick {
                ringen_regelem::RegElemConfig::quick()
            } else {
                Default::default()
            };
            let (answer, stats) = ringen_regelem::solve_regelem_guarded(&sys, &cfg, &guard);
            sections = report::regelem_sections(&stats);
            match answer {
                ringen_regelem::RegElemAnswer::Sat(inv, provenance) => {
                    println!("sat");
                    if !quiet {
                        println!("; deciding phase: {provenance:?}");
                        for (p, f) in &inv.formulas {
                            println!("; {}(#…) ≡ {}", sys.rels.decl(*p).name, f.display(&sys.sig));
                        }
                    }
                    "sat"
                }
                ringen_regelem::RegElemAnswer::Unsat(r) => {
                    println!("unsat");
                    if !quiet {
                        println!("; ground refutation with {} steps", r.len());
                    }
                    "unsat"
                }
                ringen_regelem::RegElemAnswer::Unknown => {
                    println!("unknown");
                    "unknown"
                }
                ringen_regelem::RegElemAnswer::Interrupted => {
                    println!("unknown");
                    "interrupted"
                }
            }
        }
        "induction" => {
            let cfg = if quick {
                ringen_induction::InductionConfig::quick()
            } else {
                Default::default()
            };
            // Well-sortedness was checked right after parsing.
            let (answer, _) =
                ringen_induction::solve_induction(&sys, &cfg).expect("checked well-sorted");
            print_plain(answer.is_sat(), answer.is_unsat());
            verdict_str(answer.is_sat(), answer.is_unsat(), false)
        }
        "portfolio" => {
            use ringen::portfolio::{solve_portfolio_guarded, PortfolioAnswer, PortfolioConfig};
            let (answer, stats) =
                solve_portfolio_guarded(&sys, &PortfolioConfig::from_env(), &guard);
            sections = report::portfolio_sections(&stats);
            let v = match answer {
                PortfolioAnswer::Sat(_) => "sat",
                PortfolioAnswer::Unsat(_) => "unsat",
                PortfolioAnswer::Unknown => "unknown",
                PortfolioAnswer::Interrupted => "interrupted",
            };
            println!("{}", if v == "interrupted" { "unknown" } else { v });
            if !quiet {
                for report in &stats.engines {
                    println!(
                        "; {:<10} {:?} after {}ms",
                        report.name,
                        report.status,
                        report.elapsed.as_millis()
                    );
                }
            }
            v
        }
        "verimap" => {
            let cfg = if quick {
                ringen_verimap::VerimapConfig::quick()
            } else {
                Default::default()
            };
            let (answer, _) = ringen_verimap::solve_verimap_guarded(&sys, &cfg, &guard)
                .expect("checked well-sorted");
            print_plain(answer.is_sat(), answer.is_unsat());
            verdict_str(answer.is_sat(), answer.is_unsat(), answer.is_interrupted())
        }
        other => return usage(&format!("unknown solver {other}")),
    };

    drop(root);
    if let Some((path, format)) = trace {
        let doc = SolveReport {
            program: file.clone(),
            solver: solver.clone(),
            verdict: verdict.to_string(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            trace: recorder.snapshot(),
            sections,
        };
        if let Err(e) = std::fs::write(&path, report::render(&doc, format)) {
            eprintln!("ringen: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--serve`: every file is one query in a single batch against the
/// resident solve service; the health snapshot is the batch's
/// machine-readable summary.
fn serve_batch(files: &[String], health_json: Option<PathBuf>, quiet: bool) -> ExitCode {
    use ringen::server::{Query, QueryOutcome, ServerConfig, SolveServer};

    let mut queries = Vec::with_capacity(files.len());
    for file in files {
        match std::fs::read_to_string(file) {
            Ok(text) => queries.push(Query::new(file.clone(), text)),
            Err(e) => {
                eprintln!("ringen: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let server = SolveServer::new(ServerConfig::from_env());
    let outcomes = server.submit_batch(&queries);
    let mut failed = false;
    for outcome in &outcomes {
        println!("{}", outcome.describe());
        if matches!(outcome, QueryOutcome::Invalid { .. }) {
            failed = true;
        }
    }
    let health = server.health();
    if !quiet {
        eprintln!(
            "; served {} queries: {} completed, {} shed, {} retries, {} quarantined, \
             {} cache hits",
            outcomes.len(),
            health.completed,
            health.sheds,
            health.retries,
            health.quarantined,
            health.cache_hits
        );
    }
    match health_json {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, health.to_json_string()) {
                eprintln!(
                    "ringen: cannot write health snapshot {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
        None => println!("{}", health.to_json_string()),
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_plain(sat: bool, unsat: bool) {
    if sat {
        println!("sat");
    } else if unsat {
        println!("unsat");
    } else {
        println!("unknown");
    }
}

fn verdict_str(sat: bool, unsat: bool, interrupted: bool) -> &'static str {
    if sat {
        "sat"
    } else if unsat {
        "unsat"
    } else if interrupted {
        "interrupted"
    } else {
        "unknown"
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ringen: {msg}; try --help");
    ExitCode::FAILURE
}
