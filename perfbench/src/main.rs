//! Service-level benchmark for `ringen-server`.
//!
//! Drives `SolveServer::submit` from outside, the way `ringen --serve`
//! does, with a closed loop of one client thread per core over a pinned
//! pool of the paper's suites, and reports what a caller sees. A traced
//! run (`--trace 1`) also calls each layer's public function on the
//! same inputs and attributes the time to layers. See `README.md`.
//!
//! ```text
//! ringen-perfbench --workload quick|heavy|diverge [--seed N] [--seconds S]
//!                  [--trace 0|1] [--smoke] [--commit ID] [--out DIR]
//! ringen-perfbench --classify DEADLINE_MS
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A verdict that
//! contradicts ground truth stops the run and exits with status 1.

mod drive;
mod layers;
mod pools;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ringen_server::{ServerConfig, SolveServer};

use drive::{peak_rss_mb, ClosedLoop, LoopResult, Stop};
use pools::PoolSpec;
use report::{median, per_layer, Metrics, END_TO_END, END_TO_END_EXTRA};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    doctor: Option<usize>,
    commit: String,
    out: PathBuf,
    classify: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        doctor: None,
        commit: "unknown".to_string(),
        out: PathBuf::from("perfbench/out"),
        classify: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = num(&value)?,
            "--seconds" => a.seconds = num(&value)?.max(1),
            "--trace" => a.trace = num(&value)? != 0,
            // Flips the verdict of the N-th completed query: the
            // self-test of the ground-truth check.
            "--doctor" => a.doctor = Some(num(&value)? as usize),
            "--commit" => a.commit = value,
            "--out" => a.out = PathBuf::from(value),
            "--classify" => a.classify = Some(num(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringen-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every RINGEN_* knob would change what is measured behind the
    // config built here (thread counts, faults, engine variants).
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RINGEN_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "ringen-perfbench: refusing to run with {} set; unset every RINGEN_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Some(ms) = args.classify {
        pools::classify(Duration::from_millis(ms));
        return ExitCode::SUCCESS;
    }
    let Some(pool) = pools::by_workload(&args.workload) else {
        eprintln!(
            "ringen-perfbench: --workload must be one of {}",
            pools::ALL.map(|p| p.workload).join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&args, pool) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ringen-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints the result; `Ok(false)` when a verdict
/// contradicted ground truth.
fn run(args: &Args, pool: &PoolSpec) -> Result<bool, String> {
    // The service defaults, built explicitly: never `from_env`.
    let cfg = ServerConfig {
        query_deadline: Some(pool.deadline),
        ..ServerConfig::default()
    };
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let l = pool.load()?;
        drop(SolveServer::new(cfg.clone()));
        setups.push(t0.elapsed().as_secs_f64());
        loaded = Some(l);
    }
    let loaded = loaded.expect("at least one set-up");
    let mut inputs = loaded.inputs;
    if args.smoke {
        inputs.retain(|i| pool.smoke.contains(&i.query.name.as_str()));
    }

    println!(
        "{{\"perfbench_env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {clients}, \"clients\": {clients}, \"commit\": {}, \"deadline_ms\": {}, \"systems\": {}, \"fingerprint\": \"{:016x}\"}}}}",
        pool.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        report::json_str(&args.commit),
        pool.deadline.as_millis(),
        inputs.len(),
        loaded.fingerprint,
    );
    println!("pool `{}`: {}", pool.workload, pool.why);
    for g in pool.groups {
        println!("  {} systems: {}", g.names.len(), g.why);
    }
    if loaded.fingerprint != pool.fingerprint {
        println!(
            "WARNING: pool `{}` prints to fingerprint {:016x}, pinned {:016x}: the workload's inputs changed",
            pool.workload, loaded.fingerprint, pool.fingerprint
        );
    }

    let bench = ClosedLoop {
        inputs: &inputs,
        cfg: &cfg,
        clients,
        seed: args.seed,
        doctor: args.doctor,
    };
    bench.warm_up();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), setups.len());
    let mut loops: Vec<LoopResult> = Vec::new();

    if !args.trace || args.smoke {
        let stop = if args.smoke {
            Stop::Count(inputs.len())
        } else {
            Stop::WholePasses(Duration::from_secs(args.seconds))
        };
        let e2e = bench.run(stop, false);
        e2e.end_to_end(&mut m);
        e2e.end_to_end_extra(&mut m, pool.deadline);
        loops.push(e2e);
    }
    if (args.trace || args.smoke) && loops.iter().all(|l| l.contradiction.is_none()) {
        let (plain, traced) = traced_run(args, pool, &bench, &mut m)?;
        loops.push(plain);
        loops.push(traced);
    }
    m.set("e2e.peak_rss_mb", peak_rss_mb(), 1);

    let attempted: usize = loops.iter().map(|l| l.records.len()).sum();
    let failed: usize = loops.iter().map(|l| l.failed()).sum();
    let contradiction = loops.iter().find_map(|l| l.contradiction.clone());
    let layer_names = per_layer();
    let layer_names = layer_names.iter().map(|(n, u)| (n.as_str(), *u));
    let reported: Vec<(&str, &str)> = if args.trace {
        layer_names.clone().collect()
    } else {
        END_TO_END.to_vec()
    };
    // Smoke mode prints every metric of both lists; the plain run adds
    // the unbounded end-to-end quantities.
    let shown: Vec<(&str, &str)> = if args.smoke {
        END_TO_END.iter().copied().chain(layer_names).collect()
    } else if args.trace {
        reported.clone()
    } else {
        END_TO_END.iter().chain(END_TO_END_EXTRA).copied().collect()
    };
    let json = if let Some(c) = &contradiction {
        eprintln!("ringen-perfbench: verdict contradicts ground truth: {c}");
        "{}".to_string()
    } else {
        print!("{}", m.render(shown).0);
        m.render(reported).1
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        contradiction.is_none(),
        attempted,
        failed,
        json
    );
    Ok(contradiction.is_none())
}

/// The traced run: an untraced loop, the same queries again with spans
/// around every `submit`, then the layer and cancellation probes. Fills
/// every per-layer metric and writes the spans out.
fn traced_run(
    args: &Args,
    pool: &PoolSpec,
    bench: &ClosedLoop,
    m: &mut Metrics,
) -> Result<(LoopResult, LoopResult), String> {
    let share = |f: f64| Duration::from_secs(args.seconds).mul_f64(f);
    let whole = Stop::Count(bench.inputs.len());
    let plain = bench.run(
        if args.smoke {
            whole
        } else {
            Stop::Time(share(0.3))
        },
        false,
    );
    let traced = bench.run(Stop::Count(plain.records.len()), true);
    // Probe spans follow the traced loop's on one timeline.
    let epoch = Instant::now() - traced.wall;
    let order = bench.order(0);
    let mut probe_tracer = Tracer::new(epoch, 100);
    let probes = layers::probe_pool(
        bench.inputs,
        &order,
        bench.cfg,
        &traced,
        pool.deadline,
        share(0.25),
        if args.smoke { bench.inputs.len() } else { 1 },
        &mut probe_tracer,
    );
    let mut cancel_tracer = Tracer::new(epoch, 101);
    let cancel = layers::cancel_pool(
        bench.inputs,
        &order,
        bench.cfg,
        share(0.15),
        1,
        !args.smoke,
        &mut cancel_tracer,
    )?;
    layers::metrics(m, &traced, &probes, &cancel);
    plain.end_to_end_extra(m, pool.deadline);
    let n = traced.records.len();
    m.set("trace.latency_p50_ms", traced.latency_p50_ms(), n);
    m.set("trace.throughput_qps", traced.throughput_qps(), n);
    m.set(
        "trace.overhead_frac",
        report::ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()) - 1.0,
        n,
    );
    println!(
        "traced run: {n} queries, latency p50 {:.3} ms traced vs {:.3} ms untraced, {:.3} vs {:.3} queries/s; {} systems probed, {} cancellations timed",
        traced.latency_p50_ms(),
        plain.latency_p50_ms(),
        traced.throughput_qps(),
        plain.throughput_qps(),
        probes.len(),
        cancel.samples.len() + cancel.outliers.len(),
    );
    println!("{}", layers::describe_shares(m));
    let mut spans = traced.spans.clone();
    spans.extend(probe_tracer.spans);
    spans.extend(cancel_tracer.spans);
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", pool.workload, args.seed));
    trace::write_chrome(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((plain, traced))
}
