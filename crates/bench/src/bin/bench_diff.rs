//! Compares two `BENCH_automata.json` files and fails on kernel
//! regressions — the CI perf-trend gate.
//!
//! ```text
//! bench_diff <baseline.json> <current.json>
//! ```
//!
//! Raw nanosecond medians are machine-dependent (the committed baseline
//! was measured on a different host than CI), so the gate compares the
//! machine-portable metrics instead:
//!
//! * `speedup_vs_reference` ratios — every interned-vs-reference pair
//!   is measured in the same process on the same machine, so a drop of
//!   more than the tolerance (default 20%, `BENCH_DIFF_TOLERANCE`
//!   overrides, e.g. `0.30`) means the interned kernel genuinely lost
//!   ground against the reference kernel;
//! * `step_allocations_per_100k_probes` — must stay exactly zero;
//! * the `elem_cube` ratio — one cube over `S^64` chains against eight
//!   over `S^8` chains — and the `saturation_enum` ratio — a tree
//!   saturation whose facts bind a free head variable by enumeration
//!   against one whose facts all come from the body join — must each
//!   stay at or above an absolute floor of 0.5 ([`FLOORS`]). They are
//!   read from the current run alone, so the baseline needs no entry
//!   for them.
//!
//! Ratios present on only one side (newly added or retired bench
//! workloads) are reported but never fail the gate.

use std::process::ExitCode;

/// Extracts `"name": number` pairs from the object following `key`.
/// The JSON is produced by this workspace's bench harness, so a
/// line-oriented scan is sufficient — no serde in the no-network build.
fn parse_ratio_object(json: &str, key: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let Some(open) = json[start..].find('{') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let Some(close) = json[body_start..].find('}') else {
        return Vec::new();
    };
    let body = &json[body_start..body_start + close];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let Some((name, value)) = entry.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Groups gated at an absolute floor read from the current run alone:
/// (group, floor, what falling below it means).
///
/// * `elem_cube`: a cube check linear in term size scores about 1; the
///   all-pairs closure it replaced scored 0.002.
/// * `saturation_enum`: enumerating a free variable onto the pooled
///   binding scores about 1; cloning and composing substitutions per
///   candidate scored 0.14–0.21.
const FLOORS: [(&str, f64, &str); 2] = [
    (
        "elem_cube",
        0.5,
        "the cube check costs super-linear time in term depth again",
    ),
    (
        "saturation_enum",
        0.5,
        "free-variable enumeration left the pooled matcher again",
    ),
];

/// Gates one [`FLOORS`] group's ratio in one run: `Ok` with a report
/// line, or `Err` with the failure.
fn floor_gate(ratios: &[(String, f64)], group: &str) -> Result<String, String> {
    let (_, floor, why) = FLOORS
        .iter()
        .find(|(g, _, _)| *g == group)
        .expect("a gated group");
    match ratios.iter().find(|(n, _)| n.starts_with(group)) {
        None => Err(format!("FAIL {group} ratio missing from the current run")),
        Some((name, r)) if r < floor => Err(format!(
            "FAIL {name}: {r:.2}x fell below the {floor}x floor — {why}"
        )),
        Some((name, r)) => Ok(format!("ok   {name}: {r:.2}x (contract: >={floor}x)")),
    }
}

/// Whether a ratio belongs to a [`FLOORS`] group (and so is not
/// compared against the baseline).
fn floor_gated(name: &str) -> bool {
    FLOORS.iter().any(|(g, _, _)| name.starts_with(g))
}

/// Extracts a scalar `"key": number` field.
fn parse_scalar(json: &str, key: &str) -> Option<f64> {
    let start = json.find(&format!("\"{key}\""))?;
    let rest = &json[start..];
    let colon = rest.find(':')?;
    let tail = &rest[colon + 1..];
    let end = tail.find([',', '\n', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse::<f64>().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(baseline_path), read(current_path)) else {
        return ExitCode::from(2);
    };

    let tolerance: f64 = std::env::var("BENCH_DIFF_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.20);
    // Parallel-vs-sequential ratios measure thread scheduling, which is
    // far noisier than the in-process kernel ratios — especially on an
    // oversubscribed single-core host, where the ratio is pure spawn
    // overhead. Give them headroom while still catching a machinery
    // regression that doubles the overhead.
    let tolerance_for = |name: &str| {
        if name.starts_with("parallel_") {
            tolerance.max(0.35)
        } else {
            tolerance
        }
    };

    let mut failures = 0usize;

    // The zero-allocation contract is binary: any probe allocation is a
    // regression regardless of timing noise.
    match parse_scalar(&current, "step_allocations_per_100k_probes") {
        Some(0.0) => println!("ok   step allocations: 0"),
        Some(a) => {
            println!("FAIL step allocations: {a} (contract: 0)");
            failures += 1;
        }
        None => {
            println!("FAIL step allocations missing from {current_path}");
            failures += 1;
        }
    }

    let base_ratios = parse_ratio_object(&baseline, "speedup_vs_reference");
    let cur_ratios = parse_ratio_object(&current, "speedup_vs_reference");
    if base_ratios.is_empty() || cur_ratios.is_empty() {
        println!("FAIL speedup_vs_reference missing from one input");
        return ExitCode::FAILURE;
    }
    for (group, _, _) in FLOORS {
        match floor_gate(&cur_ratios, group) {
            Ok(line) => println!("{line}"),
            Err(line) => {
                println!("{line}");
                failures += 1;
            }
        }
    }
    for (name, base) in &base_ratios {
        if floor_gated(name) {
            continue;
        }
        match cur_ratios.iter().find(|(n, _)| n == name) {
            None => println!("note {name}: not measured in current run"),
            Some((_, cur)) => {
                // Memoized-algebra ratios compare a nanosecond-scale
                // hash probe against a millisecond-scale fixpoint:
                // enormous (1000×+) and therefore noisy in *relative*
                // terms. The contract is absolute — warm must stay at
                // least 10× over cold — so gate on that floor instead.
                if name.starts_with("boolean_ops_memoized") {
                    if *cur < 10.0 {
                        println!(
                            "FAIL {name}: warm/cold speedup {cur:.2}x fell below the \
                             10x memoization contract (baseline {base:.2}x)"
                        );
                        failures += 1;
                    } else {
                        println!("ok   {name}: {cur:.2}x (contract: >=10x, baseline {base:.2}x)");
                    }
                    continue;
                }
                // The semi-naive-vs-naive saturation ratio is
                // algorithmic (delta-proportional work against a full
                // rescan), so like the memoization group it is large
                // and relatively noisy; the acceptance contract is an
                // absolute ≥2x floor on the deep recursive workload.
                if name.starts_with("semi_naive_saturation") {
                    if *cur < 2.0 {
                        println!(
                            "FAIL {name}: semi-naive speedup {cur:.2}x fell below the \
                             2x contract (baseline {base:.2}x)"
                        );
                        failures += 1;
                    } else {
                        println!("ok   {name}: {cur:.2}x (contract: >=2x, baseline {base:.2}x)");
                    }
                    continue;
                }
                // The incremental-vs-one-shot model-finder ratio is
                // likewise algorithmic (one live solver and delta
                // grounding against a per-vector rebuild), so it gets
                // the same absolute ≥2x floor rather than a relative
                // tolerance band.
                if name.starts_with("fmf_incremental") {
                    if *cur < 2.0 {
                        println!(
                            "FAIL {name}: incremental-sweep speedup {cur:.2}x fell below \
                             the 2x contract (baseline {base:.2}x)"
                        );
                        failures += 1;
                    } else {
                        println!("ok   {name}: {cur:.2}x (contract: >=2x, baseline {base:.2}x)");
                    }
                    continue;
                }
                // The obs_overhead ratio compares two sub-nanosecond
                // loops (disabled-recorder probes vs a bare relaxed
                // atomic load), so it sits near 1x and is pure noise in
                // relative terms. The contract is absolute: the
                // disabled recorder must stay within 4x of the bare
                // load (ratio >= 0.25), i.e. tracing off costs atomics,
                // not locks or allocation.
                if name.starts_with("obs_overhead") {
                    if *cur < 0.25 {
                        println!(
                            "FAIL {name}: disabled-recorder probe ratio {cur:.2}x fell below \
                             the 0.25x floor (baseline {base:.2}x) — the disabled path is no \
                             longer a bare atomic check"
                        );
                        failures += 1;
                    } else {
                        println!("ok   {name}: {cur:.2}x (contract: >=0.25x, baseline {base:.2}x)");
                    }
                    continue;
                }
                let tol = tolerance_for(name);
                let floor = base * (1.0 - tol);
                if *cur < floor {
                    println!(
                        "FAIL {name}: speedup {cur:.2}x fell more than \
                         {:.0}% below baseline {base:.2}x",
                        tol * 100.0
                    );
                    failures += 1;
                } else {
                    println!("ok   {name}: {cur:.2}x (baseline {base:.2}x)");
                }
            }
        }
    }
    for (name, cur) in &cur_ratios {
        if !floor_gated(name) && !base_ratios.iter().any(|(n, _)| n == name) {
            println!("note {name}: new workload at {cur:.2}x (no baseline)");
        }
    }

    if failures > 0 {
        eprintln!(
            "bench_diff: {failures} regression(s) vs {baseline_path} \
             (tolerance {:.0}%)",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("bench_diff: no regressions vs {baseline_path}");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "step_allocations_per_100k_probes": 0,
  "speedup_vs_reference": {
    "run/deep/1000": 4.739,
    "step/512": 6.743
  },
  "benches": []
}"#;

    #[test]
    fn parses_ratio_objects() {
        let ratios = parse_ratio_object(SAMPLE, "speedup_vs_reference");
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].0, "run/deep/1000");
        assert!((ratios[0].1 - 4.739).abs() < 1e-9);
        assert!((ratios[1].1 - 6.743).abs() < 1e-9);
        assert!(parse_ratio_object(SAMPLE, "missing").is_empty());
    }

    #[test]
    fn elem_cube_ratio_has_an_absolute_floor() {
        let run = |r: f64| vec![("elem_cube/1xS64_vs_8xS8".to_string(), r)];
        assert!(floor_gate(&run(1.1), "elem_cube").is_ok());
        assert!(floor_gate(&run(0.03), "elem_cube").is_err());
        let sample = parse_ratio_object(SAMPLE, "speedup_vs_reference");
        assert!(floor_gate(&sample, "elem_cube").is_err());
    }

    #[test]
    fn saturation_enum_ratio_has_an_absolute_floor() {
        let run = |r: f64| vec![("saturation_enum/tree/20k".to_string(), r)];
        assert!(floor_gate(&run(1.06), "saturation_enum").is_ok());
        assert!(floor_gate(&run(0.5), "saturation_enum").is_ok());
        assert!(floor_gate(&run(0.21), "saturation_enum").is_err());
        // Each group is read by its own prefix: another group's ratio
        // neither satisfies nor fails it.
        let elem_only = vec![("elem_cube/1xS64_vs_8xS8".to_string(), 1.1)];
        assert!(floor_gate(&elem_only, "saturation_enum").is_err());
        assert!(floor_gated("saturation_enum/tree/20k") && !floor_gated("run/deep/1000"));
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(
            parse_scalar(SAMPLE, "step_allocations_per_100k_probes"),
            Some(0.0)
        );
        assert_eq!(parse_scalar(SAMPLE, "nope"), None);
    }
}
