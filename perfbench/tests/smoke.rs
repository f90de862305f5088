//! Runs the benchmark's smoke mode on every workload and checks that it
//! prints every metric `BENCHMARK.json` lists, with the listed unit, so
//! a renamed or dropped metric fails here rather than in a later
//! comparison.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["quick", "heavy", "diverge"];

fn bench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ringen-perfbench"));
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    cmd.args(args).arg("--out").arg(out);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("RINGEN_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

fn run(cmd: &mut Command) -> (Output, String) {
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout)
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// `(name, unit)` of every `metric NAME = VALUE UNIT (n=N)` line.
fn printed(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next().expect("name").to_string();
            let unit = words.nth(2).expect("unit").to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn smoke_prints_every_listed_metric_on_every_workload() {
    let mut wanted = listed("end_to_end");
    assert!(wanted.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    wanted.extend(listed("per_layer"));
    for workload in WORKLOADS {
        let (out, stdout) = run(&mut bench(&[
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "3",
        ]));
        assert!(out.status.success(), "{workload}: {stdout}");
        let got = printed(&stdout);
        for metric in &wanted {
            assert!(
                got.contains(metric),
                "{workload}: {metric:?} not printed:\n{stdout}"
            );
        }
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for (name, unit) in listed("end_to_end") {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(
                last.contains(&entry),
                "{workload}: {name} missing from {last}"
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn traced_smoke_reports_the_layer_metrics() {
    let (out, stdout) = run(&mut bench(&[
        "--smoke",
        "--workload",
        "quick",
        "--trace",
        "1",
    ]));
    assert!(out.status.success(), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    for (name, _) in listed("per_layer") {
        assert!(
            last.contains(&format!("\"{name}\": ")),
            "{name} missing from {last}"
        );
    }
}

#[test]
fn a_doctored_verdict_fails_the_run() {
    let (out, stdout) = run(&mut bench(&[
        "--smoke",
        "--workload",
        "quick",
        "--doctor",
        "1",
    ]));
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("contradicts ground truth"), "{stderr}");
}

#[test]
fn ringen_knobs_in_the_environment_are_refused() {
    let (out, stdout) = run(bench(&["--smoke", "--workload", "quick"]).env("RINGEN_THREADS", "1"));
    assert_eq!(out.status.code(), Some(2));
    assert!(!stdout.contains("\"correct\""), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("RINGEN_THREADS"));
}
