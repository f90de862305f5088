//! Metric catalogue, quantiles and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics `--trace 0` reports, with their units. They
/// are listed, with bounds, in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("cpu_ms_per_query", "ms"),
];

/// End-to-end quantities that cannot carry a relative bound: all but
/// the last can be zero on some workload (no failure, no verdict on
/// `diverge`, no deadline-bound query on `quick`), and peak memory
/// shifts by a quarter between stretches of runs on `heavy`. `--trace 0`
/// prints them beside the bounded ones; `--trace 1` reports them with
/// the layer metrics.
pub const END_TO_END_EXTRA: &[(&str, &str)] = &[
    ("e2e.solved_frac", "share"),
    ("e2e.failed_frac", "share"),
    ("e2e.overshoot_p50_ms", "ms"),
    ("e2e.overshoot_p90_ms", "ms"),
    ("e2e.peak_rss_mb", "MB"),
];

/// The engines raced by the server, in its racing order.
pub const ENGINES: [&str; 4] = ["fmf", "elem", "sizeelem", "regelem"];

/// The layers whose time the traced run adds up.
pub const LAYERS: [&str; 9] = [
    "chc",
    "server",
    "saturation",
    "preprocess",
    "fmf",
    "inductive",
    "elem",
    "sizeelem",
    "regelem",
];

/// Every metric `--trace 1` reports, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    let mut quantiles = |name: &str, unit: &'static str| {
        add(&format!("{name}.p50"), unit);
        add(&format!("{name}.p90"), unit);
    };
    quantiles("chc.parse_us", "us");
    quantiles("chc.print_us", "us");
    quantiles("server.overhead_ms", "ms");
    quantiles("portfolio.race_ms", "ms");
    quantiles("portfolio.winner_ms", "ms");
    quantiles("portfolio.drain_ms", "ms");
    quantiles("saturation.ms", "ms");
    quantiles("preprocess.ms", "ms");
    quantiles("fmf.ms", "ms");
    quantiles("inductive.ms", "ms");
    for e in ["elem", "sizeelem", "regelem"] {
        quantiles(&format!("{e}.ms"), "ms");
    }
    add("server.attempts", "count/query");
    add("server.retries", "count/query");
    add("server.memo_hits", "count");
    add("portfolio.useful_frac", "share");
    for e in ENGINES {
        add(&format!("portfolio.wins.{e}"), "share");
    }
    add("saturation.facts", "count");
    add("saturation.steps", "count");
    add("saturation.budget_frac", "share");
    add("preprocess.clauses_out", "count");
    add("fmf.vectors", "count");
    add("fmf.delta_clauses", "count");
    add("fmf.model_frac", "share");
    add("sat.conflicts", "count");
    add("sat.decisions", "count");
    add("sat.propagations", "count");
    add("sat.props_per_ms", "1/ms");
    add("aut.memo_hits", "count/check");
    add("aut.memo_misses", "count/check");
    for e in ["elem", "sizeelem", "regelem"] {
        add(&format!("{e}.assignments"), "count");
        add(&format!("{e}.decided_frac"), "share");
    }
    add("regelem.langs", "count");
    for e in ENGINES {
        add(&format!("cancel.{e}.p50_ms"), "ms");
        add(&format!("cancel.{e}.max_ms"), "ms");
    }
    add("cancel.regelem.inhab-prim-id_ms", "ms");
    add("cancel.fmf.reg-only-12_ms", "ms");
    for l in LAYERS {
        add(&format!("layer.{l}.share"), "share");
    }
    add("layer.total_ms", "ms");
    add("layer.entrant_overlap", "ratio");
    add("trace.latency_p50_ms", "ms");
    add("trace.throughput_qps", "queries/s");
    add("trace.overhead_frac", "share");
    for (name, unit) in END_TO_END_EXTRA {
        add(name, unit);
    }
    out
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Values by metric name; [`Metrics::render`] checks them against a
/// catalogue so a dropped metric fails loudly.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Value>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// One human-readable line per catalogued metric, and the JSON
    /// `metrics` object over the same names.
    ///
    /// # Panics
    ///
    /// Panics if a catalogued metric was never set: a bug in this
    /// benchmark, which the smoke test catches.
    pub fn render<'a>(
        &self,
        catalogue: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> (String, String) {
        let mut table = String::new();
        let mut json = String::from("{");
        for (i, (name, unit)) in catalogue.into_iter().enumerate() {
            let v = self
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let _ = writeln!(
                table,
                "metric {name} = {} {unit} (n={})",
                v.value, v.samples
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        json.push('}');
        (table, json)
    }
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sets `<name>.p50` and `<name>.p90` from `samples`.
pub fn set_p50_p90(m: &mut Metrics, name: &str, samples: &[f64]) {
    m.set(format!("{name}.p50"), quantile(samples, 0.5), samples.len());
    m.set(format!("{name}.p90"), quantile(samples, 0.9), samples.len());
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer();
        let mut seen = std::collections::HashSet::new();
        for (n, u) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64 && !u.is_empty());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(names.len() <= 128);
    }
}
