//! The three workload pools, pinned by instance name.
//!
//! Each pool is a fixed list of *distinct* systems of
//! `ringen_benchgen::full_evaluation()` (its 543 instances print to 111
//! distinct SMT-LIB texts), named by the first instance that carries
//! the text. The lists were classified once by `--classify` (one
//! client, a fresh server per system) and are never recomputed from
//! outcomes at run time; a name that disappears from the generator
//! stops the benchmark.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ringen_benchgen::{full_evaluation, Benchmark, Expected};
use ringen_chc::to_smtlib;
use ringen_server::{Query, QueryOutcome, ServerConfig, SolveServer};

/// A named slice of a pool with the reason it belongs there.
pub struct Group {
    pub why: &'static str,
    pub names: &'static [&'static str],
}

/// One workload's input pool.
pub struct PoolSpec {
    pub workload: &'static str,
    pub why: &'static str,
    /// Per-attempt race deadline the server is built with.
    pub deadline: Duration,
    pub groups: &'static [Group],
    /// FNV-1a of the pool's canonical texts when the lists were pinned.
    pub fingerprint: u64,
    /// The few members `--smoke` runs.
    pub smoke: &'static [&'static str],
}

pub const QUICK: PoolSpec = PoolSpec {
    workload: "quick",
    why: "systems decided in under 50 ms: per-query fixed costs (parse/print, bookkeeping, race pool, drain) dominate",
    deadline: Duration::from_secs(10),
    groups: &[
        Group {
            why: "shallow refutations: the first refuter round fires",
            names: &[
                "diseq/example3",
                "tip/unsat-depth-2",
                "tip/unsat-depth-4",
                "tip/unsat-depth-6",
                "tip/unsat-depth-8",
                "tip/unsat-depth-10",
                "tip/unsat-depth-12",
                "tip/unsat-depth-14",
                "tip/unsat-depth-16",
                "tip/unsat-depth-18",
                "tip/unsat-depth-20",
                "tip/unsat-depth-22",
            ],
        },
        Group {
            why: "mod-k and parity regularity: fmf, sizeelem or regelem wins with a small model",
            names: &[
                "positive-eq/mod3-off1",
                "positive-eq/mod3-off2",
                "positive-eq/mod4-off1",
                "positive-eq/mod4-off2",
                "positive-eq/mod4-off3",
                "positive-eq/mod5-off1",
                "positive-eq/mod5-off2",
                "positive-eq/mod5-off3",
                "positive-eq/mod5-off4",
                "positive-eq/mod3-base1-off1",
                "positive-eq/mod4-base1-off1",
                "positive-eq/mod5-base1-off2",
                "positive-eq/parity-0",
                "positive-eq/parity-1",
                "tip/reg-only-9",
                "program/even",
            ],
        },
        Group {
            why: "incdec and order systems: sizeelem templates win",
            names: &[
                "positive-eq/incdec-1",
                "positive-eq/incdec-2",
                "positive-eq/incdec-3",
                "positive-eq/incdec-4",
                "tip/incdec-4",
                "tip/incdec-5",
                "tip/order-0",
                "tip/order-1",
                "tip/order-2",
                "tip/order-3",
                "tip/order-4",
            ],
        },
        Group {
            why: "disequality systems: shallow, diagonal and order-guard invariants",
            names: &[
                "diseq/shallow-2-0",
                "diseq/shallow-2-1",
                "diseq/shallow-3-0",
                "diseq/shallow-4-0",
                "diseq/diag-0",
                "diseq/diag-1",
                "diseq/order-guard-0",
                "diseq/order-guard-1",
                "tip/diag-2",
            ],
        },
    ],
    fingerprint: 0x23ec_60fe_1cec_ffed,
    smoke: &["diseq/example3", "program/even"],
};

pub const HEAVY: PoolSpec = PoolSpec {
    workload: "heavy",
    why: "systems finishing under their own budgets in 40 ms-1.5 s: the refuter and the template sweeps do the work",
    deadline: Duration::from_secs(10),
    groups: &[
        Group {
            why: "regular-only SAT: saturate runs to its fact budget before fmf finds the model",
            names: &[
                "positive-eq/tree-spine-2-1",
                "positive-eq/tree-spine-3-1",
                "positive-eq/tree-spine-3-2",
                "positive-eq/tree-spine-4-1",
                "positive-eq/tree-spine-4-3",
                "positive-eq/tree-spine-5-2",
                "positive-eq/bool-eval-2",
                "positive-eq/bool-eval-3",
                "tip/reg-only-10",
                "program/evenleft",
            ],
        },
        Group {
            why: "type-inhabitation and rewriting systems decided within their budgets",
            names: &[
                "handwritten/inhab-paper",
                "handwritten/inhab-peirce",
                "handwritten/inhab-atom",
                "handwritten/inhab-a-to-b",
                "handwritten/inhab-b-to-a",
                "handwritten/inhab-double-neg",
                "handwritten/inhab-prim-swap",
                "handwritten/inhab-prim-goal",
                "handwritten/inhab-mixed",
                "handwritten/trs-0",
                "handwritten/trs-1",
                "handwritten/trs-2",
                "handwritten/trs-3",
                "handwritten/trs-4",
                "handwritten/trs-5",
            ],
        },
        Group {
            why: "deep refutations past the refuter budget: elem/sizeelem/regelem sweeps exhaust",
            names: &[
                "tip/unsat-depth-24",
                "tip/unsat-depth-26",
                "tip/unsat-depth-28",
                "tip/unsat-depth-30",
                "tip/unsat-depth-32",
                "tip/unsat-depth-34",
                "tip/unsat-depth-36",
                "tip/unsat-depth-38",
                "tip/unsat-depth-40",
                "tip/unsat-depth-42",
                "tip/unsat-depth-44",
                "tip/unsat-depth-46",
                "tip/unsat-depth-48",
                "tip/unsat-depth-50",
                "tip/unsat-depth-52",
                "tip/unsat-depth-54",
                "tip/unsat-depth-56",
                "tip/unsat-depth-58",
                "tip/unsat-depth-60",
            ],
        },
    ],
    fingerprint: 0x5237_8803_c26b_768e,
    smoke: &["tip/unsat-depth-24", "positive-eq/bool-eval-2"],
};

pub const DIVERGE: PoolSpec = PoolSpec {
    workload: "diverge",
    why:
        "systems no engine decides before the deadline: promptness of cancellation sets the latency",
    deadline: Duration::from_millis(130),
    groups: &[
        Group {
            why: "the 10 systems behind Table 1's 388 hard-tail instances",
            names: &[
                "positive-eq/plus-comm-0",
                "positive-eq/plus-comm-1",
                "positive-eq/plus-comm-2",
                "positive-eq/list-rel-0",
                "positive-eq/list-rel-1",
                "diseq/deep-0",
                "diseq/deep-1",
                "diseq/deep-2",
                "tip/hard-8",
                "tip/hard-14",
            ],
        },
        Group {
            why:
                "deadline-bound inhabitation systems and the regular-only system fmf cannot finish",
            names: &[
                "handwritten/inhab-ab-to-a",
                "handwritten/inhab-swap-args",
                "handwritten/inhab-const3",
                "handwritten/inhab-proj-mid",
                "handwritten/inhab-arrow-chain",
                "handwritten/inhab-contraction",
                "handwritten/inhab-weak-peirce",
                "handwritten/inhab-prim-id",
                "tip/reg-only-12",
            ],
        },
    ],
    fingerprint: 0x76f6_9013_d25d_e1de,
    smoke: &["positive-eq/plus-comm-0", "handwritten/inhab-ab-to-a"],
};

pub const ALL: [&PoolSpec; 3] = [&QUICK, &HEAVY, &DIVERGE];

pub fn by_workload(name: &str) -> Option<&'static PoolSpec> {
    ALL.into_iter().find(|p| p.workload == name)
}

/// One pool member, ready to submit.
pub struct Input {
    pub bench: Benchmark,
    pub query: Query,
}

/// A loaded pool: its inputs in pinned order plus the fingerprint of
/// their canonical texts.
pub struct Loaded {
    pub inputs: Vec<Input>,
    pub fingerprint: u64,
}

impl PoolSpec {
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.groups.iter().flat_map(|g| g.names.iter().copied())
    }

    /// Generates the suites, prints every pool member to SMT-LIB, and
    /// fails if a pinned name is gone or two members print the same.
    pub fn load(&self) -> Result<Loaded, String> {
        let mut all = full_evaluation();
        let mut inputs = Vec::new();
        let mut seen = HashSet::new();
        let mut fp = Fnv::new();
        for name in self.names() {
            let i = all.iter().position(|b| b.name == name).ok_or_else(|| {
                format!(
                    "pool `{}`: instance `{name}` is no longer in full_evaluation()",
                    self.workload
                )
            })?;
            let bench = all.swap_remove(i);
            let text = to_smtlib(&bench.system);
            if !seen.insert(text.clone()) {
                return Err(format!(
                    "pool `{}`: `{name}` prints the same system as an earlier member",
                    self.workload
                ));
            }
            fp.write(text.as_bytes());
            fp.write(&[0]);
            inputs.push(Input {
                query: Query::new(name, text),
                bench,
            });
        }
        Ok(Loaded {
            inputs,
            fingerprint: fp.finish(),
        })
    }
}

/// 64-bit FNV-1a: a stable, dependency-free digest for pinning texts.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Solves every distinct system of `full_evaluation()` once, one
/// client, a fresh server each, and prints latency, verdict, winner and
/// the instance names sharing the text. This is how the pools above
/// were chosen; the benchmark itself never calls it.
pub fn classify(deadline: Duration) {
    let mut groups: Vec<(String, Vec<String>, Expected)> = Vec::new();
    for b in full_evaluation() {
        let text = to_smtlib(&b.system);
        match groups.iter_mut().find(|g| g.0 == text) {
            Some(g) => g.1.push(b.name),
            None => groups.push((text, vec![b.name], b.expected)),
        }
    }
    println!("# {} distinct systems, deadline {deadline:?}", groups.len());
    println!("# latency_ms\trace_ms\tverdict\texpected\tattempts\twinner\tnames");
    for (text, names, expected) in &groups {
        let server = SolveServer::new(ServerConfig {
            query_deadline: Some(deadline),
            ..ServerConfig::default()
        });
        let t0 = Instant::now();
        let out = server.submit(&Query::new(names[0].clone(), text.clone()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (verdict, attempts, winner, race) = match &out {
            QueryOutcome::Solved(r) => (
                r.report.verdict.clone(),
                r.attempts,
                r.stats
                    .as_ref()
                    .and_then(|s| s.winner_report().map(|w| w.name))
                    .unwrap_or("-"),
                r.stats
                    .as_ref()
                    .map_or(0.0, |s| s.elapsed.as_secs_f64() * 1e3),
            ),
            other => (other.describe(), 0, "-", 0.0),
        };
        println!(
            "{ms:.1}\t{race:.1}\t{verdict}\t{expected:?}\t{attempts}\t{winner}\t{}",
            names.join(",")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_load_with_their_pinned_sizes_and_fingerprints() {
        let mut seen = HashSet::new();
        for (pool, size) in ALL.into_iter().zip([48, 44, 19]) {
            let loaded = pool.load().expect("every pinned name exists");
            assert_eq!(loaded.inputs.len(), size, "{}", pool.workload);
            assert_eq!(
                loaded.fingerprint, pool.fingerprint,
                "{}: the pool's SMT-LIB texts changed; re-pin after checking the workload",
                pool.workload
            );
            for input in &loaded.inputs {
                assert!(
                    seen.insert(input.query.text.clone()),
                    "{} is in two pools",
                    input.query.name
                );
            }
            for name in pool.smoke {
                assert!(
                    pool.names().any(|n| n == *name),
                    "smoke member {name} not in the pool"
                );
            }
        }
    }

    #[test]
    fn a_vanished_name_stops_the_load() {
        let pool = PoolSpec {
            groups: &[Group {
                why: "test",
                names: &["no/such-instance"],
            }],
            ..QUICK
        };
        let err = pool.load().err().expect("load fails");
        assert!(err.contains("no/such-instance"), "{err}");
    }
}
