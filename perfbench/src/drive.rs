//! The closed loop of clients: `clients` threads call
//! `SolveServer::submit`, each sending its next query only when the
//! previous one returned. Every pass runs on a fresh server, so the
//! verdict memo never serves a repeat, and visits each pool system
//! once, so each is drawn equally often.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ringen_benchgen::Expected;
use ringen_server::{QueryOutcome, QueryVerdict, ServerConfig, SolveServer};

use crate::pools::Input;
use crate::report::{median, quantile, ratio, Metrics};
use crate::trace::Span;

/// When the loop stops taking new queries.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Run whole passes while the next one, taking as long as the
    /// last, would end no more than half a pass past this much time.
    WholePasses(Duration),
    /// Stop claiming queries once this much time has gone.
    Time(Duration),
    /// Run exactly this many queries of the seeded sequence.
    Count(usize),
}

/// How one query's outcome compares with ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// A definitive verdict equal to `Benchmark::expected`.
    Solved,
    /// `Unknown` under the engines' own budgets or the deadline.
    Unsolved,
    /// Rejected, invalid, or quarantined into unknown.
    Failed,
    /// A definitive verdict that contradicts ground truth.
    Contradiction,
}

/// Judges a server outcome against ground truth. `doctor` flips the
/// verdict first (to the opposite of `expected`), which is how the
/// benchmark's own test shows that a contradiction is caught.
pub fn judge(expected: Expected, outcome: &QueryOutcome, doctor: bool) -> Judgement {
    let QueryOutcome::Solved(r) = outcome else {
        return Judgement::Failed;
    };
    let (truth, opposite) = match expected {
        Expected::Sat => (QueryVerdict::Sat, QueryVerdict::Unsat),
        Expected::Unsat => (QueryVerdict::Unsat, QueryVerdict::Sat),
    };
    match if doctor { opposite } else { r.verdict } {
        QueryVerdict::Unknown if r.quarantined > 0 => Judgement::Failed,
        QueryVerdict::Unknown => Judgement::Unsolved,
        v if v == truth => Judgement::Solved,
        _ => Judgement::Contradiction,
    }
}

/// One completed query, as seen from outside the server.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the pool.
    pub input: usize,
    pub latency: Duration,
    pub judgement: Judgement,
    pub attempts: u32,
    pub cached: bool,
    /// `true` when some attempt ran into the deadline.
    pub deadline_bound: bool,
    /// Wall time of the last attempt's race.
    pub race: Option<Duration>,
    /// The winner's name and elapsed time.
    pub winner: Option<(&'static str, Duration)>,
    /// Elapsed time summed over the last race's entrants.
    pub entrant_sum: Duration,
}

/// What a loop measured.
pub struct LoopResult {
    pub records: Vec<Record>,
    pub wall: Duration,
    pub cpu: Duration,
    /// The first contradiction, as `name: got … expected …`.
    pub contradiction: Option<String>,
    /// One `server.submit` span per query when traced.
    pub spans: Vec<Span>,
    /// Queries and wall time of each pass.
    pub passes: Vec<(usize, Duration)>,
}

/// Runs the closed loop over `inputs` until `stop`.
pub struct ClosedLoop<'a> {
    pub inputs: &'a [Input],
    pub cfg: &'a ServerConfig,
    pub clients: usize,
    pub seed: u64,
    /// Flip the verdict of the query completed in this position (1-based).
    pub doctor: Option<usize>,
}

impl ClosedLoop<'_> {
    /// The pool order of pass `pass`: one fixed shuffle of the pool,
    /// rotated to start at `seed + pass`. Every pass draws each system
    /// once; which systems run side by side on the two clients stays
    /// the same from seed to seed, so a run's figures do not hinge on
    /// a lucky pairing of heavy queries.
    pub fn order(&self, pass: u64) -> Vec<usize> {
        let n = self.inputs.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix(0x5eed);
        for i in (1..n).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order.rotate_left((self.seed.wrapping_add(pass) % n as u64) as usize);
        order
    }

    /// One untimed query on a throwaway server, so lazy set-up is paid
    /// before timing starts.
    pub fn warm_up(&self) {
        let server = SolveServer::new(self.cfg.clone());
        let first = self.order(0)[0];
        let _ = server.submit(&self.inputs[first].query);
    }

    pub fn run(&self, stop: Stop, traced: bool) -> LoopResult {
        let started = Instant::now();
        let cpu0 = process_cpu();
        let abort = AtomicBool::new(false);
        let completed = AtomicUsize::new(0);
        let contradiction: Mutex<Option<String>> = Mutex::new(None);
        let mut records = Vec::new();
        let mut spans = Vec::new();
        let mut passes = Vec::new();
        let pass_len = self.inputs.len();
        for pass in 0u64.. {
            let base = pass as usize * pass_len;
            let last = passes
                .last()
                .map_or(Duration::ZERO, |p: &(usize, Duration)| p.1);
            let more = match stop {
                Stop::WholePasses(d) => pass == 0 || started.elapsed() + last / 2 <= d,
                Stop::Time(d) => pass == 0 || started.elapsed() < d,
                Stop::Count(n) => base < n,
            };
            if !more || abort.load(Ordering::SeqCst) {
                break;
            }
            let pass_start = Instant::now();
            let order = self.order(pass);
            let server = SolveServer::new(self.cfg.clone());
            let next = AtomicUsize::new(0);
            let per_client: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.clients)
                    .map(|client| {
                        let (order, server, next) = (&order, &server, &next);
                        let (abort, completed, contradiction) =
                            (&abort, &completed, &contradiction);
                        s.spawn(move || {
                            let mut recs = Vec::new();
                            let mut spans = Vec::new();
                            loop {
                                if abort.load(Ordering::SeqCst) {
                                    break;
                                }
                                if let Stop::Time(d) = stop {
                                    if started.elapsed() >= d {
                                        break;
                                    }
                                }
                                let i = next.fetch_add(1, Ordering::SeqCst);
                                if i >= order.len() {
                                    break;
                                }
                                if let Stop::Count(n) = stop {
                                    if base + i >= n {
                                        break;
                                    }
                                }
                                let input = &self.inputs[order[i]];
                                let t0 = Instant::now();
                                let out = server.submit(&input.query);
                                let latency = t0.elapsed();
                                let nth = completed.fetch_add(1, Ordering::SeqCst) + 1;
                                let doctor = self.doctor == Some(nth);
                                let judgement = judge(input.bench.expected, &out, doctor);
                                if judgement == Judgement::Contradiction {
                                    let got = out.verdict().map_or("-", |v| v.as_str());
                                    let msg = format!(
                                        "{}: got {got}{} but expected {:?}",
                                        input.query.name,
                                        if doctor { " (doctored)" } else { "" },
                                        input.bench.expected
                                    );
                                    contradiction
                                        .lock()
                                        .expect("contradiction lock")
                                        .get_or_insert(msg);
                                    abort.store(true, Ordering::SeqCst);
                                }
                                let rec = record(order[i], latency, judgement, &out);
                                if traced {
                                    spans.push(Span::submit(
                                        client,
                                        t0.duration_since(started),
                                        &input.query.name,
                                        &rec,
                                    ));
                                }
                                recs.push(rec);
                            }
                            (recs, spans)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let done = records.len();
            for (r, s) in per_client {
                records.extend(r);
                spans.extend(s);
            }
            passes.push((records.len() - done, pass_start.elapsed()));
            if let Stop::Time(d) = stop {
                if started.elapsed() >= d {
                    break;
                }
            }
        }
        LoopResult {
            records,
            wall: started.elapsed(),
            cpu: process_cpu().saturating_sub(cpu0),
            contradiction: contradiction.into_inner().expect("contradiction lock"),
            spans,
            passes,
        }
    }
}

fn record(input: usize, latency: Duration, judgement: Judgement, out: &QueryOutcome) -> Record {
    let mut rec = Record {
        input,
        latency,
        judgement,
        attempts: 0,
        cached: false,
        deadline_bound: false,
        race: None,
        winner: None,
        entrant_sum: Duration::ZERO,
    };
    if let QueryOutcome::Solved(r) = out {
        rec.attempts = r.attempts;
        rec.cached = r.cached;
        rec.deadline_bound = r.verdict == QueryVerdict::Unknown
            && (r.report.verdict == "interrupted" || r.attempts > 1);
        if let Some(stats) = &r.stats {
            rec.race = Some(stats.elapsed);
            rec.winner = stats.winner_report().map(|w| (w.name, w.elapsed));
            rec.entrant_sum = stats.engines.iter().map(|e| e.elapsed).sum();
        }
    }
    rec
}

impl LoopResult {
    pub fn failed(&self) -> usize {
        self.count(Judgement::Failed) + self.count(Judgement::Contradiction)
    }

    pub fn count(&self, j: Judgement) -> usize {
        self.records.iter().filter(|r| r.judgement == j).count()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| ms(r.latency)).collect()
    }

    pub fn latency_p50_ms(&self) -> f64 {
        quantile(&self.latencies_ms(), 0.5)
    }

    pub fn throughput_qps(&self) -> f64 {
        ratio(self.records.len() as f64, self.wall.as_secs_f64())
    }

    /// The bounded end-to-end metrics, except set-up and memory, which
    /// belong to the process rather than the loop. Latency quantiles
    /// pool every query; throughput is the median over passes, so a
    /// passing disturbance moves it less.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let n = self.records.len();
        let lat = self.latencies_ms();
        m.set("latency_p50_ms", quantile(&lat, 0.5), n);
        m.set("latency_p90_ms", quantile(&lat, 0.9), n);
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|p| ratio(p.0 as f64, p.1.as_secs_f64()))
            .collect();
        m.set("throughput_qps", median(&per_pass), n);
        // Over the whole loop: one pass may span only a few of the
        // 10 ms clock ticks the kernel counts CPU time in.
        m.set("cpu_ms_per_query", ratio(ms(self.cpu), n as f64), n);
    }

    /// The end-to-end quantities that may be zero on a workload.
    /// Overshoot is latency minus `attempts × deadline` over queries
    /// that came back unknown after running into the deadline.
    pub fn end_to_end_extra(&self, m: &mut Metrics, deadline: Duration) {
        let n = self.records.len();
        m.set(
            "e2e.solved_frac",
            ratio(self.count(Judgement::Solved) as f64, n as f64),
            n,
        );
        m.set("e2e.failed_frac", ratio(self.failed() as f64, n as f64), n);
        let over: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.deadline_bound)
            .map(|r| ms(r.latency) - f64::from(r.attempts) * ms(deadline))
            .collect();
        m.set("e2e.overshoot_p50_ms", quantile(&over, 0.5), over.len());
        m.set("e2e.overshoot_p90_ms", quantile(&over, 0.9), over.len());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of the kernel's fixed 100 Hz
/// `USER_HZ`). Zero where the file is unreadable.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Duration::from_millis((tick(11) + tick(12)) * 10)
}

/// Peak resident set (`VmHWM`) of this process in MiB; zero where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a tiny seeded generator for pass orders.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_server::Query;

    fn solved(server: &SolveServer, text: &str) -> QueryOutcome {
        server.submit(&Query::new("even", text))
    }

    #[test]
    fn a_doctored_verdict_is_a_contradiction() {
        let server = SolveServer::new(ServerConfig::default());
        let text = ringen_chc::to_smtlib(&ringen_benchgen::programs::even());
        let out = solved(&server, &text);
        assert_eq!(judge(Expected::Sat, &out, false), Judgement::Solved);
        assert_eq!(judge(Expected::Sat, &out, true), Judgement::Contradiction);
        assert_eq!(
            judge(Expected::Unsat, &out, false),
            Judgement::Contradiction
        );
    }

    #[test]
    fn rejected_and_invalid_queries_are_failures() {
        let rejected = QueryOutcome::Rejected { queue_full: true };
        assert_eq!(judge(Expected::Sat, &rejected, false), Judgement::Failed);
        let server = SolveServer::new(ServerConfig::default());
        let invalid = solved(&server, "(assert");
        assert_eq!(judge(Expected::Sat, &invalid, false), Judgement::Failed);
    }

    #[test]
    fn process_counters_read() {
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > Duration::ZERO);
        assert!(peak_rss_mb() > 0.0);
    }
}
