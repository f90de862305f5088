//! A long-lived, fault-tolerant CHC solve service.
//!
//! [`SolveServer`] accepts batches of SMT-LIB CHC systems (the
//! `ringen-chc` parser/printer wire format) and runs them concurrently
//! on a persistent worker pool. Each query is a race of five entrants
//! ([`EngineKind::ALL`]): the bottom-up refuter, which replays every
//! refutation before it claims UNSAT, and the four invariant engines,
//! which start their own phases at once under a zero-round refuter.
//! The service layer wraps the portfolio racer with the robustness
//! machinery a resident process needs:
//!
//! * **Bounded admission.** At most [`ServerConfig::queue`] queries
//!   hold an admission slot at once; the overflow is shed with a typed
//!   [`QueryOutcome::Rejected`] instead of queueing unboundedly.
//! * **Deadlines and cancellation.** Every query runs under a child of
//!   the server's root [`Guard`]; cancelling the root (or the per-query
//!   deadline) degrades the query to a definitive answer with partial
//!   stats — never a hang, never an abort.
//! * **A retry ladder.** Transient outcomes — a panicking entrant, an
//!   interrupted race — are retried with a narrower engine set and
//!   fresh per-query state, under capped exponential backoff. A
//!   panicked engine sits out the later rungs; a panicked refuter is
//!   retried, since no other entrant can claim UNSAT.
//! * **Panic quarantine.** A panic that escapes the racer is caught at
//!   the attempt boundary; the poisoned per-query state (recorder,
//!   stores, partial stats) is discarded wholesale while the shared
//!   cross-query verdict memo stays intact.
//! * **Observability.** Each solved query carries a full
//!   [`SolveReport`] (ring-bounded trace, race sections, a `server`
//!   section with the ladder's shape), and the service exposes a
//!   [`HealthSnapshot`] of queue depth, in-flight count, retries,
//!   sheds, cache traffic, and injected faults.
//!
//! Determinism under failure is the load-bearing invariant: engines
//! are sound, so any *definitive* verdict produced under injected
//! faults (see `ringen_guard::faults`) must equal the verdict of a
//! fault-free solve of the same system. The memo only ever stores
//! definitive verdicts, so a faulted history and a fresh server
//! converge to bit-identical memo snapshots.
//!
//! ```no_run
//! use ringen_server::{Query, ServerConfig, SolveServer};
//!
//! let server = SolveServer::new(ServerConfig::from_env());
//! let queries = [Query::new("ex", "(assert true)(check-sat)")];
//! for outcome in server.submit_batch(&queries) {
//!     println!("{}", outcome.describe());
//! }
//! println!("{}", server.health().to_json_string());
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ringen_automata::AutStore;
use ringen_chc::{parse_str, to_smtlib, ChcSystem};
use ringen_core::portfolio::{
    race, refute, refute_budget, Engine, EngineVerdict, PortfolioStats, RaceConfig, RaceOutcome,
};
use ringen_core::{solve_guarded, Answer, RingenConfig, SaturationConfig};
use ringen_elem::{solve_elem_guarded, ElemAnswer, ElemConfig};
use ringen_obs::json::Json;
use ringen_obs::report::{Section, SolveReport};
use ringen_obs::Trace;
use ringen_parallel::{
    deadline_ms_from_env, panic_message, FaultPlan, FaultStats, Faults, Guard, ParallelConfig,
    Pool, Recorder, RecorderLimits,
};
use ringen_regelem::{solve_regelem_guarded, RegElemAnswer, RegElemConfig};
use ringen_sizeelem::{solve_size_elem_guarded, SizeElemAnswer, SizeElemConfig};

/// Schema tag on [`HealthSnapshot::to_json`] documents.
pub const HEALTH_SCHEMA: &str = "ringen-server-health-v1";

/// Default admission-queue capacity (`RINGEN_SERVER_QUEUE`).
pub const DEFAULT_QUEUE: usize = 64;
/// Default retry count after the first attempt (`RINGEN_SERVER_RETRIES`).
pub const DEFAULT_RETRIES: u32 = 2;
/// Default backoff base (`RINGEN_SERVER_BACKOFF_MS`).
pub const DEFAULT_BACKOFF_MS: u64 = 10;
/// Default per-query trace ring (`RINGEN_TRACE_RING` overrides).
pub const DEFAULT_TRACE_RING: usize = 4096;
/// Default per-attempt deadline; the service always bounds a query,
/// because a narrowed engine set may otherwise inherit a divergent
/// sweep (Prop. 11's non-regular diagonal) with nobody left to win.
pub const DEFAULT_QUERY_DEADLINE: Duration = Duration::from_secs(10);

/// The five portfolio entrants, in default racing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bottom-up refutation ([`ringen_core::portfolio::refute`]).
    Refute,
    /// Regular invariants by finite-model finding (the paper's tool).
    Fmf,
    /// Elementary templates.
    Elem,
    /// Size-extended elementary templates.
    SizeElem,
    /// Combined template-plus-membership search.
    RegElem,
}

impl EngineKind {
    /// Every entrant, in default order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Refute,
        EngineKind::Fmf,
        EngineKind::Elem,
        EngineKind::SizeElem,
        EngineKind::RegElem,
    ];

    /// The racer's span/report name for this entrant.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Refute => "refute",
            EngineKind::Fmf => "fmf",
            EngineKind::Elem => "elem",
            EngineKind::SizeElem => "sizeelem",
            EngineKind::RegElem => "regelem",
        }
    }
}

/// A definitive, memoizable query answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryVerdict {
    /// Some engine certified the system safe.
    Sat,
    /// Some engine refuted the system.
    Unsat,
    /// No engine decided within the ladder's budgets. Never memoized.
    Unknown,
}

impl QueryVerdict {
    /// The report-schema string for this verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryVerdict::Sat => "sat",
            QueryVerdict::Unsat => "unsat",
            QueryVerdict::Unknown => "unknown",
        }
    }
}

/// One named query in a batch.
#[derive(Debug, Clone)]
pub struct Query {
    /// Display name (file path or showcase name) for reports.
    pub name: String,
    /// The system, in `ringen-chc` SMT-LIB wire form.
    pub text: String,
}

impl Query {
    /// Wraps a named wire-format system.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Query {
        Query {
            name: name.into(),
            text: text.into(),
        }
    }
}

/// A solved query: the verdict plus the full per-query report.
#[derive(Debug)]
pub struct QueryResult {
    /// The query's display name.
    pub name: String,
    /// The definitive answer (graceful degradation makes `Unknown`
    /// definitive too: the ladder is exhausted, not hung).
    pub verdict: QueryVerdict,
    /// `true` if the verdict came from the shared memo.
    pub cached: bool,
    /// Race attempts actually run (0 for a memo hit).
    pub attempts: u32,
    /// Attempts discarded to panic quarantine.
    pub quarantined: u32,
    /// Full report for the *last* attempt: ring-bounded trace, race
    /// sections, and a `server` section describing the ladder.
    pub report: SolveReport,
    /// The last attempt's race stats, when an attempt ran.
    pub stats: Option<PortfolioStats>,
}

/// What the service did with one submitted query.
#[derive(Debug)]
pub enum QueryOutcome {
    /// The query ran (or hit the memo) and produced a result.
    Solved(Box<QueryResult>),
    /// Admission control shed the query before it ran.
    Rejected {
        /// `true` when the admission queue was at capacity (the only
        /// shedding cause today; typed so callers can match on it).
        queue_full: bool,
    },
    /// The wire input failed to parse or to sort-check.
    Invalid {
        /// The parse/sort error, with position where available.
        message: String,
    },
}

impl QueryOutcome {
    /// The verdict, for solved queries.
    pub fn verdict(&self) -> Option<QueryVerdict> {
        match self {
            QueryOutcome::Solved(r) => Some(r.verdict),
            _ => None,
        }
    }

    /// `true` for [`QueryOutcome::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, QueryOutcome::Rejected { .. })
    }

    /// One status line for logs and the CLI.
    pub fn describe(&self) -> String {
        match self {
            QueryOutcome::Solved(r) => format!(
                "{}: {}{}{}",
                r.name,
                r.verdict.as_str(),
                if r.cached { " (cached)" } else { "" },
                if r.quarantined > 0 {
                    format!(" (attempts {}, quarantined {})", r.attempts, r.quarantined)
                } else if r.attempts > 1 {
                    format!(" (attempts {})", r.attempts)
                } else {
                    String::new()
                },
            ),
            QueryOutcome::Rejected { queue_full } => format!(
                "rejected: {}",
                if *queue_full { "queue full" } else { "shed" }
            ),
            QueryOutcome::Invalid { message } => format!("invalid: {message}"),
        }
    }
}

/// Knobs for [`SolveServer`]. [`ServerConfig::from_env`] layers the
/// `RINGEN_SERVER_*`, `RINGEN_DEADLINE_MS`, `RINGEN_THREADS`,
/// `RINGEN_TRACE_RING`, and `RINGEN_FAULTS` variables (see
/// `ENVIRONMENT.md`) over these defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-queue capacity; queries past it are shed.
    pub queue: usize,
    /// Retries after the first attempt for transient outcomes.
    pub retries: u32,
    /// Backoff base; attempt `n` waits `backoff * 2^(n-1)`, capped.
    pub backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-attempt race deadline. `None` disables the bound — only
    /// safe when every engine budget is finite.
    pub query_deadline: Option<Duration>,
    /// Worker pool for the batch itself (queries run concurrently).
    pub parallel: ParallelConfig,
    /// Worker pool for each query's internal race.
    pub race_parallel: ParallelConfig,
    /// Budgets for the regular-invariant entrant.
    pub fmf: RingenConfig,
    /// Budgets for the elementary entrant.
    pub elem: ElemConfig,
    /// Budgets for the size-elementary entrant.
    pub sizeelem: SizeElemConfig,
    /// Budgets for the combined entrant.
    pub regelem: RegElemConfig,
    /// Deterministic fault-injection plan armed on every attempt.
    pub faults: FaultPlan,
    /// Span capacity of each per-query trace ring.
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue: DEFAULT_QUEUE,
            retries: DEFAULT_RETRIES,
            backoff: Duration::from_millis(DEFAULT_BACKOFF_MS),
            backoff_cap: Duration::from_millis(DEFAULT_BACKOFF_MS * 25),
            query_deadline: Some(DEFAULT_QUERY_DEADLINE),
            parallel: ParallelConfig::with_threads(2),
            race_parallel: ParallelConfig::with_threads(EngineKind::ALL.len()),
            // Default (finite) engine budgets, unlike the standalone
            // portfolio's racing budgets: a resident service prefers a
            // terminating Unknown over an open-ended sweep. The engines
            // run zero-round refuters: the `refute` entrant, under
            // `refute_budget()`, is the race's only refuter.
            fmf: RingenConfig {
                saturation: SaturationConfig::zero_rounds(),
                ..RingenConfig::default()
            },
            elem: ElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                ..ElemConfig::default()
            },
            sizeelem: SizeElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                ..SizeElemConfig::default()
            },
            regelem: RegElemConfig {
                saturation: SaturationConfig::zero_rounds(),
                ..RegElemConfig::default()
            },
            faults: FaultPlan::default(),
            trace_ring: DEFAULT_TRACE_RING,
        }
    }
}

impl ServerConfig {
    /// Defaults plus the environment knobs: `RINGEN_SERVER_QUEUE`,
    /// `RINGEN_SERVER_RETRIES`, `RINGEN_SERVER_BACKOFF_MS`,
    /// `RINGEN_DEADLINE_MS` (per attempt), `RINGEN_THREADS` (both
    /// pools), `RINGEN_TRACE_RING`, and `RINGEN_FAULTS`.
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Some(q) = env_usize("RINGEN_SERVER_QUEUE") {
            cfg.queue = q.max(1);
        }
        if let Some(r) = env_usize("RINGEN_SERVER_RETRIES") {
            cfg.retries = u32::try_from(r).unwrap_or(u32::MAX);
        }
        if let Some(ms) = env_u64("RINGEN_SERVER_BACKOFF_MS") {
            cfg.backoff = Duration::from_millis(ms);
            cfg.backoff_cap = Duration::from_millis(ms.saturating_mul(25));
        }
        if let Some(ms) = deadline_ms_from_env() {
            cfg.query_deadline = Some(Duration::from_millis(ms));
        }
        if std::env::var_os("RINGEN_THREADS").is_some() {
            cfg.parallel = ParallelConfig::from_env();
            cfg.race_parallel = ParallelConfig::from_env();
        }
        if let Some(ring) = env_usize("RINGEN_TRACE_RING") {
            cfg.trace_ring = ring;
        }
        if let Some(plan) = FaultPlan::from_env() {
            cfg.faults = plan;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Point-in-time service health, serializable as
/// [`HEALTH_SCHEMA`]-tagged JSON (validated by `trace_check --health`).
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Admission slots currently held (queued or running).
    pub queued: u64,
    /// Queries currently inside the solve path.
    pub in_flight: u64,
    /// Queries ever admitted past the queue bound.
    pub admitted: u64,
    /// Queries that reached a terminal outcome (solved or invalid).
    pub completed: u64,
    /// Queries shed by admission control.
    pub sheds: u64,
    /// Extra race attempts beyond each query's first.
    pub retries: u64,
    /// Attempts discarded to panic quarantine.
    pub quarantined: u64,
    /// Memo hits.
    pub cache_hits: u64,
    /// Definitive verdicts currently memoized.
    pub cache_entries: u64,
    /// Queries rejected as unparsable or ill-sorted.
    pub invalid: u64,
    /// Faults injected by the armed plan so far.
    pub faults: FaultStats,
    /// Milliseconds since the server was built.
    pub uptime_ms: u64,
}

impl HealthSnapshot {
    /// The snapshot as a schema-tagged JSON document.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Json::obj([
            ("schema", Json::Str(HEALTH_SCHEMA.to_string())),
            (
                "queue",
                Json::obj([
                    (
                        "capacity",
                        Json::Int(i64::try_from(self.queue_capacity).unwrap_or(i64::MAX)),
                    ),
                    ("depth", n(self.queued)),
                    ("in_flight", n(self.in_flight)),
                    ("sheds", n(self.sheds)),
                ]),
            ),
            ("admitted", n(self.admitted)),
            ("completed", n(self.completed)),
            ("retries", n(self.retries)),
            ("quarantined", n(self.quarantined)),
            (
                "cache",
                Json::obj([
                    ("hits", n(self.cache_hits)),
                    ("entries", n(self.cache_entries)),
                ]),
            ),
            ("invalid", n(self.invalid)),
            (
                "faults",
                Json::obj([
                    ("panics", n(self.faults.panics)),
                    ("delays", n(self.faults.delays)),
                    ("cancels", n(self.faults.cancels)),
                ]),
            ),
            ("uptime_ms", n(self.uptime_ms)),
        ])
    }

    /// [`HealthSnapshot::to_json`], pretty-printed.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

#[derive(Debug, Default)]
struct Counters {
    queued: AtomicU64,
    in_flight: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    cache_hits: AtomicU64,
    invalid: AtomicU64,
}

/// The resident solve service. One instance owns a persistent batch
/// pool, a root [`Guard`], the cross-query verdict memo, and the
/// health counters; it is `Sync`, so batches can be submitted from any
/// thread.
pub struct SolveServer {
    cfg: ServerConfig,
    pool: Pool,
    root: Guard,
    // Behind a lock so chaos harnesses can disarm injection mid-life
    // and verify a fault-free rerun against the same shared memo.
    faults: Mutex<Faults>,
    memo: Mutex<HashMap<String, QueryVerdict>>,
    counters: Counters,
    started: Instant,
}

impl SolveServer {
    /// Builds the service: persistent batch pool, fresh root guard,
    /// empty memo, armed fault plan.
    pub fn new(cfg: ServerConfig) -> SolveServer {
        let pool = Pool::persistent(&cfg.parallel);
        let faults = Mutex::new(Faults::new(cfg.faults.clone()));
        SolveServer {
            cfg,
            pool,
            root: Guard::new(),
            faults,
            memo: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            started: Instant::now(),
        }
    }

    /// The server's root guard; cancel it (or call
    /// [`SolveServer::shutdown`]) to degrade every in-flight and
    /// future query to a prompt definitive answer.
    pub fn root(&self) -> &Guard {
        &self.root
    }

    /// Cancels the root guard: graceful shutdown.
    pub fn shutdown(&self) {
        self.root.cancel();
    }

    /// Replaces the armed fault plan (and resets its occurrence
    /// counters). Chaos harnesses use this to run a fault-free rerun
    /// against the same shared memo; queries already in flight keep
    /// the plan they armed.
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.faults.lock().expect("faults lock") = Faults::new(plan);
    }

    /// Submits one query; equivalent to a one-element batch.
    pub fn submit(&self, query: &Query) -> QueryOutcome {
        let mut out = self.submit_batch(std::slice::from_ref(query));
        out.pop().expect("one outcome per query")
    }

    /// Runs a batch concurrently on the persistent pool. Admission is
    /// decided up front for the whole batch — queries past the queue
    /// bound come back [`QueryOutcome::Rejected`] without running —
    /// and outcomes are returned in submission order.
    pub fn submit_batch(&self, queries: &[Query]) -> Vec<QueryOutcome> {
        let admitted: Vec<bool> = queries.iter().map(|_| self.try_admit()).collect();
        self.pool.map_items(queries, |i, q| {
            if !admitted[i] {
                return QueryOutcome::Rejected { queue_full: true };
            }
            self.counters.in_flight.fetch_add(1, Ordering::SeqCst);
            // Nothing in the solve path panics (attempts are caught at
            // the quarantine boundary), so plain decrements are safe.
            let out = self.solve_query(q);
            self.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.counters.queued.fetch_sub(1, Ordering::SeqCst);
            self.counters.completed.fetch_add(1, Ordering::SeqCst);
            out
        })
    }

    /// Current health counters.
    pub fn health(&self) -> HealthSnapshot {
        let c = &self.counters;
        HealthSnapshot {
            queue_capacity: self.cfg.queue,
            queued: c.queued.load(Ordering::SeqCst),
            in_flight: c.in_flight.load(Ordering::SeqCst),
            admitted: c.admitted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            sheds: c.sheds.load(Ordering::SeqCst),
            retries: c.retries.load(Ordering::SeqCst),
            quarantined: c.quarantined.load(Ordering::SeqCst),
            cache_hits: c.cache_hits.load(Ordering::SeqCst),
            cache_entries: self.memo.lock().expect("memo lock").len() as u64,
            invalid: c.invalid.load(Ordering::SeqCst),
            faults: self.faults.lock().expect("faults lock").stats(),
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// The memo as a sorted `(canonical text, verdict)` list — the
    /// chaos proptests compare these snapshots bit-for-bit between a
    /// faulted history and a fresh server.
    pub fn memo_snapshot(&self) -> Vec<(String, QueryVerdict)> {
        let mut entries: Vec<(String, QueryVerdict)> = self
            .memo
            .lock()
            .expect("memo lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        entries.sort();
        entries
    }

    fn try_admit(&self) -> bool {
        let cap = self.cfg.queue as u64;
        let won = self
            .counters
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if won {
            self.counters.admitted.fetch_add(1, Ordering::SeqCst);
        } else {
            self.counters.sheds.fetch_add(1, Ordering::SeqCst);
        }
        won
    }

    fn solve_query(&self, q: &Query) -> QueryOutcome {
        let sys = match parse_str(&q.text) {
            Ok(sys) => sys,
            Err(e) => {
                self.counters.invalid.fetch_add(1, Ordering::SeqCst);
                return QueryOutcome::Invalid {
                    message: e.to_string(),
                };
            }
        };
        // `solve_guarded` asserts well-sortedness; a resident service
        // turns that panic into a typed rejection up front.
        if let Err(e) = sys.well_sorted() {
            self.counters.invalid.fetch_add(1, Ordering::SeqCst);
            return QueryOutcome::Invalid {
                message: e.to_string(),
            };
        }
        let canonical = to_smtlib(&sys);
        if let Some(verdict) = self.memo_get(&canonical) {
            self.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
            return QueryOutcome::Solved(Box::new(self.cached_result(q, verdict)));
        }
        QueryOutcome::Solved(Box::new(self.run_ladder(q, &sys, &canonical)))
    }

    fn memo_get(&self, canonical: &str) -> Option<QueryVerdict> {
        self.memo.lock().expect("memo lock").get(canonical).copied()
    }

    fn cached_result(&self, q: &Query, verdict: QueryVerdict) -> QueryResult {
        let report = SolveReport {
            program: q.name.clone(),
            solver: "server".to_string(),
            verdict: verdict.as_str().to_string(),
            wall_ms: 0.0,
            trace: Trace::default(),
            sections: vec![Section::new("server")
                .entry("attempts", 0)
                .entry("quarantined", 0)
                .entry("cached", 1)],
        };
        QueryResult {
            name: q.name.clone(),
            verdict,
            cached: true,
            attempts: 0,
            quarantined: 0,
            report,
            stats: None,
        }
    }

    /// The retry ladder: up to `1 + retries` attempts, each with fresh
    /// per-query state; transient failures narrow the engine set and
    /// back off before the next rung.
    fn run_ladder(&self, q: &Query, sys: &ChcSystem, canonical: &str) -> QueryResult {
        let started = Instant::now();
        let max_attempts = self.cfg.retries.saturating_add(1);
        let mut engines: Vec<EngineKind> = EngineKind::ALL.to_vec();
        let mut attempts: u32 = 0;
        let mut quarantined: u32 = 0;
        let mut last: Option<(PortfolioStats, Trace)> = None;
        let mut verdict = QueryVerdict::Unknown;
        let mut verdict_str = "unknown";
        while attempts < max_attempts && !engines.is_empty() {
            attempts += 1;
            match self.run_attempt(sys, &engines) {
                Err(_panic) => {
                    // Quarantine: the attempt's recorder, stores, and
                    // stats are poisoned — drop them all, keep the
                    // shared memo, try again from scratch.
                    quarantined += 1;
                    self.counters.quarantined.fetch_add(1, Ordering::SeqCst);
                    if attempts < max_attempts {
                        self.counters.retries.fetch_add(1, Ordering::SeqCst);
                        self.backoff(attempts);
                    }
                }
                Ok((outcome, stats, trace)) => {
                    let panicked: Vec<&'static str> = stats
                        .engines
                        .iter()
                        .filter(|r| r.panic.is_some())
                        .map(|r| r.name)
                        .collect();
                    // A panicked entrant sits out the next rung, except
                    // the refuter: it is the race's only way to UNSAT,
                    // so it is retried instead of dropped.
                    let kept =
                        |k: &EngineKind| *k == EngineKind::Refute || !panicked.contains(&k.name());
                    match outcome {
                        RaceOutcome::Decided { verdict: won, .. } => {
                            verdict = match won {
                                EngineVerdict::Sat => QueryVerdict::Sat,
                                EngineVerdict::Unsat => QueryVerdict::Unsat,
                                _ => unreachable!("races are decided definitively"),
                            };
                            verdict_str = verdict.as_str();
                            self.memo_put(canonical, verdict);
                            last = Some((stats, trace));
                            break;
                        }
                        RaceOutcome::Undecided => {
                            last = Some((stats, trace));
                            if panicked.is_empty() || attempts >= max_attempts {
                                // A clean Undecided is definitive:
                                // every engine exhausted its budgets.
                                break;
                            }
                            engines.retain(kept);
                            self.counters.retries.fetch_add(1, Ordering::SeqCst);
                            self.backoff(attempts);
                        }
                        RaceOutcome::Interrupted => {
                            last = Some((stats, trace));
                            if self.root.is_cancelled() {
                                // Shutdown or a tripped global
                                // deadline: report the partial truth.
                                verdict_str = "interrupted";
                                break;
                            }
                            if attempts >= max_attempts {
                                verdict_str = "interrupted";
                                break;
                            }
                            // Narrow: drop panicked entrants but the
                            // refuter; failing that, shed the
                            // slowest-to-cancel tail so the survivors
                            // get more room next rung.
                            engines.retain(kept);
                            if panicked.is_empty() && engines.len() > 1 {
                                engines.pop();
                            }
                            self.counters.retries.fetch_add(1, Ordering::SeqCst);
                            self.backoff(attempts);
                        }
                    }
                }
            }
        }
        let (stats, trace) = match last {
            Some((stats, trace)) => (Some(stats), trace),
            None => (None, Trace::default()),
        };
        let mut sections = vec![Section::new("server")
            .entry("attempts", i64::from(attempts))
            .entry("quarantined", i64::from(quarantined))
            .entry("cached", 0)
            .entry("entrants_left", engines.len() as i64)];
        if let Some(stats) = &stats {
            sections.extend(stats.sections());
        }
        let report = SolveReport {
            program: q.name.clone(),
            solver: "server".to_string(),
            verdict: verdict_str.to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            trace,
            sections,
        };
        QueryResult {
            name: q.name.clone(),
            verdict,
            cached: false,
            attempts,
            quarantined,
            report,
            stats,
        }
    }

    /// One rung: fresh ring-bounded recorder, fresh child guard with
    /// the per-attempt deadline, the fault plan armed, and the whole
    /// race behind `catch_unwind` — a probe panic at an entrant span
    /// (which race opens *outside* its per-engine isolation, so the
    /// span tree stays honest) lands here, not in the caller.
    #[allow(clippy::type_complexity)]
    fn run_attempt(
        &self,
        sys: &ChcSystem,
        kinds: &[EngineKind],
    ) -> Result<(RaceOutcome<()>, PortfolioStats, Trace), String> {
        let recorder = Recorder::with_limits(RecorderLimits {
            ring: Some(self.cfg.trace_ring),
            sample: None,
        });
        let faults = self.faults.lock().expect("faults lock").clone();
        let guard = self
            .root
            .child()
            .with_recorder(recorder.clone())
            .with_faults(&faults);
        let race_cfg = RaceConfig {
            deadline: self.cfg.query_deadline,
            parallel: self.cfg.race_parallel.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut span = guard.recorder().span("solve");
            span.note("entrants", kinds.len() as i64);
            let entrants = self.entrants(sys, kinds);
            race(entrants, &race_cfg, &guard)
        }));
        match outcome {
            Ok((outcome, stats)) => Ok((outcome, stats, recorder.snapshot())),
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    }

    fn entrants<'a>(&'a self, sys: &'a ChcSystem, kinds: &[EngineKind]) -> Vec<Engine<'a, ()>> {
        kinds
            .iter()
            .map(|kind| match kind {
                EngineKind::Refute => Engine::new("refute", move |g: &Guard| {
                    (refute(sys, &refute_budget(), g).0, ())
                }),
                EngineKind::Fmf => {
                    let cfg = &self.cfg.fmf;
                    Engine::new("fmf", move |g: &Guard| {
                        // Per-attempt store: quarantine must be able to
                        // discard it without touching shared state.
                        let mut store = AutStore::new();
                        let (answer, _) = solve_guarded(sys, cfg, &mut store, g);
                        (fmf_verdict(&answer), ())
                    })
                }
                EngineKind::Elem => {
                    let cfg = &self.cfg.elem;
                    Engine::new("elem", move |g: &Guard| {
                        let (answer, _) = solve_elem_guarded(sys, cfg, g);
                        (elem_verdict(&answer), ())
                    })
                }
                EngineKind::SizeElem => {
                    let cfg = &self.cfg.sizeelem;
                    Engine::new("sizeelem", move |g: &Guard| {
                        let (answer, _) = solve_size_elem_guarded(sys, cfg, g);
                        (sizeelem_verdict(&answer), ())
                    })
                }
                EngineKind::RegElem => {
                    let cfg = &self.cfg.regelem;
                    Engine::new("regelem", move |g: &Guard| {
                        let (answer, _) = solve_regelem_guarded(sys, cfg, g);
                        (regelem_verdict(&answer), ())
                    })
                }
            })
            .collect()
    }

    fn memo_put(&self, canonical: &str, verdict: QueryVerdict) {
        debug_assert!(
            verdict != QueryVerdict::Unknown,
            "only definitive verdicts memoize"
        );
        self.memo
            .lock()
            .expect("memo lock")
            .insert(canonical.to_string(), verdict);
    }

    fn backoff(&self, attempt: u32) {
        if self.cfg.backoff.is_zero() {
            return;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        let wait = self
            .cfg
            .backoff
            .saturating_mul(factor)
            .min(self.cfg.backoff_cap);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

fn fmf_verdict(a: &Answer) -> EngineVerdict {
    match a {
        Answer::Sat(_) => EngineVerdict::Sat,
        Answer::Unsat(_) => EngineVerdict::Unsat,
        Answer::Unknown(_) => EngineVerdict::Unknown,
        Answer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn elem_verdict(a: &ElemAnswer) -> EngineVerdict {
    match a {
        ElemAnswer::Sat(_) => EngineVerdict::Sat,
        ElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        ElemAnswer::Unknown => EngineVerdict::Unknown,
        ElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn sizeelem_verdict(a: &SizeElemAnswer) -> EngineVerdict {
    match a {
        SizeElemAnswer::Sat(_) => EngineVerdict::Sat,
        SizeElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        SizeElemAnswer::Unknown => EngineVerdict::Unknown,
        SizeElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

fn regelem_verdict(a: &RegElemAnswer) -> EngineVerdict {
    match a {
        RegElemAnswer::Sat(..) => EngineVerdict::Sat,
        RegElemAnswer::Unsat(_) => EngineVerdict::Unsat,
        RegElemAnswer::Unknown => EngineVerdict::Unknown,
        RegElemAnswer::Interrupted => EngineVerdict::Interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringen_benchgen::programs;

    /// A small, fast, deterministic test config: sequential batch
    /// pool (so memo hits are ordered), no backoff sleeps.
    fn quick_config() -> ServerConfig {
        ServerConfig {
            parallel: ParallelConfig::sequential(),
            race_parallel: ParallelConfig::with_threads(2),
            backoff: Duration::ZERO,
            query_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        }
    }

    fn wire(sys: &ChcSystem) -> String {
        to_smtlib(sys)
    }

    #[test]
    fn batch_solves_and_memoizes_repeats() {
        let server = SolveServer::new(quick_config());
        let even = wire(&programs::even());
        let queries = [
            Query::new("even-a", even.clone()),
            Query::new("even-b", even),
            Query::new("incdec", wire(&programs::inc_dec())),
        ];
        let out = server.submit_batch(&queries);
        assert_eq!(out.len(), 3);
        let verdicts: Vec<QueryVerdict> = out.iter().map(|o| o.verdict().unwrap()).collect();
        assert_eq!(verdicts[0], verdicts[1], "same text, same verdict");
        assert_ne!(verdicts[0], QueryVerdict::Unknown, "Even is decidable");
        match (&out[0], &out[1]) {
            (QueryOutcome::Solved(a), QueryOutcome::Solved(b)) => {
                assert!(!a.cached, "first sight solves");
                assert!(b.cached, "second sight hits the memo");
                assert_eq!(b.attempts, 0);
            }
            other => panic!("expected two solved queries, got {other:?}"),
        }
        let health = server.health();
        assert_eq!(health.admitted, 3);
        assert_eq!(health.completed, 3);
        assert_eq!(health.cache_hits, 1);
        assert_eq!(health.queued, 0, "admission slots drain");
        assert_eq!(health.in_flight, 0);
        assert!(health.cache_entries >= 1);
    }

    /// `p` holds of `Z` and is closed under `S`, but must not hold of
    /// `S(S(Z))`: refuted in two steps.
    const TWO_STEP_UNSAT: &str = "(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))\
        (declare-fun p (Nat) Bool)\
        (assert (p Z))\
        (assert (forall ((x Nat)) (=> (p x) (p (S x)))))\
        (assert (=> (p (S (S Z))) false))";

    #[test]
    fn unsat_queries_are_won_by_the_refute_entrant() {
        let server = SolveServer::new(quick_config());
        match server.submit(&Query::new("unsat", TWO_STEP_UNSAT)) {
            QueryOutcome::Solved(r) => {
                assert_eq!(r.verdict, QueryVerdict::Unsat);
                let stats = r.stats.expect("the race ran");
                assert_eq!(stats.winner_report().map(|w| w.name), Some("refute"));
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn a_panicked_refuter_is_retried_not_dropped() {
        // The only `saturate` span is the refuter's (the engines run
        // zero rounds), so its first one panics inside the entrant. The
        // engines cannot claim UNSAT; the next rung's refuter does.
        let cfg = ServerConfig {
            faults: FaultPlan::parse("panic@saturate#1").expect("plan parses"),
            ..quick_config()
        };
        let server = SolveServer::new(cfg);
        match server.submit(&Query::new("unsat", TWO_STEP_UNSAT)) {
            QueryOutcome::Solved(r) => {
                assert_eq!(r.verdict, QueryVerdict::Unsat);
                assert_eq!(r.attempts, 2, "the refuter came back on the retry");
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        assert_eq!(server.health().faults.panics, 1);
    }

    #[test]
    fn overflow_is_shed_with_a_typed_rejection() {
        let cfg = ServerConfig {
            queue: 1,
            ..quick_config()
        };
        let server = SolveServer::new(cfg);
        let even = wire(&programs::even());
        let queries = [
            Query::new("a", even.clone()),
            Query::new("b", even.clone()),
            Query::new("c", even),
        ];
        let out = server.submit_batch(&queries);
        assert!(out[0].verdict().is_some(), "first query runs");
        for o in &out[1..] {
            match o {
                QueryOutcome::Rejected { queue_full } => assert!(queue_full),
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
        let health = server.health();
        assert_eq!(health.sheds, 2);
        assert_eq!(health.admitted, 1);
        // Slots drained: a follow-up query is admitted again.
        let again = server.submit(&Query::new("d", wire(&programs::inc_dec())));
        assert!(again.verdict().is_some(), "queue recovered: {again:?}");
    }

    #[test]
    fn malformed_and_ill_sorted_inputs_are_typed_rejections() {
        let server = SolveServer::new(quick_config());
        let out = server.submit(&Query::new("bad", "(assert"));
        match out {
            QueryOutcome::Invalid { message } => {
                assert!(!message.is_empty());
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(server.health().invalid, 1);
        assert_eq!(server.health().completed, 1, "invalid still completes");
    }

    #[test]
    fn entrant_probe_panic_is_quarantined_and_retried() {
        // `panic@fmf#1` fires at the racer's entrant span, which opens
        // *before* the per-engine isolation — the whole attempt
        // unwinds, the quarantine catches it, and the second rung
        // (occurrence #2 of the span) runs clean.
        let cfg = ServerConfig {
            faults: FaultPlan::parse("panic@fmf#1").expect("plan parses"),
            ..quick_config()
        };
        let server = SolveServer::new(cfg);
        let baseline = SolveServer::new(quick_config());
        let q = Query::new("even", wire(&programs::even()));
        let faulted = server.submit(&q);
        let clean = baseline.submit(&q);
        match (&faulted, &clean) {
            (QueryOutcome::Solved(f), QueryOutcome::Solved(c)) => {
                assert_eq!(
                    f.verdict, c.verdict,
                    "faulted rerun agrees with clean solve"
                );
                assert_eq!(f.attempts, 2, "one quarantined rung, one clean rung");
                assert_eq!(f.quarantined, 1);
            }
            other => panic!("expected two solved queries, got {other:?}"),
        }
        let health = server.health();
        assert_eq!(health.quarantined, 1);
        assert_eq!(health.retries, 1);
        assert_eq!(health.faults.panics, 1);
        // The memo survived the quarantine and carries the verdict.
        assert_eq!(server.memo_snapshot(), baseline.memo_snapshot());
    }

    #[test]
    fn engine_internal_panics_narrow_without_losing_the_race() {
        // A panic *inside* an engine (here: every occurrence of the
        // finder's span) is isolated by the racer itself; siblings
        // still decide, so no retry is needed at all.
        let cfg = ServerConfig {
            faults: FaultPlan::parse("panic@finder").expect("plan parses"),
            ..quick_config()
        };
        let server = SolveServer::new(cfg);
        let out = server.submit(&Query::new("even", wire(&programs::even())));
        match out {
            QueryOutcome::Solved(r) => {
                assert_ne!(r.verdict, QueryVerdict::Unknown);
                assert_eq!(r.attempts, 1, "siblings decided despite the panic");
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_degrades_to_interrupted_unknown() {
        let server = SolveServer::new(quick_config());
        server.shutdown();
        let out = server.submit(&Query::new("even", wire(&programs::even())));
        match out {
            QueryOutcome::Solved(r) => {
                assert_eq!(r.verdict, QueryVerdict::Unknown);
                assert_eq!(r.report.verdict, "interrupted");
                assert_eq!(r.attempts, 1, "no retries after shutdown");
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        assert!(server.memo_snapshot().is_empty(), "Unknown never memoizes");
    }

    #[test]
    fn health_snapshot_round_trips_as_schema_tagged_json() {
        let server = SolveServer::new(quick_config());
        server.submit(&Query::new("even", wire(&programs::even())));
        let text = server.health().to_json_string();
        let doc = ringen_obs::json::parse(&text).expect("health JSON parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(HEALTH_SCHEMA));
        assert_eq!(doc.get("completed").unwrap().as_i64(), Some(1));
        let queue = doc.get("queue").unwrap();
        assert_eq!(queue.get("depth").unwrap().as_i64(), Some(0));
        assert!(queue.get("capacity").unwrap().as_i64().unwrap() > 0);
        assert!(doc.get("uptime_ms").unwrap().as_i64().is_some());
        assert!(doc.get("faults").unwrap().get("panics").is_some());
    }

    #[test]
    fn per_query_report_passes_the_solve_report_contract() {
        let server = SolveServer::new(quick_config());
        let out = server.submit(&Query::new("even", wire(&programs::even())));
        let QueryOutcome::Solved(r) = out else {
            panic!("expected Solved");
        };
        assert_eq!(r.report.program, "even");
        assert_eq!(r.report.solver, "server");
        assert!(["sat", "unsat"].contains(&r.report.verdict.as_str()));
        // The attempt's root span is `solve`, with the race below it.
        let spans = &r.report.trace.spans;
        let root = spans
            .iter()
            .find(|s| s.parent.is_none())
            .expect("a root span");
        assert_eq!(root.name, "solve");
        assert!(spans.iter().any(|s| s.name == "race"));
        // The server section leads, then the race sections.
        assert_eq!(r.report.sections[0].name, "server");
        assert!(r.report.sections.iter().any(|s| s.name == "race"));
    }
}
