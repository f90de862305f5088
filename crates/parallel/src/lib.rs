//! A dependency-free, scoped threadpool for the solver's
//! embarrassingly parallel loops.
//!
//! The saturation refuter and the automata batch evaluators fan the
//! same pure function out over a slice of independent work items
//! (clauses, pooled term ids). This crate gives them that fan-out on
//! plain [`std::thread::scope`] — no external dependency, matching the
//! workspace's offline-vendored build — with three properties the
//! solver's certified answers demand:
//!
//! 1. **Determinism by construction.** Work distribution uses a shared
//!    atomic cursor (a chunked work queue: whichever worker is free
//!    claims the next item), so the *schedule* is nondeterministic —
//!    but results are keyed by item index and handed back in input
//!    order. As long as the per-item function is pure, the returned
//!    `Vec` is byte-identical at any thread count.
//!
//! 2. **Inline 1-thread fallback.** With `threads <= 1` (or a single
//!    work item) no thread is ever spawned: the items run inline, in
//!    order, on the caller's stack. Single-threaded semantics are
//!    therefore byte-identical to a plain sequential loop — there is no
//!    "parallel runtime" between the caller and its closure.
//!
//! 3. **Panic propagation, never deadlock.** A panicking worker does
//!    not wedge the pool: remaining workers drain the queue, the scope
//!    joins every thread, and the first panic payload is re-raised on
//!    the caller's thread via [`std::panic::resume_unwind`].
//!
//! # The snapshot / delta / merge recipe
//!
//! Callers that *mutate* shared state (the saturation fact base) follow
//! the discipline the `ringen-core` saturation engine established:
//!
//! * **snapshot** — workers receive the shared structure frozen by
//!   `&`-borrow; nothing is written during the parallel phase;
//! * **delta** — each work item accumulates its writes in a private
//!   scratch structure (new facts interned into a thread-local
//!   [`ScratchPool`](../ringen_terms/pool/struct.ScratchPool.html));
//! * **merge** — after the barrier, the caller folds the deltas into
//!   the master structure *in item order*, which is a pure function of
//!   the per-item results and hence independent of how items were
//!   scheduled onto threads.
//!
//! Together with property 1 this makes the parallel engines bit-for-bit
//! equal to their sequential counterparts — a claim the differential
//! property tests in `ringen-core` enforce at 1, 2, 4 and 8 threads.
//!
//! # Configuration
//!
//! [`ParallelConfig`] selects the worker count. `RINGEN_THREADS=n`
//! overrides it process-wide ([`ParallelConfig::default`] reads the
//! variable); `RINGEN_THREADS=1` forces the inline path everywhere,
//! which is the switch CI uses to pin the parallel engines to their
//! sequential semantics.
//!
//! # Scoped vs. persistent workers
//!
//! [`Pool::new`] keeps the original per-call discipline: workers are
//! spawned inside a [`std::thread::scope`] for each `map_items` call
//! and joined before it returns. [`Pool::persistent`] instead spawns
//! the workers **once** — they park on a [`Condvar`] between calls —
//! which is what round-based engines (saturation, the FMF size sweep)
//! want: one spawn per `saturate_guarded`/`find_model_guarded` call
//! instead of one per round. Both modes share the work-claiming
//! protocol (atomic cursor, item-order results, first-panic propagation
//! after every worker has finished the call), so they are observably
//! identical apart from latency; with `threads <= 1` the persistent
//! constructor spawns nothing and every call runs inline.
//!
//! # Cancellation and panic isolation
//!
//! [`Pool::try_map_items`]/[`Pool::try_map_chunks`] accept a
//! [`Guard`] (re-exported from `ringen-guard`) and return
//! `Err(JobError::Cancelled)` as soon as the token trips — remaining
//! items are skipped, partial work is discarded, and the workers stay
//! parked for the next call. A panicking closure is caught *per item*
//! ([`std::panic::catch_unwind`]) and surfaced as
//! `Err(JobError::Panicked(msg))` instead of unwinding through the
//! pool, so a persistent pool is never poisoned by one bad job.

use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

pub use ringen_guard::{
    deadline_ms_from_env, FaultPlan, FaultStats, Faults, Guard, Poller, Recorder, RecorderLimits,
    SharedRecorder, Span, SpanHandle, DEFAULT_POLL_PERIOD,
};

/// Worker-count policy for a [`Pool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads; `0` means "ask the OS"
    /// ([`std::thread::available_parallelism`]). `1` disables spawning
    /// entirely (the inline path).
    pub threads: usize,
}

impl ParallelConfig {
    /// Reads `RINGEN_THREADS` (unset, empty, unparsable, or `0` mean
    /// auto-detect). This is also [`ParallelConfig::default`], so every
    /// engine that defaults its config honors the variable.
    pub fn from_env() -> Self {
        let threads = std::env::var("RINGEN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0);
        ParallelConfig { threads }
    }

    /// Exactly `n` workers (`0` = auto-detect).
    pub fn with_threads(n: usize) -> Self {
        ParallelConfig { threads: n }
    }

    /// The inline single-threaded configuration.
    pub fn sequential() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

/// How a cancellable pool job ([`Pool::try_map_items`] /
/// [`Pool::try_map_chunks`]) ended early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The [`Guard`] tripped (explicit cancel, deadline, or ancestor
    /// cancellation); partial results were discarded.
    Cancelled,
    /// An item closure panicked; carries the first panic's message. The
    /// pool itself survives and serves subsequent calls.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Best-effort extraction of a panic payload's message (`panic!`
/// string literals and `format!`ed messages; anything else gets a
/// generic label).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Items between guard consultations in the cancellable entry points:
/// one shared-counter tick per item, one real token check per period.
const JOB_POLL_PERIOD: usize = 16;

/// A fan-out executor. In the default (scoped) mode it holds no threads
/// while idle — workers are spawned per call inside a
/// [`std::thread::scope`] and joined before the call returns, so
/// borrowed inputs need no `'static` bound. In persistent mode
/// ([`Pool::persistent`]) the workers are spawned once and parked
/// between calls; every `map_*` call still blocks until the last worker
/// has finished it, so borrowed inputs remain sound there too.
#[derive(Clone)]
pub struct Pool {
    threads: usize,
    /// Long-lived parked workers; `None` in the scoped (per-call) mode.
    workers: Option<Arc<Workers>>,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("persistent", &self.workers.is_some())
            .finish()
    }
}

impl Pool {
    /// A pool with the configured (resolved) worker count, spawning
    /// scoped workers per call.
    pub fn new(cfg: &ParallelConfig) -> Self {
        Pool {
            threads: cfg.effective_threads().max(1),
            workers: None,
        }
    }

    /// A pool whose workers are spawned **now** and parked between
    /// calls ([`Condvar`] park/notify) — the long-lived mode for
    /// round-based engines that would otherwise re-spawn every round.
    /// With `threads <= 1` nothing is spawned and the pool is the plain
    /// inline executor. Workers are joined when the last clone of the
    /// pool is dropped.
    pub fn persistent(cfg: &ParallelConfig) -> Self {
        let threads = cfg.effective_threads().max(1);
        Pool {
            threads,
            workers: (threads > 1).then(|| Arc::new(Workers::spawn(threads))),
        }
    }

    /// The inline single-threaded pool.
    pub fn sequential() -> Self {
        Pool {
            threads: 1,
            workers: None,
        }
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether calls run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Whether this pool keeps long-lived parked workers.
    pub fn is_persistent(&self) -> bool {
        self.workers.is_some()
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// Items are claimed one at a time from a shared cursor, so uneven
    /// item costs balance across workers. If `f` is pure, the result is
    /// identical at any thread count; with `threads <= 1` (or fewer
    /// than two items) everything runs inline, in order, unspawned.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have been
    /// joined (the pool never deadlocks on a panicking task).
    pub fn map_items<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        if let Some(workers) = &self.workers {
            return workers.map_items(items, f);
        }
        let workers = self.threads.min(items.len());
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            done.push((i, f(i, &items[i])));
                        }
                        done
                    })
                })
                .collect();
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(pairs) => {
                        for (i, r) in pairs {
                            slots[i] = Some(r);
                        }
                    }
                    // Keep joining the remaining workers before
                    // propagating, so no thread outlives the call.
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every item processed"))
            .collect()
    }

    /// Cancellable, panic-isolated [`Pool::map_items`].
    ///
    /// Workers consult `guard` every few items (amortized through a
    /// shared counter) and stop claiming work once it trips; the call
    /// then returns `Err(JobError::Cancelled)` with all partial results
    /// discarded. A panicking closure is caught per item and reported
    /// as `Err(JobError::Panicked(_))` — it never unwinds through the
    /// pool, so persistent workers stay parked and reusable. On success
    /// the results come back in item order, bit-identical to
    /// [`Pool::map_items`] at any thread count.
    pub fn try_map_items<T, R, F>(
        &self,
        guard: &Guard,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, JobError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if guard.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        let stop = AtomicBool::new(false);
        let first_panic: Mutex<Option<String>> = Mutex::new(None);
        let polls = AtomicUsize::new(0);
        let results = self.map_items(items, |i, t| {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            if polls
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(JOB_POLL_PERIOD)
                && guard.is_cancelled()
            {
                stop.store(true, Ordering::Relaxed);
                return None;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => Some(r),
                Err(payload) => {
                    let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                    if slot.is_none() {
                        *slot = Some(panic_message(payload.as_ref()));
                    }
                    stop.store(true, Ordering::Relaxed);
                    None
                }
            }
        });
        if let Some(msg) = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(JobError::Panicked(msg));
        }
        if stop.into_inner() {
            return Err(JobError::Cancelled);
        }
        // `stop` was never set, so every slot is populated.
        Ok(results
            .into_iter()
            .map(|r| r.expect("uncancelled job completes every item"))
            .collect())
    }

    /// Cancellable, panic-isolated [`Pool::map_chunks`]: same chunking
    /// as the infallible version, same early-exit contract as
    /// [`Pool::try_map_items`].
    pub fn try_map_chunks<T, R, F>(
        &self,
        guard: &Guard,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, JobError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if guard.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let chunk = if self.threads <= 1 {
            items.len()
        } else {
            items.len().div_ceil(self.threads * 4).max(1)
        };
        let ranges: Vec<(usize, usize)> = (0..items.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(items.len())))
            .collect();
        self.try_map_items(guard, &ranges, |_, &(a, b)| f(a, &items[a..b]))
    }

    /// Splits `items` into contiguous chunks and applies `f(start,
    /// chunk)` to each, returning per-chunk results in slice order.
    ///
    /// Chunk boundaries depend on the worker count (4 chunks per worker
    /// for load balance; one chunk inline), so `f` must be insensitive
    /// to how the slice is cut — per-item maps whose results are
    /// concatenated qualify; cross-item state does not. For exact
    /// item-order guarantees use [`Pool::map_items`].
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads <= 1 {
            return vec![f(0, items)];
        }
        let chunk = items.len().div_ceil(self.threads * 4).max(1);
        let ranges: Vec<(usize, usize)> = (0..items.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(items.len())))
            .collect();
        self.map_items(&ranges, |_, &(a, b)| f(a, &items[a..b]))
    }

    /// [`Pool::map_chunks`] for side-effect-free per-chunk work whose
    /// results are not needed.
    pub fn for_each_chunk<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(usize, &[T]) + Sync,
    {
        self.map_chunks(items, |start, chunk| f(start, chunk));
    }

    /// Maps every item and folds the results in item order. `fold` must
    /// be associative for the result to be independent of the worker
    /// count (chunk-local folds happen first, then the chunk results
    /// fold left-to-right). Returns `None` on an empty slice.
    pub fn map_reduce<T, A, M, F>(&self, items: &[T], map: M, fold: F) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(&T) -> A + Sync,
        F: Fn(A, A) -> A + Sync,
    {
        self.map_chunks(items, |_, chunk| {
            chunk
                .iter()
                .map(&map)
                .reduce(&fold)
                .expect("chunks are nonempty")
        })
        .into_iter()
        .reduce(fold)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(&ParallelConfig::default())
    }
}

// ---------------------------------------------------------------------
// Persistent workers
// ---------------------------------------------------------------------

/// A dispatched call, type-erased so the long-lived workers (which are
/// `'static` threads) can run closures that borrow the caller's stack.
///
/// Soundness: the pointee is a [`Call`] on the stack frame of
/// [`Workers::run`], which does not return until every worker has
/// checked in for this epoch (`active == 0` under the mutex) — so no
/// worker can dereference `data` after the frame is gone. Workers only
/// read the job recorded for the epoch they observed while holding the
/// state lock.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    /// Monomorphized drain loop: claims items off the call's cursor
    /// until it runs dry (or the closure panics).
    drain: unsafe fn(*const ()),
}

// The raw pointer is only ever dereferenced between the epoch's publish
// and its completion barrier; see [`Job`].
unsafe impl Send for Job {}

/// Mutex-guarded scheduling state shared with every worker.
struct WorkerState {
    /// Bumped once per dispatched call; workers wake on the change.
    epoch: u64,
    /// The current call, valid while `active > 0`.
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<WorkerState>,
    /// Workers park here between calls.
    work: Condvar,
    /// The caller parks here until `active` drains to zero.
    done: Condvar,
}

/// The borrowed context of one call, erased behind [`Job::data`].
struct Call<'a> {
    cursor: AtomicUsize,
    len: usize,
    /// First panic payload, re-raised on the caller after the barrier.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    f: &'a (dyn Fn(usize) + Sync),
}

/// The worker-side drain loop. Mirrors the scoped executor: a panicking
/// worker stops claiming items while its siblings keep draining, and
/// the first payload wins.
unsafe fn drain_call(data: *const ()) {
    let call = unsafe { &*(data as *const Call<'_>) };
    loop {
        let i = call.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= call.len {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (call.f)(i))) {
            let mut slot = call.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
            break;
        }
    }
}

/// A long-lived worker set, parked on [`Shared::work`] between calls
/// and joined when the owning [`Pool`] (all clones of it) is dropped.
struct Workers {
    shared: Arc<Shared>,
    /// Serializes [`Workers::run`]: clones of a persistent [`Pool`]
    /// share one job slot and one `active` counter, so concurrent
    /// calls (which the scoped mode supports trivially) must take
    /// turns — otherwise one caller's barrier could count the other's
    /// check-ins and return while its stack-borrowed [`Call`] is still
    /// referenced.
    dispatch: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    count: usize,
}

impl Workers {
    fn spawn(count: usize) -> Workers {
        let shared = Arc::new(Shared {
            state: Mutex::new(WorkerState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Workers::worker_loop(&shared))
            })
            .collect();
        Workers {
            shared,
            dispatch: Mutex::new(()),
            handles,
            count,
        }
    }

    fn worker_loop(shared: &Shared) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch != seen {
                        seen = st.epoch;
                        break st.job.expect("job published with its epoch");
                    }
                    st = shared.work.wait(st).unwrap();
                }
            };
            // SAFETY: the caller blocks in `run` until this worker's
            // check-in below, so the pointee outlives this use.
            unsafe { (job.drain)(job.data) };
            let mut st = shared.state.lock().unwrap();
            st.active -= 1;
            if st.active == 0 {
                shared.done.notify_all();
            }
        }
    }

    /// Runs `f(0..len)` across the parked workers and blocks until all
    /// of them have finished the call; re-raises the first panic.
    /// Calls from concurrent clones are serialized by the dispatch
    /// lock (released before any panic is re-raised, so a panicking
    /// call never poisons it for the next).
    fn run(&self, len: usize, f: &(dyn Fn(usize) + Sync)) {
        let payload = {
            let _turn = self
                .dispatch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let call = Call {
                cursor: AtomicUsize::new(0),
                len,
                panic: Mutex::new(None),
                f,
            };
            {
                let mut st = self.shared.state.lock().unwrap();
                debug_assert!(st.job.is_none() && st.active == 0, "calls are serialized");
                st.epoch = st.epoch.wrapping_add(1);
                st.job = Some(Job {
                    data: (&call as *const Call<'_>).cast(),
                    drain: drain_call,
                });
                st.active = self.count;
            }
            self.shared.work.notify_all();
            let mut st = self.shared.state.lock().unwrap();
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
            drop(st);
            call.panic.into_inner().unwrap()
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// [`Pool::map_items`] over the parked workers: same cursor
    /// protocol, results written into claimed-once slots and handed
    /// back in item order.
    fn map_items<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let slots: Vec<Slot<R>> = (0..items.len())
            .map(|_| Slot(UnsafeCell::new(None)))
            .collect();
        self.run(items.len(), &|i| {
            let r = f(i, &items[i]);
            // SAFETY: index `i` is claimed by exactly one worker (the
            // shared cursor is fetch_add), so this write is exclusive;
            // reads happen only after the completion barrier.
            unsafe { *slots[i].0.get() = Some(r) };
        });
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("every item processed"))
            .collect()
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One result cell, written by exactly one worker (cursor-claimed).
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: concurrent access is index-disjoint by the cursor protocol.
unsafe impl<R: Send> Sync for Slot<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    fn pools() -> Vec<Pool> {
        [1usize, 2, 4, 8]
            .into_iter()
            .map(|n| Pool::new(&ParallelConfig::with_threads(n)))
            .collect()
    }

    #[test]
    fn map_items_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for pool in pools() {
            let got = pool.map_items(&items, |i, &x| {
                assert_eq!(items[i], x);
                x * x + 1
            });
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn map_items_handles_empty_and_singleton() {
        let pool = Pool::new(&ParallelConfig::with_threads(4));
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map_items(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map_items(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_chunks_concatenation_is_chunking_insensitive() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 3).collect();
        for pool in pools() {
            let got: Vec<u32> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x + 3).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
    }

    #[test]
    fn for_each_chunk_visits_every_item_once() {
        let items: Vec<u64> = (1..=500).collect();
        for pool in pools() {
            let sum = AtomicU64::new(0);
            pool.for_each_chunk(&items, |_, chunk| {
                sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 500 * 501 / 2);
        }
    }

    #[test]
    fn map_reduce_folds_in_item_order() {
        // String concatenation is associative but not commutative: any
        // scheduling bug that reorders chunks changes the result.
        let items: Vec<String> = (0..64).map(|i| format!("{i};")).collect();
        let expect = items.concat();
        for pool in pools() {
            let got = pool
                .map_reduce(&items, |s| s.clone(), |a, b| a + &b)
                .expect("nonempty");
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
        let empty: Vec<String> = Vec::new();
        assert!(Pool::sequential()
            .map_reduce(&empty, |s| s.clone(), |a, b| a + &b)
            .is_none());
    }

    #[test]
    fn panicking_worker_propagates_instead_of_deadlocking() {
        let items: Vec<u32> = (0..64).collect();
        for pool in pools() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_items(&items, |_, &x| {
                    if x == 13 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 13"), "got {msg:?}");
        }
    }

    #[test]
    fn persistent_pool_matches_scoped_results() {
        let items: Vec<u64> = (0..513).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 7).collect();
        for n in [1usize, 2, 4, 8] {
            let pool = Pool::persistent(&ParallelConfig::with_threads(n));
            assert_eq!(pool.is_persistent(), n > 1);
            // Repeated calls reuse the same parked workers.
            for _ in 0..3 {
                let got = pool.map_items(&items, |_, &x| x * 3 + 7);
                assert_eq!(got, expect, "threads = {n}");
            }
            // Chunked entry points ride the same workers.
            let got: Vec<u64> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x * 3 + 7).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(got, expect, "threads = {n}");
        }
    }

    #[test]
    fn persistent_pool_propagates_panics_and_stays_usable() {
        let items: Vec<u32> = (0..64).collect();
        let pool = Pool::persistent(&ParallelConfig::with_threads(4));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_items(&items, |_, &x| {
                if x == 21 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 21"), "got {msg:?}");
        // The workers survived the panic and serve the next call.
        let got = pool.map_items(&items, |_, &x| x + 1);
        assert_eq!(got, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn persistent_pool_clones_share_workers_and_join_on_drop() {
        let items: Vec<u32> = (0..100).collect();
        let pool = Pool::persistent(&ParallelConfig::with_threads(3));
        let clone = pool.clone();
        assert_eq!(
            clone.map_items(&items, |_, &x| x ^ 1),
            items.iter().map(|x| x ^ 1).collect::<Vec<_>>()
        );
        drop(pool);
        // The surviving clone still owns live workers.
        assert_eq!(
            clone.map_items(&items, |_, &x| x + 2),
            items.iter().map(|x| x + 2).collect::<Vec<_>>()
        );
        drop(clone); // joins the workers; the test must not hang
    }

    #[test]
    fn persistent_pool_serializes_concurrent_callers() {
        // The scoped mode supports concurrent calls on clones
        // trivially (each call spawns its own workers); the persistent
        // mode shares one job slot, so calls must take turns — this
        // hammers it from several caller threads at once.
        let pool = Pool::persistent(&ParallelConfig::with_threads(3));
        let items: Vec<u64> = (0..200).collect();
        std::thread::scope(|scope| {
            for c in 0u64..4 {
                let pool = pool.clone();
                let items = &items;
                scope.spawn(move || {
                    for round in 0u64..20 {
                        let got = pool.map_items(items, |_, &x| x * c + round);
                        let expect: Vec<u64> = items.iter().map(|x| x * c + round).collect();
                        assert_eq!(got, expect, "caller {c} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn try_map_items_matches_map_items_when_uncancelled() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2 + 5).collect();
        let guard = Guard::new();
        for pool in pools() {
            let got = pool
                .try_map_items(&guard, &items, |_, &x| x * 2 + 5)
                .expect("no cancellation, no panic");
            assert_eq!(got, expect, "threads = {}", pool.threads());
        }
        let persistent = Pool::persistent(&ParallelConfig::with_threads(4));
        let got = persistent
            .try_map_items(&guard, &items, |_, &x| x * 2 + 5)
            .expect("no cancellation, no panic");
        assert_eq!(got, expect);
    }

    #[test]
    fn try_map_items_rejects_an_already_tripped_guard() {
        let guard = Guard::new();
        guard.cancel();
        let calls = AtomicU64::new(0);
        let got = Pool::sequential().try_map_items(&guard, &[1u32, 2, 3], |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(got, Err(JobError::Cancelled));
        assert_eq!(calls.into_inner(), 0, "closure must never run");
    }

    #[test]
    fn try_map_items_stops_early_on_mid_job_cancel() {
        let items: Vec<u32> = (0..10_000).collect();
        for pool in pools() {
            let guard = Guard::new();
            let calls = AtomicU64::new(0);
            let got = pool.try_map_items(&guard, &items, |i, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 40 {
                    guard.cancel();
                }
                x
            });
            assert_eq!(
                got,
                Err(JobError::Cancelled),
                "threads = {}",
                pool.threads()
            );
            // The whole slice must not have been processed: the guard
            // is consulted at least every JOB_POLL_PERIOD items per
            // worker, so work stops well before the end.
            assert!(
                calls.into_inner() < items.len() as u64,
                "threads = {}",
                pool.threads()
            );
        }
    }

    #[test]
    fn try_map_items_surfaces_panics_as_typed_errors() {
        let items: Vec<u32> = (0..64).collect();
        for pool in pools() {
            match pool.try_map_items(&Guard::new(), &items, |_, &x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            }) {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("boom at 13"), "got {msg:?}")
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_map_chunks_cancels_and_completes_like_map_chunks() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 3).collect();
        for pool in pools() {
            let got: Vec<u32> = pool
                .try_map_chunks(&Guard::new(), &items, |_, chunk| {
                    chunk.iter().map(|x| x + 3).collect::<Vec<_>>()
                })
                .expect("uncancelled")
                .concat();
            assert_eq!(got, expect, "threads = {}", pool.threads());
            let tripped = Guard::new();
            tripped.cancel();
            assert_eq!(
                pool.try_map_chunks(&tripped, &items, |_, chunk| chunk.len()),
                Err(JobError::Cancelled)
            );
        }
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            Pool::sequential().try_map_chunks(&Guard::new(), &empty, |_, c| c.len()),
            Ok(Vec::new())
        );
    }

    #[test]
    fn deadline_guard_cancels_a_running_job() {
        let items: Vec<u32> = (0..100_000).collect();
        let pool = Pool::persistent(&ParallelConfig::with_threads(2));
        let guard = Guard::with_deadline(std::time::Duration::from_millis(5));
        let got = pool.try_map_items(&guard, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            x
        });
        assert_eq!(got, Err(JobError::Cancelled));
        // The pool survives a deadline-cancelled call.
        assert_eq!(
            pool.try_map_items(&Guard::new(), &[1u32, 2], |_, &x| x),
            Ok(vec![1, 2])
        );
    }

    #[test]
    fn persistent_pool_survives_repeated_panics_across_call_styles() {
        // Reuse-after-panic, deeper than one round-trip: raw panicking
        // map_items calls interleaved with typed try_map_items failures
        // and chunked calls, all on the same parked workers.
        let items: Vec<u32> = (0..128).collect();
        let pool = Pool::persistent(&ParallelConfig::with_threads(4));
        for round in 0..3 {
            // (a) untyped path: panic propagates to the caller...
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_items(&items, |_, &x| {
                    if x % 32 == 7 {
                        panic!("round {round} boom at {x}");
                    }
                    x
                })
            }));
            assert!(result.is_err(), "round {round}: panic must propagate");
            // (b) ...typed path: panic becomes a JobError...
            match pool.try_map_items(&Guard::new(), &items, |_, &x| {
                if x == 99 {
                    panic!("typed boom {round}");
                }
                x
            }) {
                Err(JobError::Panicked(msg)) => {
                    assert!(msg.contains("typed boom"), "round {round}: got {msg:?}")
                }
                other => panic!("round {round}: expected Panicked, got {other:?}"),
            }
            // (c) ...and the very next calls on the same workers are
            // clean, for both entry points.
            assert_eq!(
                pool.map_items(&items, |_, &x| x + round),
                items.iter().map(|x| x + round).collect::<Vec<_>>()
            );
            let chunked: Vec<u32> = pool
                .map_chunks(&items, |_, chunk| {
                    chunk.iter().map(|x| x * 2).collect::<Vec<_>>()
                })
                .concat();
            assert_eq!(chunked, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_pool_survives_panics_from_concurrent_clones() {
        // Clones share one job slot; a panic in one caller's job must
        // not wedge or corrupt its siblings' calls.
        let pool = Pool::persistent(&ParallelConfig::with_threads(3));
        let items: Vec<u64> = (0..100).collect();
        std::thread::scope(|scope| {
            for c in 0u64..4 {
                let pool = pool.clone();
                let items = &items;
                scope.spawn(move || {
                    for round in 0u64..10 {
                        if (c + round) % 3 == 0 {
                            let got = pool.try_map_items(&Guard::new(), items, |_, &x| {
                                if x == 50 {
                                    panic!("caller {c} round {round}");
                                }
                                x
                            });
                            assert!(
                                matches!(got, Err(JobError::Panicked(_))),
                                "caller {c} round {round}: {got:?}"
                            );
                        } else {
                            let got = pool.map_items(items, |_, &x| x * c + round);
                            let expect: Vec<u64> = items.iter().map(|x| x * c + round).collect();
                            assert_eq!(got, expect, "caller {c} round {round}");
                        }
                    }
                });
            }
        });
        // And the pool still serves a clean call afterwards.
        assert_eq!(
            pool.map_items(&items, |_, &x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn env_config_parses_and_falls_back() {
        assert_eq!(ParallelConfig::sequential().effective_threads(), 1);
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(), 5);
        // Auto-detect resolves to at least one worker.
        assert!(ParallelConfig::with_threads(0).effective_threads() >= 1);
        assert!(Pool::new(&ParallelConfig::with_threads(0)).threads() >= 1);
        assert!(Pool::sequential().is_sequential());
    }
}
