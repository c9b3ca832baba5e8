//! Deterministic parallel execution engine for shot-based simulations.
//!
//! Every Monte-Carlo hot loop in the workspace runs through this crate's
//! entry points — [`par_map`], [`par_chunks`], [`par_shots`] and the
//! in-place [`par_for_each_mut`] — which share one invariant: **results
//! are bitwise-identical regardless of how many worker threads execute
//! them.**
//!
//! The invariant holds by construction:
//!
//! 1. Work is decomposed into a fixed set of tasks (or, for
//!    [`par_shots`], a fixed shard layout derived only from the shot
//!    count) that never depends on the thread count.
//! 2. Each task derives its randomness from a counter-based split seed
//!    ([`qfc_mathkit::rng::split_seed`]), never from shared mutable RNG
//!    state.
//! 3. Results are merged in task-index order, whatever order the workers
//!    finished in.
//!
//! Threads come from a scoped pool built on `std::thread::scope` — no
//! external dependencies. The pool size defaults to
//! `std::thread::available_parallelism()`, can be pinned process-wide
//! with the `QFC_THREADS` environment variable, and can be pinned
//! per-closure (and race-free, for tests) with [`with_threads`]. A pool
//! size of 1 short-circuits to a plain serial loop with no thread or
//! synchronization overhead. Nested parallel calls inside a worker run
//! serially rather than oversubscribing the machine.

#![forbid(unsafe_code)]

use qfc_mathkit::cast;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

use qfc_mathkit::rng::split_seed;

/// Fixed shard count for [`par_shots`] decompositions.
///
/// Deliberately independent of the machine's thread count so the shard
/// layout — and therefore every derived seed — is reproducible anywhere.
/// 32 shards keep all realistic pools busy while amortizing per-shard
/// overhead.
pub const SHOT_SHARDS: u64 = 32;

thread_local! {
    /// Per-thread pool-size override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside pool workers so nested parallel calls run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Why a `QFC_THREADS` value was rejected.
///
/// Crate-local by design: `qfc-runtime` sits below `qfc-faults` in the
/// dependency graph, so it cannot name `QfcError`; binaries surface this
/// through their own error path (or let it convert at the faults
/// boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsEnvError {
    /// `QFC_THREADS=0` — a zero-thread pool cannot make progress.
    Zero,
    /// The value is not a decimal unsigned integer.
    NotANumber(String),
    /// The value overflows `usize`.
    Overflow(String),
}

impl std::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Zero => write!(
                f,
                "QFC_THREADS=0 is invalid: the worker pool needs at least one thread \
                 (unset QFC_THREADS to use all cores)"
            ),
            Self::NotANumber(raw) => write!(
                f,
                "QFC_THREADS={raw:?} is not a positive integer (e.g. QFC_THREADS=4)"
            ),
            Self::Overflow(raw) => write!(
                f,
                "QFC_THREADS={raw:?} overflows the platform thread count (usize)"
            ),
        }
    }
}

impl std::error::Error for ThreadsEnvError {}

/// Parses a `QFC_THREADS` value: a positive decimal integer, with
/// surrounding whitespace tolerated. Rejects `0`, garbage, and values
/// that overflow `usize` — each with a distinct, actionable error.
pub fn parse_threads_spec(raw: &str) -> Result<usize, ThreadsEnvError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || !trimmed.chars().all(|c| c.is_ascii_digit()) {
        return Err(ThreadsEnvError::NotANumber(raw.to_owned()));
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(ThreadsEnvError::Zero),
        Ok(n) => Ok(n),
        // All-digit input that fails to parse can only be overflow.
        Err(_) => Err(ThreadsEnvError::Overflow(raw.to_owned())),
    }
}

/// Like [`max_threads`], but surfaces an invalid `QFC_THREADS` value as
/// an error instead of warning and falling back. Binaries call this at
/// startup so a typo'd override fails loudly before any work runs.
pub fn try_max_threads() -> Result<usize, ThreadsEnvError> {
    if IN_WORKER.with(Cell::get) {
        return Ok(1);
    }
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return Ok(n.max(1));
    }
    if let Ok(raw) = std::env::var("QFC_THREADS") {
        return parse_threads_spec(&raw);
    }
    Ok(std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1))
}

/// Returns the worker-pool size parallel calls on this thread will use.
///
/// Resolution order: [`with_threads`] override, then the `QFC_THREADS`
/// environment variable, then `std::thread::available_parallelism()`.
/// Always at least 1; inside a pool worker this returns 1 (nested
/// parallelism is suppressed).
///
/// An invalid `QFC_THREADS` value (`0`, garbage, overflow) is **not**
/// silently ignored: a warning naming the rejected value is printed to
/// stderr once per process, and the pool falls back to
/// `available_parallelism()`. Use [`try_max_threads`] to fail instead —
/// binaries validate through it at startup.
pub fn max_threads() -> usize {
    match try_max_threads() {
        Ok(n) => n,
        Err(e) => {
            warn_bad_threads_env_once(&e);
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Prints the invalid-`QFC_THREADS` warning at most once per process, so
/// a hot loop calling [`max_threads`] cannot flood stderr.
fn warn_bad_threads_env_once(e: &ThreadsEnvError) {
    use std::sync::atomic::AtomicBool;
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("warning: ignoring invalid QFC_THREADS: {e}");
    }
}

/// Runs `f` with the worker-pool size pinned to `threads` on this thread.
///
/// The override is thread-local, so concurrent tests comparing thread
/// counts never race on global state. Restored (panic-safe) on exit.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Executes `n_tasks` indexed tasks on the pool and returns their
/// results in task-index order.
///
/// Behind [`par_map`], [`par_chunks`] and [`par_shots`]: on the pool,
/// each task writes its result into its own index slot (see
/// [`run_on_pool`]), so the output order never depends on scheduling.
fn execute<U, F>(n_tasks: usize, task: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = max_threads().min(n_tasks);
    // Observability: one span per execute call, a gauge for the resolved
    // pool size, and the collector handle captured on the caller thread
    // so pool workers can keep counters flowing. Task bodies run in
    // qfc_obs task mode on the serial path and on workers alike, so the
    // exported span tree never depends on scheduling. All of this is a
    // no-op when no collector is installed.
    let obs = qfc_obs::current();
    let _span = qfc_obs::span("runtime.execute");
    qfc_obs::gauge_set("pool_threads", cast::to_f64(threads.max(1)));
    if threads <= 1 {
        return match &obs {
            Some(collector) => collector.run_task(|| (0..n_tasks).map(&task).collect()),
            None => (0..n_tasks).map(task).collect(),
        };
    }

    let mut slots: Vec<Option<U>> = Vec::with_capacity(n_tasks);
    slots.resize_with(n_tasks, || None);
    run_on_pool(threads, obs.as_ref(), &mut slots, |i, slot| {
        *slot = Some(task(i));
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every task index produced a result"))) // qfc-lint: allow(panic-reachability) — invariant: run_on_pool visits every slot exactly once
        .collect()
}

/// Runs `f(i, &mut slots[i])` for every slot on `threads` scoped
/// workers. Workers pull the next slot from a shared iterator (dynamic
/// load balancing); each slot is visited exactly once and only its own
/// task writes it, so the slot contents never depend on scheduling.
fn run_on_pool<T, F>(threads: usize, obs: Option<&qfc_obs::Collector>, slots: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let queue = Mutex::new(slots.iter_mut().enumerate());
    std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    // The guard is dropped before `f` runs, so a panicking
                    // task never leaves the queue mid-update and a
                    // poisoned lock is still a valid queue.
                    let drain = || loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, slot)) = next else { break };
                        f(i, slot);
                    };
                    match obs {
                        Some(collector) => collector.run_task(drain),
                        None => drain(),
                    }
                })
            })
            .collect();
        for worker in workers {
            if let Err(payload) = worker.join() {
                // Re-raise the worker's panic on the caller thread so a
                // panicking task behaves exactly like serial execution.
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs `f(i, &mut slots[i])` for every slot in parallel, in place —
/// the primitive for kernels that keep per-task working state across
/// calls (the tomography sweep reuses one partial-`R` buffer per chunk
/// for a whole reconstruction).
///
/// Each slot is written only by its own task, so the result is
/// bitwise-identical at any thread count as long as `f` depends only on
/// its arguments. On one thread it is a plain loop that allocates
/// nothing.
pub fn par_for_each_mut<T, F>(slots: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = max_threads().min(slots.len());
    // Same observability contract as `execute`.
    let obs = qfc_obs::current();
    let _span = qfc_obs::span("runtime.execute");
    qfc_obs::gauge_set("pool_threads", cast::to_f64(threads.max(1)));
    if threads <= 1 {
        let mut serial = || {
            for (i, slot) in slots.iter_mut().enumerate() {
                f(i, slot);
            }
        };
        match &obs {
            Some(collector) => collector.run_task(serial),
            None => serial(),
        }
        return;
    }
    run_on_pool(threads, obs.as_ref(), slots, f);
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Deterministic for any thread count as long as `f(item)` depends only
/// on its argument (seed randomness via
/// [`split_seed`](qfc_mathkit::rng::split_seed) on the item index).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    execute(items.len(), |i| f(&items[i]))
}

/// Maps `f` over fixed-size chunks of `items` in parallel, preserving
/// chunk order. `f` receives the chunk index and the chunk slice.
///
/// The chunk layout matches `items.chunks(chunk_size)`, so it is
/// independent of the thread count.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn par_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    assert!(chunk_size > 0, "par_chunks: chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    execute(n_chunks, |i| {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(items.len());
        f(i, &items[start..end])
    })
}

/// One shard of a sharded shot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard position in the fixed decomposition.
    pub index: usize,
    /// Global index of this shard's first shot.
    pub start: u64,
    /// Number of shots in this shard.
    pub len: u64,
    /// Independent RNG seed for this shard
    /// (`split_seed(root_seed, index)`).
    pub seed: u64,
}

/// Computes the fixed shard layout for `n_shots` shots rooted at `seed`.
///
/// At most [`SHOT_SHARDS`] shards; remainder shots go to the leading
/// shards so sizes differ by at most one. The layout depends only on
/// `n_shots` and `seed`.
pub fn shard_layout(n_shots: u64, seed: u64) -> Vec<Shard> {
    let n_shards = SHOT_SHARDS.min(n_shots).max(1);
    let base = n_shots / n_shards;
    let remainder = n_shots % n_shards;
    let mut shards = Vec::with_capacity(cast::u64_to_usize(n_shards));
    let mut start = 0u64;
    for index in 0..n_shards {
        let len = base + u64::from(index < remainder);
        shards.push(Shard {
            index: cast::u64_to_usize(index),
            start,
            len,
            seed: split_seed(seed, index),
        });
        start += len;
    }
    shards
}

/// Runs a sharded shot loop: `per_shard` executes once per [`Shard`]
/// (in parallel), and `merge` folds the per-shard results **in
/// shard-index order** into the final answer.
///
/// The shard layout and seeds are fixed by `(n_shots, seed)` alone, so
/// the result is bitwise-identical at any thread count.
pub fn par_shots<U, A, P, M>(n_shots: u64, seed: u64, per_shard: P, merge: M) -> A
where
    U: Send,
    P: Fn(&Shard) -> U + Sync,
    M: FnOnce(Vec<U>) -> A,
{
    let shards = shard_layout(n_shots, seed);
    qfc_obs::counter_add("shards_executed", cast::usize_to_u64(shards.len()));
    let results = execute(shards.len(), |i| per_shard(&shards[i]));
    merge(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let doubled = with_threads(4, || par_map(&items, |x| x * 2));
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let f = |x: &u64| split_seed(*x, 7);
        let serial = with_threads(1, || par_map(&items, f));
        for threads in [2, 3, 4, 8] {
            let parallel = with_threads(threads, || par_map(&items, f));
            assert_eq!(parallel, serial, "thread count {threads}");
        }
    }

    #[test]
    fn par_chunks_covers_all_items_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let sums = with_threads(4, || {
            par_chunks(&items, 10, |i, chunk| (i, chunk.iter().sum::<u64>()))
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.last().unwrap(), &(10, (100..103).sum::<u64>()));
        let total: u64 = sums.iter().map(|(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u64>());
    }

    #[test]
    fn par_for_each_mut_writes_every_slot_in_place() {
        let expect: Vec<u64> = (0..37).map(|i| split_seed(i, 7)).collect();
        for threads in [1, 3, 8] {
            let mut slots = vec![0u64; 37];
            with_threads(threads, || {
                par_for_each_mut(&mut slots, |i, slot| *slot = split_seed(i as u64, 7));
            });
            assert_eq!(slots, expect, "thread count {threads}");
        }
        par_for_each_mut(&mut [0u8; 0], |_, _| unreachable!("no slots"));
    }

    #[test]
    fn shard_layout_is_fixed_and_covers_all_shots() {
        for n_shots in [1u64, 5, 31, 32, 33, 1000, 1_000_003] {
            let shards = shard_layout(n_shots, 9);
            assert_eq!(shards, shard_layout(n_shots, 9));
            assert!(shards.len() as u64 <= SHOT_SHARDS);
            assert_eq!(shards.iter().map(|s| s.len).sum::<u64>(), n_shots);
            let mut expected_start = 0;
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(shard.index, i);
                assert_eq!(shard.start, expected_start);
                assert_eq!(shard.seed, split_seed(9, i as u64));
                expected_start += shard.len;
            }
        }
    }

    #[test]
    fn par_shots_merges_in_shard_order() {
        let order = par_shots(
            1000,
            3,
            |shard| shard.index,
            |results| results,
        );
        assert_eq!(order, (0..order.len()).collect::<Vec<_>>());
    }

    #[test]
    fn par_shots_deterministic_across_thread_counts() {
        let run = |threads| {
            with_threads(threads, || {
                par_shots(
                    10_000,
                    11,
                    |shard| {
                        use rand::Rng;
                        let mut rng = qfc_mathkit::rng::rng_from_seed(shard.seed);
                        (0..shard.len).fold(0u64, |acc, _| acc.wrapping_add(rng.gen::<u64>()))
                    },
                    |sums| sums,
                )
            })
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        assert_eq!(run(7), serial);
    }

    #[test]
    fn nested_parallel_calls_run_serially() {
        let items: Vec<u64> = (0..8).collect();
        let nested = with_threads(4, || {
            par_map(&items, |_| {
                // Inside a worker the pool reports a single thread.
                max_threads()
            })
        });
        assert!(nested.iter().all(|&n| n == 1), "{nested:?}");
    }

    #[test]
    fn collector_counters_flow_through_workers() {
        let collector = qfc_obs::Collector::new();
        let items: Vec<u64> = (0..64).collect();
        collector.install(|| {
            with_threads(4, || {
                par_map(&items, |_| qfc_obs::counter_add("shots_simulated", 1))
            });
        });
        assert_eq!(collector.snapshot().counter("shots_simulated"), Some(64));
    }

    #[test]
    fn trace_is_thread_count_invariant() {
        let trace_at = |threads: usize| {
            let collector = qfc_obs::Collector::new();
            collector.install(|| {
                with_threads(threads, || {
                    let _outer = qfc_obs::span("workload");
                    par_shots(
                        1000,
                        5,
                        |shard| qfc_obs::counter_add("shots_simulated", shard.len),
                        |_| (),
                    );
                });
            });
            collector.snapshot().to_deterministic_json()
        };
        let serial = trace_at(1);
        assert_eq!(trace_at(4), serial);
        assert_eq!(trace_at(8), serial);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let outside = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), outside);
    }

    #[test]
    fn threads_spec_accepts_positive_integers() {
        assert_eq!(parse_threads_spec("1"), Ok(1));
        assert_eq!(parse_threads_spec("8"), Ok(8));
        assert_eq!(parse_threads_spec("  16 "), Ok(16));
        assert_eq!(parse_threads_spec("\t4\n"), Ok(4));
    }

    #[test]
    fn threads_spec_rejects_zero() {
        assert_eq!(parse_threads_spec("0"), Err(ThreadsEnvError::Zero));
        assert_eq!(parse_threads_spec(" 0 "), Err(ThreadsEnvError::Zero));
        // Leading zeros still parse to zero.
        assert_eq!(parse_threads_spec("000"), Err(ThreadsEnvError::Zero));
        assert!(ThreadsEnvError::Zero.to_string().contains("at least one thread"));
    }

    #[test]
    fn threads_spec_rejects_garbage() {
        for raw in ["", "  ", "abc", "4x", "-1", "+2", "1_000", "3.5", "0x10", "４"] {
            let err = parse_threads_spec(raw).expect_err(raw);
            assert_eq!(err, ThreadsEnvError::NotANumber(raw.to_owned()), "{raw:?}");
            assert!(err.to_string().contains("not a positive integer"), "{raw:?}");
        }
    }

    #[test]
    fn threads_spec_rejects_overflow() {
        let huge = "99999999999999999999999999999";
        let err = parse_threads_spec(huge).expect_err("overflow");
        assert_eq!(err, ThreadsEnvError::Overflow(huge.to_owned()));
        assert!(err.to_string().contains("overflows"));
        // usize::MAX itself parses; one digit more overflows.
        let max = usize::MAX.to_string();
        assert_eq!(parse_threads_spec(&max), Ok(usize::MAX));
        let over = format!("{max}0");
        assert!(matches!(
            parse_threads_spec(&over),
            Err(ThreadsEnvError::Overflow(_))
        ));
    }

    #[test]
    fn try_max_threads_honors_override_and_worker_state() {
        // The with_threads override bypasses the environment entirely, so
        // this test is race-free even if another test mutated QFC_THREADS.
        let n = with_threads(5, || try_max_threads());
        assert_eq!(n, Ok(5));
        let nested: Vec<Result<usize, ThreadsEnvError>> =
            with_threads(4, || par_map(&[0u64; 4], |_| try_max_threads()));
        assert!(nested.iter().all(|r| r == &Ok(1)), "{nested:?}");
    }
}
