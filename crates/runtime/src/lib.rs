//! Deterministic parallel execution engine for shot-based simulations.
//!
//! Every Monte-Carlo hot loop in the workspace runs through this crate's
//! entry points — [`par_map`], [`par_chunks`], [`par_shots`], the
//! in-place [`par_for_each_mut`] and the multi-step [`par_team`] — which
//! share one invariant: **results are bitwise-identical regardless of
//! how many worker threads execute them.**
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
//! Threads come from one place: a scoped worker team ([`par_team`])
//! built on `std::thread::scope` — no external dependencies. A team
//! spawns `threads − 1` workers once and makes the calling thread its
//! last member; every step hands out task indices through an atomic
//! counter and ends on a barrier, so a driver that runs hundreds of steps
//! (the RρR MLE) pays for its threads once. The one-shot entry points
//! are one-step teams. The team size defaults to
//! `std::thread::available_parallelism()`, can be pinned process-wide
//! with the `QFC_THREADS` environment variable, and can be pinned
//! per-closure (and race-free, for tests) with [`with_threads`]. A team
//! of 1 short-circuits to a plain serial loop with no thread, lock or
//! allocation. Nested parallel calls inside a task run serially rather
//! than oversubscribing the machine, on the workers and the calling
//! thread alike.

#![forbid(unsafe_code)]

use qfc_mathkit::cast;
use std::any::Any;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

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
    /// Set on team members while they run tasks, so nested parallel
    /// calls run serially.
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
/// Always at least 1; inside a task of a multi-member team this returns
/// 1 (nested parallelism is suppressed).
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

/// Executes `n_tasks` indexed tasks and returns their results in
/// task-index order.
///
/// Behind [`par_map`], [`par_chunks`] and [`par_shots`]. One thread runs
/// a plain loop; more run a one-step team in which each task writes its
/// result into its own index slot, so the output order never depends on
/// scheduling.
fn execute<U, F>(n_tasks: usize, task: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = max_threads().min(n_tasks);
    if threads <= 1 {
        // The span, gauge and task mode of a one-member team step.
        let _span = qfc_obs::span("runtime.execute");
        qfc_obs::gauge_set("pool_threads", 1.0);
        return in_task(qfc_obs::current().as_ref(), || {
            (0..n_tasks).map(task).collect()
        });
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n_tasks);
    slots.resize_with(n_tasks, || None);
    par_for_each_mut(&mut slots, |i, slot| *slot = Some(task(i)));
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every task index produced a result"))) // qfc-lint: allow(panic-reachability) — invariant: a team step claims every slot exactly once
        .collect()
}

/// Runs `f` in `qfc_obs` task mode on `obs`, if a collector is installed:
/// counters flow, spans and gauges do not, so the trace never depends on
/// which thread ran a task.
fn in_task<R>(obs: Option<&qfc_obs::Collector>, f: impl FnOnce() -> R) -> R {
    match obs {
        Some(collector) => collector.run_task(f),
        None => f(),
    }
}

/// Locks `m`, ignoring poison: a poisoned slot belongs to a task whose
/// panic its step re-raises, and the panic payload is only ever stored or
/// taken whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A step kernel: `kernel(input, slot_index, slot)`.
type Kernel<'a, I, T> = &'a (dyn Fn(&I, usize, &mut T) + Sync);

/// The driver's handle on a [`par_team`] region. [`Team::step`] runs the
/// region's kernel once per slot on all members; between steps the
/// driver owns the calling thread and reads the slots with
/// [`Team::for_each_slot`].
pub struct Team<'a, I, T> {
    kernel: Kernel<'a, I, T>,
    members: Members<'a, I, T>,
}

enum Members<'a, I, T> {
    /// A team of one: each step is a plain loop on the caller.
    Caller(&'a mut [T]),
    /// `threads − 1` scoped workers plus the caller.
    Pool {
        threads: usize,
        shared: &'a Shared<'a, I, T>,
        obs: Option<&'a qfc_obs::Collector>,
    },
}

/// Everything the members of a pooled team share. Each lock here is
/// uncontended by construction: a slot is claimed by one member per
/// step, and the input is written only while the workers wait on the
/// barrier.
struct Shared<'a, I, T> {
    slots: Vec<Mutex<&'a mut T>>,
    /// The current step's input; a `Default` placeholder between steps.
    input: RwLock<I>,
    /// The next unclaimed slot index of the current step.
    next: AtomicUsize,
    /// Set when the driver is done: the workers leave at the next
    /// start-of-step barrier. Relaxed: it publishes nothing else, and the
    /// barrier orders the store before the loads.
    closed: AtomicBool,
    /// Set if a worker could not be spawned: the ones that were leave
    /// without running a step. Relaxed: the roster lock orders the store
    /// before the loads.
    abandoned: AtomicBool,
    /// Every member waits here at the start and at the end of each step.
    barrier: Barrier,
    /// The first panic payload of the current step.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<I, T> Shared<'_, I, T> {
    /// One member's share of a step: claim slot indices until none are
    /// left. A panicking task ends this member's share; its payload waits
    /// for the caller, who re-raises it once the step has ended.
    fn claim(&self, kernel: Kernel<'_, I, T>) {
        let input = self.input.read().unwrap_or_else(PoisonError::into_inner);
        let input: &I = &input;
        let run = || loop {
            // Relaxed suffices: the counter only has to hand each index
            // out once; the barrier orders its reset before every claim,
            // and the slot's lock orders the slot's data.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else { break };
            kernel(input, i, &mut **lock(slot));
        };
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(run)) {
            lock(&self.panic).get_or_insert(payload);
        }
    }
}

/// A worker's life: wait for the roster, then claim a share of every
/// step until the driver closes the region.
fn serve<I, T>(
    shared: &Shared<'_, I, T>,
    kernel: Kernel<'_, I, T>,
    obs: Option<&qfc_obs::Collector>,
) {
    IN_WORKER.with(|c| c.set(true));
    // The caller holds the input's write lock until every worker is
    // spawned, and sets `abandoned` under it if one could not be.
    drop(shared.input.read().unwrap_or_else(PoisonError::into_inner));
    if shared.abandoned.load(Ordering::Relaxed) {
        return;
    }
    in_task(obs, || loop {
        shared.barrier.wait();
        if shared.closed.load(Ordering::Relaxed) {
            return;
        }
        shared.claim(kernel);
        shared.barrier.wait();
    });
}

/// Closes a pooled team when the driver returns or unwinds, so the scope
/// can join the workers: before the roster is complete by opening the
/// input lock, afterwards by passing the start-of-step barrier.
struct Dismiss<'s, 'a, I, T> {
    shared: &'s Shared<'a, I, T>,
    roster: Option<RwLockWriteGuard<'s, I>>,
}

impl<I, T> Drop for Dismiss<'_, '_, I, T> {
    fn drop(&mut self) {
        if let Some(roster) = self.roster.take() {
            self.shared.abandoned.store(true, Ordering::Relaxed);
            drop(roster);
        } else {
            self.shared.closed.store(true, Ordering::Relaxed);
            self.shared.barrier.wait();
        }
    }
}

/// Marks the calling thread as a team member for one step, so nested
/// parallel calls in its tasks run serially; the old flag comes back on
/// drop, unwinding included.
struct MemberFlag(bool);

impl MemberFlag {
    fn enter() -> Self {
        Self(IN_WORKER.with(|c| c.replace(true)))
    }
}

impl Drop for MemberFlag {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.0));
    }
}

impl<I, T> Team<'_, I, T> {
    /// Number of slots the team works on.
    pub fn slot_count(&self) -> usize {
        match &self.members {
            Members::Caller(slots) => slots.len(),
            Members::Pool { shared, .. } => shared.slots.len(),
        }
    }

    /// One step: runs `kernel(input, i, &mut slots[i])` once for every
    /// slot, spread over all members, and returns when every slot is
    /// done. `input` is moved into the region for the step and handed
    /// back after it.
    ///
    /// Opens one `runtime.execute` span. A panicking task is re-raised
    /// here, with its payload, once the step has ended.
    pub fn step(&mut self, input: &mut I) {
        let _span = qfc_obs::span("runtime.execute");
        let kernel = self.kernel;
        match &mut self.members {
            Members::Caller(slots) => {
                qfc_obs::gauge_set("pool_threads", 1.0);
                let input: &I = input;
                in_task(qfc_obs::current().as_ref(), || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        kernel(input, i, slot);
                    }
                });
            }
            Members::Pool {
                threads,
                shared,
                obs,
            } => {
                qfc_obs::gauge_set("pool_threads", cast::to_f64(*threads));
                let swap_input = |input: &mut I| {
                    std::mem::swap(
                        &mut *shared.input.write().unwrap_or_else(PoisonError::into_inner),
                        input,
                    );
                };
                swap_input(input);
                shared.next.store(0, Ordering::Relaxed);
                shared.barrier.wait();
                {
                    let _member = MemberFlag::enter();
                    in_task(*obs, || shared.claim(kernel));
                }
                shared.barrier.wait();
                swap_input(input);
                if let Some(payload) = lock(&shared.panic).take() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Visits every slot in index order on the calling thread — the
    /// driver's view of the team's working state between steps.
    pub fn for_each_slot(&mut self, mut f: impl FnMut(usize, &mut T)) {
        match &mut self.members {
            Members::Caller(slots) => {
                for (i, slot) in slots.iter_mut().enumerate() {
                    f(i, slot);
                }
            }
            Members::Pool { shared, .. } => {
                for (i, slot) in shared.slots.iter().enumerate() {
                    f(i, &mut **lock(slot));
                }
            }
        }
    }
}

/// Runs `driver` against a scoped worker team over `slots`, spawning the
/// team's threads once for the whole region.
///
/// Each [`Team::step`] runs `kernel(input, i, &mut slots[i])` once for
/// every slot: `threads − 1` workers and the calling thread claim slot
/// indices from one atomic counter, and the step ends on a barrier. The
/// kernel is fixed for the region; the input changes per step and is
/// moved into the region for it (`I::default()` holds its place between
/// steps). Between steps the driver runs on the calling thread alone and
/// reads the slots through [`Team::for_each_slot`]. The region ends, and
/// its workers are joined, when the driver returns or unwinds.
///
/// Each slot is written only by its own task, so the slots after a step
/// are bitwise-identical at any thread count as long as the kernel
/// depends only on its arguments. The team size is
/// `max_threads().min(slots.len())`; a team of one runs each step as a
/// plain loop on the caller with no thread, lock or allocation.
pub fn par_team<I, T, K, D, R>(slots: &mut [T], kernel: K, driver: D) -> R
where
    I: Default + Send + Sync,
    T: Send,
    K: Fn(&I, usize, &mut T) + Sync,
    D: FnOnce(&mut Team<'_, I, T>) -> R,
{
    let threads = max_threads().min(slots.len());
    let kernel: Kernel<'_, I, T> = &kernel;
    if threads <= 1 {
        return driver(&mut Team {
            kernel,
            members: Members::Caller(slots),
        });
    }
    let obs = qfc_obs::current();
    let shared = Shared {
        slots: slots.iter_mut().map(Mutex::new).collect(),
        input: RwLock::new(I::default()),
        next: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        abandoned: AtomicBool::new(false),
        barrier: Barrier::new(threads),
        panic: Mutex::new(None),
    };
    let (shared, obs) = (&shared, obs.as_ref());
    std::thread::scope(|scope| {
        let mut dismiss = Dismiss {
            shared,
            roster: Some(shared.input.write().unwrap_or_else(PoisonError::into_inner)),
        };
        for _ in 1..threads {
            scope.spawn(move || serve(shared, kernel, obs));
        }
        dismiss.roster = None;
        driver(&mut Team {
            kernel,
            members: Members::Pool {
                threads,
                shared,
                obs,
            },
        })
    })
}

/// Runs `f(i, &mut slots[i])` for every slot in parallel, in place — a
/// one-step [`par_team`].
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
    par_team(
        slots,
        |_: &(), i, slot| f(i, slot),
        |team| team.step(&mut ()),
    );
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

    /// Runs `driver` on a team of `threads` members over `threads` slots
    /// whose kernel first meets every other member on `gate`. A member
    /// blocked there cannot claim a second slot, so every member, the
    /// caller included, runs exactly one task per step.
    fn one_task_per_member<R>(
        threads: usize,
        kernel: impl Fn(&usize, usize, &mut Option<std::thread::ThreadId>) + Sync,
        driver: impl FnOnce(&mut Team<'_, usize, Option<std::thread::ThreadId>>) -> R,
    ) -> R {
        let gate = std::sync::Barrier::new(threads);
        let mut slots = vec![None; threads];
        with_threads(threads, || {
            par_team(
                &mut slots,
                |step: &usize, i, slot: &mut Option<std::thread::ThreadId>| {
                    gate.wait();
                    *slot = Some(std::thread::current().id());
                    kernel(step, i, slot);
                },
                driver,
            )
        })
    }

    #[test]
    fn team_reraises_a_worker_panic_after_joining() {
        let caller = std::thread::current().id();
        let mut steps_done = 0;
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            one_task_per_member(
                2,
                |step, _, slot| {
                    if *step == 3 && *slot != Some(caller) {
                        std::panic::panic_any(format!("worker panic in step {step}"));
                    }
                },
                |team| {
                    for mut step in 1..=5 {
                        team.step(&mut step);
                        steps_done = step;
                    }
                },
            )
        }))
        .expect_err("the worker's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("worker panic in step 3")
        );
        assert_eq!(steps_done, 2, "the panicking step never returns");
        // The region returned, so its scope joined the workers; the
        // caller's member flag is off again.
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(with_threads(2, max_threads), 2);
    }

    #[test]
    fn team_reraises_a_caller_task_panic_and_restores_its_flag() {
        let caller = std::thread::current().id();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            one_task_per_member(
                3,
                |step, _, slot| {
                    if *step == 2 && *slot == Some(caller) {
                        std::panic::panic_any("caller task panic");
                    }
                },
                |team| (0..4).for_each(|mut step| team.step(&mut step)),
            )
        }))
        .expect_err("the caller's own task panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller task panic"));
        assert_eq!(with_threads(3, max_threads), 3);
    }

    #[test]
    fn team_driver_panic_between_steps_does_not_hang() {
        for threads in [2, 4] {
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                with_threads(threads, || {
                    let mut slots = vec![0u64; 8];
                    par_team(
                        &mut slots,
                        |step: &u64, _, slot| *slot += step,
                        |team| {
                            team.step(&mut 1);
                            team.step(&mut 2);
                            std::panic::panic_any(threads);
                        },
                    )
                })
            }))
            .expect_err("the driver's panic leaves the region");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&threads));
            assert_eq!(with_threads(threads, max_threads), threads);
        }
    }

    #[test]
    fn team_steps_see_the_input_moved_in_for_them() {
        for threads in [2, 3, 8] {
            let mut slots = vec![(0u64, 0usize); 13];
            let steps = with_threads(threads, || {
                par_team(
                    &mut slots,
                    |input: &Vec<u64>, i, slot| *slot = (input[0], slot.1 + i),
                    |team| {
                        assert_eq!(team.slot_count(), 13);
                        for step in 0..1000u64 {
                            let mut input = vec![step, !step];
                            team.step(&mut input);
                            assert_eq!(input, [step, !step], "input handed back");
                            team.for_each_slot(|i, slot| {
                                assert_eq!(slot.0, step, "slot {i}, {threads} threads");
                            });
                        }
                        1000
                    },
                )
            });
            assert_eq!(steps, 1000);
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, (999, 1000 * i), "slot {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn team_nested_calls_run_serially_on_every_member() {
        let caller = std::thread::current().id();
        let mut members = Vec::new();
        let mut nested = Vec::new();
        one_task_per_member(
            3,
            |_, _, _| {
                let inner = par_map(&[0u8; 4], |_| max_threads());
                assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
            },
            |team| {
                for mut step in 0..3 {
                    team.step(&mut step);
                    team.for_each_slot(|_, slot| members.extend(*slot));
                    nested.push(max_threads());
                }
            },
        );
        assert_eq!(members.len(), 9);
        assert_eq!(members.iter().filter(|&&id| id == caller).count(), 3);
        // Between steps the driver is not a member: full team size.
        assert_eq!(nested, [3, 3, 3]);
    }

    #[test]
    fn team_of_one_is_a_plain_loop() {
        let caller = std::thread::current().id();
        let mut slots = vec![0u64; 5];
        with_threads(1, || {
            par_team(
                &mut slots,
                |step: &u64, i, slot| {
                    assert_eq!(std::thread::current().id(), caller);
                    *slot += step * i as u64;
                },
                |team| (1..=3).for_each(|mut step| team.step(&mut step)),
            )
        });
        assert_eq!(slots, [0, 6, 12, 18, 24]);
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
