//! Deterministic observability for the QFC workspace: hierarchical trace
//! spans, a typed metrics registry, and per-run manifests.
//!
//! The crate has **zero dependencies** (not even the workspace's vendored
//! serde) and is **inert by default**: every instrumentation call —
//! [`span`], [`counter_add`], [`gauge_set`], [`set_manifest`] — is a no-op
//! unless a [`Collector`] is installed on the current thread, so
//! uninstrumented runs produce byte-identical output to a build without
//! this crate.
//!
//! ## Determinism contract
//!
//! The observability layer must never make an experiment's *telemetry*
//! depend on thread scheduling, because the workspace guarantees bitwise
//! reproducibility at any thread count. The contract:
//!
//! * **Spans** are opened only on the driver thread. Inside a pool task
//!   (installed via [`Collector::run_task`] by `qfc-runtime`, for worker
//!   threads *and* the serial short-circuit path alike) span creation is
//!   suppressed, so the span tree is aggregated by name and nesting —
//!   never by scheduling order — and is identical at 1, 4, or 8 threads.
//! * **Counters** are commutative sums and may be bumped from anywhere,
//!   including pool tasks; totals are scheduling-invariant.
//! * **Gauges** record point-in-time environment facts (e.g.
//!   `pool_threads`) and are driver-thread-only: [`gauge_set`] from
//!   inside a task is suppressed so racing workers can never fight over
//!   a last-write.
//! * **Wall-times** on spans are inherently nondeterministic, so the
//!   exporter offers [`TraceSnapshot::to_deterministic_json`], which
//!   omits timings, gauges, and the manifest — the cross-thread-count
//!   invariant view used by the test suite — next to the full
//!   [`TraceSnapshot::to_json`].
//!
//! ## Usage
//!
//! ```
//! use qfc_obs::Collector;
//!
//! let collector = Collector::new();
//! collector.install(|| {
//!     let _run = qfc_obs::span("demo");
//!     qfc_obs::counter_add("shots_simulated", 128);
//! });
//! let snapshot = collector.snapshot();
//! assert!(snapshot.to_json().contains("shots_simulated"));
//! ```

#![forbid(unsafe_code)]

mod export;
mod manifest;

pub use export::{SpanData, TraceSnapshot};
pub use manifest::{fnv1a64, CampaignSummary, RunManifest};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Counters pre-registered (in this order) by [`Collector::new`], so the
/// exported registry order never depends on instrumentation-touch order.
pub const REGISTERED_COUNTERS: [&str; 16] = [
    "shots_simulated",
    "coincidences_counted",
    "mle_iterations",
    "mle_accelerated_steps",
    "bootstrap_replicas",
    "tomography_stream_shards",
    "faults_injected",
    "shards_executed",
    "recovery_relocks",
    "recovery_quarantines",
    "recovery_fallbacks",
    "campaign_shards_completed",
    "campaign_shards_resumed",
    "campaign_retries",
    "campaign_quarantines",
    "campaign_checkpoints_rejected",
];

/// Gauges pre-registered (in this order) by [`Collector::new`].
pub const REGISTERED_GAUGES: [&str; 1] = ["pool_threads"];

struct SpanNode {
    name: String,
    calls: u64,
    total_ns: u128,
    children: Vec<usize>,
}

struct TraceState {
    /// Span arena; node 0 is the synthetic root named `run`.
    spans: Vec<SpanNode>,
    /// Counter registry in registration order.
    counters: Vec<(String, u64)>,
    /// Gauge registry in registration order.
    gauges: Vec<(String, f64)>,
    manifest: Option<RunManifest>,
}

/// A handle to a per-run trace: span tree, metrics registry, and
/// manifest. Cheap to clone (shared `Arc` state).
#[derive(Clone)]
pub struct Collector {
    state: Arc<Mutex<TraceState>>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

struct Installed {
    collector: Collector,
    /// Span stack of arena indices; last is the currently open span.
    stack: Vec<usize>,
    /// Inside a pool task: spans and gauges suppressed, counters allowed.
    in_task: bool,
}

thread_local! {
    static INSTALLED: RefCell<Vec<Installed>> = const { RefCell::new(Vec::new()) };
}

/// Removes the `Installed` frame pushed by `install`/`run_task`, even on
/// panic, so a poisoned frame never leaks into unrelated code.
struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|cell| {
            cell.borrow_mut().pop();
        });
    }
}

impl Collector {
    /// Creates an empty collector with the canonical metrics
    /// pre-registered (see [`REGISTERED_COUNTERS`] /
    /// [`REGISTERED_GAUGES`]).
    pub fn new() -> Self {
        let root = SpanNode {
            name: "run".to_owned(),
            calls: 0,
            total_ns: 0,
            children: Vec::new(),
        };
        Self {
            state: Arc::new(Mutex::new(TraceState {
                spans: vec![root],
                counters: REGISTERED_COUNTERS
                    .iter()
                    .map(|name| ((*name).to_owned(), 0))
                    .collect(),
                gauges: REGISTERED_GAUGES
                    .iter()
                    .map(|name| ((*name).to_owned(), 0.0))
                    .collect(),
                manifest: None,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs this collector on the current thread for the duration of
    /// `f`. Instrumentation calls inside `f` record into this collector;
    /// any previously installed collector is restored on exit
    /// (panic-safe). Spans opened inside `f` nest under the root.
    pub fn install<T>(&self, f: impl FnOnce() -> T) -> T {
        self.enter(false, f)
    }

    /// Installs this collector on the current thread in *task mode*:
    /// counters still accumulate, but spans and gauges are suppressed.
    ///
    /// `qfc-runtime` wraps every pool task body in this — on worker
    /// threads and on the serial short-circuit path alike — so telemetry
    /// can never depend on which thread ran a task.
    pub fn run_task<T>(&self, f: impl FnOnce() -> T) -> T {
        self.enter(true, f)
    }

    fn enter<T>(&self, in_task: bool, f: impl FnOnce() -> T) -> T {
        INSTALLED.with(|cell| {
            cell.borrow_mut().push(Installed {
                collector: self.clone(),
                stack: vec![0],
                in_task,
            });
        });
        let _guard = InstallGuard;
        f()
    }

    /// Returns `node` = index of the child of `parent` named `name`,
    /// creating it if absent, and bumps its call count.
    fn enter_span(&self, parent: usize, name: &str) -> usize {
        let mut state = self.lock();
        let existing = state.spans[parent]
            .children
            .iter()
            .copied()
            .find(|&c| state.spans[c].name == name);
        let node = match existing {
            Some(node) => node,
            None => {
                let node = state.spans.len();
                state.spans.push(SpanNode {
                    name: name.to_owned(),
                    calls: 0,
                    total_ns: 0,
                    children: Vec::new(),
                });
                state.spans[parent].children.push(node);
                node
            }
        };
        state.spans[node].calls += 1;
        node
    }

    fn exit_span(&self, node: usize, elapsed_ns: u128) {
        let mut state = self.lock();
        state.spans[node].total_ns += elapsed_ns;
    }

    fn counter_add(&self, name: &str, delta: u64) {
        let mut state = self.lock();
        match state.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => state.counters.push((name.to_owned(), delta)),
        }
    }

    fn gauge_set(&self, name: &str, value: f64) {
        let mut state = self.lock();
        match state.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => state.gauges.push((name.to_owned(), value)),
        }
    }

    /// Records the manifest for this run (last write wins).
    pub fn set_manifest(&self, manifest: RunManifest) {
        self.lock().manifest = Some(manifest);
    }

    /// Returns the recorded manifest, if any.
    pub fn manifest(&self) -> Option<RunManifest> {
        self.lock().manifest.clone()
    }

    /// Takes a consistent copy of the collected trace, metrics, and
    /// manifest for export.
    pub fn snapshot(&self) -> TraceSnapshot {
        let state = self.lock();
        fn build(state: &TraceState, node: usize) -> SpanData {
            let n = &state.spans[node];
            SpanData {
                name: n.name.clone(),
                calls: n.calls,
                total_ns: n.total_ns,
                children: n.children.iter().map(|&c| build(state, c)).collect(),
            }
        }
        TraceSnapshot {
            spans: build(&state, 0),
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            manifest: state.manifest.clone(),
        }
    }
}

/// The collector installed on the current thread, if any.
///
/// `qfc-runtime` captures this on the driver thread and re-installs it
/// (in task mode) inside pool workers so counters keep flowing.
pub fn current() -> Option<Collector> {
    INSTALLED.with(|cell| cell.borrow().last().map(|i| i.collector.clone()))
}

/// `true` when a collector is installed on the current thread.
pub fn enabled() -> bool {
    INSTALLED.with(|cell| !cell.borrow().is_empty())
}

/// RAII guard returned by [`span`]; records wall-time and closes the
/// span when dropped. Not `Send`: spans belong to the thread that opened
/// them.
pub struct SpanGuard {
    open: Option<(Collector, usize, Instant)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((collector, node, start)) = self.open.take() {
            collector.exit_span(node, start.elapsed().as_nanos());
            INSTALLED.with(|cell| {
                if let Some(installed) = cell.borrow_mut().last_mut() {
                    if installed.stack.last() == Some(&node) {
                        installed.stack.pop();
                    }
                }
            });
        }
    }
}

/// Opens a named span nested under the innermost open span.
///
/// No-op (returns an inert guard) when no collector is installed or when
/// running inside a pool task — see the crate-level determinism
/// contract. Repeated spans with the same name under the same parent
/// aggregate into one node (`calls` increments, wall-times sum).
pub fn span(name: &str) -> SpanGuard {
    let open = INSTALLED.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let installed = borrow.last_mut()?;
        if installed.in_task {
            return None;
        }
        let parent = installed.stack.last().copied().unwrap_or(0);
        let collector = installed.collector.clone();
        let node = collector.enter_span(parent, name);
        installed.stack.push(node);
        Some((collector, node, Instant::now())) // qfc-lint: allow(determinism) — wall-clock span timing is presentation-only; never feeds simulation results
    });
    SpanGuard {
        open,
        _not_send: PhantomData,
    }
}

/// Adds `delta` to the named counter. Allowed anywhere (driver thread or
/// pool task); no-op without an installed collector.
pub fn counter_add(name: &str, delta: u64) {
    if let Some(collector) = current() {
        collector.counter_add(name, delta);
    }
}

/// Sets the named gauge. Driver-thread-only: suppressed inside pool
/// tasks (last-write from racing workers would be nondeterministic);
/// no-op without an installed collector.
pub fn gauge_set(name: &str, value: f64) {
    let collector = INSTALLED.with(|cell| {
        let borrow = cell.borrow();
        let installed = borrow.last()?;
        if installed.in_task {
            return None;
        }
        Some(installed.collector.clone())
    });
    if let Some(collector) = collector {
        collector.gauge_set(name, value);
    }
}

/// Records the run manifest on the installed collector, if any.
pub fn set_manifest(manifest: RunManifest) {
    if let Some(collector) = current() {
        collector.set_manifest(manifest);
    }
}

/// The manifest recorded on the installed collector, if any.
pub fn current_manifest() -> Option<RunManifest> {
    current().and_then(|c| c.manifest())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_collector() {
        assert!(!enabled());
        let _s = span("orphan");
        counter_add("shots_simulated", 5);
        gauge_set("pool_threads", 3.0);
        // Nothing observable happened; a fresh collector stays pristine.
        let c = Collector::new();
        let snap = c.snapshot();
        assert_eq!(snap.counter("shots_simulated"), Some(0));
        assert!(snap.spans.children.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let c = Collector::new();
        c.install(|| {
            for _ in 0..3 {
                let _outer = span("outer");
                let _inner = span("inner");
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.spans.children.len(), 1);
        let outer = &snap.spans.children[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls, 3);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].calls, 3);
    }

    #[test]
    fn task_mode_suppresses_spans_and_gauges_but_not_counters() {
        let c = Collector::new();
        c.install(|| {
            c.run_task(|| {
                let _s = span("hidden");
                gauge_set("pool_threads", 99.0);
                counter_add("shots_simulated", 7);
            });
        });
        let snap = c.snapshot();
        assert!(snap.spans.children.is_empty());
        assert_eq!(snap.gauge("pool_threads"), Some(0.0));
        assert_eq!(snap.counter("shots_simulated"), Some(7));
    }

    #[test]
    fn install_restores_previous_collector() {
        let a = Collector::new();
        let b = Collector::new();
        a.install(|| {
            counter_add("shots_simulated", 1);
            b.install(|| counter_add("shots_simulated", 10));
            counter_add("shots_simulated", 2);
        });
        assert_eq!(a.snapshot().counter("shots_simulated"), Some(3));
        assert_eq!(b.snapshot().counter("shots_simulated"), Some(10));
    }

    #[test]
    fn registry_order_is_canonical() {
        let c = Collector::new();
        c.install(|| {
            // Touch in scrambled order; registration order must win.
            counter_add("shards_executed", 1);
            counter_add("shots_simulated", 1);
            counter_add("custom_metric", 4);
        });
        let snap = c.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let canonical: Vec<&str> = REGISTERED_COUNTERS.to_vec();
        assert_eq!(&names[..canonical.len()], &canonical[..]);
        assert_eq!(names.last(), Some(&"custom_metric"));
    }

    #[test]
    fn counters_sum_across_threads() {
        let c = Collector::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| c.run_task(|| counter_add("shots_simulated", 25)));
            }
        });
        assert_eq!(c.snapshot().counter("shots_simulated"), Some(100));
    }

    #[test]
    fn manifest_round_trips_through_collector() {
        let c = Collector::new();
        c.install(|| {
            set_manifest(RunManifest {
                seed: 42,
                config_digest: "deadbeefdeadbeef".to_owned(),
                threads: 4,
                qfc_threads_env: None,
                fault_events: 0,
                fault_kinds: Vec::new(),
                crate_version: "0.1.0".to_owned(),
                campaign: None,
            });
            assert_eq!(current_manifest().map(|m| m.seed), Some(42));
        });
        assert_eq!(c.manifest().map(|m| m.threads), Some(4));
    }
}
