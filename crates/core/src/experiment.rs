//! One definition per paper driver, two executors.
//!
//! Every driver has the same shape: plan the surviving channel pairs
//! (RNG-free), run one independent task per channel pair or shot shard,
//! and assemble the outputs in task order. The tasks are independent
//! because the comb's channel pairs are independent sources, and every
//! task draws from its own split-seed lane.
//!
//! [`Experiment`] states that shape once per driver, on the driver's
//! config type. [`run_in_process`] executes it on the worker pool — every
//! `try_run_*` driver is one call into it — and the `qfc-campaign` crate
//! executes the same object as a checkpointed campaign, one task per
//! shard. Both executors fold the task outputs through the same
//! [`Experiment::assemble`], so a campaign's merged report is
//! byte-identical to the in-process run.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use qfc_faults::{FaultSchedule, QfcError, QfcResult};
use qfc_mathkit::cast;

use crate::source::QfcSource;

/// One task of an experiment: a self-describing unit of work, and the
/// shard a campaign checkpoints. `start`/`len` carry the shot range for
/// shot-range tasks (mirroring [`qfc_runtime::Shard`]) and the position
/// and unit count for per-channel tasks; `seed` records the task's
/// independent split-seed lane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Task position in the experiment's fixed decomposition.
    pub index: u32,
    /// Human-readable label, e.g. `channel-3` or `linewidth-17`.
    pub label: String,
    /// First work-unit index covered by this task.
    pub start: u64,
    /// Number of work units in this task.
    pub len: u64,
    /// The task's independent RNG lane.
    pub seed: u64,
}

impl ShardSpec {
    /// A single-unit task at position `index`.
    pub fn unit(index: usize, label: String, seed: u64) -> Self {
        Self {
            index: cast::usize_to_u32(index),
            label,
            start: cast::usize_to_u64(index),
            len: 1,
            seed,
        }
    }

    /// The task's position as a slot index.
    pub fn slot(&self) -> usize {
        cast::u32_to_usize(self.index)
    }

    /// The error for a task its experiment did not plan.
    pub fn unplanned(&self, label: &str) -> QfcError {
        QfcError::persistence(format!(
            "{label} experiment has no task {} ({})",
            self.index, self.label
        ))
    }
}

/// A paper driver as plan → tasks → assemble, implemented on its config.
///
/// Implementations keep three invariants, which together make the two
/// executors byte-identical at any thread count:
///
/// 1. `plan` is RNG-free apart from the supervisor's dedicated
///    `fault_stream` lanes: same inputs → same plan and task list.
/// 2. `task` is a pure function of its arguments — it must not depend on
///    which tasks ran before it, on the thread count, or on wall-clock
///    time.
/// 3. `assemble` consumes the outputs in task order, one at a time, so
///    a campaign can decode one payload at a time.
pub trait Experiment: Serialize + Sync {
    /// Driver label, e.g. `heralded`: names the `driver.<label>` span
    /// tree and the campaign.
    const LABEL: &'static str;
    /// The driver's planning output.
    type Plan: Sync;
    /// One task's output (a campaign shard's payload).
    type Output: Serialize + DeserializeOwned + Send;
    /// The completed run.
    type Run: Serialize;

    /// Validates the config, plans the supervision and the operating
    /// points, and lists the tasks (indices contiguous from 0).
    ///
    /// # Errors
    ///
    /// Any driver planning error (invalid config, regime mismatch,
    /// exhausted channels, failed re-lock).
    fn plan(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> QfcResult<(Self::Plan, Vec<ShardSpec>)>;

    /// Runs one planned task.
    ///
    /// # Errors
    ///
    /// Any driver error of that task, or [`QfcError::Persistence`] for a
    /// task the plan does not hold.
    fn task(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
        plan: &Self::Plan,
        spec: &ShardSpec,
    ) -> QfcResult<Self::Output>;

    /// Folds every task's output, in task order, into the run.
    ///
    /// # Errors
    ///
    /// The first error among the outputs, plus any analysis error.
    fn assemble(
        &self,
        plan: Self::Plan,
        outputs: impl Iterator<Item = QfcResult<Self::Output>>,
    ) -> QfcResult<Self::Run>;
}

/// The in-process executor: records the run manifest, plans, runs every
/// task in one `par_map`, and assembles on the caller thread, inside the
/// `driver.<label>` span and its `.source`, `.timetag`, `.analysis` and
/// `.report` phases.
///
/// # Errors
///
/// As the experiment's [`Experiment::plan`], [`Experiment::task`] and
/// [`Experiment::assemble`]; a failing task surfaces as the first error
/// in task order.
pub fn run_in_process<E: Experiment>(
    experiment: &E,
    source: &QfcSource,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<E::Run> {
    let phase = |name: &str| qfc_obs::span(&format!("driver.{}{name}", E::LABEL));
    let _driver_span = phase("");
    crate::report::record_manifest(seed, experiment, schedule);

    let source_span = phase(".source");
    let (plan, tasks) = experiment.plan(source, seed, schedule)?;
    drop(source_span);

    let timetag_span = phase(".timetag");
    let outputs = qfc_runtime::par_map(&tasks, |spec| {
        experiment.task(source, seed, schedule, &plan, spec)
    });
    drop(timetag_span);

    let analysis_span = phase(".analysis");
    let run = experiment.assemble(plan, outputs.into_iter())?;
    drop(analysis_span);

    let _report_span = phase(".report");
    Ok(run)
}
