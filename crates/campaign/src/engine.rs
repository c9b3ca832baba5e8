//! The campaign engine: shard execution with retry/backoff/quarantine,
//! checkpointing, crash injection, resume, and the byte-identity merge.

use std::fs;
use std::path::{Path, PathBuf};

use qfc_faults::{FaultSchedule, QfcError, QfcResult};
use qfc_obs::CampaignSummary;

use crate::checkpoint::{self, LoadOutcome};
use crate::manifest::{CampaignManifest, ShardSpec};
use crate::workload::CampaignWorkload;

/// Attempts per shard before quarantine: one try plus two retries.
pub const MAX_ATTEMPTS: u32 = 3;

/// Base of the deterministic exponential backoff ladder, s. The wait
/// recorded before attempt `k` (k ≥ 2) is `BACKOFF_BASE_S · 2^(k−2)`,
/// mirroring the supervisor's pump re-lock ladder; the total after `n`
/// failed attempts is `BACKOFF_BASE_S · (2^(n−1) − 1)`.
pub const BACKOFF_BASE_S: f64 = 0.05;

/// Execution policy of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Root directory for checkpoints; each campaign uses the
    /// subdirectory named by its fingerprint, so differently-configured
    /// campaigns can never cross-contaminate.
    pub checkpoint_dir: PathBuf,
    /// Injected campaign faults (shard aborts, executor faults,
    /// checkpoint damage). Physics fault kinds in this schedule are
    /// ignored by the engine — they belong in the workload's own
    /// schedule.
    pub faults: FaultSchedule,
    /// After a successful merge, run the single-process driver and
    /// verify the merged report is byte-identical to it.
    pub prove: bool,
}

impl CampaignOptions {
    /// Defaults: no injected faults, no proof.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: checkpoint_dir.into(),
            faults: FaultSchedule::empty(),
            prove: false,
        }
    }
}

/// Recovery bookkeeping of one [`run_campaign`] invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Shards in the campaign manifest.
    pub shards_total: usize,
    /// Shards freshly executed (and checkpointed) by this invocation.
    pub shards_completed: usize,
    /// Shards restored from valid checkpoints instead of re-executed.
    pub shards_resumed: usize,
    /// Failed attempts that were retried, across all shards.
    pub retries: u64,
    /// Checkpoints rejected at load (torn write, hash mismatch, stale
    /// fingerprint, misfiled shard).
    pub checkpoints_rejected: usize,
    /// Shards that exhausted the retry budget, sorted by index.
    pub quarantined: Vec<u32>,
    /// Total deterministic backoff recorded across all retries, s.
    pub backoff_s: f64,
}

/// A completed campaign: the merged report, the recovery statistics,
/// and (when requested) the byte-identity proof outcome.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign manifest (shard table + fingerprint).
    pub manifest: CampaignManifest,
    /// The merged full-run report, serialized.
    pub report_json: String,
    /// Recovery bookkeeping for this invocation.
    pub stats: CampaignStats,
    /// `Some(true)` when [`CampaignOptions::prove`] ran and the merged
    /// report matched the single-process run byte for byte; `None` when
    /// no proof was requested.
    pub proof: Option<bool>,
}

/// Outcome of executing one shard on the pool (before checkpointing).
struct ShardExecution {
    retries: u64,
    backoff_s: f64,
    result: QfcResult<String>,
}

/// Runs (or resumes) a campaign: plan → load checkpoints → execute
/// pending shards with retry/backoff → checkpoint → merge → optional
/// byte-identity proof.
///
/// Re-invoking with the same workload and options resumes from whatever
/// checkpoints the previous invocation left behind; a campaign that was
/// interrupted (crash, injected abort, damaged checkpoint) completes on
/// re-run and still merges to the byte-identical report.
///
/// # Errors
///
/// * [`QfcError::CampaignInterrupted`] — an injected [`ShardAbort`]
///   (or checkpoint-damage fault) killed the run mid-campaign;
///   completed shards are checkpointed, re-run to resume.
/// * [`QfcError::ShardsQuarantined`] — shards exhausted the retry
///   budget; completed shards are checkpointed.
/// * [`QfcError::Persistence`] — checkpoint storage failed.
/// * Any workload planning/merge error, passed through.
///
/// [`ShardAbort`]: qfc_faults::FaultKind::ShardAbort
pub fn run_campaign<W: CampaignWorkload + Sync>(
    workload: &W,
    opts: &CampaignOptions,
) -> QfcResult<CampaignOutcome> {
    let shards = workload.plan()?;
    let manifest = CampaignManifest::new(
        &workload.label(),
        workload.seed(),
        &workload.config_json()?,
        shards,
    )?;
    let dir = opts.checkpoint_dir.join(&manifest.campaign_id);
    fs::create_dir_all(&dir)
        .map_err(|e| QfcError::persistence(format!("create {}: {e}", dir.display())))?;
    let manifest_bytes = serde_json::to_string_pretty(&manifest)
        .map_err(|e| QfcError::persistence(format!("manifest serialization: {e}")))?;
    checkpoint::write_atomic(&dir.join("manifest.json"), manifest_bytes.as_bytes())?;

    let mut stats = CampaignStats {
        shards_total: manifest.shards.len(),
        ..CampaignStats::default()
    };

    // Resume: restore valid checkpoints, reject damaged or stale ones.
    let mut payloads: Vec<Option<String>> = vec![None; manifest.shards.len()];
    for (slot, spec) in manifest.shards.iter().enumerate() {
        match checkpoint::load_checkpoint(&dir, &manifest.campaign_id, spec.index) {
            LoadOutcome::Missing => {}
            LoadOutcome::Valid(payload) => {
                payloads[slot] = Some(payload);
                stats.shards_resumed += 1;
            }
            LoadOutcome::Rejected(_reason) => {
                stats.checkpoints_rejected += 1;
                let _ = fs::remove_file(checkpoint::shard_path(&dir, spec.index));
            }
        }
    }

    let pending: Vec<&ShardSpec> = manifest
        .shards
        .iter()
        .filter(|s| payloads[slot_of(s.index)].is_none())
        .collect();

    // Injected mid-flight abort: execute and checkpoint only the shards
    // ordered before the doomed one, then die. The marker file makes the
    // injection one-shot per campaign directory, so the resume survives.
    let abort_at = opts.faults.shard_abort().filter(|&k| {
        pending.iter().any(|s| s.index == k) && !marker_exists(&dir, "aborted", k)
    });
    let runnable: Vec<&ShardSpec> = match abort_at {
        Some(k) => pending.iter().filter(|s| s.index < k).copied().collect(),
        None => pending.clone(),
    };

    // Execute the wave in parallel; each shard is a pure function of its
    // spec, so the pool cannot perturb payload bytes.
    let executions: Vec<ShardExecution> =
        qfc_runtime::par_map(&runnable, |spec| execute_shard(workload, opts, spec));

    // Checkpoint on the driver thread, in shard-index order (`runnable`
    // preserves manifest order), applying injected checkpoint damage.
    for (spec, exec) in runnable.iter().zip(executions) {
        stats.retries += exec.retries;
        stats.backoff_s += exec.backoff_s;
        match exec.result {
            Ok(payload) => {
                checkpoint::write_checkpoint(&dir, &manifest.campaign_id, spec.index, &payload)?;
                if opts.faults.checkpoint_corruption(spec.index)
                    && write_marker_once(&dir, "corrupted", spec.index)?
                {
                    // Torn write at crash time: truncate the checkpoint
                    // mid-record, then die. Resume rejects the fragment
                    // by hash/parse failure and re-runs the shard.
                    truncate_file(&checkpoint::shard_path(&dir, spec.index))?;
                    publish(&manifest, &stats);
                    return Err(interrupted(&payloads, &manifest));
                }
                if opts.faults.checkpoint_stale(spec.index)
                    && write_marker_once(&dir, "stale", spec.index)?
                {
                    // Stale checkpoint: a record from a different
                    // campaign fingerprint landed in this slot (e.g. a
                    // leftover from an older config), then the run died.
                    // Resume rejects it on the fingerprint check.
                    let stale_id = format!("{:016x}", 0u64);
                    checkpoint::write_checkpoint(&dir, &stale_id, spec.index, &payload)?;
                    publish(&manifest, &stats);
                    return Err(interrupted(&payloads, &manifest));
                }
                payloads[slot_of(spec.index)] = Some(payload);
                stats.shards_completed += 1;
            }
            Err(_exhausted) => stats.quarantined.push(spec.index),
        }
    }

    if let Some(k) = abort_at {
        write_marker(&dir, "aborted", k)?;
        publish(&manifest, &stats);
        return Err(interrupted(&payloads, &manifest));
    }

    if !stats.quarantined.is_empty() {
        stats.quarantined.sort_unstable();
        publish(&manifest, &stats);
        return Err(QfcError::ShardsQuarantined {
            shards: stats.quarantined,
        });
    }

    // Merge in shard-index order. Every slot is Some by construction.
    let mut ordered = Vec::with_capacity(payloads.len());
    for (slot, payload) in payloads.into_iter().enumerate() {
        ordered.push(payload.ok_or_else(|| {
            QfcError::persistence(format!("shard slot {slot} empty after a full wave"))
        })?);
    }
    let report_json = workload.merge(&ordered)?;

    let proof = if opts.prove {
        Some(workload.reference_json()? == report_json)
    } else {
        None
    };

    publish(&manifest, &stats);
    Ok(CampaignOutcome {
        manifest,
        report_json,
        stats,
        proof,
    })
}

/// Executes one shard with the bounded retry / deterministic backoff
/// ladder ([`MAX_ATTEMPTS`], [`BACKOFF_BASE_S`]). Injected executor
/// faults consume the leading attempts; exhaustion returns the last
/// error for quarantine.
fn execute_shard<W: CampaignWorkload + Sync>(
    workload: &W,
    opts: &CampaignOptions,
    spec: &ShardSpec,
) -> ShardExecution {
    let injected_failures = opts.faults.shard_executor_failures(spec.index);
    let mut retries = 0u64;
    let mut backoff_s = 0.0f64;
    let mut last_err = QfcError::persistence(format!("shard {} never attempted", spec.index));
    for attempt in 1..=MAX_ATTEMPTS {
        if attempt > 1 {
            // Deterministic exponential ladder, mirroring the
            // supervisor's pump re-lock backoff (base · 2^(k−2) before
            // attempt k). Recorded, not slept: the budget is virtual.
            backoff_s += BACKOFF_BASE_S * f64::from(1u32 << (attempt - 2));
            retries += 1;
        }
        let outcome = if attempt <= injected_failures {
            Err(QfcError::persistence(format!(
                "injected executor fault: shard {} attempt {attempt}",
                spec.index
            )))
        } else {
            workload.run_shard(spec)
        };
        match outcome {
            Ok(payload) => {
                return ShardExecution {
                    retries,
                    backoff_s,
                    result: Ok(payload),
                }
            }
            Err(e) => last_err = e,
        }
    }
    ShardExecution {
        retries,
        backoff_s,
        result: Err(last_err),
    }
}

/// Payload slot for a shard index (the manifest is contiguous from 0).
fn slot_of(index: u32) -> usize {
    usize::try_from(index).unwrap_or(usize::MAX)
}

fn interrupted(payloads: &[Option<String>], manifest: &CampaignManifest) -> QfcError {
    QfcError::CampaignInterrupted {
        completed_shards: payloads.iter().flatten().count(),
        total_shards: manifest.shards.len(),
    }
}

fn marker_path(dir: &Path, kind: &str, index: u32) -> PathBuf {
    dir.join(format!("{kind}-shard-{index:04}"))
}

fn marker_exists(dir: &Path, kind: &str, index: u32) -> bool {
    marker_path(dir, kind, index).exists()
}

/// Writes a fault marker; returns `false` when it already existed (the
/// injection already fired on a previous invocation).
fn write_marker_once(dir: &Path, kind: &str, index: u32) -> QfcResult<bool> {
    if marker_exists(dir, kind, index) {
        return Ok(false);
    }
    write_marker(dir, kind, index)?;
    Ok(true)
}

fn write_marker(dir: &Path, kind: &str, index: u32) -> QfcResult<()> {
    let path = marker_path(dir, kind, index);
    fs::write(&path, b"injected campaign fault fired here\n")
        .map_err(|e| QfcError::persistence(format!("write {}: {e}", path.display())))
}

/// Truncates a file to half its length — an injected torn write.
fn truncate_file(path: &Path) -> QfcResult<()> {
    let bytes =
        fs::read(path).map_err(|e| QfcError::persistence(format!("read {}: {e}", path.display())))?;
    fs::write(path, &bytes[..bytes.len() / 2])
        .map_err(|e| QfcError::persistence(format!("truncate {}: {e}", path.display())))
}

/// Publishes recovery telemetry: `campaign_*` counters plus the
/// [`CampaignSummary`] block on the current run manifest. No-op without
/// an installed collector.
fn publish(manifest: &CampaignManifest, stats: &CampaignStats) {
    if !qfc_obs::enabled() {
        return;
    }
    qfc_obs::counter_add(
        "campaign_shards_completed",
        qfc_mathkit::cast::usize_to_u64(stats.shards_completed),
    );
    qfc_obs::counter_add(
        "campaign_shards_resumed",
        qfc_mathkit::cast::usize_to_u64(stats.shards_resumed),
    );
    qfc_obs::counter_add("campaign_retries", stats.retries);
    qfc_obs::counter_add(
        "campaign_quarantines",
        qfc_mathkit::cast::usize_to_u64(stats.quarantined.len()),
    );
    qfc_obs::counter_add(
        "campaign_checkpoints_rejected",
        qfc_mathkit::cast::usize_to_u64(stats.checkpoints_rejected),
    );
    if let Some(mut m) = qfc_obs::current_manifest() {
        m.campaign = Some(CampaignSummary {
            campaign_id: manifest.campaign_id.clone(),
            shards_total: stats.shards_total,
            shards_resumed: stats.shards_resumed,
            retries: stats.retries,
            quarantined: stats.quarantined.len(),
            checkpoints_rejected: stats.checkpoints_rejected,
        });
        qfc_obs::set_manifest(m);
    }
}
