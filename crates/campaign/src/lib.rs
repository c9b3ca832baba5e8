//! Crash-tolerant sharded campaign engine.
//!
//! A *campaign* is the checkpointed executor of a paper driver's
//! [`qfc_core::experiment::Experiment`]: one shard per task (per-channel
//! tasks plus, for §II, the fixed `SHOT_SHARDS` shot-range decomposition
//! of the F2 linewidth run). It executes the shards on the `qfc-runtime`
//! pool with bounded retry and deterministic exponential backoff,
//! checkpoints every completed shard with an integrity hash (canonical
//! JSON, torn-write detection via temp-file rename), and folds the
//! payloads into the full run report through the experiment's own
//! assemble step.
//!
//! ## The byte-identity contract
//!
//! Every shard is a pure function of `(campaign seed, shard spec)`, and
//! the merge folds payloads in shard-index order — so the merged report
//! is **byte-identical** to the single-process driver's report at any
//! thread count, whether the shards ran in one process, across a crash
//! and a resume, or after retries. [`CampaignOptions::prove`] makes the
//! engine verify this against a fresh single-process run.
//!
//! ## Crash model
//!
//! Recovery paths are property-tested through injected faults
//! ([`qfc_faults::FaultKind::ShardAbort`],
//! [`qfc_faults::FaultKind::ShardExecutorFault`],
//! [`qfc_faults::FaultKind::CheckpointCorruption`],
//! [`qfc_faults::FaultKind::CheckpointStale`]): the engine kills itself
//! mid-campaign (returning [`qfc_faults::QfcError::CampaignInterrupted`])
//! or writes a damaged checkpoint, and a re-run with the same options
//! resumes from the surviving checkpoints, rejects the damaged ones, and
//! still produces the byte-identical report. Each injected fault fires
//! exactly once per campaign directory (a marker file records it), so a
//! resume is never re-killed by the same injection.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod manifest;
pub mod workload;

pub use engine::{
    run_campaign, CampaignOptions, CampaignOutcome, CampaignStats, BACKOFF_BASE_S, MAX_ATTEMPTS,
};
pub use manifest::{CampaignManifest, ShardSpec};
pub use workload::{
    Campaign, CampaignWorkload, CrossPolCampaign, HeraldedCampaign, MultiPhotonCampaign,
    TimeBinCampaign,
};
