//! Campaign workloads: any paper driver's [`Experiment`] run as a
//! checkpointed campaign, one shard per task.
//!
//! [`Campaign`] is the one adapter: its shard table is the experiment's
//! task list, a shard's payload is one task's serialized output, and
//! `merge` decodes the payloads one at a time, in shard-index order,
//! into the same [`Experiment::assemble`] the in-process executor
//! calls — so a merged campaign report is byte-identical to the
//! single-process run.

use qfc_core::crosspol::CrossPolConfig;
use qfc_core::experiment::{run_in_process, Experiment};
use qfc_core::heralded::HeraldedConfig;
use qfc_core::multiphoton::MultiPhotonConfig;
use qfc_core::source::QfcSource;
use qfc_core::timebin::TimeBinConfig;
use qfc_faults::{FaultSchedule, QfcError, QfcResult};
use serde::Serialize;

use crate::manifest::ShardSpec;

/// A driver run decomposed into independently executable shards.
///
/// Implementations must keep three invariants, which together give the
/// engine its byte-identity guarantee:
///
/// 1. `plan` is deterministic: same workload → same shard table.
/// 2. `run_shard` is a pure function of `(workload, spec)` — it must not
///    depend on which shards ran before it, on the thread count, or on
///    wall-clock time.
/// 3. `merge` over the full payload list (in shard-index order) produces
///    the same bytes as [`Self::reference_json`], the single-process
///    driver run.
pub trait CampaignWorkload {
    /// Workload label, e.g. `timebin` (part of the campaign fingerprint).
    fn label(&self) -> String;
    /// Root RNG seed of the run (part of the campaign fingerprint).
    fn seed(&self) -> u64;
    /// Canonical JSON of every input a shard payload depends on except
    /// the seed (digested into the campaign fingerprint), so two
    /// campaigns that could produce different payloads never share a
    /// checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`QfcError::Persistence`] when the inputs cannot be serialized.
    fn config_json(&self) -> QfcResult<String>;
    /// The deterministic shard decomposition, indices contiguous from 0.
    ///
    /// # Errors
    ///
    /// Any driver planning error (invalid config, regime mismatch, …).
    fn plan(&self) -> QfcResult<Vec<ShardSpec>>;
    /// Executes one shard and serializes its partial result.
    ///
    /// # Errors
    ///
    /// Any driver error; the engine retries and eventually quarantines.
    fn run_shard(&self, spec: &ShardSpec) -> QfcResult<String>;
    /// Folds the full payload list (shard-index order) into the run
    /// report's JSON serialization.
    ///
    /// # Errors
    ///
    /// [`QfcError::Persistence`] for undecodable payloads, plus any
    /// driver assembly error.
    fn merge(&self, payloads: &[String]) -> QfcResult<String>;
    /// The single-process driver run, serialized — the byte-identity
    /// reference for [`CampaignOptions::prove`](crate::CampaignOptions).
    ///
    /// # Errors
    ///
    /// Any driver error.
    fn reference_json(&self) -> QfcResult<String>;
}

fn to_json<T: Serialize>(what: &str, value: &T) -> QfcResult<String> {
    serde_json::to_string(value)
        .map_err(|e| QfcError::persistence(format!("{what} serialization: {e}")))
}

/// A paper driver run as a campaign: the same four inputs
/// [`run_in_process`] receives, with one shard per
/// [`Experiment::task`].
#[derive(Debug)]
pub struct Campaign<'a, C> {
    /// The simulated device.
    pub source: &'a QfcSource,
    /// Driver configuration.
    pub config: &'a C,
    /// Root RNG seed.
    pub seed: u64,
    /// Physics fault schedule (campaign fault kinds belong in
    /// [`CampaignOptions::faults`](crate::CampaignOptions)).
    pub schedule: &'a FaultSchedule,
}

impl<C> Clone for Campaign<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Campaign<'_, C> {}

/// §IV time-bin run as a campaign: one shard per surviving channel.
pub type TimeBinCampaign<'a> = Campaign<'a, TimeBinConfig>;
/// §II heralded run as a campaign: one shard per surviving channel plus
/// the fixed `SHOT_SHARDS` shot-range shards of the F2 linewidth run.
pub type HeraldedCampaign<'a> = Campaign<'a, HeraldedConfig>;
/// §V multi-photon run as a campaign: one shard per T3 channel, one for
/// the F8 fringe, and the T4 count ranges; the merge runs the T4 MLE.
pub type MultiPhotonCampaign<'a> = Campaign<'a, MultiPhotonConfig>;
/// §III cross-polarization run as a campaign: a single shard, which
/// still gains checkpoint/resume.
pub type CrossPolCampaign<'a> = Campaign<'a, CrossPolConfig>;

impl<C: Experiment> CampaignWorkload for Campaign<'_, C> {
    fn label(&self) -> String {
        C::LABEL.to_owned()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn config_json(&self) -> QfcResult<String> {
        to_json(C::LABEL, &(self.source, self.config, self.schedule))
    }

    fn plan(&self) -> QfcResult<Vec<ShardSpec>> {
        let (_, tasks) = self.config.plan(self.source, self.seed, self.schedule)?;
        Ok(tasks)
    }

    fn run_shard(&self, spec: &ShardSpec) -> QfcResult<String> {
        let (plan, tasks) = self.config.plan(self.source, self.seed, self.schedule)?;
        if tasks.get(spec.slot()) != Some(spec) {
            return Err(spec.unplanned(C::LABEL));
        }
        let output = self
            .config
            .task(self.source, self.seed, self.schedule, &plan, spec)?;
        to_json(&spec.label, &output)
    }

    fn merge(&self, payloads: &[String]) -> QfcResult<String> {
        let (plan, tasks) = self.config.plan(self.source, self.seed, self.schedule)?;
        if payloads.len() != tasks.len() {
            return Err(QfcError::persistence(format!(
                "{} campaign expects {} payloads, got {}",
                C::LABEL,
                tasks.len(),
                payloads.len()
            )));
        }
        let outputs = payloads.iter().zip(&tasks).map(|(payload, spec)| {
            serde_json::from_str(payload).map_err(|e| {
                QfcError::persistence(format!("{} payload undecodable: {e}", spec.label))
            })
        });
        let run = self.config.assemble(plan, outputs)?;
        to_json(C::LABEL, &run)
    }

    fn reference_json(&self) -> QfcResult<String> {
        let run = run_in_process(self.config, self.source, self.seed, self.schedule)?;
        to_json(C::LABEL, &run)
    }
}
