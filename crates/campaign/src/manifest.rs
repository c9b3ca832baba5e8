//! Campaign manifests: the deterministic shard table plus the campaign
//! fingerprint that keys the checkpoint directory.
//!
//! The fingerprint covers the workload label, the root seed, the
//! workload's [`config_json`](crate::CampaignWorkload::config_json) —
//! for a driver campaign, the source, the driver config and the physics
//! fault schedule — and the full shard table. So a checkpoint can never
//! be replayed into a campaign it does not belong to: changing any
//! input a payload depends on changes the fingerprint, and stale
//! checkpoints are rejected at load.

use qfc_faults::{QfcError, QfcResult};
use qfc_obs::RunManifest;
use serde::{Deserialize, Serialize};

/// One shard of a campaign: one task of the driver's experiment.
pub use qfc_core::experiment::ShardSpec;

/// The deterministic decomposition of one driver run into shards, plus
/// the fingerprint that keys its checkpoint directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Workload label, e.g. `timebin`.
    pub label: String,
    /// Root RNG seed of the run.
    pub seed: u64,
    /// FNV-1a 64 digest of the workload's config JSON.
    pub config_digest: String,
    /// 16-hex-digit fingerprint of (label, seed, config JSON, shard
    /// table).
    pub campaign_id: String,
    /// The shard table, in index order.
    pub shards: Vec<ShardSpec>,
}

impl CampaignManifest {
    /// Builds the manifest and its fingerprint from a workload identity
    /// and its shard decomposition. Shards must arrive in index order
    /// with contiguous indices from 0 — the engine's payload slots are
    /// positional.
    ///
    /// # Errors
    ///
    /// [`QfcError::InvalidParameter`] for an empty or mis-indexed shard
    /// table; [`QfcError::Persistence`] when the shard table cannot be
    /// serialized for fingerprinting.
    pub fn new(
        label: &str,
        seed: u64,
        config_json: &str,
        shards: Vec<ShardSpec>,
    ) -> QfcResult<Self> {
        if shards.is_empty() {
            return Err(QfcError::invalid("campaign needs at least one shard"));
        }
        for (i, s) in shards.iter().enumerate() {
            if usize::try_from(s.index) != Ok(i) {
                return Err(QfcError::invalid(format!(
                    "shard table must be contiguous from 0: position {i} holds index {}",
                    s.index
                )));
            }
        }
        let config_digest = RunManifest::digest_hex(config_json.as_bytes());
        let table = serde_json::to_string(&shards)
            .map_err(|e| QfcError::persistence(format!("shard table serialization: {e}")))?;
        let campaign_id =
            RunManifest::digest_hex(format!("{label}\n{seed}\n{config_digest}\n{table}").as_bytes());
        Ok(Self {
            label: label.to_owned(),
            seed,
            config_digest,
            campaign_id,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(index: u32) -> ShardSpec {
        ShardSpec {
            index,
            label: format!("unit-{index}"),
            start: u64::from(index),
            len: 1,
            seed: 1000 + u64::from(index),
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_identity_and_table() {
        let base = CampaignManifest::new("demo", 7, "{\"x\":1}", vec![spec(0), spec(1)])
            .expect("manifest");
        assert_eq!(base.campaign_id.len(), 16);
        let other_seed = CampaignManifest::new("demo", 8, "{\"x\":1}", vec![spec(0), spec(1)])
            .expect("manifest");
        assert_ne!(base.campaign_id, other_seed.campaign_id);
        let other_config = CampaignManifest::new("demo", 7, "{\"x\":2}", vec![spec(0), spec(1)])
            .expect("manifest");
        assert_ne!(base.campaign_id, other_config.campaign_id);
        let other_table =
            CampaignManifest::new("demo", 7, "{\"x\":1}", vec![spec(0)]).expect("manifest");
        assert_ne!(base.campaign_id, other_table.campaign_id);
        // Same inputs → same fingerprint (the resume key).
        let again = CampaignManifest::new("demo", 7, "{\"x\":1}", vec![spec(0), spec(1)])
            .expect("manifest");
        assert_eq!(base.campaign_id, again.campaign_id);
    }

    #[test]
    fn mis_indexed_tables_are_rejected() {
        assert!(CampaignManifest::new("demo", 7, "{}", Vec::new()).is_err());
        let err = CampaignManifest::new("demo", 7, "{}", vec![spec(1), spec(0)])
            .expect_err("out of order");
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = CampaignManifest::new("demo", 7, "{\"x\":1}", vec![spec(0), spec(1)])
            .expect("manifest");
        let json = serde_json::to_string(&m).expect("serializes");
        let back: CampaignManifest = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, m);
    }
}
