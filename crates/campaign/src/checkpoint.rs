//! Integrity-hashed shard checkpoints.
//!
//! One file per completed shard, `shard-NNNN.json`, holding the
//! campaign fingerprint, the shard index, the payload, and an FNV-1a 64
//! content hash of the payload. Writes go through a temp file and an
//! atomic rename so a crash mid-write leaves either the previous state
//! or a `.tmp` orphan — never a half-written checkpoint under the final
//! name. Loads re-verify everything: unparseable JSON (a torn write
//! that somehow landed), a fingerprint mismatch (stale checkpoint from
//! another campaign), a shard-index mismatch (duplicate/misfiled file),
//! or a content-hash mismatch (corruption) all reject the checkpoint,
//! and the engine simply re-runs that shard.

use std::fs;
use std::path::{Path, PathBuf};

use qfc_faults::{QfcError, QfcResult};
use qfc_obs::RunManifest;
use serde::{Deserialize, Serialize};

/// On-disk checkpoint record for one shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Campaign fingerprint this checkpoint belongs to.
    pub campaign: String,
    /// Shard index within the campaign manifest.
    pub shard: u32,
    /// FNV-1a 64 hash (16 hex digits) of `payload`.
    pub payload_hash: String,
    /// The shard's serialized result.
    pub payload: String,
}

/// Canonical checkpoint path for a shard.
pub fn shard_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard-{index:04}.json"))
}

/// Writes a shard checkpoint: serialize, write to `<name>.tmp`, then
/// rename over the final name so readers never observe a torn write.
///
/// # Errors
///
/// [`QfcError::Persistence`] on serialization or filesystem failure.
pub fn write_checkpoint(dir: &Path, campaign_id: &str, index: u32, payload: &str) -> QfcResult<()> {
    let record = Checkpoint {
        campaign: campaign_id.to_owned(),
        shard: index,
        payload_hash: RunManifest::digest_hex(payload.as_bytes()),
        payload: payload.to_owned(),
    };
    let bytes = serde_json::to_string(&record)
        .map_err(|e| QfcError::persistence(format!("checkpoint serialization: {e}")))?;
    let path = shard_path(dir, index);
    write_atomic(&path, bytes.as_bytes())
}

/// Writes `bytes` to `path` via a sibling `.tmp` file and a rename.
///
/// # Errors
///
/// [`QfcError::Persistence`] on filesystem failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> QfcResult<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, bytes)
        .map_err(|e| QfcError::persistence(format!("write {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path)
        .map_err(|e| QfcError::persistence(format!("rename into {}: {e}", path.display())))
}

/// Result of probing a shard's checkpoint at resume time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// No checkpoint on disk — the shard is pending.
    Missing,
    /// A valid checkpoint: the shard's payload, integrity-verified.
    Valid(String),
    /// A checkpoint exists but failed validation (reason attached); the
    /// engine deletes it and re-runs the shard.
    Rejected(String),
}

/// Loads and validates a shard checkpoint against the campaign
/// fingerprint and the expected shard index.
pub fn load_checkpoint(dir: &Path, campaign_id: &str, index: u32) -> LoadOutcome {
    let path = shard_path(dir, index);
    let bytes = match fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Rejected(format!("unreadable: {e}")),
    };
    let record: Checkpoint = match serde_json::from_str(&bytes) {
        Ok(r) => r,
        Err(e) => return LoadOutcome::Rejected(format!("torn or malformed JSON: {e}")),
    };
    if record.campaign != campaign_id {
        return LoadOutcome::Rejected(format!(
            "stale fingerprint {} (campaign is {campaign_id})",
            record.campaign
        ));
    }
    if record.shard != index {
        return LoadOutcome::Rejected(format!(
            "shard index mismatch: file holds {}, expected {index}",
            record.shard
        ));
    }
    let hash = RunManifest::digest_hex(record.payload.as_bytes());
    if hash != record.payload_hash {
        return LoadOutcome::Rejected(format!(
            "payload hash mismatch: stored {}, computed {hash}",
            record.payload_hash
        ));
    }
    LoadOutcome::Valid(record.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("ckpt-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn round_trip_is_valid() {
        let dir = tmpdir("roundtrip");
        write_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 3, "{\"x\":1}").expect("write");
        assert_eq!(
            load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 3),
            LoadOutcome::Valid("{\"x\":1}".to_owned())
        );
        assert_eq!(load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 4), LoadOutcome::Missing);
    }

    #[test]
    fn torn_write_is_rejected() {
        let dir = tmpdir("torn");
        write_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 0, "{\"x\":1}").expect("write");
        let path = shard_path(&dir, 0);
        let full = fs::read_to_string(&path).expect("read");
        fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert!(matches!(
            load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 0),
            LoadOutcome::Rejected(_)
        ));
    }

    #[test]
    fn stale_fingerprint_and_misfiled_shard_are_rejected() {
        let dir = tmpdir("stale");
        write_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 0, "{}").expect("write");
        assert!(matches!(
            load_checkpoint(&dir, "bbbbbbbbbbbbbbbb", 0),
            LoadOutcome::Rejected(_)
        ));
        // A duplicate checkpoint copied over another shard's slot.
        fs::copy(shard_path(&dir, 0), shard_path(&dir, 5)).expect("copy");
        assert!(matches!(
            load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 5),
            LoadOutcome::Rejected(_)
        ));
    }

    #[test]
    fn payload_corruption_is_rejected() {
        let dir = tmpdir("corrupt");
        write_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 1, "{\"v\":42}").expect("write");
        let path = shard_path(&dir, 1);
        let tampered = fs::read_to_string(&path).expect("read").replace("42", "43");
        fs::write(&path, tampered).expect("tamper");
        assert!(matches!(
            load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 1),
            LoadOutcome::Rejected(r) if r.contains("hash mismatch")
        ));
    }

    #[test]
    fn deeply_nested_json_is_rejected_not_a_stack_overflow() {
        let dir = tmpdir("nested");
        let bomb = format!("{{\"campaign\":{}", "[".repeat(200_000));
        fs::write(shard_path(&dir, 0), bomb).expect("write");
        assert!(matches!(
            load_checkpoint(&dir, "aaaaaaaaaaaaaaaa", 0),
            LoadOutcome::Rejected(r) if r.contains("recursion limit")
        ));
    }
}
