//! Simulated tomography counts: Monte-Carlo projective measurements of a
//! density matrix under a set of tomography settings.

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qfc_mathkit::sampling::DiscreteSampler;
use qfc_quantum::density::DensityMatrix;

use crate::settings::Setting;

/// Measured (or simulated) counts for a full tomography run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TomographyData {
    /// The settings, one per measured basis combination.
    pub settings: Vec<Setting>,
    /// `counts[s][o]` — events for outcome `o` of setting `s`.
    pub counts: Vec<Vec<u64>>,
}

impl TomographyData {
    /// Total events in one setting.
    pub fn setting_total(&self, s: usize) -> u64 {
        self.counts[s].iter().sum()
    }

    /// Total events across all settings.
    pub fn grand_total(&self) -> u64 {
        (0..self.settings.len()).map(|s| self.setting_total(s)).sum()
    }

    /// Number of qubits measured.
    ///
    /// # Panics
    ///
    /// Panics on an empty setting list.
    pub fn qubits(&self) -> usize {
        match self.try_qubits() {
            Ok(n) => n,
            Err(e) => panic!("{e}"), // qfc-lint: allow(panic-reachability) — documented panicking wrapper over the try_* twin (`# Panics` contract)
        }
    }

    /// Fallible form of [`TomographyData::qubits`]: returns
    /// [`QfcError::InsufficientData`] on an empty setting list instead of
    /// panicking.
    pub fn try_qubits(&self) -> QfcResult<usize> {
        self.settings
            .first()
            .map(Setting::qubits)
            .ok_or_else(|| QfcError::InsufficientData {
                context: "tomography data has an empty setting list".to_owned(),
            })
    }

    /// Structural validation every reconstructor runs up front:
    ///
    /// * the setting list is non-empty;
    /// * every setting measures the same number of qubits (a mixed-arity
    ///   list would silently truncate Pauli-string compatibility checks);
    /// * the count table has one row per setting, each row one slot per
    ///   outcome.
    ///
    /// # Errors
    ///
    /// [`QfcError::InsufficientData`] for an empty or mixed-arity setting
    /// list, [`QfcError::InvalidParameter`] for a malformed count table.
    pub fn validate(&self) -> QfcResult<()> {
        let n = self.try_qubits()?;
        for (s, setting) in self.settings.iter().enumerate() {
            if setting.qubits() != n {
                return Err(QfcError::InsufficientData {
                    context: format!(
                        "mixed-arity setting list: setting {s} measures {} qubit(s) \
                         but setting 0 measures {n}",
                        setting.qubits()
                    ),
                });
            }
        }
        if self.counts.len() != self.settings.len() {
            return Err(QfcError::invalid(format!(
                "tomography count table has {} row(s) for {} setting(s)",
                self.counts.len(),
                self.settings.len()
            )));
        }
        for (s, row) in self.counts.iter().enumerate() {
            if row.len() != self.settings[s].outcomes() {
                return Err(QfcError::invalid(format!(
                    "setting {s} has {} count slot(s) for {} outcome(s)",
                    row.len(),
                    self.settings[s].outcomes()
                )));
            }
        }
        Ok(())
    }

    /// Relative frequency of outcome `o` in setting `s` (`0` when the
    /// setting recorded no events).
    pub fn frequency(&self, s: usize, o: usize) -> f64 {
        let total = self.setting_total(s);
        if total == 0 {
            0.0
        } else {
            cast::to_f64(self.counts[s][o]) / cast::to_f64(total)
        }
    }
}

/// Simulates `shots_per_setting` projective measurements of `rho` in each
/// setting.
///
/// # Panics
///
/// Panics if settings don't match the state dimension.
pub fn simulate_counts<R: Rng + ?Sized>(
    rng: &mut R,
    rho: &DensityMatrix,
    settings: &[Setting],
    shots_per_setting: u64,
) -> TomographyData {
    let mut counts = Vec::with_capacity(settings.len());
    for setting in settings {
        assert_eq!(
            setting.qubits(),
            rho.qubits(),
            "setting does not match state size"
        );
        let probs: Vec<f64> = (0..setting.outcomes())
            .map(|o| rho.probability(&setting.outcome_projector(o)))
            .collect();
        let sampler = DiscreteSampler::new(&probs);
        let mut c = vec![0u64; setting.outcomes()];
        // qfc-lint: hot
        for _ in 0..shots_per_setting {
            c[sampler.sample(rng)] += 1;
        }
        counts.push(c);
    }
    TomographyData {
        settings: settings.to_vec(),
        counts,
    }
}

/// One setting's outcome histogram: `shots` projective measurements of
/// `rho` drawn from the dedicated RNG stream `stream_seed`.
///
/// This is the per-shard kernel of the seeded count paths:
/// [`simulate_counts_seeded`] (and the streaming accumulator in
/// [`crate::stream`]) give setting `s` the stream
/// `split_seed(seed, s)`, so any shard that runs this kernel with the
/// same stream seed reproduces that setting's histogram bit for bit,
/// regardless of which process or thread executes it.
///
/// # Panics
///
/// Panics if the setting doesn't match the state dimension.
pub fn setting_histogram(
    rho: &DensityMatrix,
    setting: &Setting,
    shots: u64,
    stream_seed: u64,
) -> Vec<u64> {
    use qfc_mathkit::rng::rng_from_seed;

    assert_eq!(
        setting.qubits(),
        rho.qubits(),
        "setting does not match state size"
    );
    let probs: Vec<f64> = (0..setting.outcomes())
        .map(|o| rho.probability(&setting.outcome_projector(o)))
        .collect();
    let sampler = DiscreteSampler::new(&probs);
    let mut rng = rng_from_seed(stream_seed);
    let mut c = vec![0u64; setting.outcomes()];
    // qfc-lint: hot
    for _ in 0..shots {
        c[sampler.sample(&mut rng)] += 1;
    }
    c
}

/// Minimum shots per setting before the seeded count paths fan out to
/// the worker pool. Below this grain the per-task dispatch and shard
/// merge cost more than the sampling itself — the four-photon smoke
/// profile (40 shots × 81 settings) measured *slower* in parallel than
/// serial — so small jobs run the identical per-setting kernels
/// serially instead. Outputs are unaffected: each setting's histogram
/// depends only on its own split seed, never on which thread ran it.
pub(crate) const PAR_MIN_SHOTS_PER_SETTING: u64 = 1024;

/// Seeded, parallel variant of [`simulate_counts`]: every setting draws
/// its shots from an independent split-seed stream
/// (`split_seed(seed, setting_index)`), so settings run concurrently on
/// the worker pool and the counts are bitwise-identical at any thread
/// count. Jobs below `PAR_MIN_SHOTS_PER_SETTING` (1024) shots per setting
/// skip the pool and run the same kernels serially (same bytes, no
/// dispatch overhead).
///
/// # Panics
///
/// Panics if settings don't match the state dimension.
pub fn simulate_counts_seeded(
    rho: &DensityMatrix,
    settings: &[Setting],
    shots_per_setting: u64,
    seed: u64,
) -> TomographyData {
    use qfc_mathkit::rng::split_seed;

    let indexed: Vec<usize> = (0..settings.len()).collect();
    let histogram = |s: usize| {
        setting_histogram(
            rho,
            &settings[s],
            shots_per_setting,
            split_seed(seed, cast::usize_to_u64(s)),
        )
    };
    let counts = if shots_per_setting < PAR_MIN_SHOTS_PER_SETTING {
        indexed.iter().map(|&s| histogram(s)).collect()
    } else {
        qfc_runtime::par_map(&indexed, |&s| histogram(s))
    };
    TomographyData {
        settings: settings.to_vec(),
        counts,
    }
}

/// Computes the *exact* outcome distribution instead of sampling —
/// "infinite statistics" tomography used to validate reconstructors.
pub fn exact_counts(rho: &DensityMatrix, settings: &[Setting], scale: u64) -> TomographyData {
    let mut counts = Vec::with_capacity(settings.len());
    for setting in settings {
        assert_eq!(setting.qubits(), rho.qubits());
        let c: Vec<u64> = (0..setting.outcomes())
            .map(|o| {
                cast::f64_to_u64((rho.probability(&setting.outcome_projector(o)) * cast::to_f64(scale)).round())
            })
            .collect();
        counts.push(c);
    }
    TomographyData {
        settings: settings.to_vec(),
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{all_settings, PauliBasis};
    use qfc_mathkit::rng::rng_from_seed;
    use qfc_quantum::bell::bell_phi_plus;
    use qfc_quantum::state::PureState;

    #[test]
    fn counts_respect_born_rule() {
        let mut rng = rng_from_seed(21);
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let settings = vec![Setting(vec![PauliBasis::X]), Setting(vec![PauliBasis::Z])];
        let data = simulate_counts(&mut rng, &rho, &settings, 20_000);
        // X basis: |+⟩ always gives outcome 0.
        assert_eq!(data.counts[0][0], 20_000);
        // Z basis: 50/50.
        let f = data.frequency(1, 0);
        assert!((f - 0.5).abs() < 0.02, "f = {f}");
    }

    #[test]
    fn bell_state_correlations_in_counts() {
        let mut rng = rng_from_seed(22);
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let zz = Setting(vec![PauliBasis::Z, PauliBasis::Z]);
        let data = simulate_counts(&mut rng, &rho, &[zz], 10_000);
        // Only 00 and 11 outcomes.
        assert_eq!(data.counts[0][1], 0);
        assert_eq!(data.counts[0][2], 0);
        assert!(data.counts[0][0] + data.counts[0][3] == 10_000);
    }

    #[test]
    fn exact_counts_match_probabilities() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let settings = all_settings(2);
        let data = exact_counts(&rho, &settings, 1_000_000);
        // XX on |Φ⁺⟩: perfectly correlated (outcomes 00 and 11 only).
        let xx_index = 0; // lexicographic X<Y<Z → (X,X) first
        assert_eq!(data.settings[xx_index].0, vec![PauliBasis::X, PauliBasis::X]);
        assert_eq!(data.counts[xx_index][1], 0);
        assert_eq!(data.counts[xx_index][2], 0);
        assert!((data.frequency(xx_index, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn totals_add_up() {
        let mut rng = rng_from_seed(23);
        let rho = DensityMatrix::maximally_mixed(2);
        let settings = all_settings(2);
        let data = simulate_counts(&mut rng, &rho, &settings, 100);
        assert_eq!(data.grand_total(), 900);
        assert_eq!(data.qubits(), 2);
        for s in 0..settings.len() {
            assert_eq!(data.setting_total(s), 100);
        }
    }
}
