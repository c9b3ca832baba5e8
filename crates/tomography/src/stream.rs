//! Streaming count accumulation: fold per-shard outcome histograms into
//! [`TomographyData`] without materializing per-shot tables.
//!
//! The qudit roadmap pushes tomography toward d²×d² density matrices,
//! where a run's count data arrives as many independent shards — one
//! split-seed stream per setting from the parallel runtime, or one
//! checkpointed campaign shard per setting range. [`CountAccumulator`]
//! is the validated fold target for those histograms: it fixes the
//! setting list once (rejecting empty or mixed-arity lists up front,
//! the degenerate inputs that used to surface as NaN cascades deep in
//! the reconstructor), then absorbs histograms shard by shard and
//! finishes into a plain [`TomographyData`].
//!
//! [`try_stream_counts_seeded`] drives the accumulator with one
//! split-seed stream per setting (`split_seed(seed, setting_index)`),
//! so its output is byte-identical at any thread count — the property
//! `tests/` pins with a 1/4/8-thread proptest.

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;
use qfc_mathkit::rng::split_seed;
use qfc_quantum::density::DensityMatrix;

use crate::counts::{setting_histogram, TomographyData};
use crate::settings::Setting;

/// A validated, incrementally-fed count table.
///
/// Construction pins the setting list (non-empty, uniform arity);
/// [`CountAccumulator::absorb_histogram`] then folds one shard's
/// histogram for one setting at a time, and
/// [`CountAccumulator::finish`] hands the accumulated counts over as a
/// [`TomographyData`]. Absorption is commutative over shards of
/// *different* settings and additive within a setting, so any shard
/// arrival order produces the same table.
#[derive(Debug, Clone)]
pub struct CountAccumulator {
    settings: Vec<Setting>,
    counts: Vec<Vec<u64>>,
    shards_absorbed: u64,
}

impl CountAccumulator {
    /// Pins the setting list and zero-initializes the count table.
    ///
    /// # Errors
    ///
    /// [`QfcError::InsufficientData`] for an empty or mixed-arity
    /// setting list — the degenerate shapes the reconstruction pipeline
    /// rejects.
    pub fn try_new(settings: &[Setting]) -> QfcResult<Self> {
        let Some(first) = settings.first() else {
            return Err(QfcError::InsufficientData {
                context: "count accumulator needs at least one setting".to_owned(),
            });
        };
        let n = first.qubits();
        for (s, setting) in settings.iter().enumerate() {
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
        let counts = settings.iter().map(|s| vec![0u64; s.outcomes()]).collect();
        Ok(Self {
            settings: settings.to_vec(),
            counts,
            shards_absorbed: 0,
        })
    }

    /// Number of qubits every pinned setting measures.
    pub fn qubits(&self) -> usize {
        self.settings
            .first()
            .map_or(0, Setting::qubits)
    }

    /// Number of pinned settings.
    pub fn settings(&self) -> usize {
        self.settings.len()
    }

    /// Histogram shards absorbed so far.
    pub fn shards_absorbed(&self) -> u64 {
        self.shards_absorbed
    }

    /// Events accumulated across all settings so far.
    pub fn grand_total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Folds one shard's outcome histogram into setting `s`.
    ///
    /// # Errors
    ///
    /// [`QfcError::InvalidParameter`] when `s` is out of range, the
    /// histogram length doesn't match the setting's outcome count, or an
    /// accumulated count would overflow `u64`.
    pub fn absorb_histogram(&mut self, s: usize, histogram: &[u64]) -> QfcResult<()> {
        let Some(row) = self.counts.get_mut(s) else {
            return Err(QfcError::invalid(format!(
                "count accumulator has {} setting(s), shard targets setting {s}",
                self.settings.len()
            )));
        };
        if histogram.len() != row.len() {
            return Err(QfcError::invalid(format!(
                "setting {s} shard has {} outcome slot(s), expected {}",
                histogram.len(),
                row.len()
            )));
        }
        // qfc-lint: hot
        for (acc, &h) in row.iter_mut().zip(histogram) {
            *acc = acc.checked_add(h).ok_or_else(|| {
                QfcError::invalid(format!("setting {s} count overflowed u64"))
            })?;
        }
        self.shards_absorbed += 1;
        Ok(())
    }

    /// Hands the accumulated table over. The result may still be
    /// degenerate (zero grand total) — reconstruction entry points
    /// validate that, so an all-dark run surfaces as a
    /// [`QfcError::SingularSystem`] there rather than a panic here.
    pub fn finish(self) -> TomographyData {
        TomographyData {
            settings: self.settings,
            counts: self.counts,
        }
    }
}

/// Minimum shots per setting before [`try_stream_counts_seeded`] fans out to
/// the worker pool. Below this grain a one-shot `par_map` costs more
/// than it saves, so small jobs run the identical per-setting kernels
/// serially instead. Measured on the rank-1 count path, 81 four-qubit
/// settings on a 2-vCPU host (medians of 400 interleaved repetitions,
/// two processes): at 40 shots per setting the serial loop took
/// 0.45–0.67 ms and `par_map` at 2 threads 0.54–0.76 ms; at 60 shots
/// 0.44–0.70 ms against 0.50–0.79 ms. At 1 thread both are the same
/// loop. Outputs are unaffected: each setting's histogram depends only
/// on its own split seed, never on which thread ran it.
const PAR_MIN_SHOTS_PER_SETTING: u64 = 1024;

/// Simulates `shots_per_setting` projective measurements of `rho` in
/// each setting, every setting on its own split-seed stream
/// (`split_seed(seed, setting_index)`, through [`setting_histogram`]),
/// and folds the histograms through a [`CountAccumulator`]. Settings
/// run concurrently on the worker pool, and the counts are
/// bitwise-identical at any thread count. Jobs below
/// `PAR_MIN_SHOTS_PER_SETTING` (1024) shots per setting skip the pool
/// and run the same kernels serially (same bytes, no dispatch
/// overhead).
///
/// # Errors
///
/// [`QfcError::InsufficientData`] for an empty or mixed-arity setting
/// list, [`QfcError::InvalidParameter`] when a setting doesn't match
/// the state dimension.
pub fn try_stream_counts_seeded(
    rho: &DensityMatrix,
    settings: &[Setting],
    shots_per_setting: u64,
    seed: u64,
) -> QfcResult<TomographyData> {
    let mut acc = CountAccumulator::try_new(settings)?;
    if acc.qubits() != rho.qubits() {
        return Err(QfcError::invalid(format!(
            "settings measure {} qubit(s) but the state has {}",
            acc.qubits(),
            rho.qubits()
        )));
    }
    let indexed: Vec<usize> = (0..settings.len()).collect();
    let histogram = |s: usize| {
        setting_histogram(
            rho,
            &settings[s],
            shots_per_setting,
            split_seed(seed, cast::usize_to_u64(s)),
        )
    };
    // Tiny jobs pay more for pool dispatch than for the sampling
    // itself, and the per-setting streams make serial and parallel runs
    // byte-identical anyway.
    let histograms = if shots_per_setting < PAR_MIN_SHOTS_PER_SETTING {
        indexed.iter().map(|&s| histogram(s)).collect::<Vec<_>>()
    } else {
        qfc_runtime::par_map(&indexed, |&s| histogram(s))
    };
    for (s, histogram) in histograms.iter().enumerate() {
        acc.absorb_histogram(s, histogram)?;
    }
    qfc_obs::counter_add("tomography_stream_shards", acc.shards_absorbed());
    Ok(acc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{all_settings, PauliBasis};
    use qfc_quantum::bell::werner_state;

    #[test]
    fn streaming_draws_each_setting_from_its_split_seed() {
        let truth = werner_state(0.83, 0.0);
        let settings = all_settings(2);
        let direct: Vec<Vec<u64>> = settings
            .iter()
            .enumerate()
            .map(|(s, setting)| setting_histogram(&truth, setting, 400, split_seed(17, s as u64)))
            .collect();
        let streamed =
            try_stream_counts_seeded(&truth, &settings, 400, 17).expect("valid settings");
        assert_eq!(streamed.settings, settings);
        assert_eq!(streamed.counts, direct);
    }

    #[test]
    fn accumulator_rejects_empty_and_mixed_arity() {
        let err = CountAccumulator::try_new(&[]).expect_err("empty");
        assert!(matches!(err, QfcError::InsufficientData { .. }));
        let mixed = [
            Setting::from_bases(&[PauliBasis::Z]),
            Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
        ];
        let err = CountAccumulator::try_new(&mixed).expect_err("mixed arity");
        assert!(err.to_string().contains("mixed-arity"));
    }

    #[test]
    fn absorb_validates_shape_and_range() {
        let settings = all_settings(1);
        let mut acc = CountAccumulator::try_new(&settings).expect("valid");
        assert!(acc.absorb_histogram(0, &[1, 2]).is_ok());
        assert!(acc.absorb_histogram(7, &[1, 2]).is_err());
        assert!(acc.absorb_histogram(1, &[1, 2, 3]).is_err());
        assert!(acc.absorb_histogram(2, &[u64::MAX, 0]).is_ok());
        let err = acc.absorb_histogram(2, &[1, 0]).expect_err("overflow");
        assert!(err.to_string().contains("overflow"));
        assert_eq!(acc.shards_absorbed(), 2);
    }

    #[test]
    fn shard_arrival_order_is_immaterial() {
        let truth = werner_state(0.7, 0.1);
        let settings = all_settings(2);
        let direct = try_stream_counts_seeded(&truth, &settings, 150, 29).expect("valid settings");
        let mut acc = CountAccumulator::try_new(&settings).expect("valid");
        // Absorb the per-setting histograms in reverse, split into two
        // half-shards each.
        for s in (0..settings.len()).rev() {
            let h = &direct.counts[s];
            let partial: Vec<u64> = h.iter().map(|&c| c / 2).collect();
            let rest: Vec<u64> = h
                .iter()
                .zip(&partial)
                .map(|(&c, &p)| c - p)
                .collect();
            acc.absorb_histogram(s, &partial).expect("first half");
            acc.absorb_histogram(s, &rest).expect("second half");
        }
        assert_eq!(acc.grand_total(), direct.grand_total());
        assert_eq!(acc.finish(), direct);
    }

    #[test]
    fn stream_rejects_state_dimension_mismatch() {
        let truth = werner_state(0.8, 0.0); // 2 qubits
        let err = try_stream_counts_seeded(&truth, &all_settings(1), 10, 1)
            .expect_err("dimension mismatch");
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
    }
}
