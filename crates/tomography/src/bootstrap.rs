//! Bootstrap error bars for reconstructed quantities.
//!
//! Tomographic fidelities are nonlinear functions of Poissonian counts;
//! the standard way to attach an uncertainty is the parametric
//! bootstrap: resample each setting's counts from a multinomial with the
//! observed frequencies, re-run the reconstructor, and take the spread.

use qfc_mathkit::cast;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qfc_mathkit::sampling::DiscreteSampler;
use qfc_mathkit::stats::{mean, sample_std_dev};
use qfc_quantum::density::DensityMatrix;

use crate::counts::TomographyData;

/// A bootstrap estimate: central value and 1σ spread.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapEstimate {
    /// Mean over the bootstrap replicas.
    pub value: f64,
    /// Sample standard deviation over the replicas.
    pub sigma: f64,
    /// Number of replicas used.
    pub replicas: usize,
}

/// Resamples a tomography data set once (parametric bootstrap: same
/// per-setting totals, multinomial frequencies).
pub fn resample<R: Rng + ?Sized>(rng: &mut R, data: &TomographyData) -> TomographyData {
    ResampleTables::new(data).resample(rng, data)
}

/// Precomputed per-setting sampling tables for repeated [`resample`]
/// calls over the same data set.
///
/// Every bootstrap replica resamples from identical per-setting weights;
/// building the [`DiscreteSampler`] threshold ladders once and sharing
/// them across replicas removes the per-replica weight rebuild without
/// changing a single drawn outcome (sampler construction is RNG-free and
/// the draws are bit-identical to [`qfc_mathkit::rng::discrete`]).
#[derive(Debug, Clone)]
pub struct ResampleTables {
    /// `Some(sampler)` for settings with events; `None` mirrors the
    /// zero-total guard of the direct resampling loop.
    samplers: Vec<Option<DiscreteSampler>>,
    /// Per-setting event totals (resampled totals are preserved).
    totals: Vec<u64>,
}

impl ResampleTables {
    /// Builds the per-setting tables for `data`.
    pub fn new(data: &TomographyData) -> Self {
        let mut samplers = Vec::with_capacity(data.counts.len());
        let mut totals = Vec::with_capacity(data.counts.len());
        for (s, setting_counts) in data.counts.iter().enumerate() {
            let total = data.setting_total(s);
            let weights: Vec<f64> =
                setting_counts.iter().map(|&c| cast::to_f64(c)).collect();
            if total > 0 && weights.iter().sum::<f64>() > 0.0 {
                samplers.push(Some(DiscreteSampler::new(&weights)));
            } else {
                samplers.push(None);
            }
            totals.push(total);
        }
        Self { samplers, totals }
    }

    /// One parametric-bootstrap resample of `data` through the cached
    /// tables. `data` must be the data set the tables were built from.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different setting count than the build
    /// data.
    pub fn resample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        data: &TomographyData,
    ) -> TomographyData {
        assert_eq!(
            self.samplers.len(),
            data.counts.len(),
            "resample tables do not match the data's settings"
        );
        let mut counts = Vec::with_capacity(data.counts.len());
        for (s, setting_counts) in data.counts.iter().enumerate() {
            let mut new_counts = vec![0u64; setting_counts.len()];
            if let Some(sampler) = &self.samplers[s] {
                // qfc-lint: hot
                for _ in 0..self.totals[s] {
                    new_counts[sampler.sample(rng)] += 1;
                }
            }
            counts.push(new_counts);
        }
        TomographyData {
            settings: data.settings.clone(),
            counts,
        }
    }
}

/// Bootstraps a scalar functional of the reconstructed state (e.g. a
/// fidelity): re-reconstructs `replicas` resampled data sets and reports
/// mean ± σ of `functional`.
///
/// Replicas run in parallel, each resampling from its own split-seed
/// stream (`split_seed(seed, replica_index)`); the replica values are
/// collected in index order, so the estimate is bitwise-identical at any
/// thread count.
///
/// # Panics
///
/// Panics if `replicas < 2`.
pub fn bootstrap_functional<F, G>(
    seed: u64,
    data: &TomographyData,
    replicas: usize,
    reconstruct: F,
    functional: G,
) -> BootstrapEstimate
where
    F: Fn(&TomographyData) -> DensityMatrix + Sync,
    G: Fn(&DensityMatrix) -> f64 + Sync,
{
    use qfc_mathkit::rng::{rng_from_seed, split_seed};

    assert!(replicas >= 2, "need at least two bootstrap replicas");
    qfc_obs::counter_add("bootstrap_replicas", cast::usize_to_u64(replicas));
    // One table build shared by every replica (construction is RNG-free,
    // so sharing cannot perturb any replica's stream).
    let tables = ResampleTables::new(data);
    let indices: Vec<u64> = (0..cast::usize_to_u64(replicas)).collect();
    let values = qfc_runtime::par_map(&indices, |&i| {
        let mut rng = rng_from_seed(split_seed(seed, i));
        let sample = tables.resample(&mut rng, data);
        functional(&reconstruct(&sample))
    });
    BootstrapEstimate {
        value: mean(&values),
        sigma: sample_std_dev(&values),
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::simulate_counts;
    use crate::reconstruct::try_linear_reconstruction;
    use crate::settings::all_settings;
    use qfc_mathkit::rng::rng_from_seed;
    use qfc_quantum::bell::{bell_phi_plus, werner_state};
    use qfc_quantum::fidelity::fidelity_with_pure;

    fn linear(data: &TomographyData) -> DensityMatrix {
        try_linear_reconstruction(data).expect("complete data")
    }

    #[test]
    fn resample_preserves_totals() {
        let mut rng = rng_from_seed(301);
        let truth = werner_state(0.8, 0.0);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 500);
        let re = resample(&mut rng, &data);
        for s in 0..data.settings.len() {
            assert_eq!(re.setting_total(s), data.setting_total(s));
        }
    }

    #[test]
    fn bootstrap_fidelity_has_sane_error_bar() {
        let mut rng = rng_from_seed(302);
        let truth = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 400);
        let target = bell_phi_plus();
        let est = bootstrap_functional(
            302,
            &data,
            24,
            linear,
            |rho| fidelity_with_pure(rho, &target),
        );
        // Central value near the analytic Werner fidelity (3V+1)/4 = 0.8725.
        assert!((est.value - 0.8725).abs() < 0.05, "F = {}", est.value);
        // Error bar neither zero nor absurd at 400 shots/setting.
        assert!(est.sigma > 1e-4 && est.sigma < 0.05, "σ = {}", est.sigma);
        assert_eq!(est.replicas, 24);
    }

    #[test]
    fn more_counts_shrink_the_error_bar() {
        let mut rng = rng_from_seed(303);
        let truth = werner_state(0.8, 0.0);
        let target = bell_phi_plus();
        let small = simulate_counts(&mut rng, &truth, &all_settings(2), 60);
        let large = simulate_counts(&mut rng, &truth, &all_settings(2), 6000);
        let est_small = bootstrap_functional(31, &small, 16, linear, |r| {
            fidelity_with_pure(r, &target)
        });
        let est_large = bootstrap_functional(32, &large, 16, linear, |r| {
            fidelity_with_pure(r, &target)
        });
        assert!(
            est_large.sigma < est_small.sigma,
            "large {} vs small {}",
            est_large.sigma,
            est_small.sigma
        );
    }

    #[test]
    #[should_panic(expected = "at least two bootstrap replicas")]
    fn too_few_replicas_rejected() {
        let mut rng = rng_from_seed(304);
        let truth = werner_state(0.8, 0.0);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 100);
        let _ = bootstrap_functional(304, &data, 1, linear, |_| 0.0);
    }

    #[test]
    fn table_resample_matches_direct_discrete() {
        use qfc_mathkit::rng::discrete;
        let mut rng = rng_from_seed(306);
        let truth = werner_state(0.7, 0.1);
        let mut data = simulate_counts(&mut rng, &truth, &all_settings(2), 150);
        // Append an empty setting to exercise the zero-total guard.
        data.settings.push(data.settings[0].clone());
        data.counts.push(vec![0u64; 4]);
        let tables = ResampleTables::new(&data);
        let mut rng_a = rng_from_seed(307);
        let mut rng_b = rng_from_seed(307);
        let via_tables = tables.resample(&mut rng_a, &data);
        // Reference: the direct discrete() formulation the tables replaced.
        let mut counts = Vec::new();
        for (s, setting_counts) in data.counts.iter().enumerate() {
            let total = data.setting_total(s);
            let weights: Vec<f64> = setting_counts
                .iter()
                .map(|&c| cast::to_f64(c))
                .collect();
            let mut new_counts = vec![0u64; setting_counts.len()];
            if total > 0 && weights.iter().sum::<f64>() > 0.0 {
                for _ in 0..total {
                    new_counts[discrete(&mut rng_b, &weights)] += 1;
                }
            }
            counts.push(new_counts);
        }
        assert_eq!(via_tables.counts, counts);
        assert_eq!(via_tables.counts.last().map(Vec::as_slice), Some(&[0u64; 4][..]));
    }

    #[test]
    fn bootstrap_identical_across_thread_counts() {
        let mut rng = rng_from_seed(305);
        let truth = werner_state(0.8, 0.0);
        let target = bell_phi_plus();
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 200);
        let run = || {
            bootstrap_functional(305, &data, 12, linear, |r| {
                fidelity_with_pure(r, &target)
            })
        };
        let serial = qfc_runtime::with_threads(1, run);
        let parallel = qfc_runtime::with_threads(4, run);
        assert_eq!(serial.value.to_bits(), parallel.value.to_bits());
        assert_eq!(serial.sigma.to_bits(), parallel.sigma.to_bits());
    }
}
