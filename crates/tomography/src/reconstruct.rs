//! Density-matrix reconstruction: linear inversion and iterative
//! maximum-likelihood (RρR).
//!
//! Linear inversion is unbiased but can return unphysical (negative-
//! eigenvalue) matrices at finite counts; the paper-standard pipeline is
//! the iterative RρR maximum-likelihood algorithm, which stays in the
//! physical cone. `qfc_core::ablation::tomography_ablation` compares
//! them. The RρR iteration itself is the rank-1 engine
//! [`crate::rank1::try_mle_repr`]; this module holds its options and
//! result types and the qubit-settings entry point.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::hermitian::psd_projection;
use qfc_quantum::density::DensityMatrix;

use crate::counts::TomographyData;
use crate::factored::try_mle_settings;
use crate::settings::{pauli_string_matrix, PauliBasis};

/// Reconstructs a Hermitian unit-trace matrix by Pauli-basis linear
/// inversion: `ρ = 2⁻ⁿ Σ_s ⟨σ_s⟩ σ_s`, with each Pauli-string expectation
/// averaged over every compatible measurement setting.
///
/// The result may have (slightly) negative eigenvalues at finite counts;
/// pair with [`try_project_physical`] when a valid state is required.
///
/// # Errors
///
/// [`QfcError::InsufficientData`] for informationally incomplete data
/// (including an empty or mixed-arity setting list, which the
/// Pauli-string compatibility zip below would otherwise silently
/// truncate).
pub fn try_linear_inversion(data: &TomographyData) -> QfcResult<CMatrix> {
    data.validate()?;
    let n = data.try_qubits()?;
    let dim = 1usize << n;
    let mut rho = CMatrix::zeros(dim, dim);
    // Enumerate all 4ⁿ Pauli strings as base-4 digits:
    // 0 = I, 1 = X, 2 = Y, 3 = Z per qubit.
    let strings = 4usize.pow(cast::usize_to_u32(n));
    for code in 0..strings {
        let digits: Vec<usize> = (0..n)
            .map(|q| (code / 4usize.pow(cast::usize_to_u32(n - 1 - q))) % 4)
            .collect();
        let string: Vec<Option<PauliBasis>> = digits
            .iter()
            .map(|&d| match d {
                0 => None,
                1 => Some(PauliBasis::X),
                2 => Some(PauliBasis::Y),
                _ => Some(PauliBasis::Z),
            })
            .collect();
        // Expectation from all compatible settings.
        let mut acc = 0.0;
        let mut n_compat = 0usize;
        let mask: usize = digits
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0)
            .map(|(q, _)| 1usize << (n - 1 - q))
            .sum();
        for (s_idx, setting) in data.settings.iter().enumerate() {
            let compatible = string.iter().zip(&setting.0).all(|(want, have)| {
                want.is_none_or(|w| w == *have)
            });
            if !compatible || data.setting_total(s_idx) == 0 {
                continue;
            }
            let mut exp = 0.0;
            for o in 0..setting.outcomes() {
                exp += data.frequency(s_idx, o) * setting.outcome_sign(o, mask);
            }
            acc += exp;
            n_compat += 1;
        }
        if n_compat == 0 {
            return Err(QfcError::InsufficientData {
                context: format!(
                    "no compatible setting for Pauli string {digits:?}; \
                     tomography data is informationally incomplete"
                ),
            });
        }
        let expectation = acc / cast::to_f64(n_compat);
        let sigma = pauli_string_matrix(&string);
        rho = &rho + &sigma.scale(expectation / cast::to_f64(dim));
    }
    Ok(rho)
}

/// Projects a Hermitian matrix onto the physical state space: clips
/// negative eigenvalues and renormalizes the trace to 1.
///
/// # Errors
///
/// [`QfcError::SingularSystem`] when the projection annihilates the
/// trace; [`QfcError::NonFinite`] for an input the density-matrix
/// constructor rejects.
pub fn try_project_physical(mat: &CMatrix) -> QfcResult<DensityMatrix> {
    let p = psd_projection(mat);
    let tr = p.trace().re;
    if tr.is_nan() || tr <= 1e-12 {
        return Err(QfcError::SingularSystem {
            context: "physical projection: projection annihilated the matrix".to_owned(),
        });
    }
    DensityMatrix::from_matrix(p.scale(1.0 / tr))
        .ok_or_else(|| QfcError::non_finite("physical projection"))
}

/// Options for the iterative MLE reconstruction. The schedule and the
/// stopping rule are fixed (see
/// [`try_mle_repr`](crate::rank1::try_mle_repr)); only the budget is set
/// per call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MleOptions {
    /// Maximum RρR iterations. A reconstruction that has not certified by
    /// then returns its last iterate with the gap certified there.
    pub max_iterations: usize,
}

impl Default for MleOptions {
    fn default() -> Self {
        Self {
            max_iterations: 300,
        }
    }
}

/// Result of an MLE reconstruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MleResult {
    /// The reconstructed physical state.
    pub rho: DensityMatrix,
    /// RρR updates applied to reach `rho`.
    pub iterations: usize,
    /// Certified bound, in nats of the count likelihood, on how far the
    /// log-likelihood of `rho` lies below the maximum over all states
    /// (see [`try_mle_repr`](crate::rank1::try_mle_repr)). Infinite when
    /// no certificate exists, as for the supervisor's linear-inversion
    /// fallback.
    pub gap_nats: f64,
    /// `true` when `gap_nats` is at most
    /// [`MLE_GAP_NATS`](crate::rank1::MLE_GAP_NATS): the returned state
    /// is certified that close to the maximum.
    pub converged: bool,
    /// Iterations that took an over-relaxed (`γ > 1`) step.
    pub accelerated_steps: usize,
}

/// Iterative RρR maximum-likelihood reconstruction of qubit tomography
/// data: the schedule and stop rule of
/// [`try_mle_repr`](crate::rank1::try_mle_repr), with an `R` build that
/// contracts `ρ` one qubit at a time over the trie of the settings'
/// shared eigenstate prefixes and never forms an outcome vector (see
/// DESIGN.md §15).
///
/// # Errors
///
/// * [`QfcError::InsufficientData`] — empty or mixed-arity setting list;
/// * [`QfcError::InvalidParameter`] — malformed count table, or settings
///   that measure no qubit;
/// * [`QfcError::SingularSystem`] — zero total events, or an iteration
///   whose `RρR` update annihilated the trace;
/// * [`QfcError::NonFinite`] — an update left the finite range.
pub fn try_mle_reconstruction(data: &TomographyData, options: &MleOptions) -> QfcResult<MleResult> {
    data.validate()?;
    try_mle_settings(&data.settings, &data.counts, options)
}

/// Full pipeline from data to a physical state via linear inversion and
/// projection (the fast path).
///
/// # Errors
///
/// As [`try_linear_inversion`] and [`try_project_physical`].
pub fn try_linear_reconstruction(data: &TomographyData) -> QfcResult<DensityMatrix> {
    try_project_physical(&try_linear_inversion(data)?)
}

/// Convenience accessor for matrix elements of a reconstruction in
/// reports.
pub fn element(rho: &DensityMatrix, i: usize, j: usize) -> Complex64 {
    rho.as_matrix()[(i, j)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{exact_counts, simulate_counts};
    use crate::settings::all_settings;
    use qfc_mathkit::rng::rng_from_seed;
    use qfc_quantum::bell::{bell_phi_plus, werner_state};
    use qfc_quantum::fidelity::state_fidelity;
    use qfc_quantum::state::PureState;

    #[test]
    fn linear_inversion_exact_single_qubit() {
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = exact_counts(&rho, &all_settings(1), 10_000_000);
        let rec = try_linear_inversion(&data).expect("complete data");
        assert!(rec.approx_eq(rho.as_matrix(), 1e-4));
    }

    #[test]
    fn linear_inversion_exact_bell_state() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let data = exact_counts(&rho, &all_settings(2), 10_000_000);
        let rec = try_linear_reconstruction(&data).expect("complete data");
        let f = state_fidelity(&rec, &rho);
        assert!(f > 0.999, "F = {f}");
    }

    #[test]
    fn mle_recovers_werner_state() {
        let mut rng = rng_from_seed(31);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 4000);
        let result = try_mle_reconstruction(&data, &MleOptions::default()).expect("mle");
        let f = state_fidelity(&result.rho, &rho);
        assert!(f > 0.99, "F = {f}");
        assert!(result.rho.is_physical(1e-9));
    }

    #[test]
    fn mle_beats_or_matches_linear_at_low_counts() {
        let mut rng = rng_from_seed(32);
        let truth = werner_state(0.9, 0.3);
        let data = simulate_counts(&mut rng, &truth, &all_settings(2), 60);
        let lin = try_linear_reconstruction(&data).expect("linear");
        let mle = try_mle_reconstruction(&data, &MleOptions::default()).expect("mle").rho;
        let f_lin = state_fidelity(&lin, &truth);
        let f_mle = state_fidelity(&mle, &truth);
        // MLE should not be (much) worse; both should be decent.
        assert!(f_mle > f_lin - 0.05, "MLE {f_mle} vs linear {f_lin}");
        assert!(f_mle > 0.8);
    }

    #[test]
    fn mle_converges() {
        let mut rng = rng_from_seed(33);
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = simulate_counts(&mut rng, &rho, &all_settings(1), 5000);
        let result = try_mle_reconstruction(&data, &MleOptions::default()).expect("mle");
        assert!(result.iterations < 300, "iterations {}", result.iterations);
        assert!(result.gap_nats <= crate::rank1::MLE_GAP_NATS, "gap {}", result.gap_nats);
        assert!(result.converged);
    }

    #[test]
    fn mle_divergence_flagged() {
        let mut rng = rng_from_seed(35);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 4000);
        // One iteration from the maximally mixed state cannot certify a
        // 36 000-event likelihood to half a nat.
        let opts = MleOptions { max_iterations: 1 };
        let result = try_mle_reconstruction(&data, &opts).expect("mle");
        assert!(!result.converged);
        assert!(result.gap_nats > 100.0, "gap {}", result.gap_nats);
    }

    #[test]
    fn try_mle_rejects_all_dark_data() {
        let settings = all_settings(2);
        let data = TomographyData {
            counts: settings.iter().map(|s| vec![0u64; s.outcomes()]).collect(),
            settings,
        };
        let err = try_mle_reconstruction(&data, &MleOptions::default()).unwrap_err();
        assert!(matches!(err, QfcError::SingularSystem { .. }), "{err}");
        assert!(err.to_string().contains("zero total events"), "{err}");
    }

    #[test]
    fn try_mle_rejects_empty_and_mixed_arity_settings() {
        use crate::settings::Setting;
        let empty = TomographyData {
            settings: vec![],
            counts: vec![],
        };
        let err = try_mle_reconstruction(&empty, &MleOptions::default()).unwrap_err();
        assert!(matches!(err, QfcError::InsufficientData { .. }), "{err}");

        let mixed = TomographyData {
            settings: vec![
                Setting::from_bases(&[PauliBasis::Z]),
                Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
            ],
            counts: vec![vec![3, 1], vec![1, 1, 1, 1]],
        };
        let err = try_mle_reconstruction(&mixed, &MleOptions::default()).unwrap_err();
        assert!(err.to_string().contains("mixed-arity"), "{err}");

        let no_qubit = TomographyData {
            settings: vec![Setting::from_bases(&[])],
            counts: vec![vec![5]],
        };
        let err = try_mle_reconstruction(&no_qubit, &MleOptions::default()).unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn try_mle_zero_iterations_returns_mixed_state_unconverged() {
        let mut rng = rng_from_seed(37);
        let rho = werner_state(0.83, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 500);
        let opts = MleOptions { max_iterations: 0 };
        let result = try_mle_reconstruction(&data, &opts).expect("zero iterations is legal");
        assert_eq!(result.iterations, 0);
        assert!(!result.converged);
        // No iterations: still the maximally mixed starting point.
        let mixed = DensityMatrix::maximally_mixed(2);
        assert!(result.rho.as_matrix().approx_eq(mixed.as_matrix(), 1e-12));
    }

    #[test]
    fn try_linear_inversion_rejects_empty_and_mixed_arity() {
        use crate::settings::Setting;
        let empty = TomographyData {
            settings: vec![],
            counts: vec![],
        };
        assert!(matches!(
            try_linear_inversion(&empty).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
        let mixed = TomographyData {
            settings: vec![
                Setting::from_bases(&[PauliBasis::Z]),
                Setting::from_bases(&[PauliBasis::Z, PauliBasis::X]),
            ],
            counts: vec![vec![3, 1], vec![1, 1, 1, 1]],
        };
        assert!(matches!(
            try_linear_inversion(&mixed).unwrap_err(),
            QfcError::InsufficientData { .. }
        ));
    }

    #[test]
    fn try_linear_inversion_reports_incomplete_data() {
        use crate::settings::{PauliBasis, Setting};
        let rho = DensityMatrix::from_pure(&PureState::plus());
        let data = exact_counts(&rho, &[Setting::from_bases(&[PauliBasis::Z])], 1000);
        let err = try_linear_inversion(&data).unwrap_err();
        assert!(err.to_string().contains("informationally incomplete"));
    }

    #[test]
    fn projection_fixes_unphysical_matrix() {
        use qfc_mathkit::complex::C_ONE;
        // diag(1.2, −0.2): Hermitian, trace 1, not PSD.
        let bad = CMatrix::diag(&[C_ONE.scale(1.2), C_ONE.scale(-0.2)]);
        let fixed = try_project_physical(&bad).expect("non-zero projection");
        assert!(fixed.is_physical(1e-10));
        assert!((fixed.as_matrix().trace().re - 1.0).abs() < 1e-10);
        assert_eq!(element(&fixed, 1, 1).re, 0.0);
    }

    #[test]
    fn linear_inversion_finite_counts_near_truth() {
        let mut rng = rng_from_seed(34);
        let rho = werner_state(0.7, 0.0);
        let data = simulate_counts(&mut rng, &rho, &all_settings(2), 20_000);
        let rec = try_linear_reconstruction(&data).expect("linear");
        let f = state_fidelity(&rec, &rho);
        assert!(f > 0.995, "F = {f}");
    }
}
