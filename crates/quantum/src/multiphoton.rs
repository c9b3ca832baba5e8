//! Multi-photon entangled states: combining two time-bin Bell pairs into
//! the four-photon state of §V.
//!
//! Because all pairs are generated by the *same* double-pulse excitation
//! and all photons share the resonance-set bandwidth, the temporal modes
//! of the two Bell pairs are indistinguishable and the joint state is the
//! product `|Φ(φ_p)⟩₁₂ ⊗ |Φ(φ_p)⟩₃₄` — a four-photon entangled state
//! verified through four-fold quantum interference and tomography.

use crate::bell::bell_phi;
use crate::density::DensityMatrix;
use crate::ops::equatorial_projector;
use crate::state::PureState;
use crate::timebin::dephased_timebin_bell;

/// The ideal four-photon state: two Bell pairs sharing the pump phase.
pub fn four_photon_product(pump_phase: f64) -> PureState {
    let pair = bell_phi(pump_phase);
    pair.tensor(&pair)
}

/// Noisy four-photon state: each pair dephased to pairwise visibility
/// `v_pair`, plus global white noise `p_white` from higher-order pair
/// emission and accidental four-folds.
pub fn noisy_four_photon(pump_phase: f64, v_pair: f64, p_white: f64) -> DensityMatrix {
    let pair = dephased_timebin_bell(pump_phase, v_pair);
    pair.tensor(&pair).depolarize(p_white)
}

/// Post-selected four-fold coincidence probability with all four photons
/// analyzed in the middle slot at phases `phis`.
///
/// Each analyzer contributes the `¼·P(φ)` middle-slot POVM element of
/// [`crate::timebin::middle_slot_coincidence`]; the four-fold probability
/// is `(1/4)⁴·Tr(ρ·⊗ᵢP(φᵢ))`.
pub fn four_fold_probability(rho: &DensityMatrix, phis: [f64; 4]) -> f64 {
    assert_eq!(rho.qubits(), 4, "needs a four-photon state");
    let mut proj = equatorial_projector(phis[0]);
    for &phi in &phis[1..] {
        proj = proj.kron(&equatorial_projector(phi));
    }
    (0.25f64).powi(4) * rho.probability(&proj)
}

/// Four-photon fringe: four-fold probability with **all** analyzers at
/// the common phase `phi` — the quantity scanned in the §V experiment.
/// For the ideal state it oscillates as `[(1 + cos(2φ + φ_p))/2]²·(1/4)⁴`.
pub fn four_photon_fringe_point(rho: &DensityMatrix, phi: f64) -> f64 {
    four_fold_probability(rho, [phi; 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::fidelity_with_pure;

    #[test]
    fn ideal_four_photon_is_normalized_product() {
        let s = four_photon_product(0.0);
        assert_eq!(s.qubits(), 4);
        // Amplitudes only on |0000⟩, |0011⟩, |1100⟩, |1111⟩ (ee/ll per pair).
        for idx in 0..16 {
            let p = s.probability(idx);
            if [0b0000, 0b0011, 0b1100, 0b1111].contains(&idx) {
                assert!((p - 0.25).abs() < 1e-12, "idx {idx}: {p}");
            } else {
                assert!(p < 1e-14, "idx {idx}: {p}");
            }
        }
    }

    #[test]
    fn fringe_oscillates_at_second_harmonic() {
        // p(φ) for the ideal state ∝ [(1 + cos 2φ)/2]²: period π, not 2π.
        let rho = DensityMatrix::from_pure(&four_photon_product(0.0));
        let p0 = four_photon_fringe_point(&rho, 0.0);
        let p_pi = four_photon_fringe_point(&rho, std::f64::consts::PI);
        let p_half = four_photon_fringe_point(&rho, std::f64::consts::FRAC_PI_2);
        assert!((p0 - p_pi).abs() < 1e-12, "period π");
        assert!(p_half < 1e-12, "zero at φ = π/2");
    }

    #[test]
    fn four_fold_peak_value() {
        // Peak: (1/4)⁴ per-photon factors × [(1+1)/2]² = 1/256 × ... :
        // p(0) = (1/256)·Tr(ρ ⊗P(0)) and Tr = 1 for the ideal state at
        // constructive phase... verify against direct expectation.
        let rho = DensityMatrix::from_pure(&four_photon_product(0.0));
        let p0 = four_photon_fringe_point(&rho, 0.0);
        assert!(p0 > 0.0 && p0 <= (0.25f64).powi(3), "p0 = {p0}");
    }

    #[test]
    fn noisy_state_fidelity_decreases() {
        let target = four_photon_product(0.0);
        let f_clean = fidelity_with_pure(
            &DensityMatrix::from_pure(&four_photon_product(0.0)),
            &target,
        );
        let f_noisy = fidelity_with_pure(&noisy_four_photon(0.0, 0.83, 0.2), &target);
        assert!((f_clean - 1.0).abs() < 1e-12);
        assert!(f_noisy < 0.9 && f_noisy > 0.4, "F = {f_noisy}");
    }

    #[test]
    fn noisy_four_photon_is_physical() {
        assert!(noisy_four_photon(0.5, 0.83, 0.15).is_physical(1e-9));
    }
}
