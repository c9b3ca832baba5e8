//! Time-bin encoding: the photonic qubits of §IV.
//!
//! The double-pulse pump writes each photon pair into a superposition of
//! "both photons early" and "both photons late":
//! `|Φ(φ_p)⟩ = (|ee⟩ + e^{iφ_p}|ll⟩)/√2`, with `|0⟩ ≡ early`,
//! `|1⟩ ≡ late`, and the pump interferometer phase `φ_p` imprinted on the
//! late–late amplitude. Interferometer phase noise dephases the state
//! without affecting the arrival-time (Z-basis) populations.

use crate::bell::bell_phi;
use crate::density::DensityMatrix;
use crate::ops::equatorial_projector;
use crate::state::PureState;

/// The ideal time-bin Bell state `(|ee⟩ + e^{iφ_p}|ll⟩)/√2`.
pub fn timebin_bell(pump_phase: f64) -> PureState {
    bell_phi(pump_phase)
}

/// A phase-noise-degraded time-bin Bell state:
/// `ρ = V·|Φ(φ_p)⟩⟨Φ(φ_p)| + (1−V)·(|ee⟩⟨ee| + |ll⟩⟨ll|)/2`.
///
/// This is the dephasing (not depolarizing) noise model appropriate for
/// interferometer phase fluctuations: arrival-time correlations remain
/// perfect while the interference visibility drops to `V`.
pub fn dephased_timebin_bell(pump_phase: f64, visibility: f64) -> DensityMatrix {
    let v = visibility.clamp(0.0, 1.0);
    let pure = DensityMatrix::from_pure(&timebin_bell(pump_phase));
    let ee = DensityMatrix::from_pure(&PureState::ket0().tensor(&PureState::ket0()));
    let ll = DensityMatrix::from_pure(&PureState::ket1().tensor(&PureState::ket1()));
    DensityMatrix::mixture(&[(v, pure), ((1.0 - v) / 2.0, ee), ((1.0 - v) / 2.0, ll)])
}

/// Post-selected coincidence probability in the middle slots of both
/// analyzers, at analyzer phases `phi_a`, `phi_b`.
///
/// Each analyzer routes a photon to its middle slot with amplitude
/// `(|e⟩ + e^{iφ}|l⟩)/2` (the ½ accounts for the 50/50 splitting), so the
/// coincidence probability is `¼·Tr(ρ·P(φ_a)⊗P(φ_b))`: for the ideal
/// state this is `(1 + cos(φ_a + φ_b − φ_p))/16`, oscillating with full
/// visibility.
pub fn middle_slot_coincidence(rho: &DensityMatrix, phi_a: f64, phi_b: f64) -> f64 {
    assert_eq!(rho.qubits(), 2, "needs a two-photon time-bin state");
    let proj = equatorial_projector(phi_a).kron(&equatorial_projector(phi_b));
    0.25 * rho.probability(&proj)
}

/// Probability that a single photon in bin superposition lands in each
/// arrival slot of its analyzer: `(¼, ½, ¼)` for any input qubit state
/// (the middle slot collects both paths).
pub fn slot_probabilities() -> [f64; 3] {
    [0.25, 0.5, 0.25]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_fringe_has_unit_visibility() {
        let rho = DensityMatrix::from_pure(&timebin_bell(0.0));
        let pmax = middle_slot_coincidence(&rho, 0.0, 0.0);
        let pmin = middle_slot_coincidence(&rho, std::f64::consts::PI, 0.0);
        let v = (pmax - pmin) / (pmax + pmin);
        assert!((v - 1.0).abs() < 1e-10, "V = {v}");
        // Peak value (1+1)/16 = 1/8.
        assert!((pmax - 0.125).abs() < 1e-12);
    }

    #[test]
    fn fringe_oscillates_with_sum_of_phases() {
        let rho = DensityMatrix::from_pure(&timebin_bell(0.7));
        for (a, b) in [(0.2, 0.3), (1.0, -0.4)] {
            let p = middle_slot_coincidence(&rho, a, b);
            let expect = (1.0 + (a + b - 0.7).cos()) / 16.0;
            assert!((p - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn dephased_state_has_reduced_visibility() {
        let v_in = 0.83;
        let rho = dephased_timebin_bell(0.0, v_in);
        let pmax = middle_slot_coincidence(&rho, 0.0, 0.0);
        let pmin = middle_slot_coincidence(&rho, std::f64::consts::PI, 0.0);
        let v = (pmax - pmin) / (pmax + pmin);
        assert!((v - v_in).abs() < 1e-9, "V = {v}");
    }

    #[test]
    fn dephasing_preserves_arrival_time_correlations() {
        let rho = dephased_timebin_bell(0.0, 0.5);
        // Populations of |ee⟩ and |ll⟩ stay ½ each; |el⟩, |le⟩ stay 0.
        let m = rho.as_matrix();
        assert!((m[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((m[(3, 3)].re - 0.5).abs() < 1e-12);
        assert!(m[(1, 1)].re < 1e-12);
        assert!(m[(2, 2)].re < 1e-12);
    }

    #[test]
    fn dephased_state_is_physical() {
        for v in [0.0, 0.4, 0.83, 1.0] {
            assert!(dephased_timebin_bell(0.3, v).is_physical(1e-9));
        }
    }

    #[test]
    fn slot_probabilities_sum_to_one() {
        let p = slot_probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        assert_eq!(p[1], 0.5);
    }
}
