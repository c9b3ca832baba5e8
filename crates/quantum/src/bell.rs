//! Bell states and two-qubit entanglement measures.

use qfc_mathkit::cvector::CVector;
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::hermitian::{eigh, sqrtm_psd};

use crate::density::DensityMatrix;
use crate::state::PureState;

/// `|Φ⁺⟩ = (|00⟩ + |11⟩)/√2` — the ideal time-bin Bell state of §IV with
/// `|0⟩ = early`, `|1⟩ = late`.
pub fn bell_phi_plus() -> PureState {
    bell_phi(0.0)
}

/// `|Ψ⁻⟩ = (|01⟩ − |10⟩)/√2`.
pub fn bell_psi_minus() -> PureState {
    PureState::from_amplitudes(CVector::from_real(&[0.0, 1.0, -1.0, 0.0]))
        .unwrap_or_else(|| unreachable!("Bell amplitudes are valid")) // qfc-lint: allow(panic-reachability) — invariant: fixed Bell amplitude vectors are nonzero by construction
}

/// Phase-parametrized Bell state `(|00⟩ + e^{iφ}|11⟩)/√2` — what the
/// double-pulse pump writes: the relative pump phase appears on the
/// late-late amplitude.
pub fn bell_phi(phi: f64) -> PureState {
    let mut v = CVector::zeros(4);
    v[0] = Complex64::real(std::f64::consts::FRAC_1_SQRT_2);
    v[3] = Complex64::cis(phi).scale(std::f64::consts::FRAC_1_SQRT_2);
    PureState::from_amplitudes(v).unwrap_or_else(|| unreachable!("Bell amplitudes are valid")) // qfc-lint: allow(panic-reachability) — invariant: fixed Bell amplitude vectors are nonzero by construction
}

/// Wootters concurrence of a two-qubit density matrix — `1` for Bell
/// states, `0` for separable states.
///
/// # Panics
///
/// Panics unless `rho` is a two-qubit state.
pub fn concurrence(rho: &DensityMatrix) -> f64 {
    assert_eq!(rho.qubits(), 2, "concurrence is defined for two qubits");
    let m = rho.as_matrix();
    // Spin-flip: ρ̃ = (Y⊗Y)·ρ*·(Y⊗Y).
    let yy = crate::ops::pauli_y().kron(&crate::ops::pauli_y());
    let rho_tilde = &(&yy * &m.conj()) * &yy;
    let prod = m * &rho_tilde;
    // Eigenvalues of ρ·ρ̃ are real non-negative; extract via the Hermitian
    // similarity √ρ·ρ̃·√ρ which shares its spectrum with ρ·ρ̃.
    let sq = sqrtm_psd(m);
    let herm = &(&sq * &rho_tilde) * &sq;
    let mut lambdas: Vec<f64> = eigh(&herm)
        .eigenvalues
        .iter()
        .map(|&l| l.max(0.0).sqrt())
        .collect();
    lambdas.sort_by(|a, b| b.total_cmp(a));
    let _ = prod; // spectrum equivalence documented above
    (lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]).max(0.0)
}

/// The Werner state `V·|Φ⁺(φ)⟩⟨Φ⁺(φ)| + (1−V)·I/4` — the standard noise
/// model connecting interference visibility `V` to the measured
/// two-photon state.
pub fn werner_state(visibility: f64, phi: f64) -> DensityMatrix {
    let v = visibility.clamp(0.0, 1.0);
    DensityMatrix::from_pure(&bell_phi(phi)).depolarize(1.0 - v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::state_fidelity;

    #[test]
    fn bell_states_are_orthonormal() {
        let states = [
            bell_phi_plus(),
            bell_phi(std::f64::consts::PI),
            PureState::from_amplitudes(CVector::from_real(&[0.0, 1.0, 1.0, 0.0])).expect("Ψ⁺"),
            bell_psi_minus(),
        ];
        for (i, a) in states.iter().enumerate() {
            for (j, b) in states.iter().enumerate() {
                let ov = a.overlap(b);
                if i == j {
                    assert!((ov - 1.0).abs() < 1e-12);
                } else {
                    assert!(ov < 1e-12);
                }
            }
        }
    }

    #[test]
    fn bell_phi_phase_interpolates() {
        assert!(bell_phi(0.0).approx_eq_up_to_phase(&bell_phi_plus(), 1e-12));
    }

    #[test]
    fn concurrence_of_bell_state_is_one() {
        for s in [bell_phi_plus(), bell_psi_minus(), bell_phi(1.3)] {
            let c = concurrence(&DensityMatrix::from_pure(&s));
            assert!((c - 1.0).abs() < 1e-6, "C = {c}");
        }
    }

    #[test]
    fn concurrence_of_product_state_is_zero() {
        let prod = PureState::plus().tensor(&PureState::ket0());
        let c = concurrence(&DensityMatrix::from_pure(&prod));
        assert!(c < 1e-6, "C = {c}");
    }

    #[test]
    fn concurrence_of_maximally_mixed_is_zero() {
        let c = concurrence(&DensityMatrix::maximally_mixed(2));
        assert!(c < 1e-9);
    }

    #[test]
    fn werner_state_concurrence_threshold() {
        // Werner states are entangled iff V > 1/3.
        assert!(concurrence(&werner_state(0.2, 0.0)) < 1e-6);
        assert!(concurrence(&werner_state(0.5, 0.0)) > 0.1);
        assert!((concurrence(&werner_state(1.0, 0.0)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn werner_fidelity_matches_analytic() {
        for v in [0.0, 0.5, 0.83, 1.0] {
            let rho = werner_state(v, 0.0);
            let f = state_fidelity(&rho, &DensityMatrix::from_pure(&bell_phi_plus()));
            let analytic = (3.0 * v + 1.0) / 4.0;
            assert!((f - analytic).abs() < 1e-6, "V={v}: {f} vs {analytic}");
        }
    }
}
