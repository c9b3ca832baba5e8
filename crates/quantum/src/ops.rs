//! Qubit operators: Pauli algebra, the phase gate, SWAP, and projectors.

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_I, C_ONE, C_ZERO};
use qfc_mathkit::cvector::CVector;

use crate::state::PureState;

/// Pauli X.
pub fn pauli_x() -> CMatrix {
    CMatrix::from_vec(2, 2, vec![C_ZERO, C_ONE, C_ONE, C_ZERO])
}

/// Pauli Y.
pub fn pauli_y() -> CMatrix {
    CMatrix::from_vec(2, 2, vec![C_ZERO, -C_I, C_I, C_ZERO])
}

/// Pauli Z.
pub fn pauli_z() -> CMatrix {
    CMatrix::from_vec(2, 2, vec![C_ONE, C_ZERO, C_ZERO, -C_ONE])
}

/// Phase gate `diag(1, e^{iφ})`.
pub fn phase(phi: f64) -> CMatrix {
    CMatrix::diag(&[C_ONE, Complex64::cis(phi)])
}

/// Rank-1 projector `|ψ⟩⟨ψ|` onto a pure state.
pub fn projector(state: &PureState) -> CMatrix {
    CMatrix::outer(state.as_vector(), state.as_vector())
}

/// Projector onto the equatorial qubit state
/// `(|0⟩ + e^{iφ}|1⟩)/√2` — the state selected by a time-bin analyzer
/// interferometer set to phase `φ`.
pub fn equatorial_projector(phi: f64) -> CMatrix {
    let v = CVector::from_vec(vec![
        Complex64::real(std::f64::consts::FRAC_1_SQRT_2),
        Complex64::cis(phi).scale(std::f64::consts::FRAC_1_SQRT_2),
    ]);
    CMatrix::outer(&v, &v)
}

/// Measurement observable along an equatorial axis at angle `φ`:
/// `cos φ·X + sin φ·Y` (eigenvalues ±1).
pub fn equatorial_observable(phi: f64) -> CMatrix {
    let x = pauli_x().scale(phi.cos());
    let y = pauli_y().scale(phi.sin());
    &x + &y
}

/// SWAP gate.
pub fn swap() -> CMatrix {
    CMatrix::from_real_rows(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // X² = Y² = Z² = I
        for p in [&x, &y, &z] {
            assert!((p * p).approx_eq(&CMatrix::identity(2), 1e-14));
        }
        // XY = iZ
        assert!((&x * &y).approx_eq(&z.scale_c(C_I), 1e-14));
        // Anticommutation {X, Z} = 0
        let anti = &(&x * &z) + &(&z * &x);
        assert!(anti.approx_eq(&CMatrix::zeros(2, 2), 1e-14));
    }

    #[test]
    fn equatorial_projector_properties() {
        for phi in [0.0, 0.7, std::f64::consts::FRAC_PI_2] {
            let p = equatorial_projector(phi);
            assert!((&p * &p).approx_eq(&p, 1e-13), "idempotent");
            assert!(p.is_hermitian(1e-14));
            assert!((p.trace().re - 1.0).abs() < 1e-13, "rank one");
        }
        // φ = 0 projects onto |+⟩.
        let plus = PureState::plus();
        let p0 = equatorial_projector(0.0);
        assert!((plus.expectation(&p0) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn equatorial_observable_interpolates_x_y() {
        assert!(equatorial_observable(0.0).approx_eq(&pauli_x(), 1e-14));
        assert!(
            equatorial_observable(std::f64::consts::FRAC_PI_2).approx_eq(&pauli_y(), 1e-14)
        );
        // Relation: O(φ) = P(φ) − P(φ+π) in the equatorial plane.
        let phi = 0.93;
        let diff = &equatorial_projector(phi) - &equatorial_projector(phi + std::f64::consts::PI);
        assert!(diff.approx_eq(&equatorial_observable(phi), 1e-12));
    }

    #[test]
    fn swap_is_unitary_and_an_involution() {
        let g = swap();
        assert!(g.is_unitary(1e-13));
        assert!((&g * &g).approx_eq(&CMatrix::identity(4), 1e-13));
    }

    #[test]
    fn swap_exchanges_qubits() {
        let s = PureState::ket1().tensor(&PureState::ket0()).apply(&swap());
        // |10⟩ → |01⟩.
        assert_eq!(s.probability(1), 1.0);
    }

    #[test]
    fn projector_of_basis_state() {
        let p = projector(&PureState::ket1());
        assert_eq!(p[(1, 1)].re, 1.0);
        assert_eq!(p[(0, 0)].re, 0.0);
    }
}
