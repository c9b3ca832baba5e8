//! Qubit operators: Pauli algebra, rotations, projectors, and embeddings
//! into multi-qubit registers.

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_I, C_ONE, C_ZERO};
use qfc_mathkit::cvector::CVector;

use crate::state::PureState;

/// 2×2 identity.
pub fn id2() -> CMatrix {
    CMatrix::identity(2)
}

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

/// Hadamard gate.
pub fn hadamard() -> CMatrix {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    CMatrix::from_real_rows(&[&[s, s], &[s, -s]])
}

/// Phase gate `diag(1, e^{iφ})`.
pub fn phase(phi: f64) -> CMatrix {
    CMatrix::diag(&[C_ONE, Complex64::cis(phi)])
}

/// Rotation about X: `exp(−iθX/2)`.
pub fn rx(theta: f64) -> CMatrix {
    let c = Complex64::real((theta / 2.0).cos());
    let s = Complex64::new(0.0, -(theta / 2.0).sin());
    CMatrix::from_vec(2, 2, vec![c, s, s, c])
}

/// Rotation about Y: `exp(−iθY/2)`.
pub fn ry(theta: f64) -> CMatrix {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    CMatrix::from_real_rows(&[&[c, -s], &[s, c]])
}

/// Rotation about Z: `exp(−iθZ/2)`.
pub fn rz(theta: f64) -> CMatrix {
    CMatrix::diag(&[
        Complex64::cis(-theta / 2.0),
        Complex64::cis(theta / 2.0),
    ])
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

/// CNOT gate (control = first qubit, target = second).
pub fn cnot() -> CMatrix {
    CMatrix::from_real_rows(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
        &[0.0, 0.0, 1.0, 0.0],
    ])
}

/// Controlled-Z gate.
pub fn cz() -> CMatrix {
    CMatrix::diag(&[C_ONE, C_ONE, C_ONE, -C_ONE])
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

/// The Bell-basis transform `CNOT·(H ⊗ I)`: maps the computational
/// basis onto the four Bell states (|00⟩ → |Φ⁺⟩, |01⟩ → |Ψ⁺⟩,
/// |10⟩ → |Φ⁻⟩, |11⟩ → |Ψ⁻⟩).
pub fn bell_basis_transform() -> CMatrix {
    &cnot() * &hadamard().kron(&id2())
}

/// Kronecker product of a list of operators, left to right.
///
/// # Panics
///
/// Panics on an empty list.
pub fn kron_all(ops: &[CMatrix]) -> CMatrix {
    assert!(!ops.is_empty(), "kron_all needs at least one operator");
    let mut acc = ops[0].clone();
    for op in &ops[1..] {
        acc = acc.kron(op);
    }
    acc
}

/// Embeds a single-qubit operator on qubit `k` of an `n`-qubit register
/// (identity elsewhere). Qubit 0 is the most significant bit.
///
/// # Panics
///
/// Panics if `k >= n` or `op` is not 2×2.
pub fn embed(op: &CMatrix, k: usize, n: usize) -> CMatrix {
    assert!(k < n, "qubit index out of range");
    assert_eq!((op.rows(), op.cols()), (2, 2), "embed expects a 2x2 operator");
    // Fold the Kronecker chain directly (same left-to-right association
    // as `kron_all`) instead of materializing a list of n clones.
    let id = id2();
    let mut acc = if k == 0 { op.clone() } else { id.clone() };
    for i in 1..n {
        acc = acc.kron(if i == k { op } else { &id });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // X² = Y² = Z² = I
        for p in [&x, &y, &z] {
            assert!((p * p).approx_eq(&id2(), 1e-14));
        }
        // XY = iZ
        assert!((&x * &y).approx_eq(&z.scale_c(C_I), 1e-14));
        // Anticommutation {X, Z} = 0
        let anti = &(&x * &z) + &(&z * &x);
        assert!(anti.approx_eq(&CMatrix::zeros(2, 2), 1e-14));
    }

    #[test]
    fn hadamard_maps_z_to_x() {
        let h = hadamard();
        let conj = &(&h * &pauli_z()) * &h;
        assert!(conj.approx_eq(&pauli_x(), 1e-14));
    }

    #[test]
    fn rotations_are_unitary_and_periodic() {
        for theta in [0.3, 1.2, 2.9] {
            for r in [rx(theta), ry(theta), rz(theta)] {
                assert!(r.is_unitary(1e-12));
            }
        }
        // Full rotation = −I.
        let full = rx(2.0 * std::f64::consts::PI);
        assert!(full.approx_eq(&id2().scale(-1.0), 1e-12));
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
    fn embed_acts_on_correct_qubit() {
        // X on qubit 1 of a 2-qubit register: |00⟩ → |01⟩ (index 0 → 1).
        let op = embed(&pauli_x(), 1, 2);
        let s = PureState::zero(2).apply(&op);
        assert_eq!(s.probability(1), 1.0);
        // X on qubit 0: |00⟩ → |10⟩ (index 2).
        let op0 = embed(&pauli_x(), 0, 2);
        let s0 = PureState::zero(2).apply(&op0);
        assert_eq!(s0.probability(2), 1.0);
    }

    #[test]
    fn kron_all_dimension() {
        let m = kron_all(&[id2(), pauli_x(), pauli_z()]);
        assert_eq!(m.rows(), 8);
        assert!(m.is_unitary(1e-13));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn kron_all_rejects_empty() {
        let _ = kron_all(&[]);
    }

    #[test]
    fn two_qubit_gates_are_unitary() {
        for g in [cnot(), cz(), swap(), bell_basis_transform()] {
            assert!(g.is_unitary(1e-13));
        }
        // CNOT² = CZ² = SWAP² = I.
        for g in [cnot(), cz(), swap()] {
            assert!((&g * &g).approx_eq(&CMatrix::identity(4), 1e-13));
        }
    }

    #[test]
    fn cnot_flips_target_on_control() {
        // |10⟩ → |11⟩.
        let s = PureState::ket1().tensor(&PureState::ket0()).apply(&cnot());
        assert_eq!(s.probability(3), 1.0);
        // |00⟩ unchanged.
        let s0 = PureState::zero(2).apply(&cnot());
        assert_eq!(s0.probability(0), 1.0);
    }

    #[test]
    fn bell_basis_transform_creates_bell_states() {
        use crate::bell::{bell_phi_plus, bell_psi_plus};
        let u = bell_basis_transform();
        let phi = PureState::zero(2).apply(&u);
        assert!(phi.approx_eq_up_to_phase(&bell_phi_plus(), 1e-12));
        let psi = PureState::ket0().tensor(&PureState::ket1()).apply(&u);
        assert!(psi.approx_eq_up_to_phase(&bell_psi_plus(), 1e-12));
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
