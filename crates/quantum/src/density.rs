//! Density matrices of qubit registers, with the noise channels that
//! model the experiment's imperfections.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::hermitian::eigenvalues_into;

use crate::ops;
use crate::state::PureState;

/// A density matrix on an `n`-qubit register.
///
/// Maintains Hermiticity and unit trace by construction; positivity is
/// checked via [`DensityMatrix::is_physical`].
///
/// # Examples
///
/// ```
/// use qfc_quantum::density::DensityMatrix;
/// use qfc_quantum::state::PureState;
///
/// let rho = DensityMatrix::from_pure(&PureState::plus());
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityMatrix {
    mat: CMatrix,
    qubits: usize,
}

impl DensityMatrix {
    /// The pure-state density matrix `|ψ⟩⟨ψ|`.
    pub fn from_pure(state: &PureState) -> Self {
        Self {
            mat: ops::projector(state),
            qubits: state.qubits(),
        }
    }

    /// The maximally mixed state `I/2ⁿ`.
    pub fn maximally_mixed(n: usize) -> Self {
        assert!(n > 0 && n <= 20, "qubit count out of supported range");
        Self {
            mat: CMatrix::identity(1 << n).scale(1.0 / cast::to_f64(1 << n)),
            qubits: n,
        }
    }

    /// Builds a density matrix from a raw Hermitian, unit-trace matrix.
    ///
    /// # Errors
    ///
    /// Returns `None` when the matrix is not square power-of-two
    /// dimensional, not Hermitian, or trace differs from 1 beyond `1e-6`.
    pub fn from_matrix(mat: CMatrix) -> Option<Self> {
        if !mat.is_square() {
            return None;
        }
        let dim = mat.rows();
        if dim < 2 || !dim.is_power_of_two() {
            return None;
        }
        if !mat.is_hermitian(1e-8 * mat.max_abs().max(1.0)) {
            return None;
        }
        if (mat.trace().re - 1.0).abs() > 1e-6 || mat.trace().im.abs() > 1e-6 {
            return None;
        }
        Some(Self {
            mat,
            qubits: cast::u32_to_usize(dim.trailing_zeros()),
        })
    }

    /// Convex mixture `Σ wᵢ ρᵢ` (weights renormalized).
    ///
    /// # Panics
    ///
    /// Panics on an empty list, mismatched dimensions, or non-positive
    /// total weight.
    pub fn mixture(parts: &[(f64, DensityMatrix)]) -> Self {
        assert!(!parts.is_empty(), "mixture of nothing");
        let qubits = parts[0].1.qubits;
        let dim = 1usize << qubits;
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "mixture needs positive total weight");
        let mut acc = CMatrix::zeros(dim, dim);
        for (w, rho) in parts {
            assert_eq!(rho.qubits, qubits, "mixture dimension mismatch");
            assert!(*w >= 0.0, "negative mixture weight");
            acc = &acc + &rho.mat.scale(w / total);
        }
        Self { mat: acc, qubits }
    }

    /// Number of qubits.
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.mat.rows()
    }

    /// The underlying matrix.
    pub fn as_matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// Purity `Tr ρ²` (1 for pure states, `1/2ⁿ` for maximally mixed).
    pub fn purity(&self) -> f64 {
        self.mat.trace_of_product(&self.mat).re
    }

    /// Expectation value `Tr(ρA)` of a Hermitian observable.
    ///
    /// Computed by [`CMatrix::trace_of_product`]: only the diagonal of
    /// the product is accumulated, with no intermediate matrix — the
    /// value is bit-identical to `(ρ·A).trace().re`.
    pub fn expectation(&self, op: &CMatrix) -> f64 {
        self.mat.trace_of_product(op).re
    }

    /// Probability of the outcome described by projector `p`:
    /// `Tr(ρ·p)`, clamped to `[0, 1]` against round-off.
    pub fn probability(&self, p: &CMatrix) -> f64 {
        self.expectation(p).clamp(0.0, 1.0)
    }

    /// Tensor product with another register.
    pub fn tensor(&self, other: &Self) -> Self {
        Self {
            mat: self.mat.kron(&other.mat),
            qubits: self.qubits + other.qubits,
        }
    }

    /// Eigenvalues of the density matrix (ascending).
    pub fn eigenvalues(&self) -> Vec<f64> {
        let mut work = CMatrix::zeros(self.dim(), self.dim());
        let mut out = Vec::new();
        self.eigenvalues_into(&mut work, &mut out);
        out
    }

    /// Scratch-buffer variant of [`Self::eigenvalues`]: diagonalizes in
    /// `work` and writes the ascending eigenvalues into `out`, both
    /// reused across calls. Values are bit-identical to
    /// [`Self::eigenvalues`].
    pub fn eigenvalues_into(&self, work: &mut CMatrix, out: &mut Vec<f64>) {
        eigenvalues_into(&self.mat, work, out);
    }

    /// `true` when all eigenvalues are ≥ `−tol` (positive semidefinite up
    /// to numerical noise) and the trace is 1.
    pub fn is_physical(&self, tol: f64) -> bool {
        (self.mat.trace().re - 1.0).abs() <= tol
            && self.eigenvalues().iter().all(|&l| l >= -tol)
    }

    /// Global depolarizing channel:
    /// `ρ → (1 − p)·ρ + p·I/2ⁿ` — the effective white noise added by
    /// accidental coincidences and multi-pair events.
    pub fn depolarize(&self, p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        let mixed = Self::maximally_mixed(self.qubits);
        Self::mixture(&[(1.0 - p, self.clone()), (p, mixed)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::bell_phi_plus;

    #[test]
    fn pure_state_properties() {
        let rho = DensityMatrix::from_pure(&PureState::plus());
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!(rho.is_physical(1e-10));
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_matrix_validation() {
        assert!(DensityMatrix::from_matrix(CMatrix::identity(2).scale(0.5)).is_some());
        // Wrong trace.
        assert!(DensityMatrix::from_matrix(CMatrix::identity(2)).is_none());
        // Not Hermitian.
        let m = CMatrix::from_real_rows(&[&[0.5, 0.5], &[0.0, 0.5]]);
        assert!(DensityMatrix::from_matrix(m).is_none());
        // Not a power of two: 3×3.
        let m3 = CMatrix::identity(3).scale(1.0 / 3.0);
        assert!(DensityMatrix::from_matrix(m3).is_none());
    }

    #[test]
    fn mixture_interpolates_purity() {
        let pure = DensityMatrix::from_pure(&PureState::ket0());
        let mixed = DensityMatrix::maximally_mixed(1);
        let half = DensityMatrix::mixture(&[(0.5, pure), (0.5, mixed)]);
        assert!(half.purity() < 1.0 && half.purity() > 0.5);
        assert!((half.as_matrix().trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_channel_mixes() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let noisy = rho.depolarize(0.2);
        assert!(noisy.is_physical(1e-10));
        assert!(noisy.purity() < 1.0);
        // p = 1 gives maximally mixed.
        let white = rho.depolarize(1.0);
        assert!(white
            .as_matrix()
            .approx_eq(DensityMatrix::maximally_mixed(2).as_matrix(), 1e-12));
    }

    #[test]
    fn probability_clamped() {
        let rho = DensityMatrix::from_pure(&PureState::ket0());
        let p = ops::projector(&PureState::ket0());
        assert!((rho.probability(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus()).depolarize(0.3);
        // Deliberately mis-shaped scratch: the call must resize.
        let mut work = CMatrix::zeros(1, 1);
        let mut vals = vec![99.0];
        rho.eigenvalues_into(&mut work, &mut vals);
        let direct = rho.eigenvalues();
        assert_eq!(vals.len(), direct.len());
        for (a, b) in vals.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
