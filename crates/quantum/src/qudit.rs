//! High-dimensional (qudit) entangled states — the paper's stated
//! "frequency multiplexing to enable high dimensional … operation"
//! extension.
//!
//! The comb's many symmetric channel pairs can encode a *frequency-bin*
//! qudit pair `|Ψ_d⟩ = Σ_k |k⟩|k⟩/√d` (one term per channel pair). This
//! module provides general-dimension pure/mixed states, the maximally
//! entangled qudit pair, its entanglement entropy, and the CGLMP
//! inequality that generalizes CHSH to d levels — everything needed for
//! the forward-looking high-dimensional benches.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_ZERO};
use qfc_mathkit::cvector::CVector;
use qfc_mathkit::hermitian::eigh;

/// A pure state of a `d_a × d_b` bipartite qudit system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BipartiteQudit {
    amps: CVector,
    d_a: usize,
    d_b: usize,
}

impl BipartiteQudit {
    /// The maximally entangled pair `Σ_k |kk⟩/√d` in dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` or `d > 64`.
    pub fn maximally_entangled(d: usize) -> Self {
        assert!((2..=64).contains(&d), "dimension out of supported range");
        let mut v = CVector::zeros(d * d);
        let a = 1.0 / (cast::to_f64(d)).sqrt();
        for k in 0..d {
            v[k * d + k] = Complex64::real(a);
        }
        Self {
            amps: v,
            d_a: d,
            d_b: d,
        }
    }

    /// Builds a bipartite state from a (normalized) amplitude matrix
    /// `c[j][k] = ⟨jk|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics on a zero matrix.
    pub fn from_amplitude_matrix(c: &CMatrix) -> Self {
        let mut v = CVector::zeros(c.rows() * c.cols());
        for j in 0..c.rows() {
            for k in 0..c.cols() {
                v[j * c.cols() + k] = c[(j, k)];
            }
        }
        assert!(v.norm() > 0.0, "zero amplitude matrix");
        Self {
            amps: v.normalized(),
            d_a: c.rows(),
            d_b: c.cols(),
        }
    }

    /// A frequency-bin entangled state weighted by the comb's per-channel
    /// pair amplitudes (e.g. the square roots of the SFWM rates):
    /// `Σ_k w_k |kk⟩`, normalized.
    pub fn from_channel_weights(weights: &[f64]) -> Self {
        let d = weights.len();
        assert!(d >= 2, "need at least two channels");
        let mut c = CMatrix::zeros(d, d);
        for (k, &w) in weights.iter().enumerate() {
            assert!(w >= 0.0, "negative channel weight");
            c[(k, k)] = Complex64::real(w.sqrt());
        }
        Self::from_amplitude_matrix(&c)
    }

    /// Amplitude `⟨jk|ψ⟩`.
    pub fn amplitude(&self, j: usize, k: usize) -> Complex64 {
        self.amps[j * self.d_b + k]
    }

    /// The reduced density matrix of subsystem A.
    pub fn reduced_a(&self) -> CMatrix {
        let mut rho = CMatrix::zeros(self.d_a, self.d_a);
        for i in 0..self.d_a {
            for j in 0..self.d_a {
                let mut acc = C_ZERO;
                for k in 0..self.d_b {
                    acc += self.amplitude(i, k) * self.amplitude(j, k).conj();
                }
                rho[(i, j)] = acc;
            }
        }
        rho
    }

    /// Schmidt coefficients (descending, summing to 1).
    pub fn schmidt_coefficients(&self) -> Vec<f64> {
        let mut lam = eigh(&self.reduced_a()).eigenvalues;
        lam.reverse();
        lam.into_iter().map(|x| x.max(0.0)).collect()
    }

    /// Schmidt rank (coefficients above `tol`).
    pub fn schmidt_rank(&self, tol: f64) -> usize {
        self.schmidt_coefficients()
            .iter()
            .filter(|&&l| l > tol)
            .count()
    }

    /// Entanglement entropy in **bits** (`log2 d` for the maximally
    /// entangled state).
    pub fn entanglement_entropy_bits(&self) -> f64 {
        self.schmidt_coefficients()
            .iter()
            .filter(|&&l| l > 1e-15)
            .map(|&l| -l * l.log2())
            .sum()
    }
}

/// Quantum prediction of the CGLMP `I_d` value for the maximally
/// entangled qudit pair with optimal settings and a state visibility `v`
/// (white-noise model). The local-realistic bound is `I_d ≤ 2` for all
/// `d`; the maximally entangled quantum value exceeds it and *grows*
/// with `d` (2.8284 for d = 2 = CHSH, 2.8729 for d = 3, …).
///
/// Uses the closed form of Collins–Gisin–Linden–Massar–Popescu:
/// `I_d = 4d·Σ_{k=0}^{⌊d/2⌋−1} (1 − 2k/(d−1))·(q_k − q_{−(k+1)})` with
/// `q_k = 1/(2d³ sin²(π(k + ¼)/d))`.
///
/// # Panics
///
/// Panics if `d < 2`.
pub fn cglmp_value(d: usize, visibility: f64) -> f64 {
    assert!(d >= 2, "CGLMP needs d ≥ 2");
    let df = cast::to_f64(d);
    let q = |k: f64| 1.0 / (2.0 * df.powi(3) * (std::f64::consts::PI * (k + 0.25) / df).sin().powi(2));
    let mut i_d = 0.0;
    for k in 0..(d / 2) {
        let kf = cast::to_f64(k);
        let coeff = 1.0 - 2.0 * kf / (df - 1.0);
        i_d += coeff * (q(kf) - q(-(kf + 1.0)));
    }
    i_d *= 4.0 * df;
    // White noise scales the correlations linearly.
    visibility.clamp(0.0, 1.0) * i_d
}

/// The local-realistic bound of the CGLMP inequality.
pub const CGLMP_CLASSICAL_BOUND: f64 = 2.0;

/// Critical visibility above which the maximally entangled d-level state
/// violates CGLMP — *decreases* with d, one key advantage of
/// high-dimensional entanglement.
pub fn cglmp_critical_visibility(d: usize) -> f64 {
    CGLMP_CLASSICAL_BOUND / cglmp_value(d, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximally_entangled_entropy() {
        for d in [2usize, 3, 4, 8] {
            let s = BipartiteQudit::maximally_entangled(d);
            assert!((s.entanglement_entropy_bits() - (d as f64).log2()).abs() < 1e-9);
            assert_eq!(s.schmidt_rank(1e-9), d);
        }
    }

    #[test]
    fn reduced_state_is_maximally_mixed() {
        let s = BipartiteQudit::maximally_entangled(3);
        let rho = s.reduced_a();
        assert!(rho.approx_eq(&CMatrix::identity(3).scale(1.0 / 3.0), 1e-12));
    }

    #[test]
    fn product_state_has_zero_entropy() {
        let mut c = CMatrix::zeros(3, 3);
        c[(1, 2)] = Complex64::real(1.0);
        let s = BipartiteQudit::from_amplitude_matrix(&c);
        assert!(s.entanglement_entropy_bits() < 1e-9);
        assert_eq!(s.schmidt_rank(1e-9), 1);
    }

    #[test]
    fn channel_weights_give_partial_entanglement() {
        // Unequal SFWM rates across channels: entropy below log2 d.
        let s = BipartiteQudit::from_channel_weights(&[1.0, 0.7, 0.4]);
        let e = s.entanglement_entropy_bits();
        assert!(e > 1.0 && e < (3.0f64).log2(), "E = {e}");
    }

    #[test]
    fn cglmp_d2_matches_tsirelson() {
        // d = 2 CGLMP with optimal settings equals CHSH: 2√2.
        let v = cglmp_value(2, 1.0);
        assert!((v - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-9, "I_2 = {v}");
    }

    #[test]
    fn cglmp_d3_reference_value() {
        // Known value: I_3 = 2.87293.
        let v = cglmp_value(3, 1.0);
        assert!((v - 2.87293).abs() < 1e-4, "I_3 = {v}");
    }

    #[test]
    fn cglmp_grows_with_dimension() {
        let mut last = 0.0;
        for d in 2..=8 {
            let v = cglmp_value(d, 1.0);
            assert!(v > last, "d={d}: {v}");
            last = v;
        }
    }

    #[test]
    fn critical_visibility_decreases_with_dimension() {
        let v2 = cglmp_critical_visibility(2);
        let v4 = cglmp_critical_visibility(4);
        let v8 = cglmp_critical_visibility(8);
        assert!((v2 - 1.0 / std::f64::consts::SQRT_2).abs() < 1e-9);
        assert!(v4 < v2 && v8 < v4);
    }

    #[test]
    fn noisy_state_below_threshold_no_violation() {
        for d in [2usize, 3, 5] {
            let vc = cglmp_critical_visibility(d);
            assert!(cglmp_value(d, vc * 0.99) < CGLMP_CLASSICAL_BOUND);
            assert!(cglmp_value(d, vc * 1.01) > CGLMP_CLASSICAL_BOUND);
        }
    }

    #[test]
    #[should_panic(expected = "dimension out of supported range")]
    fn dimension_one_rejected() {
        let _ = BipartiteQudit::maximally_entangled(1);
    }
}
