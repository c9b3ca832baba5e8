//! Tomographic measurement settings.
//!
//! Qubit tomography measures each photon in the Pauli X, Y, Z bases; for
//! time-bin qubits Z is the arrival time (no analyzer) and X/Y are the
//! analyzer's middle slot at phases 0 and π/2. A complete setting set for
//! `n` photons is the 3ⁿ basis combinations, each with 2ⁿ outcomes.

use serde::{Deserialize, Serialize};

use qfc_mathkit::cast;
use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_ONE};
use qfc_mathkit::cvector::CVector;

/// A single-qubit measurement basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PauliBasis {
    /// σ_x — analyzer phase 0.
    X,
    /// σ_y — analyzer phase π/2.
    Y,
    /// σ_z — arrival time (early/late).
    Z,
}

impl PauliBasis {
    /// All three bases.
    pub const ALL: [PauliBasis; 3] = [PauliBasis::X, PauliBasis::Y, PauliBasis::Z];

    /// The two amplitudes of this basis's eigenstate for `outcome` (`0` →
    /// +1 eigenvalue, `1` → −1 eigenvalue).
    fn amplitudes(self, outcome: u8) -> [Complex64; 2] {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        match (self, outcome) {
            (PauliBasis::Z, 0) => [Complex64::real(1.0), Complex64::real(0.0)],
            (PauliBasis::Z, _) => [Complex64::real(0.0), Complex64::real(1.0)],
            (PauliBasis::X, 0) => [Complex64::real(s), Complex64::real(s)],
            (PauliBasis::X, _) => [Complex64::real(s), Complex64::real(-s)],
            (PauliBasis::Y, 0) => [Complex64::real(s), Complex64::new(0.0, s)],
            (PauliBasis::Y, _) => [Complex64::real(s), Complex64::new(0.0, -s)],
        }
    }

    /// Eigenstate of this basis for `outcome`, as a 2-vector.
    #[cfg(test)]
    fn eigenstate(self, outcome: u8) -> CVector {
        CVector::from_vec(self.amplitudes(outcome).to_vec())
    }

    /// Rank-1 projector onto the eigenstate for `outcome`: the dense
    /// reference the rank-1 paths are tested against.
    #[cfg(test)]
    pub(crate) fn projector(self, outcome: u8) -> CMatrix {
        let v = self.eigenstate(outcome);
        CMatrix::outer(&v, &v)
    }

    /// The 2×2 Pauli matrix of this basis.
    pub fn matrix(self) -> CMatrix {
        match self {
            PauliBasis::X => qfc_quantum::ops::pauli_x(),
            PauliBasis::Y => qfc_quantum::ops::pauli_y(),
            PauliBasis::Z => qfc_quantum::ops::pauli_z(),
        }
    }
}

/// A measurement setting: one basis per qubit.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Setting(pub Vec<PauliBasis>);

impl Setting {
    /// Builds a setting from a basis slice (or fixed array) without
    /// requiring the caller to allocate a `Vec` literal at every call
    /// site: `Setting::from_bases(&[PauliBasis::Z])`.
    pub fn from_bases(bases: &[PauliBasis]) -> Self {
        Self(bases.to_vec())
    }

    /// Number of qubits measured.
    pub fn qubits(&self) -> usize {
        self.0.len()
    }

    /// Number of outcomes `2ⁿ`.
    pub fn outcomes(&self) -> usize {
        1 << self.0.len()
    }

    /// Outcome eigenvector `|ψ_o⟩ = ⊗_q |b_q, bit_q(o)⟩`, where bit `q`
    /// of `o`, counted from the most significant qubit, selects qubit
    /// `q`'s eigenstate. Its outer product `|ψ_o⟩⟨ψ_o|` is the outcome's
    /// projector, which the tomography paths never materialize: they
    /// take `⟨ψ_o|ρ|ψ_o⟩` and rank-1 updates of `d`-vectors instead of
    /// `d × d` matrices. Built in one allocation, as the left-to-right
    /// Kronecker chain `((1 ⊗ e₀) ⊗ e₁) ⊗ …` with the same products.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn outcome_vector(&self, o: usize) -> CVector {
        let n = self.0.len();
        assert!(o < self.outcomes(), "outcome index out of range");
        let mut data = Vec::with_capacity(self.outcomes());
        data.push(C_ONE);
        for (q, basis) in self.0.iter().enumerate() {
            let e = basis.amplitudes(u8::from((o >> (n - 1 - q)) & 1 == 1));
            // Entry k of the chain so far becomes entries 2k and 2k + 1;
            // walking down, every entry is read before it is overwritten.
            let len = data.len();
            data.resize(2 * len, C_ONE);
            for k in (0..len).rev() {
                let a = data[k];
                data[2 * k] = a * e[0];
                data[2 * k + 1] = a * e[1];
            }
        }
        CVector::from_vec(data)
    }

    /// Projector of outcome `o`, materialized as the Kronecker product
    /// of the single-qubit projectors: the dense reference the rank-1
    /// paths are tested against.
    #[cfg(test)]
    pub(crate) fn outcome_projector(&self, o: usize) -> CMatrix {
        let n = self.0.len();
        assert!(o < self.outcomes(), "outcome index out of range");
        self.0.iter().enumerate().fold(CMatrix::identity(1), |acc, (q, basis)| {
            acc.kron(&basis.projector(u8::from((o >> (n - 1 - q)) & 1 == 1)))
        })
    }

    /// Eigenvalue product `Πq (±1)` of outcome `o` over the qubits in
    /// `mask` (bit set = qubit participates).
    pub fn outcome_sign(&self, o: usize, mask: usize) -> f64 {
        let n = self.0.len();
        let mut sign = 1.0;
        for q in 0..n {
            if (mask >> (n - 1 - q)) & 1 == 1 && (o >> (n - 1 - q)) & 1 == 1 {
                sign = -sign;
            }
        }
        sign
    }
}

/// All `3ⁿ` tomography settings for `n` qubits, in lexicographic X<Y<Z
/// order.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 8`.
pub fn all_settings(n: usize) -> Vec<Setting> {
    assert!(n > 0 && n <= 8, "settings for 1..=8 qubits");
    let mut out = Vec::with_capacity(3usize.pow(cast::usize_to_u32(n)));
    let mut idx = vec![0usize; n];
    loop {
        out.push(Setting(idx.iter().map(|&i| PauliBasis::ALL[i]).collect()));
        // Increment base-3 counter.
        let mut q = n;
        loop {
            if q == 0 {
                return out;
            }
            q -= 1;
            idx[q] += 1;
            if idx[q] < 3 {
                break;
            }
            idx[q] = 0;
        }
    }
}

/// The Pauli string `σ_{s₁} ⊗ … ⊗ σ_{sₙ}` as a matrix, where `None`
/// denotes identity on that qubit.
pub fn pauli_string_matrix(string: &[Option<PauliBasis>]) -> CMatrix {
    let mut acc: Option<CMatrix> = None;
    for s in string {
        let m = match s {
            None => CMatrix::identity(2),
            Some(b) => b.matrix(),
        };
        acc = Some(match acc {
            None => m,
            Some(a) => a.kron(&m),
        });
    }
    acc.unwrap_or_else(|| CMatrix::identity(1).scale_c(C_ONE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigenstates_are_eigenvectors() {
        for basis in PauliBasis::ALL {
            let m = basis.matrix();
            for (outcome, val) in [(0u8, 1.0), (1u8, -1.0)] {
                let v = basis.eigenstate(outcome);
                let mv = m.matvec(&v);
                let expect = v.scale(val);
                assert!(mv.approx_eq(&expect, 1e-12), "{basis:?} outcome {outcome}");
            }
        }
    }

    #[test]
    fn projectors_complete() {
        for basis in PauliBasis::ALL {
            let sum = &basis.projector(0) + &basis.projector(1);
            assert!(sum.approx_eq(&CMatrix::identity(2), 1e-13));
        }
    }

    #[test]
    fn all_settings_count() {
        assert_eq!(all_settings(1).len(), 3);
        assert_eq!(all_settings(2).len(), 9);
        assert_eq!(all_settings(4).len(), 81);
    }

    #[test]
    fn setting_projectors_resolve_identity() {
        let s = Setting(vec![PauliBasis::X, PauliBasis::Y]);
        let mut sum = CMatrix::zeros(4, 4);
        for o in 0..s.outcomes() {
            sum = &sum + &s.outcome_projector(o);
        }
        assert!(sum.approx_eq(&CMatrix::identity(4), 1e-12));
    }

    #[test]
    fn outcome_vectors_factor_projectors() {
        let s = Setting(vec![PauliBasis::X, PauliBasis::Y]);
        for o in 0..s.outcomes() {
            let v = s.outcome_vector(o);
            assert!((v.norm() - 1.0).abs() < 1e-14, "outcome {o} not normalized");
            let outer = CMatrix::outer(&v, &v);
            assert!(
                outer.approx_eq(&s.outcome_projector(o), 1e-13),
                "outcome {o}"
            );
        }
    }

    #[test]
    fn outcome_vectors_match_the_kronecker_chain_bitwise() {
        for n in 1..=4 {
            for setting in all_settings(n) {
                for o in 0..setting.outcomes() {
                    let chain = setting.0.iter().enumerate().fold(
                        CVector::from_vec(vec![C_ONE]),
                        |acc, (q, basis)| {
                            let bit = u8::from((o >> (n - 1 - q)) & 1 == 1);
                            acc.kron(&basis.eigenstate(bit))
                        },
                    );
                    let bits = |v: &CVector| -> Vec<(u64, u64)> {
                        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                    };
                    let built = bits(&setting.outcome_vector(o));
                    assert_eq!(built, bits(&chain), "{setting:?} outcome {o}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outcome index")]
    fn outcome_vector_out_of_range() {
        let s = Setting(vec![PauliBasis::Z]);
        let _ = s.outcome_vector(2);
    }

    #[test]
    fn outcome_sign_parity() {
        let s = Setting(vec![PauliBasis::Z, PauliBasis::Z]);
        // Full mask: sign = (−1)^{popcount(o)}.
        assert_eq!(s.outcome_sign(0b00, 0b11), 1.0);
        assert_eq!(s.outcome_sign(0b01, 0b11), -1.0);
        assert_eq!(s.outcome_sign(0b11, 0b11), 1.0);
        // Mask only qubit 0 (MSB).
        assert_eq!(s.outcome_sign(0b01, 0b10), 1.0);
        assert_eq!(s.outcome_sign(0b10, 0b10), -1.0);
    }

    #[test]
    fn pauli_string_matrix_dimensions() {
        let m = pauli_string_matrix(&[Some(PauliBasis::X), None, Some(PauliBasis::Z)]);
        assert_eq!(m.rows(), 8);
        assert!(m.is_hermitian(1e-14));
        // Traceless (contains a non-identity factor).
        assert!(m.trace().approx_zero(1e-12));
    }

    #[test]
    #[should_panic(expected = "outcome index")]
    fn outcome_out_of_range() {
        let s = Setting(vec![PauliBasis::Z]);
        let _ = s.outcome_projector(2);
    }

    #[test]
    fn from_bases_equals_vec_construction() {
        assert_eq!(
            Setting::from_bases(&[PauliBasis::X, PauliBasis::Z]),
            Setting(vec![PauliBasis::X, PauliBasis::Z])
        );
    }
}
