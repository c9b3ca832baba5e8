//! Eigendecomposition of Hermitian matrices and matrix functions.
//!
//! Implements the cyclic complex Jacobi algorithm: for each off-diagonal
//! pivot a unitary 2×2 rotation annihilates the element; sweeps repeat until
//! the off-diagonal Frobenius norm is negligible. Jacobi is slower than
//! Householder tridiagonalization + QL for large matrices, but it is simple,
//! numerically robust, and delivers small residuals — and the matrices in
//! this workspace (density matrices up to 16×16, discretized joint spectral
//! amplitudes up to a few hundred) are well within its comfortable range.
//! Where only a bound on the largest eigenvalue is needed, every iteration
//! of a loop, [`largest_eigenvalue_bound`] takes the Householder route and
//! skips the rest of the spectrum.

use crate::cast;
use serde::{Deserialize, Serialize};

use crate::cmatrix::CMatrix;
use crate::complex::Complex64;
use crate::cvector::CVector;

/// Result of diagonalizing a Hermitian matrix `A = V Λ V†`.
///
/// Eigenvalues are real and sorted in **ascending** order; `eigenvectors`
/// holds the corresponding orthonormal eigenvectors as matrix columns.
///
/// # Examples
///
/// ```
/// use qfc_mathkit::cmatrix::CMatrix;
/// use qfc_mathkit::hermitian::eigh;
///
/// let a = CMatrix::from_real_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = eigh(&a);
/// assert!((e.eigenvalues[0] - 1.0).abs() < 1e-10);
/// assert!((e.eigenvalues[1] - 3.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EigenDecomposition {
    /// Real eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose `k`-th column is the eigenvector for
    /// `eigenvalues[k]`.
    pub eigenvectors: CMatrix,
}

impl EigenDecomposition {
    /// Eigenvector for index `k` as an owned vector.
    pub fn eigenvector(&self, k: usize) -> CVector {
        self.eigenvectors.col(k)
    }

    /// Reconstructs `V Λ V†`; useful for testing round-trips.
    pub fn reconstruct(&self) -> CMatrix {
        let lam = CMatrix::diag(
            &self
                .eigenvalues
                .iter()
                .map(|&x| Complex64::real(x))
                .collect::<Vec<_>>(),
        );
        let v = &self.eigenvectors;
        &(v * &lam) * &v.adjoint()
    }

    /// Applies a real function to the spectrum: `f(A) = V f(Λ) V†`.
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> CMatrix {
        let lam = CMatrix::diag(
            &self
                .eigenvalues
                .iter()
                .map(|&x| Complex64::real(f(x)))
                .collect::<Vec<_>>(),
        );
        let v = &self.eigenvectors;
        &(v * &lam) * &v.adjoint()
    }
}

const MAX_SWEEPS: usize = 128;

/// Diagonalizes a Hermitian matrix by cyclic Jacobi sweeps.
///
/// # Panics
///
/// Panics if `a` is not square or not Hermitian to `1e-9` (relative to its
/// largest element).
pub fn eigh(a: &CMatrix) -> EigenDecomposition {
    assert!(a.is_square(), "eigh requires a square matrix");
    let scale = a.max_abs().max(1.0);
    assert!(
        a.is_hermitian(1e-9 * scale),
        "eigh requires a Hermitian matrix"
    );
    let n = a.rows();
    let mut m = a.clone();
    symmetrize_in_place(&mut m);
    let mut v = CMatrix::identity(n);
    jacobi_sweeps(&mut m, Some(&mut v), scale);

    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    // total_cmp keeps degenerate (NaN-bearing) matrices from panicking the
    // eigensolver: NaN eigenvalues sort to the end instead.
    idx.sort_by(|&i, &j| diag[i].total_cmp(&diag[j]));

    let eigenvalues: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let eigenvectors = CMatrix::from_fn(n, n, |i, j| v[(i, idx[j])]);
    EigenDecomposition {
        eigenvalues,
        eigenvectors,
    }
}

/// Eigenvalues only, ascending, computed in caller-provided scratch.
///
/// Runs exactly the Jacobi rotation sequence of [`eigh`] on `work`
/// (overwritten with a symmetrized copy of `a`, reallocated only when
/// its shape differs) but skips the eigenvector accumulation, then
/// writes the sorted eigenvalues into `out` (cleared first). The values
/// are bit-identical to `eigh(a).eigenvalues` — the
/// eigenvector updates never feed back into the iterated matrix, and
/// `total_cmp` ordering is a total order on bit patterns.
///
/// # Panics
///
/// Panics if `a` is not square or not Hermitian (see [`eigh`]).
pub fn eigenvalues_into(a: &CMatrix, work: &mut CMatrix, out: &mut Vec<f64>) {
    assert!(a.is_square(), "eigh requires a square matrix");
    let scale = a.max_abs().max(1.0);
    assert!(
        a.is_hermitian(1e-9 * scale),
        "eigh requires a Hermitian matrix"
    );
    let n = a.rows();
    if work.rows() != n || work.cols() != n {
        *work = a.clone();
    } else {
        for i in 0..n {
            for j in 0..n {
                work[(i, j)] = a[(i, j)];
            }
        }
    }
    symmetrize_in_place(work);
    jacobi_sweeps(work, None, scale);
    out.clear();
    out.extend((0..n).map(|i| work[(i, i)].re));
    out.sort_by(f64::total_cmp);
}

/// Upper bound on the largest eigenvalue of a Hermitian matrix, tight to
/// round-off, in `O(n³)` with no eigenvectors.
///
/// Householder reflections reduce `a` to a real symmetric tridiagonal
/// matrix with the same spectrum (the phases of its complex sub-diagonal
/// drop out of a diagonal unitary similarity); Sturm-sequence bisection
/// then narrows a Gershgorin bracket until its ends are adjacent floats.
/// The upper end is returned: the Sturm count places every eigenvalue of
/// the tridiagonal form below it, so unlike a power-iteration estimate
/// the value never undershoots beyond the reduction's round-off. Only the
/// upper triangle of `a` is read, and a non-finite entry gives NaN.
/// `work` holds the reduction; like [`eigenvalues_into`]'s, it is
/// reallocated only when its shape differs from `a`'s.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn largest_eigenvalue_bound(a: &CMatrix, work: &mut CMatrix) -> f64 {
    assert!(a.is_square(), "eigenvalue bound requires a square matrix");
    let n = a.rows();
    if work.rows() != n || work.cols() != n {
        *work = CMatrix::zeros(n, n);
    }
    let m = work;
    let mut finite = true;
    for i in 0..n {
        for j in i..n {
            finite &= a[(i, j)].is_finite();
            m[(i, j)] = a[(i, j)];
            m[(j, i)] = a[(i, j)].conj();
        }
    }
    if !finite {
        return f64::NAN;
    }
    // Step k reflects the column below the diagonal, x = m[k+1.., k], onto
    // ‖x‖·e₁ up to a phase with H = I − β·v·v†, and applies H to the
    // trailing block B as B ← H·B·H = B − v·w† − w·v†, where p = β·B·v and
    // w = p − (β/2)(v†p)·v. Column k holds v and row k holds w, which the
    // reduction no longer needs; the step then leaves ‖x‖² on the
    // sub-diagonal.
    for k in 0..n.saturating_sub(1) {
        let x0 = m[(k + 1, k)];
        let tail: f64 = (k + 2..n).map(|i| m[(i, k)].norm_sqr()).sum();
        let sigma_sq = x0.norm_sqr() + tail;
        if tail > 0.0 {
            let (sigma, x0_abs) = (sigma_sq.sqrt(), x0.abs());
            let phase = if x0_abs > 0.0 {
                x0.scale(1.0 / x0_abs)
            } else {
                Complex64::real(1.0)
            };
            let beta = 1.0 / (sigma * (sigma + x0_abs));
            m[(k + 1, k)] = x0 + phase.scale(sigma);
            let mut vp = 0.0;
            for i in k + 1..n {
                let mut acc = Complex64::real(0.0);
                for j in k + 1..n {
                    acc += m[(i, j)] * m[(j, k)];
                }
                m[(k, i)] = acc.scale(beta);
                vp += (m[(i, k)].conj() * m[(k, i)]).re;
            }
            let half_k = 0.5 * beta * vp;
            for i in k + 1..n {
                let w = m[(k, i)] - m[(i, k)].scale(half_k);
                m[(k, i)] = w;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let update = m[(i, k)] * m[(k, j)].conj() + m[(k, i)] * m[(j, k)].conj();
                    m[(i, j)] -= update;
                }
            }
        }
        m[(k + 1, k)] = Complex64::real(sigma_sq);
    }
    let m = &*m;
    let diag = |i: usize| m[(i, i)].re;
    let off_sq = |i: usize| m[(i + 1, i)].re;
    // Gershgorin bracket of the tridiagonal form, widened so its upper end
    // is strictly above every eigenvalue.
    let (mut lo, mut hi, mut max_off_sq) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for i in 0..n {
        let below = if i > 0 { off_sq(i - 1).sqrt() } else { 0.0 };
        let above = if i + 1 < n { off_sq(i).sqrt() } else { 0.0 };
        lo = lo.min(diag(i) - below - above);
        hi = hi.max(diag(i) + below + above);
        max_off_sq = max_off_sq.max(above * above);
    }
    let pivmin = f64::MIN_POSITIVE * max_off_sq.max(1.0);
    let slack = 2.0 * f64::EPSILON * cast::to_f64(n) * lo.abs().max(hi.abs()) + pivmin;
    lo -= slack;
    hi += slack;
    // Sturm count: the number of eigenvalues below `x` is the number of
    // negative pivots of the LDLᵀ factorization of T − x·I.
    let count_below = |x: f64| {
        let mut count = 0usize;
        let mut q = 1.0f64;
        for i in 0..n {
            let coupling = if i > 0 { off_sq(i - 1) / q } else { 0.0 };
            q = diag(i) - x - coupling;
            if q.abs() < pivmin {
                q = -pivmin;
            }
            count += usize::from(q < 0.0);
        }
        count
    };
    loop {
        let mid = lo + 0.5 * (hi - lo);
        if !(mid > lo && mid < hi) {
            return hi;
        }
        if count_below(mid) == n {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Exact symmetrization removing any tolerated Hermitian asymmetry.
fn symmetrize_in_place(m: &mut CMatrix) {
    let n = m.rows();
    for i in 0..n {
        m[(i, i)] = Complex64::real(m[(i, i)].re);
        for j in (i + 1)..n {
            let avg = (m[(i, j)] + m[(j, i)].conj()).scale(0.5);
            m[(i, j)] = avg;
            m[(j, i)] = avg.conj();
        }
    }
}

/// Jacobi sweep loop: rotates `m` to diagonal form, accumulating the
/// rotations into `v` when provided. Every off-diagonal pivot is visited
/// in order each sweep; `jacobi_rotate` leaves zero pivots untouched.
fn jacobi_sweeps(m: &mut CMatrix, mut v: Option<&mut CMatrix>, scale: f64) {
    let n = m.rows();
    for _ in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(m);
        if off <= 1e-14 * scale * cast::to_f64(n) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let rot = jacobi_rotate(m, p, q);
                if let (Some(v), Some((c, s))) = (v.as_deref_mut(), rot) {
                    // Accumulate eigenvectors: V ← V·U.
                    for i in 0..n {
                        let vip = v[(i, p)];
                        let viq = v[(i, q)];
                        v[(i, p)] = vip.scale(c) - viq * s.conj();
                        v[(i, q)] = vip * s + viq.scale(c);
                    }
                }
            }
        }
    }
}

fn off_diagonal_norm(m: &CMatrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += 2.0 * m[(i, j)].norm_sqr();
        }
    }
    s.sqrt()
}

/// One complex Jacobi rotation annihilating `m[(p, q)]`, returning the
/// `(cos θ, sin θ·e^{iφ})` pair for the caller to accumulate (or `None`
/// when the pivot is already zero).
fn jacobi_rotate(m: &mut CMatrix, p: usize, q: usize) -> Option<(f64, Complex64)> {
    let gamma = m[(p, q)];
    let g = gamma.abs();
    if g == 0.0 {
        return None;
    }
    let alpha = m[(p, p)].re;
    let beta = m[(q, q)].re;
    let phi = gamma.arg();
    // tan(2θ) = 2|γ| / (β − α), choosing the small-angle root for stability.
    let theta = 0.5 * (2.0 * g).atan2(beta - alpha);
    let c = theta.cos();
    let s = Complex64::from_polar(theta.sin(), phi);
    let n = m.rows();

    // Column update: A ← A·U with U[(p,p)] = c, U[(p,q)] = s,
    // U[(q,p)] = −s̄, U[(q,q)] = c.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = aip.scale(c) - aiq * s.conj();
        m[(i, q)] = aip * s + aiq.scale(c);
    }
    // Row update: A ← U†·A.
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = apj.scale(c) - aqj * s;
        m[(q, j)] = apj * s.conj() + aqj.scale(c);
    }
    // Clean the annihilated pair and enforce real diagonal.
    m[(p, q)] = Complex64::real(0.0);
    m[(q, p)] = Complex64::real(0.0);
    m[(p, p)] = Complex64::real(m[(p, p)].re);
    m[(q, q)] = Complex64::real(m[(q, q)].re);

    Some((c, s))
}

/// Principal square root of a positive semidefinite Hermitian matrix.
///
/// Eigenvalues that are slightly negative from round-off are clipped to
/// zero before the square root.
///
/// # Panics
///
/// Panics if `a` is not Hermitian, or has an eigenvalue below
/// `-1e-8 · max(1, ‖a‖∞)` (i.e. genuinely not PSD).
pub fn sqrtm_psd(a: &CMatrix) -> CMatrix {
    let e = eigh(a);
    let scale = a.max_abs().max(1.0);
    for &lam in &e.eigenvalues {
        assert!(
            lam >= -1e-8 * scale,
            "sqrtm_psd: matrix has negative eigenvalue {lam}"
        );
    }
    e.apply(|x| x.max(0.0).sqrt())
}

/// Projects a Hermitian matrix onto the positive semidefinite cone by
/// clipping negative eigenvalues to zero (no renormalization).
pub fn psd_projection(a: &CMatrix) -> CMatrix {
    eigh(a).apply(|x| x.max(0.0))
}

/// Compact singular value decomposition of a complex matrix `A = U Σ V†`.
///
/// Computed from the Hermitian eigendecomposition of `A†A`. Singular values
/// are returned in **descending** order; `u` and `v` hold the corresponding
/// left/right singular vectors as columns. Singular values below
/// `tol · σ_max` are dropped (compact form), so `u` is `m × r` and `v` is
/// `n × r` with `r = rank`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Svd {
    /// Singular values, descending, strictly positive.
    pub singular_values: Vec<f64>,
    /// Left singular vectors (columns), `m × r`.
    pub u: CMatrix,
    /// Right singular vectors (columns), `n × r`.
    pub v: CMatrix,
}

/// Computes the compact SVD of `a` with relative rank tolerance `tol`.
///
/// ```
/// use qfc_mathkit::cmatrix::CMatrix;
/// use qfc_mathkit::hermitian::svd;
///
/// let a = CMatrix::from_real_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
/// let s = svd(&a, 1e-12);
/// assert_eq!(s.singular_values, vec![4.0, 3.0]);
/// ```
pub fn svd(a: &CMatrix, tol: f64) -> Svd {
    let ata = &a.adjoint() * a;
    let e = eigh(&ata);
    let n = e.eigenvalues.len();
    // eigh sorts ascending; take descending.
    let mut triples: Vec<(f64, CVector)> = (0..n)
        .rev()
        .map(|k| (e.eigenvalues[k].max(0.0).sqrt(), e.eigenvector(k)))
        .collect();
    let smax = triples.first().map_or(0.0, |t| t.0);
    triples.retain(|(s, _)| *s > tol * smax && *s > 0.0);

    let r = triples.len();
    let mut u = CMatrix::zeros(a.rows(), r);
    let mut v = CMatrix::zeros(a.cols(), r);
    let mut sigma = Vec::with_capacity(r);
    // One scratch vector reused across columns (`matvec_into` is
    // bit-identical to the allocating `matvec`, and `scale` applies
    // element-wise either way).
    let mut uk = CVector::zeros(a.rows());
    for (k, (s, vk)) in triples.iter().enumerate() {
        sigma.push(*s);
        a.matvec_into(vk, &mut uk);
        let inv = 1.0 / s;
        // qfc-lint: hot
        for i in 0..a.rows() {
            u[(i, k)] = uk[i].scale(inv);
        }
        for i in 0..a.cols() {
            v[(i, k)] = vk[i];
        }
    }
    Svd {
        singular_values: sigma,
        u,
        v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{C_I, C_ONE, C_ZERO};

    fn random_hermitian(n: usize, seed: u64) -> CMatrix {
        // Simple deterministic LCG so the test needs no RNG dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::real(next());
            for j in (i + 1)..n {
                let z = Complex64::new(next(), next());
                m[(i, j)] = z;
                m[(j, i)] = z.conj();
            }
        }
        m
    }

    #[test]
    fn eigenvalue_bound_sits_on_the_largest_eigenvalue() {
        let identity = CMatrix::identity(5);
        let rank_one = {
            let mut m = CMatrix::zeros(6, 6);
            let x = CVector::from_vec((0..6).map(|k| Complex64::new(1.0, k as f64)).collect());
            m.ger_assign(1.0, &x, &x);
            m
        };
        let diagonal = CMatrix::diag(&[
            Complex64::real(-3.0),
            Complex64::real(7.5),
            Complex64::real(2.0),
        ]);
        let mut cases = vec![identity, rank_one, diagonal, CMatrix::diag(&[C_ONE.scale(-2.0)])];
        for (n, seed) in [(2, 1), (4, 2), (7, 3), (16, 4), (16, 5), (33, 6)] {
            cases.push(random_hermitian(n, seed));
        }
        for a in &cases {
            let n = a.rows();
            let exact = eigh(a).eigenvalues[n - 1];
            let mut work = CMatrix::zeros(0, 0);
            let bound = largest_eigenvalue_bound(a, &mut work);
            let scale = a.max_abs().max(1.0);
            assert!(
                bound >= exact - 1e-13 * scale && bound <= exact + 1e-12 * scale,
                "n = {n}: bound {bound} vs λ_max {exact}"
            );
            // Reusing the work matrix gives the same bits.
            assert_eq!(largest_eigenvalue_bound(a, &mut work).to_bits(), bound.to_bits());
        }
        let mut nan = CMatrix::identity(3);
        nan[(0, 1)] = Complex64::new(f64::NAN, 0.0);
        assert!(largest_eigenvalue_bound(&nan, &mut CMatrix::zeros(3, 3)).is_nan());
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = CMatrix::diag(&[
            Complex64::real(3.0),
            Complex64::real(-1.0),
            Complex64::real(2.0),
        ]);
        let e = eigh(&a);
        assert_eq!(e.eigenvalues.len(), 3);
        assert!((e.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_x_eigensystem() {
        let x = CMatrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let e = eigh(&x);
        assert!((e.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for +1 must be (1,1)/√2 up to phase.
        let v = e.eigenvector(1);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn pauli_y_complex_eigensystem() {
        let y = CMatrix::from_vec(2, 2, vec![C_ZERO, -C_I, C_I, C_ZERO]);
        let e = eigh(&y);
        assert!((e.eigenvalues[0] + 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        assert!(e.reconstruct().approx_eq(&y, 1e-10));
    }

    #[test]
    fn reconstruction_roundtrip_random() {
        for seed in 1..6 {
            let a = random_hermitian(8, seed);
            let e = eigh(&a);
            assert!(
                e.reconstruct().approx_eq(&a, 1e-9),
                "roundtrip failed for seed {seed}"
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_hermitian(6, 42);
        let e = eigh(&a);
        assert!(e.eigenvectors.is_unitary(1e-9));
    }

    #[test]
    fn eigenvalues_into_bit_identical_to_eigh() {
        let mut work = CMatrix::zeros(1, 1); // wrong shape: exercises the resize path
        let mut vals = Vec::new();
        for seed in 1..8 {
            let a = random_hermitian(6, seed);
            eigenvalues_into(&a, &mut work, &mut vals);
            let full = eigh(&a);
            assert_eq!(vals.len(), full.eigenvalues.len());
            for (x, y) in vals.iter().zip(&full.eigenvalues) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = random_hermitian(9, 3);
        let e = eigh(&a);
        let tr: f64 = e.eigenvalues.iter().sum();
        assert!((tr - a.trace().re).abs() < 1e-9);
    }

    #[test]
    fn sqrtm_squares_back() {
        // Build a PSD matrix B = A†A.
        let a = random_hermitian(5, 11);
        let b = &a.adjoint() * &a;
        let s = sqrtm_psd(&b);
        assert!((&s * &s).approx_eq(&b, 1e-8));
        assert!(s.is_hermitian(1e-9));
    }

    #[test]
    #[should_panic(expected = "negative eigenvalue")]
    fn sqrtm_rejects_indefinite() {
        let a = CMatrix::diag(&[C_ONE, Complex64::real(-1.0)]);
        let _ = sqrtm_psd(&a);
    }

    #[test]
    fn psd_projection_clips() {
        let a = CMatrix::diag(&[Complex64::real(2.0), Complex64::real(-0.5)]);
        let p = psd_projection(&a);
        let e = eigh(&p);
        assert!(e.eigenvalues[0] >= -1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn svd_of_diagonal() {
        let a = CMatrix::from_real_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let s = svd(&a, 1e-12);
        assert!((s.singular_values[0] - 2.0).abs() < 1e-10);
        assert!((s.singular_values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn svd_reconstructs() {
        let a = CMatrix::from_fn(4, 3, |i, j| {
            Complex64::new((i + 2 * j) as f64 * 0.3, (i as f64 - j as f64) * 0.2)
        });
        let s = svd(&a, 1e-12);
        let sig = CMatrix::diag(
            &s.singular_values
                .iter()
                .map(|&x| Complex64::real(x))
                .collect::<Vec<_>>(),
        );
        let rec = &(&s.u * &sig) * &s.v.adjoint();
        assert!(rec.approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-1 matrix.
        let u = CVector::from_real(&[1.0, 2.0]);
        let v = CVector::from_real(&[1.0, 1.0, 1.0]);
        let a = CMatrix::outer(&u, &v);
        let s = svd(&a, 1e-10);
        assert_eq!(s.singular_values.len(), 1);
        assert!((s.singular_values[0] - (5.0f64).sqrt() * (3.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Hermitian")]
    fn eigh_rejects_non_hermitian() {
        let a = CMatrix::from_real_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let _ = eigh(&a);
    }
}
