//! Dense complex matrices (row-major).

use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::complex::{Complex64, C_ONE, C_ZERO};
use crate::cvector::{CVector, VectorPanels};

/// Reusable packing buffer for [`CMatrix::matmul_packed_into`].
///
/// The packed GEMM stores the right-hand operand in transposed
/// (adjoint-layout, unconjugated) order so the inner `k` accumulation
/// reads both operands contiguously. The buffer grows to the largest
/// `k × n` shape it has seen and is reused across calls, so a hot loop
/// that multiplies same-shaped matrices performs no allocation after
/// the first iteration.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    packed: Vec<Complex64>,
}

impl GemmScratch {
    /// An empty scratch; the first `matmul_packed_into` call sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A dense complex matrix with row-major storage.
///
/// All quantum operators (density matrices, unitaries, projectors) and
/// discretized joint spectral amplitudes in the workspace use this type.
///
/// # Examples
///
/// ```
/// use qfc_mathkit::cmatrix::CMatrix;
///
/// let id = CMatrix::identity(2);
/// let m = &id * &id;
/// assert!(m.approx_eq(&id, 1e-15));
/// assert!((id.trace().re - 2.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![C_ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C_ONE;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices of real values.
    pub fn from_real_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend(row.iter().map(|&x| Complex64::real(x)));
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Builds a matrix element-wise from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Outer product `|a⟩⟨b|` (i.e. `a · b†`).
    pub fn outer(a: &CVector, b: &CVector) -> Self {
        Self::from_fn(a.dim(), b.dim(), |i, j| a[i] * b[j].conj())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Flat row-major mutable view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Extracts row `i` as a vector.
    pub fn row(&self, i: usize) -> CVector {
        assert!(i < self.rows);
        CVector::from_vec(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// Extracts column `j` as a vector.
    pub fn col(&self, j: usize) -> CVector {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a real factor.
    pub fn scale(&self, s: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale_c(&self, s: Complex64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * s).collect(),
        }
    }

    /// Matrix-vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()`.
    pub fn matvec(&self, v: &CVector) -> CVector {
        assert_eq!(v.dim(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| self[(i, j)] * v[j])
                    .sum::<Complex64>()
            })
            .collect()
    }

    /// Matrix-vector product `A·v` written into an existing vector —
    /// the scratch-space form of [`Self::matvec`] for iteration hot
    /// loops. Bit-identical to `matvec`: each output element folds
    /// `aᵢⱼ·vⱼ` over ascending `j` from zero, exactly the per-row sum
    /// of the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()` or `out.dim() != self.rows()`.
    pub fn matvec_into(&self, v: &CVector, out: &mut CVector) {
        assert_eq!(v.dim(), self.cols, "matvec dimension mismatch");
        assert_eq!(
            out.dim(),
            self.rows,
            "matvec_into output dimension mismatch"
        );
        let vs = v.as_slice();
        let os = out.as_mut_slice();
        // qfc-lint: hot
        for (i, o) in os.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = C_ZERO;
            for (a, b) in row.iter().zip(vs) {
                acc += *a * *b;
            }
            *o = acc;
        }
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik.approx_zero(0.0) {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix product `A·B` through a packed right-hand side — the
    /// cache-friendly form of [`Self::matmul`] for hot loops, writing
    /// into an existing buffer.
    ///
    /// The RHS is first packed into `scratch` in transposed
    /// (adjoint-layout, unconjugated) order, so every output element is
    /// a dot product of two *contiguous* length-`k` runs instead of a
    /// row-major run against a column walked at stride `n`. On top of
    /// the packing, rows of `A` with no exact-zero entry take a
    /// branch-free inner loop the compiler can vectorize.
    ///
    /// **Bit-identical to [`Self::matmul`]**: each
    /// output element accumulates `aᵢₖ·bₖⱼ` over ascending `k` starting
    /// from zero, with the same skip test on exactly-zero `aᵢₖ` — the
    /// same operations on the same values in the same order, so the IEEE
    /// result is equal bit for bit (a register accumulator initialized
    /// to zero is indistinguishable from accumulating into a zeroed
    /// output slot). Proven by proptest against `matmul_into` as oracle.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_packed_into(&self, other: &Self, out: &mut Self, scratch: &mut GemmScratch) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        let (kk, n) = (self.cols, other.cols);
        if scratch.packed.len() != kk * n {
            scratch.packed.resize(kk * n, C_ZERO);
        }
        // Pack Bᵀ: packed row `j` is column `j` of `other`, so the
        // k-run below is contiguous in both operands.
        for k in 0..kk {
            let brow = &other.data[k * n..(k + 1) * n];
            for (j, &b) in brow.iter().enumerate() {
                scratch.packed[j * kk + k] = b;
            }
        }
        // qfc-lint: hot
        for i in 0..self.rows {
            let arow = &self.data[i * kk..(i + 1) * kk];
            // Dense rows (the overwhelmingly common case for density
            // matrices) take the branch-free loop; the skip-zero branch
            // is only kept where it can actually fire, because skipping
            // a zero is *not* a no-op in IEEE arithmetic (−0 + 0 = +0).
            let dense = arow.iter().all(|z| !z.approx_zero(0.0));
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &scratch.packed[j * kk..(j + 1) * kk];
                let mut acc = C_ZERO;
                if dense {
                    for (a, b) in arow.iter().zip(brow) {
                        acc += *a * *b;
                    }
                } else {
                    for (a, b) in arow.iter().zip(brow) {
                        if a.approx_zero(0.0) {
                            continue;
                        }
                        acc += *a * *b;
                    }
                }
                *o = acc;
            }
        }
    }

    /// Trace of a product, `tr(A·B)`, without materializing the product
    /// matrix. Bit-identical to `self.matmul(other).trace()`: each
    /// diagonal entry accumulates over `k` in `matmul`'s order (with its
    /// skip-zero test), and the diagonal sums in `trace`'s order — but
    /// only the diagonal is computed, an O(n) memory / n-fold flop saving.
    ///
    /// # Panics
    ///
    /// Panics if the product is undefined or not square.
    pub fn trace_of_product(&self, other: &Self) -> Complex64 {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(self.rows == other.cols, "trace of non-square matrix");
        let mut tr = C_ZERO;
        for i in 0..self.rows {
            let mut d = C_ZERO;
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik.approx_zero(0.0) {
                    continue;
                }
                d += aik * other[(k, i)];
            }
            tr += d;
        }
        tr
    }

    /// In-place `self += other.scale(s)` — bit-identical to
    /// `&self + &other.scale(s)` (the same element-wise scale-then-add
    /// in data order) without allocating either temporary.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add_scaled_assign(&mut self, other: &Self, s: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b.scale(s);
        }
    }

    /// Rank-1 update `self += α · x·y†` (a *ger* kernel): adds
    /// `α·xᵢ·conj(yⱼ)` to every element, row-major, with `α` applied to
    /// `xᵢ` once per row, without materializing the `d × d` outer
    /// product.
    ///
    /// # Panics
    ///
    /// Panics if `x.dim() != self.rows()` or `y.dim() != self.cols()`.
    pub fn ger_assign(&mut self, alpha: f64, x: &CVector, y: &CVector) {
        assert_eq!(x.dim(), self.rows, "ger_assign row dimension mismatch");
        assert_eq!(y.dim(), self.cols, "ger_assign column dimension mismatch");
        let xs = x.as_slice();
        let ys = y.as_slice();
        // qfc-lint: hot
        for (i, &xi) in xs.iter().enumerate() {
            let xa = xi.scale(alpha);
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &yj) in row.iter_mut().zip(ys) {
                *o += xa * yj.conj();
            }
        }
    }

    /// In-place form of [`Self::scale`].
    pub fn scale_in_place(&mut self, s: f64) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(C_ZERO);
    }

    /// Overwrites `self` with `other`'s entries, keeping the allocation
    /// (no temporary, unlike `clone`) — the rollback-buffer kernel of
    /// the accelerated MLE iteration.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.copy_from_slice(&other.data);
    }

    /// In-place over-relaxation toward the identity:
    /// `self ← (1 − γ)·I + γ·self`.
    ///
    /// For a Hermitian `self` the result is Hermitian for every real
    /// `γ`, which is what lets the accelerated RρR update
    /// `ρ ← N[AρA]` with `A = (1 − γ)I + γR` stay inside the PSD cone
    /// at any step size: `AρA = (Aρ^{1/2})(Aρ^{1/2})† ⪰ 0`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn lerp_identity_in_place(&mut self, gamma: f64) {
        assert!(self.is_square(), "identity mix needs a square matrix");
        let c = 1.0 - gamma;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let mut z = self.data[i * self.cols + j].scale(gamma);
                if i == j {
                    z.re += c;
                }
                self.data[i * self.cols + j] = z;
            }
        }
    }

    /// Frobenius norm of the difference, `‖A − B‖_F`: the element-wise
    /// differences in data order, then the sum-of-squares fold — the same
    /// bits as folding `&self - &other`, with no temporary.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn frobenius_distance(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Kronecker (tensor) product `A ⊗ B`.
    pub fn kron(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Quadratic form `⟨x|A|y⟩ = x† A y`.
    ///
    /// Allocation-free and bit-identical to the two-step
    /// `x.dot(&self.matvec(y))` it replaces: each row's `Σⱼ aᵢⱼ·yⱼ` is
    /// fully accumulated (ascending `j`, from zero) before being folded
    /// into the dot accumulation as `conj(xᵢ)·(Ay)ᵢ` in ascending `i` —
    /// the exact operation order of `matvec` followed by `dot`, minus
    /// the intermediate vector.
    ///
    /// # Panics
    ///
    /// Panics if `y.dim() != self.cols()` or `x.dim() != self.rows()`.
    pub fn sandwich(&self, x: &CVector, y: &CVector) -> Complex64 {
        assert_eq!(y.dim(), self.cols, "matvec dimension mismatch");
        assert_eq!(x.dim(), self.rows, "dimension mismatch in dot");
        let xs = x.as_slice();
        let ys = y.as_slice();
        let mut acc = C_ZERO;
        // qfc-lint: hot
        for (i, &xi) in xs.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut ay = C_ZERO;
            for (a, b) in row.iter().zip(ys) {
                ay += *a * *b;
            }
            acc += xi.conj() * ay;
        }
        acc
    }

    /// Hermitian quadratic form `⟨x|A|x⟩` touching only the diagonal and
    /// strict upper triangle:
    /// `Σᵢ aᵢᵢ·|xᵢ|² + 2·Re Σᵢ conj(xᵢ)·(Σ_{j>i} aᵢⱼ·xⱼ)` — half the
    /// complex multiplies of [`Self::sandwich`], still contiguous (each
    /// row's tail) and allocation-free. The result is real by
    /// construction, which is exactly what a Hermitian form must be.
    ///
    /// **Contract:** `self` must be Hermitian — the lower triangle and
    /// the diagonal imaginary parts are never read, so on a
    /// non-Hermitian matrix this silently computes the form of the
    /// Hermitian matrix implied by the upper triangle. The tomography
    /// MLE keeps its iterates bitwise Hermitian (see
    /// [`Self::hermitianize_upper`]); the count simulation's density
    /// matrices are Hermitian to rounding.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `x.dim() != self.rows()`.
    pub fn quadratic_form_hermitian(&self, x: &CVector) -> f64 {
        assert!(self.is_square(), "quadratic form needs a square matrix");
        assert_eq!(x.dim(), self.rows, "matvec dimension mismatch");
        let xs = x.as_slice();
        let n = self.rows;
        let mut diag = 0.0;
        let mut cross = C_ZERO;
        // qfc-lint: hot
        for (i, &xi) in xs.iter().enumerate() {
            let row = &self.data[i * n..(i + 1) * n];
            diag += row[i].re * xi.norm_sqr();
            let mut t = C_ZERO;
            for (a, b) in row[i + 1..].iter().zip(&xs[i + 1..]) {
                t += *a * *b;
            }
            cross += xi.conj() * t;
        }
        diag + 2.0 * cross.re
    }

    /// [`Self::quadratic_form_hermitian`] of every vector of `panels`,
    /// into `out` in vector order. Each panel makes one pass over the
    /// upper triangle for its four vectors, and the four lanes run side
    /// by side. Bitwise identical to the single-vector form per vector:
    /// each lane evaluates that form's expression tree, in its order.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square, the panels' dimension does not
    /// match, or `out.len() != panels.len()`.
    pub fn quadratic_forms_hermitian_panels(&self, panels: &VectorPanels, out: &mut [f64]) {
        assert!(self.is_square(), "quadratic form needs a square matrix");
        assert_eq!(panels.dim(), self.rows, "matvec dimension mismatch");
        assert_eq!(panels.len(), out.len(), "quadratic form output length mismatch");
        for (p, out) in out.chunks_mut(4).enumerate() {
            let (xr, xi) = panels.panel(p);
            let forms = self.quadratic_form_hermitian_panel(xr, xi);
            out.copy_from_slice(&forms[..out.len()]);
        }
    }

    /// One panel of [`Self::quadratic_forms_hermitian_panels`]: the forms
    /// of all four lanes. Dimensions are checked by the caller.
    fn quadratic_form_hermitian_panel(&self, xr: &[[f64; 4]], xi: &[[f64; 4]]) -> [f64; 4] {
        let n = self.rows;
        let mut diag = [0.0f64; 4];
        let mut cross = [0.0f64; 4];
        // qfc-lint: hot
        for i in 0..n {
            let row = &self.data[i * n..(i + 1) * n];
            let mut tr = [0.0f64; 4];
            let mut ti = [0.0f64; 4];
            for ((a, br), bi) in row[i + 1..].iter().zip(&xr[i + 1..]).zip(&xi[i + 1..]) {
                // `t += a·b`, lane by lane.
                tr = std::array::from_fn(|l| tr[l] + (a.re * br[l] - a.im * bi[l]));
                ti = std::array::from_fn(|l| ti[l] + (a.re * bi[l] + a.im * br[l]));
            }
            let (aii, x_re, x_im) = (row[i].re, xr[i], xi[i]);
            diag = std::array::from_fn(|l| diag[l] + aii * (x_re[l] * x_re[l] + x_im[l] * x_im[l]));
            // `Re(conj(x)·t)` as the complex product forms it.
            cross = std::array::from_fn(|l| cross[l] + (x_re[l] * tr[l] - (-x_im[l]) * ti[l]));
        }
        std::array::from_fn(|l| diag[l] + 2.0 * cross[l])
    }

    /// The Hermitian rank-1 updates `self += αₖ·xₖ·xₖ†` of every vector
    /// `k` of `panels`, in vector order, writing only the diagonal and
    /// strict upper triangle — half the work of [`Self::ger_assign`] on a
    /// Hermitian accumulator; pair with [`Self::hermitianize_upper`]. Each panel touches every
    /// upper-triangle element once for its four updates instead of four
    /// times. Bitwise identical to sequential single-vector updates (the
    /// test oracle `ger_hermitian_upper`): per element the lanes are added
    /// in vector order, each as that form's product, and a short last
    /// panel adds only its own lanes.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square, the panels' dimension does not
    /// match, or `alphas.len() != panels.len()`.
    pub fn ger_hermitian_upper_panels(&mut self, alphas: &[f64], panels: &VectorPanels) {
        assert!(self.is_square(), "ger_hermitian_upper needs a square matrix");
        assert_eq!(panels.dim(), self.rows, "ger_assign row dimension mismatch");
        assert_eq!(panels.len(), alphas.len(), "ger weight count mismatch");
        for (p, alphas) in alphas.chunks(4).enumerate() {
            let (xr, xi) = panels.panel(p);
            match *alphas {
                [a0, a1, a2, a3] => self.ger_hermitian_upper_panel([a0, a1, a2, a3], xr, xi),
                [a0, a1, a2] => self.ger_hermitian_upper_panel([a0, a1, a2], xr, xi),
                [a0, a1] => self.ger_hermitian_upper_panel([a0, a1], xr, xi),
                [a0] => self.ger_hermitian_upper_panel([a0], xr, xi),
                _ => {}
            }
        }
    }

    /// One panel of [`Self::ger_hermitian_upper_panels`]: the updates of
    /// its first `L` lanes. Dimensions are checked by the caller.
    fn ger_hermitian_upper_panel<const L: usize>(
        &mut self,
        alpha: [f64; L],
        xr: &[[f64; 4]],
        xi: &[[f64; 4]],
    ) {
        let n = self.rows;
        // qfc-lint: hot
        for i in 0..n {
            let ar: [f64; L] = std::array::from_fn(|l| xr[i][l] * alpha[l]);
            let ai: [f64; L] = std::array::from_fn(|l| xi[i][l] * alpha[l]);
            let row = &mut self.data[i * n + i..(i + 1) * n];
            for ((o, br), bi) in row.iter_mut().zip(&xr[i..]).zip(&xi[i..]) {
                // `xa·conj(b)` per lane, as the complex product forms it.
                let pr: [f64; L] = std::array::from_fn(|l| ar[l] * br[l] - ai[l] * (-bi[l]));
                let pi: [f64; L] = std::array::from_fn(|l| ar[l] * (-bi[l]) + ai[l] * br[l]);
                let mut z = *o;
                for (r, i) in pr.into_iter().zip(pi) {
                    z.re += r;
                    z.im += i;
                }
                *o = z;
            }
        }
    }

    /// Makes the matrix bitwise Hermitian from its upper triangle: every
    /// strictly-lower element becomes the conjugate of its upper mirror,
    /// and diagonal imaginary parts are zeroed. The upper triangle is
    /// the source of truth; this is the cheap (O(n²/2) copies, no
    /// arithmetic) companion of the `*_hermitian` kernels above.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square.
    pub fn hermitianize_upper(&mut self) {
        assert!(self.is_square(), "hermitianize needs a square matrix");
        let n = self.rows;
        for i in 0..n {
            self.data[i * n + i].im = 0.0;
            for j in i + 1..n {
                self.data[j * n + i] = self.data[i * n + j].conj();
            }
        }
    }

    /// `true` if `‖A − A†‖∞ ≤ tol` element-wise.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `A†A ≈ I` within `tol` element-wise.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let p = self.adjoint().matmul(self);
        p.approx_eq(&Self::identity(self.rows), tol)
    }

    /// `true` if every element is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Largest element-wise modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: Self) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: Self) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| -*z).collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Self) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Mul<&CVector> for &CMatrix {
    type Output = CVector;
    fn mul(self, rhs: &CVector) -> CVector {
        self.matvec(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C_I;
    use proptest::prelude::*;

    // The bitwise oracles of `matmul_packed_into` and
    // `ger_hermitian_upper_panels`.
    impl CMatrix {
        /// Matrix product `A·B` written into an existing buffer: the oracle
        /// of [`Self::matmul_packed_into`]'s tests. Bit-identical to
        /// `matmul`: the output is zeroed, then accumulated with the same
        /// skip-zero `i, k, j` loop in the same order.
        ///
        /// # Panics
        ///
        /// Panics if inner dimensions disagree or `out` has the wrong shape.
        fn matmul_into(&self, other: &Self, out: &mut Self) {
            assert_eq!(
                self.cols, other.rows,
                "matmul dimension mismatch {}x{} · {}x{}",
                self.rows, self.cols, other.rows, other.cols
            );
            assert_eq!(
                (out.rows, out.cols),
                (self.rows, other.cols),
                "matmul_into output shape mismatch"
            );
            out.data.fill(C_ZERO);
            for i in 0..self.rows {
                for k in 0..self.cols {
                    let aik = self[(i, k)];
                    if aik.approx_zero(0.0) {
                        continue;
                    }
                    for j in 0..other.cols {
                        out[(i, j)] += aik * other[(k, j)];
                    }
                }
            }
        }

        /// Hermitian rank-1 update `self += α·x·x†`, writing only the
        /// diagonal and strict upper triangle: the single-vector oracle of
        /// [`Self::ger_hermitian_upper_panels`]'s tests.
        ///
        /// # Panics
        ///
        /// Panics if `self` is not square or `x.dim() != self.rows()`.
        fn ger_hermitian_upper(&mut self, alpha: f64, x: &CVector) {
            assert!(self.is_square(), "ger_hermitian_upper needs a square matrix");
            assert_eq!(x.dim(), self.rows, "ger_assign row dimension mismatch");
            let xs = x.as_slice();
            let n = self.rows;
            // qfc-lint: hot
            for (i, &xi) in xs.iter().enumerate() {
                let xa = xi.scale(alpha);
                let row = &mut self.data[i * n + i..(i + 1) * n];
                for (o, &yj) in row.iter_mut().zip(&xs[i..]) {
                    *o += xa * yj.conj();
                }
            }
        }
    }

    #[test]
    fn identity_and_trace() {
        let id = CMatrix::identity(3);
        assert_eq!(id.trace().re, 3.0);
        assert!(id.is_hermitian(0.0));
        assert!(id.is_unitary(1e-15));
    }

    #[test]
    fn indexing_row_major() {
        let m = CMatrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)].re, 2.0);
        assert_eq!(m[(1, 0)].re, 3.0);
        assert_eq!(m.row(1), CVector::from_real(&[3.0, 4.0]));
        assert_eq!(m.col(0), CVector::from_real(&[1.0, 3.0]));
    }

    #[test]
    fn matmul_known_product() {
        let a = CMatrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = CMatrix::from_real_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        let expect = CMatrix::from_real_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = CMatrix::from_fn(3, 3, |i, j| Complex64::new(i as f64, j as f64));
        assert!(a.matmul(&CMatrix::identity(3)).approx_eq(&a, 0.0));
        assert!(CMatrix::identity(3).matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn adjoint_conjugates_and_transposes() {
        let m = CMatrix::from_vec(1, 2, vec![C_I, Complex64::new(1.0, 2.0)]);
        let a = m.adjoint();
        assert_eq!(a.rows(), 2);
        assert_eq!(a[(0, 0)], -C_I);
        assert_eq!(a[(1, 0)], Complex64::new(1.0, -2.0));
    }

    #[test]
    fn pauli_y_is_hermitian_and_unitary() {
        let y = CMatrix::from_vec(2, 2, vec![C_ZERO, -C_I, C_I, C_ZERO]);
        assert!(y.is_hermitian(0.0));
        assert!(y.is_unitary(1e-15));
        // Y² = I
        assert!(y.matmul(&y).approx_eq(&CMatrix::identity(2), 1e-15));
    }

    #[test]
    fn kron_of_identities() {
        let k = CMatrix::identity(2).kron(&CMatrix::identity(3));
        assert!(k.approx_eq(&CMatrix::identity(6), 0.0));
    }

    #[test]
    fn kron_trace_is_product_of_traces() {
        let a = CMatrix::from_real_rows(&[&[1.0, 5.0], &[0.0, 2.0]]);
        let b = CMatrix::from_real_rows(&[&[3.0, 1.0], &[1.0, 4.0]]);
        let k = a.kron(&b);
        assert!((k.trace() - a.trace() * b.trace()).approx_zero(1e-12));
    }

    #[test]
    fn outer_product_is_rank_one_projector() {
        let v = CVector::from_real(&[1.0, 0.0]).normalized();
        let p = CMatrix::outer(&v, &v);
        assert!(p.matmul(&p).approx_eq(&p, 1e-14));
        assert!((p.trace().re - 1.0).abs() < 1e-14);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = CMatrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = CVector::from_real(&[1.0, -1.0]);
        let r = m.matvec(&v);
        assert_eq!(r, CVector::from_real(&[-1.0, -1.0]));
    }

    #[test]
    fn sandwich_expectation() {
        let z = CMatrix::from_real_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        let plus = CVector::from_real(&[1.0, 1.0]).normalized();
        assert!(z.sandwich(&plus, &plus).approx_zero(1e-14));
        let zero = CVector::basis(2, 0);
        assert!((z.sandwich(&zero, &zero).re - 1.0).abs() < 1e-14);
    }

    #[test]
    fn diag_and_from_fn() {
        let d = CMatrix::diag(&[C_ONE, C_I]);
        assert_eq!(d[(1, 1)], C_I);
        assert_eq!(d[(0, 1)], C_ZERO);
        let f = CMatrix::from_fn(2, 2, |i, j| Complex64::real((i + j) as f64));
        assert_eq!(f[(1, 1)].re, 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Deterministic pseudo-random test matrix (no RNG dependency).
    fn scrambled_rect(rows: usize, cols: usize, salt: u64) -> CMatrix {
        CMatrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
                .wrapping_add(salt);
            let x = (h ^ (h >> 31)) as f64 / u64::MAX as f64;
            let y = (h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11) as f64 / (1u64 << 53) as f64;
            Complex64::new(x - 0.5, y - 0.5)
        })
    }

    fn scrambled(n: usize, salt: u64) -> CMatrix {
        scrambled_rect(n, n, salt)
    }

    fn bits_eq(a: &CMatrix, b: &CMatrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        for n in [1, 2, 4, 7] {
            let a = scrambled(n, 1);
            let b = scrambled(n, 2);
            let mut out = CMatrix::from_fn(n, n, |_, _| C_I); // pre-dirtied
            a.matmul_into(&b, &mut out);
            assert!(bits_eq(&out, &a.matmul(&b)), "n = {n}");
        }
        // Sparse LHS exercises the skip-zero path.
        let mut a = scrambled(5, 3);
        for k in 0..5 {
            a[(2, k)] = C_ZERO;
            a[(k, 4)] = C_ZERO;
        }
        let b = scrambled(5, 4);
        let mut out = CMatrix::zeros(5, 5);
        a.matmul_into(&b, &mut out);
        assert!(bits_eq(&out, &a.matmul(&b)));
    }

    #[test]
    fn trace_of_product_bit_identical() {
        for n in [1, 2, 4, 16] {
            let a = scrambled(n, 5);
            let b = scrambled(n, 6);
            let full = a.matmul(&b).trace();
            let fast = a.trace_of_product(&b);
            assert_eq!(full.re.to_bits(), fast.re.to_bits(), "n = {n}");
            assert_eq!(full.im.to_bits(), fast.im.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn add_scaled_assign_bit_identical() {
        let a = scrambled(6, 7);
        let b = scrambled(6, 8);
        let s = 0.731;
        let mut fast = a.clone();
        fast.add_scaled_assign(&b, s);
        assert!(bits_eq(&fast, &(&a + &b.scale(s))));
    }

    #[test]
    fn scale_in_place_and_fill_zero() {
        let a = scrambled(4, 9);
        let mut fast = a.clone();
        fast.scale_in_place(-1.75);
        assert!(bits_eq(&fast, &a.scale(-1.75)));
        fast.fill_zero();
        assert!(bits_eq(&fast, &CMatrix::zeros(4, 4)));
    }

    #[test]
    fn frobenius_distance_bit_identical() {
        let a = scrambled(6, 10);
        let b = scrambled(6, 11);
        let diff = &a - &b;
        let folded = diff.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert_eq!(a.frobenius_distance(&b).to_bits(), folded.to_bits());
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_rejects_bad_shape() {
        let a = CMatrix::identity(2);
        let mut out = CMatrix::zeros(3, 3);
        a.matmul_into(&a.clone(), &mut out);
    }

    #[test]
    fn copy_from_is_bitwise() {
        let src = scrambled(5, 3);
        let mut dst = CMatrix::zeros(5, 5);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Overwrites, not accumulates.
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn copy_from_rejects_shape_mismatch() {
        let src = CMatrix::identity(3);
        let mut dst = CMatrix::zeros(2, 2);
        dst.copy_from(&src);
    }

    #[test]
    fn lerp_identity_endpoints_and_midpoint() {
        let a = scrambled(4, 7);

        // γ = 1 is the identity map on the matrix.
        let mut g1 = a.clone();
        g1.lerp_identity_in_place(1.0);
        assert_eq!(g1, a);

        // γ = 0 collapses to the identity matrix.
        let mut g0 = a.clone();
        g0.lerp_identity_in_place(0.0);
        assert!(g0.approx_eq(&CMatrix::identity(4), 0.0));

        // Generic γ matches the two-temporary formula elementwise.
        let gamma = 2.5;
        let mut gm = a.clone();
        gm.lerp_identity_in_place(gamma);
        let expect = &CMatrix::identity(4).scale(1.0 - gamma) + &a.scale(gamma);
        assert!(gm.approx_eq(&expect, 0.0));
    }

    #[test]
    fn lerp_identity_preserves_hermiticity() {
        let s = scrambled(4, 13);
        let herm = &s + &s.adjoint();
        let mut mixed = herm.clone();
        mixed.lerp_identity_in_place(3.0);
        assert!(mixed.is_hermitian(0.0));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn lerp_identity_rejects_rectangular() {
        let mut m = CMatrix::zeros(2, 3);
        m.lerp_identity_in_place(1.5);
    }

    fn vbits_eq(a: &CVector, b: &CVector) -> bool {
        a.dim() == b.dim()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn packed_gemm_bit_identical_square_and_rect() {
        let mut scratch = GemmScratch::new();
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 4),
            (5, 1, 7),
            (1, 8, 1),
            (16, 16, 16),
            (64, 64, 64),
            (64, 3, 17),
        ] {
            let a = scrambled_rect(m, k, 101);
            let b = scrambled_rect(k, n, 202);
            let mut oracle = CMatrix::zeros(m, n);
            a.matmul_into(&b, &mut oracle);
            let mut fast = CMatrix::from_fn(m, n, |_, _| C_I); // pre-dirtied
            a.matmul_packed_into(&b, &mut fast, &mut scratch);
            assert!(bits_eq(&fast, &oracle), "{m}x{k} · {k}x{n}");
        }
    }

    #[test]
    fn packed_gemm_bit_identical_sparse_rows() {
        // Zeros in the LHS exercise the skip-zero branch, which must
        // skip in exactly the same places as `matmul_into` (skipping a
        // zero is not an IEEE no-op: −0 + 0 = +0).
        let mut a = scrambled_rect(6, 5, 301);
        for k in 0..5 {
            a[(2, k)] = C_ZERO;
        }
        a[(0, 3)] = C_ZERO;
        a[(4, 0)] = C_ZERO;
        let b = scrambled_rect(5, 6, 302);
        let mut oracle = CMatrix::zeros(6, 6);
        a.matmul_into(&b, &mut oracle);
        let mut fast = CMatrix::zeros(6, 6);
        let mut scratch = GemmScratch::new();
        a.matmul_packed_into(&b, &mut fast, &mut scratch);
        assert!(bits_eq(&fast, &oracle));
    }

    #[test]
    fn packed_gemm_handles_empty_shapes() {
        let mut scratch = GemmScratch::new();
        for (m, k, n) in [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0)] {
            let a = scrambled_rect(m, k, 401);
            let b = scrambled_rect(k, n, 402);
            let mut oracle = CMatrix::zeros(m, n);
            a.matmul_into(&b, &mut oracle);
            let mut fast = CMatrix::zeros(m, n);
            a.matmul_packed_into(&b, &mut fast, &mut scratch);
            assert!(bits_eq(&fast, &oracle), "{m}x{k} · {k}x{n}");
        }
    }

    #[test]
    fn packed_gemm_scratch_reuse_across_shapes() {
        // One scratch carried across different shapes must not leak
        // stale packed entries between calls.
        let mut scratch = GemmScratch::new();
        for (n, salt) in [(8, 11), (3, 12), (8, 13), (5, 14)] {
            let a = scrambled(n, salt);
            let b = scrambled(n, salt + 100);
            let mut oracle = CMatrix::zeros(n, n);
            a.matmul_into(&b, &mut oracle);
            let mut fast = CMatrix::zeros(n, n);
            a.matmul_packed_into(&b, &mut fast, &mut scratch);
            assert!(bits_eq(&fast, &oracle), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn packed_gemm_rejects_bad_output_shape() {
        let a = CMatrix::identity(2);
        let b = CMatrix::identity(2);
        let mut out = CMatrix::zeros(3, 3);
        a.matmul_packed_into(&b, &mut out, &mut GemmScratch::new());
    }

    #[test]
    fn matvec_into_bit_identical_to_matvec() {
        for (m, n) in [(1, 1), (3, 5), (5, 3), (16, 16)] {
            let a = scrambled_rect(m, n, 501);
            let v: CVector = (0..n)
                .map(|j| Complex64::new(j as f64 - 1.5, 0.25 * j as f64))
                .collect();
            let mut out = CVector::from_vec(vec![C_I; m]); // pre-dirtied
            a.matvec_into(&v, &mut out);
            assert!(vbits_eq(&out, &a.matvec(&v)), "{m}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "output dimension mismatch")]
    fn matvec_into_rejects_bad_output_dim() {
        let a = CMatrix::identity(2);
        let v = CVector::from_real(&[1.0, 2.0]);
        let mut out = CVector::from_real(&[0.0; 3]);
        a.matvec_into(&v, &mut out);
    }

    #[test]
    fn ger_assign_matches_outer_accumulation() {
        let x: CVector = (0..4).map(|i| Complex64::new(0.5 * i as f64, -0.25)).collect();
        let y: CVector = (0..3).map(|j| Complex64::new(-0.125, 0.75 * j as f64)).collect();
        let alpha = 0.731;
        let mut fast = scrambled_rect(4, 3, 601);
        let mut slow = fast.clone();
        fast.ger_assign(alpha, &x, &y);
        slow.add_scaled_assign(&CMatrix::outer(&x, &y), alpha);
        // Same math, different association (α·x vs α·(x·y†)): equal to
        // rounding, not bit-for-bit.
        assert!(fast.approx_eq(&slow, 1e-15));
        // Exact contract: each element gains (α·xᵢ)·conj(yⱼ).
        let mut manual = scrambled_rect(4, 3, 601);
        for i in 0..4 {
            for j in 0..3 {
                let d = x[i].scale(alpha) * y[j].conj();
                let s = manual[(i, j)] + d;
                manual[(i, j)] = s;
            }
        }
        assert!(bits_eq(&fast, &manual));
    }

    #[test]
    #[should_panic(expected = "ger_assign row dimension mismatch")]
    fn ger_assign_rejects_bad_shape() {
        let mut m = CMatrix::zeros(2, 2);
        let x = CVector::from_real(&[1.0, 2.0, 3.0]);
        let y = CVector::from_real(&[1.0, 2.0]);
        m.ger_assign(1.0, &x, &y);
    }

    #[test]
    fn sandwich_bit_identical_to_two_step_form() {
        for n in [1, 2, 5, 16] {
            let a = scrambled(n, 801);
            let x: CVector = (0..n)
                .map(|i| Complex64::new(0.3 * i as f64 - 0.7, 0.1 * i as f64))
                .collect();
            let y: CVector = (0..n)
                .map(|i| Complex64::new(-0.2 * i as f64, 0.6 - 0.05 * i as f64))
                .collect();
            let fused = a.sandwich(&x, &y);
            let two_step = x.dot(&a.matvec(&y));
            assert_eq!(fused.re.to_bits(), two_step.re.to_bits(), "n = {n}");
            assert_eq!(fused.im.to_bits(), two_step.im.to_bits(), "n = {n}");
        }
    }

    /// Hermitian version of `scrambled`: `(A + A†)/2`.
    fn scrambled_hermitian(n: usize, salt: u64) -> CMatrix {
        let a = scrambled(n, salt);
        CMatrix::from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5))
    }

    #[test]
    fn quadratic_form_hermitian_matches_sandwich() {
        // Upper-triangle association differs from the full sandwich,
        // so agreement is to rounding, not bitwise.
        for n in [1usize, 2, 3, 4, 5, 7, 9, 16, 64] {
            let h = scrambled_hermitian(n, 611);
            let x: CVector = (0..n)
                .map(|i| Complex64::new(0.3 * i as f64 - 0.7, 0.09 * i as f64 - 0.2))
                .collect();
            let full = h.sandwich(&x, &x);
            let half = h.quadratic_form_hermitian(&x);
            let scale = full.abs().max(1.0);
            assert!((full.re - half).abs() <= 1e-12 * scale, "n = {n}: {full:?} vs {half}");
            // Deterministic: same inputs, same bits.
            let again = h.quadratic_form_hermitian(&x);
            assert_eq!(half.to_bits(), again.to_bits(), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn quadratic_form_hermitian_rejects_bad_dim() {
        let h = scrambled_hermitian(3, 2);
        let _ = h.quadratic_form_hermitian(&CVector::zeros(4));
    }

    #[test]
    fn ger_hermitian_upper_plus_mirror_matches_full_ger() {
        for n in [1usize, 2, 3, 5, 8, 16, 33] {
            let h = scrambled_hermitian(n, 709);
            let x: CVector = (0..n)
                .map(|i| Complex64::new(0.2 * i as f64 - 0.5, 0.5 - 0.13 * i as f64))
                .collect();
            let mut full = h.clone();
            full.ger_assign(0.75, &x, &x);
            let mut half = h.clone();
            half.ger_hermitian_upper(0.75, &x);
            half.hermitianize_upper();
            assert!(half.approx_eq(&full, 1e-13), "n = {n}");
            // The strict upper triangle runs the exact same product
            // order as the full ger — bitwise equal there. Diagonals
            // agree bitwise in re; the mirror zeroes the round-off im
            // that the full ger leaves behind.
            for i in 0..n {
                let (a, b) = (half[(i, i)], full[(i, i)]);
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n = {n} diag ({i})");
                assert_eq!(a.im.to_bits(), 0.0f64.to_bits(), "n = {n} diag im ({i})");
                assert!(
                    b.im.abs() <= 1e-14 * (1.0 + b.re.abs()),
                    "n = {n} diag im ({i}): {}",
                    b.im
                );
                for j in i + 1..n {
                    let (a, b) = (half[(i, j)], full[(i, j)]);
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n = {n} ({i},{j})");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n = {n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ger_assign row dimension mismatch")]
    fn ger_hermitian_upper_rejects_bad_dim() {
        let mut h = scrambled_hermitian(3, 3);
        h.ger_hermitian_upper(1.0, &CVector::zeros(2));
    }

    /// `m` deterministic vectors of dimension `d`, and the same vectors
    /// as panels.
    fn panel_set(d: usize, m: usize, salt: usize) -> (Vec<CVector>, VectorPanels) {
        let vecs: Vec<CVector> = (0..m)
            .map(|k| {
                (0..d)
                    .map(|i| {
                        Complex64::new(
                            0.1 * ((i + k + salt) % 13) as f64 - 0.6,
                            0.23 - 0.05 * ((i * (k + 1) + salt) % 11) as f64,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut panels = VectorPanels::zeros(d, m);
        for (k, v) in vecs.iter().enumerate() {
            panels.set(k, v.as_slice());
        }
        (vecs, panels)
    }

    /// The dimensions the tomography engine meets, and 0..=9 vectors:
    /// every remainder of a four-vector panel.
    const PANEL_DIMS: [usize; 4] = [2, 4, 16, 64];

    #[test]
    fn quadratic_forms_hermitian_panels_bitwise_match_single() {
        for d in PANEL_DIMS {
            let h = scrambled_hermitian(d, 911);
            for m in 0..=9usize {
                let (vecs, panels) = panel_set(d, m, 3);
                let mut out = vec![f64::NAN; m];
                h.quadratic_forms_hermitian_panels(&panels, &mut out);
                for (k, x) in vecs.iter().enumerate() {
                    let single = h.quadratic_form_hermitian(x);
                    assert_eq!(out[k].to_bits(), single.to_bits(), "d = {d}, m = {m}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn ger_hermitian_upper_panels_bitwise_match_sequential() {
        for d in PANEL_DIMS {
            let h = scrambled_hermitian(d, 1013);
            for m in 0..=9usize {
                let (vecs, panels) = panel_set(d, m, 7);
                let alphas: Vec<f64> = (0..m).map(|k| 0.5 + 0.1 * k as f64).collect();
                let mut batched = h.clone();
                batched.ger_hermitian_upper_panels(&alphas, &panels);
                let mut sequential = h.clone();
                for (&alpha, x) in alphas.iter().zip(&vecs) {
                    sequential.ger_hermitian_upper(alpha, x);
                }
                assert!(bits_eq(&batched, &sequential), "d = {d}, m = {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ger weight count mismatch")]
    fn ger_hermitian_upper_panels_rejects_weight_count() {
        let (_, panels) = panel_set(3, 5, 0);
        scrambled_hermitian(3, 3).ger_hermitian_upper_panels(&[1.0; 4], &panels);
    }

    #[test]
    fn hermitianize_upper_mirrors_and_preserves_upper() {
        let a = scrambled(5, 811);
        let mut m = a.clone();
        m.hermitianize_upper();
        for i in 0..5 {
            assert_eq!(m[(i, i)].im.to_bits(), 0.0f64.to_bits(), "diag im ({i})");
            assert_eq!(m[(i, i)].re.to_bits(), a[(i, i)].re.to_bits(), "diag re ({i})");
            for j in i + 1..5 {
                // Upper untouched, lower the exact conjugate.
                assert_eq!(m[(i, j)].re.to_bits(), a[(i, j)].re.to_bits());
                assert_eq!(m[(i, j)].im.to_bits(), a[(i, j)].im.to_bits());
                assert_eq!(m[(j, i)].re.to_bits(), m[(i, j)].re.to_bits());
                assert_eq!(m[(j, i)].im.to_bits(), (-m[(i, j)].im).to_bits());
            }
        }
        assert!(m.is_hermitian(0.0));
    }

    proptest! {
        /// `matmul_packed_into` equals `matmul_into` bit for bit across
        /// arbitrary square and non-square shapes — including degenerate
        /// 1-dim and empty operands — and arbitrary sparsity patterns
        /// (zeroed entries exercise the skip-zero branch).
        #[test]
        fn packed_gemm_equals_naive_gemm_bitwise(
            m in 0usize..25,
            k in 0usize..25,
            n in 0usize..25,
            salt in 0u64..1000,
            zero_mask in 0u64..8u64,
        ) {
            let mut a = scrambled_rect(m, k, salt);
            // Sprinkle exact zeros so the skip-zero path fires.
            for i in 0..m {
                for j in 0..k {
                    if (i as u64 + j as u64 + salt) % 8 < zero_mask {
                        a[(i, j)] = C_ZERO;
                    }
                }
            }
            let b = scrambled_rect(k, n, salt.wrapping_add(7));
            let mut oracle = CMatrix::zeros(m, n);
            a.matmul_into(&b, &mut oracle);
            let mut fast = CMatrix::from_fn(m, n, |_, _| C_I);
            let mut scratch = GemmScratch::new();
            a.matmul_packed_into(&b, &mut fast, &mut scratch);
            prop_assert!(bits_eq(&fast, &oracle));
        }

        /// Large-shape spot check at the bench-relevant d = 64 corner
        /// (fewer cases, run through the same oracle).
        #[test]
        fn packed_gemm_equals_naive_gemm_large(seed in 0u64..8) {
            let a = scrambled_rect(64, 64, seed);
            let b = scrambled_rect(64, 33, seed.wrapping_add(3));
            let mut oracle = CMatrix::zeros(64, 33);
            a.matmul_into(&b, &mut oracle);
            let mut fast = CMatrix::zeros(64, 33);
            let mut scratch = GemmScratch::new();
            a.matmul_packed_into(&b, &mut fast, &mut scratch);
            prop_assert!(bits_eq(&fast, &oracle));
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = CMatrix::identity(2);
        let b = a.scale(2.0);
        assert_eq!((&a + &a), b);
        assert!((&b - &a).approx_eq(&a, 0.0));
        assert!((-&a).approx_eq(&a.scale(-1.0), 0.0));
        let c = b.scale_c(C_I);
        assert_eq!(c[(0, 0)], Complex64::new(0.0, 2.0));
    }
}
