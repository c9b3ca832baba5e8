//! Dense complex vectors.

use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::complex::{Complex64, C_ZERO};

/// A dense complex vector.
///
/// Used throughout the workspace for quantum state amplitudes, spectral
/// samples, and interferometer mode amplitudes.
///
/// # Examples
///
/// ```
/// use qfc_mathkit::cvector::CVector;
/// use qfc_mathkit::complex::Complex64;
///
/// let v = CVector::basis(4, 1);
/// assert_eq!(v.dim(), 4);
/// assert_eq!(v[1], Complex64::real(1.0));
/// assert!((v.norm() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CVector {
    data: Vec<Complex64>,
}

impl CVector {
    /// Creates a vector of `dim` zeros.
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![C_ZERO; dim],
        }
    }

    /// Creates a vector from raw components.
    pub fn from_vec(data: Vec<Complex64>) -> Self {
        Self { data }
    }

    /// Creates a vector from real components.
    pub fn from_real(data: &[f64]) -> Self {
        Self {
            data: data.iter().map(|&x| Complex64::real(x)).collect(),
        }
    }

    /// Computational-basis vector `e_k` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= dim`.
    pub fn basis(dim: usize, k: usize) -> Self {
        assert!(k < dim, "basis index {k} out of range for dimension {dim}");
        let mut v = Self::zeros(dim);
        v.data[k] = Complex64::real(1.0);
        v
    }

    /// Dimension (number of components).
    #[inline]
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no components.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the components.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the components.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }

    /// Hermitian inner product `⟨self|other⟩ = Σ conj(selfᵢ)·otherᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Self) -> Complex64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch in dot");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared Euclidean norm `Σ |vᵢ|²`.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns a normalized copy (unit norm).
    ///
    /// # Panics
    ///
    /// Panics if the vector is (numerically) zero.
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize zero vector");
        self.scale(1.0 / n)
    }

    /// Normalizes in place.
    ///
    /// # Panics
    ///
    /// Panics if the vector is (numerically) zero.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize zero vector");
        for z in &mut self.data {
            *z = *z / n;
        }
    }

    /// Scales all components by a real factor.
    pub fn scale(&self, s: f64) -> Self {
        Self {
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }

    /// Scales all components by a complex factor.
    pub fn scale_c(&self, s: Complex64) -> Self {
        Self {
            data: self.data.iter().map(|z| *z * s).collect(),
        }
    }

    /// Component-wise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Tensor (Kronecker) product `self ⊗ other`.
    ///
    /// ```
    /// use qfc_mathkit::cvector::CVector;
    /// let a = CVector::basis(2, 0);
    /// let b = CVector::basis(2, 1);
    /// let ab = a.kron(&b);
    /// assert_eq!(ab.dim(), 4);
    /// assert_eq!(ab[1].re, 1.0); // |01⟩
    /// ```
    pub fn kron(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.dim() * other.dim());
        for a in &self.data {
            for b in &other.data {
                out.push(*a * *b);
            }
        }
        Self { data: out }
    }

    /// `true` if every component is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

impl Index<usize> for CVector {
    type Output = Complex64;
    #[inline]
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

impl Add for &CVector {
    type Output = CVector;
    fn add(self, rhs: Self) -> CVector {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch in add");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVector {
    type Output = CVector;
    fn sub(self, rhs: Self) -> CVector {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch in sub");
        CVector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        CVector {
            data: self.data.iter().map(|z| -*z).collect(),
        }
    }
}

impl Mul<Complex64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: Complex64) -> CVector {
        self.scale_c(rhs)
    }
}

impl FromIterator<Complex64> for CVector {
    fn from_iter<I: IntoIterator<Item = Complex64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<Complex64> for CVector {
    fn extend<I: IntoIterator<Item = Complex64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a CVector {
    type Item = &'a Complex64;
    type IntoIter = std::slice::Iter<'a, Complex64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C_I;

    #[test]
    fn zeros_and_basis() {
        let z = CVector::zeros(3);
        assert_eq!(z.dim(), 3);
        assert_eq!(z.norm(), 0.0);
        let e = CVector::basis(3, 2);
        assert_eq!(e[2].re, 1.0);
        assert_eq!(e[0], C_ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = CVector::basis(2, 2);
    }

    #[test]
    fn dot_is_conjugate_linear_in_first_argument() {
        let a = CVector::from_vec(vec![C_I, Complex64::new(1.0, 1.0)]);
        let b = CVector::from_vec(vec![Complex64::real(2.0), C_I]);
        let d = a.dot(&b);
        // conj(i)*2 + conj(1+i)*i = -2i + (1-i)i = -2i + i + 1 = 1 - i
        assert!(d.approx_eq(Complex64::new(1.0, -1.0), 1e-14));
    }

    #[test]
    fn norm_and_normalize() {
        let mut v = CVector::from_real(&[3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-15);
        let w = CVector::from_real(&[0.0, 2.0]).normalized();
        assert!((w.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        CVector::zeros(2).normalize();
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = CVector::from_real(&[1.0, 2.0]);
        let b = CVector::from_real(&[3.0, 4.0, 5.0]);
        let k = a.kron(&b);
        assert_eq!(k.dim(), 6);
        assert_eq!(k[0].re, 3.0);
        assert_eq!(k[5].re, 10.0);
    }

    #[test]
    fn kron_norm_is_product_of_norms() {
        let a = CVector::from_vec(vec![C_I, Complex64::new(0.5, -0.5)]);
        let b = CVector::from_real(&[1.0, 1.0, 2.0]);
        let k = a.kron(&b);
        assert!((k.norm() - a.norm() * b.norm()).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = CVector::from_real(&[1.0, 2.0]);
        let b = CVector::from_real(&[3.0, -1.0]);
        assert_eq!((&a + &b), CVector::from_real(&[4.0, 1.0]));
        assert_eq!((&a - &b), CVector::from_real(&[-2.0, 3.0]));
        assert_eq!((-&a), CVector::from_real(&[-1.0, -2.0]));
        let s = &a * C_I;
        assert!(s[0].approx_eq(C_I, 1e-15));
    }

    #[test]
    fn collect_and_extend() {
        let v: CVector = (0..3).map(|k| Complex64::real(k as f64)).collect();
        assert_eq!(v.dim(), 3);
        let mut w = CVector::zeros(0);
        w.extend(v.iter().copied());
        assert_eq!(w, v);
    }
}
