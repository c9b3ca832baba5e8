//! Double-precision complex numbers.
//!
//! The crate implements its own complex type rather than pulling in an
//! external numerics dependency; everything downstream (quantum states,
//! spectral amplitudes, interferometer transfer functions) is built on
//! [`Complex64`].

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use qfc_mathkit::complex::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity `0 + 0i`.
pub const C_ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
/// The multiplicative identity `1 + 0i`.
pub const C_ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
/// The imaginary unit `0 + 1i`.
pub const C_I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

impl Complex64 {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// ```
    /// use qfc_mathkit::complex::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(z.re.abs() < 1e-15);
    /// assert!((z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit-modulus phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|` (hypot-based, robust to overflow).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z == 0`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Self::new(self.abs().ln(), self.arg())
    }

    /// Principal square root.
    ///
    /// ```
    /// use qfc_mathkit::complex::Complex64;
    /// let z = Complex64::new(-1.0, 0.0).sqrt();
    /// assert!((z.im - 1.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), 0.5 * theta)
    }

    /// Raises to a real power via the principal branch.
    #[inline]
    pub fn powf(self, p: f64) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return if p == 0.0 { C_ONE } else { C_ZERO };
        }
        Self::from_polar(self.abs().powf(p), self.arg() * p)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// `true` when `|z| ≤ tol` component-wise.
    #[inline]
    pub fn approx_zero(self, tol: f64) -> bool {
        self.re.abs() <= tol && self.im.abs() <= tol
    }

    /// `true` when `self` and `other` differ by at most `tol` in each part.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self - other).approx_zero(tol)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w ≡ z·w⁻¹
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Add<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        Self::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        Self::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        rhs + self
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(C_ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(C_ZERO, |a, b| a + *b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(C_ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_parts() {
        let z = Complex64::new(1.5, -2.5);
        assert_eq!(z.re, 1.5);
        assert_eq!(z.im, -2.5);
        assert_eq!(Complex64::real(3.0), Complex64::new(3.0, 0.0));
        assert_eq!(Complex64::from(2.0), Complex64::real(2.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.0, -3.0);
        assert_eq!(z + C_ZERO, z);
        assert_eq!(z * C_ONE, z);
        assert!((z * z.inv()).approx_eq(C_ONE, TOL));
        assert_eq!(-z + z, C_ZERO);
        assert_eq!(z - z, C_ZERO);
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 -4i + 6i + 8 = 11 + 2i
        assert!((a * b).approx_eq(Complex64::new(11.0, 2.0), TOL));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex64::new(-2.5, 0.7);
        let b = Complex64::new(0.3, 4.0);
        assert!(((a * b) / b).approx_eq(a, TOL));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((C_I * C_I).approx_eq(-C_ONE, TOL));
    }

    #[test]
    fn conj_and_norms() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!((z * z.conj()).approx_eq(Complex64::real(25.0), TOL));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(-1.25, 0.5);
        let back = Complex64::from_polar(z.abs(), z.arg());
        assert!(back.approx_eq(z, TOL));
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exp_and_ln_are_inverse() {
        let z = Complex64::new(0.3, -1.1);
        assert!(z.exp().ln().approx_eq(z, 1e-10));
    }

    #[test]
    fn euler_identity() {
        let z = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!(z.approx_eq(-C_ONE, 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-1.0, 0.0), (3.0, -4.0), (0.0, 2.0)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-10), "sqrt failed for {z}");
        }
    }

    #[test]
    fn powf_matches_repeated_multiplication() {
        let z = Complex64::new(1.2, -0.4);
        assert!(z.powf(3.0).approx_eq(z * z * z, 1e-10));
        assert_eq!(C_ZERO.powf(2.0), C_ZERO);
        assert_eq!(C_ZERO.powf(0.0), C_ONE);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [C_ONE, C_I, Complex64::new(2.0, 1.0)];
        let s: Complex64 = xs.iter().sum();
        assert!(s.approx_eq(Complex64::new(3.0, 2.0), TOL));
        let p: Complex64 = xs.iter().copied().product();
        // (1)(i)(2+i) = i(2+i) = -1 + 2i
        assert!(p.approx_eq(Complex64::new(-1.0, 2.0), TOL));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += C_ONE;
        assert_eq!(z, Complex64::new(2.0, 1.0));
        z -= C_I;
        assert_eq!(z, Complex64::new(2.0, 0.0));
        z *= Complex64::new(0.0, 2.0);
        assert_eq!(z, Complex64::new(0.0, 4.0));
        z /= Complex64::new(0.0, 2.0);
        assert!(z.approx_eq(Complex64::new(2.0, 0.0), TOL));
        z *= 3.0;
        assert!(z.approx_eq(Complex64::new(6.0, 0.0), TOL));
    }

    #[test]
    fn mixed_real_ops() {
        let z = Complex64::new(1.0, 2.0);
        assert_eq!(z + 1.0, Complex64::new(2.0, 2.0));
        assert_eq!(z - 1.0, Complex64::new(0.0, 2.0));
        assert_eq!(z * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(z / 2.0, Complex64::new(0.5, 1.0));
        assert_eq!(2.0 * z, Complex64::new(2.0, 4.0));
        assert_eq!(1.0 + z, Complex64::new(2.0, 2.0));
    }
}
