//! Jones calculus: polarization states and optics for the §III
//! cross-polarized pair experiment (waveplates, rotatable polarizer —
//! the elements between the chip and the detectors).

use serde::{Deserialize, Serialize};

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::{Complex64, C_ONE, C_ZERO};
use qfc_mathkit::cvector::CVector;

/// A (normalized) Jones polarization state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JonesVector {
    amps: CVector,
}

impl JonesVector {
    /// Linear polarization at angle `θ` from horizontal.
    pub fn linear(theta: f64) -> Self {
        Self {
            amps: CVector::from_real(&[theta.cos(), theta.sin()]),
        }
    }

    /// Intensity transmitted through an optical element (the squared
    /// norm after applying a possibly lossy Jones matrix).
    ///
    /// Allocation-free: folds `‖M·a‖²` row by row with `matvec`'s exact
    /// per-row accumulation order, so the value is bit-identical to the
    /// former `matvec(..).norm_sqr()` without the temporary vector —
    /// this sits inside per-sample polarization sweeps.
    pub fn intensity_after(&self, element: &JonesMatrix) -> f64 {
        let m = &element.matrix;
        let mut acc = 0.0;
        // qfc-lint: hot
        for i in 0..m.rows() {
            let mut z = C_ZERO;
            for j in 0..m.cols() {
                z += m[(i, j)] * self.amps[j];
            }
            acc += z.norm_sqr();
        }
        acc
    }
}

/// A 2×2 Jones matrix (possibly non-unitary, e.g. a polarizer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JonesMatrix {
    matrix: CMatrix,
}

impl JonesMatrix {
    /// Ideal linear polarizer at angle `θ` from horizontal.
    pub fn polarizer(theta: f64) -> Self {
        let (c, s) = (theta.cos(), theta.sin());
        Self {
            matrix: CMatrix::from_real_rows(&[&[c * c, c * s], &[c * s, s * s]]),
        }
    }

    /// Half-wave plate with fast axis at `θ`.
    pub fn half_wave_plate(theta: f64) -> Self {
        let (c, s) = ((2.0 * theta).cos(), (2.0 * theta).sin());
        Self {
            matrix: CMatrix::from_real_rows(&[&[c, s], &[s, -c]]),
        }
    }

    /// Quarter-wave plate with fast axis at `θ`.
    pub fn quarter_wave_plate(theta: f64) -> Self {
        let (c, s) = (theta.cos(), theta.sin());
        let i = Complex64::new(0.0, 1.0);
        // R(θ)·diag(1, i)·R(−θ).
        let m = CMatrix::from_vec(
            2,
            2,
            vec![
                C_ONE * (c * c) + i * (s * s),
                (C_ONE - i) * (c * s),
                (C_ONE - i) * (c * s),
                C_ONE * (s * s) + i * (c * c),
            ],
        );
        Self { matrix: m }
    }

    /// Free propagation with a relative phase `φ` on the vertical
    /// component (a birefringent element).
    pub fn retarder(phi: f64) -> Self {
        Self {
            matrix: CMatrix::diag(&[C_ONE, Complex64::cis(phi)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    /// Light through `first`, then `next`.
    fn chain(first: &JonesMatrix, next: &JonesMatrix) -> JonesMatrix {
        JonesMatrix {
            matrix: &next.matrix * &first.matrix,
        }
    }

    #[test]
    fn malus_law() {
        let h = JonesVector::linear(0.0);
        for theta in [0.0, 0.3, std::f64::consts::FRAC_PI_4, 1.2] {
            let i = h.intensity_after(&JonesMatrix::polarizer(theta));
            assert!((i - theta.cos().powi(2)).abs() < TOL, "θ = {theta}");
        }
    }

    #[test]
    fn hwp_rotates_polarization() {
        // HWP at 45° maps H → V.
        let out_int = JonesVector::linear(0.0)
            .intensity_after(&chain(
                &JonesMatrix::half_wave_plate(std::f64::consts::FRAC_PI_4),
                &JonesMatrix::polarizer(std::f64::consts::FRAC_PI_2),
            ));
        assert!((out_int - 1.0).abs() < TOL);
    }

    #[test]
    fn qwp_makes_circular_from_diagonal() {
        // Diagonal light through a QWP at 0° becomes circular: equal
        // intensity through any polarizer.
        let d = JonesVector::linear(std::f64::consts::FRAC_PI_4);
        let qwp = JonesMatrix::quarter_wave_plate(0.0);
        for theta in [0.0, 0.5, 1.0, 1.5] {
            let i = d.intensity_after(&chain(&qwp, &JonesMatrix::polarizer(theta)));
            assert!((i - 0.5).abs() < 1e-9, "θ = {theta}: {i}");
        }
    }

    #[test]
    fn retarder_preserves_intensity() {
        let d = JonesVector::linear(0.9);
        let ret = JonesMatrix::retarder(1.2);
        assert!((d.intensity_after(&ret) - 1.0).abs() < TOL);
    }
}
