//! Least-squares fits used to extract the paper's observables:
//! exponential coincidence decays (→ linewidth), interference fringes
//! (→ visibility), and power laws (→ OPO threshold slopes).
//!
//! Every fit is fallible: degenerate input returns a [`FitError`], which
//! converts into the workspace's `QfcError` at the driver boundary.

use crate::cast;
use serde::{Deserialize, Serialize};

/// Why a fit could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// `x` and `y` have different lengths.
    LengthMismatch,
    /// Too few (usable) points for the model's degrees of freedom.
    InsufficientData,
    /// The normal equations are singular (degenerate abscissae).
    Degenerate,
    /// A NaN or infinity appeared in the input or during elimination.
    NonFinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch => write!(f, "length mismatch"),
            Self::InsufficientData => write!(f, "insufficient data"),
            Self::Degenerate => write!(f, "degenerate (singular) system"),
            Self::NonFinite => write!(f, "non-finite value"),
        }
    }
}

impl std::error::Error for FitError {}

/// Result of an ordinary linear least-squares fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r_squared: f64,
}

/// Fits `y = slope·x + intercept` by ordinary least squares.
///
/// ```
/// use qfc_mathkit::fit::try_fit_linear;
/// let f = try_fit_linear(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).expect("three distinct points");
/// assert!((f.slope - 2.0).abs() < 1e-12);
/// assert!((f.intercept - 1.0).abs() < 1e-12);
/// assert!((f.r_squared - 1.0).abs() < 1e-12);
/// ```
///
/// # Errors
///
/// [`FitError::LengthMismatch`] when the lengths differ,
/// [`FitError::InsufficientData`] for fewer than two points,
/// [`FitError::Degenerate`] when every `x` is equal, and
/// [`FitError::NonFinite`] when the normal equations leave the finite
/// range.
pub fn try_fit_linear(x: &[f64], y: &[f64]) -> Result<LinearFit, FitError> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch);
    }
    if x.len() < 2 {
        return Err(FitError::InsufficientData);
    }
    let n = cast::to_f64(x.len());
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    if !denom.is_finite() {
        return Err(FitError::NonFinite);
    }
    if denom.abs() == 0.0 {
        return Err(FitError::Degenerate);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    if !slope.is_finite() || !intercept.is_finite() {
        return Err(FitError::NonFinite);
    }

    let mean_y = sy / n;
    let ss_tot: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| (b - (slope * a + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else {
        1.0
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Result of an exponential-decay fit `y(t) = amplitude · e^{−t/tau}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// Amplitude at `t = 0`.
    pub amplitude: f64,
    /// Decay time constant `tau` (same units as `t`).
    pub tau: f64,
    /// R² of the underlying log-linear fit.
    pub r_squared: f64,
}

/// Fits an exponential decay via weighted log-linear least squares.
///
/// Points with `y <= 0` are ignored (they carry no logarithmic
/// information); each retained point is weighted by `y`, the
/// inverse-variance weight for Poisson counts in the log domain.
///
/// # Errors
///
/// [`FitError::LengthMismatch`] when the lengths differ,
/// [`FitError::InsufficientData`] when fewer than two positive points
/// remain, and [`FitError::Degenerate`] / [`FitError::NonFinite`] for a
/// singular or overflowing fit.
pub fn try_fit_exponential_decay(t: &[f64], y: &[f64]) -> Result<ExponentialFit, FitError> {
    if t.len() != y.len() {
        return Err(FitError::LengthMismatch);
    }
    let pts: Vec<(f64, f64, f64)> = t
        .iter()
        .zip(y)
        .filter(|&(_, &yv)| yv > 0.0)
        .map(|(&tv, &yv)| (tv, yv.ln(), yv))
        .collect();
    if pts.len() < 2 {
        return Err(FitError::InsufficientData);
    }
    let sw: f64 = pts.iter().map(|p| p.2).sum();
    let swx: f64 = pts.iter().map(|p| p.2 * p.0).sum();
    let swy: f64 = pts.iter().map(|p| p.2 * p.1).sum();
    let swxx: f64 = pts.iter().map(|p| p.2 * p.0 * p.0).sum();
    let swxy: f64 = pts.iter().map(|p| p.2 * p.0 * p.1).sum();
    let denom = sw * swxx - swx * swx;
    if !denom.is_finite() {
        return Err(FitError::NonFinite);
    }
    if denom.abs() == 0.0 {
        return Err(FitError::Degenerate);
    }
    let slope = (sw * swxy - swx * swy) / denom;
    let intercept = (swy - slope * swx) / sw;
    if !slope.is_finite() || !intercept.is_finite() {
        return Err(FitError::NonFinite);
    }

    let mean_y = swy / sw;
    let ss_tot: f64 = pts.iter().map(|p| p.2 * (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| p.2 * (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else {
        1.0
    };
    Ok(ExponentialFit {
        amplitude: intercept.exp(),
        tau: -1.0 / slope,
        r_squared,
    })
}

/// Result of a sinusoidal fringe fit
/// `y(φ) = offset · (1 + visibility · cos(φ + phase0))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FringeFit {
    /// Mean level of the fringe.
    pub offset: f64,
    /// Raw visibility `(max − min)/(max + min)` of the fitted curve.
    pub visibility: f64,
    /// Phase of the cosine at `φ = 0`.
    pub phase0: f64,
}

/// Fits an interference fringe `y = a0 + a1·cos φ + a2·sin φ` by linear
/// least squares on the harmonic basis, returning the equivalent
/// offset/visibility/phase parametrization.
///
/// This is exactly how two-photon (and four-photon) interference
/// visibilities are extracted from coincidence-vs-phase scans in §IV–V.
///
/// # Errors
///
/// As [`try_fit_fringe_harmonic`].
pub fn try_fit_fringe(phase: &[f64], y: &[f64]) -> Result<FringeFit, FitError> {
    try_fit_fringe_harmonic(phase, y, 1)
}

/// Fringe fit against `cos(k·φ)` — `k = 2` is used for the four-photon
/// interference of §V where the coincidence rate oscillates at twice the
/// analyzer phase when scanning the common phase of two Bell pairs.
///
/// # Errors
///
/// [`FitError::LengthMismatch`] when the lengths differ,
/// [`FitError::InsufficientData`] for fewer than three points or
/// `harmonic == 0`, and [`FitError::Degenerate`] / [`FitError::NonFinite`]
/// when the harmonic basis is singular or the input is not finite.
pub fn try_fit_fringe_harmonic(
    phase: &[f64],
    y: &[f64],
    harmonic: u32,
) -> Result<FringeFit, FitError> {
    if phase.len() != y.len() {
        return Err(FitError::LengthMismatch);
    }
    if phase.len() < 3 {
        return Err(FitError::InsufficientData);
    }
    if harmonic == 0 {
        return Err(FitError::InsufficientData);
    }
    let k = cast::to_f64(harmonic);
    // Normal equations for basis [1, cos kφ, sin kφ].
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for (&p, &v) in phase.iter().zip(y) {
        let basis = [1.0, (k * p).cos(), (k * p).sin()];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += basis[i] * basis[j];
            }
            atb[i] += basis[i] * v;
        }
    }
    let coeffs = try_solve3(ata, atb)?;
    let a0 = coeffs[0];
    let amp = (coeffs[1] * coeffs[1] + coeffs[2] * coeffs[2]).sqrt();
    // y = a0 + amp·cos(kφ + phase0) with phase0 = atan2(−a2, a1).
    let phase0 = (-coeffs[2]).atan2(coeffs[1]);
    let visibility = if a0.abs() > 0.0 { amp / a0 } else { 0.0 };
    Ok(FringeFit {
        offset: a0,
        visibility,
        phase0,
    })
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting. Returns [`FitError::NonFinite`] if the system contains NaN
/// and [`FitError::Degenerate`] if a pivot vanishes.
pub fn try_solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Result<[f64; 3], FitError> {
    if a.iter().flatten().any(|v| !v.is_finite()) || b.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        if a[col][col].abs() <= 1e-300 {
            return Err(FitError::Degenerate);
        }
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (entry, &p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *entry -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut s = b[row];
        for k in (row + 1)..3 {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }
    Ok(x)
}

/// Result of a power-law fit `y = prefactor · x^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLawFit {
    /// Fitted exponent (log-log slope).
    pub exponent: f64,
    /// Fitted prefactor.
    pub prefactor: f64,
    /// R² of the underlying log-log linear fit.
    pub r_squared: f64,
}

/// Fits `y = prefactor · x^exponent` by linear regression in log-log space.
///
/// Non-positive points are ignored. Used to verify the §III claim that the
/// OPO output grows **quadratically** below threshold and **linearly**
/// above it.
///
/// # Errors
///
/// [`FitError::LengthMismatch`] when the lengths differ,
/// [`FitError::InsufficientData`] when fewer than two strictly positive
/// points remain, and the errors of [`try_fit_linear`] on the logs.
pub fn try_fit_power_law(x: &[f64], y: &[f64]) -> Result<PowerLawFit, FitError> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch);
    }
    let (lx, ly): (Vec<f64>, Vec<f64>) = x
        .iter()
        .zip(y)
        .filter(|&(&a, &b)| a > 0.0 && b > 0.0)
        .map(|(&a, &b)| (a.ln(), b.ln()))
        .unzip();
    if lx.len() < 2 {
        return Err(FitError::InsufficientData);
    }
    let f = try_fit_linear(&lx, &ly)?;
    Ok(PowerLawFit {
        exponent: f.slope,
        prefactor: f.intercept.exp(),
        r_squared: f.r_squared,
    })
}

/// Raw fringe visibility `(max − min)/(max + min)` from sampled values.
///
/// Returns `NaN` for an empty slice; clamps tiny negative results caused by
/// noise to `0`.
pub fn raw_visibility(y: &[f64]) -> f64 {
    if y.is_empty() {
        return f64::NAN;
    }
    let max = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = y.iter().cloned().fold(f64::INFINITY, f64::min);
    if max + min <= 0.0 {
        return 0.0;
    }
    ((max - min) / (max + min)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_exact() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [-1.0, 1.0, 3.0, 5.0];
        let f = try_fit_linear(&x, &y).expect("fit");
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept + 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_noisy_r2_below_one() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1, 0.9, 2.2, 2.8, 4.1];
        let f = try_fit_linear(&x, &y).expect("fit");
        assert!(f.r_squared > 0.97 && f.r_squared < 1.0);
    }

    #[test]
    fn exponential_fit_recovers_tau() {
        let tau = 1.45e-9;
        let t: Vec<f64> = (0..50).map(|i| i as f64 * 0.1e-9).collect();
        let y: Vec<f64> = t.iter().map(|&tv| 1000.0 * (-tv / tau).exp()).collect();
        let f = try_fit_exponential_decay(&t, &y).expect("fit");
        assert!((f.tau - tau).abs() / tau < 1e-6, "tau {}", f.tau);
        assert!((f.amplitude - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn exponential_fit_ignores_zeros() {
        let t = [0.0, 1.0, 2.0, 3.0];
        let y = [8.0, 4.0, 0.0, 1.0];
        // Zero point dropped; fit still through the three positive points.
        let f = try_fit_exponential_decay(&t, &y).expect("fit");
        assert!(f.tau > 0.0);
    }

    #[test]
    fn fringe_fit_recovers_visibility_and_phase() {
        let phases: Vec<f64> = (0..32).map(|i| i as f64 * 0.2).collect();
        let v_true = 0.83;
        let p0 = 0.7;
        let y: Vec<f64> = phases
            .iter()
            .map(|&p| 120.0 * (1.0 + v_true * (p + p0).cos()))
            .collect();
        let f = try_fit_fringe(&phases, &y).expect("fit");
        assert!((f.visibility - v_true).abs() < 1e-9, "{}", f.visibility);
        assert!((f.offset - 120.0).abs() < 1e-6);
        assert!((f.phase0 - p0).abs() < 1e-9);
    }

    #[test]
    fn fringe_fit_second_harmonic() {
        let phases: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = phases
            .iter()
            .map(|&p| 50.0 * (1.0 + 0.89 * (2.0 * p).cos()))
            .collect();
        let f = try_fit_fringe_harmonic(&phases, &y, 2).expect("fit");
        assert!((f.visibility - 0.89).abs() < 1e-9);
        assert!(f.phase0.abs() < 1e-9);
    }

    #[test]
    fn fringe_fit_flat_signal_zero_visibility() {
        let phases: Vec<f64> = (0..16).map(|i| i as f64 * 0.4).collect();
        let y = vec![77.0; 16];
        let f = try_fit_fringe(&phases, &y).expect("fit");
        assert!(f.visibility < 1e-9);
    }

    #[test]
    fn power_law_quadratic() {
        let x: Vec<f64> = (1..20).map(|i| i as f64 * 0.5e-3).collect();
        let y: Vec<f64> = x.iter().map(|&p| 3.0 * p * p).collect();
        let f = try_fit_power_law(&x, &y).expect("fit");
        assert!((f.exponent - 2.0).abs() < 1e-9);
        assert!((f.prefactor - 3.0).abs() < 1e-6);
    }

    #[test]
    fn raw_visibility_known() {
        assert!((raw_visibility(&[1.0, 9.0]) - 0.8).abs() < 1e-12);
        assert!(raw_visibility(&[]).is_nan());
        assert_eq!(raw_visibility(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn try_solve3_rejects_nan() {
        let a = [[1.0, 0.0, 0.0], [0.0, f64::NAN, 0.0], [0.0, 0.0, 1.0]];
        assert_eq!(try_solve3(a, [1.0, 1.0, 1.0]), Err(FitError::NonFinite));
    }

    #[test]
    fn try_solve3_rejects_singular() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]];
        assert_eq!(try_solve3(a, [1.0, 2.0, 0.5]), Err(FitError::Degenerate));
    }

    #[test]
    fn try_fit_linear_errors() {
        assert_eq!(
            try_fit_linear(&[1.0], &[1.0, 2.0]),
            Err(FitError::LengthMismatch)
        );
        assert_eq!(try_fit_linear(&[1.0], &[1.0]), Err(FitError::InsufficientData));
        assert_eq!(
            try_fit_linear(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(FitError::Degenerate)
        );
        assert_eq!(
            try_fit_linear(&[0.0, f64::NAN], &[1.0, 2.0]),
            Err(FitError::NonFinite)
        );
    }

    #[test]
    fn try_fit_fringe_degenerate_phases() {
        // All phases identical → singular harmonic basis.
        let phases = vec![0.3; 8];
        let y = vec![1.0; 8];
        assert_eq!(
            try_fit_fringe(&phases, &y),
            Err(FitError::Degenerate)
        );
    }

    #[test]
    fn try_fit_fringe_nan_input() {
        let phases: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let mut y: Vec<f64> = phases.iter().map(|&p| 1.0 + p.cos()).collect();
        y[3] = f64::NAN;
        assert_eq!(
            try_fit_fringe(&phases, &y),
            Err(FitError::NonFinite)
        );
    }
}
