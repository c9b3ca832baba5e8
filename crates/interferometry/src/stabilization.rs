//! Phase stabilization of the unbalanced interferometers.
//!
//! The §IV quantum-interference measurement hinges on *phase-stabilized*
//! interferometers: residual Gaussian phase noise of RMS `σ` multiplies
//! every fringe visibility by `e^{−σ²/2}`. This module exposes that
//! visibility penalty.

/// Visibility penalty of Gaussian phase noise: `V → V·e^{−σ²/2}`.
pub fn visibility_factor(sigma_rad: f64) -> f64 {
    (-0.5 * sigma_rad * sigma_rad).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_factor_limits() {
        assert_eq!(visibility_factor(0.0), 1.0);
        assert!(visibility_factor(0.3) < 1.0);
        assert!(visibility_factor(3.0) < 0.02);
    }
}
