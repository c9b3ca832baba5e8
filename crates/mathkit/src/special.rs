//! Line shapes needed by the photonics models.

/// Lorentzian profile with unit peak: `1 / (1 + (2(x − x0)/fwhm)²)`.
///
/// This is the (power) line shape of a single microring resonance.
pub fn lorentzian(x: f64, x0: f64, fwhm: f64) -> f64 {
    let u = 2.0 * (x - x0) / fwhm;
    1.0 / (1.0 + u * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorentzian_shape() {
        assert_eq!(lorentzian(5.0, 5.0, 2.0), 1.0);
        // Half maximum at x0 ± fwhm/2.
        assert!((lorentzian(6.0, 5.0, 2.0) - 0.5).abs() < 1e-12);
        assert!((lorentzian(4.0, 5.0, 2.0) - 0.5).abs() < 1e-12);
    }
}
