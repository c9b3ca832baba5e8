//! Physical constants (SI units).

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Planck constant, J·s.
pub const PLANCK: f64 = 6.626_070_15e-34;

/// Reduced Planck constant, J·s.
pub const HBAR: f64 = PLANCK / (2.0 * std::f64::consts::PI);

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Conventional C-band center used throughout the paper: 1550 nm.
pub const TELECOM_WAVELENGTH_M: f64 = 1550e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telecom_frequency_is_near_193_thz() {
        let f = SPEED_OF_LIGHT / TELECOM_WAVELENGTH_M;
        assert!((f - 193.4e12).abs() < 0.2e12, "f = {f}");
    }

    #[test]
    fn hbar_relation() {
        assert!((HBAR * 2.0 * std::f64::consts::PI - PLANCK).abs() < 1e-45);
    }
}
