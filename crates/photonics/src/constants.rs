//! Physical constants (SI units).

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Planck constant, J·s.
pub const PLANCK: f64 = 6.626_070_15e-34;
