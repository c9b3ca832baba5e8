//! Optical material models.
//!
//! The paper's device is fabricated in **Hydex**, a CMOS-compatible
//! high-index doped-silica glass (Moss *et al.*, Nature Photonics 7, 597
//! (2013)): n ≈ 1.66 at 1550 nm, Kerr coefficient n₂ ≈ 1.15 × 10⁻¹⁹ m²/W,
//! negligible two-photon absorption in the telecom band — the property that
//! lets the quantum comb run without nonlinear loss.

use serde::{Deserialize, Serialize};

use crate::units::Wavelength;

/// Identifies the material platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MaterialKind {
    /// High-index doped-silica glass (Little Optics / Hydex).
    Hydex,
    /// Stoichiometric silicon nitride.
    SiliconNitride,
}

impl std::fmt::Display for MaterialKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Hydex => write!(f, "Hydex"),
            Self::SiliconNitride => write!(f, "Si3N4"),
        }
    }
}

/// A dispersive Kerr material described by a three-term Cauchy equation
/// `n(λ) = A + B/λ² + C/λ⁴` (λ in µm) plus a Kerr index `n₂`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Material {
    /// Material platform.
    pub kind: MaterialKind,
    cauchy_a: f64,
    cauchy_b: f64,
    cauchy_c: f64,
    /// Kerr (intensity-dependent) refractive index, m²/W.
    pub n2: f64,
    /// Linear propagation loss, dB/cm.
    pub loss_db_per_cm: f64,
}

impl Material {
    /// Hydex glass as used for the paper's microring.
    ///
    /// ```
    /// use qfc_photonics::material::Material;
    /// use qfc_photonics::units::Wavelength;
    /// let h = Material::hydex();
    /// let n = h.refractive_index(Wavelength::from_nm(1550.0));
    /// assert!(n > 1.6 && n < 1.7);
    /// ```
    pub fn hydex() -> Self {
        Self {
            kind: MaterialKind::Hydex,
            cauchy_a: 1.6465,
            cauchy_b: 0.0130,  // µm²
            cauchy_c: 0.0002,  // µm⁴
            n2: 1.15e-19,      // m²/W  (Moss et al. 2013)
            loss_db_per_cm: 0.0006, // Hydex's hallmark ultra-low loss: 0.06 dB/m
        }
    }

    /// Refractive index at the given vacuum wavelength.
    pub fn refractive_index(&self, lambda: Wavelength) -> f64 {
        let um = lambda.um();
        self.cauchy_a + self.cauchy_b / (um * um) + self.cauchy_c / um.powi(4)
    }

    /// Group index `n_g = n − λ·dn/dλ` at the given wavelength.
    pub fn group_index(&self, lambda: Wavelength) -> f64 {
        let um = lambda.um();
        // dn/dλ = −2B/λ³ − 4C/λ⁵  ⇒  n_g = n + 2B/λ² + 4C/λ⁴.
        self.refractive_index(lambda) + 2.0 * self.cauchy_b / (um * um)
            + 4.0 * self.cauchy_c / um.powi(4)
    }

    /// Linear power attenuation coefficient α in 1/m
    /// (from the dB/cm figure).
    pub fn alpha_per_m(&self) -> f64 {
        // α[1/m] = loss[dB/m] · ln(10)/10.
        self.loss_db_per_cm * 100.0 * std::f64::consts::LN_10 / 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydex_index_at_telecom() {
        let h = Material::hydex();
        let n = h.refractive_index(Wavelength::from_nm(1550.0));
        assert!((n - 1.652).abs() < 0.01, "n = {n}");
    }

    #[test]
    fn group_index_exceeds_phase_index() {
        let h = Material::hydex();
        let lam = Wavelength::from_nm(1550.0);
        assert!(h.group_index(lam) > h.refractive_index(lam));
    }

    #[test]
    fn index_decreases_with_wavelength() {
        let h = Material::hydex();
        let n1 = h.refractive_index(Wavelength::from_nm(1460.0));
        let n2 = h.refractive_index(Wavelength::from_nm(1625.0));
        assert!(n1 > n2, "normal dispersion expected in Cauchy model");
    }

    #[test]
    fn alpha_from_db() {
        let h = Material::hydex();
        // 0.06 dB/m → α = 0.06·ln10/10 ≈ 0.0138 /m.
        assert!((h.alpha_per_m() - 0.013816).abs() < 1e-5);
    }
}
