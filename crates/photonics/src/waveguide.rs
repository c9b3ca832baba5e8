//! Waveguide model: modal properties for the TE and TM polarizations.
//!
//! The §III experiment hinges on *waveguide design*: by choosing the core
//! cross-section, the TE and TM resonance grids of the ring can be offset
//! against each other (suppressing stimulated FWM) while keeping their free
//! spectral ranges matched (preserving energy conservation for the
//! spontaneous type-II process). The model exposes exactly those design
//! knobs.

use serde::{Deserialize, Serialize};

use crate::constants::SPEED_OF_LIGHT;
use crate::material::Material;
use crate::units::{Frequency, Wavelength};

/// Polarization mode family of the waveguide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarization {
    /// Transverse-electric mode.
    Te,
    /// Transverse-magnetic mode.
    Tm,
}

impl std::fmt::Display for Polarization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Te => write!(f, "TE"),
            Self::Tm => write!(f, "TM"),
        }
    }
}

/// A high-index-contrast channel waveguide with engineered dispersion.
///
/// Effective indices are modeled as the material index plus a
/// geometry-dependent confinement shift per polarization; the total
/// group-velocity dispersion is a *design value* (material + geometric),
/// since the authors engineer the cross-section for small anomalous
/// dispersion at 1550 nm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Waveguide {
    /// Core material.
    pub material: Material,
    /// Core width, m.
    pub width: f64,
    /// Core height, m.
    pub height: f64,
    /// Effective mode area, m².
    pub effective_area: f64,
    /// Confinement-induced *phase*-index shift for TE (dimensionless,
    /// negative). The TE/TM difference of these shifts is the modal
    /// birefringence that offsets the two resonance grids.
    pub confinement_shift_te: f64,
    /// Confinement-induced phase-index shift for TM.
    pub confinement_shift_tm: f64,
    /// Confinement-induced *group*-index shift for TE. The §III design
    /// engineers these nearly equal between TE and TM so the two mode
    /// families keep "similar free spectral ranges" while their phase
    /// indices (and hence absolute resonance positions) differ.
    pub group_shift_te: f64,
    /// Confinement-induced group-index shift for TM.
    pub group_shift_tm: f64,
    /// Engineered total GVD for TE at 1550 nm, s²/m (negative = anomalous).
    pub gvd_te: f64,
    /// Engineered total GVD for TM at 1550 nm, s²/m.
    pub gvd_tm: f64,
}

impl Waveguide {
    /// The paper's Hydex waveguide: ~1.5 × 1.45 µm core, effective area
    /// ≈ 2 µm², small anomalous dispersion at 1550 nm, slight TE/TM
    /// birefringence.
    ///
    /// ```
    /// use qfc_photonics::waveguide::{Polarization, Waveguide};
    /// use qfc_photonics::units::Wavelength;
    /// let wg = Waveguide::hydex_paper();
    /// let g = wg.nonlinear_parameter(Wavelength::from_nm(1550.0));
    /// // γ ≈ 233 W⁻¹km⁻¹ for Hydex.
    /// assert!((g - 0.233).abs() < 0.05);
    /// ```
    pub fn hydex_paper() -> Self {
        Self {
            material: Material::hydex(),
            width: 1.5e-6,
            height: 1.45e-6,
            effective_area: 2.0e-12,
            confinement_shift_te: -0.045,
            confinement_shift_tm: -0.052,
            group_shift_te: -0.0450,
            group_shift_tm: -0.0452,
            gvd_te: -10e-27, // −10 ps²/km, anomalous
            gvd_tm: -12e-27,
        }
    }

    /// Effective refractive index for the given polarization.
    pub fn effective_index(&self, lambda: Wavelength, pol: Polarization) -> f64 {
        let shift = match pol {
            Polarization::Te => self.confinement_shift_te,
            Polarization::Tm => self.confinement_shift_tm,
        };
        self.material.refractive_index(lambda) + shift
    }

    /// Group index for the given polarization.
    ///
    /// Uses the engineered *group*-index shifts, which the §III design
    /// makes nearly equal for TE and TM (matched free spectral ranges).
    pub fn group_index(&self, lambda: Wavelength, pol: Polarization) -> f64 {
        let shift = match pol {
            Polarization::Te => self.group_shift_te,
            Polarization::Tm => self.group_shift_tm,
        };
        self.material.group_index(lambda) + shift
    }

    /// Total (engineered) group-velocity dispersion β₂, s²/m.
    pub fn gvd(&self, pol: Polarization) -> f64 {
        match pol {
            Polarization::Te => self.gvd_te,
            Polarization::Tm => self.gvd_tm,
        }
    }

    /// Nonlinear parameter `γ = 2π·n₂ / (λ·A_eff)` in W⁻¹m⁻¹.
    pub fn nonlinear_parameter(&self, lambda: Wavelength) -> f64 {
        2.0 * std::f64::consts::PI * self.material.n2 / (lambda.m() * self.effective_area)
    }

    /// Propagation constant `β(ω) = n_eff·ω/c` at a frequency, 1/m.
    pub fn beta(&self, freq: Frequency, pol: Polarization) -> f64 {
        let lambda = freq.wavelength();
        self.effective_index(lambda, pol) * freq.angular() / SPEED_OF_LIGHT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wg() -> Waveguide {
        Waveguide::hydex_paper()
    }

    #[test]
    fn effective_index_below_material_index() {
        let lam = Wavelength::from_nm(1550.0);
        let wg = wg();
        assert!(
            wg.effective_index(lam, Polarization::Te)
                < wg.material.refractive_index(lam)
        );
    }

    #[test]
    fn te_tm_index_difference_matches_shifts() {
        let lam = Wavelength::from_nm(1550.0);
        let wg = wg();
        let b = wg.effective_index(lam, Polarization::Te)
            - wg.effective_index(lam, Polarization::Tm);
        assert!((b - 0.007).abs() < 1e-12, "b = {b}");
    }

    #[test]
    fn nonlinear_parameter_hydex_order() {
        let g = wg().nonlinear_parameter(Wavelength::from_nm(1550.0));
        // γ ≈ 0.233 /W/m = 233 /W/km.
        assert!(g > 0.2 && g < 0.27, "γ = {g}");
    }

    #[test]
    fn beta_increases_with_frequency() {
        let wg = wg();
        let b1 = wg.beta(Frequency::from_thz(190.0), Polarization::Te);
        let b2 = wg.beta(Frequency::from_thz(196.0), Polarization::Te);
        assert!(b2 > b1);
    }

    #[test]
    fn anomalous_dispersion_by_design() {
        assert!(wg().gvd(Polarization::Te) < 0.0);
        assert!(wg().gvd(Polarization::Tm) < 0.0);
    }

    #[test]
    fn polarization_display() {
        assert_eq!(Polarization::Te.to_string(), "TE");
    }
}
