//! The integrated quantum frequency comb source — the paper's central
//! object: one microring, many quantum-state families, selected purely by
//! the pump configuration.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_photonics::comb::CombGrid;
use qfc_photonics::fwm;
use qfc_photonics::pump::PumpConfig;
use qfc_photonics::ring::{Microring, MicroringBuilder};
use qfc_photonics::units::Frequency;
use qfc_photonics::waveguide::{Polarization, Waveguide};

/// What family of quantum states the source emits under its current pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmissionRegime {
    /// §II — multiplexed heralded single photons (CW pumping).
    HeraldedSinglePhotons,
    /// §III — cross-polarized photon pairs (bichromatic TE/TM pumping).
    CrossPolarizedPairs,
    /// §IV–V — time-bin entangled photon pairs (double-pulse pumping).
    TimeBinEntangled,
}

/// The quantum frequency comb: a microring plus a pump configuration and
/// the per-channel collection efficiency of the measurement apparatus.
///
/// # Examples
///
/// ```
/// use qfc_core::source::QfcSource;
///
/// let source = QfcSource::paper_device();
/// // §II channel-1 emission at 15 mW: tens to hundreds of pairs/s.
/// let r = source.try_pair_rate_cw(1)?;
/// assert!(r > 1.0 && r < 1e4, "rate {r}");
/// # Ok::<(), qfc_faults::QfcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QfcSource {
    ring: Microring,
    pump: PumpConfig,
    /// On-chip coupling efficiency of the pump (facet + mode overlap).
    pub pump_coupling: f64,
    /// Wavelength dependence of the point couplers: relative change of
    /// the power cross-coupling per comb mode (couplers are directional;
    /// their gap transmission varies slowly across the comb). Enters the
    /// per-channel emission rate as `(1 + c·m)²`.
    pub coupling_dispersion_per_mode: f64,
}

impl QfcSource {
    /// The paper's device under its §II pump configuration.
    pub fn paper_device() -> Self {
        Self::new(Microring::paper_device(), PumpConfig::paper_self_locked())
    }

    /// The paper's device with a TE/TM grid offset engaged, under the
    /// §III bichromatic pump.
    pub fn paper_device_type2() -> Self {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.anchor(Frequency::from_thz(193.4))
            .radius_for_fsr(Frequency::from_ghz(200.0))
            .te_tm_offset(Frequency::from_ghz(47.0));
        b.coupling_for_linewidth(Frequency::from_hz(110e6));
        let mut src = Self::new(b.build(), PumpConfig::paper_bichromatic());
        // §III quotes powers in the waveguide (the 14-mW OPO threshold is
        // an on-chip figure), so no extra coupling penalty here.
        src.pump_coupling = 1.0;
        src
    }

    /// The paper's device under the §IV–V double-pulse pump.
    pub fn paper_device_timebin() -> Self {
        Self::new(Microring::paper_device(), PumpConfig::paper_double_pulse())
    }

    /// Creates a source from a ring and pump configuration with the
    /// paper's default coupling budget.
    pub fn new(ring: Microring, pump: PumpConfig) -> Self {
        Self {
            ring,
            pump,
            pump_coupling: 0.28, // ≈5.5 dB: facet coupling + intracavity
            // self-locked arrangement; calibrated so the §II channel
            // rates land in the paper's 14–29 pairs/s window.
            coupling_dispersion_per_mode: -0.055,
        }
    }

    /// The microring.
    pub fn ring(&self) -> &Microring {
        &self.ring
    }

    /// The pump configuration.
    pub fn pump(&self) -> &PumpConfig {
        &self.pump
    }

    /// Replaces the pump configuration (builder-style).
    pub fn with_pump(mut self, pump: PumpConfig) -> Self {
        self.pump = pump;
        self
    }

    /// Short name of the current pump variant, for error messages.
    fn pump_variant_name(&self) -> &'static str {
        match self.pump {
            PumpConfig::SelfLockedCw { .. } => "SelfLockedCw",
            PumpConfig::ExternalCw { .. } => "ExternalCw",
            PumpConfig::BichromaticOrthogonal { .. } => "BichromaticOrthogonal",
            PumpConfig::DoublePulse { .. } => "DoublePulse",
        }
    }

    /// Which state family the current pump produces.
    pub fn regime(&self) -> EmissionRegime {
        match self.pump {
            PumpConfig::SelfLockedCw { .. } | PumpConfig::ExternalCw { .. } => {
                EmissionRegime::HeraldedSinglePhotons
            }
            PumpConfig::BichromaticOrthogonal { .. } => EmissionRegime::CrossPolarizedPairs,
            PumpConfig::DoublePulse { .. } => EmissionRegime::TimeBinEntangled,
        }
    }

    /// The comb grid of channel pairs (TE family) up to `max_m`.
    pub fn comb(&self, max_m: u32) -> CombGrid {
        CombGrid::from_ring(&self.ring, Polarization::Te, max_m)
    }

    /// Per-mode emission scaling from coupler wavelength dependence.
    fn coupler_factor(&self, m: u32) -> f64 {
        let f = 1.0 + self.coupling_dispersion_per_mode * cast::to_f64(m);
        (f.max(0.0)).powi(2)
    }

    /// Generated pair flux (pairs/s) on channel pair `m` for the §II CW
    /// configurations.
    ///
    /// # Errors
    ///
    /// [`QfcError::RegimeMismatch`] when the pump is not CW.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn try_pair_rate_cw(&self, m: u32) -> QfcResult<f64> {
        match self.pump {
            PumpConfig::SelfLockedCw { power } | PumpConfig::ExternalCw { power, .. } => {
                Ok(fwm::pair_rate_cw(
                    &self.ring,
                    Polarization::Te,
                    power * self.pump_coupling,
                    m,
                ) * self.coupler_factor(m))
            }
            _ => Err(QfcError::RegimeMismatch {
                expected: "CW pump configuration".to_owned(),
                actual: self.pump_variant_name().to_owned(),
            }),
        }
    }

    /// Generated cross-polarized pair flux (pairs/s) on channel `m` for
    /// the §III bichromatic pump.
    ///
    /// # Errors
    ///
    /// [`QfcError::RegimeMismatch`] when the pump is not bichromatic.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn try_type2_pair_rate(&self, m: u32) -> QfcResult<f64> {
        match self.pump {
            PumpConfig::BichromaticOrthogonal { power_te, power_tm } => {
                Ok(fwm::type2_pair_rate(
                    &self.ring,
                    power_te * self.pump_coupling,
                    power_tm * self.pump_coupling,
                    m,
                ) * self.coupler_factor(m))
            }
            _ => Err(QfcError::RegimeMismatch {
                expected: "bichromatic orthogonal pump".to_owned(),
                actual: self.pump_variant_name().to_owned(),
            }),
        }
    }

    /// Mean photon pairs per double-pulse frame on channel `m` for the
    /// §IV–V pulsed pump (per *frame*, i.e. summed over both bins).
    ///
    /// # Errors
    ///
    /// [`QfcError::RegimeMismatch`] when the pump is not a double-pulse
    /// configuration.
    pub fn try_pairs_per_frame(&self, m: u32) -> QfcResult<f64> {
        match self.pump {
            PumpConfig::DoublePulse { peak_power, .. } => {
                // Each of the two pulses contributes μ(peak)/2 at half
                // the peak amplitude budget (the writer splits the pump
                // energy across the bins).
                Ok(2.0 * fwm::mean_pairs_per_pulse(
                    &self.ring,
                    Polarization::Te,
                    peak_power * self.pump_coupling * 0.5,
                    m,
                ) * self.coupler_factor(m))
            }
            _ => Err(QfcError::RegimeMismatch {
                expected: "double-pulse pump".to_owned(),
                actual: self.pump_variant_name().to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_follow_pump() {
        assert_eq!(
            QfcSource::paper_device().regime(),
            EmissionRegime::HeraldedSinglePhotons
        );
        assert_eq!(
            QfcSource::paper_device_type2().regime(),
            EmissionRegime::CrossPolarizedPairs
        );
        assert_eq!(
            QfcSource::paper_device_timebin().regime(),
            EmissionRegime::TimeBinEntangled
        );
    }

    #[test]
    fn cw_rates_in_paper_range() {
        // Generated rates across the five §II channels should land in the
        // ~10–40 pairs/s window the paper infers.
        let src = QfcSource::paper_device();
        for m in 1..=5 {
            let r = src.try_pair_rate_cw(m).expect("CW pump");
            assert!(r > 5.0 && r < 80.0, "m={m}: rate {r}");
        }
    }

    #[test]
    fn cw_rates_decrease_with_channel() {
        let src = QfcSource::paper_device();
        let rates: Vec<f64> = (1..=5).map(|m| src.try_pair_rate_cw(m).expect("CW pump")).collect();
        assert!(rates.windows(2).all(|w| w[0] > w[1]), "{rates:?}");
        // Span roughly a factor two, like 14–29 Hz.
        let ratio = rates[0] / rates[4];
        assert!(ratio > 1.3 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn type2_rate_positive_at_2mw() {
        let src = QfcSource::paper_device_type2();
        let r = src.try_type2_pair_rate(1).expect("bichromatic pump");
        assert!(r > 0.05 && r < 100.0, "rate {r}");
    }

    #[test]
    fn pulsed_mu_in_low_gain_regime() {
        let src = QfcSource::paper_device_timebin();
        let mu = src.try_pairs_per_frame(1).expect("double-pulse pump");
        assert!(mu > 1e-5 && mu < 0.2, "μ = {mu}");
    }

    #[test]
    fn try_rates_report_regime_mismatch() {
        let timebin = QfcSource::paper_device_timebin();
        let err = timebin.try_pair_rate_cw(1).unwrap_err();
        assert!(matches!(err, QfcError::RegimeMismatch { .. }));
        assert!(err.to_string().contains("CW pump"));
        assert!(timebin.try_type2_pair_rate(1).is_err());
        assert!(timebin.try_pairs_per_frame(1).is_ok());
        let cw = QfcSource::paper_device();
        assert!(cw.try_pair_rate_cw(1).is_ok());
        assert!(cw.try_pairs_per_frame(1).is_err());
    }

    #[test]
    fn comb_has_requested_channels() {
        let src = QfcSource::paper_device();
        assert_eq!(src.comb(5).len(), 5);
    }

    #[test]
    fn with_pump_switches_regime() {
        let src = QfcSource::paper_device().with_pump(PumpConfig::paper_double_pulse());
        assert_eq!(src.regime(), EmissionRegime::TimeBinEntangled);
    }
}
