//! Pump configurations — the paper's central idea: *the same ring,
//! operated with different pump schemes, emits different families of
//! quantum states*.

use serde::{Deserialize, Serialize};

use crate::units::{Frequency, Power};

/// The pump scheme applied to the quantum frequency comb.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PumpConfig {
    /// §II — self-locked intracavity CW pumping: the ring sits inside the
    /// pump laser's own cavity, so the pump passively tracks the
    /// resonance. No active stabilization; runs for weeks.
    SelfLockedCw {
        /// On-chip pump power.
        power: Power,
    },
    /// External CW laser tuned to a resonance; needs active locking to
    /// stay on resonance (used as the §II stability baseline).
    ExternalCw {
        /// On-chip pump power.
        power: Power,
        /// Whether an active feedback lock is engaged.
        actively_stabilized: bool,
    },
    /// §III — bichromatic orthogonal pumping: one CW tone on a TE
    /// resonance and one on a TM resonance, driving type-II SFWM.
    BichromaticOrthogonal {
        /// On-chip power of the TE pump tone.
        power_te: Power,
        /// On-chip power of the TM pump tone.
        power_tm: Power,
    },
    /// §IV–V — phase-coherent double pulses from a stabilized unbalanced
    /// Michelson interferometer, spectrally filtered to one resonance.
    DoublePulse {
        /// On-chip peak power of each pulse.
        peak_power: Power,
        /// Time-bin separation between the two pulses, s.
        bin_separation: f64,
        /// Pulse repetition rate, Hz (rate of double-pulse frames).
        repetition_rate: f64,
        /// Relative phase written between the early and late pulse, rad.
        relative_phase: f64,
    },
}

impl PumpConfig {
    /// Paper §II configuration: 15 mW self-locked CW.
    pub fn paper_self_locked() -> Self {
        Self::SelfLockedCw {
            power: Power::from_mw(15.0),
        }
    }

    /// Paper §III configuration: 2 mW total bichromatic pumping
    /// (1 mW per polarization).
    pub fn paper_bichromatic() -> Self {
        Self::BichromaticOrthogonal {
            power_te: Power::from_mw(1.0),
            power_tm: Power::from_mw(1.0),
        }
    }

    /// Paper §IV–V configuration: double pulses separated by a few ns at
    /// a 10-MHz frame rate. The peak power is calibrated so the mean
    /// pair number per frame reaches the μ ≈ 0.02 operating point of the
    /// published time-bin experiments (the full pulsed cavity-buildup
    /// dynamics is outside the analytic model; see EXPERIMENTS.md).
    pub fn paper_double_pulse() -> Self {
        Self::DoublePulse {
            peak_power: Power::from_w(5.7),
            bin_separation: 4.0e-9,
            repetition_rate: 10.0e6,
            relative_phase: 0.0,
        }
    }

    /// `true` for the passively stable §II scheme.
    pub fn is_passively_stable(&self) -> bool {
        matches!(self, Self::SelfLockedCw { .. })
    }
}

/// Slow drift + noise model for the pump-resonance detuning, used by the
/// §II stability experiment: thermal drift pulls an external laser off
/// resonance, while the self-locked scheme tracks it passively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftModel {
    /// RMS slow drift of the resonance per day, Hz/√day (random walk).
    pub drift_hz_per_sqrt_day: f64,
    /// RMS fast jitter, Hz.
    pub jitter_hz: f64,
}

impl DriftModel {
    /// Laboratory-grade environment: tens of MHz of thermal drift per
    /// day — fatal for an unlocked external laser on a 110-MHz line,
    /// harmless for the self-locked scheme.
    pub fn laboratory() -> Self {
        Self {
            drift_hz_per_sqrt_day: 40e6,
            jitter_hz: 2e6,
        }
    }
}

/// Residual pump-resonance detuning under a pump scheme after `t_days`
/// of a random-walk excursion `walk` (in units of the daily RMS drift).
///
/// Self-locked: the lock tracks all slow drift, leaving only jitter.
/// Actively stabilized external: drift suppressed 100×.
/// Free-running external: full excursion.
pub fn residual_detuning(config: &PumpConfig, model: &DriftModel, walk_sigma_units: f64, t_days: f64) -> Frequency {
    let slow = model.drift_hz_per_sqrt_day * t_days.max(0.0).sqrt() * walk_sigma_units;
    let hz = match config {
        PumpConfig::SelfLockedCw { .. } => 0.0,
        PumpConfig::ExternalCw {
            actively_stabilized: true,
            ..
        } => slow / 100.0,
        PumpConfig::ExternalCw {
            actively_stabilized: false,
            ..
        } => slow,
        // Pulsed/bichromatic schemes in the paper are actively matched to
        // the resonance by construction of the experiment.
        _ => slow / 100.0,
    };
    Frequency::from_hz(hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_flags() {
        assert!(PumpConfig::paper_self_locked().is_passively_stable());
        assert!(!PumpConfig::paper_bichromatic().is_passively_stable());
    }

    #[test]
    fn self_locked_kills_drift() {
        let model = DriftModel::laboratory();
        let locked = residual_detuning(&PumpConfig::paper_self_locked(), &model, 1.0, 21.0);
        let free = residual_detuning(
            &PumpConfig::ExternalCw {
                power: Power::from_mw(15.0),
                actively_stabilized: false,
            },
            &model,
            1.0,
            21.0,
        );
        assert_eq!(locked.hz(), 0.0);
        // Free-running drift after 3 weeks dwarfs the 110-MHz linewidth.
        assert!(free.hz() > 110e6, "free drift {free}");
    }

    #[test]
    fn active_stabilization_suppresses_but_not_eliminates() {
        let model = DriftModel::laboratory();
        let stab = residual_detuning(
            &PumpConfig::ExternalCw {
                power: Power::from_mw(15.0),
                actively_stabilized: true,
            },
            &model,
            1.0,
            21.0,
        );
        assert!(stab.hz() > 0.0 && stab.hz() < 10e6);
    }
}
