//! Entanglement-based QKD feasibility — the application the paper's
//! introduction motivates ("reliable, low cost and scalable on-chip
//! sources … for quantum communications").
//!
//! Each multiplexed time-bin Bell pair can drive a BBM92 link: the
//! measured fringe visibility sets the quantum bit error rate
//! (`QBER = (1 − V)/2`), which sets the asymptotic secret-key fraction
//! `r = 1 − 2·h₂(QBER)`; multiplexing multiplies the rate by the number
//! of violating channels.

use serde::{Deserialize, Serialize};

use crate::report::{Comparison, Expectation, ExperimentReport};
use crate::timebin::TimeBinReport;

/// Binary entropy `h₂(p)` in bits.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// QBER implied by a fringe visibility: `(1 − V)/2`.
pub fn qber_from_visibility(v: f64) -> f64 {
    ((1.0 - v.clamp(0.0, 1.0)) / 2.0).clamp(0.0, 0.5)
}

/// Asymptotic BBM92 secret-key fraction per sifted bit,
/// `r = max(0, 1 − 2·h₂(QBER))` (symmetric errors, one-way
/// post-processing).
pub fn secret_key_fraction(qber: f64) -> f64 {
    (1.0 - 2.0 * binary_entropy(qber)).max(0.0)
}

/// The 11 % QBER threshold above which no one-way key survives.
pub const QBER_THRESHOLD: f64 = 0.11;

/// Per-channel QKD figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelKeyRate {
    /// Channel index.
    pub m: u32,
    /// Fringe visibility used.
    pub visibility: f64,
    /// Implied QBER.
    pub qber: f64,
    /// Sifted-bit rate (half the post-selected coincidence rate), bit/s.
    pub sifted_rate_hz: f64,
    /// Asymptotic secret-key rate, bit/s.
    pub secret_key_rate_hz: f64,
}

/// Multiplexed QKD feasibility estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QkdReport {
    /// Per-channel figures.
    pub channels: Vec<ChannelKeyRate>,
    /// Aggregate secret-key rate over all channels, bit/s.
    pub total_secret_key_rate_hz: f64,
}

impl QkdReport {
    /// Comparison rows: every channel must stay below the QBER
    /// threshold and the aggregate key rate must be positive.
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("QKD feasibility over the multiplexed comb");
        let worst_qber = self
            .channels
            .iter()
            .map(|c| c.qber)
            .fold(0.0f64, f64::max);
        r.push(Comparison::new(
            "QKD",
            "worst channel QBER (one-way threshold 11 %)",
            QBER_THRESHOLD,
            worst_qber,
            "",
            Expectation::AtMost,
        ));
        r.push(Comparison::new(
            "QKD",
            "aggregate secret-key rate",
            0.0,
            self.total_secret_key_rate_hz,
            "bit/s",
            Expectation::AtLeast,
        ));
        r
    }
}

/// Derives the QKD feasibility from a §IV time-bin run: the fringe
/// visibility per channel sets the QBER; the mean fringe level per frame
/// times the frame rate gives the sifted rate.
///
/// `frame_rate_hz` is the double-pulse repetition rate (10 MHz in the
/// paper); `mean_coincidence_prob_per_frame` the phase-averaged
/// post-selected coincidence probability per channel (from the model).
pub fn qkd_from_timebin(
    report: &TimeBinReport,
    frame_rate_hz: f64,
    mean_coincidence_prob_per_frame: &[f64],
) -> QkdReport {
    assert_eq!(
        report.fringes.len(),
        mean_coincidence_prob_per_frame.len(),
        "one probability per channel required"
    );
    let mut channels = Vec::new();
    let mut total = 0.0;
    for (f, &p_mean) in report.fringes.iter().zip(mean_coincidence_prob_per_frame) {
        let v = f.fit.visibility;
        let qber = qber_from_visibility(v);
        // Basis sifting keeps half of the post-selected coincidences.
        let sifted = 0.5 * p_mean * frame_rate_hz;
        let key = sifted * secret_key_fraction(qber);
        total += key;
        channels.push(ChannelKeyRate {
            m: f.m,
            visibility: v,
            qber,
            sifted_rate_hz: sifted,
            secret_key_rate_hz: key,
        });
    }
    QkdReport {
        channels,
        total_secret_key_rate_hz: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::QfcSource;
    use crate::timebin::{
        channel_state_model, coincidence_probability, try_run_timebin_experiment, TimeBinConfig,
    };
    use qfc_faults::FaultSchedule;

    #[test]
    fn binary_entropy_reference_points() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.11) - 0.4999).abs() < 0.001);
    }

    #[test]
    fn qber_and_key_fraction() {
        // Paper's 83 % visibility → QBER 8.5 % → positive key.
        let q = qber_from_visibility(0.83);
        assert!((q - 0.085).abs() < 1e-12);
        assert!(secret_key_fraction(q) > 0.1);
        // Below the CHSH threshold the key vanishes.
        assert_eq!(secret_key_fraction(0.12), 0.0);
    }

    #[test]
    fn key_fraction_threshold_near_11_percent() {
        assert!(secret_key_fraction(0.109) > 0.0);
        assert_eq!(secret_key_fraction(0.111), 0.0);
    }

    #[test]
    fn timebin_run_yields_positive_multiplexed_key() {
        let source = QfcSource::paper_device_timebin();
        let cfg = TimeBinConfig::fast_demo();
        let report = try_run_timebin_experiment(&source, &cfg, 71, &FaultSchedule::empty())
            .expect("clean run")
            .report;
        let probs: Vec<f64> = (1..=cfg.channels)
            .map(|m| {
                let model = channel_state_model(&source, &cfg, m);
                // Phase-average over the fringe.
                (0..16)
                    .map(|k| {
                        let phi = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
                        coincidence_probability(&model, &cfg, phi, 0.0)
                    })
                    .sum::<f64>()
                    / 16.0
            })
            .collect();
        let qkd = qkd_from_timebin(&report, 10.0e6, &probs);
        assert_eq!(qkd.channels.len(), cfg.channels as usize);
        for c in &qkd.channels {
            assert!(c.qber < QBER_THRESHOLD, "m={}: QBER {}", c.m, c.qber);
            assert!(c.secret_key_rate_hz > 0.0);
        }
        assert!(qkd.total_secret_key_rate_hz > 1.0, "{}", qkd.total_secret_key_rate_hz);
        assert!(qkd.to_report().all_pass());
    }

    #[test]
    #[should_panic(expected = "one probability per channel")]
    fn mismatched_probabilities_rejected() {
        let source = QfcSource::paper_device_timebin();
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.channels = 2;
        let report = try_run_timebin_experiment(&source, &cfg, 72, &FaultSchedule::empty())
            .expect("clean run")
            .report;
        let _ = qkd_from_timebin(&report, 1e7, &[1e-5]);
    }
}
