//! Single-photon detector model: efficiency, dark counts, timing jitter,
//! and dead time — the four imperfections that shape every measured
//! coincidence histogram in the paper.

use qfc_mathkit::cast;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::rng::{bernoulli, normal, poisson};

use crate::events::{TagStream, MAX_DURATION_PS};

/// A click detector (non-number-resolving).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinglePhotonDetector {
    /// Detection efficiency, 0‥1.
    pub efficiency: f64,
    /// Dark-count rate, Hz.
    pub dark_count_rate_hz: f64,
    /// Gaussian timing jitter (1σ), ps.
    pub jitter_sigma_ps: f64,
    /// Dead time after each click, ps.
    pub dead_time_ps: i64,
}

impl SinglePhotonDetector {
    /// Telecom InGaAs avalanche detector of the era (id Quantique
    /// id201-class): η ≈ 15 %, kHz darks, ~100 ps jitter, µs dead time.
    pub fn ingaas_paper() -> Self {
        Self {
            efficiency: 0.15,
            dark_count_rate_hz: 1000.0,
            jitter_sigma_ps: 100.0,
            dead_time_ps: 10_000_000, // 10 µs
        }
    }

    /// Fallible constructor: validates every parameter and returns
    /// [`QfcError::InvalidParameter`] on the first violation.
    pub fn try_new(
        efficiency: f64,
        dark_count_rate_hz: f64,
        jitter_sigma_ps: f64,
        dead_time_ps: i64,
    ) -> QfcResult<Self> {
        let det = Self {
            efficiency,
            dark_count_rate_hz,
            jitter_sigma_ps,
            dead_time_ps,
        };
        det.try_validate()?;
        Ok(det)
    }

    /// Fallible form of [`Self::validate`].
    pub fn try_validate(&self) -> QfcResult<()> {
        if !(0.0..=1.0).contains(&self.efficiency) {
            return Err(QfcError::invalid(format!(
                "detector efficiency must be in [0, 1], got {}",
                self.efficiency
            )));
        }
        if !(self.dark_count_rate_hz >= 0.0 && self.dark_count_rate_hz.is_finite()) {
            return Err(QfcError::invalid(format!(
                "detector dark rate must be finite and ≥ 0, got {}",
                self.dark_count_rate_hz
            )));
        }
        // A polar-method normal variate is below 16 in magnitude, so a
        // jitter of at most 2^56 ps moves a tag by less than 2^60 ps.
        let max_jitter_ps = cast::to_f64(MAX_DURATION_PS >> 6);
        if !(0.0..=max_jitter_ps).contains(&self.jitter_sigma_ps) {
            return Err(QfcError::invalid(format!(
                "detector jitter must be in [0, {max_jitter_ps}] ps, got {}",
                self.jitter_sigma_ps
            )));
        }
        if self.dead_time_ps < 0 {
            return Err(QfcError::invalid(format!(
                "detector dead time must be ≥ 0, got {}",
                self.dead_time_ps
            )));
        }
        Ok(())
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of physical range.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}"); // qfc-lint: allow(panic-reachability) — documented panicking wrapper over try_validate (`# Panics` contract)
        }
    }

    /// Simulates detection of photons with true arrival times
    /// `arrivals_ps` over an observation window `[0, duration_ps)`:
    /// applies efficiency loss, adds Gaussian jitter, injects uniform
    /// dark counts, and enforces dead time.
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid or `duration_ps <= 0`.
    pub fn detect<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        arrivals_ps: &[i64],
        duration_ps: i64,
    ) -> TagStream {
        self.validate();
        assert!(duration_ps > 0, "duration must be positive");
        let mut clicks: Vec<i64> = Vec::with_capacity(arrivals_ps.len());
        for &t in arrivals_ps {
            if !bernoulli(rng, self.efficiency) {
                continue;
            }
            let t = if self.jitter_sigma_ps > 0.0 {
                t + cast::f64_to_i64(normal(rng, 0.0, self.jitter_sigma_ps).round())
            } else {
                t
            };
            clicks.push(t);
        }
        // Dark counts: Poisson number, uniform over the window.
        let expected_darks = self.dark_count_rate_hz * cast::to_f64(duration_ps) * 1e-12;
        let n_dark = poisson(rng, expected_darks);
        clicks.reserve_exact(cast::u64_to_usize(n_dark));
        for _ in 0..n_dark {
            clicks.push(cast::f64_to_i64(rng.gen::<f64>() * cast::to_f64(duration_ps)));
        }
        clicks.sort_unstable();
        // Dead time: drop clicks within the hold-off of the last accepted.
        // Compacted in place with a write index — no second buffer.
        // qfc-lint: hot
        if self.dead_time_ps > 0 {
            let mut write = 0usize;
            let mut last: Option<i64> = None;
            for read in 0..clicks.len() {
                let t = clicks[read];
                if last.is_none_or(|l| t - l >= self.dead_time_ps) {
                    clicks[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            clicks.truncate(write);
        }
        TagStream::from_sorted(clicks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_mathkit::rng::rng_from_seed;

    const SECOND_PS: i64 = 1_000_000_000_000;

    #[test]
    fn ideal_detector_passes_everything() {
        let mut rng = rng_from_seed(1);
        let arrivals: Vec<i64> = (0..100).map(|i| i * 1_000_000).collect();
        let ideal = SinglePhotonDetector {
            efficiency: 1.0,
            dark_count_rate_hz: 0.0,
            jitter_sigma_ps: 0.0,
            dead_time_ps: 0,
        };
        let out = ideal.detect(&mut rng, &arrivals, SECOND_PS);
        assert_eq!(out.len(), 100);
        assert_eq!(out.as_slice(), arrivals.as_slice());
    }

    #[test]
    fn efficiency_thins_the_stream() {
        let mut rng = rng_from_seed(2);
        let arrivals: Vec<i64> = (0..100_000).map(|i| i * 1_000_000).collect();
        let det = SinglePhotonDetector {
            efficiency: 0.3,
            dark_count_rate_hz: 0.0,
            jitter_sigma_ps: 0.0,
            dead_time_ps: 0,
        };
        let out = det.detect(&mut rng, &arrivals, 200 * SECOND_PS);
        let frac = out.len() as f64 / arrivals.len() as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn dark_counts_at_expected_rate() {
        let mut rng = rng_from_seed(3);
        let det = SinglePhotonDetector {
            efficiency: 1.0,
            dark_count_rate_hz: 5000.0,
            jitter_sigma_ps: 0.0,
            dead_time_ps: 0,
        };
        let out = det.detect(&mut rng, &[], 10 * SECOND_PS);
        let rate = out.rate_hz(10.0);
        assert!((rate - 5000.0).abs() < 150.0, "rate = {rate}");
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let mut rng = rng_from_seed(4);
        let arrivals = vec![500_000i64; 20_000];
        let det = SinglePhotonDetector {
            efficiency: 1.0,
            dark_count_rate_hz: 0.0,
            jitter_sigma_ps: 120.0,
            dead_time_ps: 0,
        };
        let out = det.detect(&mut rng, &arrivals, SECOND_PS);
        let mean: f64 =
            out.as_slice().iter().map(|&t| t as f64).sum::<f64>() / out.len() as f64;
        let var: f64 = out
            .as_slice()
            .iter()
            .map(|&t| (t as f64 - mean).powi(2))
            .sum::<f64>()
            / out.len() as f64;
        assert!((var.sqrt() - 120.0).abs() < 5.0, "σ = {}", var.sqrt());
    }

    #[test]
    fn dead_time_enforced() {
        let mut rng = rng_from_seed(5);
        // Clicks every 100 ns, dead time 250 ns → keep every third.
        let arrivals: Vec<i64> = (0..30).map(|i| i * 100_000).collect();
        let det = SinglePhotonDetector {
            efficiency: 1.0,
            dark_count_rate_hz: 0.0,
            jitter_sigma_ps: 0.0,
            dead_time_ps: 250_000,
        };
        let out = det.detect(&mut rng, &arrivals, SECOND_PS);
        assert_eq!(out.len(), 10);
        assert!(out
            .as_slice()
            .windows(2)
            .all(|w| w[1] - w[0] >= 250_000));
    }

    #[test]
    fn preset_is_valid() {
        SinglePhotonDetector::ingaas_paper().validate();
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn invalid_efficiency_rejected() {
        let mut det = SinglePhotonDetector::ingaas_paper();
        det.efficiency = 1.5;
        det.validate();
    }

    #[test]
    fn try_new_validates_every_field() {
        assert!(SinglePhotonDetector::try_new(0.15, 1000.0, 100.0, 10_000_000).is_ok());
        let err = SinglePhotonDetector::try_new(1.5, 0.0, 0.0, 0).unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
        assert!(err.to_string().contains("efficiency"));
        assert!(SinglePhotonDetector::try_new(0.5, -1.0, 0.0, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, f64::NAN, 0.0, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, f64::INFINITY, 0.0, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, 0.0, -1.0, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, 0.0, f64::NAN, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, 0.0, f64::INFINITY, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, 0.0, 1e17, 0).is_err());
        assert!(SinglePhotonDetector::try_new(0.5, 0.0, 0.0, -1).is_err());
    }
}
