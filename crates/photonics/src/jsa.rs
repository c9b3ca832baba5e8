//! Joint spectral amplitude (JSA) of the emitted photon pairs and the
//! heralded-photon purity.
//!
//! The §II claim that the comb yields **pure** heralded single photons —
//! and the §V requirement that "the generated photons have the same
//! bandwidth as the pump field" so that temporal modes are
//! indistinguishable — are both statements about the JSA:
//!
//! `JSA(ν_s, ν_i) ∝ α(ν_s + ν_i) · ℓ_s(ν_s) · ℓ_i(ν_i)`
//!
//! where `α` is the pump (sum-frequency) envelope and `ℓ_{s,i}` are the
//! Lorentzian field responses of the signal/idler resonances. When the
//! pump bandwidth matches the resonance linewidth, the JSA factorizes and
//! the Schmidt number `K → 1` (heralded purity `1/K → 1`).

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::hermitian::svd;

use crate::ring::Microring;
use crate::waveguide::Polarization;

/// Spectral envelope of the pump drive at the sum frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PumpEnvelope {
    /// Gaussian pulse of the given intensity-FWHM bandwidth (Hz) — the
    /// filtered double-pulse drive of §IV–V.
    Gaussian {
        /// Intensity FWHM bandwidth, Hz.
        fwhm: f64,
    },
    /// Lorentzian line of the given FWHM (Hz) — the self-locked
    /// intracavity CW pump of §II, whose line is itself a ring resonance.
    Lorentzian {
        /// FWHM linewidth, Hz.
        fwhm: f64,
    },
}

impl PumpEnvelope {
    /// Complex field amplitude at detuning `d` (Hz) of the *sum*
    /// frequency from twice the pump center.
    pub fn amplitude(&self, d: f64) -> Complex64 {
        match *self {
            PumpEnvelope::Gaussian { fwhm } => {
                let sigma = fwhm / (8.0 * std::f64::consts::LN_2).sqrt();
                Complex64::real((-0.25 * (d / sigma).powi(2)).exp())
            }
            PumpEnvelope::Lorentzian { fwhm } => {
                let half = 0.5 * fwhm;
                Complex64::real(half) / Complex64::new(half, d)
            }
        }
    }
}

/// A discretized joint spectral amplitude for one channel pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointSpectralAmplitude {
    matrix: CMatrix,
    grid_step: f64,
}

impl JointSpectralAmplitude {
    /// Builds the JSA of channel pair `m` on an `n × n` frequency grid
    /// spanning ±`span_linewidths` loaded linewidths around each
    /// resonance.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `m == 0`.
    pub fn for_channel(
        ring: &Microring,
        pol: Polarization,
        m: u32,
        pump: PumpEnvelope,
        n: usize,
        span_linewidths: f64,
    ) -> Self {
        assert!(n >= 8, "JSA grid too coarse");
        assert!(m > 0, "pair channel must differ from the pump mode");
        let lw = ring.linewidth().hz();
        let span = span_linewidths * lw;
        let step = 2.0 * span / cast::to_f64(n - 1);
        let f_s0 = ring.resonance(pol, cast::u32_to_i32(m)).hz();
        let f_i0 = ring.resonance(pol, -cast::u32_to_i32(m)).hz();
        let f_p0 = ring.resonance(pol, 0).hz();
        // Constant part of the sum-frequency detuning: the grid-dispersion
        // energy mismatch of this channel pair.
        let grid_mismatch = f_s0 + f_i0 - 2.0 * f_p0;

        // The intracavity pump spectrum is the laser envelope filtered by
        // its own (pump) resonance; the sum-frequency envelope of the two
        // annihilated pump photons is the self-convolution of that
        // filtered spectrum. Precompute it on the lattice of possible
        // `ds + di` values.
        let window = 2.0 * span + 6.0 * lw;
        let fine = lw / 8.0;
        let fine_n = cast::f64_to_usize((2.0 * window / fine).ceil()) + 1;
        let pump_field: Vec<Complex64> = (0..fine_n)
            .map(|k| {
                let x = -window + cast::to_f64(k) * fine;
                pump.amplitude(x) * lorentzian_field(x, lw)
            })
            .collect();
        let alpha_at = |delta: f64| -> Complex64 {
            let mut acc = Complex64::real(0.0);
            for (k, &p) in pump_field.iter().enumerate() {
                let x = -window + cast::to_f64(k) * fine;
                let y = delta - x;
                if y.abs() <= window {
                    let idx = cast::f64_to_usize(((y + window) / fine).round());
                    if idx < fine_n {
                        acc += p * pump_field[idx];
                    }
                }
            }
            acc
        };
        // Lattice of sum detunings ds + di ∈ {−2span + k·step}.
        let alphas: Vec<Complex64> = (0..(2 * n - 1))
            .map(|k| alpha_at(grid_mismatch - 2.0 * span + cast::to_f64(k) * step))
            .collect();
        let peak = alphas.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-300);

        let matrix = CMatrix::from_fn(n, n, |i, j| {
            let ds = -span + cast::to_f64(i) * step; // signal detuning
            let di = -span + cast::to_f64(j) * step; // idler detuning
            let ls = lorentzian_field(ds, lw);
            let li = lorentzian_field(di, lw);
            (alphas[i + j] / peak) * ls * li
        });
        Self {
            matrix,
            grid_step: step,
        }
    }

    /// The underlying matrix (signal index = row, idler index = column).
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// Grid step in Hz.
    pub fn grid_step(&self) -> f64 {
        self.grid_step
    }

    /// Normalized Schmidt coefficients `λ_k` (descending, `Σλ_k = 1`)
    /// from the singular values of the discretized JSA.
    pub fn schmidt_coefficients(&self) -> Vec<f64> {
        let s = svd(&self.matrix, 1e-10);
        let total: f64 = s.singular_values.iter().map(|x| x * x).sum();
        s.singular_values.iter().map(|x| x * x / total).collect()
    }

    /// Schmidt number `K = 1/Σλ_k²` — the effective number of spectral
    /// modes shared by signal and idler.
    pub fn schmidt_number(&self) -> f64 {
        let lam = self.schmidt_coefficients();
        1.0 / lam.iter().map(|x| x * x).sum::<f64>()
    }

    /// Purity of the heralded single photon, `P = 1/K`.
    pub fn heralded_purity(&self) -> f64 {
        1.0 / self.schmidt_number()
    }
}

fn lorentzian_field(detuning: f64, fwhm: f64) -> Complex64 {
    let half = 0.5 * fwhm;
    Complex64::real(half) / Complex64::new(half, detuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Microring;

    fn jsa(pump: PumpEnvelope) -> JointSpectralAmplitude {
        let ring = Microring::paper_device();
        JointSpectralAmplitude::for_channel(&ring, Polarization::Te, 1, pump, 48, 6.0)
    }

    #[test]
    fn schmidt_coefficients_normalized_and_descending() {
        let j = jsa(PumpEnvelope::Lorentzian { fwhm: 110e6 });
        let lam = j.schmidt_coefficients();
        let total: f64 = lam.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(lam.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn resonance_matched_pulse_gives_high_purity() {
        // A pulse at least as broad as the resonance: the cavity filter
        // dominates and the JSA is nearly separable — the §V condition
        // "generated photons have the same bandwidth as the pump field"
        // (the pump inside the cavity IS resonance-shaped).
        let j = jsa(PumpEnvelope::Gaussian { fwhm: 220e6 });
        let p = j.heralded_purity();
        assert!(p > 0.85, "purity {p}");
    }

    #[test]
    fn narrowband_cw_pump_degrades_purity() {
        // A pump far narrower than the resonance anti-correlates the
        // pair (energy conservation pins ν_s + ν_i to the pump line):
        // purity drops toward the CW limit.
        let narrow = jsa(PumpEnvelope::Lorentzian { fwhm: 2e6 });
        let matched = jsa(PumpEnvelope::Gaussian { fwhm: 220e6 });
        assert!(
            narrow.heralded_purity() < matched.heralded_purity(),
            "narrow {} matched {}",
            narrow.heralded_purity(),
            matched.heralded_purity()
        );
    }

    #[test]
    fn purity_saturates_for_very_broad_pump() {
        // The pump is filtered by its own resonance, so widening the
        // laser beyond a few linewidths changes nothing: the cavity sets
        // the bandwidth (the paper's "intrinsically given by the
        // resonance characteristic" statement).
        let broad = jsa(PumpEnvelope::Gaussian { fwhm: 2e9 });
        let broader = jsa(PumpEnvelope::Gaussian { fwhm: 10e9 });
        assert!(
            (broad.heralded_purity() - broader.heralded_purity()).abs() < 0.02,
            "broad {} broader {}",
            broad.heralded_purity(),
            broader.heralded_purity()
        );
    }

    #[test]
    fn schmidt_number_at_least_one() {
        for fwhm in [5e6, 110e6, 2e9] {
            let j = jsa(PumpEnvelope::Gaussian { fwhm });
            assert!(j.schmidt_number() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn pump_envelope_amplitudes_peak_at_zero() {
        for env in [
            PumpEnvelope::Gaussian { fwhm: 1e8 },
            PumpEnvelope::Lorentzian { fwhm: 1e8 },
        ] {
            let peak = env.amplitude(0.0).abs();
            assert!((peak - 1.0).abs() < 1e-12);
            assert!(env.amplitude(3e8).abs() < peak);
        }
    }

    #[test]
    #[should_panic(expected = "grid too coarse")]
    fn rejects_tiny_grid() {
        let ring = Microring::paper_device();
        let _ = JointSpectralAmplitude::for_channel(
            &ring,
            Polarization::Te,
            1,
            PumpEnvelope::Lorentzian { fwhm: 1e8 },
            4,
            6.0,
        );
    }
}
