//! Photon-number statistics of the SFWM output: the two-mode squeezed
//! vacuum (TMSV).
//!
//! SFWM in one channel pair emits `|ψ⟩ = √(1−λ)·Σ λ^{n/2}|n,n⟩` with
//! thermal marginals of mean `μ = λ/(1−λ)`. Everything the coincidence
//! experiments see — CAR floors, multi-pair contamination of the time-bin
//! visibilities, heralded g²(0) — follows from these statistics.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

/// A two-mode squeezed vacuum characterized by its mean pair number `μ`
/// per mode (per pulse, or per coherence time for CW).
///
/// # Examples
///
/// ```
/// use qfc_quantum::fock::TwoModeSqueezedVacuum;
/// let tmsv = TwoModeSqueezedVacuum::new(0.01);
/// assert!((tmsv.p_n(0) - 1.0/1.01).abs() < 1e-9);
/// assert!(tmsv.heralded_g2(1.0) < 0.1); // good single photons at low gain
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoModeSqueezedVacuum {
    mu: f64,
}

impl TwoModeSqueezedVacuum {
    /// Creates a TMSV with mean pair number `mu ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is negative or not finite.
    pub fn new(mu: f64) -> Self {
        assert!(mu >= 0.0 && mu.is_finite(), "mean pair number must be ≥ 0");
        Self { mu }
    }

    /// Probability of exactly `n` pairs:
    /// `P(n) = μⁿ/(1+μ)^{n+1}` (thermal/geometric), evaluated in log
    /// space so large `n`/`μ` cannot overflow.
    pub fn p_n(&self, n: u32) -> f64 {
        if self.mu == 0.0 {
            return if n == 0 { 1.0 } else { 0.0 };
        }
        (cast::to_f64(n) * self.mu.ln() - (cast::to_f64(n) + 1.0) * (1.0 + self.mu).ln()).exp()
    }

    /// Heralded second-order coherence of the signal arm given a click of
    /// a non-number-resolving herald detector of efficiency `eta_herald`.
    ///
    /// `g²_h(0) = ⟨n(n−1)⟩_h / ⟨n⟩_h²` with the heralded distribution
    /// `P_h(n) ∝ P(n)·(1 − (1−η)ⁿ)`. Tends to `0` for `μ → 0` (single
    /// photons) and to `2` for `μ → ∞` (thermal).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eta_herald ≤ 1`.
    pub fn heralded_g2(&self, eta_herald: f64) -> f64 {
        assert!(
            eta_herald > 0.0 && eta_herald <= 1.0,
            "herald efficiency must be in (0, 1]"
        );
        if self.mu == 0.0 {
            return 0.0;
        }
        let mut norm = 0.0;
        let mut mean = 0.0;
        let mut second = 0.0;
        // The thermal tail decays geometrically; sum far enough out.
        let n_max = cast::f64_to_u32(60.0 * (1.0 + self.mu)) + 60;
        for n in 1..=n_max {
            let w = self.p_n(n) * (1.0 - (1.0 - eta_herald).powi(cast::u32_to_i32(n)));
            norm += w;
            mean += w * cast::to_f64(n);
            second += w * cast::to_f64(n) * (cast::to_f64(n) - 1.0);
        }
        if norm == 0.0 {
            return 0.0;
        }
        mean /= norm;
        second /= norm;
        second / (mean * mean)
    }

    /// Probability of a coincidence click between the two arms with arm
    /// efficiencies `eta_s`, `eta_i` (non-number-resolving detectors,
    /// no dark counts).
    pub fn coincidence_probability(&self, eta_s: f64, eta_i: f64) -> f64 {
        // Σ P(n)·(1 − (1−ηs)ⁿ)·(1 − (1−ηi)ⁿ)
        let n_max = cast::f64_to_u32(60.0 * (1.0 + self.mu)) + 60;
        (1..=n_max)
            .map(|n| {
                self.p_n(n)
                    * (1.0 - (1.0 - eta_s).powi(cast::u32_to_i32(n)))
                    * (1.0 - (1.0 - eta_i).powi(cast::u32_to_i32(n)))
            })
            .sum()
    }

    /// Probability of a single click on one arm with efficiency `eta`.
    pub fn single_probability(&self, eta: f64) -> f64 {
        // 1 − Σ P(n)(1−η)ⁿ = 1 − 1/(1 + μη) for thermal marginals.
        1.0 - 1.0 / (1.0 + self.mu * eta)
    }

    /// Visibility degradation of two-photon interference caused by
    /// multi-pair emission: `V ≈ 1/(1 + 2μ)` for post-selected time-bin
    /// interference in the low-gain regime.
    pub fn multipair_visibility_limit(&self) -> f64 {
        1.0 / (1.0 + 2.0 * self.mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pn_sums_to_one() {
        let t = TwoModeSqueezedVacuum::new(0.3);
        let total: f64 = (0..200).map(|n| t.p_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_distribution() {
        let t = TwoModeSqueezedVacuum::new(0.25);
        let mean: f64 = (0..300).map(|n| n as f64 * t.p_n(n)).sum();
        assert!((mean - 0.25).abs() < 1e-9);
    }

    #[test]
    fn heralded_g2_limits() {
        // Low gain → antibunched (g² ≈ 2μ·2 ≈ small).
        let low = TwoModeSqueezedVacuum::new(1e-3);
        assert!(low.heralded_g2(1.0) < 0.01, "g2 = {}", low.heralded_g2(1.0));
        // High gain → thermal.
        let high = TwoModeSqueezedVacuum::new(50.0);
        assert!((high.heralded_g2(1.0) - 2.0).abs() < 0.1);
        // Monotone in μ.
        let g_a = TwoModeSqueezedVacuum::new(0.01).heralded_g2(0.5);
        let g_b = TwoModeSqueezedVacuum::new(0.1).heralded_g2(0.5);
        assert!(g_a < g_b);
    }

    #[test]
    fn heralded_g2_zero_gain() {
        assert_eq!(TwoModeSqueezedVacuum::new(0.0).heralded_g2(0.3), 0.0);
    }

    #[test]
    fn coincidence_probability_low_gain_is_mu_eta_eta() {
        let t = TwoModeSqueezedVacuum::new(1e-4);
        let p = t.coincidence_probability(0.3, 0.4);
        assert!((p / (1e-4 * 0.3 * 0.4) - 1.0).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn single_probability_closed_form() {
        let t = TwoModeSqueezedVacuum::new(0.2);
        let eta: f64 = 0.35;
        let direct: f64 = 1.0
            - (0..500)
                .map(|n| t.p_n(n) * (1.0 - eta).powi(n as i32))
                .sum::<f64>();
        assert!((t.single_probability(eta) - direct).abs() < 1e-9);
    }

    #[test]
    fn multipair_visibility_decreases_with_gain() {
        let v1 = TwoModeSqueezedVacuum::new(0.001).multipair_visibility_limit();
        let v2 = TwoModeSqueezedVacuum::new(0.1).multipair_visibility_limit();
        assert!(v1 > 0.99 && v2 < v1);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_mu_panics() {
        let _ = TwoModeSqueezedVacuum::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "herald efficiency")]
    fn bad_eta_panics() {
        let _ = TwoModeSqueezedVacuum::new(0.1).heralded_g2(0.0);
    }
}
