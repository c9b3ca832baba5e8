//! The Clauser–Horne–Shimony–Holt (CHSH) inequality — the §IV
//! entanglement witness.
//!
//! For time-bin qubits the analyzers are unbalanced interferometers whose
//! phases select equatorial measurement axes; a Bell state of visibility
//! `V` yields `S = 2√2·V`, so any raw visibility above `1/√2 ≈ 70.7 %`
//! violates the local bound `S ≤ 2`. The paper measures `V = 83 %` ⇒
//! `S ≈ 2.35`.

use serde::{Deserialize, Serialize};

use crate::density::DensityMatrix;
use crate::ops::equatorial_observable;

/// The local-hidden-variable bound.
pub const CLASSICAL_BOUND: f64 = 2.0;

/// The quantum (Tsirelson) bound `2√2`.
pub const TSIRELSON_BOUND: f64 = 2.0 * std::f64::consts::SQRT_2;

/// Measurement phases of the four CHSH settings `(a, a′, b, b′)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChshSettings {
    /// Alice's first analyzer phase.
    pub a: f64,
    /// Alice's second analyzer phase.
    pub a_prime: f64,
    /// Bob's first analyzer phase.
    pub b: f64,
    /// Bob's second analyzer phase.
    pub b_prime: f64,
}

impl ChshSettings {
    /// Settings that are optimal for `|Φ⁺⟩` with equatorial analyzers:
    /// correlations go as `cos(a + b)`, so
    /// `a = 0, a′ = π/2, b = −π/4, b′ = π/4` give `S = 2√2`.
    pub fn optimal_for_phi_plus() -> Self {
        use std::f64::consts::FRAC_PI_2;
        use std::f64::consts::FRAC_PI_4;
        Self {
            a: 0.0,
            a_prime: FRAC_PI_2,
            b: -FRAC_PI_4,
            b_prime: FRAC_PI_4,
        }
    }
}

impl Default for ChshSettings {
    fn default() -> Self {
        Self::optimal_for_phi_plus()
    }
}

/// Correlation `E(α, β) = ⟨O(α) ⊗ O(β)⟩` for equatorial observables at
/// analyzer phases `α` and `β`.
///
/// # Panics
///
/// Panics unless `rho` is a two-qubit state.
pub fn correlation(rho: &DensityMatrix, alpha: f64, beta: f64) -> f64 {
    assert_eq!(rho.qubits(), 2, "CHSH needs a two-qubit state");
    let obs = equatorial_observable(alpha).kron(&equatorial_observable(beta));
    rho.expectation(&obs)
}

/// The CHSH combination
/// `S = |E(a,b) + E(a,b′) + E(a′,b) − E(a′,b′)|`.
pub fn s_value(rho: &DensityMatrix, settings: &ChshSettings) -> f64 {
    let e_ab = correlation(rho, settings.a, settings.b);
    let e_ab2 = correlation(rho, settings.a, settings.b_prime);
    let e_a2b = correlation(rho, settings.a_prime, settings.b);
    let e_a2b2 = correlation(rho, settings.a_prime, settings.b_prime);
    (e_ab + e_ab2 + e_a2b - e_a2b2).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::{bell_phi_plus, werner_state};
    use crate::state::PureState;

    #[test]
    fn bell_state_reaches_tsirelson() {
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        let s = s_value(&rho, &ChshSettings::optimal_for_phi_plus());
        assert!((s - TSIRELSON_BOUND).abs() < 1e-9, "S = {s}");
    }

    #[test]
    fn correlation_follows_cosine_law() {
        // For |Φ⁺⟩ with equatorial analyzers, E(α, β) = cos(α + β).
        let rho = DensityMatrix::from_pure(&bell_phi_plus());
        for (a, b) in [(0.0, 0.0), (0.4, 0.3), (1.2, -0.5)] {
            let e = correlation(&rho, a, b);
            assert!((e - (a + b).cos()).abs() < 1e-9, "E({a},{b}) = {e}");
        }
    }

    #[test]
    fn werner_s_scales_with_visibility() {
        for v in [0.5, 0.71, 0.83, 1.0] {
            let rho = werner_state(v, 0.0);
            let s = s_value(&rho, &ChshSettings::optimal_for_phi_plus());
            assert!((s - TSIRELSON_BOUND * v).abs() < 1e-9, "V={v}: S={s}");
        }
    }

    #[test]
    fn product_state_respects_classical_bound() {
        let prod = PureState::plus().tensor(&PureState::plus());
        let rho = DensityMatrix::from_pure(&prod);
        // Scan a few settings; a separable state can reach at most 2.
        for off in [0.0, 0.3, 0.9] {
            let s = s_value(
                &rho,
                &ChshSettings {
                    a: off,
                    a_prime: off + std::f64::consts::FRAC_PI_2,
                    b: off - std::f64::consts::FRAC_PI_4,
                    b_prime: off + std::f64::consts::FRAC_PI_4,
                },
            );
            assert!(s <= CLASSICAL_BOUND + 1e-9, "S = {s}");
        }
    }

    #[test]
    fn maximally_mixed_gives_zero() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!(s_value(&rho, &ChshSettings::default()).abs() < 1e-12);
    }
}
