//! Unbalanced Michelson interferometers: the §IV–V workhorses.
//!
//! One stabilized unbalanced Michelson converts each pump pulse into a
//! phase-coherent **double pulse** (writing the time-bin basis); a second,
//! path-matched interferometer per photon acts as the **analyzer**,
//! mapping the time-bin qubit onto three arrival slots whose middle slot
//! interferes the early-via-long and late-via-short paths.

use serde::{Deserialize, Serialize};

use qfc_mathkit::complex::Complex64;

use qfc_quantum::state::PureState;

/// An unbalanced Michelson interferometer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnbalancedMichelson {
    /// Arm-length imbalance expressed as a time delay, s.
    pub delay_s: f64,
    /// Relative phase of the long arm, rad.
    pub phase_rad: f64,
    /// Excess insertion loss (power fraction lost beyond the intrinsic
    /// 50 % splitting loss), 0‥1.
    pub excess_loss: f64,
}

impl UnbalancedMichelson {
    /// Creates an interferometer with the given delay and phase and no
    /// excess loss.
    ///
    /// # Panics
    ///
    /// Panics if `delay_s <= 0`.
    pub fn new(delay_s: f64, phase_rad: f64) -> Self {
        assert!(delay_s > 0.0, "delay must be positive");
        Self {
            delay_s,
            phase_rad,
            excess_loss: 0.0,
        }
    }

    /// The paper's interferometer: imbalance matched to the double-pulse
    /// separation of a few nanoseconds.
    pub fn paper_instrument(phase_rad: f64) -> Self {
        Self::new(4.0e-9, phase_rad)
    }

    /// Sets the excess insertion loss.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1`.
    pub fn with_excess_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.excess_loss = loss;
        self
    }

    /// `true` when two interferometers are path-matched within the field
    /// coherence time `coherence_s` — the condition for the analyzer to
    /// erase the which-bin information.
    pub fn matches(&self, other: &Self, coherence_s: f64) -> bool {
        (self.delay_s - other.delay_s).abs() < coherence_s
    }

    /// Analyzer action on a single time-bin qubit `α|e⟩ + β|l⟩`:
    /// amplitudes of the three arrival slots
    /// `(first, middle, last) = (α, α·e^{iφ} + β, β·e^{iφ})/2`.
    ///
    /// # Panics
    ///
    /// Panics unless `qubit` is a single-qubit state.
    pub fn analyze(&self, qubit: &PureState) -> [Complex64; 3] {
        assert_eq!(qubit.qubits(), 1, "analyzer takes a single time-bin qubit");
        let t = (1.0 - self.excess_loss).sqrt();
        let alpha = qubit.amplitude(0);
        let beta = qubit.amplitude(1);
        let phase = Complex64::cis(self.phase_rad);
        [
            alpha.scale(0.5 * t),
            (alpha * phase + beta).scale(0.5 * t),
            (beta * phase).scale(0.5 * t),
        ]
    }

    /// Probabilities of the three arrival slots for a time-bin qubit.
    pub fn slot_probabilities(&self, qubit: &PureState) -> [f64; 3] {
        let a = self.analyze(qubit);
        [a[0].norm_sqr(), a[1].norm_sqr(), a[2].norm_sqr()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_mathkit::cvector::CVector;

    #[test]
    fn analyzer_slot_probabilities_early_input() {
        let m = UnbalancedMichelson::new(4e-9, 0.7);
        let p = m.slot_probabilities(&PureState::ket0());
        // Early photon: ¼ first, ¼ middle (via long), 0 last.
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
        assert!(p[2] < 1e-14);
    }

    #[test]
    fn middle_slot_interferes_superposition() {
        // (|e⟩ + |l⟩)/√2 at analyzer phase 0: middle amplitude
        // (1 + 1)/(2√2) → probability ½; at phase π: 0.
        let plus = PureState::plus();
        let constructive = UnbalancedMichelson::new(4e-9, 0.0).slot_probabilities(&plus);
        assert!((constructive[1] - 0.5).abs() < 1e-12);
        let destructive =
            UnbalancedMichelson::new(4e-9, std::f64::consts::PI).slot_probabilities(&plus);
        assert!(destructive[1] < 1e-12);
    }

    #[test]
    fn analyzer_conserves_probability_up_to_unused_port() {
        let m = UnbalancedMichelson::new(4e-9, 0.4);
        for amps in [
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.6, 0.8],
        ] {
            let q = PureState::from_amplitudes(CVector::from_real(&amps)).expect("valid");
            let p = m.slot_probabilities(&q);
            let total: f64 = p.iter().sum();
            // ≤ 1; mean over phases is ½.
            assert!(total <= 1.0 + 1e-12, "total {total}");
        }
    }

    #[test]
    fn matching_condition() {
        let a = UnbalancedMichelson::new(4.0e-9, 0.0);
        let b = UnbalancedMichelson::new(4.0e-9 + 0.2e-9, 0.0);
        // Paper's photons: τ_c ≈ 1.45 ns → matched.
        assert!(a.matches(&b, 1.45e-9));
        // Much shorter coherence would expose the path difference.
        assert!(!a.matches(&b, 0.05e-9));
    }

    #[test]
    #[should_panic(expected = "delay must be positive")]
    fn rejects_zero_delay() {
        let _ = UnbalancedMichelson::new(0.0, 0.0);
    }
}
