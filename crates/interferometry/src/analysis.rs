//! Slot-resolved two-photon analysis: the full Franson post-selection
//! table of §IV.
//!
//! After both photons pass their analyzers, each lands in one of three
//! arrival slots (first, middle, last); the 3 × 3 table of joint
//! probabilities shows where the quantum interference lives:
//! only the **middle/middle** cell depends on the phases — the satellite
//! cells are phase-independent, which is exactly what the experiment
//! post-selects against.

use qfc_mathkit::cmatrix::CMatrix;
use qfc_mathkit::complex::Complex64;
use qfc_mathkit::cvector::CVector;
use qfc_quantum::density::DensityMatrix;

use crate::michelson::UnbalancedMichelson;

/// Single-photon slot POVM elements for an analyzer at phase `φ`:
/// `E_first = ¼|e⟩⟨e|`, `E_middle = ½·P(φ)` with `P` the equatorial
/// projector (phase on the late-bin projection, matching
/// [`qfc_quantum::ops::equatorial_projector`]; the Michelson long-arm
/// phase maps onto it with a sign flip, which no visibility or CHSH
/// observable can distinguish), `E_last = ¼|l⟩⟨l|`. The complementary
/// flux exits the analyzer's unused port.
fn slot_povm(ifo: &UnbalancedMichelson) -> [CMatrix; 3] {
    let t = 1.0 - ifo.excess_loss;
    let e = CVector::from_real(&[1.0, 0.0]);
    let l = CVector::from_real(&[0.0, 1.0]);
    let mid = CVector::from_vec(vec![
        Complex64::real(0.5),
        Complex64::cis(ifo.phase_rad).scale(0.5),
    ]);
    [
        CMatrix::outer(&e, &e).scale(0.25 * t),
        CMatrix::outer(&mid, &mid).scale(t),
        CMatrix::outer(&l, &l).scale(0.25 * t),
    ]
}

/// Joint slot-probability table `p[i][j]` for a two-photon time-bin
/// state analyzed by `ifo_a` (rows) and `ifo_b` (columns); slot order is
/// (first, middle, last).
///
/// # Panics
///
/// Panics unless `rho` is a two-qubit state.
pub fn two_photon_slot_table(
    rho: &DensityMatrix,
    ifo_a: &UnbalancedMichelson,
    ifo_b: &UnbalancedMichelson,
) -> [[f64; 3]; 3] {
    assert_eq!(rho.qubits(), 2, "needs a two-photon time-bin state");
    let pa = slot_povm(ifo_a);
    let pb = slot_povm(ifo_b);
    let mut table = [[0.0f64; 3]; 3];
    for (i, ea) in pa.iter().enumerate() {
        for (j, eb) in pb.iter().enumerate() {
            table[i][j] = rho.expectation(&ea.kron(eb)).max(0.0);
        }
    }
    table
}

/// Total post-selected probability of the middle/middle cell — the
/// §IV coincidence signal.
pub fn middle_middle(table: &[[f64; 3]; 3]) -> f64 {
    table[1][1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_quantum::bell::bell_phi;
    use qfc_quantum::timebin::middle_slot_coincidence;

    fn ifo(phi: f64) -> UnbalancedMichelson {
        UnbalancedMichelson::paper_instrument(phi)
    }

    #[test]
    fn phase_averaged_table_total_is_one_quarter() {
        // The instantaneous total is phase-dependent (complementary
        // light exits the unused ports); averaging a fringe period
        // restores the ¼ energy bookkeeping.
        let rho = DensityMatrix::from_pure(&bell_phi(0.0));
        let n = 16;
        let avg: f64 = (0..n)
            .map(|k| {
                let phi = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
                // All 9 cells: the fraction of pairs that exit toward
                // the detectors.
                let table = two_photon_slot_table(&rho, &ifo(phi), &ifo(0.0));
                table.iter().flatten().sum::<f64>()
            })
            .sum::<f64>()
            / n as f64;
        assert!((avg - 0.25).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn middle_middle_matches_projector_formula() {
        let rho = DensityMatrix::from_pure(&bell_phi(0.4));
        for (a, b) in [(0.0, 0.0), (0.7, -0.2), (2.0, 1.0)] {
            let table = two_photon_slot_table(&rho, &ifo(a), &ifo(b));
            let expect = middle_slot_coincidence(&rho, a, b);
            assert!(
                (middle_middle(&table) - expect).abs() < 1e-12,
                "({a},{b}): {} vs {expect}",
                middle_middle(&table)
            );
        }
    }

    #[test]
    fn satellite_cells_are_phase_independent() {
        let rho = DensityMatrix::from_pure(&bell_phi(0.0));
        let t1 = two_photon_slot_table(&rho, &ifo(0.0), &ifo(0.0));
        let t2 = two_photon_slot_table(&rho, &ifo(1.3), &ifo(-2.1));
        for i in 0..3 {
            for j in 0..3 {
                if i == 1 && j == 1 {
                    continue;
                }
                assert!(
                    (t1[i][j] - t2[i][j]).abs() < 1e-12,
                    "cell ({i},{j}) moved with phase"
                );
            }
        }
        // But the middle/middle cell does move.
        assert!((t1[1][1] - t2[1][1]).abs() > 0.01);
    }

    #[test]
    fn correlated_bins_empty_cross_satellites() {
        // |Φ⟩ has both photons in the same bin: the first/last and
        // last/first cells (photon A early via short AND photon B late
        // via long requires |el⟩ population) vanish.
        let rho = DensityMatrix::from_pure(&bell_phi(0.0));
        let table = two_photon_slot_table(&rho, &ifo(0.5), &ifo(0.5));
        assert!(table[0][2] < 1e-14);
        assert!(table[2][0] < 1e-14);
        // Same-bin satellites are populated.
        assert!(table[0][0] > 0.01);
        assert!(table[2][2] > 0.01);
    }

    #[test]
    fn excess_loss_scales_table() {
        let rho = DensityMatrix::from_pure(&bell_phi(0.0));
        let lossless = two_photon_slot_table(&rho, &ifo(0.0), &ifo(0.0));
        let lossy_ifo = ifo(0.0).with_excess_loss(0.5);
        let lossy = two_photon_slot_table(&rho, &lossy_ifo, &lossy_ifo);
        for i in 0..3 {
            for j in 0..3 {
                if lossless[i][j] > 1e-12 {
                    assert!(
                        (lossy[i][j] / lossless[i][j] - 0.25).abs() < 1e-9,
                        "cell ({i},{j}) should scale by (1 − loss)²"
                    );
                }
            }
        }
    }
}
