//! Optical parametric oscillation: the above-threshold regime of §III.
//!
//! When the round-trip parametric gain of the circulating pump(s) exceeds
//! the round-trip loss, the ring oscillates: below threshold the output on
//! the FWM bands grows **quadratically** with pump power (spontaneous +
//! parametric fluorescence), above threshold it grows **linearly** with the
//! excess pump (classic OPO behaviour). The paper reports the kink at
//! 14 mW.

use qfc_faults::QfcResult;
use serde::{Deserialize, Serialize};

use crate::fwm;
use crate::ring::Microring;
use crate::units::Power;

/// OPO threshold: the input power at which the single-pass parametric
/// gain of the circulating pump equals the round-trip loss
/// `γ·P_circ·L = 1 − r²·a`.
///
/// For [`Microring::paper_device`] this lands at ≈ 14 mW, the §III value.
///
/// ```
/// use qfc_photonics::ring::Microring;
/// use qfc_photonics::opo::threshold;
/// let p_th = threshold(&Microring::paper_device());
/// assert!((p_th.mw() - 14.0).abs() < 3.0, "P_th = {p_th}");
/// ```
pub fn threshold(ring: &Microring) -> Power {
    let r = ring.self_coupling();
    let a = ring.round_trip_amplitude();
    let loss = 1.0 - r * r * a;
    // parametric_gain is linear in input power: ξ(P) = ξ(1 W)·P.
    let xi_per_watt = fwm::parametric_gain(ring, Power::from_w(1.0));
    Power::from_w(loss / xi_per_watt)
}

/// Below-threshold parametric-fluorescence output power on the oscillating
/// band, quadratic in pump power. The prefactor is the spontaneous flux
/// times the photon energy, scaled to the drop port.
fn below_threshold_output(ring: &Microring, input: Power) -> Power {
    use crate::constants::PLANCK;
    let xi = fwm::parametric_gain(ring, input);
    let photon_rate = xi * xi * ring.linewidth().hz();
    let nu = ring.resonance(crate::waveguide::Polarization::Te, 1).hz();
    // Parametric fluorescence is amplified toward threshold; keep the
    // low-gain quadratic form which dominates the log-log slope.
    Power::from_w(photon_rate * PLANCK * nu * ring.drop_transmission_peak())
}

/// Steady-state OPO output power at pump power `input`.
///
/// Below threshold: quadratic spontaneous output. Above threshold: the
/// standard linear depleted-pump form
/// `P_out = η_slope·(P − P_th)` with the slope efficiency set by the
/// coupler escape fraction, plus continuity with the spontaneous floor.
pub fn output_power(ring: &Microring, input: Power) -> Power {
    let p_th = threshold(ring);
    let spont = below_threshold_output(ring, Power::from_w(input.w().min(p_th.w())));
    if input.w() <= p_th.w() {
        spont
    } else {
        let slope = slope_efficiency(ring);
        Power::from_w(spont.w() + slope * (input.w() - p_th.w()))
    }
}

/// Above-threshold slope efficiency (fraction of excess pump converted to
/// comb output): escape efficiency of the loaded cavity — the coupling
/// loss share of the total round-trip loss.
pub fn slope_efficiency(ring: &Microring) -> f64 {
    let r = ring.self_coupling();
    let a = ring.round_trip_amplitude();
    let total_loss = 1.0 - r * r * a;
    let coupling_loss = 1.0 - r * r;
    (coupling_loss / total_loss).min(1.0)
}

/// One point of a pump-power sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPoint {
    /// Pump input power, W.
    pub pump_w: f64,
    /// Generated output power, W.
    pub output_w: f64,
}

/// Sweeps the OPO transfer curve over `[min, max]` with `n` points —
/// the data behind the paper's power-scaling figure (F5).
///
/// Runs on the [`crate::sweep`] batch layer: the grid replicates the
/// historical `min + (max − min)·i/(n − 1)` spacing and the batch kernel
/// is byte-identical to calling [`output_power`] point by point, so the
/// curve (and every power-law fit on it) is bit-for-bit what the scalar
/// loop produced.
///
/// # Errors
///
/// [`qfc_faults::QfcError::InvalidParameter`] for fewer than two points,
/// or for a range that is empty or not finite.
pub fn try_transfer_curve(
    ring: &Microring,
    min: Power,
    max: Power,
    n: usize,
) -> QfcResult<Vec<TransferPoint>> {
    let grid = crate::sweep::SweepGrid::try_linspace(min.w(), max.w(), n)?;
    let mut buf = crate::sweep::BatchBuffers::with_capacity(n);
    crate::sweep::opo_transfer_batch(ring, &grid, &mut buf);
    Ok(grid
        .points()
        .iter()
        .zip(buf.values())
        .map(|(&pump_w, &output_w)| TransferPoint { pump_w, output_w })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_mathkit::fit::try_fit_power_law;

    fn ring() -> Microring {
        Microring::paper_device()
    }

    #[test]
    fn threshold_near_paper_value() {
        let p = threshold(&ring());
        assert!((p.mw() - 14.0).abs() < 3.0, "P_th = {p}");
    }

    #[test]
    fn quadratic_below_threshold() {
        let r = ring();
        let pts =
            try_transfer_curve(&r, Power::from_mw(1.0), Power::from_mw(10.0), 12).expect("curve");
        let x: Vec<f64> = pts.iter().map(|p| p.pump_w).collect();
        let y: Vec<f64> = pts.iter().map(|p| p.output_w).collect();
        let f = try_fit_power_law(&x, &y).expect("fit");
        assert!((f.exponent - 2.0).abs() < 0.05, "exponent {}", f.exponent);
    }

    #[test]
    fn linear_above_threshold() {
        let r = ring();
        let p_th = threshold(&r).w();
        let pts = try_transfer_curve(&r, Power::from_w(p_th * 1.5), Power::from_w(p_th * 3.0), 12)
            .expect("curve");
        // Fit against the excess pump power.
        let x: Vec<f64> = pts.iter().map(|p| p.pump_w - p_th).collect();
        let y: Vec<f64> = pts.iter().map(|p| p.output_w).collect();
        let f = try_fit_power_law(&x, &y).expect("fit");
        assert!((f.exponent - 1.0).abs() < 0.05, "exponent {}", f.exponent);
    }

    #[test]
    fn sharp_kink_at_threshold() {
        // The defining OPO signature: output jumps onto the linear branch
        // right at threshold — orders of magnitude above the spontaneous
        // floor.
        let r = ring();
        let p_th = threshold(&r).w();
        let below = output_power(&r, Power::from_w(p_th * 0.99)).w();
        let above = output_power(&r, Power::from_w(p_th * 1.1)).w();
        assert!(above > 100.0 * below, "kink too soft: {below} → {above}");
    }

    #[test]
    fn slope_efficiency_in_unit_range() {
        let s = slope_efficiency(&ring());
        assert!(s > 0.5 && s <= 1.0, "slope {s}");
    }

    #[test]
    fn output_monotone_in_pump() {
        let r = ring();
        let pts =
            try_transfer_curve(&r, Power::from_mw(1.0), Power::from_mw(40.0), 40).expect("curve");
        assert!(pts.windows(2).all(|w| w[1].output_w >= w[0].output_w));
    }

    #[test]
    fn transfer_curve_rejects_bad_sweeps() {
        let (lo, hi) = (Power::from_mw(1.0), Power::from_mw(2.0));
        for (min, max, n) in [
            (lo, hi, 1),
            (lo, hi, 0),
            (hi, hi, 8),
            (hi, lo, 8),
            (Power::from_dbm(f64::NAN), hi, 8),
            (lo, Power::from_w(f64::INFINITY), 8),
        ] {
            let err = try_transfer_curve(&ring(), min, max, n).expect_err("bad sweep");
            assert!(
                matches!(err, qfc_faults::QfcError::InvalidParameter { .. }),
                "{min:?}..{max:?} × {n}: {err}"
            );
        }
    }
}
