//! Four-wave mixing in the microring: the pair-generation engine.
//!
//! Spontaneous FWM (SFWM) annihilates two pump photons and creates a
//! signal/idler pair on resonances symmetric about the pump. On resonance
//! the process is parametrized by the single-pass parametric gain of the
//! *circulating* pump, `ξ = γ·P_circ·L` — the two-mode squeeze amplitude
//! per cavity mode. The generated flux per channel pair is `|ξ|²·δν`
//! (pairs per second within one loaded linewidth), modulated by the
//! spectral envelope set by the triple-resonance energy mismatch of the
//! dispersion-shifted mode grid.
//!
//! Type-II SFWM (§III) uses one TE and one TM pump photon and emits a
//! cross-polarized pair; its resonance bookkeeping and the suppression of
//! the competing *stimulated* process by the TE/TM grid offset are
//! implemented here.

use qfc_mathkit::cast;
use qfc_mathkit::special::lorentzian;

use crate::ring::Microring;
use crate::units::{Frequency, Power};
use crate::waveguide::Polarization;

/// Circulating pump power inside the ring when `input` is on resonance.
pub fn circulating_power(ring: &Microring, input: Power) -> Power {
    input * ring.field_enhancement_power()
}

/// Single-pass parametric gain of the circulating pump,
/// `ξ = γ·P_circ·L` (dimensionless).
///
/// This is the two-mode squeeze amplitude per cavity mode in the
/// low-gain regime and the round-trip gain that must beat the round-trip
/// loss at the OPO threshold.
pub fn parametric_gain(ring: &Microring, input: Power) -> f64 {
    let gamma = ring
        .waveguide()
        .nonlinear_parameter(ring.resonance(Polarization::Te, 0).wavelength());
    gamma * circulating_power(ring, input).w() * ring.circumference()
}

/// Spectral envelope (0‥1) of pair generation on channel pair `m`,
/// from the triple-resonance energy mismatch `ν_{+m} + ν_{−m} − 2ν_0 =
/// m²·dFSR/dm` weighed against the loaded linewidth.
pub fn spectral_envelope(ring: &Microring, pol: Polarization, m: u32) -> f64 {
    let mismatch = ring.resonance(pol, cast::u32_to_i32(m)).hz()
        + ring.resonance(pol, -cast::u32_to_i32(m)).hz()
        - 2.0 * ring.resonance(pol, 0).hz();
    lorentzian(mismatch, 0.0, ring.linewidth().hz())
}

/// Generated pair flux (pairs/s) on channel pair `m` for a CW pump of
/// on-chip power `input`, degenerate type-0 SFWM on one polarization.
///
/// `R = |ξ|²·δν·envelope(m)` — at the paper's 15 mW this is O(100 Hz)
/// per channel before collection losses, consistent with the detected
/// rates of §II.
///
/// # Panics
///
/// Panics if `m == 0` (the pump mode itself cannot be a pair channel).
pub fn pair_rate_cw(ring: &Microring, pol: Polarization, input: Power, m: u32) -> f64 {
    assert!(m > 0, "pair channel must differ from the pump mode");
    let xi = parametric_gain(ring, input);
    xi * xi * ring.linewidth().hz() * spectral_envelope(ring, pol, m)
}

/// Mean photon-pair number per pulse on channel pair `m`, for a pulsed
/// pump whose bandwidth is matched to the ring resonance (the §IV–V
/// configuration: the double pulses are filtered to a single resonance).
///
/// In the resonance-matched regime the pulse builds up the same
/// enhancement as CW at its peak power and interacts for one cavity
/// lifetime, giving `μ = ξ_peak² · envelope(m)`.
pub fn mean_pairs_per_pulse(ring: &Microring, pol: Polarization, peak: Power, m: u32) -> f64 {
    assert!(m > 0, "pair channel must differ from the pump mode");
    let xi = parametric_gain(ring, peak);
    xi * xi * spectral_envelope(ring, pol, m)
}

/// Signal/idler resonance frequencies of the type-II process on channel
/// `m`: signal on the TE family at `+m`, idler on the TM family at `−m`.
pub fn type2_signal_idler(ring: &Microring, m: u32) -> (Frequency, Frequency) {
    (
        ring.resonance(Polarization::Te, cast::u32_to_i32(m)),
        ring.resonance(Polarization::Tm, -cast::u32_to_i32(m)),
    )
}

/// Energy mismatch of the type-II process on channel `m`:
/// `ν_s^TE + ν_i^TM − ν_p^TE − ν_p^TM`.
///
/// With matched TE/TM free spectral ranges this stays well inside a
/// linewidth for the inner channels — the §III energy-conservation
/// requirement.
pub fn type2_energy_mismatch(ring: &Microring, m: u32) -> Frequency {
    let (fs, fi) = type2_signal_idler(ring, m);
    let pte = ring.resonance(Polarization::Te, 0);
    let ptm = ring.resonance(Polarization::Tm, 0);
    Frequency::from_hz(fs.hz() + fi.hz() - pte.hz() - ptm.hz())
}

/// Generated cross-polarized pair flux (pairs/s) on channel `m` for the
/// bichromatic orthogonal pump of §III.
///
/// `R = (γ·L)²·P_TE·P_TM·FE⁴·δν·envelope`, i.e. the two degenerate pump
/// photons of type-0 SFWM are replaced by one TE and one TM photon.
pub fn type2_pair_rate(ring: &Microring, p_te: Power, p_tm: Power, m: u32) -> f64 {
    assert!(m > 0, "pair channel must differ from the pump mode");
    let lambda = ring.resonance(Polarization::Te, 0).wavelength();
    let gamma = ring.waveguide().nonlinear_parameter(lambda);
    let fe = ring.field_enhancement_power();
    let xi2 = (gamma * ring.circumference()).powi(2)
        * (fe * p_te.w())
        * (fe * p_tm.w());
    let mismatch = type2_energy_mismatch(ring, m).hz();
    xi2 * ring.linewidth().hz() * lorentzian(mismatch, 0.0, ring.linewidth().hz())
}

/// Where the *stimulated* (classical) FWM product of the two pumps would
/// appear: `2ν_p^TE − ν_p^TM` (and symmetrically `2ν_p^TM − ν_p^TE`).
pub fn stimulated_fwm_frequencies(ring: &Microring) -> (Frequency, Frequency) {
    let pte = ring.resonance(Polarization::Te, 0).hz();
    let ptm = ring.resonance(Polarization::Tm, 0).hz();
    (
        Frequency::from_hz(2.0 * pte - ptm),
        Frequency::from_hz(2.0 * ptm - pte),
    )
}

/// Suppression of the stimulated FWM process by the TE/TM grid offset:
/// the best (largest) cavity power response available to either
/// stimulated product over both mode families. `1` means fully resonant
/// (no suppression); the §III design pushes this far below 1.
pub fn stimulated_suppression(ring: &Microring) -> f64 {
    let (f1, f2) = stimulated_fwm_frequencies(ring);
    let mut best: f64 = 0.0;
    for f in [f1, f2] {
        for pol in [Polarization::Te, Polarization::Tm] {
            let (m, _) = ring.nearest_resonance(pol, f);
            best = best.max(ring.power_response(pol, m, f));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Microring, MicroringBuilder};
    use crate::waveguide::Waveguide;

    fn ring() -> Microring {
        Microring::paper_device()
    }

    fn offset_ring(offset_ghz: f64) -> Microring {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.radius_for_fsr(Frequency::from_ghz(200.0))
            .te_tm_offset(Frequency::from_ghz(offset_ghz));
        b.coupling_for_linewidth(Frequency::from_hz(110e6));
        b.build()
    }

    #[test]
    fn circulating_power_enhanced() {
        let p = circulating_power(&ring(), Power::from_mw(15.0));
        // FE² ≈ 500–600 → several watts circulating.
        assert!(p.w() > 4.0 && p.w() < 12.0, "P_circ = {p}");
    }

    #[test]
    fn parametric_gain_small_below_threshold() {
        let xi = parametric_gain(&ring(), Power::from_mw(15.0));
        assert!(xi > 1e-4 && xi < 1e-2, "ξ = {xi}");
    }

    #[test]
    fn pair_rate_scales_quadratically_with_power() {
        let r = ring();
        let r1 = pair_rate_cw(&r, Polarization::Te, Power::from_mw(5.0), 1);
        let r2 = pair_rate_cw(&r, Polarization::Te, Power::from_mw(10.0), 1);
        assert!((r2 / r1 - 4.0).abs() < 1e-9, "ratio {}", r2 / r1);
    }

    #[test]
    fn pair_rate_at_paper_power_order_of_magnitude() {
        // O(100 Hz) generated per inner channel at 15 mW on-chip.
        let rate = pair_rate_cw(&ring(), Polarization::Te, Power::from_mw(15.0), 1);
        assert!(rate > 30.0 && rate < 3000.0, "rate = {rate}");
    }

    #[test]
    fn envelope_decreases_with_channel_index() {
        let r = ring();
        let e1 = spectral_envelope(&r, Polarization::Te, 1);
        let e10 = spectral_envelope(&r, Polarization::Te, 10);
        let e40 = spectral_envelope(&r, Polarization::Te, 40);
        assert!(e1 > e10 && e10 > e40, "{e1} {e10} {e40}");
        assert!(e1 > 0.99, "inner channel nearly perfectly matched");
    }

    #[test]
    #[should_panic(expected = "pump mode")]
    fn pair_rate_rejects_m0() {
        let _ = pair_rate_cw(&ring(), Polarization::Te, Power::from_mw(1.0), 0);
    }

    #[test]
    fn mean_pairs_per_pulse_low_gain() {
        let mu = mean_pairs_per_pulse(&ring(), Polarization::Te, Power::from_mw(2.0), 1);
        assert!(mu > 0.0 && mu < 0.1, "μ = {mu}");
    }

    #[test]
    fn type2_energy_mismatch_small_for_inner_channels() {
        let r = offset_ring(1.5);
        for m in 1..=3 {
            let mism = type2_energy_mismatch(&r, m).hz().abs();
            assert!(
                mism < 3.0 * r.linewidth().hz(),
                "m={m} mismatch {mism}"
            );
        }
    }

    #[test]
    fn type2_pair_rate_bilinear_in_pump_powers() {
        let r = offset_ring(1.5);
        let base = type2_pair_rate(&r, Power::from_mw(1.0), Power::from_mw(1.0), 1);
        let double_te = type2_pair_rate(&r, Power::from_mw(2.0), Power::from_mw(1.0), 1);
        let double_both = type2_pair_rate(&r, Power::from_mw(2.0), Power::from_mw(2.0), 1);
        assert!((double_te / base - 2.0).abs() < 0.05);
        assert!((double_both / base - 4.0).abs() < 0.1);
    }

    #[test]
    fn stimulated_suppression_improves_with_offset() {
        // No offset: the stimulated product is resonant (no suppression).
        let aligned = stimulated_suppression(&offset_ring(0.0));
        assert!(aligned > 0.9, "aligned response {aligned}");
        // Half-FSR-scale offset: product falls between resonances.
        let offset = stimulated_suppression(&offset_ring(47.0));
        assert!(offset < 1e-4, "suppressed response {offset}");
        assert!(offset < aligned);
    }

    #[test]
    fn stimulated_frequencies_bracket_the_pumps() {
        let r = offset_ring(1.5);
        let (f1, f2) = stimulated_fwm_frequencies(&r);
        let pte = r.resonance(Polarization::Te, 0);
        let ptm = r.resonance(Polarization::Tm, 0);
        // 2ν_TE − ν_TM mirrors ν_TM about ν_TE.
        assert!(((f1.hz() - pte.hz()) + (ptm.hz() - pte.hz())).abs() < 1.0);
        assert!(((f2.hz() - ptm.hz()) + (pte.hz() - ptm.hz())).abs() < 1.0);
    }
}
