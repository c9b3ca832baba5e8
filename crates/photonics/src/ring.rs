//! High-Q add-drop microring resonator — the heart of the quantum
//! frequency comb.
//!
//! The model is the standard analytic add-drop ring with two identical
//! point couplers: free spectral range set by the round-trip group delay,
//! Lorentzian resonances of loaded linewidth `δν = FSR/finesse`, intracavity
//! field enhancement on resonance, and a dispersion-shifted mode grid
//! `ν_m = ν₀ + m·FSR + ½·m²·dFSR/dm` for each polarization family. The TE
//! and TM families can be offset against each other — the §III design knob
//! that suppresses stimulated FWM while keeping spontaneous type-II FWM
//! energy-conserving.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::complex::Complex64;

use crate::constants::SPEED_OF_LIGHT;
use crate::units::Frequency;
use crate::waveguide::{Polarization, Waveguide};

/// An add-drop microring resonator with symmetric couplers.
///
/// Construct via [`MicroringBuilder`] or the calibrated
/// [`Microring::paper_device`].
///
/// # Examples
///
/// ```
/// use qfc_photonics::ring::Microring;
/// let ring = Microring::paper_device();
/// assert!((ring.fsr(qfc_photonics::waveguide::Polarization::Te).ghz() - 200.0).abs() < 1.0);
/// assert!((ring.linewidth().mhz() - 110.0).abs() < 15.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microring {
    waveguide: Waveguide,
    radius: f64,
    self_coupling: f64,
    anchor_te: Frequency,
    te_tm_offset: Frequency,
}

/// Builder for [`Microring`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct MicroringBuilder {
    waveguide: Waveguide,
    radius: f64,
    self_coupling: f64,
    anchor_te: Frequency,
    te_tm_offset: Frequency,
}

impl MicroringBuilder {
    /// Starts a builder from a waveguide cross-section.
    pub fn new(waveguide: Waveguide) -> Self {
        Self {
            waveguide,
            radius: 140e-6,
            self_coupling: 0.9995,
            anchor_te: Frequency::from_thz(193.4),
            te_tm_offset: Frequency::from_ghz(0.0),
        }
    }

    /// Sets the ring radius in meters.
    pub fn radius(&mut self, radius: f64) -> &mut Self {
        self.radius = radius;
        self
    }

    /// Sets the ring radius so that the TE free spectral range equals
    /// `fsr` at the anchor wavelength.
    pub fn radius_for_fsr(&mut self, fsr: Frequency) -> &mut Self {
        let ng = self
            .waveguide
            .group_index(self.anchor_te.wavelength(), Polarization::Te);
        let circumference = SPEED_OF_LIGHT / (ng * fsr.hz());
        self.radius = circumference / (2.0 * std::f64::consts::PI);
        self
    }

    /// Chooses the coupler so the loaded linewidth equals `target` at the
    /// anchor (solves `finesse = FSR/δν` for `r`).
    pub fn coupling_for_linewidth(&mut self, target: Frequency) -> &mut Self {
        let probe = self.clone().build();
        let fsr = probe.fsr(Polarization::Te);
        let finesse = fsr.hz() / target.hz();
        let a = probe.round_trip_amplitude();
        // finesse = π·r·√a / (1 − r²·a); solve the quadratic in r.
        // r²·a·F + π·√a·r − F = 0  (using F = finesse)
        let qa = a * finesse;
        let qb = std::f64::consts::PI * a.sqrt();
        let qc = -finesse;
        let r = (-qb + (qb * qb - 4.0 * qa * qc).sqrt()) / (2.0 * qa);
        self.self_coupling = r.clamp(1e-6, 1.0 - 1e-12);
        self
    }

    /// Anchors the TE mode `m = 0` at the given frequency (the pump
    /// resonance).
    pub fn anchor(&mut self, f: Frequency) -> &mut Self {
        self.anchor_te = f;
        self
    }

    /// Offsets the TM mode family relative to TE (the §III design knob).
    pub fn te_tm_offset(&mut self, offset: Frequency) -> &mut Self {
        self.te_tm_offset = offset;
        self
    }

    /// Fallible form of [`Self::build`]: validates the accumulated
    /// geometry instead of trusting it.
    pub fn try_build(&self) -> QfcResult<Microring> {
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(QfcError::invalid(format!(
                "ring radius must be positive and finite, got {}",
                self.radius
            )));
        }
        if !(self.self_coupling > 0.0 && self.self_coupling < 1.0) {
            return Err(QfcError::invalid("self-coupling must be in (0, 1)"));
        }
        if !(self.anchor_te.hz().is_finite() && self.anchor_te.hz() > 0.0) {
            return Err(QfcError::invalid(
                "anchor frequency must be positive and finite",
            ));
        }
        Ok(Microring {
            waveguide: self.waveguide,
            radius: self.radius,
            self_coupling: self.self_coupling,
            anchor_te: self.anchor_te,
            te_tm_offset: self.te_tm_offset,
        })
    }

    /// Builds the ring.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated geometry is invalid (see
    /// [`Self::try_build`]).
    pub fn build(&self) -> Microring {
        match self.try_build() {
            Ok(r) => r,
            Err(e) => panic!("{e}"), // qfc-lint: allow(panic-reachability) — documented panicking wrapper over the try_* twin (`# Panics` contract)
        }
    }
}

impl Microring {
    /// The paper's device: Hydex ring with 200-GHz FSR, loaded linewidth
    /// 110 MHz (loaded Q ≈ 1.8 × 10⁶) anchored at 193.4 THz, with a
    /// half-linewidth-scale TE/TM offset available for §III.
    pub fn paper_device() -> Self {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.anchor(Frequency::from_thz(193.4))
            .radius_for_fsr(Frequency::from_ghz(200.0))
            .te_tm_offset(Frequency::from_ghz(0.0));
        b.coupling_for_linewidth(Frequency::from_hz(110e6));
        b.build()
    }

    /// The underlying waveguide.
    pub fn waveguide(&self) -> &Waveguide {
        &self.waveguide
    }

    /// Ring radius, m.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Ring circumference, m.
    pub fn circumference(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.radius
    }

    /// Amplitude self-coupling coefficient of each coupler.
    pub fn self_coupling(&self) -> f64 {
        self.self_coupling
    }

    /// Power cross-coupling `t² = 1 − r²` of each coupler.
    pub fn cross_coupling_power(&self) -> f64 {
        1.0 - self.self_coupling * self.self_coupling
    }

    /// Single-round-trip amplitude transmission `a = e^{−αL/2}`.
    pub fn round_trip_amplitude(&self) -> f64 {
        (-0.5 * self.waveguide.material.alpha_per_m() * self.circumference()).exp()
    }

    /// Free spectral range for a polarization family.
    pub fn fsr(&self, pol: Polarization) -> Frequency {
        let ng = self
            .waveguide
            .group_index(self.anchor_te.wavelength(), pol);
        Frequency::from_hz(SPEED_OF_LIGHT / (ng * self.circumference()))
    }

    /// Finesse `π·r·√a / (1 − r²·a)` of the loaded resonator.
    pub fn finesse(&self) -> f64 {
        let r = self.self_coupling;
        let a = self.round_trip_amplitude();
        std::f64::consts::PI * r * a.sqrt() / (1.0 - r * r * a)
    }

    /// Loaded linewidth (FWHM) `δν = FSR/finesse`.
    pub fn linewidth(&self) -> Frequency {
        Frequency::from_hz(self.fsr(Polarization::Te).hz() / self.finesse())
    }

    /// Loaded quality factor `Q = ν₀/δν`.
    pub fn q_loaded(&self) -> f64 {
        self.anchor_te.hz() / self.linewidth().hz()
    }

    /// On-resonance intracavity power enhancement
    /// `FE² = t² / (1 − r²·a)²`.
    pub fn field_enhancement_power(&self) -> f64 {
        let r = self.self_coupling;
        let a = self.round_trip_amplitude();
        self.cross_coupling_power() / (1.0 - r * r * a).powi(2)
    }

    /// On-resonance drop-port power transmission `t⁴·a / (1 − r²·a)²`.
    pub fn drop_transmission_peak(&self) -> f64 {
        let r = self.self_coupling;
        let a = self.round_trip_amplitude();
        self.cross_coupling_power().powi(2) * a / (1.0 - r * r * a).powi(2)
    }

    /// Resonance frequency of mode `m` (relative to the pump mode `m = 0`)
    /// for a polarization family, including second-order dispersion of the
    /// mode grid.
    pub fn resonance(&self, pol: Polarization, m: i32) -> Frequency {
        let fsr = self.fsr(pol).hz();
        // dFSR/dm = −2π·β₂·L·FSR³  (positive for anomalous β₂ < 0).
        let d2 = -2.0 * std::f64::consts::PI
            * self.waveguide.gvd(pol)
            * self.circumference()
            * fsr.powi(3);
        let base = match pol {
            Polarization::Te => self.anchor_te.hz(),
            Polarization::Tm => self.anchor_te.hz() + self.te_tm_offset.hz(),
        };
        Frequency::from_hz(base + cast::to_f64(m) * fsr + 0.5 * (cast::to_f64(m)).powi(2) * d2)
    }

    /// Normalized complex Lorentzian field response of mode `m`:
    /// `ℓ(ν) = (δν/2) / (δν/2 + i(ν − ν_m))`, unity on resonance.
    pub fn field_response(&self, pol: Polarization, m: i32, freq: Frequency) -> Complex64 {
        let half = 0.5 * self.linewidth().hz();
        let det = freq.hz() - self.resonance(pol, m).hz();
        Complex64::real(half) / Complex64::new(half, det)
    }

    /// Normalized Lorentzian power response of mode `m` (unity at peak).
    pub fn power_response(&self, pol: Polarization, m: i32, freq: Frequency) -> f64 {
        self.field_response(pol, m, freq).norm_sqr()
    }

    /// Index of the resonance nearest to `freq` and its detuning.
    pub fn nearest_resonance(&self, pol: Polarization, freq: Frequency) -> (i32, Frequency) {
        let fsr = self.fsr(pol).hz();
        let base = self.resonance(pol, 0).hz();
        let mut m = cast::f64_to_i32(((freq.hz() - base) / fsr).round());
        // The quadratic grid term can shift the nearest mode by one.
        let mut best = (m, (freq - self.resonance(pol, m)).abs());
        for cand in [m - 1, m + 1] {
            let d = (freq - self.resonance(pol, cand)).abs();
            if d < best.1 {
                best = (cand, d);
            }
        }
        m = best.0;
        (m, freq - self.resonance(pol, m))
    }

    /// Photon (intensity) decay time of the loaded cavity,
    /// `τ = 1/(2π·δν)` — the time constant of the two-sided exponential
    /// coincidence histogram of §II.
    pub fn coincidence_decay_time(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * self.linewidth().hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Microring {
        Microring::paper_device()
    }

    #[test]
    fn paper_device_fsr_near_200ghz() {
        let fsr = ring().fsr(Polarization::Te);
        assert!((fsr.ghz() - 200.0).abs() < 0.5, "FSR = {fsr}");
    }

    #[test]
    fn paper_device_linewidth_110mhz() {
        let lw = ring().linewidth();
        assert!((lw.mhz() - 110.0).abs() < 5.0, "δν = {lw}");
    }

    #[test]
    fn loaded_q_above_a_million() {
        let q = ring().q_loaded();
        assert!(q > 1.0e6 && q < 3.0e6, "Q = {q}");
    }

    #[test]
    fn finesse_consistent_with_linewidth() {
        let r = ring();
        let f = r.finesse();
        assert!((f - r.fsr(Polarization::Te).hz() / r.linewidth().hz()).abs() < 1e-6);
        assert!(f > 1000.0, "finesse = {f}");
    }

    #[test]
    fn field_enhancement_large() {
        let fe = ring().field_enhancement_power();
        assert!(fe > 100.0 && fe < 2000.0, "FE² = {fe}");
    }

    #[test]
    fn drop_transmission_bounded() {
        let t = ring().drop_transmission_peak();
        assert!(t > 0.0 && t <= 1.0, "T_drop = {t}");
    }

    #[test]
    fn resonances_are_evenly_spaced_to_first_order() {
        let r = ring();
        let f0 = r.resonance(Polarization::Te, 0);
        let f1 = r.resonance(Polarization::Te, 1);
        let fm1 = r.resonance(Polarization::Te, -1);
        let fsr = r.fsr(Polarization::Te);
        assert!(((f1 - f0).hz() - fsr.hz()).abs() < 1e6);
        assert!(((f0 - fm1).hz() - fsr.hz()).abs() < 1e6);
    }

    #[test]
    fn field_response_unity_on_resonance() {
        let r = ring();
        let f = r.resonance(Polarization::Te, 3);
        let resp = r.field_response(Polarization::Te, 3, f);
        assert!((resp.abs() - 1.0).abs() < 1e-12);
        // Half power at half linewidth detuning.
        let det = Frequency::from_hz(f.hz() + 0.5 * r.linewidth().hz());
        assert!((r.power_response(Polarization::Te, 3, det) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nearest_resonance_roundtrip() {
        let r = ring();
        for m in [-10, -1, 0, 7] {
            let f = r.resonance(Polarization::Te, m);
            let (found, det) = r.nearest_resonance(Polarization::Te, f);
            assert_eq!(found, m);
            assert!(det.hz().abs() < 1.0);
        }
    }

    #[test]
    fn tm_offset_shifts_only_tm() {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.radius_for_fsr(Frequency::from_ghz(200.0))
            .te_tm_offset(Frequency::from_ghz(1.5));
        let r = b.build();
        let te0 = r.resonance(Polarization::Te, 0);
        let tm0 = r.resonance(Polarization::Tm, 0);
        assert!(((tm0 - te0).ghz() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn te_tm_fsr_differ_slightly() {
        let r = ring();
        let dte = r.fsr(Polarization::Te).hz();
        let dtm = r.fsr(Polarization::Tm).hz();
        // Birefringence makes them differ, but only at the <1 % level —
        // the §III "similar free spectral ranges" requirement.
        let rel = (dte - dtm).abs() / dte;
        assert!(rel > 0.0 && rel < 0.01, "rel = {rel}");
    }

    #[test]
    fn coincidence_decay_time_matches_linewidth() {
        let r = ring();
        let tau = r.coincidence_decay_time();
        let expect = 1.0 / (2.0 * std::f64::consts::PI * r.linewidth().hz());
        assert!((tau - expect).abs() < 1e-18);
        // ≈ 1.45 ns for 110 MHz.
        assert!(tau > 1.2e-9 && tau < 1.7e-9, "τ = {tau}");
    }

    #[test]
    fn builder_linewidth_targeting() {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.radius_for_fsr(Frequency::from_ghz(200.0));
        for target_mhz in [50.0, 110.0, 300.0] {
            b.coupling_for_linewidth(Frequency::from_hz(target_mhz * 1e6));
            let got = b.build().linewidth().mhz();
            assert!(
                (got - target_mhz).abs() / target_mhz < 0.05,
                "target {target_mhz} got {got}"
            );
        }
    }

    #[test]
    fn try_build_rejects_bad_radius() {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.radius(-1.0);
        let err = b.try_build().unwrap_err();
        assert!(err.to_string().contains("radius"));
        b.radius(140e-6);
        assert!(b.try_build().is_ok());
    }
}
