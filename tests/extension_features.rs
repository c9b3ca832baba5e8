//! Integration tests of the extension features: DWDM filtering, comb
//! spectra, qudit states, and purity — exercised together through the
//! public API.

use qfc::core::purity::{run_purity_analysis, PurityConfig};
use qfc::core::source::QfcSource;
use qfc::photonics::filter::Demultiplexer;
use qfc::photonics::memory::{filtering_penalty_db, MemoryProfile};
use qfc::photonics::spectrum::comb_spectrum;
use qfc::photonics::units::{Frequency, Power};
use qfc::photonics::waveguide::Polarization;
use qfc::quantum::qudit::{cglmp_value, BipartiteQudit, CGLMP_CLASSICAL_BOUND};

#[test]
fn demux_matches_comb_grid() {
    // Build a demux from the actual comb channel frequencies and check
    // its isolation supports the F1 diagonal-only claim.
    let source = QfcSource::paper_device();
    let comb = source.comb(5);
    let mut centers: Vec<Frequency> = comb.pairs().iter().map(|p| p.signal.frequency).collect();
    centers.extend(comb.pairs().iter().map(|p| p.idler.frequency));
    let demux = Demultiplexer::new(&centers);
    assert_eq!(demux.ports(), 10);
    assert!(
        demux.worst_adjacent_isolation_db() > 25.0,
        "isolation {}",
        demux.worst_adjacent_isolation_db()
    );
}

#[test]
fn comb_spectrum_consistent_with_opo_threshold() {
    let source = QfcSource::paper_device();
    let ring = source.ring();
    let below = comb_spectrum(ring, Power::from_mw(12.0), 10);
    let above = comb_spectrum(ring, Power::from_mw(16.0), 10);
    assert!(!below.above_threshold);
    assert!(above.above_threshold);
    assert!(above.total_power_w() > below.total_power_w() * 100.0);
}

#[test]
fn qudit_from_actual_channel_rates() {
    let source = QfcSource::paper_device_timebin();
    let weights: Vec<f64> = (1..=4).map(|m| source.pairs_per_frame(m)).collect();
    let state = BipartiteQudit::from_channel_weights(&weights);
    // Nearly flat comb → entropy close to 2 bits.
    let e = state.entanglement_entropy_bits();
    assert!(e > 1.9 && e <= 2.0, "E = {e}");
    // The §IV visibility budget violates CGLMP in every dimension.
    for d in 2..=6 {
        assert!(cglmp_value(d, 0.83) > CGLMP_CLASSICAL_BOUND, "d = {d}");
    }
}

#[test]
fn purity_analysis_supports_memory_claim() {
    let source = QfcSource::paper_device_timebin();
    let report = run_purity_analysis(&source, &PurityConfig::paper());
    assert!(report.heralded_purity > 0.9);
    // The ring beats a 1-THz SPDC source by > 30 dB for memory matching.
    let ring_penalty = filtering_penalty_db(
        source.ring().linewidth(),
        &MemoryProfile::atomic_100mhz(),
    );
    let spdc_penalty =
        filtering_penalty_db(Frequency::from_thz(1.0), &MemoryProfile::atomic_100mhz());
    assert!(spdc_penalty - ring_penalty > 30.0);
}

#[test]
fn comb_grid_lines_match_ring_resonances() {
    let source = QfcSource::paper_device();
    let ring = source.ring();
    let spectrum = comb_spectrum(ring, Power::from_mw(10.0), 5);
    for line in &spectrum.lines {
        let (m, det) = ring.nearest_resonance(Polarization::Te, line.frequency);
        assert_eq!(m, line.index);
        assert!(det.hz().abs() < 1.0);
    }
}
