//! End-to-end integration tests: each of the paper's four experiments run
//! through the full stack (photonics → quantum states → detectors →
//! analysis) at reduced statistics.

use qfc::core::crosspol::{run_power_sweep, try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::{EmissionRegime, QfcSource};
use qfc::core::timebin::{try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::FaultSchedule;
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::units::Power;

#[test]
fn section_2_heralded_photons_end_to_end() {
    let source = QfcSource::paper_device();
    assert_eq!(source.regime(), EmissionRegime::HeraldedSinglePhotons);
    let report = try_run_heralded_experiment(
        &source,
        &HeraldedConfig::fast_demo(),
        101,
        &FaultSchedule::empty(),
    )
    .expect("clean heralded run")
    .report;

    // Coincidences on every measured channel, diagonal-dominated matrix.
    for c in &report.channels {
        assert!(c.coincidence_rate_hz > 0.1, "channel {} has no pairs", c.m);
        assert!(c.car > 3.0, "channel {} CAR too low: {}", c.m, c.car);
    }
    assert!(report.matrix_contrast() > 3.0);
    // Linewidth from the coincidence decay lands on the ring linewidth.
    assert!((report.linewidth.linewidth_hz - 110e6).abs() / 110e6 < 0.2);
}

#[test]
fn section_2_stability_contrast() {
    let source = QfcSource::paper_device();
    let cfg = StabilityConfig::paper();
    let locked = try_run_stability_experiment(&source, &cfg, 102).expect("CW pump");
    let free = try_run_stability_experiment(
        &source.clone().with_pump(PumpConfig::ExternalCw {
            power: Power::from_mw(15.0),
            actively_stabilized: false,
        }),
        &cfg,
        102,
    )
    .expect("CW pump");
    assert!(locked.relative_fluctuation < 0.10, "locked {}", locked.relative_fluctuation);
    assert!(free.relative_fluctuation > locked.relative_fluctuation);
    assert_eq!(locked.series.len(), 21);
}

#[test]
fn section_3_crosspol_end_to_end() {
    let source = QfcSource::paper_device_type2();
    assert_eq!(source.regime(), EmissionRegime::CrossPolarizedPairs);
    let report = try_run_crosspol_experiment(
        &source,
        &CrossPolConfig::fast_demo(),
        103,
        &FaultSchedule::empty(),
    )
    .expect("clean crosspol run")
    .report;
    assert!(report.car > 2.0, "CAR {}", report.car);
    assert!(report.stimulated_response < 1e-4);

    let sweep = run_power_sweep(&source, 10).expect("F5 power-law fits");
    assert!((sweep.below_exponent - 2.0).abs() < 0.1);
    assert!((sweep.above_exponent - 1.0).abs() < 0.1);
    assert!((sweep.threshold_w - 0.014).abs() < 0.004);
}

#[test]
fn section_4_timebin_end_to_end() {
    let source = QfcSource::paper_device_timebin();
    assert_eq!(source.regime(), EmissionRegime::TimeBinEntangled);
    let report = try_run_timebin_experiment(
        &source,
        &TimeBinConfig::fast_demo(),
        107,
        &FaultSchedule::empty(),
    )
    .expect("clean timebin run")
    .report;
    // Visibility above the CHSH threshold on every channel; all violate.
    for f in &report.fringes {
        assert!(f.fit.visibility > 0.72, "m={}: V {}", f.m, f.fit.visibility);
    }
    assert_eq!(report.channels_violating(), report.chsh.len());
}

#[test]
fn section_5_multiphoton_end_to_end() {
    let source = QfcSource::paper_device_timebin();
    let report = try_run_multiphoton_experiment(
        &source,
        &MultiPhotonConfig::fast_demo(),
        105,
        &FaultSchedule::empty(),
    )
    .expect("clean multiphoton run")
    .report;
    for b in &report.bell {
        assert!(b.fidelity > 0.75, "m={}: F {}", b.m, b.fidelity);
        assert!(b.concurrence > 0.4, "m={}: C {}", b.m, b.concurrence);
    }
    // Four-photon visibility above the pairwise visibility (fringe
    // sharpening) and fidelity in the paper's band.
    assert!(report.fringe.visibility > 0.8);
    assert!(report.tomography.fidelity > 0.5 && report.tomography.fidelity < 0.8);
}

#[test]
fn all_reports_render_nonempty_tables() {
    let source = QfcSource::paper_device();
    let heralded = try_run_heralded_experiment(
        &source,
        &HeraldedConfig::fast_demo(),
        106,
        &FaultSchedule::empty(),
    )
    .expect("clean heralded run")
    .report;
    let text = heralded.to_report().render();
    assert!(text.contains("| F2"));
    assert!(text.lines().count() > 5);
}
