//! Paper-configuration assertions: the headline numbers at the full
//! published operating points. These are heavier than the `fast_demo`
//! integration tests; the full-paper runs are `#[ignore]`d because an
//! unoptimized build is slow. `scripts/ci.sh` runs them in its release
//! stage: `cargo test --release -q --test paper_numbers -- --ignored`.

use qfc::core::crosspol::{run_power_sweep, try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::purity::{try_run_purity_analysis, PurityConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::FaultSchedule;
use qfc::tomography::rank1::MLE_GAP_NATS;

const SEED: u64 = 20170327;

#[test]
fn f5_opo_threshold_and_exponents() {
    let source = QfcSource::paper_device_type2();
    let sweep = run_power_sweep(&source, 16).expect("F5 power-law fits");
    assert!((sweep.threshold_w * 1e3 - 14.0).abs() < 3.0, "P_th {}", sweep.threshold_w);
    assert!((sweep.below_exponent - 2.0).abs() < 0.05);
    assert!((sweep.above_exponent - 1.0).abs() < 0.05);
}

#[test]
fn f3_stability_under_5_percent() {
    let source = QfcSource::paper_device();
    let report =
        try_run_stability_experiment(&source, &StabilityConfig::paper(), SEED).expect("CW pump");
    assert!(
        report.relative_fluctuation < 0.05,
        "fluctuation {}",
        report.relative_fluctuation
    );
}

#[test]
fn purity_and_memory_claims() {
    let source = QfcSource::paper_device_timebin();
    let report = try_run_purity_analysis(&source, &PurityConfig::paper()).expect("double-pulse pump");
    assert!(report.heralded_purity > 0.9);
    assert!(report.heralded_g2 < 0.2);
    assert!(report.memory_acceptance > 0.4);
}

#[test]
#[ignore = "full §II Monte-Carlo: release-only, run by the ci.sh release stage"]
fn t1_f1_f2_full_heralded_run() {
    let source = QfcSource::paper_device();
    let report = try_run_heralded_experiment(
        &source,
        &HeraldedConfig::paper(),
        SEED,
        &FaultSchedule::empty(),
    )
    .expect("clean heralded run")
    .report;
    let (car_lo, car_hi) = report.car_range();
    assert!(car_lo > 5.0 && car_hi < 60.0, "CAR range {car_lo}..{car_hi}");
    let (r_lo, r_hi) = report.rate_range();
    assert!(r_lo > 7.0 && r_hi < 60.0, "rate range {r_lo}..{r_hi}");
    assert!(report.matrix_contrast() > 5.0);
    assert!((report.linewidth.linewidth_hz - 110e6).abs() / 110e6 < 0.15);
}

#[test]
#[ignore = "full §III Monte-Carlo: release-only, run by the ci.sh release stage"]
fn f4_full_crosspol_run() {
    let source = QfcSource::paper_device_type2();
    let report = try_run_crosspol_experiment(
        &source,
        &CrossPolConfig::paper(),
        SEED,
        &FaultSchedule::empty(),
    )
    .expect("clean crosspol run")
    .report;
    assert!(report.car > 5.0 && report.car < 25.0, "CAR {}", report.car);
    assert!(report.stimulated_response < 1e-4);
}

#[test]
#[ignore = "full §IV run: release-only, run by the ci.sh release stage"]
fn f7_t2_full_timebin_run() {
    let source = QfcSource::paper_device_timebin();
    let report = try_run_timebin_experiment(
        &source,
        &TimeBinConfig::paper(),
        SEED,
        &FaultSchedule::empty(),
    )
    .expect("clean timebin run")
    .report;
    assert!((report.mean_visibility() - 0.83).abs() < 0.06);
    assert_eq!(report.channels_violating(), 5);
}

#[test]
#[ignore = "full §V run incl. 4-qubit MLE: release-only, run by the ci.sh release stage"]
fn f8_t4_full_multiphoton_run() {
    let source = QfcSource::paper_device_timebin();
    let report = try_run_multiphoton_experiment(
        &source,
        &MultiPhotonConfig::paper(),
        SEED,
        &FaultSchedule::empty(),
    )
    .expect("clean multiphoton run")
    .report;
    assert!((report.fringe.visibility - 0.89).abs() < 0.08, "V4 {}", report.fringe.visibility);
    assert!(
        (report.tomography.fidelity - 0.64).abs() < 0.08,
        "F4 {}",
        report.tomography.fidelity
    );
    // Every reconstruction, 5 T3 channels and T4, stops on its
    // likelihood-gap certificate, not on the 300-iteration budget.
    assert_eq!(report.bell.len(), 5);
    for b in &report.bell {
        assert!(b.fidelity > 0.85);
        assert!(b.concurrence > 0.7);
        assert!(
            b.converged && b.gap_nats <= MLE_GAP_NATS,
            "T3 channel {}: gap {} nats after {} iterations",
            b.m,
            b.gap_nats,
            b.iterations
        );
    }
    let t4 = &report.tomography;
    assert!(t4.converged && t4.gap_nats <= MLE_GAP_NATS, "T4: gap {} nats", t4.gap_nats);
    assert!(t4.iterations < 300, "T4 ran to its cap: {} iterations", t4.iterations);
}
