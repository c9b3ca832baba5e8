//! Serde round-trips of the public data types (C-SERDE): configs,
//! reports, and physical objects must survive JSON serialization, so
//! downstream pipelines can persist and replay experiment records.

use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig, HeraldedReport};
use qfc::core::report::ExperimentReport;
use qfc::core::source::QfcSource;
use qfc::core::timebin::TimeBinConfig;
use qfc::faults::FaultSchedule;
use qfc::mathkit::cmatrix::CMatrix;
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::ring::Microring;
use qfc::photonics::units::{Frequency, Power, Wavelength};
use qfc::quantum::density::DensityMatrix;
use qfc::quantum::state::PureState;
use qfc::timetag::detector::SinglePhotonDetector;
use qfc::timetag::events::TagStream;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn units_roundtrip() {
    let f = Frequency::from_thz(193.4);
    assert_eq!(roundtrip(&f), f);
    let w = Wavelength::from_nm(1550.0);
    assert_eq!(roundtrip(&w), w);
    let p = Power::from_mw(15.0);
    assert_eq!(roundtrip(&p), p);
}

#[test]
fn device_roundtrip() {
    // JSON float printing can drift the last ULP (e.g. −1e-26 →
    // −9.999999999999999e-27), so compare derived physics, not bits.
    let ring = Microring::paper_device();
    let back = roundtrip(&ring);
    assert!((back.linewidth().hz() - ring.linewidth().hz()).abs() < 1.0);
    assert!((back.radius() - ring.radius()).abs() < 1e-12);
    assert!(
        (back.field_enhancement_power() - ring.field_enhancement_power()).abs() < 1e-6
    );
}

#[test]
fn source_and_pump_roundtrip() {
    for source in [
        QfcSource::paper_device(),
        QfcSource::paper_device_type2(),
        QfcSource::paper_device_timebin(),
    ] {
        let back = roundtrip(&source);
        assert_eq!(back.regime(), source.regime());
        assert_eq!(back.pump_coupling, source.pump_coupling);
        // Derived emission figures survive to within float-print drift.
        if source.regime() == qfc::core::source::EmissionRegime::HeraldedSinglePhotons {
            let (a, b) = (
                back.try_pair_rate_cw(1).expect("CW pump"),
                source.try_pair_rate_cw(1).expect("CW pump"),
            );
            assert!((a - b).abs() / b < 1e-9, "{a} vs {b}");
        }
    }
    let pump = PumpConfig::paper_double_pulse();
    assert_eq!(roundtrip(&pump), pump);
}

#[test]
fn quantum_states_roundtrip() {
    let state = qfc::quantum::bell::bell_phi(0.7);
    let back: PureState = roundtrip(&state);
    assert!(back.approx_eq_up_to_phase(&state, 1e-12));
    let rho = DensityMatrix::from_pure(&state).depolarize(0.2);
    let back: DensityMatrix = roundtrip(&rho);
    assert!(back.as_matrix().approx_eq(rho.as_matrix(), 1e-12));
}

#[test]
fn matrices_roundtrip() {
    let m = CMatrix::from_fn(3, 4, |i, j| {
        qfc::mathkit::complex::Complex64::new(i as f64, j as f64)
    });
    assert_eq!(roundtrip(&m), m);
}

#[test]
fn configs_roundtrip() {
    assert_eq!(roundtrip(&HeraldedConfig::paper()), HeraldedConfig::paper());
    assert_eq!(roundtrip(&TimeBinConfig::paper()), TimeBinConfig::paper());
    assert_eq!(
        roundtrip(&SinglePhotonDetector::ingaas_paper()),
        SinglePhotonDetector::ingaas_paper()
    );
}

#[test]
fn experiment_report_roundtrip() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 1.0;
    cfg.channels = 1;
    cfg.linewidth_pairs = 1000;
    let report = try_run_heralded_experiment(&source, &cfg, 1234, &FaultSchedule::empty())
        .expect("clean heralded run")
        .report;
    let back: HeraldedReport = roundtrip(&report);
    assert_eq!(back.coincidence_matrix, report.coincidence_matrix);
    assert_eq!(back.channels.len(), report.channels.len());
    let table: ExperimentReport = roundtrip(&report.to_report());
    assert_eq!(table.comparisons.len(), report.to_report().comparisons.len());
}

#[test]
fn tag_streams_roundtrip() {
    let s = TagStream::from_unsorted(vec![5, 1, 9, 9]);
    assert_eq!(roundtrip(&s), s);
}
