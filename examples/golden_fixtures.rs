//! Regenerates the byte-identity golden fixtures under `tests/golden/`.
//!
//! The fixtures pin the exact JSON output of every shot-based kernel
//! (categorical sampling, bootstrap resampling, detector/timetag
//! pipelines), of the MLE engine, and of one fault-injected run of each
//! paper driver (report plus health section); `tests/byte_identity.rs`
//! fails if any of them drifts by a single byte. Regenerate only for a change that
//! moves bytes on purpose, and record the old-vs-new values in
//! CHANGES.md.
//!
//! Run from the workspace root: `cargo run --release --example golden_fixtures`

use std::fs;
use std::path::Path;

use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{
    try_four_photon_tomography, try_run_multiphoton_experiment, MultiPhotonConfig,
};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{
    nominal_duration_s, run_timebin_event_mc, try_run_timebin_experiment, TimeBinConfig,
};
use qfc::faults::{Arm, FaultEvent, FaultKind, FaultSchedule, HealthReport, QfcResult};
use qfc::quantum::bell::{bell_phi_plus, werner_state};
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::tomography::bootstrap::bootstrap_functional;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleOptions};
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

fn write_fixture(dir: &Path, name: &str, json: &str) {
    let path = dir.join(name);
    fs::write(&path, json).expect("write fixture");
    println!("wrote {} ({} bytes)", path.display(), json.len());
}

fn main() -> QfcResult<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    fs::create_dir_all(&dir).expect("create tests/golden");
    let source = QfcSource::paper_device();

    // §IV event Monte Carlo: the 10-way categorical slot draw.
    let tb_source = QfcSource::paper_device_timebin();
    let mut tb = TimeBinConfig::fast_demo();
    tb.frames_per_point = 200_000;
    let phases: Vec<f64> = (0..6).map(|k| 0.3 * f64::from(k)).collect();
    let scan = run_timebin_event_mc(&tb_source, &tb, 1, &phases, 11)?;
    write_fixture(&dir, "timebin_event_mc.json", &serde_json::to_string(&scan).expect("json"));

    // §V two-qubit tomography counts: the per-setting categorical draw.
    let truth = werner_state(0.83, 0.0);
    let settings = all_settings(2);
    let data = try_stream_counts_seeded(&truth, &settings, 500, 17)?;
    write_fixture(&dir, "tomography_counts.json", &serde_json::to_string(&data).expect("json"));

    // MLE RρR reconstruction of those counts.
    let mle = try_mle_reconstruction(&data, &MleOptions::default()).expect("MLE");
    write_fixture(&dir, "mle_reconstruction.json", &serde_json::to_string(&mle).expect("json"));

    // Qudit MLE: a d = 8 state measured in orthonormal bases and
    // reconstructed by the rank-1 engine directly (bitwise
    // thread-invariant).
    let qudit_truth = synthetic_low_rank_state(8, 2, 5).expect("synthetic state");
    let qudit_bases = deterministic_bases(8, 9, 21).expect("bases");
    let qudit_set = ProjectorReprSet::try_rank1_from_bases(&qudit_bases).expect("set");
    let qudit_counts = exact_counts_repr(&qudit_truth, &qudit_set, 200_000).expect("counts");
    let qudit_opts = MleOptions { max_iterations: 60 };
    let qudit = try_mle_repr(&qudit_set, &qudit_counts, &qudit_opts).expect("rank-1 MLE");
    write_fixture(&dir, "qudit_mle_rank1.json", &serde_json::to_string(&qudit).expect("json"));

    // Bootstrap error bar over MLE re-reconstructions (resampling + MLE).
    let target = bell_phi_plus();
    let opts = MleOptions { max_iterations: 50 };
    let boot = bootstrap_functional(
        23,
        &data,
        6,
        |d| try_mle_reconstruction(d, &opts).expect("replica MLE").rho,
        |rho| fidelity_with_pure(rho, &target),
    );
    write_fixture(&dir, "bootstrap_mle.json", &serde_json::to_string(&boot).expect("json"));

    // §II heralded pipeline: detector (efficiency/jitter/darks/dead-time),
    // coincidence counting, CAR, linewidth fit.
    let mut hc = HeraldedConfig::fast_demo();
    hc.duration_s = 1.0;
    hc.channels = 2;
    let heralded = try_run_heralded_experiment(&source, &hc, 7, &FaultSchedule::empty())
        .expect("heralded run")
        .report;
    write_fixture(&dir, "heralded.json", &serde_json::to_string(&heralded).expect("json"));

    // §V four-photon tomography: 81-setting counts + dim-16 MLE.
    let mc = MultiPhotonConfig::fast_demo();
    let four = try_four_photon_tomography(
        &tb_source,
        &mc,
        13,
        &mc.timebin,
        mc.four_fold_pump_factor,
        &mut HealthReport::pristine(),
    )
    .expect("four-photon tomography");
    write_fixture(&dir, "four_photon.json", &serde_json::to_string(&four).expect("json"));

    // One full run of each paper driver, health section included: the
    // stress schedules of the thread-invariance tests in
    // `tests/fault_injection.rs`, and the detector-dropout schedule of
    // the faulted multiphoton campaign in `tests/campaign.rs`.
    let mut hc = HeraldedConfig::fast_demo();
    hc.duration_s = 2.0;
    hc.linewidth_pairs = 2000;
    let stress = FaultSchedule::stress(3, hc.duration_s);
    let run = try_run_heralded_experiment(&source, &hc, 4242, &stress).expect("heralded run");
    write_fixture(&dir, "heralded_run.json", &serde_json::to_string(&run).expect("json"));

    let mut cc = CrossPolConfig::fast_demo();
    cc.duration_s = 5.0;
    let stress = FaultSchedule::stress(5, cc.duration_s);
    let type2 = QfcSource::paper_device_type2();
    let run = try_run_crosspol_experiment(&type2, &cc, 99, &stress).expect("crosspol run");
    write_fixture(&dir, "crosspol_run.json", &serde_json::to_string(&run).expect("json"));

    let mut tc = TimeBinConfig::fast_demo();
    tc.frames_per_point = 200_000;
    let stress = FaultSchedule::stress(7, nominal_duration_s(&tc));
    let run = try_run_timebin_experiment(&tb_source, &tc, 4243, &stress).expect("timebin run");
    write_fixture(&dir, "timebin_run.json", &serde_json::to_string(&run).expect("json"));

    let mut mc = MultiPhotonConfig::fast_demo();
    mc.timebin.frames_per_point = 50_000;
    mc.bell_shots_per_setting = 100;
    mc.four_fold_phase_steps = 8;
    mc.four_shots_per_setting = 10;
    // A detector dropout over the middle half of the nominal scan, so the
    // fixture pins a faulted health section.
    let run_s = nominal_duration_s(&mc.timebin);
    let dropout = FaultSchedule::empty().with(FaultEvent::new(
        0.25 * run_s,
        0.5 * run_s,
        FaultKind::DetectorDropout {
            channel: 1,
            arm: Arm::Signal,
        },
    ));
    let run = try_run_multiphoton_experiment(&tb_source, &mc, 73, &dropout)
        .expect("multiphoton run");
    write_fixture(&dir, "multiphoton_run.json", &serde_json::to_string(&run).expect("json"));
    Ok(())
}
