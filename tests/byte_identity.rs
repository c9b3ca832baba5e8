//! Byte-identity gate for the kernel reworks.
//!
//! The fixtures under `tests/golden/` pin the serialized JSON of every
//! shot-based kernel, of the MLE engine, and of one fault-injected run
//! of each paper driver (report and health section)
//! (`cargo run --release --example golden_fixtures` regenerates them).
//! Each test re-runs one workload and demands the output match its
//! fixture byte for byte — the strongest possible statement that an
//! optimization is a pure refactor of the arithmetic, not a statistical
//! approximation of it. A change that must move bytes re-baselines once,
//! on purpose, with an old-vs-new equivalence table in CHANGES.md (the
//! one-engine MLE re-baseline of `mle_reconstruction.json`,
//! `bootstrap_mle.json` and `four_photon.json` is the precedent).

use std::fs;
use std::path::PathBuf;

use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{
    try_four_photon_tomography, try_run_multiphoton_experiment, MultiPhotonConfig,
};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{
    nominal_duration_s, run_timebin_event_mc, try_run_timebin_experiment, TimeBinConfig,
};
use qfc::faults::{Arm, FaultEvent, FaultKind, FaultSchedule, HealthReport};
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

/// Thread counts the MLE-bearing fixtures replay at: the serial loop
/// and a four-member worker team, whatever the host's default.
const REPLAY_THREADS: [usize; 2] = [1, 4];

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_bytes_match(name: &str, fresh: &str) {
    let pinned = golden(name);
    if fresh != pinned {
        // Locate the first differing byte so a failure points at the
        // drifted field instead of dumping two multi-kB JSON blobs.
        let at = fresh
            .bytes()
            .zip(pinned.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.len().min(pinned.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{name}: output drifted from the golden fixture \
             at byte {at}\n  golden: …{}…\n  fresh:  …{}…",
            &pinned[lo..(at + 60).min(pinned.len())],
            &fresh[lo..(at + 60).min(fresh.len())],
        );
    }
}

#[test]
fn timebin_event_mc_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.frames_per_point = 200_000;
    let phases: Vec<f64> = (0..6).map(|k| 0.3 * f64::from(k)).collect();
    let scan = run_timebin_event_mc(&source, &cfg, 1, &phases, 11).expect("double-pulse source");
    assert_bytes_match(
        "timebin_event_mc.json",
        &serde_json::to_string(&scan).expect("json"),
    );
}

#[test]
fn tomography_counts_match_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = try_stream_counts_seeded(&truth, &all_settings(2), 500, 17).expect("counts");
    assert_bytes_match(
        "tomography_counts.json",
        &serde_json::to_string(&data).expect("json"),
    );
}

#[test]
fn mle_reconstruction_matches_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = try_stream_counts_seeded(&truth, &all_settings(2), 500, 17).expect("counts");
    let mle = try_mle_reconstruction(&data, &MleOptions::default()).expect("MLE");
    assert_bytes_match(
        "mle_reconstruction.json",
        &serde_json::to_string(&mle).expect("json"),
    );
}

#[test]
fn bootstrap_mle_matches_pre_rework_bytes() {
    let truth = werner_state(0.83, 0.0);
    let data = try_stream_counts_seeded(&truth, &all_settings(2), 500, 17).expect("counts");
    let target = bell_phi_plus();
    let opts = MleOptions { max_iterations: 50 };
    // Replicas run on the worker team and each runs the MLE, so the
    // fixture replays serially and on four workers.
    for threads in REPLAY_THREADS {
        let boot = qfc::runtime::with_threads(threads, || {
            bootstrap_functional(
                23,
                &data,
                6,
                |d| try_mle_reconstruction(d, &opts).expect("replica MLE").rho,
                |rho| fidelity_with_pure(rho, &target),
            )
        });
        assert_bytes_match(
            "bootstrap_mle.json",
            &serde_json::to_string(&boot).expect("json"),
        );
    }
}

/// The `qudit_mle_rank1.json` reconstruction: a d = 8 qudit measured in
/// orthonormal bases, reconstructed by the rank-1 engine directly.
fn qudit_rank1_json() -> String {
    let truth = synthetic_low_rank_state(8, 2, 5).expect("synthetic state");
    let bases = deterministic_bases(8, 9, 21).expect("bases");
    let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
    let counts = exact_counts_repr(&truth, &set, 200_000).expect("counts");
    let opts = MleOptions { max_iterations: 60 };
    let mle = try_mle_repr(&set, &counts, &opts).expect("rank-1 MLE");
    serde_json::to_string(&mle).expect("json")
}

#[test]
fn qudit_rank1_mle_matches_pinned_bytes() {
    assert_bytes_match("qudit_mle_rank1.json", &qudit_rank1_json());
}

#[test]
fn qudit_rank1_mle_bytes_invariant_across_thread_counts() {
    // d = 8 in 9 bases gives 72 (projector, frequency) pairs, and
    // 72 · 8² = 4 608 is below the sweep's chunking threshold
    // (`PAR_SWEEP_MIN_WORK` = 32 768), so every sweep is one chunk that
    // runs inline on the caller and never reaches the worker team. This
    // pins that the engine's serial path ignores the thread count;
    // `rank1::tests::rank1_mle_thread_invariant` is the multi-chunk check.
    for threads in [1usize, 4, 8] {
        let json = qfc::runtime::with_threads(threads, qudit_rank1_json);
        assert_bytes_match("qudit_mle_rank1.json", &json);
    }
}

#[test]
fn heralded_pipeline_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 1.0;
    cfg.channels = 2;
    let run = try_run_heralded_experiment(&source, &cfg, 7, &FaultSchedule::empty())
        .expect("heralded run");
    assert_bytes_match("heralded.json", &serde_json::to_string(&run.report).expect("json"));
}

#[test]
fn four_photon_tomography_matches_pre_rework_bytes() {
    let source = QfcSource::paper_device_timebin();
    let cfg = MultiPhotonConfig::fast_demo();
    for threads in REPLAY_THREADS {
        let four = qfc::runtime::with_threads(threads, || {
            try_four_photon_tomography(
                &source,
                &cfg,
                13,
                &cfg.timebin,
                cfg.four_fold_pump_factor,
                &mut HealthReport::pristine(),
            )
        })
        .expect("four-photon tomography");
        assert_bytes_match("four_photon.json", &serde_json::to_string(&four).expect("json"));
    }
}

// One full run per paper driver, health section included: the stress
// schedules of `tests/fault_injection.rs` and the detector-dropout
// schedule of the faulted multiphoton campaign in `tests/campaign.rs`.

#[test]
fn heralded_run_matches_pinned_bytes() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 2.0;
    cfg.linewidth_pairs = 2000;
    let schedule = FaultSchedule::stress(3, cfg.duration_s);
    let run = try_run_heralded_experiment(&source, &cfg, 4242, &schedule).expect("heralded run");
    assert_bytes_match("heralded_run.json", &serde_json::to_string(&run).expect("json"));
}

#[test]
fn crosspol_run_matches_pinned_bytes() {
    let source = QfcSource::paper_device_type2();
    let mut cfg = CrossPolConfig::fast_demo();
    cfg.duration_s = 5.0;
    let schedule = FaultSchedule::stress(5, cfg.duration_s);
    let run = try_run_crosspol_experiment(&source, &cfg, 99, &schedule).expect("crosspol run");
    assert_bytes_match("crosspol_run.json", &serde_json::to_string(&run).expect("json"));
}

#[test]
fn timebin_run_matches_pinned_bytes() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.frames_per_point = 200_000;
    let schedule = FaultSchedule::stress(7, nominal_duration_s(&cfg));
    let run = try_run_timebin_experiment(&source, &cfg, 4243, &schedule).expect("timebin run");
    assert_bytes_match("timebin_run.json", &serde_json::to_string(&run).expect("json"));
}

#[test]
fn multiphoton_run_matches_pinned_bytes() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = MultiPhotonConfig::fast_demo();
    cfg.timebin.frames_per_point = 50_000;
    cfg.bell_shots_per_setting = 100;
    cfg.four_fold_phase_steps = 8;
    cfg.four_shots_per_setting = 10;
    // A detector dropout over the middle half of the nominal scan.
    let run_s = nominal_duration_s(&cfg.timebin);
    let schedule = FaultSchedule::empty().with(FaultEvent::new(
        0.25 * run_s,
        0.5 * run_s,
        FaultKind::DetectorDropout {
            channel: 1,
            arm: Arm::Signal,
        },
    ));
    for threads in REPLAY_THREADS {
        let run = qfc::runtime::with_threads(threads, || {
            try_run_multiphoton_experiment(&source, &cfg, 73, &schedule)
        })
        .expect("multiphoton run");
        assert_bytes_match("multiphoton_run.json", &serde_json::to_string(&run).expect("json"));
    }
}
