//! Contract tests of the fault-injection layer, driver by driver:
//!
//! * an **empty** fault schedule leaves the health pristine, and a
//!   schedule whose only fault falls after the run reproduces it byte for
//!   byte (report and health), so the fault layer costs nothing when
//!   nothing goes wrong;
//! * fault-injected runs are **deterministic across thread counts**
//!   (1, 4, and the ambient default), because every fault query is a
//!   pure function of the schedule and every recovery draw comes from
//!   its own split-seed lane;
//! * the supervisor's **quarantine** and **estimator-fallback** paths
//!   actually engage and are visible in the health report;
//! * arbitrary seeded schedules never produce NaN figures of merit
//!   (property test over the stress-schedule family).

use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::supervisor;
use qfc::core::timebin::{nominal_duration_s, try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::{Arm, FaultEvent, FaultKind, FaultSchedule, QfcError};
use qfc::runtime::with_threads;

use proptest::prelude::*;

fn heralded_cfg() -> HeraldedConfig {
    let mut c = HeraldedConfig::fast_demo();
    c.duration_s = 2.0;
    c.linewidth_pairs = 2000;
    c
}

fn crosspol_cfg() -> CrossPolConfig {
    let mut c = CrossPolConfig::fast_demo();
    c.duration_s = 5.0;
    c
}

fn timebin_cfg() -> TimeBinConfig {
    let mut c = TimeBinConfig::fast_demo();
    c.frames_per_point = 200_000;
    c
}

fn multiphoton_cfg() -> MultiPhotonConfig {
    let mut c = MultiPhotonConfig::fast_demo();
    c.bell_shots_per_setting = 200;
    c.four_fold_frames_per_point = 50_000_000_000;
    c.four_fold_phase_steps = 12;
    c.four_shots_per_setting = 20;
    c
}

// ---------------------------------------------------------------------
// Empty schedule ⇒ pristine, and byte-identical to a schedule whose only
// fault falls after the run.
// ---------------------------------------------------------------------

/// A detector dropout that starts after a run of `duration_s` has ended.
fn after_the_run(duration_s: f64) -> FaultSchedule {
    FaultSchedule::empty().with(FaultEvent::new(
        duration_s + 1.0,
        1.0,
        FaultKind::DetectorDropout {
            channel: 1,
            arm: Arm::Signal,
        },
    ))
}

/// Runs `run` on the empty schedule and on [`after_the_run`]: the first
/// must be pristine, and both serialized runs must be byte-identical.
fn assert_fault_layer_is_free<R: serde::Serialize>(
    duration_s: f64,
    run: impl Fn(&FaultSchedule) -> R,
    health: impl Fn(&R) -> &qfc::faults::HealthReport,
) {
    let clean = run(&FaultSchedule::empty());
    assert!(health(&clean).is_pristine());
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&run(&after_the_run(duration_s))).unwrap(),
    );
}

#[test]
fn empty_schedule_is_byte_identical_heralded() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    assert_fault_layer_is_free(
        cfg.duration_s,
        |schedule| try_run_heralded_experiment(&source, &cfg, 777, schedule).expect("clean run"),
        |run| &run.health,
    );
}

#[test]
fn empty_schedule_is_byte_identical_crosspol() {
    let source = QfcSource::paper_device_type2();
    let cfg = crosspol_cfg();
    assert_fault_layer_is_free(
        cfg.duration_s,
        |schedule| try_run_crosspol_experiment(&source, &cfg, 99, schedule).expect("clean run"),
        |run| &run.health,
    );
}

#[test]
fn empty_schedule_is_byte_identical_timebin() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_cfg();
    assert_fault_layer_is_free(
        nominal_duration_s(&cfg),
        |schedule| try_run_timebin_experiment(&source, &cfg, 4243, schedule).expect("clean run"),
        |run| &run.health,
    );
}

#[test]
fn empty_schedule_is_byte_identical_multiphoton() {
    let source = QfcSource::paper_device_timebin();
    let cfg = multiphoton_cfg();
    assert_fault_layer_is_free(
        nominal_duration_s(&cfg.timebin),
        |schedule| try_run_multiphoton_experiment(&source, &cfg, 55, schedule).expect("clean run"),
        |run| &run.health,
    );
}

// ---------------------------------------------------------------------
// Fault-injected runs are thread-count invariant.
// ---------------------------------------------------------------------

/// Runs `f` at one worker, four workers, and the ambient thread count,
/// and asserts the three serialized outputs are byte-identical.
fn assert_thread_invariant<T: serde::Serialize>(f: impl Fn() -> T + Sync) {
    let serial = serde_json::to_string(&with_threads(1, &f)).unwrap();
    let four = serde_json::to_string(&with_threads(4, &f)).unwrap();
    let ambient = serde_json::to_string(&f()).unwrap();
    assert_eq!(serial, four, "1 vs 4 threads");
    assert_eq!(serial, ambient, "1 thread vs ambient");
}

#[test]
fn faulty_heralded_run_is_thread_invariant() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let schedule = FaultSchedule::stress(3, cfg.duration_s);
    assert_thread_invariant(|| {
        try_run_heralded_experiment(&source, &cfg, 4242, &schedule).expect("survives")
    });
}

#[test]
fn faulty_crosspol_run_is_thread_invariant() {
    let source = QfcSource::paper_device_type2();
    let cfg = crosspol_cfg();
    let schedule = FaultSchedule::stress(5, cfg.duration_s);
    assert_thread_invariant(|| {
        try_run_crosspol_experiment(&source, &cfg, 99, &schedule).expect("survives")
    });
}

#[test]
fn faulty_timebin_run_is_thread_invariant() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_cfg();
    let schedule = FaultSchedule::stress(7, nominal_duration_s(&cfg));
    assert_thread_invariant(|| {
        try_run_timebin_experiment(&source, &cfg, 4243, &schedule).expect("survives")
    });
}

/// Pump re-lock recovery — the one supervisor path that consumes RNG
/// draws — at one, four, and eight workers: the dedicated `fault_stream`
/// lanes make the whole recovery plan a pure function of the seed, so
/// the serialized run (physics report *and* health section) must be
/// byte-identical at every thread count, and the recorded outage must
/// sit exactly on the deterministic backoff ladder
/// `fault_window + base·(2^attempts − 1)` replayed from the lane.
#[test]
fn lock_loss_recovery_is_byte_identical_at_1_4_8_threads() {
    use qfc::core::supervisor::{fault_stream, SupervisorPolicy};
    use qfc::mathkit::rng::{bernoulli, rng_from_seed};

    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_cfg();
    let seed = 31_337;
    // Start and width are exact binary fractions inside the ~0.64 s run,
    // so the clipped overlap reproduces `window_s` bit-for-bit.
    let window_s = 0.25;
    let schedule = FaultSchedule::empty().with(FaultEvent::new(
        0.25,
        window_s,
        FaultKind::PumpLockLoss,
    ));
    let run = |threads: usize| {
        let r = with_threads(threads, || {
            try_run_timebin_experiment(&source, &cfg, seed, &schedule).expect("survives")
        });
        serde_json::to_string(&r).expect("serializes")
    };
    let one = run(1);
    assert_eq!(one, run(4), "1 vs 4 threads");
    assert_eq!(one, run(8), "1 vs 8 threads");

    // Replay the event's dedicated fault lane (event 0 → lane 1) and pin
    // the health record to the exact ladder.
    let policy = SupervisorPolicy::default();
    let mut rng = rng_from_seed(fault_stream(seed, 1));
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        if bernoulli(&mut rng, policy.relock_success_prob) {
            break;
        }
    }
    let ladder: f64 = (1..=attempts)
        .map(|j| policy.relock_base_s * f64::from(1u32 << (j - 1)))
        .sum();
    let parsed = with_threads(1, || {
        try_run_timebin_experiment(&source, &cfg, seed, &schedule).expect("survives")
    });
    assert_eq!(
        parsed.health.outage_s.to_bits(),
        (window_s + ladder).to_bits(),
        "outage {} ≠ window {window_s} + ladder {ladder}",
        parsed.health.outage_s
    );
}

// ---------------------------------------------------------------------
// Supervisor recovery paths.
// ---------------------------------------------------------------------

/// A schedule that kills channel 1's signal detector for most of the
/// run, which is past the quarantine threshold.
fn kill_channel(channel: u32, duration_s: f64) -> FaultEvent {
    FaultEvent::new(
        0.0,
        0.9 * duration_s,
        FaultKind::DetectorDropout {
            channel,
            arm: Arm::Signal,
        },
    )
}

#[test]
fn dead_detector_quarantines_only_that_channel() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let schedule = FaultSchedule::empty().with(kill_channel(1, cfg.duration_s));
    let run = try_run_heralded_experiment(&source, &cfg, 11, &schedule).expect("degraded run");
    assert_eq!(run.health.quarantined_channels, vec![1]);
    let measured: Vec<u32> = run.report.channels.iter().map(|c| c.m).collect();
    assert_eq!(measured, vec![2, 3]);
    assert!(run.health.is_degraded());
}

#[test]
fn all_channels_dead_is_a_taxonomy_error() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let mut schedule = FaultSchedule::empty();
    for m in 1..=cfg.channels {
        schedule = schedule.with(kill_channel(m, cfg.duration_s));
    }
    let err = try_run_heralded_experiment(&source, &cfg, 11, &schedule)
        .expect_err("nothing left to measure");
    assert!(matches!(err, QfcError::ChannelsExhausted { .. }));
}

#[test]
fn diverging_mle_fallback_is_reported_in_health() {
    use qfc::quantum::bell::bell_phi;
    use qfc::quantum::density::DensityMatrix;
    use qfc::tomography::reconstruct::MleOptions;
    use qfc::tomography::settings::all_settings;
    use qfc::tomography::stream::try_stream_counts_seeded;

    let rho = DensityMatrix::from_pure(&bell_phi(0.0));
    let data = try_stream_counts_seeded(&rho, &all_settings(2), 400, 17).expect("counts");
    // A one-iteration budget cannot settle: the supervisor must swap in
    // linear inversion and say so.
    let opts = MleOptions { max_iterations: 1 };
    let mut health = qfc::faults::HealthReport::pristine();
    let res = supervisor::reconstruct_with_fallback(&data, &opts, &mut health)
        .expect("fallback produces a state");
    assert!(!res.converged);
    assert!(health.is_degraded());
    let rendered = health.render();
    assert!(
        rendered.contains("linear inversion"),
        "health must name the fallback estimator: {rendered}"
    );
}

// ---------------------------------------------------------------------
// Property: no schedule in the stress family produces NaN figures.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn heralded_car_finite_under_arbitrary_faults(seed in 0u64..10_000) {
        let source = QfcSource::paper_device();
        let cfg = heralded_cfg();
        let schedule = FaultSchedule::stress(seed, cfg.duration_s);
        let run = try_run_heralded_experiment(&source, &cfg, seed ^ 0xABCD, &schedule)
            .expect("stress schedules are survivable");
        for c in &run.report.channels {
            prop_assert!(c.car.is_finite(), "m={}: CAR {}", c.m, c.car);
            prop_assert!(c.coincidence_rate_hz.is_finite());
        }
    }

    #[test]
    fn timebin_visibility_finite_under_arbitrary_faults(seed in 0u64..10_000) {
        let source = QfcSource::paper_device_timebin();
        let cfg = timebin_cfg();
        let schedule = FaultSchedule::stress(seed, nominal_duration_s(&cfg));
        let run = try_run_timebin_experiment(&source, &cfg, seed ^ 0x1234, &schedule)
            .expect("stress schedules are survivable");
        for f in &run.report.fringes {
            prop_assert!(f.fit.visibility.is_finite(), "m={}", f.m);
        }
        for c in &run.report.chsh {
            prop_assert!(c.s_value.is_finite(), "m={}", c.m);
        }
    }
}
