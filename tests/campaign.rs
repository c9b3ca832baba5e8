//! Crash-tolerance gate for the sharded campaign engine.
//!
//! The contract under test: a campaign — whole, interrupted by an
//! injected crash, damaged on disk, or resumed across invocations —
//! always merges to a report **byte-identical** to the single-process
//! driver run, at any thread count. Each test drives `run_campaign`
//! with `prove: true`, so the engine itself re-runs the driver and
//! checks the bytes; the assertions here additionally pin the recovery
//! bookkeeping (retries, backoff, resume and rejection counts).

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use qfc::campaign::{
    run_campaign, CampaignOptions, CampaignOutcome, CampaignWorkload, BACKOFF_BASE_S,
};
use qfc::campaign::{CrossPolCampaign, HeraldedCampaign, MultiPhotonCampaign, TimeBinCampaign};
use qfc::core::crosspol::CrossPolConfig;
use qfc::core::heralded::HeraldedConfig;
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{nominal_duration_s, TimeBinConfig};
use qfc::faults::{Arm, FaultEvent, FaultKind, FaultSchedule, QfcError};
use qfc::obs::Collector;
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::units::Power;
use qfc::runtime::with_threads;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp/campaign-tests")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create campaign test dir");
    dir
}

fn timebin_config() -> TimeBinConfig {
    let mut c = TimeBinConfig::fast_demo();
    c.channels = 3;
    c.frames_per_point = 50_000;
    c.phase_steps = 8;
    c
}

fn proving(dir: PathBuf) -> CampaignOptions {
    let mut opts = CampaignOptions::new(dir);
    opts.prove = true;
    opts
}

fn expect_proof(outcome: &CampaignOutcome) {
    assert_eq!(
        outcome.proof,
        Some(true),
        "campaign report diverged from the single-process driver run"
    );
}

/// Shorthand: a schedule holding one campaign fault (the window is
/// irrelevant — campaign faults are keyed by shard index).
fn campaign_fault(kind: FaultKind) -> FaultSchedule {
    FaultSchedule::empty().with(FaultEvent::new(0.0, 1.0, kind))
}

#[test]
fn timebin_campaign_is_byte_identical_at_1_4_8_threads() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 71,
        schedule: &empty,
    };
    let mut reports = Vec::new();
    for threads in [1usize, 4, 8] {
        let opts = proving(fresh_dir(&format!("timebin-threads-{threads}")));
        let outcome =
            with_threads(threads, || run_campaign(&workload, &opts)).expect("campaign runs");
        expect_proof(&outcome);
        assert_eq!(outcome.stats.shards_total, 3);
        assert_eq!(outcome.stats.shards_completed, 3);
        assert_eq!(outcome.stats.shards_resumed, 0);
        reports.push(outcome.report_json);
    }
    assert_eq!(reports[0], reports[1], "1 vs 4 threads");
    assert_eq!(reports[0], reports[2], "1 vs 8 threads");
}

#[test]
fn heralded_campaign_is_byte_identical_including_shot_shards() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 1.0;
    cfg.linewidth_pairs = 2000;
    let empty = FaultSchedule::empty();
    let workload = HeraldedCampaign {
        source: &source,
        config: &cfg,
        seed: 72,
        schedule: &empty,
    };
    let opts = proving(fresh_dir("heralded-clean"));
    let outcome = run_campaign(&workload, &opts).expect("campaign runs");
    expect_proof(&outcome);
    // Per-channel shards plus the fixed 32-way linewidth decomposition.
    assert!(
        outcome.stats.shards_total > 32,
        "expected channel + linewidth shards, got {}",
        outcome.stats.shards_total
    );
}

/// The §V campaign plans the T4 shard first, then one shard per
/// surviving T3 channel and the fringe. With the empty schedule and with
/// a physics fault, its merge equals the in-process run, health section
/// included, both cold and resumed; the resumed merge reconstructs
/// nothing, because the T4 MLE ran inside its shard.
#[test]
fn multiphoton_campaign_is_byte_identical_with_physics_faults() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = MultiPhotonConfig::fast_demo();
    cfg.timebin.frames_per_point = 50_000;
    cfg.bell_shots_per_setting = 100;
    cfg.four_fold_phase_steps = 8;
    cfg.four_shots_per_setting = 10;
    // The physics fault: a detector dropout over the middle half of the
    // nominal scan.
    let run_s = nominal_duration_s(&cfg.timebin);
    let dropout = FaultKind::DetectorDropout {
        channel: 1,
        arm: Arm::Signal,
    };
    let faulted = FaultSchedule::empty().with(FaultEvent::new(0.25 * run_s, 0.5 * run_s, dropout));
    let empty = FaultSchedule::empty();
    for (name, schedule) in [
        ("multiphoton-clean", &empty),
        ("multiphoton-faulted", &faulted),
    ] {
        let run = try_run_multiphoton_experiment(&source, &cfg, 73, schedule).expect("driver runs");
        let faults = &run.health.faults_injected;
        let fired = faults.iter().any(|f| f.description == dropout.label());
        assert_eq!(fired, !schedule.is_empty(), "{name}: {faults:?}");
        let reference = serde_json::to_string(&run).expect("json");
        let workload = MultiPhotonCampaign {
            source: &source,
            config: &cfg,
            seed: 73,
            schedule,
        };
        let labels: Vec<String> = workload
            .plan()
            .expect("plan")
            .into_iter()
            .map(|spec| spec.label)
            .collect();
        let mut expected = vec!["tomography".to_owned()];
        expected.extend(run.report.bell.iter().map(|b| format!("bell-{}", b.m)));
        expected.push("fringe".to_owned());
        assert_eq!(labels, expected, "{name}");
        let opts = CampaignOptions::new(fresh_dir(name));
        let cold = run_campaign(&workload, &opts).expect("cold campaign");
        assert_eq!(cold.stats.shards_completed, labels.len(), "{name}");
        assert_eq!(cold.report_json, reference, "{name}: cold merge");
        let collector = Collector::new();
        let resumed = collector
            .install(|| run_campaign(&workload, &opts))
            .expect("resumed campaign");
        assert_eq!(resumed.stats.shards_resumed, labels.len(), "{name}");
        assert_eq!(resumed.report_json, reference, "{name}: resumed merge");
        assert_eq!(
            collector.snapshot().counter("mle_iterations"),
            Some(0),
            "{name}: the resumed merge ran an MLE"
        );
    }
}

#[test]
fn crosspol_campaign_is_byte_identical() {
    let source = QfcSource::paper_device_type2();
    let mut cfg = CrossPolConfig::fast_demo();
    cfg.duration_s = 5.0;
    let empty = FaultSchedule::empty();
    let workload = CrossPolCampaign {
        source: &source,
        config: &cfg,
        seed: 74,
        schedule: &empty,
    };
    let opts = proving(fresh_dir("crosspol-clean"));
    let outcome = run_campaign(&workload, &opts).expect("campaign runs");
    expect_proof(&outcome);
    assert_eq!(outcome.stats.shards_total, 1);
}

/// Runs `first` then `second` into one checkpoint directory. The two
/// differ in one input a payload depends on, so they must get different
/// fingerprints, and `second` must recompute every shard rather than
/// resume `first`'s checkpoints.
fn assert_no_shared_checkpoints<W: CampaignWorkload + Sync>(name: &str, first: &W, second: &W) {
    let dir = fresh_dir(name);
    let a = run_campaign(first, &proving(dir.clone())).expect("first campaign runs");
    let b = run_campaign(second, &proving(dir)).expect("second campaign runs");
    expect_proof(&a);
    expect_proof(&b);
    assert_ne!(a.manifest.campaign_id, b.manifest.campaign_id);
    assert_eq!(b.stats.shards_resumed, 0, "resumed another campaign's checkpoints");
}

#[test]
fn campaign_fingerprint_covers_source_and_physics_schedule() {
    // Same time-bin config and seed; only the physics schedule differs.
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let jump = FaultSchedule::empty().with(FaultEvent::new(
        0.0,
        1.0,
        FaultKind::PhaseJump { rad: 1.0 },
    ));
    let faulted = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 81,
        schedule: &jump,
    };
    let clean = TimeBinCampaign {
        schedule: &empty,
        ..faulted
    };
    assert_no_shared_checkpoints("fingerprint-timebin-schedule", &faulted, &clean);

    // Same heralded config and seed; only the pump of the source differs.
    let locked = QfcSource::paper_device();
    let external = locked.clone().with_pump(PumpConfig::ExternalCw {
        power: Power::from_mw(10.0),
        actively_stabilized: true,
    });
    let mut hcfg = HeraldedConfig::fast_demo();
    hcfg.duration_s = 1.0;
    hcfg.linewidth_pairs = 2000;
    let self_locked = HeraldedCampaign {
        source: &locked,
        config: &hcfg,
        seed: 82,
        schedule: &empty,
    };
    let external_cw = HeraldedCampaign {
        source: &external,
        ..self_locked
    };
    assert_no_shared_checkpoints("fingerprint-heralded-source", &self_locked, &external_cw);
}

#[test]
fn shard_abort_interrupts_then_resume_is_byte_identical() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 75,
        schedule: &empty,
    };
    let mut opts = proving(fresh_dir("timebin-abort"));
    opts.faults = campaign_fault(FaultKind::ShardAbort { shard: 1 });

    let err = run_campaign(&workload, &opts).expect_err("abort kills the first run");
    match err {
        QfcError::CampaignInterrupted {
            completed_shards,
            total_shards,
        } => {
            assert_eq!(completed_shards, 1, "only the shard before the abort runs");
            assert_eq!(total_shards, 3);
        }
        other => panic!("expected CampaignInterrupted, got {other}"),
    }

    // Same options on the re-run: the marker file makes the injection
    // one-shot, so the resume survives and completes.
    let outcome = run_campaign(&workload, &opts).expect("resume completes");
    expect_proof(&outcome);
    assert_eq!(outcome.stats.shards_resumed, 1);
    assert_eq!(outcome.stats.shards_completed, 2);
}

#[test]
fn corrupted_checkpoint_is_rejected_and_recomputed() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 76,
        schedule: &empty,
    };
    let mut opts = proving(fresh_dir("timebin-corrupt"));
    opts.faults = campaign_fault(FaultKind::CheckpointCorruption { shard: 0 });

    let err = run_campaign(&workload, &opts).expect_err("corruption kills the first run");
    assert!(matches!(err, QfcError::CampaignInterrupted { .. }), "{err}");

    let outcome = run_campaign(&workload, &opts).expect("resume completes");
    expect_proof(&outcome);
    assert_eq!(
        outcome.stats.checkpoints_rejected, 1,
        "the torn checkpoint must be detected and discarded"
    );
    assert_eq!(outcome.stats.shards_completed, 3, "all shards recomputed or rerun");
}

#[test]
fn stale_checkpoint_is_rejected_and_recomputed() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 77,
        schedule: &empty,
    };
    let mut opts = proving(fresh_dir("timebin-stale"));
    opts.faults = campaign_fault(FaultKind::CheckpointStale { shard: 2 });

    let err = run_campaign(&workload, &opts).expect_err("stale write kills the first run");
    assert!(matches!(err, QfcError::CampaignInterrupted { .. }), "{err}");

    let outcome = run_campaign(&workload, &opts).expect("resume completes");
    expect_proof(&outcome);
    assert_eq!(
        outcome.stats.checkpoints_rejected, 1,
        "the mismatched fingerprint must be detected"
    );
}

#[test]
fn executor_faults_retry_with_the_deterministic_backoff_ladder() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 78,
        schedule: &empty,
    };
    let mut opts = proving(fresh_dir("timebin-retry"));
    opts.faults = campaign_fault(FaultKind::ShardExecutorFault {
        shard: 1,
        failures: 2,
    });
    let outcome = run_campaign(&workload, &opts).expect("retries absorb the failures");
    expect_proof(&outcome);
    assert_eq!(outcome.stats.retries, 2);
    // base·2⁰ before attempt 2, base·2¹ before attempt 3.
    let expected = BACKOFF_BASE_S * 3.0;
    assert!(
        (outcome.stats.backoff_s - expected).abs() < 1e-12,
        "backoff {} ≠ {expected}",
        outcome.stats.backoff_s
    );
    assert!(outcome.stats.quarantined.is_empty());
}

#[test]
fn exhausted_retries_quarantine_then_a_clean_rerun_completes() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 79,
        schedule: &empty,
    };
    let dir = fresh_dir("timebin-quarantine");
    let mut opts = proving(dir.clone());
    opts.faults = campaign_fault(FaultKind::ShardExecutorFault {
        shard: 1,
        failures: 99,
    });
    let err = run_campaign(&workload, &opts).expect_err("budget exhausts");
    match err {
        QfcError::ShardsQuarantined { shards } => assert_eq!(shards, vec![1]),
        other => panic!("expected ShardsQuarantined, got {other}"),
    }

    // The operator clears the fault (new options, same directory): the
    // two healthy shards resume from checkpoints, the quarantined one
    // finally runs, and the merged bytes still match the driver.
    let clean = proving(dir);
    let outcome = run_campaign(&workload, &clean).expect("clean rerun completes");
    expect_proof(&outcome);
    assert_eq!(outcome.stats.shards_resumed, 2);
    assert_eq!(outcome.stats.shards_completed, 1);
}

#[test]
fn resumed_campaign_recomputes_nothing_and_still_proves() {
    let source = QfcSource::paper_device_timebin();
    let cfg = timebin_config();
    let empty = FaultSchedule::empty();
    let workload = TimeBinCampaign {
        source: &source,
        config: &cfg,
        seed: 80,
        schedule: &empty,
    };
    let dir = fresh_dir("timebin-idempotent");
    let opts = proving(dir);
    let first = run_campaign(&workload, &opts).expect("first run");
    let second = run_campaign(&workload, &opts).expect("second run");
    expect_proof(&second);
    assert_eq!(second.stats.shards_resumed, 3);
    assert_eq!(second.stats.shards_completed, 0);
    assert_eq!(first.report_json, second.report_json);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any abort point, any seed: interrupt → resume → byte-identical.
    #[test]
    fn any_abort_point_resumes_byte_identical(shard in 0u32..3, seed in 0u64..1000) {
        let source = QfcSource::paper_device_timebin();
        let cfg = timebin_config();
        let empty = FaultSchedule::empty();
        let workload = TimeBinCampaign {
            source: &source,
            config: &cfg,
            seed,
            schedule: &empty,
        };
        let mut opts = proving(fresh_dir(&format!("prop-abort-{shard}-{seed}")));
        opts.faults = campaign_fault(FaultKind::ShardAbort { shard });
        let err = run_campaign(&workload, &opts).expect_err("abort kills the first run");
        prop_assert!(matches!(err, QfcError::CampaignInterrupted { .. }));
        let outcome = run_campaign(&workload, &opts).expect("resume completes");
        prop_assert_eq!(outcome.proof, Some(true));
        prop_assert_eq!(
            outcome.stats.shards_resumed,
            usize::try_from(shard).expect("small"),
            "shards before the abort point come back from checkpoints"
        );
        // Belt and braces: the merged bytes equal an independent
        // single-process reference.
        let reference = workload.reference_json().expect("reference run");
        prop_assert_eq!(outcome.report_json, reference);
    }
}
