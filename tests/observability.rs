//! Observability-layer contract (C-OBS): the trace/metrics collector is
//! inert by default (enabled vs disabled runs produce byte-identical
//! physics output), and the collected telemetry itself is
//! thread-count-invariant — the deterministic export aggregates spans by
//! name and nesting, never by scheduling order.

use std::path::PathBuf;

use qfc::campaign::{run_campaign, CampaignOptions, TimeBinCampaign};
use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{nominal_duration_s, try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::{FaultEvent, FaultKind, FaultSchedule};
use qfc::obs::{Collector, REGISTERED_COUNTERS};
use qfc::runtime::with_threads;

fn heralded_cfg() -> HeraldedConfig {
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 1.0;
    cfg.channels = 2;
    cfg.linewidth_pairs = 500;
    cfg
}

/// Runs the §II driver under a fresh collector on `threads` workers and
/// returns (physics JSON, deterministic trace JSON, full trace JSON).
fn traced_heralded(threads: usize) -> (String, String, String) {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let collector = Collector::new();
    let run = with_threads(threads, || {
        collector.install(|| {
            try_run_heralded_experiment(&source, &cfg, 77, &FaultSchedule::empty())
                .expect("clean run")
        })
    });
    let snap = collector.snapshot();
    (
        serde_json::to_string(&run.report).expect("report serializes"),
        snap.to_deterministic_json(),
        snap.to_json(),
    )
}

#[test]
fn trace_and_physics_are_thread_count_invariant() {
    let (physics_1, trace_1, _) = traced_heralded(1);
    let (physics_4, trace_4, _) = traced_heralded(4);
    let (physics_8, trace_8, _) = traced_heralded(8);
    assert_eq!(physics_1, physics_4);
    assert_eq!(physics_1, physics_8);
    assert_eq!(trace_1, trace_4, "deterministic trace differs at 4 threads");
    assert_eq!(trace_1, trace_8, "deterministic trace differs at 8 threads");
}

#[test]
fn disabled_collector_leaves_output_byte_identical() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let baseline = try_run_heralded_experiment(&source, &cfg, 77, &FaultSchedule::empty())
        .expect("clean run");
    let (instrumented, _, _) = traced_heralded(qfc::runtime::max_threads());
    assert_eq!(
        serde_json::to_string(&baseline.report).expect("json"),
        instrumented,
        "installing a collector changed the physics output"
    );
}

/// Every driver runs through the one in-process executor, so each
/// exports the same `driver.<label>` phase tree.
#[test]
fn trace_records_driver_phases_and_counters() {
    let empty = FaultSchedule::empty();
    let cw = QfcSource::paper_device();
    let type2 = QfcSource::paper_device_type2();
    let pulsed = QfcSource::paper_device_timebin();
    let heralded = heralded_cfg();
    let mut crosspol = CrossPolConfig::fast_demo();
    crosspol.duration_s = 5.0;
    let timebin = TimeBinConfig::fast_demo();
    let mut multiphoton = MultiPhotonConfig::fast_demo();
    multiphoton.bell_shots_per_setting = 100;
    multiphoton.four_shots_per_setting = 10;
    let drivers: [(&str, &dyn Fn()); 4] = [
        ("heralded", &|| {
            try_run_heralded_experiment(&cw, &heralded, 77, &empty).expect("clean run");
        }),
        ("crosspol", &|| {
            try_run_crosspol_experiment(&type2, &crosspol, 77, &empty).expect("clean run");
        }),
        ("timebin", &|| {
            try_run_timebin_experiment(&pulsed, &timebin, 77, &empty).expect("clean run");
        }),
        ("multiphoton", &|| {
            try_run_multiphoton_experiment(&pulsed, &multiphoton, 77, &empty).expect("clean run");
        }),
    ];
    for (label, run) in drivers {
        let collector = Collector::new();
        collector.install(run);
        let snap = collector.snapshot();
        let driver = &snap.spans.children[0];
        assert_eq!(driver.name, format!("driver.{label}"));
        let phases: Vec<&str> = driver.children.iter().map(|c| c.name.as_str()).collect();
        let expected: Vec<String> = ["source", "timetag", "analysis", "report"]
            .iter()
            .map(|phase| format!("driver.{label}.{phase}"))
            .collect();
        assert_eq!(phases, expected, "{label}");
        assert!(snap.counter("shots_simulated").unwrap_or(0) > 0, "{label}");
        if label == "heralded" {
            assert!(snap.counter("coincidences_counted").unwrap_or(0) > 0);
            assert!(snap.counter("shards_executed").unwrap_or(0) > 0);
            // The human rendering carries the same sections.
            let text = snap.render();
            assert!(text.contains("driver.heralded.timetag"), "{text}");
            assert!(text.contains("shots_simulated"), "{text}");
        }
    }
}

/// The registry is closed over every driver and both executors. Under
/// one collector: a §V run (streamed counts, over-relaxed MLE), the
/// §II, §III and §IV fast demos under
/// stress schedules and a campaign run cold (with executor retries) and
/// then resumed. They bump only registered counters, so the export order
/// is the registry order.
#[test]
fn tomography_counters_are_all_registered() {
    let pulsed = QfcSource::paper_device_timebin();
    let heralded = HeraldedConfig::fast_demo();
    let crosspol = CrossPolConfig::fast_demo();
    let timebin = TimeBinConfig::fast_demo();
    let mut campaign_cfg = TimeBinConfig::fast_demo();
    campaign_cfg.frames_per_point = 20_000;
    campaign_cfg.phase_steps = 8;
    let clean = FaultSchedule::empty();
    let campaign = TimeBinCampaign {
        source: &pulsed,
        config: &campaign_cfg,
        seed: 23,
        schedule: &clean,
    };
    let campaign_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("observability-campaign");
    let _ = std::fs::remove_dir_all(&campaign_dir);
    // Shard 1 fails twice before it succeeds, so the cold run retries.
    let mut opts = CampaignOptions::new(&campaign_dir);
    opts.faults = FaultSchedule::empty().with(FaultEvent::new(
        0.0,
        1.0,
        FaultKind::ShardExecutorFault {
            shard: 1,
            failures: 2,
        },
    ));
    let collector = Collector::new();
    collector.install(|| {
        try_run_multiphoton_experiment(&pulsed, &MultiPhotonConfig::fast_demo(), 13, &clean)
            .expect("clean run");
        let stress = FaultSchedule::stress(3, heralded.duration_s);
        try_run_heralded_experiment(&QfcSource::paper_device(), &heralded, 4242, &stress)
            .expect("heralded run survives the stress schedule");
        let stress = FaultSchedule::stress(5, crosspol.duration_s);
        try_run_crosspol_experiment(&QfcSource::paper_device_type2(), &crosspol, 99, &stress)
            .expect("crosspol run survives the stress schedule");
        let stress = FaultSchedule::stress(7, nominal_duration_s(&timebin));
        try_run_timebin_experiment(&pulsed, &timebin, 4243, &stress)
            .expect("timebin run survives the stress schedule");
        run_campaign(&campaign, &opts).expect("cold campaign");
        run_campaign(&campaign, &opts).expect("resumed campaign");
    });
    let snap = collector.snapshot();
    let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, REGISTERED_COUNTERS,
        "a counter outside the registry was bumped"
    );
    for name in [
        "tomography_stream_shards",
        "mle_accelerated_steps",
        "coincidences_counted",
        "shards_executed",
        "faults_injected",
        "recovery_relocks",
        "campaign_shards_completed",
        "campaign_shards_resumed",
        "campaign_retries",
    ] {
        assert!(
            snap.counter(name).unwrap_or(0) > 0,
            "{name} was never bumped"
        );
    }
}

#[test]
fn full_export_carries_the_run_manifest() {
    let (_, deterministic, full) = traced_heralded(2);
    assert!(full.contains("\"manifest\""), "{full}");
    assert!(full.contains("\"seed\":77"), "{full}");
    assert!(
        !deterministic.contains("manifest"),
        "deterministic export must omit the (environment-dependent) manifest"
    );
    assert!(!deterministic.contains("wall_ns"));
    assert!(!deterministic.contains("gauges"));
}

#[test]
fn experiment_report_attaches_manifest_only_when_collected() {
    let source = QfcSource::paper_device();
    let cfg = heralded_cfg();
    let run = try_run_heralded_experiment(&source, &cfg, 77, &FaultSchedule::empty())
        .expect("clean run");
    // Outside any collector: the legacy report shape, byte for byte.
    let bare = run.to_report();
    assert!(bare.manifest.is_none());
    assert!(!serde_json::to_string(&bare).expect("json").contains("manifest"));

    // Under a collector the driver records the manifest and to_report()
    // picks it up, stamped with the run's actual seed and thread count.
    let collector = Collector::new();
    let attached = collector.install(|| {
        let run = try_run_heralded_experiment(&source, &cfg, 77, &FaultSchedule::empty())
            .expect("clean run");
        run.to_report()
    });
    let manifest = attached.manifest.clone().expect("manifest attached");
    assert_eq!(manifest.seed, 77);
    assert_eq!(manifest.threads, qfc::runtime::max_threads());
    assert_eq!(manifest.config_digest.len(), 16);
    assert!(manifest.config_digest.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(manifest.fault_events, 0);
    assert!(attached.render().contains("manifest:"));
}

#[test]
fn timebin_trace_is_thread_count_invariant() {
    let source = QfcSource::paper_device_timebin();
    let cfg = TimeBinConfig::fast_demo();
    let traced = |threads: usize| {
        let collector = Collector::new();
        let run = with_threads(threads, || {
            collector.install(|| {
                try_run_timebin_experiment(&source, &cfg, 41, &FaultSchedule::empty())
                    .expect("clean run")
            })
        });
        (
            serde_json::to_string(&run.report).expect("json"),
            collector.snapshot().to_deterministic_json(),
        )
    };
    let (physics_1, trace_1) = traced(1);
    let (physics_4, trace_4) = traced(4);
    assert_eq!(physics_1, physics_4);
    assert_eq!(trace_1, trace_4);
}

#[test]
fn faulty_run_counts_recovery_actions() {
    let source = QfcSource::paper_device_timebin();
    let cfg = TimeBinConfig::fast_demo();
    let duration = qfc::core::timebin::nominal_duration_s(&cfg);
    let schedule = FaultSchedule::stress(9, duration);
    let collector = Collector::new();
    let run = collector.install(|| {
        try_run_timebin_experiment(&source, &cfg, 47, &schedule)
            .expect("run survives the stress schedule")
    });
    assert!(!run.health.is_pristine());
    let snap = collector.snapshot();
    assert!(
        snap.counter("faults_injected").unwrap_or(0) > 0,
        "stress schedule must register injected faults"
    );
    let manifest = snap.manifest.expect("manifest recorded");
    assert!(manifest.fault_events > 0);
    assert!(!manifest.fault_kinds.is_empty());
}
