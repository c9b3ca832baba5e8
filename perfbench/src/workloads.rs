//! The three workloads: their inputs, one end-to-end run through the
//! entry point users call, the per-run correctness checks, and the
//! traced decomposition that calls the same public stage functions the
//! driver calls, in the same order, inside spans.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qfc_campaign::checkpoint::{load_checkpoint, shard_path, LoadOutcome};
use qfc_campaign::{
    run_campaign, CampaignOptions, CampaignOutcome, CampaignWorkload, HeraldedCampaign, ShardSpec,
};
use qfc_core::heralded::{
    assemble_heralded_run, heralded_channel_task, heralded_linewidth_shard, merge_linewidth_shards,
    plan_heralded_experiment, try_run_heralded_experiment, HeraldedConfig, HeraldedPlan,
    HeraldedRun,
};
use qfc_core::multiphoton::{
    bell_channel_task, four_photon_tomography_from_data, plan_multiphoton_experiment,
    try_four_photon_fringe, try_four_photon_state, try_run_multiphoton_experiment,
    MultiPhotonConfig, MultiPhotonPlan, MultiPhotonReport, MultiPhotonRun,
};
use qfc_core::report::ExperimentReport;
use qfc_core::source::QfcSource;
use qfc_faults::health::RecoveryAction;
use qfc_faults::{FaultSchedule, HealthReport, QfcResult};
use qfc_quantum::fidelity::fidelity_with_pure;
use qfc_quantum::multiphoton::four_photon_product;
use qfc_timetag::coincidence::{
    count_coincidences, cross_correlation_histogram, measure_car, try_extract_linewidth,
};
use qfc_timetag::events::TagStream;
use qfc_tomography::settings::all_settings;
use qfc_tomography::stream::try_stream_counts_seeded;

use crate::trace::Tracer;

/// Integration time of the campaign workload, s. At 2 s the resume is
/// still dominated by the quadratic checkpoint parse yet completes in
/// about a second; do not shrink it.
const CAMPAIGN_DURATION_S: f64 = 2.0;

/// Largest tolerated |F_MLE − F_true| of the T4 reconstruction before a
/// run counts as wrong: about five times the largest error seen across
/// seeds, so only a broken reconstruction trips it.
const MAX_FIDELITY_ERR: f64 = 0.2;

pub type Check = Result<(), String>;

fn fail<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// What one end-to-end run produced.
pub struct RunOutput {
    /// Wall time of the timed call(s), ms (the cold campaign for the
    /// campaign workload).
    pub ms: f64,
    /// Wall time of the resume, ms (campaign workload only).
    pub resume_ms: Option<f64>,
    /// The serialized run, compared byte for byte across thread counts
    /// and against the traced decomposition.
    pub bytes: String,
    /// Report rows within their paper tolerance, and rows evaluated.
    pub rows: Option<(usize, usize)>,
    /// |F_MLE − F_true| of the T4 reconstruction.
    pub fidelity_abs_err: Option<f64>,
}

impl RunOutput {
    pub fn total_ms(&self) -> f64 {
        self.ms + self.resume_ms.unwrap_or(0.0)
    }
}

/// Work counts of one traced run, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// A benchmark workload.
pub trait Bench {
    /// One end-to-end run on `seed` through the entry point users call,
    /// with its outputs checked.
    fn run(&self, seed: u64) -> Result<RunOutput, String>;

    /// The same run as a traced decomposition: spans under one `run`
    /// root, work counts into `counts`. Returns the serialized run,
    /// which must equal [`RunOutput::bytes`] for the same seed.
    fn traced(&self, seed: u64, tracer: &Tracer, counts: &mut Counts) -> Result<String, String>;

    /// Timing of sub-steps re-run outside the traced run, on the same
    /// inputs, under their own root span.
    fn attribution(&self, _seed: u64, _tracer: &Tracer, _counts: &mut Counts) -> Check {
        Ok(())
    }

    /// The set-up's warm-up on `seed`: by default one run. Returns the
    /// serialized run.
    fn warm_up(&self, seed: u64) -> Result<String, String> {
        self.run(seed).map(|out| out.bytes)
    }

    /// A check made once, before the set-ups.
    fn setup_check(&self, _seed: u64) -> Check {
        Ok(())
    }

    /// How strongly the workload's times follow the host's slowness: the
    /// exponent β in time ∝ slowness^β (see `calib`).
    fn slowness_exponent(&self) -> f64;
}

/// The serialized run: the run's JSON, then its report's.
fn run_bytes(run: &impl serde::Serialize, report_json: &str) -> Result<String, String> {
    let run_json = serde_json::to_string(run).map_err(fail("run serialization"))?;
    Ok(format!("{run_json}\n{report_json}"))
}

fn rows(report: &ExperimentReport) -> (usize, usize) {
    let passed = report.comparisons.iter().filter(|c| c.passes()).count();
    (passed, report.comparisons.len())
}

// ---------------------------------------------------------------- §II

/// §II heralded photons at `HeraldedConfig::paper()`.
pub struct Heralded {
    source: QfcSource,
    config: HeraldedConfig,
    schedule: FaultSchedule,
}

impl Heralded {
    pub fn new() -> Self {
        Self {
            source: QfcSource::paper_device(),
            config: HeraldedConfig::paper(),
            schedule: FaultSchedule::empty(),
        }
    }

    /// The driver's stages before assembly, in its order, each in a span
    /// under `parent`: planning, the per-channel time-tag Monte Carlo and
    /// the F2 pair run.
    fn generate(
        &self,
        seed: u64,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<Generated, String> {
        let (config, schedule) = (&self.config, &self.schedule);
        let plan = tracer
            .time("core.plan", parent, || {
                plan_heralded_experiment(&self.source, config, seed, schedule)
            })
            .map_err(fail("heralded plan"))?;
        let indexed: Vec<(usize, u32)> = plan.survivors.iter().copied().enumerate().collect();
        let (signal, idler) = tracer.time("timetag.mc", parent, || {
            qfc_runtime::par_map(&indexed, |&(idx, m)| {
                heralded_channel_task(config, schedule, &plan, idx, m)
            })
            .into_iter()
            .unzip()
        });
        let (a, b) = tracer.time("timetag.linewidth", parent, || {
            qfc_runtime::par_shots(
                config.linewidth_pairs as u64,
                plan.linewidth_root,
                |shard| heralded_linewidth_shard(config, plan.tau, shard),
                merge_linewidth_shards(config),
            )
        });
        Ok(Generated {
            plan,
            signal,
            idler,
            a,
            b,
        })
    }
}

/// What the §II stages before assembly produce.
struct Generated {
    plan: HeraldedPlan,
    signal: Vec<TagStream>,
    idler: Vec<TagStream>,
    /// The F2 pair run's signal and idler tags.
    a: Vec<i64>,
    b: Vec<i64>,
}

/// Invariants of a clean §II run that hold on every seed.
fn check_heralded(config: &HeraldedConfig, run: &HeraldedRun) -> Check {
    let n = config.channels as usize;
    let report = &run.report;
    ensure(run.health.is_pristine(), || {
        format!("clean run reported health {:?}", run.health)
    })?;
    ensure(report.channels.len() == n, || {
        format!("{} channel results, expected {n}", report.channels.len())
    })?;
    ensure(
        report.coincidence_matrix.len() == n
            && report.coincidence_matrix.iter().all(|r| r.len() == n),
        || "coincidence matrix is not n × n".to_owned(),
    )?;
    for (k, c) in report.channels.iter().enumerate() {
        // The matrix diagonal and the zero-delay CAR window count the
        // same pairs of the same streams.
        let diagonal = report.coincidence_matrix[k][k] as f64;
        ensure(
            (c.coincidence_rate_hz * config.duration_s - diagonal).abs() < 0.5,
            || {
                format!(
                    "channel {}: {} coincidences vs diagonal {diagonal}",
                    c.m,
                    c.coincidence_rate_hz * config.duration_s
                )
            },
        )?;
        ensure(
            c.car.is_finite()
                && c.car >= 0.0
                && c.signal_singles_hz > 0.0
                && c.idler_singles_hz > 0.0,
            || format!("channel {}: implausible figures {c:?}", c.m),
        )?;
    }
    let lw = report.linewidth.linewidth_hz;
    ensure(lw.is_finite() && lw > 0.0, || format!("linewidth {lw} Hz"))
}

impl Bench for Heralded {
    fn slowness_exponent(&self) -> f64 {
        0.5
    }

    fn run(&self, seed: u64) -> Result<RunOutput, String> {
        let t0 = Instant::now();
        let run = try_run_heralded_experiment(&self.source, &self.config, seed, &self.schedule)
            .map_err(fail("heralded run"))?;
        let report = run.to_report();
        let report_json = serde_json::to_string(&report).map_err(fail("report serialization"))?;
        let ms = ms(t0);
        check_heralded(&self.config, &run)?;
        Ok(RunOutput {
            ms,
            resume_ms: None,
            bytes: run_bytes(&run, &report_json)?,
            rows: Some(rows(&report)),
            fidelity_abs_err: None,
        })
    }

    fn traced(&self, seed: u64, tracer: &Tracer, counts: &mut Counts) -> Result<String, String> {
        let config = &self.config;
        let root = tracer.open("run", None);
        let r = Some(root.id());
        let Generated {
            plan,
            signal,
            idler,
            a,
            b,
        } = self.generate(seed, tracer, r)?;
        let tags: usize = signal.iter().chain(&idler).map(TagStream::len).sum();
        counts.insert("timetag.mc.tags", tags as f64);
        counts.insert("timetag.linewidth.pairs", a.len() as f64);
        let run = tracer
            .time("coincidence.assemble", r, || {
                assemble_heralded_run(config, plan, signal, idler, a, b)
            })
            .map_err(fail("heralded assembly"))?;
        let report_json = tracer
            .time("core.report", r, || serde_json::to_string(&run.to_report()))
            .map_err(fail("report serialization"))?;
        drop(root);
        counts.insert("core.report.bytes", report_json.len() as f64);
        check_heralded(config, &run)?;
        run_bytes(&run, &report_json)
    }

    /// Re-times the three parts of `assemble_heralded_run` on the same
    /// streams: the n² matrix cells, CAR per channel, and the F2
    /// histogram with its linewidth fit.
    fn attribution(&self, seed: u64, tracer: &Tracer, counts: &mut Counts) -> Check {
        // Regenerate the streams untimed: assembly consumed the traced
        // run's copies.
        let Generated {
            signal,
            idler,
            a,
            b,
            ..
        } = self.generate(seed, &Tracer::new(), None)?;
        let window = self.config.coincidence_window_ps;
        let n = signal.len();
        let root = tracer.open("attribution", None);
        let r = Some(root.id());
        let cells: Vec<usize> = (0..n * n).collect();
        tracer.time("coincidence.matrix", r, || {
            qfc_runtime::par_map(&cells, |&cell| {
                count_coincidences(&signal[cell / n], &idler[cell % n], window, 0)
            })
        });
        let channels: Vec<usize> = (0..n).collect();
        tracer.time("coincidence.car", r, || {
            let step = (3 * window).max(20_000);
            qfc_runtime::par_map(&channels, |&k| {
                measure_car(&signal[k], &idler[k], window, step, 10)
            })
        });
        let pairs = a.len();
        tracer
            .time("coincidence.histogram", r, || {
                let hist = cross_correlation_histogram(
                    &TagStream::from_unsorted(a),
                    &TagStream::from_unsorted(b),
                    self.config.histogram_range_ps,
                    self.config.histogram_bin_ps,
                );
                try_extract_linewidth(&hist)
            })
            .map_err(fail("linewidth fit"))?;
        drop(root);
        counts.insert("coincidence.matrix.cells", (n * n) as f64);
        counts.insert("coincidence.car.channels", n as f64);
        counts.insert("coincidence.histogram.pairs", pairs as f64);
        Ok(())
    }
}

// ----------------------------------------------------------------- §V

/// §V multi-photon states at `MultiPhotonConfig::paper()`.
pub struct MultiPhoton {
    source: QfcSource,
    config: MultiPhotonConfig,
    schedule: FaultSchedule,
    /// Fidelity of the simulated four-photon state itself: what the T4
    /// reconstruction estimates.
    true_fidelity: f64,
}

fn fallbacks(health: &HealthReport) -> usize {
    health
        .recovery_actions
        .iter()
        .filter(|a| matches!(a, RecoveryAction::Fallback { .. }))
        .count()
}

impl MultiPhoton {
    pub fn new() -> Result<Self, String> {
        let source = QfcSource::paper_device_timebin();
        let config = MultiPhotonConfig::paper();
        let schedule = FaultSchedule::empty();
        // With no faults the plan, and so the state, is the same on
        // every seed.
        let plan = plan_multiphoton_experiment(&source, &config, 0, &schedule)
            .map_err(fail("multiphoton plan"))?;
        let rho4 = try_four_photon_state(&source, &config, &plan.tb4, plan.pump4)
            .map_err(fail("four-photon state"))?;
        let true_fidelity =
            fidelity_with_pure(&rho4, &four_photon_product(config.timebin.pump_phase));
        Ok(Self {
            source,
            config,
            schedule,
            true_fidelity,
        })
    }

    fn check(&self, run: &MultiPhotonRun) -> Result<f64, String> {
        let c = &self.config;
        let r = &run.report;
        let unit = |x: f64| (-1e-9..=1.0 + 1e-9).contains(&x);
        ensure(r.bell.len() == c.timebin.channels as usize, || {
            format!("{} Bell results", r.bell.len())
        })?;
        for b in &r.bell {
            ensure(
                unit(b.fidelity) && unit(b.concurrence) && b.iterations > 0,
                || format!("Bell channel {}: {b:?}", b.m),
            )?;
        }
        ensure(
            r.fringe.points.len() == c.four_fold_phase_steps && unit(r.fringe.visibility),
            || {
                format!(
                    "fringe with {} points, V = {}",
                    r.fringe.points.len(),
                    r.fringe.visibility
                )
            },
        )?;
        let expected = c.four_shots_per_setting * all_settings(4).len() as u64;
        ensure(r.tomography.total_counts == expected, || {
            format!(
                "T4 counted {} four-folds, expected {expected}",
                r.tomography.total_counts
            )
        })?;
        let err = (r.tomography.fidelity - self.true_fidelity).abs();
        ensure(err < MAX_FIDELITY_ERR, || {
            format!(
                "T4 fidelity {} vs simulated state {}",
                r.tomography.fidelity, self.true_fidelity
            )
        })?;
        Ok(err)
    }
}

impl Bench for MultiPhoton {
    /// The T4 MLE, over 90 % of a run, is dense complex arithmetic like
    /// the calibration kernel itself: the reference for the others.
    fn slowness_exponent(&self) -> f64 {
        1.0
    }

    fn run(&self, seed: u64) -> Result<RunOutput, String> {
        let t0 = Instant::now();
        let run = try_run_multiphoton_experiment(&self.source, &self.config, seed, &self.schedule)
            .map_err(fail("multiphoton run"))?;
        let report = run.to_report();
        let report_json = serde_json::to_string(&report).map_err(fail("report serialization"))?;
        let ms = ms(t0);
        let err = self.check(&run)?;
        Ok(RunOutput {
            ms,
            resume_ms: None,
            bytes: run_bytes(&run, &report_json)?,
            rows: Some(rows(&report)),
            fidelity_abs_err: Some(err),
        })
    }

    fn traced(&self, seed: u64, tracer: &Tracer, counts: &mut Counts) -> Result<String, String> {
        let (source, config, schedule) = (&self.source, &self.config, &self.schedule);
        let root = tracer.open("run", None);
        let r = Some(root.id());
        let plan = tracer
            .time("core.plan", r, || {
                plan_multiphoton_experiment(source, config, seed, schedule)
            })
            .map_err(fail("multiphoton plan"))?;
        let MultiPhotonPlan {
            duration_s,
            amp,
            survivors,
            tb4,
            pump4,
            mut health,
        } = plan;
        let bell = tracer
            .time("tomography.bell", r, || {
                let per_channel = qfc_runtime::par_map(&survivors, |&m| {
                    bell_channel_task(source, config, seed, schedule, duration_s, amp, m)
                });
                let mut bell = Vec::with_capacity(per_channel.len());
                for entry in per_channel {
                    let (result, local) = entry?;
                    health.absorb(local);
                    bell.push(result);
                }
                Ok::<_, qfc_faults::QfcError>(bell)
            })
            .map_err(fail("Bell tomography"))?;
        let fringe = tracer
            .time("core.fringe", r, || {
                try_four_photon_fringe(source, config, seed.wrapping_add(1), &tb4, pump4)
            })
            .map_err(fail("four-photon fringe"))?;
        let data = tracer
            .time("tomography.counts", r, || {
                let rho4 = try_four_photon_state(source, config, &tb4, pump4)?;
                try_stream_counts_seeded(
                    &rho4,
                    &all_settings(4),
                    config.four_shots_per_setting,
                    seed.wrapping_add(2),
                )
            })
            .map_err(fail("four-photon counts"))?;
        let fallbacks_before = fallbacks(&health);
        let tomography = tracer
            .time("tomography.mle", r, || {
                four_photon_tomography_from_data(config, &data, &mut health)
            })
            .map_err(fail("four-photon tomography"))?;
        let kept = fallbacks(&health) == fallbacks_before;
        let run = MultiPhotonRun {
            report: MultiPhotonReport {
                bell,
                fringe,
                tomography,
            },
            health,
        };
        let report_json = tracer
            .time("core.report", r, || serde_json::to_string(&run.to_report()))
            .map_err(fail("report serialization"))?;
        drop(root);
        let bell_iterations: usize = run.report.bell.iter().map(|b| b.iterations).sum();
        counts.insert("tomography.bell.iterations", bell_iterations as f64);
        counts.insert("tomography.counts.events", data.grand_total() as f64);
        let nonzero = data.counts.iter().flatten().filter(|&&c| c > 0).count();
        counts.insert("tomography.counts.cells_nonzero", nonzero as f64);
        counts.insert(
            "tomography.mle.iterations",
            run.report.tomography.iterations as f64,
        );
        counts.insert("tomography.mle.useful_frac", if kept { 1.0 } else { 0.0 });
        counts.insert("core.report.bytes", report_json.len() as f64);
        self.check(&run)?;
        run_bytes(&run, &report_json)
    }
}

// ----------------------------------------------------- §II as campaign

/// The §II paper config as a checkpointed campaign at 2 s integration:
/// a cold campaign into an empty directory, then a resume of it.
pub struct CampaignHeralded {
    source: QfcSource,
    config: HeraldedConfig,
    schedule: FaultSchedule,
    work_dir: PathBuf,
    next_dir: AtomicU64,
}

/// A [`CampaignWorkload`] that delegates to [`HeraldedCampaign`] and
/// records a span around each call the engine makes.
struct TimedCampaign<'a> {
    inner: HeraldedCampaign<'a>,
    tracer: &'a Tracer,
    /// Span id of the `run_campaign` call in progress.
    parent: AtomicU64,
    payload_bytes: AtomicU64,
}

impl TimedCampaign<'_> {
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer
            .time(name, Some(self.parent.load(Ordering::SeqCst)), f)
    }
}

impl CampaignWorkload for TimedCampaign<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn config_json(&self) -> QfcResult<String> {
        self.inner.config_json()
    }

    fn plan(&self) -> QfcResult<Vec<ShardSpec>> {
        self.time("campaign.plan", || self.inner.plan())
    }

    fn run_shard(&self, spec: &ShardSpec) -> QfcResult<String> {
        let payload = self.time("campaign.shard", || self.inner.run_shard(spec))?;
        self.payload_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }

    fn merge(&self, payloads: &[String]) -> QfcResult<String> {
        self.time("campaign.merge", || self.inner.merge(payloads))
    }

    fn reference_json(&self) -> QfcResult<String> {
        self.inner.reference_json()
    }
}

/// Removes a campaign's checkpoint directory when dropped, on every path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn check_cold(cold: &CampaignOutcome) -> Check {
    let s = &cold.stats;
    ensure(
        s.shards_total > 0
            && s.shards_completed == s.shards_total
            && s.shards_resumed == 0
            && s.retries == 0,
        || format!("cold campaign stats {s:?}"),
    )
}

fn check_resume(cold: &CampaignOutcome, resume: &CampaignOutcome) -> Check {
    let s = &resume.stats;
    ensure(
        s.shards_resumed == cold.stats.shards_total
            && s.shards_completed == 0
            && s.checkpoints_rejected == 0,
        || format!("resume stats {s:?}"),
    )?;
    ensure(resume.report_json == cold.report_json, || {
        "resumed report differs from the cold run".to_owned()
    })
}

/// Shard checkpoint files of a campaign: (index, bytes on disk).
fn shard_files(dir: &Path, shards: usize) -> Result<Vec<(u32, u64)>, String> {
    (0..shards as u32)
        .map(|k| {
            let meta = fs::metadata(shard_path(dir, k)).map_err(fail("checkpoint file"))?;
            Ok((k, meta.len()))
        })
        .collect()
}

impl CampaignHeralded {
    pub fn new(work_dir: PathBuf) -> Self {
        Self {
            source: QfcSource::paper_device(),
            config: HeraldedConfig {
                duration_s: CAMPAIGN_DURATION_S,
                ..HeraldedConfig::paper()
            },
            schedule: FaultSchedule::empty(),
            work_dir,
            next_dir: AtomicU64::new(0),
        }
    }

    fn workload(&self, seed: u64) -> HeraldedCampaign<'_> {
        HeraldedCampaign {
            source: &self.source,
            config: &self.config,
            seed,
            schedule: &self.schedule,
        }
    }

    fn fresh_dir(&self) -> Scratch {
        let k = self.next_dir.fetch_add(1, Ordering::Relaxed);
        Scratch(self.work_dir.join(format!("campaign-{k}")))
    }
}

impl Drop for CampaignHeralded {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work_dir);
        // The shared parent goes too once no other process uses it.
        if let Some(parent) = self.work_dir.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

impl Bench for CampaignHeralded {
    fn slowness_exponent(&self) -> f64 {
        0.75
    }

    fn run(&self, seed: u64) -> Result<RunOutput, String> {
        let dir = self.fresh_dir();
        let opts = CampaignOptions::new(&dir.0);
        let workload = self.workload(seed);
        let t0 = Instant::now();
        let cold = run_campaign(&workload, &opts).map_err(fail("cold campaign"))?;
        let cold_ms = ms(t0);
        let t1 = Instant::now();
        let resume = run_campaign(&workload, &opts).map_err(fail("resumed campaign"))?;
        let resume_ms = ms(t1);
        check_cold(&cold)?;
        check_resume(&cold, &resume)?;
        Ok(RunOutput {
            ms: cold_ms,
            resume_ms: Some(resume_ms),
            bytes: cold.report_json,
            rows: None,
            fidelity_abs_err: None,
        })
    }

    fn traced(&self, seed: u64, tracer: &Tracer, counts: &mut Counts) -> Result<String, String> {
        let dir = self.fresh_dir();
        let opts = CampaignOptions::new(&dir.0);
        let timed = TimedCampaign {
            inner: self.workload(seed),
            tracer,
            parent: AtomicU64::new(0),
            payload_bytes: AtomicU64::new(0),
        };
        let root = tracer.open("run", None);
        let cold = {
            // The cold run's self time is checkpoint writing; the
            // resume's is checkpoint reading.
            let span = tracer.open("campaign.checkpoint_write", Some(root.id()));
            timed.parent.store(span.id(), Ordering::SeqCst);
            run_campaign(&timed, &opts).map_err(fail("cold campaign"))?
        };
        let resume = {
            let span = tracer.open("campaign.checkpoint_read", Some(root.id()));
            timed.parent.store(span.id(), Ordering::SeqCst);
            run_campaign(&timed, &opts).map_err(fail("resumed campaign"))?
        };
        drop(root);
        check_cold(&cold)?;
        check_resume(&cold, &resume)?;

        // Load the largest and the smallest checkpoint directly, so the
        // parse cost per MB can be compared across file sizes.
        let ckpt_dir = dir.0.join(&cold.manifest.campaign_id);
        let files = shard_files(&ckpt_dir, cold.stats.shards_total)?;
        let total: u64 = files.iter().map(|f| f.1).sum();
        let largest = files.iter().max_by_key(|f| (f.1, f.0)).copied();
        let smallest = files.iter().min_by_key(|f| (f.1, f.0)).copied();
        for (file, key) in [
            (largest, "campaign.checkpoint_read.ms_per_mb_largest"),
            (smallest, "campaign.checkpoint_read.ms_per_mb_smallest"),
        ] {
            let (index, bytes) = file.ok_or("campaign wrote no checkpoints")?;
            let t0 = Instant::now();
            let outcome = load_checkpoint(&ckpt_dir, &cold.manifest.campaign_id, index);
            let load_ms = ms(t0);
            ensure(matches!(outcome, LoadOutcome::Valid(_)), || {
                format!("checkpoint {index}: {outcome:?}")
            })?;
            counts.insert(key, load_ms / (bytes as f64 / 1e6));
        }
        counts.insert(
            "campaign.shard.payload_mb",
            timed.payload_bytes.load(Ordering::Relaxed) as f64 / 1e6,
        );
        counts.insert("campaign.checkpoint_write.mb", total as f64 / 1e6);
        counts.insert("campaign.checkpoint_read.mb", total as f64 / 1e6);
        counts.insert(
            "campaign.checkpoint_read.resumed",
            resume.stats.shards_resumed as f64,
        );
        counts.insert(
            "campaign.checkpoint_read.rejected",
            resume.stats.checkpoints_rejected as f64,
        );
        Ok(cold.report_json)
    }

    /// One cold campaign. No resume: it has nothing to warm, and its time
    /// swings with more than the host's CPU speed, which no calibration
    /// here tracks.
    fn warm_up(&self, seed: u64) -> Result<String, String> {
        let dir = self.fresh_dir();
        let cold = run_campaign(&self.workload(seed), &CampaignOptions::new(&dir.0))
            .map_err(fail("cold campaign"))?;
        check_cold(&cold)?;
        Ok(cold.report_json)
    }

    /// `CampaignOptions::prove`: the merged report must equal the
    /// in-process driver's, byte for byte.
    fn setup_check(&self, seed: u64) -> Check {
        let dir = self.fresh_dir();
        let mut opts = CampaignOptions::new(&dir.0);
        opts.prove = true;
        let outcome =
            run_campaign(&self.workload(seed), &opts).map_err(fail("proving campaign"))?;
        ensure(outcome.proof == Some(true), || {
            format!("campaign proof {:?}", outcome.proof)
        })
    }
}
