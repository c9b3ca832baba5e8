//! §II — Generation of pure single-mode heralded photons.
//!
//! Reproduces, as a Monte-Carlo virtual experiment on time-tagged clicks:
//!
//! * **F1** — the signal/idler coincidence matrix: peaks on all symmetric
//!   channel pairs, nothing off-diagonal;
//! * **T1** — per-channel CAR (paper: 12.8–32.4) and inferred pair rates
//!   (paper: 14–29 Hz) at 15 mW;
//! * **F2** — the time-resolved coincidence decay and the extracted
//!   Δν = 110 MHz linewidth;
//! * **F3** — the weeks-long stability of the self-locked scheme
//!   (< 5 % fluctuation) against free-running operation.

use qfc_mathkit::cast;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qfc_faults::{FaultSchedule, HealthReport, QfcError, QfcResult};
use qfc_mathkit::rng::{bernoulli, poisson, rng_from_seed, split_seed, standard_exponential};
use qfc_mathkit::stats::relative_fluctuation;
use qfc_photonics::pump::{residual_detuning, DriftModel};
use qfc_timetag::coincidence::{
    count_coincidences, cross_correlation_histogram, measure_car, try_extract_linewidth,
    LinewidthResult,
};
use qfc_timetag::detector::{pair_arrivals, SinglePhotonDetector};
use qfc_timetag::events::{try_duration_ps, try_tags_per_arm, TagStream};

use crate::experiment::{run_in_process, Experiment, ShardSpec};
use crate::report::{Comparison, Expectation, ExperimentReport};
use crate::source::QfcSource;
use crate::supervisor::{self, SupervisorPolicy};

/// Configuration of the §II heralded-photon run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeraldedConfig {
    /// Number of symmetric channel pairs measured (paper: 5).
    pub channels: u32,
    /// Integration time, s.
    pub duration_s: f64,
    /// Coincidence window, ps; non-negative.
    pub coincidence_window_ps: i64,
    /// Detector model per arm.
    pub detector: SinglePhotonDetector,
    /// Passive collection efficiency per arm (filters, fibers).
    pub collection_efficiency: f64,
    /// Detected pairs to accumulate for the time-resolved (F2) histogram.
    pub linewidth_pairs: usize,
    /// F2 histogram half-range, ps; positive.
    pub histogram_range_ps: i64,
    /// F2 histogram bin, ps; positive, and at most 2^20 bins span
    /// `±histogram_range_ps`.
    pub histogram_bin_ps: i64,
}

impl HeraldedConfig {
    /// The paper's configuration: 5 channels, InGaAs-class detectors with
    /// the dark-count level that reproduces the published CAR window.
    pub fn paper() -> Self {
        Self {
            channels: 5,
            duration_s: 300.0,
            // The photons are 110-MHz narrowband (τ ≈ 1.45 ns): the
            // window must span the full correlation envelope.
            coincidence_window_ps: 8000,
            detector: SinglePhotonDetector {
                efficiency: 0.15,
                dark_count_rate_hz: 1200.0,
                jitter_sigma_ps: 100.0,
                dead_time_ps: 10_000_000,
            },
            collection_efficiency: 0.7,
            linewidth_pairs: 40_000,
            histogram_range_ps: 15_000,
            histogram_bin_ps: 250,
        }
    }

    /// A fast, high-efficiency configuration for demos and tests
    /// (SNSPD-class detectors, short run).
    pub fn fast_demo() -> Self {
        Self {
            channels: 3,
            duration_s: 5.0,
            coincidence_window_ps: 8000,
            detector: SinglePhotonDetector {
                efficiency: 0.8,
                dark_count_rate_hz: 2000.0,
                jitter_sigma_ps: 50.0,
                dead_time_ps: 50_000,
            },
            collection_efficiency: 0.7,
            linewidth_pairs: 8_000,
            histogram_range_ps: 15_000,
            histogram_bin_ps: 250,
        }
    }
}

/// Per-channel results of the coincidence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelResult {
    /// Channel-pair index `m`.
    pub m: u32,
    /// Signal-arm singles rate, Hz.
    pub signal_singles_hz: f64,
    /// Idler-arm singles rate, Hz.
    pub idler_singles_hz: f64,
    /// Detected coincidence rate, Hz.
    pub coincidence_rate_hz: f64,
    /// Inferred pair generation rate `S_s·S_i/C` (dark-corrected), Hz.
    pub inferred_pair_rate_hz: f64,
    /// Coincidence-to-accidental ratio (lower-bounded by the coincidence
    /// count when no accidentals were recorded).
    pub car: f64,
}

/// Full report of the §II run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeraldedReport {
    /// Per-channel figures.
    pub channels: Vec<ChannelResult>,
    /// F1 coincidence matrix: `matrix[i][j]` = zero-delay coincidences
    /// between signal of channel `i+1` and idler of channel `j+1`.
    pub coincidence_matrix: Vec<Vec<u64>>,
    /// F2 linewidth extraction.
    pub linewidth: LinewidthResult,
    /// Integration time used, s.
    pub duration_s: f64,
}

impl HeraldedReport {
    /// Mean CAR across channels.
    pub fn mean_car(&self) -> f64 {
        self.channels.iter().map(|c| c.car).sum::<f64>() / cast::to_f64(self.channels.len().max(1))
    }

    /// (min, max) CAR across channels.
    pub fn car_range(&self) -> (f64, f64) {
        let min = self.channels.iter().map(|c| c.car).fold(f64::INFINITY, f64::min);
        let max = self
            .channels
            .iter()
            .map(|c| c.car)
            .fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// (min, max) inferred pair rate across channels, Hz.
    pub fn rate_range(&self) -> (f64, f64) {
        let min = self
            .channels
            .iter()
            .map(|c| c.inferred_pair_rate_hz)
            .fold(f64::INFINITY, f64::min);
        let max = self
            .channels
            .iter()
            .map(|c| c.inferred_pair_rate_hz)
            .fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// Contrast of the F1 matrix: smallest diagonal count divided by the
    /// largest off-diagonal count (`∞` when the off-diagonal is empty).
    pub fn matrix_contrast(&self) -> f64 {
        let n = self.coincidence_matrix.len();
        let mut min_diag = u64::MAX;
        let mut max_off = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    min_diag = min_diag.min(self.coincidence_matrix[i][j]);
                } else {
                    max_off = max_off.max(self.coincidence_matrix[i][j]);
                }
            }
        }
        if max_off == 0 {
            f64::INFINITY
        } else {
            cast::to_f64(min_diag) / cast::to_f64(max_off)
        }
    }

    /// Paper-vs-measured comparison rows for this experiment.
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§II heralded single photons (F1/T1/F2)");
        let (car_lo, car_hi) = self.car_range();
        r.push(Comparison::new(
            "T1",
            "min channel CAR (paper window 12.8..32.4)",
            12.8,
            car_lo,
            "",
            Expectation::InRange { lo: 5.0, hi: 40.0 },
        ));
        r.push(Comparison::new(
            "T1",
            "max channel CAR (paper window 12.8..32.4)",
            32.4,
            car_hi,
            "",
            Expectation::InRange { lo: 5.0, hi: 60.0 },
        ));
        let (rate_lo, rate_hi) = self.rate_range();
        r.push(Comparison::new(
            "T1",
            "min pair generation rate (paper 14 Hz)",
            14.0,
            rate_lo,
            "Hz",
            Expectation::InRange { lo: 7.0, hi: 30.0 },
        ));
        r.push(Comparison::new(
            "T1",
            "max pair generation rate (paper 29 Hz)",
            29.0,
            rate_hi,
            "Hz",
            Expectation::InRange { lo: 14.0, hi: 60.0 },
        ));
        r.push(Comparison::new(
            "F1",
            "diagonal/off-diagonal matrix contrast",
            5.0,
            self.matrix_contrast().min(1e6),
            "x",
            Expectation::AtLeast,
        ));
        r.push(Comparison::new(
            "F2",
            "signal/idler linewidth",
            110e6,
            self.linewidth.linewidth_hz,
            "Hz",
            Expectation::Within { rel_tol: 0.15 },
        ));
        r
    }
}

/// A completed §II run: the physics report plus its health record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeraldedRun {
    /// The physics results.
    pub report: HeraldedReport,
    /// Faults injected and recovery actions taken.
    pub health: HealthReport,
}

impl HeraldedRun {
    /// Comparison rows with the health section attached.
    pub fn to_report(&self) -> ExperimentReport {
        self.report.to_report().with_health(self.health.clone())
    }
}

/// Runs the §II virtual experiment: one task per surviving channel plus
/// the fixed `SHOT_SHARDS` shot-range shards of the F2 linewidth run.
///
/// Pump faults thin the pair rate, detector dropouts remove photons
/// inside their windows, dark bursts raise the dark rate, TDC saturation
/// caps the click rate, and the supervisor re-locks the pump and
/// quarantines channels whose detectors are dead for most of the run.
/// An empty schedule leaves every physics RNG stream untouched.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a bad configuration,
/// [`QfcError::RegimeMismatch`] when the source is not CW-pumped,
/// [`QfcError::ChannelsExhausted`] when every channel is quarantined,
/// and [`QfcError::LockReacquisitionFailed`] when the pump cannot be
/// re-locked.
pub fn try_run_heralded_experiment(
    source: &QfcSource,
    config: &HeraldedConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<HeraldedRun> {
    run_in_process(config, source, seed, schedule)
}

/// One task's output of the §II run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum HeraldedOutput {
    /// One channel's detected (signal, idler) streams.
    Channel(TagStream, TagStream),
    /// One F2 linewidth shard's (signal, idler) tag lists, ps.
    Linewidth(Vec<i64>, Vec<i64>),
}

/// §II as plan → tasks → assemble. Each channel's streams depend only on
/// `(plan.channel_root, m)` and pure schedule queries. The F2 linewidth
/// run is a dedicated high-statistics coincident-pair run (loss thins a
/// histogram uniformly, so shape is measured on detected pairs directly)
/// with a 5 % accidental floor; every pair's start time is uniform over
/// the full span, so its shards are independent and concatenating their
/// tag lists in shard order reproduces one serial stream exactly.
impl Experiment for HeraldedConfig {
    const LABEL: &'static str = "heralded";
    type Plan = HeraldedPlan;
    type Output = HeraldedOutput;
    type Run = HeraldedRun;

    fn plan(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> QfcResult<(HeraldedPlan, Vec<ShardSpec>)> {
        let plan = plan_heralded_experiment(source, self, seed, schedule)?;
        let n_channels = plan.survivors.len();
        let mut tasks: Vec<ShardSpec> = plan
            .survivors
            .iter()
            .enumerate()
            .map(|(i, m)| {
                ShardSpec::unit(
                    i,
                    format!("channel-{m}"),
                    split_seed(plan.channel_root, u64::from(*m)),
                )
            })
            .collect();
        let pairs = cast::usize_to_u64(self.linewidth_pairs);
        let layout = qfc_runtime::shard_layout(pairs, plan.linewidth_root);
        tasks.extend(layout.into_iter().map(|sh| ShardSpec {
            index: cast::usize_to_u32(n_channels + sh.index),
            label: format!("linewidth-{}", sh.index),
            start: sh.start,
            len: sh.len,
            seed: sh.seed,
        }));
        Ok((plan, tasks))
    }

    fn task(
        &self,
        _source: &QfcSource,
        _seed: u64,
        schedule: &FaultSchedule,
        plan: &HeraldedPlan,
        spec: &ShardSpec,
    ) -> QfcResult<HeraldedOutput> {
        let slot = spec.slot();
        if let Some(&m) = plan.survivors.get(slot) {
            let (s, i) = heralded_channel_task(self, schedule, plan, slot, m);
            return Ok(HeraldedOutput::Channel(s, i));
        }
        let shard = qfc_runtime::Shard {
            index: slot - plan.survivors.len(),
            start: spec.start,
            len: spec.len,
            seed: spec.seed,
        };
        qfc_obs::counter_add("shots_simulated", shard.len);
        qfc_obs::counter_add("shards_executed", 1);
        let (a, b) = heralded_linewidth_shard(self, plan.tau, &shard);
        Ok(HeraldedOutput::Linewidth(a, b))
    }

    fn assemble(
        &self,
        plan: HeraldedPlan,
        outputs: impl Iterator<Item = QfcResult<HeraldedOutput>>,
    ) -> QfcResult<HeraldedRun> {
        let n_channels = plan.survivors.len();
        let mut signal_streams = Vec::with_capacity(n_channels);
        let mut idler_streams = Vec::with_capacity(n_channels);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for output in outputs {
            match output? {
                HeraldedOutput::Channel(s, i) => {
                    signal_streams.push(s);
                    idler_streams.push(i);
                }
                HeraldedOutput::Linewidth(sa, sb) => {
                    // Fold each shard into the F2 lists as it arrives, so a
                    // campaign holds one decoded shard at a time. The lists
                    // are reserved in full at the first shard, once the
                    // channel payloads are decoded, so that decoding does
                    // not stack on top of them.
                    a.reserve(self.linewidth_pairs.saturating_sub(a.len()));
                    b.reserve(self.linewidth_pairs.saturating_sub(b.len()));
                    a.extend_from_slice(&sa);
                    b.extend_from_slice(&sb);
                }
            }
        }
        if signal_streams.len() != n_channels {
            return Err(QfcError::persistence(format!(
                "heralded assembly got {} channel outputs for {n_channels} channels",
                signal_streams.len()
            )));
        }
        assemble_heralded_run(self, plan, signal_streams, idler_streams, a, b)
    }
}

/// The RNG-free planning stage of the §II run: validation, supervisor
/// outcomes, per-channel fault-derated pair rates, seed domains, and the
/// effective per-arm detector. Everything a task needs to generate one
/// channel's streams (or one F2 linewidth shard) independently — see the
/// [`Experiment`] impl on [`HeraldedConfig`].
#[derive(Debug, Clone)]
pub struct HeraldedPlan {
    /// Coincidence decay time of the ring, s.
    pub tau: f64,
    /// Surviving channel indices, in channel order.
    pub survivors: Vec<u32>,
    /// Fault-derated pair generation rate per survivor, Hz.
    pub rates: Vec<f64>,
    /// Seed domain of the per-channel streams (`split_seed(seed, 1)`).
    pub channel_root: u64,
    /// Seed domain of the F2 linewidth run (`split_seed(seed, 2)`).
    pub linewidth_root: u64,
    /// Effective per-arm detector (collection efficiency folded in).
    pub arm: SinglePhotonDetector,
    /// Supervisor health accumulated during planning.
    pub health: HealthReport,
}

/// Displaced windows of each §II CAR measurement.
const CAR_OFFSET_WINDOWS: usize = 10;

/// Most F2 histogram bins a configuration may ask for (the paper uses
/// 120); the histogram allocates one count vector of this length per
/// shard.
const MAX_HISTOGRAM_BINS: i64 = 1 << 20;

/// Spacing of the §II CAR's displaced windows: three coincidence
/// windows, and at least 20 ns. `None` when the farthest displaced
/// window's edge would overflow the picosecond range.
fn car_offset_step_ps(window_ps: i64) -> Option<i64> {
    let step = window_ps.checked_mul(3)?.max(20_000);
    step.checked_mul(cast::usize_to_i64(CAR_OFFSET_WINDOWS))?.checked_add(window_ps)?;
    Some(step)
}

/// Builds the [`HeraldedPlan`]: validation, supervisor planning, and the
/// per-channel operating points. RNG-free apart from the deterministic
/// supervisor `fault_stream` lanes.
///
/// # Errors
///
/// As [`try_run_heralded_experiment`].
pub fn plan_heralded_experiment(
    source: &QfcSource,
    config: &HeraldedConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<HeraldedPlan> {
    if config.channels < 1 {
        return Err(QfcError::invalid("need at least one channel"));
    }
    let duration_ps = try_duration_ps(config.duration_s)?;
    if !(0.0..=1.0).contains(&config.collection_efficiency) {
        return Err(QfcError::invalid(format!(
            "collection efficiency must be in [0, 1], got {}",
            config.collection_efficiency
        )));
    }
    if config.coincidence_window_ps < 0 {
        return Err(QfcError::invalid(format!(
            "coincidence window must be non-negative, got {} ps",
            config.coincidence_window_ps
        )));
    }
    if car_offset_step_ps(config.coincidence_window_ps).is_none() {
        return Err(QfcError::invalid(format!(
            "coincidence window of {} ps puts the CAR's displaced windows out of range",
            config.coincidence_window_ps
        )));
    }
    if config.histogram_range_ps <= 0 || config.histogram_bin_ps <= 0 {
        return Err(QfcError::invalid(format!(
            "histogram range and bin must be positive, got {} and {} ps",
            config.histogram_range_ps, config.histogram_bin_ps
        )));
    }
    let Some(span_ps) = config.histogram_range_ps.checked_mul(2) else {
        return Err(QfcError::invalid(format!(
            "histogram range of {} ps overflows its span",
            config.histogram_range_ps
        )));
    };
    if span_ps / config.histogram_bin_ps > MAX_HISTOGRAM_BINS {
        return Err(QfcError::invalid(format!(
            "histogram of ±{} ps at {} ps bins has more than {MAX_HISTOGRAM_BINS} bins",
            config.histogram_range_ps, config.histogram_bin_ps
        )));
    }
    config.detector.try_validate()?;
    let tau = source.ring().coincidence_decay_time();
    let linewidth_hz = source.ring().linewidth().hz();

    // Supervision: log the schedule, recover pump lock losses, and
    // quarantine channels with mostly-dead detectors.
    let mut health = HealthReport::pristine();
    let policy = SupervisorPolicy::default();
    supervisor::record_schedule_faults(schedule, config.duration_s, &mut health);
    let relocks =
        supervisor::plan_pump_relocks(schedule, config.duration_s, &policy, seed, &mut health)?;
    let live = supervisor::live_fraction(&relocks, config.duration_s);
    let survivors = supervisor::partition_channels(
        schedule,
        config.channels,
        config.duration_s,
        &policy,
        "heralded experiment",
        &mut health,
    )?;

    // Per-channel generation rates, with pump faults and lock-loss
    // outages folded in. Multiplication by the exact 1.0 an empty
    // schedule produces leaves the rate bit-identical.
    let rates: Vec<f64> = survivors
        .iter()
        .map(|&m| {
            source.try_pair_rate_cw(m).map(|r| {
                r * schedule.mean_pump_rate_factor(0.0, config.duration_s, linewidth_hz) * live
            })
        })
        .collect::<QfcResult<_>>()?;
    // The tasks draw Poisson counts from these means, with the schedule's
    // pump steps and dark bursts applied, and size their tag lists by them.
    for (&m, &rate) in survivors.iter().zip(&rates) {
        let dark_hz = config.detector.dark_count_rate_hz
            * schedule.mean_dark_multiplier(m, 0.0, config.duration_s);
        let darks = dark_hz * cast::to_f64(duration_ps) * 1e-12;
        try_tags_per_arm(&format!("channel {m} pairs"), rate * config.duration_s)?;
        try_tags_per_arm(&format!("channel {m} dark counts"), darks)?;
    }
    try_tags_per_arm("F2 linewidth pairs", cast::to_f64(config.linewidth_pairs))?;

    // Independent seed domains for the experiment's two stochastic
    // stages, so channel streams and the F2 pair run never alias.
    let channel_root = split_seed(seed, 1);
    let linewidth_root = split_seed(seed, 2);

    // Effective per-arm detector: fold passive collection into the
    // efficiency.
    let mut arm = config.detector;
    arm.efficiency *= config.collection_efficiency;

    Ok(HeraldedPlan {
        tau,
        survivors,
        rates,
        channel_root,
        linewidth_root,
        arm,
        health,
    })
}

/// Generates and detects one channel's signal/idler streams — the
/// per-channel task of the §II [`Experiment`]. The streams depend only on
/// the lane `split_seed(plan.channel_root, m)` and pure schedule queries,
/// so the bytes are identical in-process, on a pool worker, or in a
/// separate resumed process. `idx` is the channel's position among the
/// plan's survivors. The §II arms see no background.
pub fn heralded_channel_task(
    config: &HeraldedConfig,
    schedule: &FaultSchedule,
    plan: &HeraldedPlan,
    idx: usize,
    m: u32,
) -> (TagStream, TagStream) {
    let lane = split_seed(plan.channel_root, u64::from(m));
    let mut rng = rng_from_seed(split_seed(lane, 0));
    let arrivals = pair_arrivals(&mut rng, plan.rates[idx], plan.tau, config.duration_s, 0.0);
    supervisor::detect_arms(schedule, m, lane, plan.arm, 0.0, config.duration_s, arrivals)
}

/// Draws one [`qfc_runtime::Shard`] of the F2 linewidth pair run — the
/// shot-range task of the §II [`Experiment`] (the shard layout
/// is `qfc_runtime::shard_layout(linewidth_pairs, plan.linewidth_root)`,
/// i.e. the fixed `SHOT_SHARDS` decomposition). Returns the shard's
/// (signal, idler) tag lists; concatenating shard results in shard-index
/// order reproduces the single-process streams byte for byte.
pub fn heralded_linewidth_shard(
    config: &HeraldedConfig,
    tau: f64,
    shard: &qfc_runtime::Shard,
) -> LinewidthShard {
    let span_s = 10.0 * cast::to_f64(config.linewidth_pairs) * 1e-6; // sparse
    let mut rng = rng_from_seed(shard.seed);
    let mut a = Vec::with_capacity(cast::u64_to_usize(shard.len));
    let mut b = Vec::with_capacity(cast::u64_to_usize(shard.len));
    // qfc-lint: hot
    for _ in 0..shard.len {
        let t = rng.gen::<f64>() * span_s;
        let t_ps = cast::f64_to_i64(t * 1e12);
        if bernoulli(&mut rng, 0.05) {
            // Accidental: uncorrelated partner.
            a.push(t_ps);
            b.push(cast::f64_to_i64(rng.gen::<f64>() * span_s * 1e12));
        } else {
            let dt = standard_exponential(&mut rng) * tau;
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let jitter_a =
                qfc_mathkit::rng::normal(&mut rng, 0.0, config.detector.jitter_sigma_ps);
            let jitter_b =
                qfc_mathkit::rng::normal(&mut rng, 0.0, config.detector.jitter_sigma_ps);
            a.push(t_ps + cast::f64_to_i64(jitter_a));
            b.push(t_ps + cast::f64_to_i64(sign * dt * 1e12) + cast::f64_to_i64(jitter_b));
        }
    }
    (a, b)
}

/// One F2 linewidth shot shard: the (signal, idler) tag lists in ps.
pub type LinewidthShard = (Vec<i64>, Vec<i64>);

/// The shard-order merge of [`heralded_linewidth_shard`] results:
/// concatenates per-shard tag lists into the full (signal, idler) pair.
pub fn merge_linewidth_shards(
    config: &HeraldedConfig,
) -> impl FnOnce(Vec<LinewidthShard>) -> LinewidthShard + '_ {
    |shards| {
        let mut a = Vec::with_capacity(config.linewidth_pairs);
        let mut b = Vec::with_capacity(config.linewidth_pairs);
        for (sa, sb) in shards {
            a.extend_from_slice(&sa);
            b.extend_from_slice(&sb);
        }
        (a, b)
    }
}

/// The pure analysis stage of the §II run: folds the per-channel streams
/// and the merged F2 tag lists into the final [`HeraldedRun`]. Consumes
/// no RNG — given identical inputs it produces identical bytes, so both
/// executors of the §II [`Experiment`] share it.
///
/// # Errors
///
/// [`QfcError::InsufficientData`]/[`QfcError::FitDivergence`] when the
/// F2 histogram cannot yield a linewidth.
pub fn assemble_heralded_run(
    config: &HeraldedConfig,
    plan: HeraldedPlan,
    signal_streams: Vec<TagStream>,
    idler_streams: Vec<TagStream>,
    linewidth_a: Vec<i64>,
    linewidth_b: Vec<i64>,
) -> QfcResult<HeraldedRun> {
    // F1 coincidence matrix and T1 CAR: every signal×idler cell is one
    // pure merge sweep over already-fixed streams (surviving channels
    // only). A diagonal cell measures its channel's CAR, whose zero-delay
    // window is the cell's count.
    let n = plan.survivors.len();
    let window = config.coincidence_window_ps;
    let offset_step = car_offset_step_ps(window)
        .ok_or_else(|| QfcError::invalid("coincidence window out of range"))?;
    let cells: Vec<usize> = (0..n * n).collect();
    let swept = qfc_runtime::par_map(&cells, |&cell| {
        let (s, i) = (&signal_streams[cell / n], &idler_streams[cell % n]);
        if cell / n == cell % n {
            let car = measure_car(s, i, window, offset_step, CAR_OFFSET_WINDOWS);
            (car.coincidences, Some(car))
        } else {
            (count_coincidences(s, i, window, 0), None)
        }
    });
    let matrix: Vec<Vec<u64>> =
        swept.chunks(n).map(|row| row.iter().map(|&(count, _)| count).collect()).collect();

    // T1 per-channel figures. The diagonal cells are the only ones with a
    // CAR, met in channel order.
    let tau = plan.tau;
    let cars = swept.iter().filter_map(|&(_, car)| car);
    let channels: Vec<ChannelResult> = cars
        .zip(plan.survivors.iter().enumerate())
        .map(|(car_result, (idx, &m))| {
            let s = &signal_streams[idx];
            let i = &idler_streams[idx];
            let car = if car_result.car.is_finite() {
                car_result.car
            } else {
                cast::to_f64(car_result.coincidences)
            };
            let s_rate = s.rate_hz(config.duration_s);
            let i_rate = i.rate_hz(config.duration_s);
            let c_rate = cast::to_f64(car_result.coincidences) / config.duration_s;
            // Inferred generation rate via the calibrated arm efficiencies:
            // R = (C − A)/(η_s·η_i·capture), where `capture` is the fraction
            // of the two-sided-exponential correlation inside the window.
            // (The textbook S_s·S_i/C estimator needs signal-dominated
            // singles; with dark-dominated InGaAs singles it is unusable.)
            let eta = config.detector.efficiency * config.collection_efficiency;
            let capture = 1.0 - (-(cast::to_f64(window) * 0.5e-12) / tau).exp();
            let net_rate =
                (cast::to_f64(car_result.coincidences) - car_result.accidentals) / config.duration_s;
            let inferred = (net_rate / (eta * eta * capture)).max(0.0);
            ChannelResult {
                m,
                signal_singles_hz: s_rate,
                idler_singles_hz: i_rate,
                coincidence_rate_hz: c_rate,
                inferred_pair_rate_hz: inferred,
                car,
            }
        })
        .collect();

    let hist = cross_correlation_histogram(
        &TagStream::from_unsorted(linewidth_a),
        &TagStream::from_unsorted(linewidth_b),
        config.histogram_range_ps,
        config.histogram_bin_ps,
    );
    let linewidth = try_extract_linewidth(&hist)?;

    Ok(HeraldedRun {
        report: HeraldedReport {
            channels,
            coincidence_matrix: matrix,
            linewidth,
            duration_s: config.duration_s,
        },
        health: plan.health,
    })
}

/// Configuration of the F3 stability run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StabilityConfig {
    /// Length of the run, days (paper: several weeks → 21).
    pub days: u32,
    /// One rate sample is integrated over this many seconds.
    pub sample_integration_s: f64,
    /// Samples per day.
    pub samples_per_day: u32,
    /// Environmental drift model.
    pub drift: DriftModel,
}

impl StabilityConfig {
    /// Three weeks, one daily sample integrated for 12 h — the cadence
    /// of a long-term source characterization.
    pub fn paper() -> Self {
        Self {
            days: 21,
            sample_integration_s: 12.0 * 3600.0,
            samples_per_day: 1,
            drift: DriftModel::laboratory(),
        }
    }
}

/// Result of the F3 stability run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityReport {
    /// (time in days, measured coincidence rate in Hz) samples.
    pub series: Vec<(f64, f64)>,
    /// Peak-to-peak fluctuation relative to the mean.
    pub relative_fluctuation: f64,
    /// Whether the pump scheme was passively stable.
    pub self_locked: bool,
}

impl StabilityReport {
    /// Comparison rows (paper: < 5 % fluctuation for self-locked).
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§II long-term stability (F3)");
        if self.self_locked {
            r.push(Comparison::new(
                "F3",
                "self-locked relative fluctuation (weeks)",
                0.05,
                self.relative_fluctuation,
                "",
                Expectation::AtMost,
            ));
        } else {
            r.push(Comparison::new(
                "F3",
                "free-running relative fluctuation (weeks)",
                0.05,
                self.relative_fluctuation,
                "",
                Expectation::AtLeast,
            ));
        }
        r
    }
}

/// Runs the F3 stability experiment for the source's pump scheme.
///
/// The channel-1 coincidence rate is sampled over the configured
/// schedule. Slow environmental drift detunes the pump from the
/// resonance; the self-locked scheme tracks it passively, an unlocked
/// external laser does not, and the pair rate falls as the fourth power
/// of the pump field response (both pump photons must enter the cavity).
///
/// # Errors
///
/// [`QfcError::RegimeMismatch`] when the source's pump is not CW.
pub fn try_run_stability_experiment(
    source: &QfcSource,
    config: &StabilityConfig,
    seed: u64,
) -> QfcResult<StabilityReport> {
    let mut rng = rng_from_seed(seed);
    let base_rate = source.try_pair_rate_cw(1)?;
    // Detected coincidence rate at nominal detuning.
    let het = HeraldedConfig::paper();
    let eta = het.detector.efficiency * het.collection_efficiency;
    let detected = base_rate * eta * eta;
    let lw = source.ring().linewidth().hz();

    let mut series = Vec::new();
    let mut walk = 0.0f64;
    let total_samples = config.days * config.samples_per_day;
    for k in 0..total_samples {
        let t_days = cast::to_f64(k + 1) / cast::to_f64(config.samples_per_day);
        // Random-walk excursion in units of the per-√day sigma.
        walk += qfc_mathkit::rng::standard_normal(&mut rng)
            / (cast::to_f64(config.samples_per_day)).sqrt();
        let det = residual_detuning(source.pump(), &config.drift, walk / t_days.sqrt(), t_days);
        // Pump power response of the resonance (both pump photons).
        let response = qfc_mathkit::special::lorentzian(det.hz(), 0.0, lw);
        let rate = detected * response * response;
        // Shot noise of the sample.
        let counts = poisson(&mut rng, rate * config.sample_integration_s);
        series.push((t_days, cast::to_f64(counts) / config.sample_integration_s));
    }
    let rates: Vec<f64> = series.iter().map(|s| s.1).collect();
    Ok(StabilityReport {
        relative_fluctuation: relative_fluctuation(&rates),
        series,
        self_locked: source.pump().is_passively_stable(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_faults::{Arm, FaultEvent, FaultKind};
    use qfc_photonics::pump::PumpConfig;
    use qfc_photonics::units::Power;

    fn fast_source() -> QfcSource {
        QfcSource::paper_device()
    }

    fn run(cfg: &HeraldedConfig, seed: u64) -> HeraldedReport {
        try_run_heralded_experiment(&fast_source(), cfg, seed, &FaultSchedule::empty())
            .expect("clean run")
            .report
    }

    #[test]
    fn fast_demo_run_produces_coincidences() {
        let report = run(&HeraldedConfig::fast_demo(), 1);
        assert_eq!(report.channels.len(), 3);
        for c in &report.channels {
            assert!(c.coincidence_rate_hz > 0.5, "m={}: {c:?}", c.m);
            assert!(c.car > 3.0, "m={}: CAR {}", c.m, c.car);
        }
    }

    #[test]
    fn matrix_is_diagonal_dominated() {
        let report = run(&HeraldedConfig::fast_demo(), 2);
        assert!(report.matrix_contrast() > 3.0, "contrast {}", report.matrix_contrast());
    }

    #[test]
    fn linewidth_recovered_near_110mhz() {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.duration_s = 1.0;
        cfg.channels = 1;
        cfg.linewidth_pairs = 30_000;
        let report = run(&cfg, 3);
        let lw = report.linewidth.linewidth_hz;
        assert!((lw - 110e6).abs() / 110e6 < 0.15, "Δν = {} MHz", lw / 1e6);
    }

    #[test]
    fn inferred_rate_tracks_generated_rate() {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.duration_s = 30.0;
        cfg.channels = 1;
        cfg.detector.dark_count_rate_hz = 100.0;
        cfg.linewidth_pairs = 1000;
        let report = run(&cfg, 4);
        let generated = fast_source().try_pair_rate_cw(1).expect("CW pump");
        let inferred = report.channels[0].inferred_pair_rate_hz;
        assert!(
            (inferred - generated).abs() / generated < 0.3,
            "inferred {inferred} vs generated {generated}"
        );
    }

    #[test]
    fn stability_self_locked_beats_free_running() {
        let cfg = StabilityConfig::paper();
        let locked = try_run_stability_experiment(&fast_source(), &cfg, 5).expect("CW pump");
        assert!(locked.self_locked);
        let free = try_run_stability_experiment(
            &fast_source().with_pump(PumpConfig::ExternalCw {
                power: Power::from_mw(15.0),
                actively_stabilized: false,
            }),
            &cfg,
            5,
        )
        .expect("CW pump");
        assert!(!free.self_locked);
        assert!(
            locked.relative_fluctuation < free.relative_fluctuation,
            "locked {} vs free {}",
            locked.relative_fluctuation,
            free.relative_fluctuation
        );
        assert!(free.relative_fluctuation > 0.05);
    }

    #[test]
    fn report_rows_generated() {
        let report = run(&HeraldedConfig::fast_demo(), 6);
        let rows = report.to_report();
        assert_eq!(rows.comparisons.len(), 6);
        assert!(rows.render().contains("F2"));
    }

    #[test]
    fn zero_channels_rejected() {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.channels = 0;
        let err = try_run_heralded_experiment(&fast_source(), &cfg, 1, &FaultSchedule::empty())
            .expect_err("zero channels");
        assert!(err.to_string().contains("at least one channel"), "{err}");
    }

    #[test]
    fn stress_schedule_completes_and_records_health() {
        let cfg = HeraldedConfig::fast_demo();
        let schedule = qfc_faults::FaultSchedule::stress(3, cfg.duration_s);
        let run = try_run_heralded_experiment(&fast_source(), &cfg, 7, &schedule)
            .expect("run survives the stress schedule");
        assert!(!run.health.is_pristine());
        assert_eq!(run.health.faults_injected.len(), schedule.events().len());
        // The lock loss was recovered and cost integration time.
        assert!(run.health.outage_s > 0.0);
        for c in &run.report.channels {
            assert!(c.car.is_finite(), "m={}: CAR {}", c.m, c.car);
            assert!(c.inferred_pair_rate_hz.is_finite());
        }
        assert!(run.to_report().render().contains("health:"));
    }

    #[test]
    fn zero_duration_is_invalid_parameter() {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.duration_s = 0.0;
        let err = try_run_heralded_experiment(
            &fast_source(),
            &cfg,
            1,
            &FaultSchedule::empty(),
        )
        .expect_err("rejected");
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
    }

    /// Runs the fast demo with `edit` applied and asserts that the plan
    /// rejects it as an invalid parameter, with no panic on any thread.
    fn assert_rejected_at_plan(edit: impl Fn(&mut HeraldedConfig)) {
        let mut cfg = HeraldedConfig::fast_demo();
        edit(&mut cfg);
        let outcome = std::panic::catch_unwind(|| {
            try_run_heralded_experiment(&fast_source(), &cfg, 1, &FaultSchedule::empty())
        });
        let result = outcome.unwrap_or_else(|_| panic!("{cfg:?} panicked"));
        assert!(
            matches!(result, Err(QfcError::InvalidParameter { .. })),
            "{cfg:?}: {:?}",
            result.map(|run| run.report)
        );
    }

    #[test]
    fn negative_window_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.coincidence_window_ps = -2);
    }

    #[test]
    fn duration_outside_the_picosecond_clock_is_invalid_parameter() {
        for duration_s in [f64::INFINITY, f64::NAN, 1e300, 4.7e6, 1e-13] {
            assert_rejected_at_plan(|cfg| cfg.duration_s = duration_s);
        }
    }

    #[test]
    fn non_finite_detector_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.detector.dark_count_rate_hz = f64::INFINITY);
        assert_rejected_at_plan(|cfg| cfg.detector.jitter_sigma_ps = f64::INFINITY);
    }

    #[test]
    fn tags_past_the_per_arm_bound_are_invalid_parameter() {
        // Finite but huge dark rates: 1e290 Hz used to saturate the
        // Poisson draw and overflow a stream's capacity on a worker.
        for dark_hz in [1e290, 1e12] {
            assert_rejected_at_plan(|cfg| cfg.detector.dark_count_rate_hz = dark_hz);
        }
        // About 8e7 pairs per arm over 4e6 s, with no darks.
        assert_rejected_at_plan(|cfg| {
            cfg.duration_s = 4e6;
            cfg.detector.dark_count_rate_hz = 0.0;
        });
        assert_rejected_at_plan(|cfg| cfg.linewidth_pairs = usize::MAX);
        assert_rejected_at_plan(|cfg| cfg.linewidth_pairs = (1 << 24) + 1);
    }

    /// A signal-arm dropout over [1 s, 2 s) of channel 1: inside it only
    /// dark counts remain, at the dark rate, and none of the channel's
    /// pairs is seen in coincidence there; outside it they are.
    #[test]
    fn dropout_leaves_only_dark_counts() {
        let cfg = HeraldedConfig::fast_demo();
        let dropout = FaultKind::DetectorDropout {
            channel: 1,
            arm: Arm::Signal,
        };
        let schedule = FaultSchedule::empty().with(FaultEvent::new(1.0, 1.0, dropout));
        let plan = plan_heralded_experiment(&fast_source(), &cfg, 8, &schedule).expect("plan");
        let (signal, idler) = heralded_channel_task(&cfg, &schedule, &plan, 0, 1);
        let window_ps = 1_000_000_000_000..2_000_000_000_000;
        let inside = |s: &TagStream| {
            TagStream::from_sorted(
                s.as_slice().iter().copied().filter(|t| window_ps.contains(t)).collect(),
            )
        };
        let darks = cfg.detector.dark_count_rate_hz;
        let clicks = inside(&signal).len() as f64;
        assert!((clicks - darks).abs() < 4.0 * darks.sqrt(), "{clicks} clicks in the dropout");
        let w = cfg.coincidence_window_ps;
        assert!(count_coincidences(&inside(&signal), &inside(&idler), w, 0) <= 1);
        let all = count_coincidences(&signal, &idler, w, 0);
        assert!(all >= 20, "{all} coincidences over the run");
    }

    #[test]
    fn non_finite_scheduled_rate_is_invalid_parameter() {
        let cfg = HeraldedConfig::fast_demo();
        for kind in [
            FaultKind::PumpPowerStep {
                factor: f64::INFINITY,
            },
            FaultKind::DarkCountBurst {
                channel: None,
                rate_multiplier: f64::INFINITY,
            },
        ] {
            let schedule = FaultSchedule::empty().with(FaultEvent::new(1.0, 1.0, kind));
            let outcome = std::panic::catch_unwind(|| {
                try_run_heralded_experiment(&fast_source(), &cfg, 1, &schedule)
            });
            let result = outcome.unwrap_or_else(|_| panic!("{kind:?} panicked"));
            assert!(
                matches!(result, Err(QfcError::InvalidParameter { .. })),
                "{kind:?}: {:?}",
                result.map(|run| run.report)
            );
        }
    }

    #[test]
    fn overflowing_window_is_invalid_parameter() {
        // 3·window overflows; at MAX/20, 3·window fits but the tenth
        // displaced window does not.
        assert_rejected_at_plan(|cfg| cfg.coincidence_window_ps = i64::MAX);
        assert_rejected_at_plan(|cfg| cfg.coincidence_window_ps = i64::MAX / 20);
    }

    #[test]
    fn non_positive_histogram_range_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.histogram_range_ps = 0);
        assert_rejected_at_plan(|cfg| cfg.histogram_range_ps = -15_000);
    }

    #[test]
    fn non_positive_histogram_bin_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.histogram_bin_ps = 0);
        assert_rejected_at_plan(|cfg| cfg.histogram_bin_ps = -250);
    }

    #[test]
    fn overflowing_histogram_range_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.histogram_range_ps = i64::MAX);
    }

    #[test]
    fn oversized_histogram_is_invalid_parameter() {
        // ±2^20 ps at 1 ps bins: 2^21 bins, twice the cap.
        assert_rejected_at_plan(|cfg| {
            cfg.histogram_range_ps = 1 << 20;
            cfg.histogram_bin_ps = 1;
        });
    }
}
