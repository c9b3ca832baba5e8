//! §V — Multi-photon entangled states.
//!
//! Reproduces:
//!
//! * **T3** — quantum state tomography of the per-channel Bell states
//!   ("confirmed generation of qubit entangled Bell states");
//! * **F8** — four-photon quantum interference with 89 % raw visibility;
//! * **T4** — four-photon state tomography with 64 % fidelity to the
//!   ideal two-Bell-pair product.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{Arm, FaultSchedule, HealthReport, QfcError, QfcResult};
use qfc_mathkit::fit::raw_visibility;
use qfc_mathkit::rng::{binomial, rng_from_seed, split_seed};
use qfc_quantum::bell::{bell_phi, concurrence};
use qfc_quantum::fidelity::fidelity_with_pure;
use qfc_quantum::multiphoton::{four_photon_fringe_point, four_photon_product, noisy_four_photon};
use qfc_tomography::counts::setting_histogram;
use qfc_tomography::reconstruct::MleOptions;
use qfc_tomography::settings::all_settings;
use qfc_tomography::stream::{try_stream_counts_seeded, CountAccumulator};

use crate::experiment::{run_in_process, Experiment, ShardSpec};
use crate::report::{Comparison, Expectation, ExperimentReport};
use crate::source::QfcSource;
use crate::supervisor::{self, SupervisorPolicy};
use crate::timebin::{nominal_duration_s, try_channel_state_model_boosted, TimeBinConfig};

/// Four-qubit tomography settings per T4 count task: the 81 settings
/// split into six tasks, each sampling its setting range on the
/// `split_seed(seed + 2, setting_index)` streams.
const T4_SETTINGS_PER_TASK: usize = 16;

/// Configuration of the §V multi-photon runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiPhotonConfig {
    /// Underlying time-bin operating point (state model per channel).
    pub timebin: TimeBinConfig,
    /// Two-photon tomography: coincidences collected per setting.
    pub bell_shots_per_setting: u64,
    /// Four-photon fringe: frames per phase point.
    pub four_fold_frames_per_point: u64,
    /// Four-photon fringe: phase points.
    pub four_fold_phase_steps: usize,
    /// Four-photon tomography: four-folds collected per setting.
    pub four_shots_per_setting: u64,
    /// White-noise fraction of the four-photon state (higher-order pair
    /// emission reaching the four-fold post-selection).
    pub four_fold_white_noise: f64,
    /// Phase-independent accidental fraction of the four-fold counts.
    pub four_fold_accidental_fraction: f64,
    /// Pump *amplitude* boost of the four-photon runs relative to the
    /// §IV operating point (`μ` scales with its square) — the rate vs
    /// visibility trade every four-photon experiment makes.
    pub four_fold_pump_factor: f64,
}

impl MultiPhotonConfig {
    /// The published §V conditions.
    pub fn paper() -> Self {
        Self {
            timebin: TimeBinConfig::paper(),
            bell_shots_per_setting: 2000,
            // ≈ 28 h of frames at 10 MHz per phase point — four-fold
            // rates are low even at the boosted pump (the real runs
            // integrated for days).
            four_fold_frames_per_point: 1_000_000_000_000,
            four_fold_phase_steps: 24,
            four_shots_per_setting: 60,
            four_fold_white_noise: 0.08,
            four_fold_accidental_fraction: 0.02,
            four_fold_pump_factor: 3.0,
        }
    }

    /// Reduced statistics for tests.
    pub fn fast_demo() -> Self {
        Self {
            timebin: TimeBinConfig::fast_demo(),
            bell_shots_per_setting: 500,
            four_fold_frames_per_point: 300_000_000_000,
            four_fold_phase_steps: 16,
            four_shots_per_setting: 40,
            ..Self::paper()
        }
    }
}

/// Result of the per-channel Bell-state tomography (T3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BellTomographyResult {
    /// Channel index.
    pub m: u32,
    /// MLE fidelity with the ideal `|Φ(φ_p)⟩`.
    pub fidelity: f64,
    /// Concurrence of the reconstructed state.
    pub concurrence: f64,
    /// MLE iterations used.
    pub iterations: usize,
    /// Whether the MLE certified its state (gap at most 0.5 nat).
    pub converged: bool,
    /// Certified log-likelihood gap of the state, nats (infinite after a
    /// linear-inversion fallback).
    pub gap_nats: f64,
}

/// One channel's T3 tomography — the per-channel task of the §V
/// [`Experiment`]: 16-setting two-qubit tomography of the channel's
/// time-bin Bell state. Builds the fault-adjusted operating point for
/// channel `m` (RNG-free), samples the 16-setting counts on the
/// channel's split-seed stream, and reconstructs with the MLE fallback.
/// MLE divergence is recorded in the returned local [`HealthReport`] so
/// the task stays pure; callers absorb the locals in channel order.
///
/// # Errors
///
/// As [`try_run_multiphoton_experiment`], per channel.
pub fn bell_channel_task(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    seed: u64,
    schedule: &FaultSchedule,
    duration_s: f64,
    amp: f64,
    m: u32,
) -> QfcResult<(BellTomographyResult, HealthReport)> {
    let settings = all_settings(2);
    let target = bell_phi(config.timebin.pump_phase);
    let mut c = config.timebin;
    c.pump_phase += schedule.mean_phase_offset(0.0, duration_s);
    c.dark_prob_per_gate *= schedule.mean_dark_multiplier(m, 0.0, duration_s);
    let thin_s = 1.0 - schedule.dead_fraction(m, Arm::Signal, 0.0, duration_s);
    let thin_i = 1.0 - schedule.dead_fraction(m, Arm::Idler, 0.0, duration_s);
    c.arm_efficiency *= (thin_s * thin_i).sqrt();
    let model = try_channel_state_model_boosted(source, &c, m, amp)?;
    qfc_obs::counter_add(
        "shots_simulated",
        config.bell_shots_per_setting.saturating_mul(cast::usize_to_u64(settings.len())),
    );
    let mut local = HealthReport::pristine();
    // Accidentals appear as white noise in the tomography counts.
    let p_sig = model.mu
        * c.arm_efficiency.powi(2)
        * 0.125; // mean post-selected coincidence probability scale
    let white = (model.accidental_prob / (model.accidental_prob + p_sig)).clamp(0.0, 1.0);
    let rho = model.rho.depolarize(white);
    // One split-seed stream per setting, folded as it streams in.
    let data = try_stream_counts_seeded(
        &rho,
        &settings,
        config.bell_shots_per_setting,
        split_seed(seed, u64::from(m)),
    )?;
    let mle = supervisor::reconstruct_with_fallback(&data, &MleOptions::default(), &mut local)?;
    Ok((
        BellTomographyResult {
            m,
            fidelity: fidelity_with_pure(&mle.rho, &target),
            concurrence: concurrence(&mle.rho),
            iterations: mle.iterations,
            converged: mle.converged,
            gap_nats: mle.gap_nats,
        },
        local,
    ))
}

/// Result of the four-photon interference scan (F8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FourPhotonFringe {
    /// (common analyzer phase, four-fold counts) points.
    pub points: Vec<(f64, u64)>,
    /// Fitted raw visibility (second-harmonic fringe).
    pub visibility: f64,
}

/// F8: all four photons analyzed at a common phase; four-fold
/// coincidences oscillate at the second harmonic. `tb` is the (possibly
/// fault-adjusted) time-bin operating point and `pump_factor` the total
/// pump amplitude factor. The fringe task of the §V [`Experiment`]
/// drives it with `seed.wrapping_add(1)` and the plan's `tb4`/`pump4`.
///
/// # Errors
///
/// As [`try_run_multiphoton_experiment`].
pub fn try_four_photon_fringe(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    seed: u64,
    tb: &TimeBinConfig,
    pump_factor: f64,
) -> QfcResult<FourPhotonFringe> {
    let mut rng = rng_from_seed(seed);
    let model = try_channel_state_model_boosted(source, tb, 1, pump_factor)?;
    let rho4 = noisy_four_photon(
        tb.pump_phase,
        model.state_visibility,
        config.four_fold_white_noise,
    );
    // Two pairs must be emitted in the same frame; all four photons
    // detected and post-selected.
    let model2 = try_channel_state_model_boosted(source, tb, 2, pump_factor)?;
    let p4_scale = model.mu * model2.mu * tb.arm_efficiency.powi(4);
    // Phase-independent accidental floor, referenced to the fringe mean.
    let mean_point = {
        let steps = 16;
        (0..steps)
            .map(|k| {
                four_photon_fringe_point(
                    &rho4,
                    std::f64::consts::PI * cast::to_f64(k) / cast::to_f64(steps),
                )
            })
            .sum::<f64>()
            / cast::to_f64(steps)
    };
    let p_acc = config.four_fold_accidental_fraction * p4_scale * mean_point;

    qfc_obs::counter_add(
        "shots_simulated",
        config
            .four_fold_frames_per_point
            .saturating_mul(cast::usize_to_u64(config.four_fold_phase_steps)),
    );
    let mut points = Vec::with_capacity(config.four_fold_phase_steps);
    for k in 0..config.four_fold_phase_steps {
        let phi = std::f64::consts::PI * cast::to_f64(k) / cast::to_f64(config.four_fold_phase_steps);
        let p = p4_scale * four_photon_fringe_point(&rho4, phi) + p_acc;
        let counts = binomial(&mut rng, config.four_fold_frames_per_point, p);
        points.push((phi, counts));
    }
    // The four-fold fringe [(1 + V·cos2φ)/2]² is not a pure cosine (it
    // carries a 4φ harmonic), so the honest figure is the
    // background-uncorrected raw visibility (max − min)/(max + min) —
    // exactly what the paper quotes.
    let ys: Vec<f64> = points.iter().map(|&(_, c)| cast::to_f64(c)).collect();
    // A fully dark fringe (every four-fold count zero, e.g. under a
    // savage fault schedule) carries no interference information; report
    // zero visibility instead of the 0/0 NaN the raw estimator yields.
    let visibility = if ys.iter().all(|&y| y == 0.0) {
        0.0
    } else {
        raw_visibility(&ys)
    };
    Ok(FourPhotonFringe { visibility, points })
}

/// Result of the four-photon tomography (T4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FourPhotonTomography {
    /// MLE fidelity with the ideal two-Bell-pair product.
    pub fidelity: f64,
    /// MLE iterations used.
    pub iterations: usize,
    /// Whether the MLE certified its state (gap at most 0.5 nat).
    pub converged: bool,
    /// Certified log-likelihood gap of the state, nats (infinite after a
    /// linear-inversion fallback).
    pub gap_nats: f64,
    /// Total four-fold events used.
    pub total_counts: u64,
}

/// T4 in one call: 81-setting four-qubit tomography of the (noisy)
/// four-photon state at operating point `tb` and pump factor
/// `pump_factor`, reconstructed with MLE and the divergence fallback
/// (recorded in `health`). Byte-identical to the T4 stage of the §V
/// [`Experiment`] driven with `seed.wrapping_add(2)` and the plan's
/// `tb4`/`pump4`.
///
/// # Errors
///
/// As [`try_run_multiphoton_experiment`].
pub fn try_four_photon_tomography(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    seed: u64,
    tb: &TimeBinConfig,
    pump_factor: f64,
    health: &mut HealthReport,
) -> QfcResult<FourPhotonTomography> {
    let rho4 = try_four_photon_state(source, config, tb, pump_factor)?;
    // 81 four-qubit settings, each sampled on its own split-seed stream.
    let settings = all_settings(4);
    qfc_obs::counter_add(
        "shots_simulated",
        config.four_shots_per_setting.saturating_mul(cast::usize_to_u64(settings.len())),
    );
    let data = try_stream_counts_seeded(&rho4, &settings, config.four_shots_per_setting, seed)?;
    four_photon_tomography_from_data(config, &data, health)
}

/// The fault-adjusted four-photon state the T4 stage measures: each T4
/// count task rebuilds it, samples its setting range on the
/// `split_seed(seed, setting_index)` streams, and returns the
/// histograms.
///
/// # Errors
///
/// As [`try_run_multiphoton_experiment`] (channel-model construction).
pub fn try_four_photon_state(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    tb: &TimeBinConfig,
    pump_factor: f64,
) -> QfcResult<qfc_quantum::density::DensityMatrix> {
    let model = try_channel_state_model_boosted(source, tb, 1, pump_factor)?;
    Ok(noisy_four_photon(
        tb.pump_phase,
        model.state_visibility,
        config.four_fold_white_noise,
    ))
}

/// Reconstruction tail of the T4 stage: MLE with the divergence
/// fallback, then fidelity against the intended four-photon product
/// state. The §V assemble step runs it over the folded count table.
///
/// # Errors
///
/// Propagates the fallback's linear-inversion error on degenerate data.
pub fn four_photon_tomography_from_data(
    config: &MultiPhotonConfig,
    data: &qfc_tomography::counts::TomographyData,
    health: &mut HealthReport,
) -> QfcResult<FourPhotonTomography> {
    let total = data.grand_total();
    let mle = supervisor::reconstruct_with_fallback(data, &MleOptions::default(), health)?;
    // The analysis targets the state the experimenter *intended* to
    // write, so a fault-induced phase offset shows up as lost fidelity.
    let target = four_photon_product(config.timebin.pump_phase);
    Ok(FourPhotonTomography {
        fidelity: fidelity_with_pure(&mle.rho, &target),
        iterations: mle.iterations,
        converged: mle.converged,
        gap_nats: mle.gap_nats,
        total_counts: total,
    })
}

/// One row of the pump-power trade scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PumpTradeRow {
    /// Pump amplitude factor relative to the §IV operating point.
    pub pump_factor: f64,
    /// Mean pairs per frame at this pump.
    pub mu: f64,
    /// Pairwise state visibility (multi-pair + phase noise + overlap).
    pub state_visibility: f64,
    /// Relative four-fold rate (∝ μ², normalized to factor 1).
    pub relative_four_fold_rate: f64,
    /// Fidelity of one dephased pair with the ideal Bell state.
    pub pair_fidelity: f64,
}

/// Scans the pump amplitude and reports the rate-vs-quality trade that
/// forces the §V boost: the four-fold rate grows as the fourth power of
/// the pump amplitude while the pairwise visibility (and hence every
/// entanglement figure) degrades.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a non-positive factor,
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed.
pub fn pump_trade_scan(
    source: &QfcSource,
    config: &TimeBinConfig,
    factors: &[f64],
) -> QfcResult<Vec<PumpTradeRow>> {
    let mu_ref = try_channel_state_model_boosted(source, config, 1, 1.0)?.mu;
    factors
        .iter()
        .map(|&f| {
            let model = try_channel_state_model_boosted(source, config, 1, f)?;
            let target = bell_phi(config.pump_phase);
            Ok(PumpTradeRow {
                pump_factor: f,
                mu: model.mu,
                state_visibility: model.state_visibility,
                relative_four_fold_rate: (model.mu / mu_ref).powi(2),
                pair_fidelity: fidelity_with_pure(&model.rho, &target),
            })
        })
        .collect()
}

/// Aggregated §V report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiPhotonReport {
    /// T3 per-channel Bell tomography.
    pub bell: Vec<BellTomographyResult>,
    /// F8 fringe.
    pub fringe: FourPhotonFringe,
    /// T4 tomography.
    pub tomography: FourPhotonTomography,
}

impl MultiPhotonReport {
    /// Comparison rows (paper: entangled Bell states confirmed; 89 %
    /// four-photon visibility; 64 % four-photon fidelity).
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§V multi-photon entangled states (T3/F8/T4)");
        let min_c = self
            .bell
            .iter()
            .map(|b| b.concurrence)
            .fold(f64::INFINITY, f64::min);
        r.push(Comparison::new(
            "T3",
            "min channel Bell concurrence (entangled > 0)",
            0.5,
            min_c,
            "",
            Expectation::AtLeast,
        ));
        let min_f = self
            .bell
            .iter()
            .map(|b| b.fidelity)
            .fold(f64::INFINITY, f64::min);
        r.push(Comparison::new(
            "T3",
            "min channel Bell fidelity",
            0.75,
            min_f,
            "",
            Expectation::AtLeast,
        ));
        r.push(Comparison::new(
            "F8",
            "raw four-photon interference visibility",
            0.89,
            self.fringe.visibility,
            "",
            Expectation::Within { rel_tol: 0.08 },
        ));
        r.push(Comparison::new(
            "T4",
            "four-photon tomography fidelity",
            0.64,
            self.tomography.fidelity,
            "",
            Expectation::Within { rel_tol: 0.12 },
        ));
        r
    }
}

/// A fault-aware §V run: the report plus the health record of the
/// supervision that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiPhotonRun {
    /// The physics report.
    pub report: MultiPhotonReport,
    /// What went wrong and what the supervisor did about it.
    pub health: HealthReport,
}

impl MultiPhotonRun {
    /// Comparison rows with the health record attached.
    pub fn to_report(&self) -> ExperimentReport {
        self.report.to_report().with_health(self.health.clone())
    }
}

/// The RNG-free planning stage of the §V run: validation, supervisor
/// outcomes, the fault-scaled pump amplitude, and the adjusted
/// four-photon operating point. Everything a task needs to run one T3
/// channel (or the F8 fringe, or a T4 count range) independently — see
/// the [`Experiment`] impl on [`MultiPhotonConfig`].
#[derive(Debug, Clone)]
pub struct MultiPhotonPlan {
    /// Nominal wall-clock duration of the underlying time-bin run, s.
    pub duration_s: f64,
    /// Fault-induced pump amplitude factor (exactly 1.0 when clean).
    pub amp: f64,
    /// Surviving channel indices for the T3 stage, in channel order.
    pub survivors: Vec<u32>,
    /// Fault-adjusted time-bin operating point of the F8/T4 stages.
    pub tb4: TimeBinConfig,
    /// Total four-photon pump amplitude factor (`four_fold_pump_factor
    /// × amp`).
    pub pump4: f64,
    /// Supervisor health accumulated during planning.
    pub health: HealthReport,
}

/// Builds the [`MultiPhotonPlan`]: validation, supervisor planning, and
/// the fault-adjusted operating points. RNG-free apart from the
/// deterministic supervisor `fault_stream` lanes.
///
/// # Errors
///
/// As [`try_run_multiphoton_experiment`].
pub fn plan_multiphoton_experiment(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<MultiPhotonPlan> {
    if config.timebin.channels < 1 {
        return Err(QfcError::invalid("need at least one channel"));
    }
    if config.four_fold_phase_steps < 2 {
        return Err(QfcError::invalid(
            "need ≥ 2 phase steps for the four-photon fringe",
        ));
    }
    let duration_s = nominal_duration_s(&config.timebin);
    let mut health = HealthReport::pristine();
    let policy = SupervisorPolicy::default();
    supervisor::record_schedule_faults(schedule, duration_s, &mut health);
    let relocks =
        supervisor::plan_pump_relocks(schedule, duration_s, &policy, seed, &mut health)?;
    let live = supervisor::live_fraction(&relocks, duration_s);
    let survivors = supervisor::partition_channels(
        schedule,
        config.timebin.channels,
        duration_s,
        &policy,
        "multiphoton experiment",
        &mut health,
    )?;

    // μ ∝ (pump amplitude)², so the mean rate factor maps to an
    // amplitude factor via its square root; exactly 1.0 when clean.
    let linewidth_hz = source.ring().linewidth().hz();
    let amp = (schedule.mean_pump_rate_factor(0.0, duration_s, linewidth_hz) * live)
        .max(1e-6)
        .sqrt();

    // F8/T4 post-select four-folds from channels 1 and 2, so their
    // operating point carries the phase offset, the channel-1 dark
    // floor, and the geometric-mean thinning of all four arms involved.
    let mut tb4 = config.timebin;
    tb4.pump_phase += schedule.mean_phase_offset(0.0, duration_s);
    tb4.dark_prob_per_gate *= schedule.mean_dark_multiplier(1, 0.0, duration_s);
    let thin = [
        (1, Arm::Signal),
        (1, Arm::Idler),
        (2, Arm::Signal),
        (2, Arm::Idler),
    ]
    .iter()
    .map(|&(m, arm)| 1.0 - schedule.dead_fraction(m, arm, 0.0, duration_s))
    .product::<f64>()
    .powf(0.25);
    tb4.arm_efficiency *= thin;
    let pump4 = config.four_fold_pump_factor * amp;

    Ok(MultiPhotonPlan {
        duration_s,
        amp,
        survivors,
        tb4,
        pump4,
        health,
    })
}

/// Runs the full §V suite: one task per surviving T3 channel, one for
/// the F8 fringe, and the T4 count ranges; the T4 MLE runs on the caller
/// thread once every count has arrived.
///
/// The §V suite is frame-based like §IV, so faults enter as pure
/// modifiers of the per-frame probabilities: pump faults and lock-loss
/// outages scale the pump amplitude, phase jumps offset the pump phase,
/// dark bursts raise the accidental floor, and sub-quarantine detector
/// dropouts thin the arm efficiencies. The four-photon runs additionally
/// fall back from MLE to linear inversion when the reconstruction fails
/// to converge. The RNG draw sequence is untouched by the schedule, so a
/// faulted run stays bit-identical at any thread count.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a bad configuration,
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed,
/// [`QfcError::ChannelsExhausted`] when every channel is quarantined,
/// and [`QfcError::LockReacquisitionFailed`] when the pump cannot be
/// re-locked.
pub fn try_run_multiphoton_experiment(
    source: &QfcSource,
    config: &MultiPhotonConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<MultiPhotonRun> {
    run_in_process(config, source, seed, schedule)
}

/// One task's output of the §V run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MultiPhotonOutput {
    /// One T3 channel's result and the health record of its MLE.
    Bell(BellTomographyResult, HealthReport),
    /// The F8 fringe.
    Fringe(FourPhotonFringe),
    /// One T4 count range: `(setting_index, histogram)` pairs.
    Counts(Vec<(u64, Vec<u64>)>),
}

/// §V as plan → tasks → assemble. T3 runs on every surviving channel at
/// the (fault-scaled) §IV pump on the `split_seed(seed, m)` streams; F8
/// draws from `seed + 1`; the T4 counts sample each setting on
/// `split_seed(seed + 2, setting_index)`, so their ranges fold into the
/// same table in any grouping. Health absorbs in the driver's order:
/// planning, each T3 channel in channel order, then the T4 MLE.
impl Experiment for MultiPhotonConfig {
    const LABEL: &'static str = "multiphoton";
    type Plan = MultiPhotonPlan;
    type Output = MultiPhotonOutput;
    type Run = MultiPhotonRun;

    fn plan(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> QfcResult<(MultiPhotonPlan, Vec<ShardSpec>)> {
        let plan = plan_multiphoton_experiment(source, self, seed, schedule)?;
        let mut tasks: Vec<ShardSpec> = plan
            .survivors
            .iter()
            .enumerate()
            .map(|(i, m)| ShardSpec::unit(i, format!("bell-{m}"), split_seed(seed, u64::from(*m))))
            .collect();
        tasks.push(ShardSpec::unit(tasks.len(), "fringe".to_owned(), seed.wrapping_add(1)));
        let n_settings = all_settings(4).len();
        for (t, start) in (0..n_settings).step_by(T4_SETTINGS_PER_TASK).enumerate() {
            tasks.push(ShardSpec {
                index: cast::usize_to_u32(tasks.len()),
                label: format!("tomography-counts-{t}"),
                start: cast::usize_to_u64(start),
                len: cast::usize_to_u64(T4_SETTINGS_PER_TASK.min(n_settings - start)),
                seed: seed.wrapping_add(2),
            });
        }
        Ok((plan, tasks))
    }

    fn task(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
        plan: &MultiPhotonPlan,
        spec: &ShardSpec,
    ) -> QfcResult<MultiPhotonOutput> {
        let slot = spec.slot();
        let n_channels = plan.survivors.len();
        if let Some(&m) = plan.survivors.get(slot) {
            let (result, local) =
                bell_channel_task(source, self, seed, schedule, plan.duration_s, plan.amp, m)?;
            return Ok(MultiPhotonOutput::Bell(result, local));
        }
        if slot == n_channels {
            let fringe = try_four_photon_fringe(source, self, spec.seed, &plan.tb4, plan.pump4)?;
            return Ok(MultiPhotonOutput::Fringe(fringe));
        }
        let settings = all_settings(4);
        let start = cast::u64_to_usize(spec.start);
        let end = start + cast::u64_to_usize(spec.len);
        let range = settings.get(start..end).ok_or_else(|| spec.unplanned(Self::LABEL))?;
        let rho4 = try_four_photon_state(source, self, &plan.tb4, plan.pump4)?;
        qfc_obs::counter_add(
            "shots_simulated",
            self.four_shots_per_setting.saturating_mul(spec.len),
        );
        let shots = self.four_shots_per_setting;
        let histograms = (cast::usize_to_u64(start)..)
            .zip(range)
            .map(|(s, setting)| {
                (s, setting_histogram(&rho4, setting, shots, split_seed(spec.seed, s)))
            })
            .collect();
        Ok(MultiPhotonOutput::Counts(histograms))
    }

    fn assemble(
        &self,
        plan: MultiPhotonPlan,
        outputs: impl Iterator<Item = QfcResult<MultiPhotonOutput>>,
    ) -> QfcResult<MultiPhotonRun> {
        let mut health = plan.health;
        let mut bell = Vec::with_capacity(plan.survivors.len());
        let mut fringe = None;
        let mut counts = CountAccumulator::try_new(&all_settings(4))?;
        for output in outputs {
            match output? {
                MultiPhotonOutput::Bell(result, local) => {
                    health.absorb(local);
                    bell.push(result);
                }
                MultiPhotonOutput::Fringe(f) => fringe = Some(f),
                MultiPhotonOutput::Counts(histograms) => {
                    for (s, histogram) in &histograms {
                        counts.absorb_histogram(cast::u64_to_usize(*s), histogram)?;
                    }
                }
            }
        }
        let fringe = fringe
            .ok_or_else(|| QfcError::persistence("multiphoton assembly got no F8 fringe"))?;
        qfc_obs::counter_add("tomography_stream_shards", counts.shards_absorbed());
        // Every count output is folded and dropped before the MLE runs.
        let data = counts.finish();
        let tomography = four_photon_tomography_from_data(self, &data, &mut health)?;
        Ok(MultiPhotonRun {
            report: MultiPhotonReport {
                bell,
                fringe,
                tomography,
            },
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> QfcSource {
        QfcSource::paper_device_timebin()
    }

    fn run(cfg: &MultiPhotonConfig, seed: u64) -> MultiPhotonReport {
        try_run_multiphoton_experiment(&source(), cfg, seed, &FaultSchedule::empty())
            .expect("clean run")
            .report
    }

    fn fringe(seed: u64) -> FourPhotonFringe {
        let cfg = MultiPhotonConfig::fast_demo();
        try_four_photon_fringe(&source(), &cfg, seed, &cfg.timebin, cfg.four_fold_pump_factor)
            .expect("fringe")
    }

    #[test]
    fn bell_tomography_confirms_entanglement() {
        let results = run(&MultiPhotonConfig::fast_demo(), 51).bell;
        for b in &results {
            assert!(b.fidelity > 0.8, "m={}: F = {}", b.m, b.fidelity);
            assert!(b.concurrence > 0.5, "m={}: C = {}", b.m, b.concurrence);
        }
    }

    #[test]
    fn four_photon_visibility_near_paper() {
        let fringe = fringe(52);
        assert!(
            (fringe.visibility - 0.89).abs() < 0.08,
            "V4 = {}",
            fringe.visibility
        );
    }

    #[test]
    fn four_photon_fringe_has_pi_period() {
        let fringe = fringe(53);
        // The scan covers one π period; max and min must both occur.
        let max = fringe.points.iter().map(|p| p.1).max().expect("points");
        let min = fringe.points.iter().map(|p| p.1).min().expect("points");
        assert!(max > 3 * min.max(1), "max {max} min {min}");
    }

    #[test]
    fn four_photon_tomography_fidelity_near_paper() {
        let cfg = MultiPhotonConfig::fast_demo();
        let mut health = HealthReport::pristine();
        let tomo = try_four_photon_tomography(
            &source(),
            &cfg,
            54,
            &cfg.timebin,
            cfg.four_fold_pump_factor,
            &mut health,
        )
        .expect("tomography");
        assert!(
            (tomo.fidelity - 0.64).abs() < 0.12,
            "F4 = {}",
            tomo.fidelity
        );
        assert!(tomo.total_counts > 0);
    }

    #[test]
    fn report_rows_pass() {
        let rows = run(&MultiPhotonConfig::fast_demo(), 55).to_report();
        assert!(rows.all_pass(), "{}", rows.render());
    }

    #[test]
    fn stress_schedule_survives_with_finite_figures() {
        let cfg = MultiPhotonConfig::fast_demo();
        let duration = nominal_duration_s(&cfg.timebin);
        let schedule = FaultSchedule::stress(11, duration);
        let run = try_run_multiphoton_experiment(&source(), &cfg, 55, &schedule)
            .expect("run survives the stress schedule");
        assert!(!run.health.is_pristine());
        for b in &run.report.bell {
            assert!(b.fidelity.is_finite() && b.concurrence.is_finite(), "m={}", b.m);
        }
        assert!(run.report.fringe.visibility.is_finite());
        assert!(run.report.tomography.fidelity.is_finite());
        let rendered = run.to_report().render();
        assert!(rendered.contains("health:"), "{rendered}");
    }

    #[test]
    fn wrong_regime_is_a_taxonomy_error() {
        let err = try_run_multiphoton_experiment(
            &QfcSource::paper_device(),
            &MultiPhotonConfig::fast_demo(),
            1,
            &FaultSchedule::empty(),
        )
        .expect_err("CW source cannot run the multi-photon experiment");
        assert!(matches!(err, QfcError::RegimeMismatch { .. }));
    }

    #[test]
    fn pump_trade_is_monotone() {
        let rows = pump_trade_scan(
            &source(),
            &TimeBinConfig::paper(),
            &[1.0, 2.0, 3.0, 5.0],
        )
        .expect("double-pulse source");
        assert_eq!(rows.len(), 4);
        assert!((rows[0].relative_four_fold_rate - 1.0).abs() < 1e-12);
        for w in rows.windows(2) {
            // Rate rises as the 4th power of the amplitude…
            assert!(w[1].relative_four_fold_rate > w[0].relative_four_fold_rate);
            // …while visibility and pair fidelity fall.
            assert!(w[1].state_visibility < w[0].state_visibility);
            assert!(w[1].pair_fidelity < w[0].pair_fidelity);
        }
        // μ ∝ factor².
        assert!((rows[1].mu / rows[0].mu - 4.0).abs() < 1e-9);
    }
}
