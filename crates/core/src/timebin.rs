//! §IV — Multiplexed time-bin entangled photon pairs.
//!
//! Reproduces:
//!
//! * **F7** — post-selected two-photon quantum-interference fringes with
//!   83 % raw visibility;
//! * **T2** — violation of the CHSH inequality on **all five** channel
//!   pairs symmetric to the pump.
//!
//! The per-frame quantum state of each channel pair is the dephased
//! time-bin Bell state whose visibility budget combines multi-pair
//! emission (from the source's μ), residual interferometer phase noise,
//! and pulse-mode overlap; accidental coincidences add a
//! phase-independent floor. Counts are then drawn frame-by-frame.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{Arm, FaultSchedule, HealthReport, QfcError, QfcResult};
use qfc_mathkit::fit::{try_fit_fringe, FringeFit};
use qfc_mathkit::rng::{binomial, rng_from_seed, split_seed};
use qfc_interferometry::stabilization::visibility_factor;
use qfc_quantum::chsh::{ChshSettings, CLASSICAL_BOUND};
use qfc_quantum::density::DensityMatrix;
use qfc_quantum::timebin::{dephased_timebin_bell, middle_slot_coincidence};

use crate::experiment::{run_in_process, Experiment, ShardSpec};
use crate::report::{Comparison, Expectation, ExperimentReport};
use crate::source::QfcSource;
use crate::supervisor::{self, SupervisorPolicy};

/// Frame rate of the double-pulse pump, Hz (the paper's 10 MHz).
pub const FRAME_RATE_HZ: f64 = 10.0e6;

/// Configuration of the §IV time-bin run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeBinConfig {
    /// Channel pairs measured (paper: 5).
    pub channels: u32,
    /// Double-pulse frames integrated per phase point.
    pub frames_per_point: u64,
    /// Phase points in the fringe scan.
    pub phase_steps: usize,
    /// Total single-photon efficiency per arm (detector × collection).
    pub arm_efficiency: f64,
    /// Dark/background probability per post-selection gate per frame.
    pub dark_prob_per_gate: f64,
    /// Residual RMS phase noise of each interferometer, rad.
    pub phase_noise_rms: f64,
    /// Temporal-mode overlap visibility of the two pump pulses.
    pub mode_overlap_visibility: f64,
    /// Phase written between the two pump pulses, rad.
    pub pump_phase: f64,
}

impl TimeBinConfig {
    /// The published §IV conditions.
    pub fn paper() -> Self {
        Self {
            channels: 5,
            frames_per_point: 50_000_000, // 5 s at 10 MHz per point
            phase_steps: 24,
            arm_efficiency: 0.105,
            dark_prob_per_gate: 1.0e-6,
            phase_noise_rms: 0.15,
            mode_overlap_visibility: 0.93,
            pump_phase: 0.0,
        }
    }

    /// Smaller run for tests.
    pub fn fast_demo() -> Self {
        Self {
            channels: 2,
            frames_per_point: 10_000_000,
            phase_steps: 16,
            ..Self::paper()
        }
    }
}

/// The per-frame state model of one channel pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelStateModel {
    /// Channel index.
    pub m: u32,
    /// Mean pairs per frame.
    pub mu: f64,
    /// State visibility after multi-pair, phase-noise and mode-overlap
    /// penalties (before accidentals).
    pub state_visibility: f64,
    /// The modeled two-qubit state.
    pub rho: DensityMatrix,
    /// Phase-independent accidental coincidence probability per frame.
    pub accidental_prob: f64,
}

/// Builds the state model of channel `m` from the source and config.
///
/// # Errors
///
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed.
pub fn try_channel_state_model(
    source: &QfcSource,
    config: &TimeBinConfig,
    m: u32,
) -> QfcResult<ChannelStateModel> {
    try_channel_state_model_boosted(source, config, m, 1.0)
}

/// Like [`try_channel_state_model`], with the pump *amplitude* scaled
/// by `power_factor` (the §V four-photon runs pump harder, trading
/// pairwise visibility for four-fold rate: `μ ∝ P²`).
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a non-positive `power_factor`,
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed.
pub fn try_channel_state_model_boosted(
    source: &QfcSource,
    config: &TimeBinConfig,
    m: u32,
    power_factor: f64,
) -> QfcResult<ChannelStateModel> {
    if power_factor.is_nan() || power_factor <= 0.0 {
        return Err(QfcError::invalid("power factor must be positive"));
    }
    let mu = source.try_pairs_per_frame(m)? * power_factor * power_factor;
    let v_multipair =
        qfc_quantum::fock::TwoModeSqueezedVacuum::new(mu).multipair_visibility_limit();
    // Pump interferometer + two analyzers, each with the residual noise.
    let v_phase = visibility_factor(config.phase_noise_rms).powi(3);
    let v = v_multipair * v_phase * config.mode_overlap_visibility;
    let rho = dephased_timebin_bell(config.pump_phase, v);
    // Accidentals: uncorrelated middle-slot singles on both arms.
    let p_single = mu * config.arm_efficiency / 2.0 + config.dark_prob_per_gate;
    let accidental_prob = p_single * p_single;
    Ok(ChannelStateModel {
        m,
        mu,
        state_visibility: v,
        rho,
        accidental_prob,
    })
}

/// Coincidence probability per frame at analyzer phases `(a, b)`.
pub fn coincidence_probability(
    model: &ChannelStateModel,
    config: &TimeBinConfig,
    phi_a: f64,
    phi_b: f64,
) -> f64 {
    let eta2 = config.arm_efficiency * config.arm_efficiency;
    model.mu * eta2 * middle_slot_coincidence(&model.rho, phi_a, phi_b) + model.accidental_prob
}

/// One channel's fringe-scan result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelFringe {
    /// Channel index.
    pub m: u32,
    /// (analyzer phase, post-selected coincidence counts) points.
    pub points: Vec<(f64, u64)>,
    /// Harmonic fit of the fringe.
    pub fit: FringeFit,
    /// State visibility of the underlying model.
    pub state_visibility: f64,
}

/// One channel's CHSH measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChshChannelResult {
    /// Channel index.
    pub m: u32,
    /// Measured CHSH S value.
    pub s_value: f64,
    /// 1σ statistical uncertainty of S.
    pub sigma: f64,
    /// Standard deviations above the classical bound.
    pub n_sigma_violation: f64,
}

impl ChshChannelResult {
    /// `true` when the classical bound is violated by at least `k` σ.
    pub fn violates_by(&self, k: f64) -> bool {
        self.s_value > CLASSICAL_BOUND && self.n_sigma_violation >= k
    }
}

/// Full §IV report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeBinReport {
    /// Fringe scan per channel (F7).
    pub fringes: Vec<ChannelFringe>,
    /// CHSH per channel (T2).
    pub chsh: Vec<ChshChannelResult>,
}

impl TimeBinReport {
    /// Mean fitted raw visibility across channels.
    pub fn mean_visibility(&self) -> f64 {
        self.fringes.iter().map(|f| f.fit.visibility).sum::<f64>()
            / cast::to_f64(self.fringes.len().max(1))
    }

    /// Number of channels violating CHSH (by ≥ 2σ).
    pub fn channels_violating(&self) -> usize {
        self.chsh.iter().filter(|c| c.violates_by(2.0)).count()
    }

    /// Comparison rows (paper: 83 % visibility; violation on all 5).
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§IV time-bin entanglement (F7/T2)");
        r.push(Comparison::new(
            "F7",
            "raw two-photon interference visibility",
            0.83,
            self.mean_visibility(),
            "",
            Expectation::Within { rel_tol: 0.07 },
        ));
        r.push(Comparison::new(
            "T2",
            "channels violating CHSH (paper: all measured)",
            cast::to_f64(self.chsh.len()),
            cast::to_f64(self.channels_violating()),
            "",
            Expectation::AtLeast,
        ));
        let min_s = self
            .chsh
            .iter()
            .map(|c| c.s_value)
            .fold(f64::INFINITY, f64::min);
        r.push(Comparison::new(
            "T2",
            "minimum channel S (classical bound 2)",
            2.0,
            min_s,
            "",
            Expectation::AtLeast,
        ));
        r
    }
}

/// Slot-resolved result of the event-based §IV Monte Carlo at one
/// analyzer phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotScanPoint {
    /// Analyzer-A phase.
    pub phase: f64,
    /// Detected joint-slot counts `[a][b]` (first/middle/last).
    pub slots: [[u64; 3]; 3],
}

impl SlotScanPoint {
    /// The post-selected middle/middle coincidences.
    pub fn middle_middle(&self) -> u64 {
        self.slots[1][1]
    }

    /// Counts in the phase-independent satellite cells.
    pub fn satellites(&self) -> u64 {
        let mut total = 0;
        for (i, row) in self.slots.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if !(i == 1 && j == 1) {
                    total += c;
                }
            }
        }
        total
    }
}

/// Event-based §IV Monte Carlo: every emitted pair is propagated through
/// the full slot-resolved Franson table of
/// [`qfc_interferometry::analysis`], detected with the per-arm
/// efficiency, and binned by joint arrival slot; dark coincidences land
/// in the middle/middle cell. Slower but assumption-free — used to
/// cross-validate the analytic fringe of [`try_run_timebin_experiment`].
///
/// # Errors
///
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed.
pub fn run_timebin_event_mc(
    source: &QfcSource,
    config: &TimeBinConfig,
    m: u32,
    phases: &[f64],
    seed: u64,
) -> QfcResult<Vec<SlotScanPoint>> {
    use qfc_interferometry::analysis::two_photon_slot_table;
    use qfc_interferometry::michelson::UnbalancedMichelson;
    use qfc_mathkit::sampling::DiscreteSampler;

    let model = try_channel_state_model(source, config, m)?;
    let eta = config.arm_efficiency;
    let ifo_b = UnbalancedMichelson::paper_instrument(0.0);

    // Each phase point draws from its own split-seed stream, so points
    // are independent tasks and the scan parallelizes without any
    // cross-point RNG coupling.
    let indexed: Vec<(usize, f64)> = phases.iter().copied().enumerate().collect();
    Ok(qfc_runtime::par_map(&indexed, |&(k, phase)| {
        let mut rng = rng_from_seed(split_seed(seed, cast::usize_to_u64(k)));
        {
            let ifo_a = UnbalancedMichelson::paper_instrument(phase);
            let table = two_photon_slot_table(&model.rho, &ifo_a, &ifo_b);
            // Flatten into a 10-way outcome: 9 slot cells (+ detection
            // efficiency) and "no coincidence".
            let mut weights = [0.0f64; 10];
            let mut total = 0.0;
            for i in 0..3 {
                for j in 0..3 {
                    let w = table[i][j] * eta * eta;
                    weights[3 * i + j] = w;
                    total += w;
                }
            }
            weights[9] = (1.0 - total).max(0.0);
            // Threshold ladder built once per phase point (RNG-free, so
            // it cannot shift the draw stream); each frame then costs one
            // uniform and a binary search instead of a 10-way scan.
            let sampler = DiscreteSampler::new(&weights);

            let n_pairs = binomial(&mut rng, config.frames_per_point, model.mu);
            let mut slots = [[0u64; 3]; 3];
            // qfc-lint: hot
            for _ in 0..n_pairs {
                let outcome = sampler.sample(&mut rng);
                if outcome < 9 {
                    slots[outcome / 3][outcome % 3] += 1;
                }
            }
            // Accidentals (dark/uncorrelated coincidences) land in the
            // post-selected middle/middle gate; single-arm darks pairing
            // with real photons are absorbed in `accidental_prob`.
            slots[1][1] += binomial(&mut rng, config.frames_per_point, model.accidental_prob);
            SlotScanPoint { phase, slots }
        }
    }))
}

/// A completed §IV run: the physics report plus its health record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeBinRun {
    /// The physics results.
    pub report: TimeBinReport,
    /// Faults injected and recovery actions taken.
    pub health: HealthReport,
}

impl TimeBinRun {
    /// Comparison rows with the health section attached.
    pub fn to_report(&self) -> ExperimentReport {
        self.report.to_report().with_health(self.health.clone())
    }
}

/// Nominal wall-clock length of the §IV scan, s: every channel
/// integrates `frames_per_point` frames at [`FRAME_RATE_HZ`] for each
/// of the `phase_steps` fringe points and the 16 CHSH projector cells.
pub fn nominal_duration_s(config: &TimeBinConfig) -> f64 {
    cast::to_f64(config.frames_per_point) * (cast::to_f64(config.phase_steps) + 16.0) / FRAME_RATE_HZ
}

/// The RNG-free planning stage of the §IV run: supervisor outcomes plus
/// the per-channel fault-adjusted operating points. Everything a task
/// needs to run one channel independently — see the [`Experiment`] impl
/// on [`TimeBinConfig`].
#[derive(Debug, Clone)]
pub struct TimeBinPlan {
    /// Nominal run length, s.
    pub duration_s: f64,
    /// Pump amplitude factor after fault/outage derating.
    pub amp: f64,
    /// Surviving channels with their fault-adjusted configs and state
    /// models, in channel order.
    pub models: Vec<(u32, TimeBinConfig, ChannelStateModel)>,
    /// Supervisor health accumulated during planning.
    pub health: HealthReport,
}

/// Builds the [`TimeBinPlan`]: validation, supervisor planning (relocks,
/// quarantines), and the per-channel operating points. Pure and RNG-free
/// apart from the deterministic supervisor `fault_stream` lanes — calling
/// it never perturbs the physics draw streams.
///
/// # Errors
///
/// As [`try_run_timebin_experiment`].
pub fn plan_timebin_experiment(
    source: &QfcSource,
    config: &TimeBinConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<TimeBinPlan> {
    if config.channels < 1 {
        return Err(QfcError::invalid("need at least one channel"));
    }
    if config.phase_steps < 5 {
        return Err(QfcError::invalid("need ≥ 5 phase steps for the fit"));
    }
    let duration_s = nominal_duration_s(config);
    let mut health = HealthReport::pristine();
    let policy = SupervisorPolicy::default();
    supervisor::record_schedule_faults(schedule, duration_s, &mut health);
    let relocks =
        supervisor::plan_pump_relocks(schedule, duration_s, &policy, seed, &mut health)?;
    let live = supervisor::live_fraction(&relocks, duration_s);
    let survivors = supervisor::partition_channels(
        schedule,
        config.channels,
        duration_s,
        &policy,
        "timebin experiment",
        &mut health,
    )?;

    // Pump faults scale the pair rate; μ ∝ (amplitude factor)², so the
    // rate factor maps to an amplitude factor via its square root. An
    // empty schedule produces exactly 1.0 here.
    let linewidth_hz = source.ring().linewidth().hz();
    let amp = (schedule.mean_pump_rate_factor(0.0, duration_s, linewidth_hz) * live)
        .max(1e-6)
        .sqrt();

    // Pre-build the per-channel fault-adjusted operating points (cheap
    // and RNG-free) so regime errors surface before the draw stage.
    let models: Vec<(u32, TimeBinConfig, ChannelStateModel)> = survivors
        .iter()
        .map(|&m| {
            let mut c = *config;
            c.pump_phase += schedule.mean_phase_offset(0.0, duration_s);
            c.dark_prob_per_gate *= schedule.mean_dark_multiplier(m, 0.0, duration_s);
            let thin_s = 1.0 - schedule.dead_fraction(m, Arm::Signal, 0.0, duration_s);
            let thin_i = 1.0 - schedule.dead_fraction(m, Arm::Idler, 0.0, duration_s);
            c.arm_efficiency *= (thin_s * thin_i).sqrt();
            try_channel_state_model_boosted(source, &c, m, amp).map(|model| (m, c, model))
        })
        .collect::<QfcResult<_>>()?;
    Ok(TimeBinPlan {
        duration_s,
        amp,
        models,
        health,
    })
}

/// Runs one channel of the §IV scan: the F7 fringe and the T2 CHSH
/// measurement, drawing from the channel's dedicated split-seed stream
/// `split_seed(seed, m)`. This is the per-channel task of the §IV
/// [`Experiment`] — its output depends only on `(seed, m, c, model)`, so
/// it produces identical bytes whether run in-process, on a pool worker,
/// or in a separate resumed process.
///
/// # Errors
///
/// [`QfcError`] when the fringe fit fails on a degenerate phase grid,
/// which the planner's `phase_steps ≥ 5` check rules out.
pub fn timebin_channel_task(
    seed: u64,
    m: u32,
    c: &TimeBinConfig,
    model: &ChannelStateModel,
) -> QfcResult<(ChannelFringe, ChshChannelResult)> {
    qfc_obs::counter_add(
        "shots_simulated",
        c.frames_per_point.saturating_mul(cast::usize_to_u64(c.phase_steps) + 16),
    );
    let mut rng = rng_from_seed(split_seed(seed, u64::from(m)));

    // F7 fringe: scan one analyzer phase.
    let mut points = Vec::with_capacity(c.phase_steps);
    for k in 0..c.phase_steps {
        let phi = 2.0 * std::f64::consts::PI * cast::to_f64(k) / cast::to_f64(c.phase_steps);
        let p = coincidence_probability(model, c, phi, 0.0);
        let counts = binomial(&mut rng, c.frames_per_point, p);
        points.push((phi, counts));
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = points
        .iter()
        .map(|&(p, c)| (p, cast::to_f64(c)))
        .unzip();
    let fit = try_fit_fringe(&xs, &ys)?;
    let fringe = ChannelFringe {
        m,
        points,
        fit,
        state_visibility: model.state_visibility,
    };

    // T2 CHSH: measure the four correlators; each needs the four
    // projector combinations (φ, φ+π) on both sides.
    let settings = ChshSettings::optimal_for_phi_plus();
    let pairs = [
        (settings.a, settings.b),
        (settings.a, settings.b_prime),
        (settings.a_prime, settings.b),
        (settings.a_prime, settings.b_prime),
    ];
    let mut e = [0.0f64; 4];
    let mut total_counts = 0u64;
    for (idx, &(alpha, beta)) in pairs.iter().enumerate() {
        let mut n = [[0u64; 2]; 2];
        for (i, da) in [0.0, std::f64::consts::PI].iter().enumerate() {
            for (j, db) in [0.0, std::f64::consts::PI].iter().enumerate() {
                let p = coincidence_probability(model, c, alpha + da, beta + db);
                n[i][j] = binomial(&mut rng, c.frames_per_point, p);
            }
        }
        let sum = cast::to_f64(n[0][0] + n[0][1] + n[1][0] + n[1][1]);
        total_counts += n[0][0] + n[0][1] + n[1][0] + n[1][1];
        e[idx] = if sum > 0.0 {
            (cast::to_f64(n[0][0]) + cast::to_f64(n[1][1]) - cast::to_f64(n[0][1]) - cast::to_f64(n[1][0])) / sum
        } else {
            0.0
        };
    }
    let s = (e[0] + e[1] + e[2] - e[3]).abs();
    // Poisson propagation: σ_E ≈ √((1 − E²)/N) per correlator.
    let n_per = (cast::to_f64(total_counts) / 4.0).max(1.0);
    let sigma = (e.iter().map(|ei| (1.0 - ei * ei) / n_per).sum::<f64>()).sqrt();
    let chsh = ChshChannelResult {
        m,
        s_value: s,
        sigma,
        n_sigma_violation: (s - CLASSICAL_BOUND) / sigma.max(1e-12),
    };
    Ok((fringe, chsh))
}

/// Runs the §IV virtual experiment: fringe scans and CHSH on every
/// surviving channel pair, one channel per task.
///
/// The §IV driver is frame-based, so faults enter as pure modifiers of
/// the per-frame probabilities: pump faults and lock-loss outages scale
/// `μ`, phase jumps offset the pump phase, dark bursts raise the
/// accidental floor, and sub-quarantine detector dropouts thin the arm
/// efficiency. The RNG draw sequence is untouched by the schedule, so a
/// faulted run stays bit-identical at any thread count.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a bad configuration,
/// [`QfcError::RegimeMismatch`] when the source is not double-pulsed,
/// [`QfcError::ChannelsExhausted`] when every channel is quarantined,
/// and [`QfcError::LockReacquisitionFailed`] when the pump cannot be
/// re-locked.
pub fn try_run_timebin_experiment(
    source: &QfcSource,
    config: &TimeBinConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<TimeBinRun> {
    run_in_process(config, source, seed, schedule)
}

/// §IV as plan → tasks → assemble: one task per surviving channel. The
/// fringe and CHSH draws of channel `m` come from the independent
/// split-seed stream `split_seed(seed, m)`.
impl Experiment for TimeBinConfig {
    const LABEL: &'static str = "timebin";
    type Plan = TimeBinPlan;
    type Output = (ChannelFringe, ChshChannelResult);
    type Run = TimeBinRun;

    fn plan(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> QfcResult<(TimeBinPlan, Vec<ShardSpec>)> {
        let plan = plan_timebin_experiment(source, self, seed, schedule)?;
        let tasks = plan
            .models
            .iter()
            .enumerate()
            .map(|(i, (m, _, _))| {
                ShardSpec::unit(i, format!("channel-{m}"), split_seed(seed, u64::from(*m)))
            })
            .collect();
        Ok((plan, tasks))
    }

    fn task(
        &self,
        _source: &QfcSource,
        seed: u64,
        _schedule: &FaultSchedule,
        plan: &TimeBinPlan,
        spec: &ShardSpec,
    ) -> QfcResult<Self::Output> {
        let (m, c, model) = plan
            .models
            .get(spec.slot())
            .ok_or_else(|| spec.unplanned(Self::LABEL))?;
        timebin_channel_task(seed, *m, c, model)
    }

    fn assemble(
        &self,
        plan: TimeBinPlan,
        outputs: impl Iterator<Item = QfcResult<Self::Output>>,
    ) -> QfcResult<TimeBinRun> {
        let mut fringes = Vec::with_capacity(plan.models.len());
        let mut chsh = Vec::with_capacity(plan.models.len());
        for output in outputs {
            let (f, c) = output?;
            fringes.push(f);
            chsh.push(c);
        }
        Ok(TimeBinRun {
            report: TimeBinReport { fringes, chsh },
            health: plan.health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> QfcSource {
        QfcSource::paper_device_timebin()
    }

    fn run(cfg: &TimeBinConfig, seed: u64) -> TimeBinReport {
        try_run_timebin_experiment(&source(), cfg, seed, &FaultSchedule::empty())
            .expect("clean run")
            .report
    }

    #[test]
    fn state_model_visibility_budget() {
        let cfg = TimeBinConfig::paper();
        let model = try_channel_state_model(&source(), &cfg, 1).expect("double-pulse source");
        assert!(model.mu > 0.005 && model.mu < 0.1, "μ = {}", model.mu);
        assert!(
            model.state_visibility > 0.8 && model.state_visibility < 0.95,
            "V = {}",
            model.state_visibility
        );
        assert!(model.accidental_prob > 0.0);
    }

    #[test]
    fn fringe_visibility_near_paper_value() {
        let report = run(&TimeBinConfig::fast_demo(), 41);
        for f in &report.fringes {
            assert!(
                (f.fit.visibility - 0.83).abs() < 0.08,
                "m={}: V = {}",
                f.m,
                f.fit.visibility
            );
        }
    }

    #[test]
    fn chsh_violated_on_all_channels() {
        let report = run(&TimeBinConfig::fast_demo(), 42);
        assert_eq!(report.channels_violating(), report.chsh.len());
        for c in &report.chsh {
            assert!(c.s_value > 2.0, "m={}: S = {}", c.m, c.s_value);
            assert!(c.s_value < 2.0 * std::f64::consts::SQRT_2 + 3.0 * c.sigma);
        }
    }

    #[test]
    fn fringe_oscillates_through_minimum() {
        let report = run(&TimeBinConfig::fast_demo(), 43);
        let f = &report.fringes[0];
        let max = f.points.iter().map(|p| p.1).max().expect("points");
        let min = f.points.iter().map(|p| p.1).min().expect("points");
        assert!(max > 5 * min, "max {max} min {min}");
    }

    #[test]
    fn report_rows_pass() {
        let report = run(&TimeBinConfig::fast_demo(), 44);
        let rows = report.to_report();
        assert!(rows.all_pass(), "{}", rows.render());
    }

    #[test]
    fn probability_peaks_at_sum_phase() {
        let cfg = TimeBinConfig::paper();
        let model = try_channel_state_model(&source(), &cfg, 1).expect("double-pulse source");
        let p0 = coincidence_probability(&model, &cfg, 0.0, 0.0);
        let p_pi = coincidence_probability(&model, &cfg, std::f64::consts::PI, 0.0);
        assert!(p0 > 5.0 * p_pi);
    }

    #[test]
    fn too_few_steps_rejected() {
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.phase_steps = 3;
        let err = try_run_timebin_experiment(&source(), &cfg, 1, &FaultSchedule::empty())
            .expect_err("three phase steps cannot be fitted");
        assert!(err.to_string().contains("phase steps"), "{err}");
    }

    #[test]
    fn stress_schedule_survives_with_finite_figures() {
        let cfg = TimeBinConfig::fast_demo();
        let duration = nominal_duration_s(&cfg);
        let schedule = FaultSchedule::stress(9, duration);
        let run = try_run_timebin_experiment(&source(), &cfg, 47, &schedule)
            .expect("run survives the stress schedule");
        assert!(!run.health.is_pristine());
        for f in &run.report.fringes {
            assert!(f.fit.visibility.is_finite());
        }
        for c in &run.report.chsh {
            assert!(c.s_value.is_finite());
        }
    }

    #[test]
    fn wrong_regime_is_a_taxonomy_error() {
        let err = try_run_timebin_experiment(
            &QfcSource::paper_device(),
            &TimeBinConfig::fast_demo(),
            1,
            &FaultSchedule::empty(),
        )
        .expect_err("CW source cannot run the time-bin experiment");
        assert!(matches!(err, QfcError::RegimeMismatch { .. }));
    }

    #[test]
    fn event_mc_cross_validates_analytic_fringe() {
        let cfg = TimeBinConfig::fast_demo();
        let phases: Vec<f64> = (0..12)
            .map(|k| 2.0 * std::f64::consts::PI * k as f64 / 12.0)
            .collect();
        let scan = run_timebin_event_mc(&source(), &cfg, 1, &phases, 45)
            .expect("double-pulse source");
        let model = try_channel_state_model(&source(), &cfg, 1).expect("double-pulse source");
        for p in &scan {
            let expected =
                coincidence_probability(&model, &cfg, p.phase, 0.0) * cfg.frames_per_point as f64;
            let got = p.middle_middle() as f64;
            // 5σ Poisson agreement between the two formalisms.
            let tol = 5.0 * expected.sqrt().max(3.0);
            assert!(
                (got - expected).abs() < tol,
                "phase {}: MC {} vs analytic {}",
                p.phase,
                got,
                expected
            );
        }
    }

    #[test]
    fn event_mc_satellites_are_phase_independent() {
        let cfg = TimeBinConfig::fast_demo();
        let scan = run_timebin_event_mc(
            &source(),
            &cfg,
            1,
            &[0.0, std::f64::consts::FRAC_PI_2, std::f64::consts::PI],
            46,
        )
        .expect("double-pulse source");
        let sats: Vec<f64> = scan.iter().map(|p| p.satellites() as f64).collect();
        let mean = sats.iter().sum::<f64>() / sats.len() as f64;
        for s in &sats {
            assert!((s - mean).abs() < 5.0 * mean.sqrt(), "satellites {s} vs mean {mean}");
        }
        // Middle/middle swings by far more than the satellites do.
        let mm: Vec<u64> = scan.iter().map(|p| p.middle_middle()).collect();
        assert!(*mm.iter().max().expect("points") > 3 * mm.iter().min().expect("points").max(&1));
    }
}
