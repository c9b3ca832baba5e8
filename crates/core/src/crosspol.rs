//! §III — Generation of cross-polarized photon pairs via type-II SFWM.
//!
//! Reproduces:
//!
//! * **F4** — the coincidence peak between orthogonally polarized photons
//!   behind a polarizing beam splitter, CAR ≈ 10 at 2 mW;
//! * **F5** — the pump-power transfer curve: quadratic below the OPO
//!   threshold at 14 mW, linear above;
//! * **F6** — suppression of the *stimulated* FWM process by the TE/TM
//!   resonance-grid offset (the device-design ablation).

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{FaultSchedule, HealthReport, QfcError, QfcResult};
use qfc_mathkit::fit::try_fit_power_law;
use qfc_mathkit::rng::{rng_from_seed, split_seed};
use qfc_photonics::fwm;
use qfc_photonics::opo;
use qfc_photonics::ring::MicroringBuilder;
use qfc_photonics::units::{Frequency, Power};
use qfc_photonics::waveguide::Waveguide;
use qfc_timetag::coincidence::measure_car;
use qfc_timetag::detector::{pair_arrivals, SinglePhotonDetector};
use qfc_timetag::events::{try_duration_ps, try_tags_per_arm, TagStream};

use crate::experiment::{run_in_process, Experiment, ShardSpec};
use crate::report::{Comparison, Expectation, ExperimentReport};
use crate::source::QfcSource;
use crate::supervisor::{self, SupervisorPolicy};

/// Configuration of the §III type-II coincidence run (F4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossPolConfig {
    /// Integration time, s.
    pub duration_s: f64,
    /// Coincidence window, ps; non-negative and shorter than the CAR's
    /// 50 ns displaced-window step.
    pub coincidence_window_ps: i64,
    /// Detector model per polarization arm.
    pub detector: SinglePhotonDetector,
    /// Passive collection efficiency per arm (PBS, filters, fibers).
    pub collection_efficiency: f64,
    /// Uncorrelated background photons reaching each detector (leaked
    /// pump, spontaneous Raman in the fibers), Hz.
    pub background_rate_hz: f64,
    /// Polarization extinction of the PBS: fraction of each photon
    /// leaking into the wrong output port.
    pub pbs_leakage: f64,
}

impl CrossPolConfig {
    /// The published F4 conditions (2 mW total bichromatic pump, gated
    /// InGaAs detection, realistic background) tuned to the CAR ≈ 10
    /// operating point.
    pub fn paper() -> Self {
        Self {
            duration_s: 3600.0,
            // Window spans the 1.45-ns correlation envelope.
            coincidence_window_ps: 8000,
            detector: SinglePhotonDetector {
                efficiency: 0.15,
                dark_count_rate_hz: 300.0,
                jitter_sigma_ps: 100.0,
                dead_time_ps: 10_000_000,
            },
            collection_efficiency: 0.7,
            background_rate_hz: 900.0,
            pbs_leakage: 0.01,
        }
    }

    /// High-efficiency, short run for tests and demos.
    pub fn fast_demo() -> Self {
        Self {
            duration_s: 60.0,
            coincidence_window_ps: 8000,
            detector: SinglePhotonDetector {
                efficiency: 0.8,
                dark_count_rate_hz: 200.0,
                jitter_sigma_ps: 50.0,
                dead_time_ps: 50_000,
            },
            collection_efficiency: 0.8,
            background_rate_hz: 300.0,
            pbs_leakage: 0.01,
        }
    }

    /// The TE and TM arms' clicks of one §III run on `lane`: the PBS
    /// routes each pair's TE photon to the TE arm (the schedule's
    /// channel-1 signal detector) and its TM photon to the TM arm (the
    /// idler), swapped with its leakage probability.
    fn arm_streams(
        &self,
        source: &QfcSource,
        schedule: &FaultSchedule,
        plan: &CrossPolPlan,
        lane: u64,
    ) -> (TagStream, TagStream) {
        let tau = source.ring().coincidence_decay_time();
        let mut rng = rng_from_seed(split_seed(lane, 0));
        let arrivals = pair_arrivals(&mut rng, plan.rate, tau, self.duration_s, self.pbs_leakage);
        let mut detector = self.detector;
        detector.efficiency *= self.collection_efficiency;
        let background_hz = self.background_rate_hz;
        supervisor::detect_arms(schedule, 1, lane, detector, background_hz, self.duration_s, arrivals)
    }
}

/// Results of the F4 type-II coincidence run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossPolReport {
    /// Generated cross-polarized pair rate, Hz.
    pub generated_pair_rate_hz: f64,
    /// TE-arm singles rate, Hz.
    pub te_singles_hz: f64,
    /// TM-arm singles rate, Hz.
    pub tm_singles_hz: f64,
    /// Detected coincidence rate, Hz.
    pub coincidence_rate_hz: f64,
    /// Coincidence-to-accidental ratio.
    pub car: f64,
    /// Suppression of the stimulated FWM product (cavity power response
    /// at the stimulated frequency, 1 = unsuppressed).
    pub stimulated_response: f64,
}

impl CrossPolReport {
    /// Comparison rows (paper: CAR ≈ 10 at 2 mW; stimulated FWM
    /// "suppressed completely").
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§III cross-polarized photon pairs (F4/F6)");
        r.push(Comparison::new(
            "F4",
            "type-II CAR at 2 mW (paper ≈ 10)",
            10.0,
            self.car,
            "",
            Expectation::InRange { lo: 5.0, hi: 20.0 },
        ));
        r.push(Comparison::new(
            "F6",
            "stimulated-FWM cavity response (1 = unsuppressed)",
            1e-4,
            self.stimulated_response,
            "",
            Expectation::AtMost,
        ));
        r
    }
}

/// A completed §III run: the physics report plus its health record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossPolRun {
    /// The physics results.
    pub report: CrossPolReport,
    /// Faults injected and recovery actions taken.
    pub health: HealthReport,
}

impl CrossPolRun {
    /// Comparison rows with the health section attached.
    pub fn to_report(&self) -> ExperimentReport {
        self.report.to_report().with_health(self.health.clone())
    }
}

/// Runs the F4 virtual experiment: type-II pairs split on a PBS,
/// detected, and counted. The TE arm maps onto the channel-1 signal
/// detector and the TM arm onto the channel-1 idler detector of the
/// fault schedule.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] for a bad configuration,
/// [`QfcError::RegimeMismatch`] when the source is not bichromatically
/// pumped, [`QfcError::ChannelsExhausted`] when both arms are
/// quarantined, and [`QfcError::LockReacquisitionFailed`] when the pump
/// cannot be re-locked.
pub fn try_run_crosspol_experiment(
    source: &QfcSource,
    config: &CrossPolConfig,
    seed: u64,
    schedule: &FaultSchedule,
) -> QfcResult<CrossPolRun> {
    run_in_process(config, source, seed, schedule)
}

/// Spacing of the §III CAR's displaced windows, ps; the coincidence
/// window must be shorter.
const CAR_OFFSET_STEP_PS: i64 = 50_000;

/// The RNG-free planning stage of the §III run: validation, supervisor
/// outcomes and the fault-derated pair rate.
#[derive(Debug, Clone)]
pub struct CrossPolPlan {
    /// Fault-derated type-II pair generation rate, Hz.
    pub rate: f64,
    /// Supervisor health accumulated during planning.
    pub health: HealthReport,
}

/// §III as plan → tasks → assemble. The run is one sequential sweep
/// over a single pair of arms, so it is a single task.
impl Experiment for CrossPolConfig {
    const LABEL: &'static str = "crosspol";
    type Plan = CrossPolPlan;
    type Output = CrossPolReport;
    type Run = CrossPolRun;

    fn plan(
        &self,
        source: &QfcSource,
        seed: u64,
        schedule: &FaultSchedule,
    ) -> QfcResult<(CrossPolPlan, Vec<ShardSpec>)> {
        let duration_ps = try_duration_ps(self.duration_s)?;
        if !(self.background_rate_hz >= 0.0 && self.background_rate_hz.is_finite()) {
            return Err(QfcError::invalid("background rate must be finite and ≥ 0"));
        }
        if !(0.0..=1.0).contains(&self.pbs_leakage) {
            return Err(QfcError::invalid("PBS leakage must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.collection_efficiency) {
            return Err(QfcError::invalid("collection efficiency must be in [0, 1]"));
        }
        if !(0..CAR_OFFSET_STEP_PS).contains(&self.coincidence_window_ps) {
            return Err(QfcError::invalid(format!(
                "coincidence window must be in [0, {CAR_OFFSET_STEP_PS}) ps (the CAR's \
                 displaced-window step), got {}",
                self.coincidence_window_ps
            )));
        }
        self.detector.try_validate()?;
        let mut health = HealthReport::pristine();
        let policy = SupervisorPolicy::default();
        supervisor::record_schedule_faults(schedule, self.duration_s, &mut health);
        let relocks =
            supervisor::plan_pump_relocks(schedule, self.duration_s, &policy, seed, &mut health)?;
        let live = supervisor::live_fraction(&relocks, self.duration_s);
        supervisor::partition_channels(
            schedule,
            1,
            self.duration_s,
            &policy,
            "crosspol experiment",
            &mut health,
        )?;
        let linewidth_hz = source.ring().linewidth().hz();
        let rate = source.try_type2_pair_rate(1)?
            * schedule.mean_pump_rate_factor(0.0, self.duration_s, linewidth_hz)
            * live;
        // The task draws Poisson counts from these means, with the
        // schedule's pump steps and dark bursts applied, and sizes its tag
        // lists by them.
        let dark_hz = self.detector.dark_count_rate_hz
            * schedule.mean_dark_multiplier(1, 0.0, self.duration_s);
        try_tags_per_arm("pairs", rate * self.duration_s)?;
        try_tags_per_arm("background photons", self.background_rate_hz * self.duration_s)?;
        try_tags_per_arm("dark counts", dark_hz * cast::to_f64(duration_ps) * 1e-12)?;
        let plan = CrossPolPlan { rate, health };
        Ok((plan, vec![ShardSpec::unit(0, "full".to_owned(), seed)]))
    }

    fn task(
        &self,
        source: &QfcSource,
        _seed: u64,
        schedule: &FaultSchedule,
        plan: &CrossPolPlan,
        spec: &ShardSpec,
    ) -> QfcResult<CrossPolReport> {
        if spec.index != 0 {
            return Err(spec.unplanned(Self::LABEL));
        }
        let (te_stream, tm_stream) = self.arm_streams(source, schedule, plan, spec.seed);
        let car_result = measure_car(
            &te_stream,
            &tm_stream,
            self.coincidence_window_ps,
            CAR_OFFSET_STEP_PS,
            10,
        );
        let car = if car_result.car.is_finite() {
            car_result.car
        } else {
            cast::to_f64(car_result.coincidences)
        };
        Ok(CrossPolReport {
            generated_pair_rate_hz: plan.rate,
            te_singles_hz: te_stream.rate_hz(self.duration_s),
            tm_singles_hz: tm_stream.rate_hz(self.duration_s),
            coincidence_rate_hz: cast::to_f64(car_result.coincidences) / self.duration_s,
            car,
            stimulated_response: fwm::stimulated_suppression(source.ring()),
        })
    }

    fn assemble(
        &self,
        plan: CrossPolPlan,
        mut outputs: impl Iterator<Item = QfcResult<CrossPolReport>>,
    ) -> QfcResult<CrossPolRun> {
        let report = outputs
            .next()
            .ok_or_else(|| QfcError::persistence("crosspol assembly got no output"))??;
        Ok(CrossPolRun {
            report,
            health: plan.health,
        })
    }
}

/// Results of the F5 power sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerSweepReport {
    /// Model OPO threshold, W.
    pub threshold_w: f64,
    /// Fitted log-log slope below threshold.
    pub below_exponent: f64,
    /// Fitted log-log slope of output vs excess pump above threshold.
    pub above_exponent: f64,
    /// The sweep points (pump W, output W).
    pub curve: Vec<(f64, f64)>,
}

impl PowerSweepReport {
    /// Comparison rows (paper: quadratic → linear, threshold 14 mW).
    pub fn to_report(&self) -> ExperimentReport {
        let mut r = ExperimentReport::new("§III OPO power transfer (F5)");
        r.push(Comparison::new(
            "F5",
            "OPO threshold",
            14e-3,
            self.threshold_w,
            "W",
            Expectation::Within { rel_tol: 0.25 },
        ));
        r.push(Comparison::new(
            "F5",
            "below-threshold power-law exponent",
            2.0,
            self.below_exponent,
            "",
            Expectation::Within { rel_tol: 0.1 },
        ));
        r.push(Comparison::new(
            "F5",
            "above-threshold power-law exponent",
            1.0,
            self.above_exponent,
            "",
            Expectation::Within { rel_tol: 0.1 },
        ));
        r
    }
}

/// Runs the F5 power sweep on the source's ring.
///
/// # Errors
///
/// [`QfcError::InsufficientData`] when `points_per_branch < 2`, and
/// [`QfcError`] when a branch's power-law fit fails (fewer than two
/// points with positive pump excess and output).
pub fn run_power_sweep(
    source: &QfcSource,
    points_per_branch: usize,
) -> QfcResult<PowerSweepReport> {
    if points_per_branch < 2 {
        return Err(QfcError::InsufficientData {
            context: format!(
                "power sweep needs at least two points per branch, got {points_per_branch}"
            ),
        });
    }
    let ring = source.ring();
    let p_th = opo::threshold(ring);
    let below = opo::try_transfer_curve(
        ring,
        Power::from_w(p_th.w() * 0.05),
        Power::from_w(p_th.w() * 0.85),
        points_per_branch,
    )?;
    let above = opo::try_transfer_curve(
        ring,
        Power::from_w(p_th.w() * 1.3),
        Power::from_w(p_th.w() * 3.0),
        points_per_branch,
    )?;
    let bx: Vec<f64> = below.iter().map(|p| p.pump_w).collect();
    let by: Vec<f64> = below.iter().map(|p| p.output_w).collect();
    let ax: Vec<f64> = above.iter().map(|p| p.pump_w - p_th.w()).collect();
    let ay: Vec<f64> = above.iter().map(|p| p.output_w).collect();
    let mut curve: Vec<(f64, f64)> = below.iter().map(|p| (p.pump_w, p.output_w)).collect();
    curve.extend(above.iter().map(|p| (p.pump_w, p.output_w)));
    Ok(PowerSweepReport {
        threshold_w: p_th.w(),
        below_exponent: try_fit_power_law(&bx, &by)?.exponent,
        above_exponent: try_fit_power_law(&ax, &ay)?.exponent,
        curve,
    })
}

/// One point of the F6 suppression-vs-offset ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuppressionPoint {
    /// TE/TM grid offset, Hz.
    pub offset_hz: f64,
    /// Cavity power response available to the stimulated product.
    pub stimulated_response: f64,
    /// Spontaneous type-II rate at this offset (should stay flat), Hz.
    pub spontaneous_rate_hz: f64,
}

/// Sweeps the TE/TM offset and records stimulated-FWM suppression vs the
/// (unaffected) spontaneous type-II rate — the F6 design ablation.
pub fn run_suppression_sweep(offsets_ghz: &[f64]) -> Vec<SuppressionPoint> {
    offsets_ghz
        .iter()
        .map(|&off| {
            let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
            b.anchor(Frequency::from_thz(193.4))
                .radius_for_fsr(Frequency::from_ghz(200.0))
                .te_tm_offset(Frequency::from_ghz(off));
            b.coupling_for_linewidth(Frequency::from_hz(110e6));
            let ring = b.build();
            SuppressionPoint {
                offset_hz: off * 1e9,
                stimulated_response: fwm::stimulated_suppression(&ring),
                spontaneous_rate_hz: fwm::type2_pair_rate(
                    &ring,
                    Power::from_mw(1.0),
                    Power::from_mw(1.0),
                    1,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_faults::{Arm, FaultEvent, FaultKind};

    fn run(src: &QfcSource, seed: u64) -> CrossPolReport {
        let cfg = CrossPolConfig::fast_demo();
        try_run_crosspol_experiment(src, &cfg, seed, &FaultSchedule::empty())
            .expect("clean run")
            .report
    }

    #[test]
    fn fast_demo_produces_car_peak() {
        let src = QfcSource::paper_device_type2();
        let report = run(&src, 11);
        assert!(report.coincidence_rate_hz > 0.0);
        assert!(report.car > 2.0, "CAR {}", report.car);
    }

    #[test]
    fn stimulated_process_suppressed_on_paper_device() {
        let src = QfcSource::paper_device_type2();
        let report = run(&src, 12);
        assert!(report.stimulated_response < 1e-4, "{}", report.stimulated_response);
    }

    /// Runs the fast demo with `edit` applied and asserts that the plan
    /// rejects it as an invalid parameter, with no panic on any thread.
    fn assert_rejected_at_plan(edit: impl Fn(&mut CrossPolConfig)) {
        let mut cfg = CrossPolConfig::fast_demo();
        edit(&mut cfg);
        let src = QfcSource::paper_device_type2();
        let outcome = std::panic::catch_unwind(|| {
            try_run_crosspol_experiment(&src, &cfg, 1, &FaultSchedule::empty())
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
    fn non_finite_rate_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.background_rate_hz = f64::INFINITY);
        assert_rejected_at_plan(|cfg| cfg.detector.dark_count_rate_hz = f64::INFINITY);
        assert_rejected_at_plan(|cfg| cfg.detector.jitter_sigma_ps = f64::INFINITY);
    }

    #[test]
    fn tags_past_the_per_arm_bound_are_invalid_parameter() {
        for rate_hz in [1e290, 1e12] {
            assert_rejected_at_plan(|cfg| cfg.background_rate_hz = rate_hz);
            assert_rejected_at_plan(|cfg| cfg.detector.dark_count_rate_hz = rate_hz);
        }
        // About 4e6 pairs per arm over 4e6 s pass; their background does not.
        assert_rejected_at_plan(|cfg| {
            cfg.duration_s = 4e6;
            cfg.detector.dark_count_rate_hz = 0.0;
        });
    }

    /// A TE-arm dropout over [10 s, 30 s): inside it the background and
    /// the pair photons are gone and only dark counts remain, at the dark
    /// rate.
    #[test]
    fn dropout_leaves_only_dark_counts() {
        let src = QfcSource::paper_device_type2();
        let cfg = CrossPolConfig::fast_demo();
        let dropout = FaultKind::DetectorDropout {
            channel: 1,
            arm: Arm::Signal,
        };
        let schedule = FaultSchedule::empty().with(FaultEvent::new(10.0, 20.0, dropout));
        let (plan, specs) = cfg.plan(&src, 15, &schedule).expect("plan");
        let (te, tm) = cfg.arm_streams(&src, &schedule, &plan, specs[0].seed);
        let window_ps = 10_000_000_000_000..30_000_000_000_000;
        let inside = |s: &TagStream| {
            TagStream::from_sorted(
                s.as_slice().iter().copied().filter(|t| window_ps.contains(t)).collect(),
            )
        };
        let darks = cfg.detector.dark_count_rate_hz * 20.0;
        let clicks = inside(&te).len() as f64;
        assert!((clicks - darks).abs() < 4.0 * darks.sqrt(), "{clicks} TE clicks in the dropout");
        let w = cfg.coincidence_window_ps;
        assert!(measure_car(&inside(&te), &inside(&tm), w, CAR_OFFSET_STEP_PS, 10).coincidences <= 1);
        // The TM arm keeps its background: darks plus η·background.
        let eta = cfg.detector.efficiency * cfg.collection_efficiency;
        let tm_clicks = inside(&tm).len() as f64;
        assert!(tm_clicks > darks + 0.5 * eta * cfg.background_rate_hz * 20.0, "{tm_clicks}");
    }

    #[test]
    fn non_finite_scheduled_rate_is_invalid_parameter() {
        let src = QfcSource::paper_device_type2();
        let cfg = CrossPolConfig::fast_demo();
        for kind in [
            FaultKind::PumpPowerStep {
                factor: f64::INFINITY,
            },
            FaultKind::DarkCountBurst {
                channel: Some(1),
                rate_multiplier: f64::INFINITY,
            },
        ] {
            let schedule = FaultSchedule::empty().with(FaultEvent::new(1.0, 1.0, kind));
            let outcome =
                std::panic::catch_unwind(|| try_run_crosspol_experiment(&src, &cfg, 1, &schedule));
            let result = outcome.unwrap_or_else(|_| panic!("{kind:?} panicked"));
            assert!(
                matches!(result, Err(QfcError::InvalidParameter { .. })),
                "{kind:?}: {:?}",
                result.map(|run| run.report)
            );
        }
    }

    #[test]
    fn window_reaching_the_car_step_is_invalid_parameter() {
        assert_rejected_at_plan(|cfg| cfg.coincidence_window_ps = CAR_OFFSET_STEP_PS);
        assert_rejected_at_plan(|cfg| cfg.coincidence_window_ps = i64::MAX);
    }

    #[test]
    fn power_sweep_with_fewer_than_two_points_is_insufficient_data() {
        let src = QfcSource::paper_device_type2();
        for points in [0, 1] {
            let outcome = std::panic::catch_unwind(|| run_power_sweep(&src, points));
            let result = outcome.unwrap_or_else(|_| panic!("{points} points panicked"));
            assert!(
                matches!(result, Err(QfcError::InsufficientData { .. })),
                "{points} points: {result:?}"
            );
        }
    }

    #[test]
    fn power_sweep_shape() {
        let src = QfcSource::paper_device_type2();
        let report = run_power_sweep(&src, 12).expect("power sweep");
        assert!((report.below_exponent - 2.0).abs() < 0.05, "{}", report.below_exponent);
        assert!((report.above_exponent - 1.0).abs() < 0.05, "{}", report.above_exponent);
        assert!((report.threshold_w - 14e-3).abs() < 4e-3, "{}", report.threshold_w);
        assert_eq!(report.curve.len(), 24);
    }

    #[test]
    fn suppression_sweep_monotone_toward_half_fsr() {
        let pts = run_suppression_sweep(&[0.0, 1.0, 10.0, 47.0]);
        assert!(pts[0].stimulated_response > 0.9, "aligned grids resonant");
        assert!(pts[3].stimulated_response < 1e-4);
        // Spontaneous rate unaffected within 20 %.
        let s0 = pts[0].spontaneous_rate_hz;
        for p in &pts {
            assert!((p.spontaneous_rate_hz - s0).abs() / s0 < 0.2);
        }
    }

    #[test]
    fn report_rows() {
        let src = QfcSource::paper_device_type2();
        let report = run(&src, 13);
        assert_eq!(report.to_report().comparisons.len(), 2);
        let sweep = run_power_sweep(&src, 8).expect("power sweep").to_report();
        assert!(sweep.all_pass(), "{}", sweep.render());
    }

    #[test]
    fn stress_schedule_survives_with_finite_car() {
        let src = QfcSource::paper_device_type2();
        let cfg = CrossPolConfig::fast_demo();
        let schedule = FaultSchedule::stress(5, cfg.duration_s);
        let run = try_run_crosspol_experiment(&src, &cfg, 14, &schedule)
            .expect("run survives the stress schedule");
        assert!(!run.health.is_pristine());
        assert!(run.report.car.is_finite());
        assert!(run.report.coincidence_rate_hz.is_finite());
    }

    #[test]
    fn wrong_regime_is_a_taxonomy_error() {
        // The CW paper device is not bichromatically pumped.
        let err = try_run_crosspol_experiment(
            &QfcSource::paper_device(),
            &CrossPolConfig::fast_demo(),
            1,
            &FaultSchedule::empty(),
        )
        .expect_err("regime mismatch");
        assert!(matches!(err, QfcError::RegimeMismatch { .. }));
    }
}
