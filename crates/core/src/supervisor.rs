//! Experiment supervision: turns scheduled faults into recovery actions.
//!
//! The supervisor owns the three degradation policies of the pipeline:
//!
//! * **pump re-lock** — each [`FaultKind::PumpLockLoss`] window costs its
//!   own outage plus an exponential-backoff re-acquisition sequence;
//! * **channel quarantine** — a multiplexed channel whose detectors are
//!   dead for too large a fraction of the run is dropped from the
//!   analysis instead of poisoning it;
//! * **estimator fallback** — a diverging MLE reconstruction falls back
//!   to linear inversion + physical projection.
//!
//! Everything here is deterministic in the run seed: re-lock attempt
//! draws come from the dedicated fault seed domain
//! ([`FAULT_SEED_DOMAIN`]), split per lock-loss event, so results are
//! identical at any thread count.
//!
//! [`FaultKind::PumpLockLoss`]: qfc_faults::FaultKind::PumpLockLoss

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_faults::{
    Arm, FaultSchedule, HealthReport, QfcError, QfcResult, FAULT_SEED_DOMAIN,
};
use qfc_mathkit::rng::{bernoulli, rng_from_seed, split_seed};
use qfc_timetag::detector::SinglePhotonDetector;
use qfc_timetag::events::TagStream;
use qfc_tomography::counts::TomographyData;
use qfc_tomography::reconstruct::{
    try_linear_reconstruction, try_mle_reconstruction, MleOptions, MleResult,
};

/// The seed of fault-handling lane `lane` of a run seeded with `seed`.
///
/// All supervisor randomness (re-lock attempts, …) lives in the
/// [`FAULT_SEED_DOMAIN`] sub-tree of the run seed, so an empty fault
/// schedule leaves every physics RNG stream untouched and fault handling
/// itself is thread-count invariant.
pub fn fault_stream(seed: u64, lane: u64) -> u64 {
    split_seed(split_seed(seed, FAULT_SEED_DOMAIN), lane)
}

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorPolicy {
    /// Maximum pump re-lock attempts before the run is abandoned.
    pub max_relock_attempts: u32,
    /// Outage cost of the first re-lock attempt, s; attempt `k` costs
    /// `relock_base_s · 2^(k−1)` (exponential backoff).
    pub relock_base_s: f64,
    /// Per-attempt re-lock success probability.
    pub relock_success_prob: f64,
    /// A channel whose signal or idler detector is dead for at least this
    /// fraction of the run is quarantined.
    pub quarantine_dead_fraction: f64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_relock_attempts: 6,
            relock_base_s: 0.02,
            relock_success_prob: 0.7,
            quarantine_dead_fraction: 0.5,
        }
    }
}

/// One recovered pump-lock loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelockOutcome {
    /// When the lock was lost, s into the run.
    pub start_s: f64,
    /// Length of the scheduled lock-loss window, s.
    pub fault_duration_s: f64,
    /// Re-lock attempts needed.
    pub attempts: u32,
    /// Integration time spent backing off between attempts, s.
    pub backoff_s: f64,
}

impl RelockOutcome {
    /// Total integration time lost to this event, s.
    pub fn total_outage_s(&self) -> f64 {
        self.fault_duration_s + self.backoff_s
    }
}

/// Records every scheduled fault overlapping `[0, duration_s)` in the
/// health report (drivers call this once, up front).
pub fn record_schedule_faults(
    schedule: &FaultSchedule,
    duration_s: f64,
    health: &mut HealthReport,
) {
    for e in schedule.overlapping(0.0, duration_s) {
        health.record_fault(e.kind.label(), e.start_s, e.duration_s);
    }
}

/// Plans the recovery of every pump lock-loss window in the schedule:
/// each event draws re-lock attempts (success probability
/// [`SupervisorPolicy::relock_success_prob`] per attempt, exponential
/// backoff) from its own [`fault_stream`] lane, and the outages are
/// recorded in `health`.
///
/// # Errors
///
/// [`QfcError::LockReacquisitionFailed`] when any event exhausts
/// [`SupervisorPolicy::max_relock_attempts`].
pub fn plan_pump_relocks(
    schedule: &FaultSchedule,
    duration_s: f64,
    policy: &SupervisorPolicy,
    seed: u64,
    health: &mut HealthReport,
) -> QfcResult<Vec<RelockOutcome>> {
    let events = schedule.lock_loss_events(duration_s);
    let mut outcomes = Vec::with_capacity(events.len());
    for (k, e) in events.iter().enumerate() {
        // Lane 0 is reserved; lock-loss event k uses lane k + 1.
        let mut rng = rng_from_seed(fault_stream(seed, cast::usize_to_u64(k) + 1));
        let mut attempts = 0u32;
        let mut backoff_s = 0.0;
        loop {
            if attempts >= policy.max_relock_attempts {
                return Err(QfcError::LockReacquisitionFailed { attempts });
            }
            attempts += 1;
            backoff_s += policy.relock_base_s * f64::from(1u32 << (attempts - 1).min(20));
            if bernoulli(&mut rng, policy.relock_success_prob) {
                break;
            }
        }
        let outcome = RelockOutcome {
            start_s: e.start_s,
            fault_duration_s: e.overlap_s(0.0, duration_s),
            attempts,
            backoff_s,
        };
        health.record_relock(attempts, outcome.total_outage_s());
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Live-time fraction of the run after the planned outages (clamped to a
/// small positive floor so rate normalizations stay finite).
pub fn live_fraction(outcomes: &[RelockOutcome], duration_s: f64) -> f64 {
    if duration_s <= 0.0 {
        return 1.0;
    }
    let lost: f64 = outcomes.iter().map(RelockOutcome::total_outage_s).sum();
    (1.0 - lost / duration_s).clamp(1e-3, 1.0)
}

/// Partitions channels `1..=channels` into survivors and quarantined:
/// a channel is quarantined when either arm's detector is dead for at
/// least [`SupervisorPolicy::quarantine_dead_fraction`] of the run.
///
/// # Errors
///
/// [`QfcError::ChannelsExhausted`] when no channel survives.
pub fn partition_channels(
    schedule: &FaultSchedule,
    channels: u32,
    duration_s: f64,
    policy: &SupervisorPolicy,
    context: &str,
    health: &mut HealthReport,
) -> QfcResult<Vec<u32>> {
    let mut survivors = Vec::with_capacity(cast::u32_to_usize(channels));
    for m in 1..=channels {
        let dead_sig = schedule.dead_fraction(m, Arm::Signal, 0.0, duration_s);
        let dead_idl = schedule.dead_fraction(m, Arm::Idler, 0.0, duration_s);
        let worst = dead_sig.max(dead_idl);
        if worst >= policy.quarantine_dead_fraction {
            let arm = if dead_sig >= dead_idl { "signal" } else { "idler" };
            health.record_quarantine(
                m,
                format!("{arm} detector dead for {:.0} % of the run", worst * 100.0),
            );
        } else {
            survivors.push(m);
        }
    }
    if survivors.is_empty() {
        return Err(QfcError::ChannelsExhausted {
            context: context.to_owned(),
        });
    }
    Ok(survivors)
}

/// An MLE run whose certified likelihood gap is still above this many
/// nats (or non-finite) when its iteration budget runs out is diverging
/// rather than merely converging slowly: a budget that ends short of the
/// 0.5-nat stop leaves gaps of a few nats, and those reconstructions are
/// perfectly usable, while an MLE cut off after one step from the
/// maximally mixed state is thousands of nats from the maximum.
pub const MLE_DIVERGENCE_GAP_NATS: f64 = 10.0;

/// MLE reconstruction with the divergence fallback: when the RρR
/// iteration *diverges* (its certified gap is non-finite or still above
/// [`MLE_DIVERGENCE_GAP_NATS`] when the iteration budget runs out) or
/// errors out on degenerate data (all-dark counts, a trace-annihilating
/// or non-finite update), the supervisor swaps in linear inversion +
/// physical projection and records the fallback. A run that merely
/// misses the 0.5-nat certificate is returned as-is with
/// `converged: false`. The fallback state carries no certificate: its
/// gap is infinite.
///
/// # Errors
///
/// Propagates the linear-inversion error when the fallback itself cannot
/// produce a state (informationally incomplete or structurally invalid
/// data — those degeneracies defeat linear inversion too).
pub fn reconstruct_with_fallback(
    data: &TomographyData,
    options: &MleOptions,
    health: &mut HealthReport,
) -> QfcResult<MleResult> {
    let iterations = match try_mle_reconstruction(data, options) {
        Ok(mle) if mle.gap_nats <= MLE_DIVERGENCE_GAP_NATS => return Ok(mle),
        Ok(mle) => mle.iterations,
        // Degenerate data never reached a usable iterate; report zero
        // effective progress and let linear inversion decide whether the
        // data supports any reconstruction at all.
        Err(_) => 0,
    };
    health.record_fallback("MLE", "linear inversion");
    let rho = try_linear_reconstruction(data)?;
    Ok(MleResult {
        rho,
        iterations,
        gap_nats: f64::INFINITY,
        converged: false,
        accelerated_steps: 0,
    })
}

/// Detects channel `m`'s pair `arrivals` (signal, idler) under
/// `schedule`, for the §II and §III tasks. Each arm draws from its own
/// lane, `split_seed(lane, 1)` and `split_seed(lane, 2)` (the pair
/// arrivals take lane 0). `detector` sees the schedule's mean dark-rate
/// multiplier and `background_hz` of uncorrelated photons; the arm's
/// dropouts blind it, and TDC saturation caps its clicks.
pub fn detect_arms(
    schedule: &FaultSchedule,
    m: u32,
    lane: u64,
    mut detector: SinglePhotonDetector,
    background_hz: f64,
    duration_s: f64,
    arrivals: (Vec<i64>, Vec<i64>),
) -> (TagStream, TagStream) {
    detector.dark_count_rate_hz *= schedule.mean_dark_multiplier(m, 0.0, duration_s);
    let duration_ps = cast::f64_to_i64(duration_s * 1e12);
    let detect = |arm: Arm, photons: Vec<i64>| {
        let mut rng = rng_from_seed(split_seed(lane, if arm == Arm::Signal { 1 } else { 2 }));
        let clicks = detector.detect(&mut rng, photons, background_hz, duration_ps, |t| {
            schedule.detector_dead_at(m, arm, cast::to_f64(t) * 1e-12)
        });
        apply_tdc_saturation(clicks, schedule)
    };
    (detect(Arm::Signal, arrivals.0), detect(Arm::Idler, arrivals.1))
}

/// Drops clicks that exceed an active TDC saturation cap: within each
/// saturation window, only the earliest `cap · window` clicks survive.
/// Pure (no RNG), so it preserves determinism and is an exact no-op for
/// schedules without saturation events.
fn apply_tdc_saturation(stream: TagStream, schedule: &FaultSchedule) -> TagStream {
    let windows: Vec<(f64, f64, f64)> = schedule
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            qfc_faults::FaultKind::TdcSaturation { max_rate_hz } => {
                Some((e.start_s, e.end_s(), max_rate_hz))
            }
            _ => None,
        })
        .collect();
    if windows.is_empty() {
        return stream;
    }
    let mut kept = Vec::with_capacity(stream.len());
    let mut counts = vec![0usize; windows.len()];
    'clicks: for &t in stream.as_slice() {
        let t_s = cast::to_f64(t) * 1e-12;
        for (w, &(a, b, cap)) in windows.iter().enumerate() {
            if t_s >= a && t_s < b {
                let allowed = cast::f64_to_usize(((b - a) * cap.max(0.0)).floor());
                if counts[w] >= allowed {
                    continue 'clicks;
                }
                counts[w] += 1;
            }
        }
        kept.push(t);
    }
    TagStream::from_sorted(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_faults::{FaultEvent, FaultKind};

    fn lock_loss_schedule(n: usize) -> FaultSchedule {
        let mut s = FaultSchedule::empty();
        for k in 0..n {
            s = s.with(FaultEvent::new(
                1.0 + k as f64,
                0.2,
                FaultKind::PumpLockLoss,
            ));
        }
        s
    }

    #[test]
    fn relocks_are_deterministic_and_recorded() {
        let schedule = lock_loss_schedule(3);
        let policy = SupervisorPolicy::default();
        let mut h1 = HealthReport::pristine();
        let out1 = plan_pump_relocks(&schedule, 10.0, &policy, 99, &mut h1)
            .expect("relocks succeed");
        let mut h2 = HealthReport::pristine();
        let out2 = plan_pump_relocks(&schedule, 10.0, &policy, 99, &mut h2)
            .expect("relocks succeed");
        assert_eq!(out1, out2);
        assert_eq!(h1, h2);
        assert_eq!(out1.len(), 3);
        assert!(h1.outage_s > 0.0);
        assert_eq!(h1.recovery_actions.len(), 3);
        for o in &out1 {
            assert!(o.attempts >= 1 && o.attempts <= policy.max_relock_attempts);
            assert!(o.backoff_s >= policy.relock_base_s);
        }
    }

    #[test]
    fn impossible_relock_fails_with_taxonomy_error() {
        let schedule = lock_loss_schedule(1);
        let policy = SupervisorPolicy {
            relock_success_prob: 0.0,
            ..SupervisorPolicy::default()
        };
        let mut h = HealthReport::pristine();
        let err = plan_pump_relocks(&schedule, 10.0, &policy, 7, &mut h)
            .expect_err("cannot relock");
        assert!(matches!(err, QfcError::LockReacquisitionFailed { .. }));
        assert!(err.to_string().contains("reacquisition failed"));
    }

    /// Replays the supervisor's own draw protocol — one dedicated
    /// `fault_stream` lane per lock-loss event, one bernoulli per
    /// attempt — and demands `plan_pump_relocks` land on exactly the
    /// replayed attempt counts and the exact closed-form backoff ladder
    /// `Σ_{j=1..n} base·2^(j−1) = base·(2^n − 1)`, bit for bit.
    #[test]
    fn relock_backoff_follows_the_exact_deterministic_ladder() {
        let seed = 20177;
        let policy = SupervisorPolicy::default();
        let schedule = lock_loss_schedule(4);
        let mut health = HealthReport::pristine();
        let outcomes =
            plan_pump_relocks(&schedule, 10.0, &policy, seed, &mut health).expect("relocks");
        assert_eq!(outcomes.len(), 4);
        for (k, outcome) in outcomes.iter().enumerate() {
            // Independent replay of event k's dedicated lane (k + 1;
            // lane 0 is reserved).
            let mut rng = rng_from_seed(fault_stream(seed, cast::usize_to_u64(k) + 1));
            let mut expected_attempts = 0u32;
            while !bernoulli(&mut rng, policy.relock_success_prob) {
                expected_attempts += 1;
                assert!(expected_attempts < policy.max_relock_attempts, "replay diverged");
            }
            expected_attempts += 1;
            assert_eq!(outcome.attempts, expected_attempts, "event {k} attempts");
            let expected_backoff: f64 = (1..=expected_attempts)
                .map(|j| policy.relock_base_s * f64::from(1u32 << (j - 1)))
                .sum();
            assert_eq!(
                outcome.backoff_s.to_bits(),
                expected_backoff.to_bits(),
                "event {k}: backoff {} ≠ ladder {expected_backoff}",
                outcome.backoff_s
            );
            // Closed form of the same ladder.
            let closed = policy.relock_base_s
                * (f64::from(1u32 << expected_attempts) - 1.0);
            assert!((outcome.backoff_s - closed).abs() < 1e-15);
        }
        // Planning is a pure function of (schedule, seed): replanning
        // reproduces identical outcomes.
        let mut h2 = HealthReport::pristine();
        let again =
            plan_pump_relocks(&schedule, 10.0, &policy, seed, &mut h2).expect("relocks");
        assert_eq!(outcomes, again);
    }

    /// The fault-handling draws live in their own seed domain: no
    /// `fault_stream` lane may collide with a physics lane
    /// (`split_seed(seed, d)` for the small domain indices the drivers
    /// use), so planning relocks can never perturb a physics stream.
    #[test]
    fn fault_stream_lanes_are_disjoint_from_physics_lanes() {
        for seed in [0u64, 7, 20177, u64::MAX] {
            for lane in 0..16u64 {
                let fault_seed = fault_stream(seed, lane);
                for domain in 0..64u64 {
                    assert_ne!(
                        fault_seed,
                        split_seed(seed, domain),
                        "fault lane {lane} collides with physics domain {domain} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn live_fraction_accounts_for_outages() {
        let outcomes = [RelockOutcome {
            start_s: 1.0,
            fault_duration_s: 1.0,
            attempts: 1,
            backoff_s: 0.5,
        }];
        let f = live_fraction(&outcomes, 10.0);
        assert!((f - 0.85).abs() < 1e-12, "f = {f}");
        assert_eq!(live_fraction(&[], 10.0), 1.0);
    }

    #[test]
    fn quarantine_partitions_channels() {
        // Channel 2's idler dead for 80 % of a 10 s run.
        let schedule = FaultSchedule::empty().with(FaultEvent::new(
            1.0,
            8.0,
            FaultKind::DetectorDropout {
                channel: 2,
                arm: Arm::Idler,
            },
        ));
        let policy = SupervisorPolicy::default();
        let mut h = HealthReport::pristine();
        let survivors =
            partition_channels(&schedule, 3, 10.0, &policy, "test", &mut h)
                .expect("survivors remain");
        assert_eq!(survivors, vec![1, 3]);
        assert_eq!(h.quarantined_channels, vec![2]);
        assert!(h.is_degraded());
    }

    #[test]
    fn all_channels_dead_is_an_error() {
        let mut schedule = FaultSchedule::empty();
        for m in 1..=2 {
            schedule = schedule.with(FaultEvent::new(
                0.0,
                10.0,
                FaultKind::DetectorDropout {
                    channel: m,
                    arm: Arm::Signal,
                },
            ));
        }
        let mut h = HealthReport::pristine();
        let err = partition_channels(
            &schedule,
            2,
            10.0,
            &SupervisorPolicy::default(),
            "heralded",
            &mut h,
        )
        .expect_err("nothing survives");
        assert!(matches!(err, QfcError::ChannelsExhausted { .. }));
        assert!(err.to_string().contains("heralded"));
    }

    #[test]
    fn diverging_mle_falls_back_to_linear_inversion() {
        use qfc_quantum::bell::bell_phi;
        use qfc_quantum::density::DensityMatrix;
        use qfc_tomography::settings::all_settings;
        use qfc_tomography::stream::try_stream_counts_seeded;

        let rho = DensityMatrix::from_pure(&bell_phi(0.0));
        let data = try_stream_counts_seeded(&rho, &all_settings(2), 400, 11).expect("counts");
        // One iteration leaves 400-shot data thousands of nats short.
        let opts = MleOptions { max_iterations: 1 };
        let mut h = HealthReport::pristine();
        let res = reconstruct_with_fallback(&data, &opts, &mut h)
            .expect("fallback succeeds");
        assert!(!res.converged);
        assert!(h.is_degraded());
        assert!(h
            .recovery_actions
            .iter()
            .any(|a| matches!(a, qfc_faults::RecoveryAction::Fallback { .. })));
        // The fallback state is still a valid density matrix near the
        // target.
        let f = qfc_quantum::fidelity::fidelity_with_pure(&res.rho, &bell_phi(0.0));
        assert!(f > 0.8, "fallback fidelity {f}");
    }

    #[test]
    fn empty_schedule_is_a_no_op() {
        let mut h = HealthReport::pristine();
        let policy = SupervisorPolicy::default();
        let out = plan_pump_relocks(&FaultSchedule::empty(), 10.0, &policy, 1, &mut h)
            .expect("nothing to relock");
        assert!(out.is_empty());
        let survivors =
            partition_channels(&FaultSchedule::empty(), 5, 10.0, &policy, "x", &mut h)
                .expect("all survive");
        assert_eq!(survivors, vec![1, 2, 3, 4, 5]);
        record_schedule_faults(&FaultSchedule::empty(), 10.0, &mut h);
        assert!(h.is_pristine());
    }
}
