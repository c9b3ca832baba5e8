//! Deterministic, seeded, composable fault schedules.
//!
//! A [`FaultSchedule`] is pure data: a list of [`FaultEvent`]s, each a
//! time window plus a [`FaultKind`]. Experiment drivers *query* the
//! schedule (rate factors, dead fractions, phase offsets, …) — they never
//! mutate it — so an empty schedule has **zero observable effect** on a
//! run, and a non-empty schedule perturbs a run identically at any
//! thread count (all queries are pure functions of `(schedule, window)`,
//! and any randomness a driver needs to *realize* a fault comes from a
//! dedicated split-seed domain that is never drawn from when the
//! schedule is empty).

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_mathkit::rng::split_seed;

/// Which arm of a channel pair a detector fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arm {
    /// Signal arm (TE arm in the cross-polarized experiment).
    Signal,
    /// Idler arm (TM arm in the cross-polarized experiment).
    Idler,
}

/// The failure modes a deployed quantum frequency comb actually sees:
/// detector faults, pump faults, thermal drift, interferometer phase
/// noise, and acquisition-electronics saturation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// One arm's detector goes dead (bias trip, gate dropout): no clicks
    /// — real or dark — while active.
    DetectorDropout {
        /// Channel-pair index hit (1-based, as in the drivers).
        channel: u32,
        /// Which arm.
        arm: Arm,
    },
    /// A dark-count burst (afterpulsing avalanche, stray light): the
    /// dark-count rate is multiplied while active.
    DarkCountBurst {
        /// Channel hit, or `None` for every channel.
        channel: Option<u32>,
        /// Multiplier on the dark-count rate (≥ 1 for a burst).
        rate_multiplier: f64,
    },
    /// The pump power steps to `factor` × nominal while active
    /// (pair rates scale as `factor²`).
    PumpPowerStep {
        /// Pump power factor (> 0; 1 = nominal).
        factor: f64,
    },
    /// The self-locked pump drops out of resonance: no pairs are
    /// generated from the event start until the supervisor re-locks.
    PumpLockLoss,
    /// Thermal detuning ramp: the pump-resonance detuning rises
    /// triangularly to `peak_hz` at the window midpoint and back.
    ThermalDetuning {
        /// Peak detuning, Hz.
        peak_hz: f64,
    },
    /// An interferometer phase jump of `rad` while active (fiber stress,
    /// stabilization glitch).
    PhaseJump {
        /// Phase offset, rad.
        rad: f64,
    },
    /// The time-to-digital converter saturates: at most `max_rate_hz`
    /// tags per second survive on each arm while active.
    TdcSaturation {
        /// Maximum sustained tag rate, Hz.
        max_rate_hz: f64,
    },
    /// Campaign-level crash injection: the acquisition process dies while
    /// the named shard is in flight. Shards that completed before it keep
    /// their checkpoints; the run reports
    /// `QfcError::CampaignInterrupted` and must be resumed. Queried by
    /// the campaign engine only — every physics query ignores it, and the
    /// event's time window is ignored (campaign faults are keyed by
    /// shard, not by run time).
    ShardAbort {
        /// Shard index (0-based, as in the campaign manifest).
        shard: u32,
    },
    /// Campaign-level executor fault: the named shard's first `failures`
    /// execution attempts fail (node loss, OOM kill), exercising the
    /// retry/backoff path. `failures >= max_attempts` exhausts the retry
    /// budget and quarantines the shard. Physics queries ignore it.
    ShardExecutorFault {
        /// Shard index (0-based).
        shard: u32,
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// Campaign-level storage fault: the named shard's checkpoint bytes
    /// are corrupted after the first successful write (torn write, bit
    /// rot). Resume must detect the bad content hash, reject the
    /// checkpoint, and recompute the shard. Physics queries ignore it.
    CheckpointCorruption {
        /// Shard index (0-based).
        shard: u32,
    },
    /// Campaign-level storage fault: the named shard's checkpoint is
    /// replaced by one carrying a mismatched campaign fingerprint (a
    /// stale leftover from a different config or seed). Resume must
    /// reject it and recompute the shard. Physics queries ignore it.
    CheckpointStale {
        /// Shard index (0-based).
        shard: u32,
    },
}

impl FaultKind {
    /// Short human-readable label for health reporting.
    pub fn label(&self) -> String {
        match self {
            Self::DetectorDropout { channel, arm } => {
                format!("detector dropout (ch {channel}, {arm:?} arm)")
            }
            Self::DarkCountBurst {
                channel,
                rate_multiplier,
            } => match channel {
                Some(c) => format!("dark-count burst ×{rate_multiplier:.2} (ch {c})"),
                None => format!("dark-count burst ×{rate_multiplier:.2} (all channels)"),
            },
            Self::PumpPowerStep { factor } => format!("pump power step ×{factor:.3}"),
            Self::PumpLockLoss => "pump lock loss".to_owned(),
            Self::ThermalDetuning { peak_hz } => {
                format!("thermal detuning ramp to {:.1} MHz", peak_hz / 1e6)
            }
            Self::PhaseJump { rad } => format!("interferometer phase jump {rad:.3} rad"),
            Self::TdcSaturation { max_rate_hz } => {
                format!("TDC saturation at {max_rate_hz:.0} Hz")
            }
            Self::ShardAbort { shard } => format!("shard {shard} aborted mid-flight"),
            Self::ShardExecutorFault { shard, failures } => {
                format!("shard {shard} executor fault ({failures} failed attempts)")
            }
            Self::CheckpointCorruption { shard } => {
                format!("shard {shard} checkpoint corrupted")
            }
            Self::CheckpointStale { shard } => format!("shard {shard} checkpoint stale"),
        }
    }
}

/// One fault: a kind active over `[start_s, start_s + duration_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Window start, s into the run.
    pub start_s: f64,
    /// Window length, s.
    pub duration_s: f64,
    /// What fails.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Creates an event.
    pub fn new(start_s: f64, duration_s: f64, kind: FaultKind) -> Self {
        Self {
            start_s,
            duration_s,
            kind,
        }
    }

    /// Window end, s.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// `true` when the event is active at time `t_s`.
    pub fn active_at(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s()
    }

    /// Overlap of the event window with `[t0, t1)`, s.
    pub fn overlap_s(&self, t0: f64, t1: f64) -> f64 {
        (self.end_s().min(t1) - self.start_s.max(t0)).max(0.0)
    }

    /// Fractional progress through the event window at `t_s`, in `[0, 1]`.
    fn progress(&self, t_s: f64) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        ((t_s - self.start_s) / self.duration_s).clamp(0.0, 1.0)
    }
}

/// Number of midpoint samples used by windowed-mean queries. Fixed so the
/// queries are pure functions of the window, independent of any machine
/// property.
const MEAN_SAMPLES: usize = 64;

/// The RNG-domain tag for fault realization streams: drivers derive
/// their fault randomness from `split_seed(seed, FAULT_SEED_DOMAIN)` so
/// it can never collide with (or perturb) the physics streams, which use
/// small split indices.
pub const FAULT_SEED_DOMAIN: u64 = 0xFA17_5EED;

/// A deterministic, composable schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule — guaranteed to have no observable effect on
    /// any run.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a schedule from events.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// A seeded pseudo-random stress schedule covering every fault kind,
    /// spread over `duration_s` — the canonical input of the fault-matrix
    /// smoke run and chaos tests. Deterministic in `seed`.
    pub fn stress(seed: u64, duration_s: f64) -> Self {
        // Derive window positions from the seed without an RNG object so
        // the layout is a trivially auditable function of the seed.
        let frac = |k: u64| cast::to_f64(split_seed(seed, k) % 1000) / 1000.0;
        let w = duration_s / 12.0;
        let at = |k: u64| frac(k) * duration_s * 0.8;
        Self::from_events(vec![
            FaultEvent::new(
                at(1),
                2.0 * w,
                FaultKind::DetectorDropout {
                    channel: 1 + cast::u64_low32(split_seed(seed, 8) % 3),
                    arm: if split_seed(seed, 9).is_multiple_of(2) {
                        Arm::Signal
                    } else {
                        Arm::Idler
                    },
                },
            ),
            FaultEvent::new(
                at(2),
                w,
                FaultKind::DarkCountBurst {
                    channel: None,
                    rate_multiplier: 3.0 + 7.0 * frac(10),
                },
            ),
            FaultEvent::new(
                at(3),
                2.0 * w,
                FaultKind::PumpPowerStep {
                    factor: 0.4 + 0.5 * frac(11),
                },
            ),
            FaultEvent::new(at(4), 0.5 * w, FaultKind::PumpLockLoss),
            FaultEvent::new(
                at(5),
                3.0 * w,
                FaultKind::ThermalDetuning {
                    peak_hz: 40e6 + 80e6 * frac(12),
                },
            ),
            FaultEvent::new(
                at(6),
                w,
                FaultKind::PhaseJump {
                    rad: 0.3 + 1.2 * frac(13),
                },
            ),
            FaultEvent::new(
                at(7),
                w,
                FaultKind::TdcSaturation {
                    max_rate_hz: 2000.0 + 8000.0 * frac(14),
                },
            ),
        ])
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Appends an event (builder-style).
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Events whose window overlaps `[t0, t1)`.
    pub fn overlapping(&self, t0: f64, t1: f64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.overlap_s(t0, t1) > 0.0)
    }

    /// Instantaneous pair-rate factor from pump power steps and thermal
    /// detuning at time `t_s` (lock loss is handled separately by the
    /// supervisor, which turns it into recovery outages).
    ///
    /// Power steps scale the rate as `factor²` (spontaneous FWM is
    /// quadratic in pump power); thermal detuning passes the pump through
    /// the squared Lorentzian power response of the resonance of loaded
    /// linewidth `linewidth_hz` (both pump photons must enter).
    pub fn pump_rate_factor(&self, t_s: f64, linewidth_hz: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if !e.active_at(t_s) {
                continue;
            }
            match e.kind {
                FaultKind::PumpPowerStep { factor } => {
                    f *= (factor * factor).max(0.0);
                }
                FaultKind::ThermalDetuning { peak_hz } => {
                    // Triangular ramp: 0 → peak → 0 across the window.
                    let p = e.progress(t_s);
                    let det = peak_hz * (1.0 - (2.0 * p - 1.0).abs());
                    let x = 2.0 * det / linewidth_hz.max(1.0);
                    let response = 1.0 / (1.0 + x * x);
                    f *= response * response;
                }
                _ => {}
            }
        }
        f
    }

    /// Mean of [`Self::pump_rate_factor`] over `[t0, t1)` (fixed
    /// midpoint-rule sampling — a pure function of the window).
    pub fn mean_pump_rate_factor(&self, t0: f64, t1: f64, linewidth_hz: f64) -> f64 {
        if self.is_empty() || t1 <= t0 {
            return 1.0;
        }
        let dt = (t1 - t0) / cast::to_f64(MEAN_SAMPLES);
        (0..MEAN_SAMPLES)
            .map(|i| self.pump_rate_factor(t0 + (cast::to_f64(i) + 0.5) * dt, linewidth_hz))
            .sum::<f64>()
            / cast::to_f64(MEAN_SAMPLES)
    }

    /// Fraction of `[t0, t1)` during which the detector on `(channel,
    /// arm)` is dead, with overlapping dropout windows merged.
    pub fn dead_fraction(&self, channel: u32, arm: Arm, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut spans: Vec<(f64, f64)> = self
            .events
            .iter()
            .filter(|e| {
                matches!(e.kind, FaultKind::DetectorDropout { channel: c, arm: a }
                    if c == channel && a == arm)
            })
            .map(|e| (e.start_s.max(t0), e.end_s().min(t1)))
            .filter(|(a, b)| b > a)
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = t0;
        for (a, b) in spans {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        covered / (t1 - t0)
    }

    /// `true` when the detector on `(channel, arm)` is dead at `t_s`.
    pub fn detector_dead_at(&self, channel: u32, arm: Arm, t_s: f64) -> bool {
        self.events.iter().any(|e| {
            e.active_at(t_s)
                && matches!(e.kind, FaultKind::DetectorDropout { channel: c, arm: a }
                    if c == channel && a == arm)
        })
    }

    /// Instantaneous dark-count-rate multiplier for `channel` at `t_s`.
    pub fn dark_multiplier(&self, channel: u32, t_s: f64) -> f64 {
        let mut m = 1.0;
        for e in &self.events {
            if !e.active_at(t_s) {
                continue;
            }
            if let FaultKind::DarkCountBurst {
                channel: c,
                rate_multiplier,
            } = e.kind
            {
                if c.is_none() || c == Some(channel) {
                    m *= rate_multiplier.max(0.0);
                }
            }
        }
        m
    }

    /// Mean dark-count multiplier for `channel` over `[t0, t1)`.
    pub fn mean_dark_multiplier(&self, channel: u32, t0: f64, t1: f64) -> f64 {
        if self.is_empty() || t1 <= t0 {
            return 1.0;
        }
        let dt = (t1 - t0) / cast::to_f64(MEAN_SAMPLES);
        (0..MEAN_SAMPLES)
            .map(|i| self.dark_multiplier(channel, t0 + (cast::to_f64(i) + 0.5) * dt))
            .sum::<f64>()
            / cast::to_f64(MEAN_SAMPLES)
    }

    /// Instantaneous interferometer phase offset at `t_s` (sum of active
    /// jumps), rad.
    pub fn phase_offset(&self, t_s: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(t_s))
            .map(|e| match e.kind {
                FaultKind::PhaseJump { rad } => rad,
                _ => 0.0,
            })
            .sum()
    }

    /// Mean phase offset over `[t0, t1)`, rad.
    pub fn mean_phase_offset(&self, t0: f64, t1: f64) -> f64 {
        if self.is_empty() || t1 <= t0 {
            return 0.0;
        }
        let dt = (t1 - t0) / cast::to_f64(MEAN_SAMPLES);
        (0..MEAN_SAMPLES)
            .map(|i| self.phase_offset(t0 + (cast::to_f64(i) + 0.5) * dt))
            .sum::<f64>()
            / cast::to_f64(MEAN_SAMPLES)
    }

    /// The lowest shard index named by a [`FaultKind::ShardAbort`]
    /// event, if any — the campaign engine's crash-injection query.
    ///
    /// Campaign queries ignore the event's time window: campaign faults
    /// are keyed by shard index, not by run time, so a schedule built
    /// with any `(start_s, duration_s)` behaves identically.
    pub fn shard_abort(&self) -> Option<u32> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ShardAbort { shard } => Some(shard),
                _ => None,
            })
            .min()
    }

    /// Number of leading execution attempts that fail for `shard`
    /// (summed over [`FaultKind::ShardExecutorFault`] events naming it).
    pub fn shard_executor_failures(&self, shard: u32) -> u32 {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::ShardExecutorFault { shard: s, failures } if s == shard => failures,
                _ => 0,
            })
            .sum()
    }

    /// `true` when `shard`'s checkpoint should be corrupted after its
    /// first successful write ([`FaultKind::CheckpointCorruption`]).
    pub fn checkpoint_corruption(&self, shard: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FaultKind::CheckpointCorruption { shard: s } if s == shard)
        })
    }

    /// `true` when `shard`'s checkpoint should be replaced by a stale
    /// one from a mismatched campaign ([`FaultKind::CheckpointStale`]).
    pub fn checkpoint_stale(&self, shard: u32) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CheckpointStale { shard: s } if s == shard))
    }

    /// The lock-loss events overlapping `[0, duration_s)`, in start
    /// order — the supervisor's input.
    pub fn lock_loss_events(&self, duration_s: f64) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = self
            .events
            .iter()
            .copied()
            .filter(|e| matches!(e.kind, FaultKind::PumpLockLoss) && e.overlap_s(0.0, duration_s) > 0.0)
            .collect();
        out.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_identity() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.pump_rate_factor(1.0, 110e6), 1.0);
        assert_eq!(s.mean_pump_rate_factor(0.0, 10.0, 110e6), 1.0);
        assert_eq!(s.dead_fraction(1, Arm::Signal, 0.0, 10.0), 0.0);
        assert_eq!(s.dark_multiplier(1, 1.0), 1.0);
        assert_eq!(s.phase_offset(1.0), 0.0);
    }

    #[test]
    fn power_step_scales_quadratically() {
        let s = FaultSchedule::empty().with(FaultEvent::new(
            1.0,
            2.0,
            FaultKind::PumpPowerStep { factor: 0.5 },
        ));
        assert_eq!(s.pump_rate_factor(2.0, 110e6), 0.25);
        assert_eq!(s.pump_rate_factor(0.5, 110e6), 1.0);
        assert_eq!(s.pump_rate_factor(3.5, 110e6), 1.0);
    }

    #[test]
    fn thermal_detuning_peaks_mid_window() {
        let s = FaultSchedule::empty().with(FaultEvent::new(
            0.0,
            10.0,
            FaultKind::ThermalDetuning { peak_hz: 110e6 },
        ));
        let mid = s.pump_rate_factor(5.0, 110e6);
        let edge = s.pump_rate_factor(0.5, 110e6);
        assert!(mid < edge, "mid {mid} edge {edge}");
        // Full-linewidth detuning: response = 1/(1+4)=0.2, squared.
        assert!((mid - 0.04).abs() < 1e-12, "mid {mid}");
    }

    #[test]
    fn dead_fraction_merges_overlaps() {
        let d = FaultKind::DetectorDropout {
            channel: 2,
            arm: Arm::Idler,
        };
        let s = FaultSchedule::from_events(vec![
            FaultEvent::new(1.0, 3.0, d),
            FaultEvent::new(2.0, 3.0, d),
        ]);
        assert!((s.dead_fraction(2, Arm::Idler, 0.0, 10.0) - 0.4).abs() < 1e-12);
        assert_eq!(s.dead_fraction(2, Arm::Signal, 0.0, 10.0), 0.0);
        assert_eq!(s.dead_fraction(1, Arm::Idler, 0.0, 10.0), 0.0);
        assert!(s.detector_dead_at(2, Arm::Idler, 1.5));
        assert!(!s.detector_dead_at(2, Arm::Idler, 5.5));
    }

    #[test]
    fn dark_burst_channel_filter() {
        let s = FaultSchedule::empty().with(FaultEvent::new(
            0.0,
            5.0,
            FaultKind::DarkCountBurst {
                channel: Some(3),
                rate_multiplier: 10.0,
            },
        ));
        assert_eq!(s.dark_multiplier(3, 1.0), 10.0);
        assert_eq!(s.dark_multiplier(1, 1.0), 1.0);
        let all = FaultSchedule::empty().with(FaultEvent::new(
            0.0,
            5.0,
            FaultKind::DarkCountBurst {
                channel: None,
                rate_multiplier: 4.0,
            },
        ));
        assert_eq!(all.dark_multiplier(1, 1.0), 4.0);
        assert_eq!(all.dark_multiplier(5, 1.0), 4.0);
    }

    #[test]
    fn phase_jumps_compose() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent::new(0.0, 4.0, FaultKind::PhaseJump { rad: 0.5 }),
            FaultEvent::new(2.0, 4.0, FaultKind::PhaseJump { rad: 0.25 }),
        ]);
        assert_eq!(s.phase_offset(1.0), 0.5);
        assert_eq!(s.phase_offset(3.0), 0.75);
        assert_eq!(s.phase_offset(5.0), 0.25);
    }

    #[test]
    fn stress_schedule_is_deterministic_and_covers_kinds() {
        let a = FaultSchedule::stress(7, 60.0);
        let b = FaultSchedule::stress(7, 60.0);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 7);
        assert!(!a.lock_loss_events(60.0).is_empty());
        let c = FaultSchedule::stress(8, 60.0);
        assert_ne!(a, c);
    }

    #[test]
    fn campaign_faults_are_inert_for_physics_queries() {
        // A schedule carrying only campaign-level faults must behave
        // exactly like the empty schedule for every physics query, so a
        // campaign fault plan can never perturb simulated physics.
        let s = FaultSchedule::from_events(vec![
            FaultEvent::new(0.0, 10.0, FaultKind::ShardAbort { shard: 2 }),
            FaultEvent::new(0.0, 10.0, FaultKind::ShardExecutorFault { shard: 1, failures: 2 }),
            FaultEvent::new(0.0, 10.0, FaultKind::CheckpointCorruption { shard: 0 }),
            FaultEvent::new(0.0, 10.0, FaultKind::CheckpointStale { shard: 3 }),
        ]);
        assert_eq!(s.pump_rate_factor(1.0, 110e6), 1.0);
        assert_eq!(s.dead_fraction(1, Arm::Signal, 0.0, 10.0), 0.0);
        assert!(!s.detector_dead_at(1, Arm::Idler, 1.0));
        assert_eq!(s.dark_multiplier(1, 1.0), 1.0);
        assert_eq!(s.phase_offset(1.0), 0.0);
        assert!(s.lock_loss_events(10.0).is_empty());
    }

    #[test]
    fn campaign_queries_ignore_time_windows() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent::new(123.0, 0.0, FaultKind::ShardAbort { shard: 5 }),
            FaultEvent::new(-4.0, 0.5, FaultKind::ShardAbort { shard: 2 }),
            FaultEvent::new(0.0, 0.0, FaultKind::ShardExecutorFault { shard: 2, failures: 1 }),
            FaultEvent::new(9.0, 0.0, FaultKind::ShardExecutorFault { shard: 2, failures: 2 }),
            FaultEvent::new(7.0, 0.0, FaultKind::CheckpointCorruption { shard: 1 }),
            FaultEvent::new(7.0, 0.0, FaultKind::CheckpointStale { shard: 4 }),
        ]);
        // Lowest abort index wins; executor failures sum per shard.
        assert_eq!(s.shard_abort(), Some(2));
        assert_eq!(s.shard_executor_failures(2), 3);
        assert_eq!(s.shard_executor_failures(7), 0);
        assert!(s.checkpoint_corruption(1));
        assert!(!s.checkpoint_corruption(2));
        assert!(s.checkpoint_stale(4));
        assert!(!s.checkpoint_stale(1));
        assert_eq!(FaultSchedule::empty().shard_abort(), None);
    }

    #[test]
    fn campaign_labels_name_the_shard() {
        assert!(FaultKind::ShardAbort { shard: 3 }.label().contains("shard 3"));
        assert!(FaultKind::ShardExecutorFault { shard: 1, failures: 2 }
            .label()
            .contains("2 failed attempts"));
        assert!(FaultKind::CheckpointCorruption { shard: 0 }
            .label()
            .contains("corrupted"));
        assert!(FaultKind::CheckpointStale { shard: 9 }.label().contains("stale"));
    }
}
