//! Run-health reporting: what went wrong and what the supervisor did
//! about it.
//!
//! A [`HealthReport`] rides along with every experiment report. A clean
//! run (empty fault schedule, no recovery actions) produces
//! [`HealthReport::pristine`], which serializes compactly and lets tests
//! assert byte-identity with pre-fault-layer outputs.

use serde::{Deserialize, Serialize};

/// One fault the schedule injected into the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Human-readable description (from [`crate::FaultKind::label`]).
    pub description: String,
    /// Window start, s into the run.
    pub start_s: f64,
    /// Window length, s.
    pub duration_s: f64,
}

/// One recovery action the supervisor took.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// The pump lock was reacquired after `attempts` tries, costing
    /// `outage description` of integration (recorded separately in
    /// [`HealthReport::outage_s`]).
    PumpRelock {
        /// Re-lock attempts needed.
        attempts: u32,
    },
    /// A multiplexed channel was dropped from the analysis.
    ChannelQuarantined {
        /// 1-based channel index.
        channel: u32,
        /// Why it was dropped.
        reason: String,
    },
    /// An estimator was swapped for a simpler fallback.
    Fallback {
        /// What was attempted.
        from: String,
        /// What was used instead.
        to: String,
    },
}

/// Health section of an experiment report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Faults the schedule injected into this run.
    pub faults_injected: Vec<FaultRecord>,
    /// Recovery actions the supervisor took.
    pub recovery_actions: Vec<RecoveryAction>,
    /// Channels excluded from the analysis (1-based), sorted.
    pub quarantined_channels: Vec<u32>,
    /// Total integration time lost to pump outages, s.
    pub outage_s: f64,
}

impl HealthReport {
    /// The health report of a clean run: no faults, no recoveries.
    pub fn pristine() -> Self {
        Self::default()
    }

    /// `true` when nothing went wrong and nothing was recovered.
    pub fn is_pristine(&self) -> bool {
        self.faults_injected.is_empty()
            && self.recovery_actions.is_empty()
            && self.quarantined_channels.is_empty()
            && self.outage_s == 0.0
    }

    /// `true` when the run completed in a degraded configuration
    /// (quarantined channels or estimator fallbacks).
    pub fn is_degraded(&self) -> bool {
        !self.quarantined_channels.is_empty()
            || self
                .recovery_actions
                .iter()
                .any(|a| matches!(a, RecoveryAction::Fallback { .. }))
    }

    /// Records an injected fault.
    ///
    /// Every `record_*` method also bumps the matching `qfc_obs` counter
    /// (`faults_injected`, `recovery_*`) when a collector is installed,
    /// so the observability registry mirrors the health section without
    /// separate wiring at every call site. [`absorb`](Self::absorb)
    /// deliberately does *not* re-count — sub-experiment records were
    /// counted when first recorded.
    pub fn record_fault(&mut self, description: String, start_s: f64, duration_s: f64) {
        qfc_obs::counter_add("faults_injected", 1);
        self.faults_injected.push(FaultRecord {
            description,
            start_s,
            duration_s,
        });
    }

    /// Records a successful pump re-lock.
    pub fn record_relock(&mut self, attempts: u32, outage_s: f64) {
        qfc_obs::counter_add("recovery_relocks", 1);
        self.recovery_actions
            .push(RecoveryAction::PumpRelock { attempts });
        self.outage_s += outage_s;
    }

    /// Records a channel quarantine (keeps the channel list sorted and
    /// deduplicated).
    pub fn record_quarantine(&mut self, channel: u32, reason: impl Into<String>) {
        qfc_obs::counter_add("recovery_quarantines", 1);
        self.recovery_actions.push(RecoveryAction::ChannelQuarantined {
            channel,
            reason: reason.into(),
        });
        if let Err(pos) = self.quarantined_channels.binary_search(&channel) {
            self.quarantined_channels.insert(pos, channel);
        }
    }

    /// Records an estimator fallback.
    pub fn record_fallback(&mut self, from: impl Into<String>, to: impl Into<String>) {
        qfc_obs::counter_add("recovery_fallbacks", 1);
        self.recovery_actions.push(RecoveryAction::Fallback {
            from: from.into(),
            to: to.into(),
        });
    }

    /// Merges another health report into this one (for drivers composed
    /// of sub-experiments).
    pub fn absorb(&mut self, other: HealthReport) {
        self.faults_injected.extend(other.faults_injected);
        self.recovery_actions.extend(other.recovery_actions);
        for c in other.quarantined_channels {
            if let Err(pos) = self.quarantined_channels.binary_search(&c) {
                self.quarantined_channels.insert(pos, c);
            }
        }
        self.outage_s += other.outage_s;
    }

    /// Plain-text rendering for report output.
    pub fn render(&self) -> String {
        if self.is_pristine() {
            return "health: pristine (no faults injected, no recovery actions)\n".to_owned();
        }
        let mut out = String::from("health:\n");
        for f in &self.faults_injected {
            out.push_str(&format!(
                "  fault    {} @ {:.2} s for {:.2} s\n",
                f.description, f.start_s, f.duration_s
            ));
        }
        for a in &self.recovery_actions {
            match a {
                RecoveryAction::PumpRelock { attempts } => {
                    out.push_str(&format!("  recover  pump re-locked after {attempts} attempt(s)\n"));
                }
                RecoveryAction::ChannelQuarantined { channel, reason } => {
                    out.push_str(&format!("  recover  channel {channel} quarantined: {reason}\n"));
                }
                RecoveryAction::Fallback { from, to } => {
                    out.push_str(&format!("  recover  fallback {from} -> {to}\n"));
                }
            }
        }
        if self.outage_s > 0.0 {
            out.push_str(&format!("  outage   {:.3} s of integration lost\n", self.outage_s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_roundtrip() {
        let h = HealthReport::pristine();
        assert!(h.is_pristine());
        assert!(!h.is_degraded());
        let json = serde_json::to_string(&h).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn quarantine_sorted_dedup() {
        let mut h = HealthReport::pristine();
        h.record_quarantine(3, "dead idler detector");
        h.record_quarantine(1, "dead signal detector");
        h.record_quarantine(3, "again");
        assert_eq!(h.quarantined_channels, vec![1, 3]);
        assert!(h.is_degraded());
        assert_eq!(h.recovery_actions.len(), 3);
    }

    #[test]
    fn absorb_merges() {
        let mut a = HealthReport::pristine();
        a.record_fault("pump lock loss".into(), 1.0, 0.5);
        a.record_relock(2, 0.8);
        let mut b = HealthReport::pristine();
        b.record_fallback("MLE", "linear inversion");
        b.record_quarantine(4, "saturated");
        a.absorb(b);
        assert_eq!(a.faults_injected.len(), 1);
        assert_eq!(a.recovery_actions.len(), 3);
        assert_eq!(a.quarantined_channels, vec![4]);
        assert!((a.outage_s - 0.8).abs() < 1e-12);
        assert!(a.is_degraded());
    }

    #[test]
    fn render_mentions_everything() {
        let mut h = HealthReport::pristine();
        h.record_fault("dark-count burst ×5 (all channels)".into(), 2.0, 1.0);
        h.record_relock(3, 1.2);
        h.record_fallback("MLE", "linear inversion");
        let r = h.render();
        assert!(r.contains("dark-count burst"));
        assert!(r.contains("re-locked after 3"));
        assert!(r.contains("MLE -> linear inversion"));
        assert!(r.contains("1.200 s"));
    }
}
