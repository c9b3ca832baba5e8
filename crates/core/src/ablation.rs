//! Ablation studies of the design choices DESIGN.md calls out: the pump
//! scheme (the paper's central §II claim), the tomography reconstructor,
//! and the coincidence-window choice behind every CAR figure.

use qfc_faults::{FaultSchedule, QfcResult};
use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use qfc_mathkit::rng::split_seed;
use qfc_photonics::pump::PumpConfig;
use qfc_photonics::units::Power;
use qfc_quantum::bell::werner_state;
use qfc_quantum::fidelity::state_fidelity;
use qfc_tomography::reconstruct::{
    try_linear_reconstruction, try_mle_reconstruction, MleOptions,
};
use qfc_tomography::settings::all_settings;
use qfc_tomography::stream::try_stream_counts_seeded;

use crate::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use crate::source::QfcSource;

/// One pump scheme's stability outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PumpSchemeOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Peak-to-peak relative fluctuation over the run.
    pub relative_fluctuation: f64,
    /// Whether the scheme needs active feedback hardware.
    pub needs_active_stabilization: bool,
}

/// Ablation of the §II pump scheme: self-locked vs actively stabilized
/// external vs free-running external, same environment, same seed.
///
/// # Errors
///
/// As [`try_run_stability_experiment`] (every scheme here is CW).
pub fn pump_scheme_ablation(
    config: &StabilityConfig,
    seed: u64,
) -> QfcResult<Vec<PumpSchemeOutcome>> {
    let power = Power::from_mw(15.0);
    let schemes: [(&str, PumpConfig, bool); 3] = [
        ("self-locked", PumpConfig::SelfLockedCw { power }, false),
        (
            "external + active lock",
            PumpConfig::ExternalCw {
                power,
                actively_stabilized: true,
            },
            true,
        ),
        (
            "external free-running",
            PumpConfig::ExternalCw {
                power,
                actively_stabilized: false,
            },
            false,
        ),
    ];
    // The three schemes share the same environment and seed, so each is
    // an independent task on the worker pool.
    qfc_runtime::par_map(&schemes, |&(label, pump, active)| {
        let source = QfcSource::paper_device().with_pump(pump);
        let report = try_run_stability_experiment(&source, config, seed)?; // qfc-lint: allow(rng-lane-flow) — matched-seed comparison by design: every pump scheme must see the identical shot stream so differences are attributable to the pump alone
        Ok(PumpSchemeOutcome {
            scheme: label.to_owned(),
            relative_fluctuation: report.relative_fluctuation,
            needs_active_stabilization: active,
        })
    })
    .into_iter()
    .collect()
}

/// One row of the tomography-reconstructor ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TomographyAblationRow {
    /// Counts per setting.
    pub shots_per_setting: u64,
    /// Fidelity of linear inversion (+ physicality projection) with the
    /// true state.
    pub linear_fidelity: f64,
    /// Fidelity of the MLE (RρR) reconstruction with the true state.
    pub mle_fidelity: f64,
    /// RρR iterations the MLE spent before its certificate held.
    pub mle_iterations: usize,
    /// Certified log-likelihood gap of the MLE state, nats.
    pub mle_gap_nats: f64,
}

/// Ablation of the reconstructor at decreasing statistics: MLE's
/// advantage appears at low counts, where linear inversion leaves the
/// physical cone. Each row also records how many iterations the MLE
/// needed to certify its state, and the gap it certified.
///
/// # Errors
///
/// Propagates the first reconstruction error in row order (degenerate
/// counts, e.g. a zero-shot row).
pub fn tomography_ablation(shots: &[u64], seed: u64) -> QfcResult<Vec<TomographyAblationRow>> {
    let truth = werner_state(0.83, 0.0);
    let settings = all_settings(2);
    // Each statistics level samples and reconstructs on its own
    // split-seed stream, independent of the others.
    let indexed: Vec<(usize, u64)> = shots.iter().copied().enumerate().collect();
    qfc_runtime::par_map(&indexed, |&(row, n)| {
        let data = try_stream_counts_seeded(
            &truth,
            &settings,
            n,
            split_seed(seed, cast::usize_to_u64(row)),
        )?;
        let lin = try_linear_reconstruction(&data)?;
        let mle = try_mle_reconstruction(&data, &MleOptions::default())?;
        Ok(TomographyAblationRow {
            shots_per_setting: n,
            linear_fidelity: state_fidelity(&lin, &truth),
            mle_fidelity: state_fidelity(&mle.rho, &truth),
            mle_iterations: mle.iterations,
            mle_gap_nats: mle.gap_nats,
        })
    })
    .into_iter()
    .collect()
}

/// One row of the coincidence-window ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowAblationRow {
    /// Coincidence window, ps.
    pub window_ps: i64,
    /// Channel-1 CAR at this window.
    pub car: f64,
    /// Channel-1 detected coincidence rate, Hz.
    pub coincidence_rate_hz: f64,
}

/// Ablation of the coincidence window: short windows cut the 1.45-ns
/// correlation envelope (losing true pairs), long windows integrate
/// accidentals — CAR peaks in between.
///
/// # Errors
///
/// Any error of the §II driver run at a window.
pub fn window_ablation(windows_ps: &[i64], seed: u64) -> QfcResult<Vec<WindowAblationRow>> {
    let source = QfcSource::paper_device();
    // Same seed for every window: the tag streams are identical, only the
    // coincidence gating changes, which is exactly the comparison wanted.
    qfc_runtime::par_map(windows_ps, |&w| {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.channels = 1;
        cfg.duration_s = 20.0;
        cfg.linewidth_pairs = 500;
        cfg.coincidence_window_ps = w;
        let run = try_run_heralded_experiment(&source, &cfg, seed, &FaultSchedule::empty())?;
        let channel = &run.report.channels[0];
        Ok(WindowAblationRow {
            window_ps: w,
            car: channel.car,
            coincidence_rate_hz: channel.coincidence_rate_hz,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_scheme_ordering() {
        let results = pump_scheme_ablation(&StabilityConfig::paper(), 91).expect("CW pumps");
        assert_eq!(results.len(), 3);
        let locked = results[0].relative_fluctuation;
        let active = results[1].relative_fluctuation;
        let free = results[2].relative_fluctuation;
        // Self-locked and actively stabilized both beat free-running…
        assert!(locked < free, "locked {locked} vs free {free}");
        assert!(active < free, "active {active} vs free {free}");
        // …and only the self-locked scheme needs no feedback hardware.
        assert!(!results[0].needs_active_stabilization);
        assert!(results[1].needs_active_stabilization);
    }

    #[test]
    fn mle_wins_at_low_counts() {
        let rows = tomography_ablation(&[20, 2000], 99).expect("both rows reconstruct");
        // At high statistics both are excellent.
        assert!(rows[1].linear_fidelity > 0.99);
        assert!(rows[1].mle_fidelity > 0.99);
        // At low statistics MLE does not trail linear inversion.
        assert!(
            rows[0].mle_fidelity >= rows[0].linear_fidelity - 0.02,
            "low counts: MLE {} vs linear {}",
            rows[0].mle_fidelity,
            rows[0].linear_fidelity
        );
        // Every row certifies its state inside the default budget.
        for row in &rows {
            assert!(
                row.mle_gap_nats <= qfc_tomography::rank1::MLE_GAP_NATS
                    && row.mle_iterations < 300,
                "{} shots: gap {} nats after {} iterations",
                row.shots_per_setting,
                row.mle_gap_nats,
                row.mle_iterations
            );
        }
    }

    #[test]
    fn window_ablation_shows_capture_tradeoff() {
        let rows = window_ablation(&[500, 8000, 64_000], 93).expect("every window runs");
        // Wider window captures more of the 1.45-ns envelope…
        assert!(rows[1].coincidence_rate_hz > rows[0].coincidence_rate_hz);
        // …and the widest window must not improve CAR any further
        // (it only adds accidentals).
        assert!(rows[2].car <= rows[1].car * 1.2 + 1.0);
        for r in &rows {
            assert!(r.car > 1.0, "window {}: CAR {}", r.window_ps, r.car);
        }
    }
}
