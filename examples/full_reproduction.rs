//! Full reproduction: runs every experiment at the paper's configuration
//! and prints the complete paper-vs-measured record as markdown
//! (the content of EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release --example full_reproduction > EXPERIMENTS.generated.md
//! ```

use qfc::core::crosspol::{run_power_sweep, try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::report::ExperimentReport;
use qfc::core::source::QfcSource;
use qfc::core::timebin::{try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::FaultSchedule;
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::units::Power;

fn main() {
    let seed = 20170327; // the conference dates

    println!("# EXPERIMENTS — paper vs measured");
    println!();
    println!("Generated by `cargo run --release --example full_reproduction`");
    println!("(deterministic, seed {seed}). Paper: Reimer et al., DATE 2017.");
    println!();
    println!("## Calibration notes (nuisance parameters)");
    println!();
    println!("The *shape* of every result (scaling exponents, thresholds, bounds");
    println!("violated, who wins) comes out of the physics models; the absolute");
    println!("count rates additionally depend on nuisance parameters of the");
    println!("authors' table that the paper does not publish. Those are set once,");
    println!("documented here, and never tuned per experiment:");
    println!();
    println!("* pump coupling of the §II self-locked scheme: 0.28 (≈5.5 dB facet +");
    println!("  loop losses), calibrated against the published 14–29 pairs/s;");
    println!("* §III powers are taken as on-chip (the 14-mW threshold is an");
    println!("  on-chip figure in the source paper);");
    println!("* detectors: InGaAs class, η = 0.15, jitter 100 ps; dark/background");
    println!("  levels set to land the published CAR windows (12.8–32.4 in §II,");
    println!("  ≈10 in §III) — the CARs then *scale* correctly with power and");
    println!("  channel, which is the reproduced physics;");
    println!("* the §IV double-pulse peak power is calibrated to the μ ≈ 0.02");
    println!("  pairs/frame operating point of the published time-bin runs (the");
    println!("  full pulsed cavity-buildup dynamics is outside the analytic ring");
    println!("  model), and §V boosts the pump amplitude 3× — the visibility cost");
    println!("  of that boost is what reduces the four-photon fidelity to ~0.64.");
    println!();

    let mut reports: Vec<ExperimentReport> = Vec::new();

    // §II — F1/T1/F2
    eprintln!("running §II heralded photons…");
    let source2 = QfcSource::paper_device();
    let heralded = try_run_heralded_experiment(
        &source2,
        &HeraldedConfig::paper(),
        seed,
        &FaultSchedule::empty(),
    )
    .expect("fault-free heralded run")
    .report;
    reports.push(heralded.to_report());

    // §II — F3
    eprintln!("running §II stability…");
    let stab = try_run_stability_experiment(&source2, &StabilityConfig::paper(), seed)
        .expect("CW pump");
    reports.push(stab.to_report());
    let free = try_run_stability_experiment(
        &source2.clone().with_pump(PumpConfig::ExternalCw {
            power: Power::from_mw(15.0),
            actively_stabilized: false,
        }),
        &StabilityConfig::paper(),
        seed,
    )
    .expect("CW pump");
    reports.push(free.to_report());

    // §III — F4/F5/F6
    eprintln!("running §III cross-polarized pairs…");
    let source3 = QfcSource::paper_device_type2();
    let crosspol = try_run_crosspol_experiment(
        &source3,
        &CrossPolConfig::paper(),
        seed,
        &FaultSchedule::empty(),
    )
    .expect("fault-free cross-polarized run")
    .report;
    reports.push(crosspol.to_report());
    let sweep = run_power_sweep(&source3, 16).expect("F5 power-law fits");
    reports.push(sweep.to_report());

    // §IV — F7/T2
    eprintln!("running §IV time-bin entanglement…");
    let source4 = QfcSource::paper_device_timebin();
    let timebin = try_run_timebin_experiment(
        &source4,
        &TimeBinConfig::paper(),
        seed,
        &FaultSchedule::empty(),
    )
    .expect("fault-free time-bin run")
    .report;
    reports.push(timebin.to_report());

    // §V — T3/F8/T4
    eprintln!("running §V multi-photon states…");
    let multi = try_run_multiphoton_experiment(
        &source4,
        &MultiPhotonConfig::paper(),
        seed,
        &FaultSchedule::empty(),
    )
    .expect("fault-free multi-photon run")
    .report;
    reports.push(multi.to_report());

    // Extension: purity/memory (P1–P3).
    eprintln!("running purity extension…");
    let purity = qfc::core::purity::try_run_purity_analysis(
        &source4,
        &qfc::core::purity::PurityConfig::paper(),
    )
    .expect("double-pulse pump");
    reports.push(purity.to_report());

    let mut all_pass = true;
    for r in &reports {
        println!("{}", r.render());
        all_pass &= r.all_pass();
    }

    println!("## Detail: §II per-channel table (T1)");
    println!();
    println!("| m | pair rate (Hz) | CAR | coincidences/s |");
    println!("|---|---|---|---|");
    for c in &heralded.channels {
        println!(
            "| {} | {:.1} | {:.1} | {:.3} |",
            c.m, c.inferred_pair_rate_hz, c.car, c.coincidence_rate_hz
        );
    }
    println!();

    println!("## Detail: §IV per-channel CHSH (T2)");
    println!();
    println!("| m | visibility | S | σ | violation |");
    println!("|---|---|---|---|---|");
    for (f, c) in timebin.fringes.iter().zip(&timebin.chsh) {
        println!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.1} σ |",
            c.m, f.fit.visibility, c.s_value, c.sigma, c.n_sigma_violation
        );
    }
    println!();

    println!("## Detail: §V tomography (T3 per channel, T4)");
    println!();
    println!("Each MLE stops once its certified log-likelihood gap is at most 0.5 nat.");
    println!();
    println!("| state | fidelity | concurrence | MLE iterations | certified gap (nat) |");
    println!("|---|---|---|---|---|");
    for b in &multi.bell {
        println!(
            "| T3 m = {} | {:.3} | {:.3} | {} | {:.3} |",
            b.m, b.fidelity, b.concurrence, b.iterations, b.gap_nats
        );
    }
    let t4 = &multi.tomography;
    println!(
        "| T4 | {:.3} | — | {} | {:.3} |",
        t4.fidelity, t4.iterations, t4.gap_nats
    );
    println!();

    println!(
        "**Overall: {}**",
        if all_pass {
            "all expectations satisfied"
        } else {
            "SOME EXPECTATIONS FAILED"
        }
    );
    eprintln!("done (all pass: {all_pass})");
}
