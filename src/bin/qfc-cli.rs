//! `qfc-cli` — run the paper's virtual experiments from the command line.
//!
//! ```text
//! qfc-cli <experiment> [--seed N] [--fast] [--json]
//!
//! Under `--json` every verb prints one JSON document; `all` prints one
//! per verb, in order.
//!
//! experiments:
//!   device       print the calibrated device figures
//!   heralded     §II  F1/T1/F2  heralded single photons
//!   stability    §II  F3       weeks-long stability run
//!   crosspol     §III F4/F6    type-II cross-polarized pairs
//!   opo          §III F5       OPO power transfer curve
//!   timebin      §IV  F7/T2    time-bin entanglement + CHSH
//!   multiphoton  §V   T3/F8/T4 four-photon states
//!   purity       P1–P3         spectral purity & memory acceptance
//!   spectrum                   comb spectrum and telecom-band coverage
//!   all          everything above, in order
//! ```

use std::process::ExitCode;

use qfc::core::crosspol::{run_power_sweep, try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::purity::{try_run_purity_analysis, PurityConfig};
use qfc::core::report::ExperimentReport;
use qfc::core::source::QfcSource;
use qfc::core::timebin::{try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::{FaultSchedule, QfcError, QfcResult};
use qfc::photonics::comb::TelecomBand;
use qfc::photonics::waveguide::Polarization;
use serde::Serialize;

struct Options {
    seed: u64,
    fast: bool,
    json: bool,
}

/// The calibrated device figures `device` prints.
#[derive(Serialize)]
struct DeviceFigures {
    radius_um: f64,
    fsr_te_hz: f64,
    loaded_linewidth_hz: f64,
    loaded_q: f64,
    finesse: f64,
    field_enhancement: f64,
}

/// The comb-spectrum summary `spectrum` prints.
#[derive(Serialize)]
struct SpectrumSummary {
    above_threshold: bool,
    total_power_w: f64,
    lines_within_30_db: usize,
    bands_covered: Vec<TelecomBand>,
}

/// Prints `value` as one pretty JSON document.
fn print_json(value: &impl Serialize, what: &str) -> QfcResult<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| QfcError::persistence(format!("serialize {what}: {e}")))?;
    println!("{json}");
    Ok(())
}

fn emit(report: &ExperimentReport, opts: &Options) -> QfcResult<()> {
    if opts.json {
        print_json(report, &format!("{} report", report.title))
    } else {
        println!("{}", report.render());
        Ok(())
    }
}

fn run_one(name: &str, opts: &Options) -> QfcResult<()> {
    match name {
        "device" => {
            let source = QfcSource::paper_device();
            let ring = source.ring();
            if opts.json {
                let figures = DeviceFigures {
                    radius_um: ring.radius() * 1e6,
                    fsr_te_hz: ring.fsr(Polarization::Te).hz(),
                    loaded_linewidth_hz: ring.linewidth().hz(),
                    loaded_q: ring.q_loaded(),
                    finesse: ring.finesse(),
                    field_enhancement: ring.field_enhancement_power(),
                };
                return print_json(&figures, "device figures");
            }
            println!("radius            : {:.1} um", ring.radius() * 1e6);
            println!("FSR (TE)          : {}", ring.fsr(Polarization::Te));
            println!("loaded linewidth  : {}", ring.linewidth());
            println!("loaded Q          : {:.2e}", ring.q_loaded());
            println!("finesse           : {:.0}", ring.finesse());
            println!("field enhancement : {:.0}x", ring.field_enhancement_power());
            Ok(())
        }
        "heralded" => {
            let source = QfcSource::paper_device();
            let cfg = if opts.fast {
                HeraldedConfig::fast_demo()
            } else {
                HeraldedConfig::paper()
            };
            let run = try_run_heralded_experiment(
                &source,
                &cfg,
                opts.seed,
                &FaultSchedule::empty(),
            )?;
            emit(&run.report.to_report(), opts)?;
            Ok(())
        }
        "stability" => {
            let source = QfcSource::paper_device();
            let report = try_run_stability_experiment(&source, &StabilityConfig::paper(), opts.seed)?;
            emit(&report.to_report(), opts)?;
            Ok(())
        }
        "crosspol" => {
            let source = QfcSource::paper_device_type2();
            let mut cfg = if opts.fast {
                CrossPolConfig::fast_demo()
            } else {
                CrossPolConfig::paper()
            };
            if opts.fast {
                cfg.duration_s = 30.0;
            }
            let run = try_run_crosspol_experiment(
                &source,
                &cfg,
                opts.seed,
                &FaultSchedule::empty(),
            )?;
            emit(&run.report.to_report(), opts)?;
            Ok(())
        }
        "opo" => {
            let source = QfcSource::paper_device_type2();
            let report = run_power_sweep(&source, 16)?;
            emit(&report.to_report(), opts)?;
            Ok(())
        }
        "timebin" => {
            let source = QfcSource::paper_device_timebin();
            let cfg = if opts.fast {
                TimeBinConfig::fast_demo()
            } else {
                TimeBinConfig::paper()
            };
            let run = try_run_timebin_experiment(
                &source,
                &cfg,
                opts.seed,
                &FaultSchedule::empty(),
            )?;
            emit(&run.report.to_report(), opts)?;
            Ok(())
        }
        "multiphoton" => {
            let source = QfcSource::paper_device_timebin();
            let cfg = if opts.fast {
                MultiPhotonConfig::fast_demo()
            } else {
                MultiPhotonConfig::paper()
            };
            let run = try_run_multiphoton_experiment(
                &source,
                &cfg,
                opts.seed,
                &FaultSchedule::empty(),
            )?;
            emit(&run.report.to_report(), opts)?;
            Ok(())
        }
        "purity" => {
            let source = QfcSource::paper_device_timebin();
            let report = try_run_purity_analysis(&source, &PurityConfig::paper())?;
            emit(&report.to_report(), opts)?;
            Ok(())
        }
        "spectrum" => {
            let source = QfcSource::paper_device();
            let spec = qfc::photonics::spectrum::comb_spectrum(
                source.ring(),
                qfc::photonics::units::Power::from_mw(30.0),
                40,
            );
            let summary = SpectrumSummary {
                above_threshold: spec.above_threshold,
                total_power_w: spec.total_power_w(),
                lines_within_30_db: spec.lines_above_floor(30.0),
                bands_covered: spec.bands_covered(),
            };
            if opts.json {
                return print_json(&summary, "spectrum summary");
            }
            println!(
                "above threshold: {} | total {:.3e} W | {} lines within 30 dB | bands {:?}",
                summary.above_threshold,
                summary.total_power_w,
                summary.lines_within_30_db,
                summary.bands_covered
            );
            Ok(())
        }
        "all" => {
            for name in [
                "device",
                "heralded",
                "stability",
                "crosspol",
                "opo",
                "timebin",
                "multiphoton",
                "purity",
                "spectrum",
            ] {
                run_one(name, opts)?;
            }
            Ok(())
        }
        other => Err(QfcError::invalid(format!("unknown experiment '{other}'"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        seed: 20170327,
        fast: false,
        json: false,
    };
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => {
                    eprintln!("--seed needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--fast" => opts.fast = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!("usage: qfc-cli <experiment> [--seed N] [--fast] [--json]");
                eprintln!(
                    "experiments: device heralded stability crosspol opo timebin \
                     multiphoton purity spectrum all"
                );
                return ExitCode::SUCCESS;
            }
            other if name.is_none() => name = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("usage: qfc-cli <experiment> [--seed N] [--fast] [--json]");
        return ExitCode::FAILURE;
    };
    match run_one(&name, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
