//! `qfc-cli` — run the paper's virtual experiments from the command line.
//!
//! ```text
//! qfc-cli <experiment> [--seed N] [--fast] [--json]
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
    run_stability_experiment, try_run_heralded_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::purity::{run_purity_analysis, PurityConfig};
use qfc::core::report::ExperimentReport;
use qfc::core::source::QfcSource;
use qfc::core::timebin::{try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::{FaultSchedule, QfcError, QfcResult};
use qfc::photonics::waveguide::Polarization;

struct Options {
    seed: u64,
    fast: bool,
    json: bool,
}

fn emit(report: &ExperimentReport, opts: &Options) -> QfcResult<()> {
    if opts.json {
        let json = serde_json::to_string_pretty(report)
            .map_err(|e| QfcError::persistence(format!("serialize {} report: {e}", report.title)))?;
        println!("{json}");
    } else {
        println!("{}", report.render());
    }
    Ok(())
}

fn run_one(name: &str, opts: &Options) -> QfcResult<()> {
    match name {
        "device" => {
            let source = QfcSource::paper_device();
            let ring = source.ring();
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
            let report = run_stability_experiment(&source, &StabilityConfig::paper(), opts.seed);
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
            let report = run_purity_analysis(&source, &PurityConfig::paper());
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
            println!(
                "above threshold: {} | total {:.3e} W | {} lines within 30 dB | bands {:?}",
                spec.above_threshold,
                spec.total_power_w(),
                spec.lines_above_floor(30.0),
                spec.bands_covered()
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
