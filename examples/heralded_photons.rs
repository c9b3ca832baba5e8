//! §II — Multiplexed heralded single photons, at the paper's operating
//! point: coincidence matrix (F1), CAR/rate table (T1), time-resolved
//! linewidth (F2), and the weeks-long stability run (F3).
//!
//! ```sh
//! cargo run --release --example heralded_photons
//! ```

use qfc::core::heralded::{
    try_run_heralded_experiment, try_run_stability_experiment, HeraldedConfig, StabilityConfig,
};
use qfc::core::source::QfcSource;
use qfc::faults::{FaultSchedule, QfcResult};
use qfc::photonics::pump::PumpConfig;
use qfc::photonics::units::Power;

fn main() -> QfcResult<()> {
    let source = QfcSource::paper_device();
    let config = HeraldedConfig::paper();
    println!(
        "Running §II at 15 mW self-locked pump, {} channels, {} s integration…",
        config.channels, config.duration_s
    );
    let report = try_run_heralded_experiment(&source, &config, 7, &FaultSchedule::empty())
        .expect("fault-free heralded run")
        .report;

    println!("\n== F1 coincidence matrix (signal row × idler column, counts) ==");
    print!("        ");
    for j in 1..=config.channels {
        print!("  idl{j:>2} ");
    }
    println!();
    for (i, row) in report.coincidence_matrix.iter().enumerate() {
        print!("sig{:>2}   ", i + 1);
        for v in row {
            print!(" {v:>6} ");
        }
        println!();
    }
    println!(
        "diagonal/off-diagonal contrast: {:.1}x",
        report.matrix_contrast()
    );

    println!("\n== T1 per-channel table ==");
    println!("  m   singles(S)  singles(I)  coinc/s   pair rate   CAR");
    for c in &report.channels {
        println!(
            " {:>2}   {:>8.0}    {:>8.0}   {:>7.3}   {:>7.1}    {:>5.1}",
            c.m,
            c.signal_singles_hz,
            c.idler_singles_hz,
            c.coincidence_rate_hz,
            c.inferred_pair_rate_hz,
            c.car
        );
    }
    let (car_lo, car_hi) = report.car_range();
    let (r_lo, r_hi) = report.rate_range();
    println!("CAR range  : {car_lo:.1} .. {car_hi:.1}   (paper: 12.8 .. 32.4)");
    println!("rate range : {r_lo:.1} .. {r_hi:.1} Hz (paper: 14 .. 29 Hz)");

    println!("\n== F2 time-resolved coincidence decay ==");
    println!(
        "decay time {:.2} ns -> linewidth {:.1} MHz (paper: 110 MHz), R^2 = {:.3}",
        report.linewidth.decay_time_s * 1e9,
        report.linewidth.linewidth_hz / 1e6,
        report.linewidth.r_squared
    );

    println!("\n== F3 stability over 3 weeks ==");
    let stab_cfg = StabilityConfig::paper();
    let locked = try_run_stability_experiment(&source, &stab_cfg, 8)?;
    println!(
        "self-locked    : {:.1} % peak-to-peak fluctuation (paper: < 5 %)",
        locked.relative_fluctuation * 100.0
    );
    let free = try_run_stability_experiment(
        &source.clone().with_pump(PumpConfig::ExternalCw {
            power: Power::from_mw(15.0),
            actively_stabilized: false,
        }),
        &stab_cfg,
        8,
    )?;
    println!(
        "free-running   : {:.1} % peak-to-peak fluctuation (unlocked baseline)",
        free.relative_fluctuation * 100.0
    );

    println!("\n{}", report.to_report().render());
    println!("{}", locked.to_report().render());
    Ok(())
}
