//! Quickstart: build the paper's device, inspect it, and run a fast
//! heralded-photon experiment.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::source::QfcSource;
use qfc::faults::FaultSchedule;
use qfc::photonics::waveguide::Polarization;

fn main() {
    // The integrated quantum frequency comb of Reimer et al. (DATE 2017):
    // a Hydex microring with 200-GHz FSR and 110-MHz linewidth.
    let source = QfcSource::paper_device();
    let ring = source.ring();

    println!("== Device ==");
    println!("radius            : {:.1} um", ring.radius() * 1e6);
    println!("FSR (TE)          : {}", ring.fsr(Polarization::Te));
    println!("loaded linewidth  : {}", ring.linewidth());
    println!("loaded Q          : {:.2e}", ring.q_loaded());
    println!("finesse           : {:.0}", ring.finesse());
    println!("field enhancement : {:.0}x", ring.field_enhancement_power());

    println!("\n== Comb (first 5 channel pairs) ==");
    for pair in source.comb(5).pairs() {
        println!(
            "m = {}: signal {} ({}-band) / idler {} ({}-band)",
            pair.m,
            pair.signal.frequency,
            pair.signal.band,
            pair.idler.frequency,
            pair.idler.band
        );
    }

    println!("\n== Fast heralded-photon run (SNSPD demo detectors) ==");
    let report = try_run_heralded_experiment(
        &source,
        &HeraldedConfig::fast_demo(),
        2026,
        &FaultSchedule::empty(),
    )
    .expect("fault-free heralded run")
    .report;
    for c in &report.channels {
        println!(
            "m = {}: pair rate {:>6.1} Hz inferred, coincidences {:>6.2} Hz, CAR {:>6.1}",
            c.m, c.inferred_pair_rate_hz, c.coincidence_rate_hz, c.car
        );
    }
    println!(
        "linewidth from coincidence decay: {:.1} MHz (paper: 110 MHz)",
        report.linewidth.linewidth_hz / 1e6
    );
    println!("\n{}", report.to_report().render());
}
