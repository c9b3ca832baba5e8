//! Photon statistics of the comb arms: heralded g²(0) vs pump, and the
//! spectral purity and memory acceptance behind the §II "pure single
//! mode photons" claim.
//!
//! ```sh
//! cargo run --release --example photon_statistics
//! ```

use qfc::core::purity::{run_purity_analysis, PurityConfig};
use qfc::core::source::QfcSource;
use qfc::quantum::fock::TwoModeSqueezedVacuum;

fn main() {
    let source = QfcSource::paper_device_timebin();

    println!("== Heralded g2(0) vs pump (single-photon character) ==");
    println!("  μ/frame    heralded g2(0)");
    for factor in [0.5f64, 1.0, 2.0, 3.0, 5.0] {
        let mu = source.pairs_per_frame(1) * factor * factor;
        let g2h = TwoModeSqueezedVacuum::new(mu).heralded_g2(0.105);
        println!("  {:>7.4}      {:>6.4}", mu, g2h);
    }

    println!("\n== Spectral purity (§II) ==");
    let purity = run_purity_analysis(&source, &PurityConfig::paper());
    println!("Schmidt number K      : {:.3}", purity.schmidt_number);
    println!("heralded purity 1/K   : {:.3}", purity.heralded_purity);
    println!("heralded g2(0)        : {:.3}", purity.heralded_g2);
    println!("memory acceptance     : {:.3}", purity.memory_acceptance);
    println!("\n{}", purity.to_report().render());
}
