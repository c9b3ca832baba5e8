//! §III — Cross-polarized photon pairs via type-II SFWM, plus the OPO
//! power transfer curve (F4/F5/F6).
//!
//! ```sh
//! cargo run --release --example crosspol_opo
//! ```

use qfc::core::crosspol::{
    run_power_sweep, run_suppression_sweep, try_run_crosspol_experiment, CrossPolConfig,
};
use qfc::core::source::QfcSource;
use qfc::faults::FaultSchedule;

fn main() {
    let source = QfcSource::paper_device_type2();
    println!("Running §III bichromatic TE+TM pumping at 2 mW total…");

    println!("\n== F4 type-II coincidence measurement ==");
    let report = try_run_crosspol_experiment(
        &source,
        &CrossPolConfig::paper(),
        17,
        &FaultSchedule::empty(),
    )
    .expect("fault-free cross-polarized run")
    .report;
    println!("generated pair rate : {:.2} Hz", report.generated_pair_rate_hz);
    println!("TE singles          : {:.0} Hz", report.te_singles_hz);
    println!("TM singles          : {:.0} Hz", report.tm_singles_hz);
    println!("coincidence rate    : {:.4} Hz", report.coincidence_rate_hz);
    println!("CAR                 : {:.1}  (paper: ~10 at 2 mW)", report.car);
    println!(
        "stimulated response : {:.2e}  (1 = unsuppressed)",
        report.stimulated_response
    );

    println!("\n== F5 OPO power transfer ==");
    let sweep = run_power_sweep(&source, 16).expect("F5 power-law fits");
    println!(
        "threshold          : {:.1} mW (paper: 14 mW)",
        sweep.threshold_w * 1e3
    );
    println!(
        "below-threshold    : P_out ∝ P^{:.2}  (paper: quadratic)",
        sweep.below_exponent
    );
    println!(
        "above-threshold    : P_out ∝ (P−P_th)^{:.2}  (paper: linear)",
        sweep.above_exponent
    );
    println!("curve (pump mW → output):");
    for (p, o) in sweep.curve.iter().step_by(4) {
        println!("  {:>6.2} mW → {:>10.3e} W", p * 1e3, o);
    }

    println!("\n== F6 stimulated-FWM suppression vs TE/TM offset ==");
    let offsets = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 47.0];
    println!("offset (GHz)   stimulated response   spontaneous rate (Hz)");
    for p in run_suppression_sweep(&offsets) {
        println!(
            "  {:>7.1}        {:>12.3e}         {:>8.3}",
            p.offset_hz / 1e9,
            p.stimulated_response,
            p.spontaneous_rate_hz
        );
    }

    println!("\n{}", report.to_report().render());
    println!("{}", sweep.to_report().render());
}
