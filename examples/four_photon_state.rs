//! §V — Four-photon entangled states: Bell-state tomography per channel
//! (T3), four-photon interference (F8), and four-photon tomography (T4).
//!
//! ```sh
//! cargo run --release --example four_photon_state
//! ```

use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::faults::FaultSchedule;

fn main() {
    let source = QfcSource::paper_device_timebin();
    let config = MultiPhotonConfig::paper();
    println!("Running §V four-photon suite (this includes 81-setting 4-qubit MLE)…");
    let report = try_run_multiphoton_experiment(&source, &config, 29, &FaultSchedule::empty())
        .expect("fault-free multi-photon run")
        .report;

    println!("\n== T3 Bell-state tomography per channel ==");
    println!("  m    fidelity    concurrence   MLE iters");
    for b in &report.bell {
        println!(
            " {:>2}    {:>6.3}      {:>6.3}        {:>4}",
            b.m, b.fidelity, b.concurrence, b.iterations
        );
    }

    println!("\n== F8 four-photon interference ==");
    println!(
        "fitted raw visibility: {:.1} % (paper: 89 %)",
        report.fringe.visibility * 100.0
    );
    let max = report
        .fringe
        .points
        .iter()
        .map(|p| p.1)
        .max()
        .unwrap_or(1)
        .max(1);
    for &(phi, c) in &report.fringe.points {
        let bar = "#".repeat((c * 50 / max) as usize);
        println!("  φ={phi:>5.2}  {c:>6}  {bar}");
    }

    println!("\n== T4 four-photon tomography ==");
    println!(
        "fidelity to |Φ⟩⊗|Φ⟩: {:.1} % from {} four-folds in {} MLE iterations (paper: 64 %)",
        report.tomography.fidelity * 100.0,
        report.tomography.total_counts,
        report.tomography.iterations
    );

    println!("\n{}", report.to_report().render());
}
