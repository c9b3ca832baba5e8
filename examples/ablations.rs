//! Ablation studies: the design choices behind the paper's operating
//! point, quantified (see DESIGN.md §6).
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use qfc::core::ablation::{pump_scheme_ablation, tomography_ablation, window_ablation};
use qfc::core::heralded::StabilityConfig;
use qfc::core::multiphoton::pump_trade_scan;
use qfc::core::source::QfcSource;
use qfc::core::timebin::TimeBinConfig;
use qfc::faults::QfcResult;

fn main() -> QfcResult<()> {
    println!("== Pump scheme (the §II claim: why self-locking matters) ==");
    println!("{:<24} {:>16} {:>18}", "scheme", "fluctuation", "active hardware?");
    for row in pump_scheme_ablation(&StabilityConfig::paper(), 2017)? {
        println!(
            "{:<24} {:>14.1} % {:>18}",
            row.scheme,
            row.relative_fluctuation * 100.0,
            if row.needs_active_stabilization { "yes" } else { "no" }
        );
    }

    println!("\n== Tomography reconstructor (MLE RρR vs linear inversion) ==");
    println!(
        "{:>16} {:>16} {:>14} {:>10} {:>14}",
        "shots/setting", "linear F", "MLE F", "MLE it", "MLE gap (nat)"
    );
    let rows = tomography_ablation(&[10, 30, 100, 300, 1000, 10_000], 2018)?;
    for row in rows {
        println!(
            "{:>16} {:>16.4} {:>14.4} {:>10} {:>14.3}",
            row.shots_per_setting,
            row.linear_fidelity,
            row.mle_fidelity,
            row.mle_iterations,
            row.mle_gap_nats
        );
    }

    println!("\n== Coincidence window (capture vs accidentals) ==");
    println!("{:>14} {:>12} {:>18}", "window (ps)", "CAR", "coinc rate (Hz)");
    let rows = window_ablation(&[250, 1000, 4000, 8000, 16_000, 64_000], 2019)?;
    for row in rows {
        println!(
            "{:>14} {:>12.1} {:>18.3}",
            row.window_ps, row.car, row.coincidence_rate_hz
        );
    }
    println!(
        "\nThe 8-ns window of the analyses sits where the 1.45-ns correlation\n\
         envelope is fully captured but the accidental integration is still small."
    );

    println!("\n== Pump amplitude (the §V rate-vs-quality trade) ==");
    println!(
        "{:>8} {:>10} {:>14} {:>16} {:>14}",
        "factor", "μ/frame", "visibility", "4-fold rate ×", "pair fidelity"
    );
    let source = QfcSource::paper_device_timebin();
    for row in pump_trade_scan(&source, &TimeBinConfig::paper(), &[0.5, 1.0, 2.0, 3.0, 5.0])? {
        println!(
            "{:>8.1} {:>10.4} {:>14.3} {:>16.1} {:>14.3}",
            row.pump_factor,
            row.mu,
            row.state_visibility,
            row.relative_four_fold_rate,
            row.pair_fidelity
        );
    }
    println!(
        "\nThe §V experiments run at 3× — the point where four-folds become\n\
         practical while the pair fidelity is still ~0.84, which after\n\
         squaring (two pairs) and white noise lands the 0.64 fidelity."
    );
    Ok(())
}
