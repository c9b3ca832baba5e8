//! §IV — Multiplexed time-bin entanglement: interference fringes (F7)
//! and CHSH violation on all five channel pairs (T2).
//!
//! ```sh
//! cargo run --release --example timebin_entanglement
//! ```

use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, try_run_timebin_experiment, TimeBinConfig};
use qfc::faults::{FaultSchedule, QfcResult};
use qfc::quantum::chsh::TSIRELSON_BOUND;

fn main() -> QfcResult<()> {
    let source = QfcSource::paper_device_timebin();
    let config = TimeBinConfig::paper();
    println!(
        "Running §IV double-pulse pumping, {} channels, {} phase points…",
        config.channels, config.phase_steps
    );
    let report = try_run_timebin_experiment(&source, &config, 23, &FaultSchedule::empty())?.report;

    println!("\n== F7 two-photon interference fringes ==");
    for f in &report.fringes {
        println!(
            "channel {}: fitted visibility {:.1} % (state model {:.1} %)",
            f.m,
            f.fit.visibility * 100.0,
            f.state_visibility * 100.0
        );
    }
    println!(
        "mean raw visibility: {:.1} % (paper: 83 %)",
        report.mean_visibility() * 100.0
    );

    // ASCII fringe of channel 1.
    println!("\nchannel-1 fringe (counts vs analyzer phase):");
    let f1 = &report.fringes[0];
    let max = f1.points.iter().map(|p| p.1).max().unwrap_or(1).max(1);
    for &(phi, c) in &f1.points {
        let bar = "#".repeat((c * 50 / max) as usize);
        println!("  φ={phi:>5.2}  {c:>7}  {bar}");
    }

    println!("\n== T2 CHSH on every channel pair ==");
    println!("  m     S value     σ       violation");
    for c in &report.chsh {
        println!(
            " {:>2}    {:>6.3}    {:>6.3}    {:>5.1} σ above the classical bound",
            c.m, c.s_value, c.sigma, c.n_sigma_violation
        );
    }
    println!(
        "{} of {} channels violate CHSH (Tsirelson bound: {:.3})",
        report.channels_violating(),
        report.chsh.len(),
        TSIRELSON_BOUND
    );

    println!("\n== Event-based Monte Carlo: joint arrival-slot table ==");
    println!("(channel 1, constructive vs destructive analyzer phase)\n");
    let scan = run_timebin_event_mc(&source, &config, 1, &[0.0, std::f64::consts::PI], 99)?;
    for p in &scan {
        println!("analyzer phase φ = {:.2}:", p.phase);
        println!("            B:first  B:middle  B:last");
        let labels = ["A:first ", "A:middle", "A:last  "];
        for (i, row) in p.slots.iter().enumerate() {
            println!(
                "  {}  {:>7}  {:>8}  {:>6}",
                labels[i], row[0], row[1], row[2]
            );
        }
        println!(
            "  middle/middle (interfering): {}   satellites (phase-blind): {}\n",
            p.middle_middle(),
            p.satellites()
        );
    }

    println!("{}", report.to_report().render());
    Ok(())
}
