//! High-dimensional extension: the paper's "frequency multiplexing to
//! enable high dimensional … operation" outlook, made concrete. The many
//! symmetric channel pairs of the comb encode a frequency-bin qudit pair;
//! this example computes its entanglement and the CGLMP violation budget.
//!
//! ```sh
//! cargo run --release --example qudit_extension
//! ```

use qfc::core::source::QfcSource;
use qfc::faults::QfcResult;
use qfc::quantum::qudit::{
    cglmp_critical_visibility, cglmp_value, BipartiteQudit, CGLMP_CLASSICAL_BOUND,
};

fn main() -> QfcResult<()> {
    let source = QfcSource::paper_device_timebin();

    println!("== Frequency-bin qudits from the comb ==");
    println!("(channel-pair SFWM amplitudes weight the Schmidt modes)\n");
    println!("  d   entropy (bits)   ideal log2(d)   Schmidt rank");
    for d in [2usize, 3, 4, 5, 8] {
        // Per-channel pair emission weights from the source model.
        let weights: Vec<f64> = (1..=d as u32)
            .map(|m| source.try_pairs_per_frame(m))
            .collect::<QfcResult<_>>()?;
        let state = BipartiteQudit::from_channel_weights(&weights);
        println!(
            " {:>2}     {:>6.3}          {:>6.3}          {:>3}",
            d,
            state.entanglement_entropy_bits(),
            (d as f64).log2(),
            state.schmidt_rank(1e-9)
        );
    }

    println!("\n== CGLMP violation budget ==");
    println!("(classical bound {CGLMP_CLASSICAL_BOUND}; critical visibility falls with d)\n");
    println!("  d    I_d (V=1)   critical V   I_d at V=0.83");
    for d in 2..=8 {
        println!(
            " {:>2}    {:>7.4}     {:>6.4}      {:>7.4} {}",
            d,
            cglmp_value(d, 1.0),
            cglmp_critical_visibility(d),
            cglmp_value(d, 0.83),
            if cglmp_value(d, 0.83) > CGLMP_CLASSICAL_BOUND {
                "VIOLATES"
            } else {
                ""
            }
        );
    }
    println!(
        "\nAt the paper's 83 % visibility, every dimension d ≥ 2 violates its\n\
         CGLMP bound — and the margin grows with d: high-dimensional\n\
         frequency-bin operation is within the measured noise budget."
    );
    Ok(())
}
