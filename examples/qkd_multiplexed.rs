//! QKD feasibility over the multiplexed comb — the quantum-communication
//! application the paper's introduction motivates: every time-bin
//! entangled channel pair becomes one BBM92 key channel.
//!
//! ```sh
//! cargo run --release --example qkd_multiplexed
//! ```

use qfc::core::multiplex::plan_star_network;
use qfc::core::qkd::{qkd_from_timebin, QBER_THRESHOLD};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{
    channel_state_model, coincidence_probability, try_run_timebin_experiment, TimeBinConfig,
};
use qfc::faults::FaultSchedule;

fn main() {
    let source = QfcSource::paper_device_timebin();
    let config = TimeBinConfig::paper();
    println!("Measuring the §IV entangled channels…");
    let timebin = try_run_timebin_experiment(&source, &config, 37, &FaultSchedule::empty())
        .expect("fault-free time-bin run")
        .report;

    // Phase-averaged coincidence probability per frame for each channel.
    let probs: Vec<f64> = (1..=config.channels)
        .map(|m| {
            let model = channel_state_model(&source, &config, m);
            (0..32)
                .map(|k| {
                    let phi = 2.0 * std::f64::consts::PI * k as f64 / 32.0;
                    coincidence_probability(&model, &config, phi, 0.0)
                })
                .sum::<f64>()
                / 32.0
        })
        .collect();

    let qkd = qkd_from_timebin(&timebin, 10.0e6, &probs);

    println!("\n== BBM92 over the multiplexed quantum frequency comb ==");
    println!("  m   visibility    QBER     sifted (bit/s)   secret key (bit/s)");
    for c in &qkd.channels {
        println!(
            " {:>2}    {:>6.3}    {:>6.3} %    {:>8.1}        {:>8.1}",
            c.m,
            c.visibility,
            c.qber * 100.0,
            c.sifted_rate_hz,
            c.secret_key_rate_hz
        );
    }
    println!(
        "\naggregate secret-key rate: {:.1} bit/s over {} channels",
        qkd.total_secret_key_rate_hz,
        qkd.channels.len()
    );
    println!("one-way QBER threshold: {:.1} %", QBER_THRESHOLD * 100.0);

    println!("\n== Star network: one user pair per channel pair ==");
    let net = plan_star_network(&source, &config, 8, 10.0e6);
    println!(
        "  pair    Alice λ            Bob λ              bands    pairs/s   key bit/s"
    );
    for u in &net.users {
        println!(
            "  {:>3}    {}   {}   {}/{}     {:>6.1}    {:>6.1}",
            u.user_pair,
            u.alice_frequency,
            u.bob_frequency,
            u.bands.0,
            u.bands.1,
            u.pair_rate_hz,
            u.key_rate_hz
        );
    }
    println!(
        "network total: {:.1} bit/s over {} simultaneous user pairs (disjoint λ: {})",
        net.total_key_rate_hz(),
        net.user_pairs(),
        net.wavelengths_disjoint()
    );
    println!("\n{}", qkd.to_report().render());
}
