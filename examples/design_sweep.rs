//! Device-design exploration: how the coupling choice trades linewidth
//! (quantum-memory compatibility), OPO threshold, pair rate, and field
//! enhancement — the design space behind the paper's 110-MHz / 14-mW
//! operating point — followed by a dense batch sweep of the chosen
//! device that doubles as a smoke benchmark (points/sec through the
//! SoA sweep layer), and an A/B of each batch kernel against the
//! point-by-point public-API loop it replaced: interleaved best-of-3,
//! both legs on one thread, so the ratio isolates the kernel.
//!
//! ```sh
//! cargo run --release --example design_sweep
//! ```

use std::time::Instant;

use qfc::photonics::memory::{ring_memory_efficiency, MemoryProfile};
use qfc::photonics::opo;
use qfc::photonics::ring::{Microring, MicroringBuilder};
use qfc::photonics::sweep::{self, BatchBuffers, SweepGrid};
use qfc::photonics::units::{Frequency, Power};
use qfc::photonics::waveguide::{Polarization, Waveguide};

fn main() {
    println!("Sweeping the loaded linewidth of a 200-GHz Hydex ring");
    println!("(pump fixed at 15 mW on-chip for the rate column)\n");
    println!(
        "{:>10}  {:>9}  {:>9}  {:>11}  {:>12}  {:>10}",
        "linewidth", "loaded Q", "FE^2", "P_th (mW)", "rate (Hz)", "memory η"
    );

    let memory = MemoryProfile::atomic_100mhz();
    let pump_grid = SweepGrid::from_points(vec![Power::from_mw(15.0).w()]);
    let mut rates = BatchBuffers::new();
    for lw_mhz in [25.0, 50.0, 110.0, 220.0, 440.0, 880.0] {
        let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
        b.anchor(Frequency::from_thz(193.4))
            .radius_for_fsr(Frequency::from_ghz(200.0));
        b.coupling_for_linewidth(Frequency::from_hz(lw_mhz * 1e6));
        let ring = b.build();
        // Channel-1 pair rate via the batch layer (single-point grid):
        // bit-identical to fwm::pair_rate_cw.
        sweep::pair_rate_channels_batch(&ring, Polarization::Te, &pump_grid, 1, &mut rates);
        println!(
            "{:>7.0} MHz  {:>9.2e}  {:>9.0}  {:>11.1}  {:>12.1}  {:>10.3}",
            lw_mhz,
            ring.q_loaded(),
            ring.field_enhancement_power(),
            opo::threshold(&ring).mw(),
            rates.values()[0],
            ring_memory_efficiency(&ring, &memory),
        );
    }

    println!(
        "\nThe paper's choice (110 MHz) sits at the knee: narrow enough for\n\
         ~50 % direct memory acceptance and a 14-mW threshold, wide enough\n\
         to keep the per-channel pair rate in the tens of Hz."
    );

    // ---- dense batch sweeps of the paper device: the smoke benchmark ----
    let ring = Microring::paper_device();
    let lw = ring.linewidth().hz();
    let mut buf = BatchBuffers::new();

    // Dispersion scan: every 200-GHz channel of the ±40-channel comb,
    // 2048 frequency points across ±5 linewidths of each resonance.
    let channels: Vec<i32> = (-40..=40).collect();
    let per_channel = 2048usize;
    let grids: Vec<SweepGrid> = channels
        .iter()
        .map(|&m| {
            let f0 = ring.resonance(Polarization::Te, m).hz();
            SweepGrid::try_linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, per_channel)
                .expect("a ±5-linewidth grid of 2048 points")
        })
        .collect();
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for (&m, grid) in channels.iter().zip(&grids) {
        sweep::ring_power_response_batch(&ring, Polarization::Te, m, grid, &mut buf);
        acc += buf.values().iter().sum::<f64>();
    }
    let dt = t0.elapsed().as_secs_f64();
    let points = channels.len() * per_channel;
    println!(
        "\nDispersion scan: {} channels × {} points = {} evaluations in {:.1} ms \
         ({:.2e} points/sec, Σresponse = {:.1})",
        channels.len(),
        per_channel,
        points,
        dt * 1e3,
        points as f64 / dt,
        acc,
    );

    // OPO transfer sweep: 100k pump powers across the threshold kink.
    let p_th = opo::threshold(&ring).w();
    let n_opo = 100_000usize;
    let power_grid = SweepGrid::try_linspace(0.05 * p_th, 3.0 * p_th, n_opo)
        .expect("a grid of 100 000 powers across threshold");
    let t0 = Instant::now();
    sweep::opo_transfer_batch(&ring, &power_grid, &mut buf);
    let dt = t0.elapsed().as_secs_f64();
    let kink = buf
        .values()
        .windows(2)
        .filter(|w| w[1] > 100.0 * w[0].max(1e-300))
        .count();
    println!(
        "OPO transfer sweep: {} points in {:.1} ms ({:.2e} points/sec, {} threshold kink(s))",
        n_opo,
        dt * 1e3,
        n_opo as f64 / dt,
        kink,
    );

    // ---- the batch layer vs the point-by-point public API ----
    // The scalar legs call the public API once per grid point from
    // outside the crate, as every scan did before the batch layer; without
    // LTO those calls stay opaque, so the ring invariants are recomputed
    // per point. Both legs must sum to the same bits.
    println!("\nBatch kernel vs point-by-point public API (interleaved best-of-3, 1 thread):");
    let scan_scalar = || {
        let mut acc = 0.0f64;
        for (&m, grid) in channels.iter().zip(&grids) {
            acc += grid
                .points()
                .iter()
                .map(|&f| ring.power_response(Polarization::Te, m, Frequency::from_hz(f)))
                .sum::<f64>();
        }
        acc
    };
    let scan_batch = || {
        let mut buf = BatchBuffers::new();
        let mut acc = 0.0f64;
        for (&m, grid) in channels.iter().zip(&grids) {
            sweep::ring_power_response_batch(&ring, Polarization::Te, m, grid, &mut buf);
            acc += buf.values().iter().sum::<f64>();
        }
        acc
    };
    report_ab("dispersion scan", points, scan_scalar, scan_batch);
    let opo_scalar = || {
        power_grid
            .points()
            .iter()
            .map(|&p| opo::output_power(&ring, Power::from_w(p)).w())
            .sum::<f64>()
    };
    let opo_batch = || {
        let mut buf = BatchBuffers::new();
        sweep::opo_transfer_batch(&ring, &power_grid, &mut buf);
        buf.values().iter().sum::<f64>()
    };
    report_ab("OPO transfer sweep", n_opo, opo_scalar, opo_batch);
}

/// Times `scalar` and `batch` alternately three times each on one
/// worker, so drift hits both legs alike, checks that they agree bit
/// for bit, and prints the best time of each and their ratio.
fn report_ab(name: &str, points: usize, scalar: impl Fn() -> f64, batch: impl Fn() -> f64) {
    let time_ms = |f: &dyn Fn() -> f64| {
        let t0 = Instant::now();
        let sum = qfc::runtime::with_threads(1, f);
        (t0.elapsed().as_secs_f64() * 1e3, sum)
    };
    let mut best_scalar = f64::INFINITY;
    let mut best_batch = f64::INFINITY;
    for _ in 0..3 {
        let (ms, scalar_sum) = time_ms(&scalar);
        best_scalar = best_scalar.min(ms);
        let (ms, batch_sum) = time_ms(&batch);
        best_batch = best_batch.min(ms);
        assert_eq!(
            scalar_sum.to_bits(),
            batch_sum.to_bits(),
            "{name}: legs disagree"
        );
    }
    println!(
        "  {name:<20} {points:>7} points: scalar {best_scalar:>7.2} ms | batch {best_batch:>7.2} ms \
         | {:.1}x",
        best_scalar / best_batch
    );
}
