//! Serial timing of the §II coincidence sweeps on one seed's paper
//! streams: the 20 off-diagonal F1 cells (`count_coincidences`) and the
//! 5 diagonal CAR cells (`measure_car`, 11 windows each), one after
//! another on one thread, repeated. It prints the median time of each
//! group and the counts, so an A/B between two trees compares times on
//! identical inputs and checks that the counts agree.
//!
//! ```sh
//! cargo run --release --example coincidence_sweep -- [seed] [repetitions]
//! ```

use std::time::Instant;

use qfc::core::heralded::{heralded_channel_task, plan_heralded_experiment, HeraldedConfig};
use qfc::core::source::QfcSource;
use qfc::faults::{FaultSchedule, QfcResult};
use qfc::timetag::coincidence::{count_coincidences, measure_car};
use qfc::timetag::events::TagStream;

/// Median of `samples`, ms.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() -> QfcResult<()> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20170327);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8).max(1);

    let config = HeraldedConfig::paper();
    let schedule = FaultSchedule::empty();
    let plan = plan_heralded_experiment(&QfcSource::paper_device(), &config, seed, &schedule)?;
    let (signal, idler): (Vec<TagStream>, Vec<TagStream>) = plan
        .survivors
        .iter()
        .enumerate()
        .map(|(idx, &m)| heralded_channel_task(&config, &schedule, &plan, idx, m))
        .unzip();
    let n = signal.len();
    let tags: usize = signal.iter().chain(&idler).map(TagStream::len).sum();
    let window = config.coincidence_window_ps;
    // The §II CAR's displaced-window step: three windows, at least 20 ns.
    let step = (3 * window).max(20_000);

    let (mut off_ms, mut car_ms) = (Vec::new(), Vec::new());
    let (mut off_counts, mut car_counts) = (0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        off_counts = 0;
        for (i, s) in signal.iter().enumerate() {
            for (_, d) in idler.iter().enumerate().filter(|&(j, _)| j != i) {
                off_counts += count_coincidences(s, d, window, 0);
            }
        }
        off_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        car_counts = 0;
        for (s, d) in signal.iter().zip(&idler) {
            let car = measure_car(s, d, window, step, 10);
            car_counts += car.coincidences + (car.accidentals * 10.0).round() as u64;
        }
        car_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    println!("seed {seed}: {n} channels, {tags} tags, {reps} repetitions");
    println!(
        "off-diagonal cells ({}): median {:.2} ms, {off_counts} coincidences",
        n * (n - 1),
        median(off_ms)
    );
    println!(
        "CAR cells ({n}): median {:.2} ms, {car_counts} coincidences over all windows",
        median(car_ms)
    );
    Ok(())
}
