//! Timing and law probe of the §II and §III time-tag Monte Carlos, for
//! an A/B between two trees: it calls only entry points whose signatures
//! predate the click generator, so the same file builds against both.
//!
//! Timing (default): per seed, the five §II paper channel tasks one
//! after another on one thread (`plan_heralded_experiment` plus
//! `heralded_channel_task`), and the §III paper run
//! (`try_run_crosspol_experiment` on `QfcSource::paper_device_type2()`)
//! at 1 and at 2 threads. It prints the median over seeds of each, with
//! its quartiles, and the mean tags and singles per arm.
//!
//! Law (`stats`): mean ± standard error over 32 §II seeds (1000–1031) of
//! each channel's singles, coincidence rate, accidentals per window
//! (coincidences / CAR), CAR and mean off-diagonal F1 count, and of the
//! F2 linewidth, and over 16 §III seeds (2000–2015) of the singles,
//! coincidence rate and CAR.
//!
//! ```sh
//! cargo run --release --example timetag_mc -- [first seed] [seeds]
//! cargo run --release --example timetag_mc -- stats
//! ```

use std::time::Instant;

use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig, CrossPolReport};
use qfc::core::heralded::{
    heralded_channel_task, plan_heralded_experiment, try_run_heralded_experiment, HeraldedConfig,
};
use qfc::core::source::QfcSource;
use qfc::faults::{FaultSchedule, QfcResult};
use qfc::runtime::with_threads;

/// "median (lower–upper quartile)" of `samples`, nearest rank.
fn quartiles(mut samples: Vec<f64>) -> String {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    format!("{:.1} ({:.1}–{:.1})", samples[n / 2], samples[n / 4], samples[3 * n / 4])
}

/// Mean and standard error of the mean of `samples`.
fn mean_se(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The §III paper run on `seed` at `threads` threads, and its wall time.
fn crosspol_run(seed: u64, threads: usize) -> QfcResult<(f64, CrossPolReport)> {
    let source = QfcSource::paper_device_type2();
    let config = CrossPolConfig::paper();
    with_threads(threads, || {
        let t0 = Instant::now();
        let run = try_run_crosspol_experiment(&source, &config, seed, &FaultSchedule::empty())?;
        Ok((ms(t0), run.report))
    })
}

fn timing(first: u64, seeds: u64) -> QfcResult<()> {
    let source = QfcSource::paper_device();
    let config = HeraldedConfig::paper();
    let schedule = FaultSchedule::empty();
    let (mut heralded_ms, mut tags, mut singles) = (Vec::new(), 0usize, 0.0);
    let (mut one_ms, mut two_ms, mut crosspol_singles) = (Vec::new(), Vec::new(), 0.0);
    for seed in first..first + seeds {
        let t0 = Instant::now();
        let plan = plan_heralded_experiment(&source, &config, seed, &schedule)?;
        let mut arms = Vec::new();
        for (idx, &m) in plan.survivors.iter().enumerate() {
            let (s, i) = heralded_channel_task(&config, &schedule, &plan, idx, m);
            arms.push(s.len());
            arms.push(i.len());
        }
        heralded_ms.push(ms(t0));
        tags += arms.iter().sum::<usize>();
        singles += arms.iter().sum::<usize>() as f64 / arms.len() as f64 / config.duration_s;

        let (one, report) = crosspol_run(seed, 1)?;
        let (two, _) = crosspol_run(seed, 2)?;
        one_ms.push(one);
        two_ms.push(two);
        crosspol_singles += 0.5 * (report.te_singles_hz + report.tm_singles_hz);
    }
    let n = seeds as f64;
    println!("seeds {first}..={}", first + seeds - 1);
    println!(
        "§II  5 channel tasks, serial: median {} ms; {:.0} tags per arm, {:.2} Hz singles",
        quartiles(heralded_ms),
        tags as f64 / n / 10.0,
        singles / n
    );
    println!(
        "§III paper run: median {} ms at 1 thread, {} ms at 2; {:.2} Hz singles",
        quartiles(one_ms),
        quartiles(two_ms),
        crosspol_singles / n
    );
    Ok(())
}

fn print_row(what: &str, samples: &[f64]) {
    let (mean, se) = mean_se(samples);
    println!("{what}\t{mean:.6}\t{se:.6}");
}

fn stats() -> QfcResult<()> {
    let source = QfcSource::paper_device();
    let config = HeraldedConfig::paper();
    // Per channel: signal and idler singles, coincidence rate,
    // accidentals per window, CAR, mean off-diagonal F1 count.
    let mut rows = vec![vec![Vec::new(); 6]; config.channels as usize];
    let mut linewidth_mhz = Vec::new();
    for seed in 1000..1032 {
        let run = try_run_heralded_experiment(&source, &config, seed, &FaultSchedule::empty())?;
        let report = &run.report;
        linewidth_mhz.push(report.linewidth.linewidth_hz * 1e-6);
        for (k, c) in report.channels.iter().enumerate() {
            let coincidences = c.coincidence_rate_hz * report.duration_s;
            let row = &report.coincidence_matrix[k];
            let off = row.iter().sum::<u64>() - row[k];
            let values = [
                c.signal_singles_hz,
                c.idler_singles_hz,
                c.coincidence_rate_hz,
                coincidences / c.car,
                c.car,
                off as f64 / (row.len() - 1) as f64,
            ];
            for (samples, v) in rows[k].iter_mut().zip(values) {
                samples.push(v);
            }
        }
    }
    let names = ["signal_hz", "idler_hz", "coinc_hz", "accidentals", "car", "off_diag"];
    println!("quantity\tmean\tse");
    for (k, channel) in rows.iter().enumerate() {
        for (name, samples) in names.iter().zip(channel) {
            print_row(&format!("II ch{} {name}", k + 1), samples);
        }
    }
    print_row("II f2 linewidth_mhz", &linewidth_mhz);
    let mut crosspol = vec![Vec::new(); 4];
    for seed in 2000..2016 {
        let (_, r) = crosspol_run(seed, 2)?;
        let values = [r.te_singles_hz, r.tm_singles_hz, r.coincidence_rate_hz, r.car];
        for (samples, v) in crosspol.iter_mut().zip(values) {
            samples.push(v);
        }
    }
    for (name, samples) in ["te_hz", "tm_hz", "coinc_hz", "car"].iter().zip(&crosspol) {
        print_row(&format!("III {name}"), samples);
    }
    Ok(())
}

fn main() -> QfcResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("stats") {
        return stats();
    }
    let first = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
    let seeds = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7u64).max(1);
    timing(first, seeds)
}
