//! A/B tool for the MLE engine: runs the §V paper configuration's
//! reconstructions over a seed range, dumps every reconstructed state as
//! f64 bits, and compares two dumps. It calls only entry points that
//! predate the factored qubit sweep, so the same file builds against
//! both trees.
//!
//! `dump` runs, per seed, the five T3 channels and T4 of
//! `MultiPhotonConfig::paper()` on `QfcSource::paper_device_timebin()`
//! with no faults. Each reconstruction rebuilds its count table as the
//! driver does (T3: `split_seed(seed, m)`; T4: `seed + 2`) and runs it
//! through `reconstruct_with_fallback`; the example then checks that its
//! fidelities and iteration counts equal those of
//! `try_run_multiphoton_experiment` on the same seed, bit for bit. It
//! prints one row per reconstruction (iterations, certified gap,
//! `converged`, fidelity) and writes one line per reconstruction to the
//! dump: seed, name, iterations, gap, `converged`, fidelity and the
//! state's entries as hexadecimal f64 bits.
//!
//! `compare` reads two dumps and prints, per reconstruction, iterations
//! before → after, both gaps, `converged` before → after, max |Δρᵢⱼ| and
//! |ΔF|, then per reconstruction name the largest |Δρᵢⱼ| and |ΔF|, the
//! seed-to-seed standard deviation of F in the first dump, and how many
//! reconstructions that certified in the first dump still certify.
//!
//! ```sh
//! cargo run --release --example mle_equivalence -- dump <file> [first seed] [last seed]
//! cargo run --release --example mle_equivalence -- compare <before> <after>
//! ```
//!
//! The default seeds are the committed seed 20170327 and 1–24 when no
//! range is given.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use qfc::core::multiphoton::{
    plan_multiphoton_experiment, try_four_photon_state, try_run_multiphoton_experiment,
    MultiPhotonConfig,
};
use qfc::core::source::QfcSource;
use qfc::core::supervisor::reconstruct_with_fallback;
use qfc::core::timebin::try_channel_state_model_boosted;
use qfc::faults::{FaultSchedule, HealthReport, QfcResult};
use qfc::mathkit::rng::split_seed;
use qfc::quantum::bell::bell_phi;
use qfc::quantum::density::DensityMatrix;
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::quantum::multiphoton::four_photon_product;
use qfc::tomography::reconstruct::{MleOptions, MleResult};
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

/// One reconstruction of a dump.
struct Row {
    iterations: usize,
    gap: f64,
    converged: bool,
    fidelity: f64,
    rho: Vec<f64>,
}

/// The state's entries, real and imaginary parts in row-major order.
fn entries(rho: &DensityMatrix) -> Vec<f64> {
    rho.as_matrix().as_slice().iter().flat_map(|z| [z.re, z.im]).collect()
}

/// The dump line of one reconstruction.
fn dump_line(seed: u64, name: &str, mle: &MleResult, fidelity: f64) -> String {
    let mut line = format!(
        "{seed} {name} {} {:016x} {} {:016x}",
        mle.iterations,
        mle.gap_nats.to_bits(),
        mle.converged,
        fidelity.to_bits()
    );
    for x in entries(&mle.rho) {
        write!(line, " {:016x}", x.to_bits()).expect("write to a String");
    }
    line
}

/// The §V reconstructions of one seed, as `(name, result, fidelity)`.
fn reconstructions(seed: u64) -> QfcResult<Vec<(String, MleResult, f64)>> {
    let source = QfcSource::paper_device_timebin();
    let config = MultiPhotonConfig::paper();
    let schedule = FaultSchedule::empty();
    let plan = plan_multiphoton_experiment(&source, &config, seed, &schedule)?;
    let options = MleOptions::default();
    let mut out = Vec::new();
    for &m in &plan.survivors {
        // `bell_channel_task` with no faults: the same state, noise and
        // count streams.
        let c = config.timebin;
        let model = try_channel_state_model_boosted(&source, &c, m, plan.amp)?;
        let p_sig = model.mu * c.arm_efficiency.powi(2) * 0.125;
        let white = (model.accidental_prob / (model.accidental_prob + p_sig)).clamp(0.0, 1.0);
        let rho = model.rho.depolarize(white);
        let data = try_stream_counts_seeded(
            &rho,
            &all_settings(2),
            config.bell_shots_per_setting,
            split_seed(seed, u64::from(m)),
        )?;
        let mle = reconstruct_with_fallback(&data, &options, &mut HealthReport::pristine())?;
        let fidelity = fidelity_with_pure(&mle.rho, &bell_phi(config.timebin.pump_phase));
        out.push((format!("T3-ch{m}"), mle, fidelity));
    }
    let rho4 = try_four_photon_state(&source, &config, &plan.tb4, plan.pump4)?;
    let data = try_stream_counts_seeded(
        &rho4,
        &all_settings(4),
        config.four_shots_per_setting,
        seed.wrapping_add(2),
    )?;
    let mle = reconstruct_with_fallback(&data, &options, &mut HealthReport::pristine())?;
    let fidelity = fidelity_with_pure(&mle.rho, &four_photon_product(config.timebin.pump_phase));
    out.push(("T4".to_owned(), mle, fidelity));

    // The driver must report exactly these reconstructions.
    let report = try_run_multiphoton_experiment(&source, &config, seed, &schedule)?.report;
    let driver: Vec<(usize, f64)> = report
        .bell
        .iter()
        .map(|b| (b.iterations, b.fidelity))
        .chain([(report.tomography.iterations, report.tomography.fidelity)])
        .collect();
    for ((name, mle, fidelity), (iterations, f)) in out.iter().zip(&driver) {
        assert_eq!(
            (mle.iterations, fidelity.to_bits()),
            (*iterations, f.to_bits()),
            "seed {seed} {name}: the replayed reconstruction differs from the driver's"
        );
    }
    assert_eq!(out.len(), driver.len(), "seed {seed}: reconstruction count");
    Ok(out)
}

fn dump(path: &str, seeds: &[u64]) -> QfcResult<()> {
    let mut text = String::new();
    println!("{:>9} {:>7} {:>5} {:>10} {:>9} {:>8}", "seed", "name", "iter", "gap nats", "converged", "F");
    for &seed in seeds {
        for (name, mle, fidelity) in reconstructions(seed)? {
            println!(
                "{seed:>9} {name:>7} {:>5} {:>10.4} {:>9} {fidelity:>8.5}",
                mle.iterations, mle.gap_nats, mle.converged
            );
            text.push_str(&dump_line(seed, &name, &mle, fidelity));
            text.push('\n');
        }
    }
    std::fs::write(path, text).expect("write the dump");
    println!("wrote {path}");
    Ok(())
}

/// Parses a dump into `(seed, name) → row`.
fn read_dump(path: &str) -> BTreeMap<(u64, String), Row> {
    let text = std::fs::read_to_string(path).expect("read a dump");
    let bits = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex f64 bits"));
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let seed = f[0].parse().expect("seed");
            let row = Row {
                iterations: f[2].parse().expect("iterations"),
                gap: bits(f[3]),
                converged: f[4] == "true",
                fidelity: bits(f[5]),
                rho: f[6..].iter().map(|s| bits(s)).collect(),
            };
            ((seed, f[1].to_owned()), row)
        })
        .collect()
}

fn compare(before: &str, after: &str) {
    let (a, b) = (read_dump(before), read_dump(after));
    println!("| seed | name | iterations | gap nats | converged | max abs Δρ | abs ΔF |");
    println!("|---|---|---|---|---|---|---|");
    // name → (max |Δρ|, max |ΔF|, F values before, certified before, still certified)
    let mut summary: BTreeMap<String, (f64, f64, Vec<f64>, usize, usize)> = BTreeMap::new();
    for ((seed, name), x) in &a {
        let Some(y) = b.get(&(*seed, name.clone())) else {
            println!("| {seed} | {name} | missing from {after} | | | | |");
            continue;
        };
        let drho = x.rho.iter().zip(&y.rho).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
        let df = (x.fidelity - y.fidelity).abs();
        println!(
            "| {seed} | {name} | {} → {} | {:.4} → {:.4} | {} → {} | {drho:.1e} | {df:.1e} |",
            x.iterations, y.iterations, x.gap, y.gap, x.converged, y.converged
        );
        let e = summary.entry(name.clone()).or_insert((0.0, 0.0, Vec::new(), 0, 0));
        e.0 = e.0.max(drho);
        e.1 = e.1.max(df);
        e.2.push(x.fidelity);
        if x.converged {
            e.3 += 1;
            e.4 += usize::from(y.converged);
        }
    }
    println!();
    println!("| name | max abs Δρ | max abs ΔF | σ(F) over seeds | certified before → still certified |");
    println!("|---|---|---|---|---|");
    for (name, (drho, df, fs, certified, still)) in summary {
        let n = fs.len() as f64;
        let mean = fs.iter().sum::<f64>() / n;
        let sd = (fs.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0)).sqrt();
        println!("| {name} | {drho:.1e} | {df:.1e} | {sd:.4} | {certified} → {still} |");
    }
}

fn main() -> QfcResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("dump") if args.len() >= 2 => {
            let seeds: Vec<u64> = match (args.get(2), args.get(3)) {
                (Some(lo), Some(hi)) => {
                    (lo.parse().expect("first seed")..=hi.parse().expect("last seed")).collect()
                }
                _ => std::iter::once(20_170_327).chain(1..=24).collect(),
            };
            dump(&args[1], &seeds)
        }
        Some("compare") if args.len() == 3 => {
            compare(&args[1], &args[2]);
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: mle_equivalence dump <file> [first seed] [last seed]\n       \
                 mle_equivalence compare <before> <after>"
            );
            std::process::exit(2);
        }
    }
}
