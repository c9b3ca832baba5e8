//! The repository benchmark: three workloads through the entry points
//! users call, end-to-end metrics with tracing off (`--trace 0`), and a
//! separate traced run that breaks each run down by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload heralded --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! print every metric with its unit and samples, and the run's
//! provenance. Any correctness failure exits with code 1. Every timed
//! set-up and run is bracketed by a host-speed calibration (`calib`).
//! See `perfbench/README.md`.

mod alloc;
mod calib;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Cycle, Report, TracedRun};
use stats::{derive_seed, Stream};
use trace::Tracer;
use workloads::{Bench, CampaignHeralded, Counts, Heralded, MultiPhoton, RunOutput};

/// Pool threads of every measured run.
const THREADS: usize = 2;
/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed runs per process at least, so the tail rule has a percentile.
const MIN_RUNS: u64 = stats::TAIL_BEYOND as u64 + 1;
/// Traced cycles per process at least.
const MIN_CYCLES: u64 = 3;
/// Measuring stops here even below the minimum counts, so a much slower
/// program still exits in time.
const HARD_STOP: Duration = Duration::from_secs(120);

const WORKLOADS: [&str; 3] = ["heralded", "multiphoton", "campaign-heralded"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS.iter().find(|w| **w == value);
                workload =
                    Some(*name.ok_or_else(|| {
                        format!("unknown workload {value}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn build(workload: &str) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "heralded" => Box::new(Heralded::new()),
        "multiphoton" => Box::new(MultiPhoton::new()?),
        _ => {
            let dir = bench_dir()
                .join("work")
                .join(std::process::id().to_string());
            Box::new(CampaignHeralded::new(dir))
        }
    })
}

/// Runs `f` at `threads` pool threads, turning a panic into an error.
fn guarded<T>(threads: usize, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| qfc_runtime::with_threads(threads, f))).unwrap_or_else(
        |panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        },
    )
}

/// Counts runs and their failures for `failed_frac`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    fn same(&mut self, what: &str, a: &str, b: &str) {
        let verdict = if a == b {
            Ok(())
        } else {
            Err(format!("{} bytes vs {} bytes differ", a.len(), b.len()))
        };
        self.record(what, verdict);
    }
}

/// A wall time and the host's slowness around it: the mean of the
/// calibrations just before and just after (see `calib`).
#[derive(Clone, Copy)]
pub struct Paced {
    pub wall: f64,
    pub slowness: f64,
}

impl Paced {
    /// The wall time at the reference host speed, for a workload whose
    /// times follow slowness^`exponent`.
    pub fn calibrated(self, exponent: f64) -> f64 {
        self.wall / self.slowness.powf(exponent)
    }
}

/// What the set-ups leave for the rest of the process.
struct Setup {
    bench: Box<dyn Bench>,
    /// Each set-up's wall time, s.
    times: Vec<Paced>,
    /// The warm-up's serialized run on the check seed.
    warm: String,
}

/// Makes the once-only set-up check, then builds the inputs and makes one
/// warm-up on the check seed, `SETUPS` times. The allocator does not count
/// here, so set-up time is the program's own.
fn setup(workload: &str, check_seed: u64, tally: &mut Tally) -> Option<Setup> {
    let first = tally.record("set-up", build(workload))?;
    tally.record(
        "set-up check",
        guarded(THREADS, || first.setup_check(check_seed)),
    )?;
    drop(first);
    let mut times = Vec::new();
    let mut kept: Option<(Box<dyn Bench>, String)> = None;
    let mut before = calib::slowness();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let bench = tally.record("set-up", build(workload))?;
        let warm = tally.record("warm-up", guarded(THREADS, || bench.warm_up(check_seed)))?;
        let wall = t0.elapsed().as_secs_f64();
        let after = calib::slowness();
        times.push(Paced {
            wall,
            slowness: (before + after) / 2.0,
        });
        before = after;
        if let Some((_, first)) = &kept {
            tally.same(&format!("warm-up {k} equals warm-up 0"), first, &warm);
        }
        let first = kept.map_or(warm, |(_, b)| b);
        kept = Some((bench, first));
    }
    kept.map(|(bench, warm)| Setup { bench, times, warm })
}

/// Heap growth above the pre-run level of one untimed run on the check
/// seed with the allocator counting, MB. The run must reproduce the
/// warm-up's bytes.
fn peak_heap(bench: &dyn Bench, check_seed: u64, warm: &str, tally: &mut Tally) -> Option<f64> {
    let (run, peak) = alloc::counting(|| {
        let before = alloc::reset_peak();
        let run = guarded(THREADS, || bench.run(check_seed));
        (run, alloc::peak() - before)
    });
    let run = tally.record("peak-heap run", run)?;
    tally.same("peak-heap run vs warm-up", warm, &run.bytes);
    Some(peak as f64 / 1e6)
}

/// The correctness gate on the check seed: the run at 1 thread and the
/// traced decomposition must both reproduce the warm-up's bytes.
fn gate(bench: &dyn Bench, check_seed: u64, warm: &str, tally: &mut Tally) {
    if let Some(one) = tally.record("1-thread run", guarded(1, || bench.run(check_seed))) {
        tally.same("check seed at 1 thread vs 2 threads", warm, &one.bytes);
    }
    let tracer = Tracer::new();
    let mut counts = Counts::new();
    let traced = guarded(THREADS, || bench.traced(check_seed, &tracer, &mut counts));
    if let Some(bytes) = tally.record("traced decomposition", traced) {
        tally.same("traced decomposition vs driver", warm, &bytes);
    }
}

fn keep_going(start: Instant, seconds: u64, done: u64, min: u64) -> bool {
    let elapsed = start.elapsed();
    elapsed < HARD_STOP && (done < min || elapsed < Duration::from_secs(seconds))
}

/// One timed run.
pub struct Timed {
    pub out: RunOutput,
    /// The whole call, per-run checks included, ms.
    pub iteration: Paced,
}

impl Timed {
    /// `ms` of this run at the reference host speed.
    pub fn calibrated(&self, ms: f64, exponent: f64) -> f64 {
        Paced {
            wall: ms,
            slowness: self.iteration.slowness,
        }
        .calibrated(exponent)
    }
}

/// Runs on fresh seeds until the time is up, each between two host-speed
/// calibrations.
fn measure(bench: &dyn Bench, args: &Args, tally: &mut Tally) -> Vec<Timed> {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    let mut before = calib::slowness();
    while keep_going(start, args.seconds, i, MIN_RUNS) {
        let seed = derive_seed(args.seed, Stream::Run, i);
        i += 1;
        let t0 = Instant::now();
        let out = guarded(THREADS, || bench.run(seed));
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let after = calib::slowness();
        if let Some(out) = tally.record(&format!("run {i} (seed {seed})"), out) {
            samples.push(Timed {
                out,
                iteration: Paced {
                    wall,
                    slowness: (before + after) / 2.0,
                },
            });
        }
        before = after;
    }
    samples
}

/// The traced runs of one process and where their spans go.
struct TracedRuns<'a> {
    bench: &'a dyn Bench,
    tracer: &'a Tracer,
    runs: Vec<TracedRun>,
}

impl TracedRuns<'_> {
    /// The traced decomposition of `seed` at `threads` under a new run id,
    /// with the allocator counting if `counting`. A timed run at 2 threads
    /// is followed by the attribution re-timing. Returns the run id and
    /// the serialized run.
    fn run(
        &mut self,
        seed: u64,
        threads: usize,
        counting: bool,
        counts: &mut Counts,
        tally: &mut Tally,
    ) -> Option<(u32, String)> {
        let (bench, tracer) = (self.bench, self.tracer);
        let id = self.runs.len() as u32;
        tracer.set_run(id);
        self.runs.push(TracedRun {
            id,
            threads,
            seed,
            counting,
        });
        let mut decompose = || {
            guarded(threads, || {
                let bytes = bench.traced(seed, tracer, counts)?;
                if threads == THREADS && !counting {
                    bench.attribution(seed, tracer, counts)?;
                }
                Ok(bytes)
            })
        };
        let bytes = if counting {
            alloc::counting(decompose)
        } else {
            decompose()
        };
        let what = format!("traced run at {threads} thread(s), counting {counting}");
        tally.record(&what, bytes).map(|b| (id, b))
    }
}

/// The traced mode: traced cycles on fresh seeds until the time is up.
fn traced(
    bench: &dyn Bench,
    args: &Args,
    tracer: &Tracer,
    tally: &mut Tally,
) -> (Vec<Cycle>, Vec<TracedRun>) {
    let mut traced = TracedRuns {
        bench,
        tracer,
        runs: Vec::new(),
    };
    let mut cycles = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while keep_going(start, args.seconds, i, MIN_CYCLES) {
        let seed = derive_seed(args.seed, Stream::Run, i);
        cycles.extend(cycle(&mut traced, seed, i, tally));
        i += 1;
    }
    (cycles, traced.runs)
}

/// One traced cycle on `seed`. Four timed runs, with the allocator not
/// counting, in an order rotated from cycle to cycle so no reading always
/// goes first: an untraced run, the traced decomposition at 2 threads
/// with the attribution re-timing, a run with a `qfc_obs::Collector`, and
/// the traced decomposition at 1 thread. Then one more traced run at 1
/// thread with the allocator counting, whose spans give allocator calls
/// and never times. Every traced run must reproduce the untraced run's
/// bytes.
fn cycle(traced: &mut TracedRuns, seed: u64, rotation: u64, tally: &mut Tally) -> Option<Cycle> {
    let bench = traced.bench;
    let (mut plain, mut observed, mut traced_run) = (None, None, None);
    let mut traced_bytes = Vec::new();
    let mut counts = Counts::new();
    for step in 0..4 {
        match (step + rotation) % 4 {
            0 => plain = tally.record("untraced run", guarded(THREADS, || bench.run(seed))),
            1 => {
                if let Some((id, bytes)) = traced.run(seed, THREADS, false, &mut counts, tally) {
                    traced_run = Some(id);
                    traced_bytes.push(bytes);
                }
            }
            2 => {
                let collector = qfc_obs::Collector::new();
                let run = guarded(THREADS, || collector.install(|| bench.run(seed)));
                observed = tally.record("run with a collector", run);
            }
            _ => traced_bytes.extend(
                traced
                    .run(seed, 1, false, &mut Counts::new(), tally)
                    .map(|r| r.1),
            ),
        }
    }
    traced_bytes.extend(
        traced
            .run(seed, 1, true, &mut Counts::new(), tally)
            .map(|r| r.1),
    );
    let (plain, observed, traced_run) = (plain?, observed?, traced_run?);
    for bytes in &traced_bytes {
        tally.same("traced decomposition vs driver", &plain.bytes, bytes);
    }
    Some(Cycle {
        untraced_ms: plain.total_ms(),
        collector_ms: observed.total_ms(),
        traced_run,
        counts,
    })
}

/// The checkout's commit, or `unknown` where git or the repository is
/// missing.
fn git_commit() -> String {
    let root = bench_dir().parent().unwrap_or(bench_dir());
    let output = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        // Look no further up than the checkout itself.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output();
    match output {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    }
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"profile\": \"{profile}\", \"commit\": {}, \
         \"run_seed\": \"derive_seed(seed, run, i)\", \"check_seed\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        metrics::json_str(&git_commit()),
        derive_seed(args.seed, Stream::Check, 0),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    println!("provenance {provenance}");
    let check_seed = derive_seed(args.seed, Stream::Check, 0);
    let mut tally = Tally::default();
    let mut report = Report::new(&args, provenance);

    if let Some(setup) = setup(args.workload, check_seed, &mut tally) {
        let bench = setup.bench.as_ref();
        if args.trace {
            let tracer = Tracer::new();
            let (cycles, runs) = traced(bench, &args, &tracer, &mut tally);
            let spans = tracer.take();
            report.per_layer(&cycles, &runs, &spans);
            report.write_spans(&runs, &spans);
        } else {
            let peak_mb = peak_heap(bench, check_seed, &setup.warm, &mut tally);
            let samples = measure(bench, &args, &mut tally);
            report.end_to_end(&setup.times, peak_mb, &samples, bench.slowness_exponent());
        }
        gate(bench, check_seed, &setup.warm, &mut tally);
    }
    report.finish(&tally)
}
