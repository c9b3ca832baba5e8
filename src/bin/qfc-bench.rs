//! `qfc-bench` — serial-vs-parallel wall-time and allocation harness for
//! the shot-based Monte-Carlo workloads.
//!
//! ```text
//! qfc-bench [--threads N] [--smoke] [--out PATH]
//!           [--check-baseline PATH] [--max-slowdown F]
//!           [--scaling N1,N2,...]
//! ```
//!
//! Every workload runs twice through the same code path: once pinned to a
//! single worker (`with_threads(1)`) and once on the parallel thread
//! count — `--threads` when given, otherwise 4 clamped to the host's
//! `available_parallelism` (timing more workers than cores only measures
//! oversubscription noise). The serialized results must match byte for
//! byte — the deterministic sharding makes thread count an implementation
//! detail — and the harness aborts if they don't. Timings land in
//! `BENCH_parallel.json`; the observability trace of the whole run lands
//! next to it as `<out stem>.trace.json`.
//!
//! The binary installs a counting `#[global_allocator]` and records, for
//! the *serial* leg of each workload, the allocation count, total bytes
//! allocated, and peak live bytes. The serial leg is single-threaded and
//! deterministic, so these figures are stable across runs on a given
//! target and make allocation regressions in the hot kernels diffable.
//!
//! `--check-baseline PATH` diffs the fresh run against a committed
//! baseline report (same JSON schema) and fails when any workload lost
//! its serial/parallel byte-identity, allocates more than 10 % (+64
//! calls of slack) beyond the baseline's serial-leg count, or runs
//! slower than `--max-slowdown` (default 4.0, generous because absolute
//! wall time is machine-dependent while allocation counts are not)
//! times the baseline's serial wall time.
//!
//! `--smoke` shrinks every workload to seconds-scale for CI; speedups are
//! not meaningful there (the parallel grain is too small), only the
//! determinism cross-check and the allocation columns are.
//!
//! On a single-CPU host (or `--threads 1`) the parallel leg cannot
//! demonstrate scaling at all: the report carries
//! `"parallel_unvalidated": true`, the per-workload speedup print is
//! suppressed (the JSON keeps the raw numbers), and a warning is emitted
//! — ci.sh surfaces it.
//!
//! The two spectral-sweep workloads (`ring-dispersion-sweep`,
//! `opo-threshold-sweep`) additionally time the SoA batch kernels of
//! `qfc_photonics::sweep` against their point-by-point scalar oracles —
//! interleaved best-of-3, both legs pinned to one worker so the ratio
//! isolates the kernel — and record the pair in the
//! `scalar_best_ms`/`batch_best_ms`/`batch_speedup` columns (null for
//! the Monte-Carlo workloads, which have no scalar/batch split). The
//! two qudit MLE workloads (`qudit-mle-16`, `qudit-mle-64`) reuse the
//! same columns for their dense-representation classic leg vs the
//! rank-1 + packed-GEMM fast path of the same reconstruction driver.
//!
//! `--scaling N1,N2,...` re-times every workload's parallel leg at each
//! listed thread count and records the curve in the per-workload
//! `scaling` column (ROADMAP "real thread-scaling validation"). On an
//! unvalidated host (single CPU or `--threads 1`) the profile is
//! skipped with a warning — the curve would be scheduling noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use qfc::campaign::{run_campaign, CampaignOptions, TimeBinCampaign};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::multiphoton::{try_four_photon_tomography, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, TimeBinConfig};
use qfc::faults::{FaultSchedule, HealthReport};
use qfc::mathkit::rng::rng_from_seed;
use qfc::photonics::opo;
use qfc::photonics::ring::Microring;
use qfc::photonics::sweep::{self, BatchBuffers, SweepGrid};
use qfc::photonics::units::{Frequency, Power};
use qfc::photonics::waveguide::Polarization;
use qfc::quantum::bell::{bell_phi_plus, werner_state};
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::quantum::multiphoton::noisy_four_photon;
use qfc::timetag::coincidence::cross_correlation_histogram;
use qfc::timetag::hbt::poissonian_stream;
use qfc::tomography::bootstrap::bootstrap_functional;
use qfc::tomography::counts::simulate_counts_seeded;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleAcceleration, MleOptions};
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

/// Global-allocator shim that counts every allocation. Kept deliberately
/// branch-light: four relaxed atomics per alloc, one per dealloc.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn record_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record_alloc(new_size);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation counters at one instant; differences between two snapshots
/// give the traffic of the code in between.
#[derive(Clone, Copy)]
struct AllocSnapshot {
    calls: u64,
    bytes: u64,
    live: u64,
}

fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live: LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Re-arms the peak tracker so the next reading reflects only the region
/// after this call.
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[derive(Debug, Serialize, Deserialize)]
struct WorkloadRow {
    name: String,
    /// Workload-specific event count (frames, shots×settings, replicas×
    /// counts, or tags) — the numerator of `shots_per_sec`.
    shots: u64,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    /// `shots / serial_ms`, in events per second of single-thread time.
    shots_per_sec: f64,
    /// Allocator calls during the serial leg (deterministic per target).
    allocs_serial: u64,
    /// Total bytes requested during the serial leg.
    alloc_bytes_serial: u64,
    /// Peak live bytes above the pre-leg baseline during the serial leg.
    peak_bytes_serial: u64,
    identical: bool,
    /// Best-of-3 wall time of the point-by-point scalar oracle (sweep
    /// workloads only; null for the Monte-Carlo workloads).
    scalar_best_ms: Option<f64>,
    /// Best-of-3 wall time of the SoA batch kernel, interleaved with the
    /// scalar reps (sweep workloads only).
    batch_best_ms: Option<f64>,
    /// `scalar_best_ms / batch_best_ms` — the single-thread speedup of
    /// the batch layer over the scalar loop.
    batch_speedup: Option<f64>,
    /// Thread-scaling curve from `--scaling N1,N2,...` (null when the
    /// profile was not requested or the host cannot validate scaling).
    scaling: Option<Vec<ScalingPoint>>,
}

/// One point of a `--scaling` thread-scaling curve.
#[derive(Debug, Serialize, Deserialize)]
struct ScalingPoint {
    /// Worker count this point ran with.
    threads: usize,
    /// Wall time of the workload at that worker count.
    wall_ms: f64,
    /// `serial_ms / wall_ms` against the same run's serial leg.
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    /// Thread count asked for on the command line (or the default 4).
    requested_threads: usize,
    /// Thread count the parallel leg actually ran with. Equals
    /// `requested_threads` unless the default was clamped to the host.
    effective_threads: usize,
    /// Hardware parallelism of the machine the bench ran on. Speedups
    /// are bounded by `min(effective_threads, host_cpus)`; on a
    /// single-core host the interesting column is `identical`, and
    /// near-1.0 "speedups" show the sharding overhead is negligible.
    host_cpus: usize,
    /// `true` when the parallel leg ran more workers than the host has
    /// CPUs — wall-clock "speedups" in that regime are scheduling noise,
    /// only the determinism cross-check is meaningful.
    oversubscribed: bool,
    /// `true` when the parallel leg could not demonstrate scaling at all
    /// (single-CPU host or `--threads 1`): its speedup columns are
    /// meaningless and the per-workload speedup print is suppressed.
    parallel_unvalidated: bool,
    smoke: bool,
    workloads: Vec<WorkloadRow>,
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs `f` serially and on `threads` workers, checks the serialized
/// outputs are byte-identical, and reports wall times plus the serial
/// leg's allocation traffic.
///
/// Workload closures deliberately `expect`/`assert!` rather than return
/// [`qfc::faults::QfcResult`]: they run with no faults injected, so any
/// failure is a harness invariant violation (plain-old-data report
/// structs whose serde serialization cannot fail, or a fault-free
/// campaign erroring), and a loud panic that fails the bench run is the
/// correct behavior. Fallible I/O outside the timed legs goes through
/// explicit error paths instead.
fn bench_workload(
    name: &str,
    threads: usize,
    shots: u64,
    unvalidated: bool,
    scaling: &[usize],
    f: impl Fn() -> String + Sync,
) -> WorkloadRow {
    reset_peak();
    let before = alloc_snapshot();
    let (serial_ms, serial_out) = time_ms(|| qfc::runtime::with_threads(1, &f));
    let after = alloc_snapshot();
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(before.live);
    let (parallel_ms, parallel_out) = time_ms(|| qfc::runtime::with_threads(threads, &f));
    let mut identical = serial_out == parallel_out;
    // Thread-scaling curve: one extra timed leg per requested worker
    // count, each cross-checked against the serial bytes (determinism
    // must hold at *every* point on the curve, not just the two legs).
    let scaling_points = if scaling.is_empty() {
        None
    } else {
        let points = scaling
            .iter()
            .map(|&n| {
                let (wall_ms, out) = time_ms(|| qfc::runtime::with_threads(n, &f));
                identical &= out == serial_out;
                ScalingPoint {
                    threads: n,
                    wall_ms,
                    speedup: serial_ms / wall_ms,
                }
            })
            .collect::<Vec<_>>();
        Some(points)
    };
    let row = WorkloadRow {
        name: name.to_owned(),
        shots,
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
        shots_per_sec: shots as f64 / (serial_ms * 1e-3),
        allocs_serial: after.calls - before.calls,
        alloc_bytes_serial: after.bytes - before.bytes,
        peak_bytes_serial: peak,
        identical,
        scalar_best_ms: None,
        batch_best_ms: None,
        batch_speedup: None,
        scaling: scaling_points,
    };
    // A single-CPU host (or --threads 1) cannot validate scaling; quoting
    // a speedup factor there is noise dressed up as signal.
    let speedup_col = if unvalidated {
        "speedup   n/a ".to_owned()
    } else {
        format!("speedup {:.2}x", row.speedup)
    };
    eprintln!(
        "{:<24} serial {:>9.1} ms | {} threads {:>9.1} ms | {} | \
         {:>10.0} shots/s | {:>9} allocs | identical: {}",
        row.name,
        row.serial_ms,
        threads,
        row.parallel_ms,
        speedup_col,
        row.shots_per_sec,
        row.allocs_serial,
        row.identical
    );
    if let Some(points) = &row.scaling {
        let mut curve = String::new();
        for p in points {
            curve.push_str(&format!(" {}t {:.1} ms ({:.2}x)", p.threads, p.wall_ms, p.speedup));
        }
        eprintln!("{:<24} scaling:{curve}", "");
    }
    row
}

/// Interleaved best-of-3 timing of the scalar oracle against the batch
/// kernel: alternating scalar/batch pairs so machine drift hits both
/// legs equally, keeping the minimum of each. Both legs are pinned to a
/// single worker so the ratio isolates the SoA kernel itself, not the
/// thread pool.
fn interleaved_best3(scalar: impl Fn() -> f64, batch: impl Fn() -> f64) -> (f64, f64) {
    let mut best_scalar = f64::INFINITY;
    let mut best_batch = f64::INFINITY;
    for _ in 0..3 {
        let (ms, x) = time_ms(|| qfc::runtime::with_threads(1, &scalar));
        std::hint::black_box(x);
        best_scalar = best_scalar.min(ms);
        let (mb, y) = time_ms(|| qfc::runtime::with_threads(1, &batch));
        std::hint::black_box(y);
        best_batch = best_batch.min(mb);
    }
    (best_scalar, best_batch)
}

fn run(
    requested: usize,
    threads: usize,
    host_cpus: usize,
    smoke: bool,
    scaling: &[usize],
) -> BenchReport {
    let mut workloads = Vec::new();
    let unvalidated = host_cpus == 1 || threads == 1;
    // A host that cannot validate scaling cannot produce a meaningful
    // scaling *curve* either — skip the profile rather than record
    // scheduling noise as data.
    let scaling: &[usize] = if unvalidated && !scaling.is_empty() {
        eprintln!(
            "warning: --scaling skipped — parallel leg unvalidated \
             (host_cpus = {host_cpus}, threads = {threads}), the curve would be \
             scheduling noise"
        );
        &[]
    } else {
        scaling
    };

    // §II heralded-photon experiment: per-channel tag generation +
    // detection, F1 coincidence matrix, F2 linewidth histogram.
    {
        let source = QfcSource::paper_device();
        let mut cfg = HeraldedConfig::fast_demo();
        if smoke {
            cfg.duration_s = 1.0;
            cfg.linewidth_pairs = 500;
        } else {
            cfg.duration_s = 40.0;
            cfg.linewidth_pairs = 40_000;
        }
        let shots = cfg.linewidth_pairs as u64;
        let schedule = FaultSchedule::empty();
        workloads.push(bench_workload("heralded", threads, shots, unvalidated, scaling, || {
            let run = try_run_heralded_experiment(&source, &cfg, 7, &schedule)
                .expect("fault-free heralded run");
            serde_json::to_string(&run.report).expect("report serializes")
        }));
    }

    // §IV event-based time-bin Monte Carlo: full slot-resolved Franson
    // propagation of every emitted pair, one split-seed stream per
    // phase point.
    {
        let source = QfcSource::paper_device_timebin();
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.frames_per_point = if smoke { 200_000 } else { 40_000_000 };
        let steps = if smoke { 8 } else { 32 };
        let phases: Vec<f64> = (0..steps)
            .map(|k| k as f64 * std::f64::consts::TAU / steps as f64)
            .collect();
        let shots = cfg.frames_per_point * phases.len() as u64;
        workloads.push(bench_workload("timebin-event-mc", threads, shots, unvalidated, scaling, || {
            let scan = run_timebin_event_mc(&source, &cfg, 1, &phases, 11);
            serde_json::to_string(&scan).expect("scan serializes")
        }));
    }

    // §V four-photon tomography: 81 four-qubit settings sampled in
    // parallel, then a serial MLE reconstruction.
    {
        let source = QfcSource::paper_device_timebin();
        let mut cfg = MultiPhotonConfig::fast_demo();
        cfg.four_shots_per_setting = if smoke { 40 } else { 20_000 };
        let shots = cfg.four_shots_per_setting * 81;
        workloads.push(bench_workload("four-photon-tomography", threads, shots, unvalidated, scaling, || {
            let tomo = try_four_photon_tomography(
                &source,
                &cfg,
                13,
                &cfg.timebin,
                cfg.four_fold_pump_factor,
                &mut HealthReport::pristine(),
            )
            .expect("fault-free four-photon tomography");
            serde_json::to_string(&tomo).expect("tomography serializes")
        }));
    }

    // Streaming tomography: the 81 four-qubit settings' histograms are
    // simulated on their split-seed streams and folded through the
    // streaming count accumulator (never materializing per-shot
    // tables), then reconstructed once with the accelerated
    // (over-relaxed RρR) MLE schedule.
    {
        let rho4 = noisy_four_photon(0.0, 0.92, 0.05);
        let settings = all_settings(4);
        let shots_per_setting = if smoke { 40u64 } else { 20_000 };
        let opts = MleOptions {
            acceleration: MleAcceleration::accelerated(),
            ..MleOptions::default()
        };
        let shots = shots_per_setting * settings.len() as u64;
        workloads.push(bench_workload("streaming-tomography", threads, shots, unvalidated, scaling, || {
            let data = try_stream_counts_seeded(&rho4, &settings, shots_per_setting, 29)
                .expect("four-photon settings are valid");
            let mle = try_mle_reconstruction(&data, &opts).expect("streamed data reconstructs");
            serde_json::to_string(&mle).expect("result serializes")
        }));
    }

    // Parametric bootstrap: every replica resamples and re-runs the MLE
    // reconstructor on its own split-seed stream.
    {
        let truth = werner_state(0.83, 0.0);
        let settings = all_settings(2);
        let shots_per_setting = if smoke { 200u64 } else { 2_000 };
        let replicas = if smoke { 8 } else { 48 };
        let data = simulate_counts_seeded(&truth, &settings, shots_per_setting, 17);
        let target = bell_phi_plus();
        let shots = replicas as u64 * data.settings.len() as u64 * shots_per_setting;
        workloads.push(bench_workload("bootstrap-mle", threads, shots, unvalidated, scaling, || {
            let est = bootstrap_functional(
                17,
                &data,
                replicas,
                |d| try_mle_reconstruction(d, &MleOptions::default()).expect("replica reconstructs").rho,
                |rho| fidelity_with_pure(rho, &target),
            );
            serde_json::to_string(&est).expect("estimate serializes")
        }));
    }

    // Campaign engine overhead: a sharded §IV run driven end-to-end
    // through checkpoint/resume. Each iteration starts from a clean
    // directory, runs the campaign cold (planning + execution +
    // integrity-hashed checkpoint per shard), then immediately re-runs
    // it so every shard comes back from its checkpoint — the closure's
    // wall time is therefore checkpoint overhead plus resume latency on
    // top of the bare driver, and the returned JSON (resume count +
    // merged report) must be byte-identical across legs.
    {
        let source = QfcSource::paper_device_timebin();
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.channels = if smoke { 2 } else { 4 };
        cfg.frames_per_point = if smoke { 20_000 } else { 500_000 };
        cfg.phase_steps = if smoke { 8 } else { 12 };
        let schedule = FaultSchedule::empty();
        let dir = std::path::PathBuf::from("target/tmp/qfc-bench-campaign");
        let shots =
            cfg.frames_per_point * (cfg.phase_steps as u64 + 16) * u64::from(cfg.channels);
        workloads.push(bench_workload("campaign-checkpoint", threads, shots, unvalidated, scaling, || {
            let _ = std::fs::remove_dir_all(&dir);
            let workload = TimeBinCampaign {
                source: &source,
                config: &cfg,
                seed: 23,
                schedule: &schedule,
            };
            let opts = CampaignOptions::new(&dir);
            let cold = run_campaign(&workload, &opts).expect("cold campaign runs");
            let warm = run_campaign(&workload, &opts).expect("campaign resumes");
            assert_eq!(cold.report_json, warm.report_json, "resume changed bytes");
            format!(
                "{{\"resumed\":{},\"report\":{}}}",
                warm.stats.shards_resumed, warm.report_json
            )
        }));
    }

    // §II time-resolved cross-correlation: two-pointer sweep over
    // sharded start tags.
    {
        let mut rng = rng_from_seed(19);
        let duration_s = if smoke { 2.0 } else { 40.0 };
        let a = poissonian_stream(&mut rng, 200_000.0, duration_s);
        let b = poissonian_stream(&mut rng, 200_000.0, duration_s);
        let shots = (a.len() + b.len()) as u64;
        workloads.push(bench_workload("coincidence-histogram", threads, shots, unvalidated, scaling, || {
            let hist = cross_correlation_histogram(&a, &b, 100_000, 50);
            serde_json::to_string(&hist).expect("histogram serializes")
        }));
    }

    // Dispersion scan through the SoA sweep layer: ring transmission of
    // every 200-GHz channel of the ±40-channel comb, ±5 linewidths per
    // channel. The grids are built outside the timed closure; the timed
    // region is pure kernel. The extra interleaved pass times the batch
    // kernel against its point-by-point scalar oracle.
    {
        let ring = Microring::paper_device();
        let lw = ring.linewidth().hz();
        let per_channel = if smoke { 256usize } else { 8192 };
        let channels: Vec<i32> = (-40..=40).collect();
        let grids: Vec<SweepGrid> = channels
            .iter()
            .map(|&m| {
                let f0 = ring.resonance(Polarization::Te, m).hz();
                SweepGrid::linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, per_channel)
            })
            .collect();
        let shots = (channels.len() * per_channel) as u64;
        let mut row = bench_workload("ring-dispersion-sweep", threads, shots, unvalidated, scaling, || {
            let mut buf = BatchBuffers::new();
            let sums: Vec<f64> = channels
                .iter()
                .zip(&grids)
                .map(|(&m, grid)| {
                    sweep::ring_power_response_batch(&ring, Polarization::Te, m, grid, &mut buf);
                    buf.values().iter().sum::<f64>()
                })
                .collect();
            serde_json::to_string(&sums).expect("channel sums serialize")
        });
        let (scalar_best, batch_best) = interleaved_best3(
            // The historical point-by-point path: the public scalar API
            // called once per grid point from outside the crate (exactly
            // what examples/design_sweep.rs did before the batch layer).
            || {
                let mut acc = 0.0f64;
                for (&m, grid) in channels.iter().zip(&grids) {
                    for &f in grid.points() {
                        acc += ring.power_response(Polarization::Te, m, Frequency::from_hz(f));
                    }
                }
                acc
            },
            || {
                let mut buf = BatchBuffers::new();
                let mut acc = 0.0f64;
                for (&m, grid) in channels.iter().zip(&grids) {
                    sweep::ring_power_response_batch(&ring, Polarization::Te, m, grid, &mut buf);
                    acc += buf.values().iter().sum::<f64>();
                }
                acc
            },
        );
        row.scalar_best_ms = Some(scalar_best);
        row.batch_best_ms = Some(batch_best);
        row.batch_speedup = Some(scalar_best / batch_best);
        eprintln!(
            "{:<24} batch vs scalar (interleaved best-of-3, 1 thread): \
             {batch_best:.1} ms vs {scalar_best:.1} ms = {:.1}x",
            "", scalar_best / batch_best
        );
        workloads.push(row);
    }

    // OPO threshold scan: the full transfer curve (quadratic floor,
    // kink, linear branch) on a dense pump-power grid.
    {
        let ring = Microring::paper_device();
        let p_th = opo::threshold(&ring).w();
        let n = if smoke { 8192usize } else { 400_000 };
        let grid = SweepGrid::linspace(0.05 * p_th, 3.0 * p_th, n);
        let shots = n as u64;
        let mut row = bench_workload("opo-threshold-sweep", threads, shots, unvalidated, scaling, || {
            let mut buf = BatchBuffers::new();
            sweep::opo_transfer_batch(&ring, &grid, &mut buf);
            let v = buf.values();
            let summary = [v.iter().sum::<f64>(), v[0], v[v.len() / 2], v[v.len() - 1]];
            serde_json::to_string(&summary).expect("sweep summary serializes")
        });
        let (scalar_best, batch_best) = interleaved_best3(
            // Point-by-point public API, one opaque call per pump power.
            || {
                let mut acc = 0.0f64;
                for &p in grid.points() {
                    acc += opo::output_power(&ring, Power::from_w(p)).w();
                }
                acc
            },
            || {
                let mut buf = BatchBuffers::new();
                sweep::opo_transfer_batch(&ring, &grid, &mut buf);
                buf.values().iter().sum::<f64>()
            },
        );
        row.scalar_best_ms = Some(scalar_best);
        row.batch_best_ms = Some(batch_best);
        row.batch_speedup = Some(scalar_best / batch_best);
        eprintln!(
            "{:<24} batch vs scalar (interleaved best-of-3, 1 thread): \
             {batch_best:.1} ms vs {scalar_best:.1} ms = {:.1}x",
            "", scalar_best / batch_best
        );
        workloads.push(row);
    }

    // Large-d qudit MLE tomography (the frequency-bin qudit direction):
    // a synthetic low-rank d-level state measured in deterministic
    // orthonormal bases with exact ("infinite statistics") counts, then
    // reconstructed end to end with the rank-1 + packed-GEMM fast path.
    // The main legs time the parallel expectation sweep; the extra
    // interleaved pass pits the dense-representation classic leg
    // (materialized d×d projectors, trace_of_product expectations,
    // add_scaled_assign R-build — the classic path's kernels) against
    // the rank-1 representation of the *same* driver, both pinned to
    // one worker, reusing the scalar/batch columns.
    for &(name, dim, rank) in &[("qudit-mle-16", 16usize, 3usize), ("qudit-mle-64", 64, 4)] {
        let n_bases = match (smoke, dim) {
            (true, 16) => 5,
            (true, _) => 4,
            (false, 16) => 17,
            (false, _) => 16,
        };
        let max_iterations = match (smoke, dim) {
            (true, 16) => 40,
            (true, _) => 12,
            (false, 16) => 200,
            (false, _) => 120,
        };
        let rho = synthetic_low_rank_state(dim, rank, 41).expect("qudit dims are supported");
        let bases = deterministic_bases(dim, n_bases, 77).expect("bases orthonormalize");
        let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("bases are unitary");
        let dense_set = set.to_dense();
        let counts = exact_counts_repr(&rho, &set, 1_000_000).expect("state matches set");
        let opts = MleOptions {
            max_iterations,
            tolerance: 1e-10,
            acceleration: MleAcceleration::accelerated(),
        };
        let shots: u64 = counts.iter().map(|row| row.iter().sum::<u64>()).sum();
        let mut row = bench_workload(name, threads, shots, unvalidated, scaling, || {
            let mle = try_mle_repr(&set, &counts, &opts).expect("qudit data reconstructs");
            serde_json::to_string(&mle).expect("result serializes")
        });
        let (dense_best, rank1_best) = interleaved_best3(
            || {
                let mle =
                    try_mle_repr(&dense_set, &counts, &opts).expect("dense leg reconstructs");
                mle.final_update
            },
            || {
                let mle = try_mle_repr(&set, &counts, &opts).expect("rank-1 leg reconstructs");
                mle.final_update
            },
        );
        row.scalar_best_ms = Some(dense_best);
        row.batch_best_ms = Some(rank1_best);
        row.batch_speedup = Some(dense_best / rank1_best);
        eprintln!(
            "{:<24} rank-1 vs dense (interleaved best-of-3, 1 thread): \
             {rank1_best:.1} ms vs {dense_best:.1} ms = {:.1}x",
            "",
            dense_best / rank1_best
        );
        workloads.push(row);
    }

    if host_cpus < threads {
        eprintln!(
            "note: host has {host_cpus} CPU(s) < {threads} requested threads; \
             wall-clock speedup is capped at {host_cpus}x"
        );
    }
    if unvalidated {
        eprintln!(
            "warning: parallel leg unvalidated — the run cannot demonstrate scaling \
             (host_cpus = {host_cpus}, threads = {threads}); speedup factors were \
             suppressed, only byte-identity and allocation columns are meaningful"
        );
    }
    BenchReport {
        requested_threads: requested,
        effective_threads: threads,
        host_cpus,
        oversubscribed: threads > host_cpus,
        parallel_unvalidated: unvalidated,
        smoke,
        workloads,
    }
}

/// Allocation slack over the baseline: 10 % relative plus 64 calls
/// absolute, so tiny workloads aren't gated on a handful of calls while
/// a reintroduced per-shot allocation (thousands of calls) still trips.
fn alloc_budget(baseline: u64) -> u64 {
    baseline + baseline / 10 + 64
}

/// Diffs `report` against the committed baseline; returns the list of
/// human-readable regressions (empty = gate passed).
///
/// When either side carries `parallel_unvalidated` (single-CPU host or
/// `--threads 1`), the parallel-leg columns are meaningless numbers, so
/// the gate still compares them — the byte-identity check costs nothing
/// and must hold even at one worker — but emits a warning instead of
/// judging speedups, and never fails on parallel wall time. The serial
/// columns (allocations, wall time) gate in every mode.
fn check_against_baseline(
    report: &BenchReport,
    baseline: &BenchReport,
    max_slowdown: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.smoke != baseline.smoke {
        failures.push(format!(
            "mode mismatch: run has smoke={} but baseline has smoke={} — \
             regenerate the baseline in the same mode",
            report.smoke, baseline.smoke
        ));
        return failures;
    }
    if report.parallel_unvalidated || baseline.parallel_unvalidated {
        eprintln!(
            "warning: parallel leg unvalidated on {} — speedup columns skipped \
             by the baseline gate; serial wall time and allocations still gate",
            if report.parallel_unvalidated {
                "this run"
            } else {
                "the baseline"
            }
        );
    }
    for row in &report.workloads {
        let Some(base) = baseline.workloads.iter().find(|b| b.name == row.name) else {
            failures.push(format!(
                "{}: missing from baseline — regenerate it with --out",
                row.name
            ));
            continue;
        };
        if !row.identical {
            failures.push(format!("{}: serial and parallel outputs differ", row.name));
        }
        let budget = alloc_budget(base.allocs_serial);
        if row.allocs_serial > budget {
            failures.push(format!(
                "{}: serial-leg allocations regressed: {} > budget {} \
                 (baseline {} + 10% + 64)",
                row.name, row.allocs_serial, budget, base.allocs_serial
            ));
        }
        // Wall-time gates carry an absolute slack on top of the relative
        // factor (mirroring the +64-call allocation slack): millisecond-
        // scale workloads — notably the filesystem-bound campaign
        // checkpoint smoke — sit below the machine's scheduling/page-
        // cache noise floor, where a pure ratio gate is a coin flip.
        const WALL_SLACK_MS: f64 = 50.0;
        let limit_ms = base.serial_ms * max_slowdown + WALL_SLACK_MS;
        if row.serial_ms > limit_ms {
            failures.push(format!(
                "{}: serial wall time regressed: {:.1} ms > {:.1} ms \
                 (baseline {:.1} ms × {max_slowdown} + {WALL_SLACK_MS} ms)",
                row.name, row.serial_ms, limit_ms, base.serial_ms
            ));
        }
        // The parallel wall-time gate only makes sense when both runs
        // actually exercised parallelism; on a single-CPU host (or
        // --threads 1) those columns are scheduling noise and were
        // warned about above, not gated on.
        if !report.parallel_unvalidated && !baseline.parallel_unvalidated {
            let plimit_ms = base.parallel_ms * max_slowdown + WALL_SLACK_MS;
            if row.parallel_ms > plimit_ms {
                failures.push(format!(
                    "{}: parallel wall time regressed: {:.1} ms > {:.1} ms \
                     (baseline {:.1} ms × {max_slowdown} + {WALL_SLACK_MS} ms)",
                    row.name, row.parallel_ms, plimit_ms, base.parallel_ms
                ));
            }
            // Four-photon tomography once shipped a parallel leg *slower*
            // than serial (0.92x — shard dispatch swamping a too-small
            // grain). The grain fallback fixed it; this gate keeps it
            // fixed: on a validated host the parallel leg must not lose
            // to serial by more than the wall-noise slack (speedup ≥ 1.0
            // up to timer noise).
            if row.name == "four-photon-tomography"
                && row.parallel_ms > row.serial_ms + WALL_SLACK_MS
            {
                failures.push(format!(
                    "{}: parallel leg slower than serial ({:.1} ms vs {:.1} ms, \
                     speedup {:.2}x < 1.0) — the per-setting grain fallback regressed",
                    row.name, row.parallel_ms, row.serial_ms, row.speedup
                ));
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut requested: Option<usize> = None;
    let mut smoke = false;
    let mut out = String::from("BENCH_parallel.json");
    let mut baseline_path: Option<String> = None;
    let mut max_slowdown = 4.0f64;
    let mut scaling: Vec<usize> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => requested = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    eprintln!("--out needs a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--check-baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("--check-baseline needs a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--max-slowdown" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if f.is_finite() && f >= 1.0 => max_slowdown = f,
                _ => {
                    eprintln!("--max-slowdown needs a finite factor ≥ 1.0");
                    return ExitCode::FAILURE;
                }
            },
            "--scaling" => {
                let parsed: Option<Vec<usize>> = it.next().and_then(|s| {
                    s.split(',')
                        .map(|t| t.trim().parse::<usize>().ok().filter(|&n| n >= 1))
                        .collect()
                });
                match parsed {
                    Some(list) if !list.is_empty() => scaling = list,
                    _ => {
                        eprintln!(
                            "--scaling needs a comma-separated list of positive \
                             thread counts, e.g. --scaling 1,2,4,8"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: qfc-bench [--threads N] [--smoke] [--out PATH] \
                     [--check-baseline PATH] [--max-slowdown F] [--scaling N1,N2,...]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    // Load the baseline before spending minutes on the run, so a missing
    // or malformed file fails fast.
    let baseline: Option<BenchReport> = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("cannot parse baseline {p}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // An explicit --threads is honored (and flagged as oversubscribed when
    // it exceeds the host); only the default is clamped to the hardware.
    let (requested, threads) = match requested {
        Some(n) => (n, n),
        None => (4, 4usize.min(host_cpus)),
    };

    let collector = qfc::obs::Collector::new();
    let report = collector.install(|| run(requested, threads, host_cpus, smoke, &scaling));
    if report.workloads.iter().any(|w| !w.identical) {
        eprintln!("FAIL: serial and parallel outputs differ");
        return ExitCode::FAILURE;
    }
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot serialize bench report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    let trace_out = match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}.trace.json"),
        None => format!("{out}.trace.json"),
    };
    if let Err(e) = std::fs::write(&trace_out, collector.snapshot().to_json() + "\n") {
        eprintln!("cannot write {trace_out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {trace_out}");

    if let Some(base) = baseline {
        let failures = check_against_baseline(&report, &base, max_slowdown);
        if failures.is_empty() {
            eprintln!(
                "baseline gate passed ({} workloads vs {})",
                report.workloads.len(),
                baseline_path.as_deref().unwrap_or("?")
            );
        } else {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
