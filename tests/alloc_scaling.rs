//! Allocation budget of the hot kernels, counted by a global allocator.
//!
//! The shot kernels, the RρR MLE iteration and the spectral sweeps build
//! their buffers once per call, so the number of allocator calls of one
//! call must not grow with the number of shots, iterations or grid
//! points. This test counts allocator calls around single kernel calls at
//! two problem sizes and asserts exactly that:
//!
//! - an MLE makes the same number of calls at 1 and at 12 iterations, on
//!   a qudit problem large enough to run as several sweep chunks and on
//!   four-qubit data whose factored sweep runs as team steps;
//! - doubling the shots of a shot-based workload adds at most
//!   [`SHOT_DOUBLING_SLACK`] calls (a growing result vector may realloc
//!   once more; one allocation per shot adds thousands);
//! - a sweep adds fewer than one call per 100 added grid points (one
//!   staging row per 1024-point chunk);
//! - the T4 MLE's heap peaks below its factored buffers plus a stated
//!   slack, so one copy of its measured outcome vectors fails here;
//! - a coincidence sweep allocates nothing: `count_coincidences` makes no
//!   call at all, and `measure_car` as many at 100 000 tags per stream as
//!   at 10 000;
//! - the click generator allocates its stream once: one `detect` call
//!   makes as many calls at 100 000 expected dark counts as at 10 000.
//!
//! Every check runs at 1 and at 2 threads. The counts are deterministic:
//! the workloads are seeded and a worker team spawns a fixed number of
//! threads. All checks live in one `#[test]` so no other test of this
//! binary allocates while the counter is on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use qfc::campaign::{run_campaign, CampaignOptions, TimeBinCampaign};
use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{run_timebin_event_mc, TimeBinConfig};
use qfc::faults::FaultSchedule;
use qfc::photonics::opo;
use qfc::photonics::ring::Microring;
use qfc::photonics::sweep::{self, BatchBuffers, SweepGrid};
use qfc::photonics::waveguide::Polarization;
use qfc::quantum::bell::{bell_phi_plus, werner_state};
use qfc::quantum::fidelity::fidelity_with_pure;
use qfc::quantum::multiphoton::noisy_four_photon;
use qfc::runtime::with_threads;
use qfc::mathkit::rng::rng_from_seed;
use qfc::timetag::coincidence::{count_coincidences, measure_car};
use qfc::timetag::detector::SinglePhotonDetector;
use qfc::timetag::events::TagStream;
use qfc::tomography::bootstrap::bootstrap_functional;
use qfc::tomography::rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
use qfc::tomography::reconstruct::{try_mle_reconstruction, MleOptions};
use qfc::tomography::settings::all_settings;
use qfc::tomography::stream::try_stream_counts_seeded;

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Net heap bytes allocated while counting was on; a block allocated
/// while off and freed while on lowers it, so growth above a
/// [`heap_peak`] start is still exact.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Highest [`LIVE`] since the last [`heap_peak`] start.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let bytes = bytes as i64;
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for a block this allocator handed out.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (alloc, alloc_zeroed, realloc) made while `f` runs.
/// The result is dropped after counting stops.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = CALLS.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    let calls = CALLS.load(Ordering::SeqCst) - before;
    drop(std::hint::black_box(out));
    calls
}

/// Peak heap growth, in bytes, while `f` runs, and its result. The
/// result is dropped after counting stops.
fn heap_peak<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (PEAK.load(Ordering::SeqCst) - start, out)
}

/// Most calls that doubling a workload's shots may add.
const SHOT_DOUBLING_SLACK: u64 = 32;

/// `count(scale)` runs a workload at `scale` times its base shot count
/// and returns the allocator calls of the part under test. After a
/// warm-up, asserts that the doubled run adds at most
/// [`SHOT_DOUBLING_SLACK`] calls to the base run.
fn assert_flat_in_shots(name: &str, threads: usize, count: impl Fn(u64) -> u64) {
    count(1);
    let base = count(1);
    let doubled = count(2);
    assert!(
        doubled <= base + SHOT_DOUBLING_SLACK,
        "{name} at {threads} thread(s): {base} allocations at the base shot count, \
         {doubled} at twice it — a per-shot allocation?"
    );
}

/// `count(n)` runs a sweep over `n` grid points and returns its
/// allocator calls. After a warm-up, asserts that each step up in
/// `sizes` adds fewer than one call per 100 added points.
fn assert_flat_in_points(
    name: &str,
    threads: usize,
    sizes: &[usize],
    count: impl Fn(usize) -> u64,
) {
    count(sizes[0]);
    let calls: Vec<u64> = sizes.iter().map(|&n| count(n)).collect();
    for (n, c) in sizes.windows(2).zip(calls.windows(2)) {
        let added_points = (n[1] - n[0]) as u64;
        let added_calls = c[1].saturating_sub(c[0]);
        assert!(
            added_calls * 100 < added_points,
            "{name} at {threads} thread(s): {} → {} points added {added_calls} \
             allocations — a per-point allocation?",
            n[0],
            n[1]
        );
    }
}

/// An MLE iteration allocates nothing, the gap certificate it reads off
/// every iterate included: a reconstruction makes as many allocator calls
/// at 12 iterations as at 1. A d = 16 qudit in 9 bases has 144
/// (projector, frequency) pairs, and 144 · 16² is past the sweep's
/// chunking threshold, so the sweeps run as several chunks (team steps at
/// 2 threads).
fn check_mle_iterations(threads: usize) {
    let rho = synthetic_low_rank_state(16, 2, 9).expect("state");
    let bases = deterministic_bases(16, 9, 31).expect("bases");
    let set = ProjectorReprSet::try_rank1_from_bases(&bases).expect("set");
    let counts = exact_counts_repr(&rho, &set, 100_000).expect("counts");
    let count = |max_iterations: usize| {
        // 100 000 events per basis cannot be certified to half a nat in
        // 12 iterations: every run takes its cap.
        let opts = MleOptions { max_iterations };
        let mut result = None;
        let calls = allocs(|| result = Some(try_mle_repr(&set, &counts, &opts)));
        let result = result.expect("ran").expect("reconstruction");
        assert_eq!(result.iterations, max_iterations);
        assert!(!result.converged, "gap {} at {max_iterations}", result.gap_nats);
        calls
    };
    count(1);
    let one = count(1);
    let twelve = count(12);
    assert_eq!(
        one, twelve,
        "at {threads} thread(s): {one} allocations at 1 iteration, {twelve} at 12"
    );
}

/// The same on qubit data: the §V four-qubit grid at 2 000 shots per
/// setting, whose factored sweep runs as team steps at 2 threads, makes
/// as many allocator calls at 12 iterations as at 1.
fn check_qubit_mle_iterations(threads: usize) {
    let rho4 = noisy_four_photon(0.0, 0.92, 0.05);
    let data = try_stream_counts_seeded(&rho4, &all_settings(4), 2_000, 37).expect("counts");
    let count = |max_iterations: usize| {
        let opts = MleOptions { max_iterations };
        let mut result = None;
        let calls = allocs(|| result = Some(try_mle_reconstruction(&data, &opts)));
        let result = result.expect("ran").expect("reconstruction");
        assert_eq!(result.iterations, max_iterations);
        assert!(!result.converged, "gap {} at {max_iterations}", result.gap_nats);
        calls
    };
    count(1);
    let one = count(1);
    let twelve = count(12);
    assert_eq!(
        one, twelve,
        "qubit MLE at {threads} thread(s): {one} allocations at 1 iteration, {twelve} at 12"
    );
}

/// Heap bytes of one complex entry.
const COMPLEX_BYTES: i64 = 16;

/// Heap bytes of one word (an index or an `f64`).
const WORD_BYTES: i64 = 8;

/// Heap the T4 MLE may use beyond its trie and per-outcome buffers.
/// Measured at 78 KB on the data below: the measured-outcome table (one
/// `(s, o)` and one frequency per outcome slot, 31 KB), the schedule's
/// six `d × d` work matrices with their GEMM scratch (29 KB), and the
/// trie build's prefix tables, which live only while it runs; the team
/// adds nothing measurable at 2 threads. One copy of the 1 134 measured
/// outcome vectors, 290 KB here, does not fit.
const MLE_HEAP_SLACK: i64 = 96 * 1024;

/// The T4 MLE forms no outcome vector: on 60-shot four-qubit data (the
/// §V paper statistics), `try_mle_reconstruction` peaks below its
/// factored buffers — for the full grid's trie, every level's blocks
/// (`6^(q+1)` blocks of side `16/2^(q+1)` at level `q`) and each node's
/// link, and per measured outcome its leaf index, frequency and leaf
/// weight — plus [`MLE_HEAP_SLACK`]. The bound, 200 KB here, replaces
/// one of 456 KB for the vector panels.
fn check_mle_heap(threads: usize) {
    let rho4 = noisy_four_photon(0.0, 0.68, 0.08);
    let data = try_stream_counts_seeded(&rho4, &all_settings(4), 60, 31).expect("counts");
    let measured = data.counts.iter().flatten().filter(|&&c| c > 0).count() as i64;
    let trie: i64 = (0..4)
        .map(|q| {
            let (nodes, side) = (6i64.pow(q + 1), 16i64 >> (q + 1));
            nodes * (side * side * COMPLEX_BYTES + 2 * WORD_BYTES)
        })
        .sum();
    let per_outcome = measured * 3 * WORD_BYTES;
    let opts = MleOptions::default();
    try_mle_reconstruction(&data, &opts).expect("warm-up");
    let (peak, result) = heap_peak(|| try_mle_reconstruction(&data, &opts));
    result.expect("reconstruction");
    assert!(
        peak < trie + per_outcome + MLE_HEAP_SLACK,
        "at {threads} thread(s): the T4 MLE peaked at {peak} bytes; its trie takes at most \
         {trie} and its {measured} measured outcomes {per_outcome}"
    );
}

fn check_shot_workloads(threads: usize, campaign_dir: &Path) {
    // §II heralded driver: the tags per channel scale with the duration,
    // the linewidth histogram with its pair count.
    let cw = QfcSource::paper_device();
    assert_flat_in_shots("heralded", threads, |scale| {
        let mut cfg = HeraldedConfig::fast_demo();
        cfg.channels = 2;
        cfg.duration_s = 0.5 * scale as f64;
        cfg.linewidth_pairs = 500 * scale as usize;
        allocs(|| {
            try_run_heralded_experiment(&cw, &cfg, 7, &FaultSchedule::empty())
                .expect("heralded run")
        })
    });

    // §III type-II driver: the tags of both arms scale with the
    // duration, and its CAR sweep counts every window in one pass.
    let type2 = QfcSource::paper_device_type2();
    assert_flat_in_shots("crosspol", threads, |scale| {
        let mut cfg = CrossPolConfig::fast_demo();
        cfg.duration_s *= scale as f64;
        allocs(|| {
            try_run_crosspol_experiment(&type2, &cfg, 13, &FaultSchedule::empty())
                .expect("crosspol run")
        })
    });

    // §IV event Monte Carlo: every frame is drawn through the slot table.
    let pulsed = QfcSource::paper_device_timebin();
    let phases = [0.0, 0.8, 1.6, 2.4];
    assert_flat_in_shots("timebin event MC", threads, |scale| {
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.frames_per_point = 20_000 * scale;
        allocs(|| run_timebin_event_mc(&pulsed, &cfg, 1, &phases, 11).expect("double-pulse source"))
    });

    // §V counts streamed over the 81 four-qubit settings, then
    // reconstructed by the MLE engine. White noise puts every outcome
    // near 0.3 % or above, so at 2 000 shots nearly all 1 296 outcomes
    // are measured at both scales, and the trie's buffers keep the same
    // shape.
    let rho4 = noisy_four_photon(0.0, 0.92, 0.05);
    let settings = all_settings(4);
    let opts = MleOptions { max_iterations: 5 };
    assert_flat_in_shots("streamed counts + MLE", threads, |scale| {
        allocs(|| {
            let data =
                try_stream_counts_seeded(&rho4, &settings, 2_000 * scale, 29).expect("counts");
            try_mle_reconstruction(&data, &opts).expect("reconstruction")
        })
    });

    // Parametric bootstrap: each replica resamples every shot of the
    // data and runs the MLE on the resample.
    let truth = werner_state(0.83, 0.0);
    let target = bell_phi_plus();
    let replica_opts = MleOptions { max_iterations: 20 };
    assert_flat_in_shots("MLE bootstrap", threads, |scale| {
        let data =
            try_stream_counts_seeded(&truth, &all_settings(2), 2_000 * scale, 17).expect("counts");
        allocs(|| {
            bootstrap_functional(
                17,
                &data,
                4,
                |d| {
                    try_mle_reconstruction(d, &replica_opts)
                        .expect("replica")
                        .rho
                },
                |rho| fidelity_with_pure(rho, &target),
            )
        })
    });

    // §IV as a checkpointed campaign: a cold run, then a resume from the
    // checkpoints it wrote.
    let schedule = FaultSchedule::empty();
    assert_flat_in_shots("timebin campaign", threads, |scale| {
        let mut cfg = TimeBinConfig::fast_demo();
        cfg.frames_per_point = 20_000 * scale;
        cfg.phase_steps = 8;
        let workload = TimeBinCampaign {
            source: &pulsed,
            config: &cfg,
            seed: 23,
            schedule: &schedule,
        };
        let opts = CampaignOptions::new(campaign_dir);
        let _ = std::fs::remove_dir_all(campaign_dir);
        allocs(|| {
            run_campaign(&workload, &opts).expect("cold campaign");
            let warm = run_campaign(&workload, &opts).expect("resumed campaign");
            assert_eq!(warm.stats.shards_resumed, warm.stats.shards_total);
        })
    });
}

/// The §II coincidence kernels keep their state on the stack or in the
/// CAR's window list: at 10 000 and at 100 000 tags per stream,
/// `count_coincidences` makes no allocator call and `measure_car` the
/// same number. The stop tags sit 0–6 ns from their start tags, 1 µs
/// apart, so both lanes of the sweep run and count matches.
fn check_coincidence_sweep(threads: usize) {
    let count = |tags: i64| {
        let a = TagStream::from_sorted((0..tags).map(|k| k * 1_000_000).collect());
        let b = TagStream::from_sorted((0..tags).map(|k| k * 1_000_000 + k % 4 * 2_000).collect());
        assert!(count_coincidences(&a, &b, 8_000, 0) * 2 > a.len() as u64);
        let window = allocs(|| count_coincidences(&a, &b, 8_000, 0));
        let car = allocs(|| measure_car(&a, &b, 8_000, 24_000, 10));
        (window, car)
    };
    let (window_small, car_small) = count(10_000);
    let (window_large, car_large) = count(100_000);
    assert_eq!(
        (window_small, window_large),
        (0, 0),
        "at {threads} thread(s): count_coincidences allocated"
    );
    assert_eq!(
        car_small, car_large,
        "at {threads} thread(s): measure_car made {car_small} allocations at 10 000 tags, \
         {car_large} at 100 000"
    );
}

/// The click generator sizes its stream once: one `detect` call makes
/// as many allocator calls at 100 000 expected dark counts as at 10 000,
/// with pair photons, background and dead time in the merge.
fn check_click_generator(threads: usize) {
    let detector = SinglePhotonDetector {
        efficiency: 0.5,
        dark_count_rate_hz: 1000.0,
        jitter_sigma_ps: 100.0,
        dead_time_ps: 10_000_000,
    };
    let count = |seconds: i64| {
        let photons: Vec<i64> = (0..seconds * 50).map(|k| k * 20_000_000_000).collect();
        let mut rng = rng_from_seed(3);
        let duration_ps = seconds * 1_000_000_000_000;
        allocs(|| detector.detect(&mut rng, photons, 200.0, duration_ps, |_| false))
    };
    let small = count(10);
    let large = count(100);
    assert_eq!(
        small, large,
        "at {threads} thread(s): detect made {small} allocations at 10 000 expected darks, \
         {large} at 100 000"
    );
}

fn check_sweeps(threads: usize) {
    let ring = Microring::paper_device();
    let sizes = [256, 8_192, 65_536];

    let p_th = opo::threshold(&ring).w();
    assert_flat_in_points("OPO transfer sweep", threads, &sizes, |n| {
        let grid = SweepGrid::linspace(0.05 * p_th, 3.0 * p_th, n);
        let mut buf = BatchBuffers::new();
        allocs(|| sweep::opo_transfer_batch(&ring, &grid, &mut buf))
    });

    let lw = ring.linewidth().hz();
    let f0 = ring.resonance(Polarization::Te, 3).hz();
    assert_flat_in_points("ring dispersion sweep", threads, &sizes, |n| {
        let grid = SweepGrid::linspace(f0 - 5.0 * lw, f0 + 5.0 * lw, n);
        let mut buf = BatchBuffers::new();
        allocs(|| sweep::ring_power_response_batch(&ring, Polarization::Te, 3, &grid, &mut buf))
    });
}

#[test]
fn hot_kernels_allocate_nothing_per_iteration_shot_or_point() {
    let campaign_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alloc-scaling-campaign");
    for threads in [1, 2] {
        with_threads(threads, || {
            check_mle_iterations(threads);
            check_qubit_mle_iterations(threads);
            check_mle_heap(threads);
            check_shot_workloads(threads, &campaign_dir);
            check_coincidence_sweep(threads);
            check_click_generator(threads);
            check_sweeps(threads);
        });
    }
}
