//! Determinism: every experiment is bit-for-bit reproducible from its
//! seed, different seeds vary only statistically, and — because all
//! shot-based loops run on the fixed-shard worker pool — the thread
//! count is an implementation detail: one thread, four threads, and the
//! ambient default all produce byte-identical serialized reports.

use qfc::core::crosspol::{try_run_crosspol_experiment, CrossPolConfig, CrossPolReport};
use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig, HeraldedReport};
use qfc::core::multiphoton::{try_run_multiphoton_experiment, MultiPhotonConfig};
use qfc::core::source::QfcSource;
use qfc::core::timebin::{
    nominal_duration_s, try_run_timebin_experiment, TimeBinConfig, TimeBinReport,
};
use qfc::faults::FaultSchedule;
use qfc::runtime::with_threads;

fn heralded(source: &QfcSource, cfg: &HeraldedConfig, seed: u64) -> HeraldedReport {
    try_run_heralded_experiment(source, cfg, seed, &FaultSchedule::empty())
        .expect("clean heralded run")
        .report
}

fn crosspol(source: &QfcSource, cfg: &CrossPolConfig, seed: u64) -> CrossPolReport {
    try_run_crosspol_experiment(source, cfg, seed, &FaultSchedule::empty())
        .expect("clean crosspol run")
        .report
}

fn timebin(source: &QfcSource, cfg: &TimeBinConfig, seed: u64) -> TimeBinReport {
    try_run_timebin_experiment(source, cfg, seed, &FaultSchedule::empty())
        .expect("clean timebin run")
        .report
}

#[test]
fn heralded_experiment_is_deterministic() {
    let source = QfcSource::paper_device();
    let cfg = {
        let mut c = HeraldedConfig::fast_demo();
        c.duration_s = 2.0;
        c.linewidth_pairs = 2000;
        c
    };
    let a = heralded(&source, &cfg, 777);
    let b = heralded(&source, &cfg, 777);
    assert_eq!(a.coincidence_matrix, b.coincidence_matrix);
    for (ca, cb) in a.channels.iter().zip(&b.channels) {
        assert_eq!(ca.car.to_bits(), cb.car.to_bits());
        assert_eq!(
            ca.inferred_pair_rate_hz.to_bits(),
            cb.inferred_pair_rate_hz.to_bits()
        );
    }
    assert_eq!(
        a.linewidth.linewidth_hz.to_bits(),
        b.linewidth.linewidth_hz.to_bits()
    );
}

#[test]
fn different_seeds_differ() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 2.0;
    cfg.linewidth_pairs = 2000;
    let a = heralded(&source, &cfg, 1);
    let b = heralded(&source, &cfg, 2);
    assert_ne!(a.coincidence_matrix, b.coincidence_matrix);
}

#[test]
fn crosspol_experiment_is_deterministic() {
    let source = QfcSource::paper_device_type2();
    let mut cfg = CrossPolConfig::fast_demo();
    cfg.duration_s = 10.0;
    let a = crosspol(&source, &cfg, 99);
    let b = crosspol(&source, &cfg, 99);
    assert_eq!(a.car.to_bits(), b.car.to_bits());
    assert_eq!(a.te_singles_hz.to_bits(), b.te_singles_hz.to_bits());
}

/// Runs `f` at one worker, four workers, and the ambient thread count,
/// and asserts the three serialized outputs are byte-identical.
fn assert_thread_invariant<T: serde::Serialize>(f: impl Fn() -> T + Sync) {
    let serial = serde_json::to_string(&with_threads(1, &f)).unwrap();
    let four = serde_json::to_string(&with_threads(4, &f)).unwrap();
    let ambient = serde_json::to_string(&f()).unwrap();
    assert_eq!(serial, four, "1 vs 4 threads");
    assert_eq!(serial, ambient, "1 thread vs ambient");
}

#[test]
fn heralded_report_identical_across_thread_counts() {
    let source = QfcSource::paper_device();
    let mut cfg = HeraldedConfig::fast_demo();
    cfg.duration_s = 2.0;
    cfg.linewidth_pairs = 2000;
    assert_thread_invariant(|| heralded(&source, &cfg, 4242));
}

#[test]
fn timebin_report_identical_across_thread_counts() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.frames_per_point = 500_000;
    assert_thread_invariant(|| timebin(&source, &cfg, 4243));
}

/// The whole §V run — the four-photon MLE (T4, one task, claimed first
/// and reconstructed inline while the other members take the rest), the
/// per-channel Bell tomography (T3), the four-photon fringe (F8) and the
/// health section — is byte-identical at 1, 2, 4 and 8 workers, clean
/// and under the stress schedule.
#[test]
fn multiphoton_report_identical_across_thread_counts() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = MultiPhotonConfig::fast_demo();
    cfg.bell_shots_per_setting = 200;
    let stress = FaultSchedule::stress(11, nominal_duration_s(&cfg.timebin));
    for schedule in [FaultSchedule::empty(), stress] {
        let run_at = |threads: usize| {
            let run = with_threads(threads, || {
                try_run_multiphoton_experiment(&source, &cfg, 4244, &schedule)
            });
            serde_json::to_string(&run.expect("multiphoton run")).unwrap()
        };
        let serial = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(run_at(threads), serial, "1 vs {threads} threads");
        }
    }
}

#[test]
fn timebin_experiment_is_deterministic() {
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.channels = 1;
    cfg.frames_per_point = 1_000_000;
    let a = timebin(&source, &cfg, 5);
    let b = timebin(&source, &cfg, 5);
    assert_eq!(a.fringes[0].points, b.fringes[0].points);
    assert_eq!(a.chsh[0].s_value.to_bits(), b.chsh[0].s_value.to_bits());
}

/// The §IV event Monte Carlo through the precomputed sampling table:
/// byte-identical at one, four, and eight workers (eight oversubscribes
/// most CI hosts, which is exactly the point — scheduling must not leak
/// into results).
#[test]
fn timebin_event_mc_identical_at_1_4_8_threads() {
    use qfc::core::timebin::run_timebin_event_mc;
    let source = QfcSource::paper_device_timebin();
    let mut cfg = TimeBinConfig::fast_demo();
    cfg.frames_per_point = 300_000;
    let phases: Vec<f64> = (0..5).map(|k| 0.4 * f64::from(k)).collect();
    let run = || {
        run_timebin_event_mc(&source, &cfg, 1, &phases, 4245).expect("double-pulse source")
    };
    let one = serde_json::to_string(&with_threads(1, run)).unwrap();
    let four = serde_json::to_string(&with_threads(4, run)).unwrap();
    let eight = serde_json::to_string(&with_threads(8, run)).unwrap();
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, eight, "1 vs 8 threads");
}

/// The SoA spectral-sweep layer: batch kernels must be byte-identical
/// (f64 bit pattern) to the point-by-point scalar oracle on *arbitrary*
/// grids, and the chunked parallel path must not leak the thread count
/// into the bytes.
mod spectral_sweeps {
    use proptest::prelude::*;
    use qfc::photonics::opo;
    use qfc::photonics::ring::Microring;
    use qfc::photonics::sweep::{self, BatchBuffers, SweepGrid, SWEEP_CHUNK};
    use qfc::photonics::waveguide::Polarization;
    use qfc::runtime::with_threads;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Ring transmission: batch vs scalar loop, bit for bit, on
        /// random channels, spans, offsets, and point counts.
        #[test]
        fn ring_batch_matches_scalar_on_random_grids(
            m in -40i32..41,
            span_lw in 0.25f64..12.0,
            offset_lw in -4.0f64..4.0,
            n in 2usize..300,
        ) {
            let ring = Microring::paper_device();
            let lw = ring.linewidth().hz();
            let center = ring.resonance(Polarization::Te, m).hz() + offset_lw * lw;
            let grid = SweepGrid::try_linspace(center - span_lw * lw, center + span_lw * lw, n)
                .expect("grid");
            let mut batch = BatchBuffers::new();
            let mut scalar = BatchBuffers::new();
            sweep::ring_power_response_batch(&ring, Polarization::Te, m, &grid, &mut batch);
            sweep::ring_power_response_scalar(&ring, Polarization::Te, m, &grid, &mut scalar);
            prop_assert_eq!(bits(batch.values()), bits(scalar.values()));
        }

        /// OPO transfer curve: batch vs scalar loop across the threshold
        /// kink on random power ranges.
        #[test]
        fn opo_batch_matches_scalar_on_random_power_grids(
            lo in 0.01f64..0.95,
            hi in 1.05f64..4.0,
            n in 2usize..300,
        ) {
            let ring = Microring::paper_device();
            let p_th = opo::threshold(&ring).w();
            let grid = SweepGrid::try_linspace(lo * p_th, hi * p_th, n).expect("grid");
            let mut batch = BatchBuffers::new();
            let mut scalar = BatchBuffers::new();
            sweep::opo_transfer_batch(&ring, &grid, &mut batch);
            sweep::opo_transfer_scalar(&ring, &grid, &mut scalar);
            prop_assert_eq!(bits(batch.values()), bits(scalar.values()));
        }

        /// Channel-resolved pair rates: the channel-major SoA layout
        /// matches the nested scalar loop on random channel counts.
        #[test]
        fn pair_rate_channels_batch_matches_scalar(
            max_m in 1u32..24,
            p_min_mw in 0.1f64..5.0,
            span_mw in 0.5f64..30.0,
            n in 2usize..80,
        ) {
            let ring = Microring::paper_device();
            let grid = SweepGrid::try_linspace(
                p_min_mw * 1e-3,
                (p_min_mw + span_mw) * 1e-3,
                n,
            )
            .expect("grid");
            let mut batch = BatchBuffers::new();
            let mut scalar = BatchBuffers::new();
            sweep::pair_rate_channels_batch(&ring, Polarization::Te, &grid, max_m, &mut batch);
            sweep::pair_rate_channels_scalar(&ring, Polarization::Te, &grid, max_m, &mut scalar);
            prop_assert_eq!(bits(batch.values()), bits(scalar.values()));
        }
    }

    /// The chunked parallel sweep path at one, four, and eight workers
    /// (eight oversubscribes most CI hosts — scheduling must not leak
    /// into the bytes). The grid spans several `SWEEP_CHUNK`s so the
    /// pool genuinely splits the work.
    #[test]
    fn sweep_batch_identical_at_1_4_8_threads() {
        let ring = Microring::paper_device();
        let lw = ring.linewidth().hz();
        let f0 = ring.resonance(Polarization::Te, 2).hz();
        let freq_grid =
            SweepGrid::try_linspace(f0 - 6.0 * lw, f0 + 6.0 * lw, 6 * SWEEP_CHUNK + 111)
                .expect("grid");
        let p_th = opo::threshold(&ring).w();
        let power_grid =
            SweepGrid::try_linspace(0.05 * p_th, 3.0 * p_th, 4 * SWEEP_CHUNK + 7).expect("grid");
        let run = || {
            let mut buf = BatchBuffers::new();
            sweep::ring_power_response_batch(&ring, Polarization::Te, 2, &freq_grid, &mut buf);
            let mut out = bits(buf.values());
            sweep::opo_transfer_batch(&ring, &power_grid, &mut buf);
            out.extend(bits(buf.values()));
            out
        };
        let one = with_threads(1, run);
        let four = with_threads(4, run);
        let eight = with_threads(8, run);
        assert_eq!(one, four, "1 vs 4 threads");
        assert_eq!(one, eight, "1 vs 8 threads");
    }
}

/// Integration-scale checks of the sampling tables behind every
/// converted kernel, via the vendored property-test harness: the
/// threshold ladder tracks `discrete` draw for draw, and the alias
/// table (no bitwise contract) is statistically faithful.
mod sampling_tables {
    use proptest::prelude::*;
    use qfc::mathkit::rng::{discrete, rng_from_seed};
    use qfc::mathkit::sampling::{AliasTable, DiscreteSampler};

    proptest! {
        /// A `DiscreteSampler` fed the same stream as the original
        /// `discrete` subtraction loop returns the same index, draw for
        /// draw, on arbitrary weight vectors.
        #[test]
        fn sampling_table_tracks_discrete_on_random_weights(
            weights in prop::collection::vec(0.0f64..10.0, 1..12),
            seed in 0u64..1000,
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = DiscreteSampler::new(&weights);
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..200 {
                prop_assert_eq!(table.sample(&mut a), discrete(&mut b, &weights));
            }
        }

        /// Statistical correctness of the O(1) alias table: empirical
        /// frequencies converge to the normalized weights.
        #[test]
        fn alias_table_frequencies_match_weights(
            weights in prop::collection::vec(0.05f64..10.0, 2..8),
            seed in 0u64..100,
        ) {
            let table = AliasTable::new(&weights);
            let total: f64 = weights.iter().sum();
            let mut rng = rng_from_seed(seed);
            let shots = 60_000usize;
            let mut counts = vec![0u64; weights.len()];
            for _ in 0..shots {
                counts[table.sample(&mut rng)] += 1;
            }
            for (k, (&c, &w)) in counts.iter().zip(&weights).enumerate() {
                let p = w / total;
                let got = c as f64 / shots as f64;
                // 5σ binomial tolerance: ~1e-6 false-failure rate per bin.
                let tol = 5.0 * (p * (1.0 - p) / shots as f64).sqrt();
                prop_assert!(
                    (got - p).abs() <= tol,
                    "bin {k}: empirical {got:.4} vs expected {p:.4} (tol {tol:.4})"
                );
            }
        }
    }
}
