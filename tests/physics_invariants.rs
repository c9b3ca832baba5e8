//! Property-based tests of cross-crate physics invariants.

use proptest::prelude::*;

use qfc::mathkit::cmatrix::CMatrix;
use qfc::mathkit::complex::Complex64;
use qfc::mathkit::cvector::CVector;
use qfc::mathkit::hermitian::eigh;
use qfc::photonics::ring::MicroringBuilder;
use qfc::photonics::units::{Frequency, Power};
use qfc::photonics::waveguide::{Polarization, Waveguide};
use qfc::photonics::{fwm, opo};
use qfc::quantum::bell::{concurrence, werner_state};
use qfc::quantum::chsh::{s_value, ChshSettings, TSIRELSON_BOUND};
use qfc::quantum::density::DensityMatrix;
use qfc::quantum::fidelity::{state_fidelity, trace_distance};
use qfc::quantum::fock::TwoModeSqueezedVacuum;
use qfc::quantum::state::PureState;
use qfc::timetag::coincidence::{count_coincidences, measure_car};
use qfc::timetag::events::TagStream;

fn ring_with(linewidth_mhz: f64, fsr_ghz: f64) -> qfc::photonics::ring::Microring {
    let mut b = MicroringBuilder::new(Waveguide::hydex_paper());
    b.radius_for_fsr(Frequency::from_ghz(fsr_ghz));
    b.coupling_for_linewidth(Frequency::from_hz(linewidth_mhz * 1e6));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_builder_hits_linewidth_target(lw in 40.0..400.0f64, fsr in 100.0..400.0f64) {
        let ring = ring_with(lw, fsr);
        let got = ring.linewidth().mhz();
        prop_assert!((got - lw).abs() / lw < 0.05, "target {lw} got {got}");
        let got_fsr = ring.fsr(Polarization::Te).ghz();
        prop_assert!((got_fsr - fsr).abs() / fsr < 0.01);
    }

    #[test]
    fn sfwm_rate_monotone_in_power(p1 in 0.5..10.0f64, scale in 1.1..4.0f64) {
        let ring = ring_with(110.0, 200.0);
        let r1 = fwm::pair_rate_cw(&ring, Polarization::Te, Power::from_mw(p1), 1);
        let r2 = fwm::pair_rate_cw(&ring, Polarization::Te, Power::from_mw(p1 * scale), 1);
        prop_assert!(r2 > r1);
        // Quadratic scaling.
        prop_assert!((r2 / r1 - scale * scale).abs() / (scale * scale) < 1e-9);
    }

    #[test]
    fn opo_threshold_scales_inversely_with_enhancement(lw in 60.0..300.0f64) {
        // Narrower linewidth → higher Q → stronger enhancement → lower
        // threshold.
        let narrow = ring_with(lw, 200.0);
        let broad = ring_with(lw * 2.0, 200.0);
        prop_assert!(opo::threshold(&narrow).w() < opo::threshold(&broad).w());
    }

    #[test]
    fn werner_chsh_never_exceeds_tsirelson(v in 0.0..1.0f64, phi in 0.0..6.2f64) {
        let rho = werner_state(v, phi);
        let s = s_value(&rho, &ChshSettings::optimal_for_phi_plus());
        prop_assert!(s <= TSIRELSON_BOUND + 1e-9);
    }

    #[test]
    fn concurrence_bounded(v in 0.0..1.0f64) {
        let c = concurrence(&werner_state(v, 0.0));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn fidelity_and_trace_distance_bounds(v1 in 0.0..1.0f64, v2 in 0.0..1.0f64) {
        let a = werner_state(v1, 0.0);
        let b = werner_state(v2, 0.0);
        let f = state_fidelity(&a, &b);
        let d = trace_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((-1e-9..=1.0).contains(&d));
        // Fuchs–van de Graaf.
        prop_assert!(1.0 - f.sqrt() <= d + 1e-7);
        prop_assert!(d <= (1.0 - f).sqrt() + 1e-7);
    }

    #[test]
    fn tmsv_statistics_consistent(mu in 0.0001..2.0f64, eta in 0.05..1.0f64) {
        let t = TwoModeSqueezedVacuum::new(mu);
        // P(n) is a distribution.
        let total: f64 = (0..400).map(|n| t.p_n(n)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Coincidence ≤ single probability.
        let c = t.coincidence_probability(eta, eta);
        let s = t.single_probability(eta);
        prop_assert!(c <= s + 1e-12);
        // Heralded g² in [0, 2].
        let g2 = t.heralded_g2(eta);
        prop_assert!((0.0..=2.0 + 1e-6).contains(&g2));
    }

    #[test]
    fn eigh_preserves_trace_and_orthonormality(seed in 0u64..1000) {
        // Random Hermitian from a seeded generator.
        use qfc::mathkit::rng::{normal, rng_from_seed};
        let mut rng = rng_from_seed(seed);
        let n = 5;
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::real(normal(&mut rng, 0.0, 1.0));
            for j in (i + 1)..n {
                let z = Complex64::new(normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0));
                m[(i, j)] = z;
                m[(j, i)] = z.conj();
            }
        }
        let e = eigh(&m);
        let tr: f64 = e.eigenvalues.iter().sum();
        prop_assert!((tr - m.trace().re).abs() < 1e-8);
        prop_assert!(e.eigenvectors.is_unitary(1e-8));
        prop_assert!(e.reconstruct().approx_eq(&m, 1e-8));
    }

    #[test]
    fn coincidence_count_symmetric_under_shift(shift in -1_000_000i64..1_000_000) {
        let a = TagStream::from_unsorted(vec![1_000_000, 2_000_000, 5_000_000]);
        let shifted: TagStream = a.as_slice().iter().map(|t| t + shift).collect();
        // Shifting both streams by the same offset preserves coincidences.
        let b = TagStream::from_unsorted(vec![1_000_100, 4_900_000]);
        let b_shifted: TagStream = b.as_slice().iter().map(|t| t + shift).collect();
        prop_assert_eq!(
            count_coincidences(&a, &b, 400, 0),
            count_coincidences(&shifted, &b_shifted, 400, 0)
        );
    }

    #[test]
    fn car_non_negative(seed in 0u64..200) {
        use qfc::mathkit::rng::rng_from_seed;
        use rand::Rng;
        let mut rng = rng_from_seed(seed);
        let a: TagStream = (0..500).map(|_| (rng.gen::<f64>() * 1e10) as i64).collect();
        let b: TagStream = (0..500).map(|_| (rng.gen::<f64>() * 1e10) as i64).collect();
        let r = measure_car(&a, &b, 1000, 100_000, 5);
        prop_assert!(r.car >= 0.0 || r.car.is_infinite());
        prop_assert!(r.accidentals >= 0.0);
    }

    #[test]
    fn pure_state_normalization_preserved_by_ops(re0 in -1.0..1.0f64, im0 in -1.0..1.0f64,
                                                 re1 in -1.0..1.0f64, im1 in -1.0..1.0f64) {
        prop_assume!((re0.abs() + im0.abs() + re1.abs() + im1.abs()) > 0.1);
        let v = CVector::from_vec(vec![Complex64::new(re0, im0), Complex64::new(re1, im1)]);
        let s = PureState::from_amplitudes(v).expect("nonzero");
        let total: f64 = s.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        // Purity of the projector is 1.
        let rho = DensityMatrix::from_pure(&s);
        prop_assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_shrinks_chsh(v in 0.5..1.0f64, p in 0.0..1.0f64) {
        let clean = werner_state(v, 0.0);
        let noisy = clean.depolarize(p);
        let settings = ChshSettings::optimal_for_phi_plus();
        prop_assert!(s_value(&noisy, &settings) <= s_value(&clean, &settings) + 1e-9);
    }

    #[test]
    fn jones_elements_never_amplify(theta in 0.0..3.2f64, angle in 0.0..3.2f64) {
        use qfc::photonics::jones::{JonesMatrix, JonesVector};
        let state = JonesVector::linear(angle);
        for element in [
            JonesMatrix::polarizer(theta),
            JonesMatrix::half_wave_plate(theta),
            JonesMatrix::quarter_wave_plate(theta),
            JonesMatrix::retarder(theta),
        ] {
            prop_assert!(state.intensity_after(&element) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn qudit_entropy_bounded_by_log_d(d in 2usize..7, w0 in 0.1..1.0f64, w1 in 0.1..1.0f64) {
        use qfc::quantum::qudit::BipartiteQudit;
        let weights: Vec<f64> = (0..d)
            .map(|k| if k % 2 == 0 { w0 } else { w1 })
            .collect();
        let state = BipartiteQudit::from_channel_weights(&weights);
        let e = state.entanglement_entropy_bits();
        prop_assert!(e >= -1e-9);
        prop_assert!(e <= (d as f64).log2() + 1e-9);
    }
}
