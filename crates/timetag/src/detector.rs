//! Single-photon detector model and the §II/§III click generator:
//! efficiency, dark counts, background, timing jitter and dead time —
//! the imperfections that shape every measured coincidence histogram in
//! the paper.

use qfc_mathkit::cast;
use rand::Rng;
use serde::{Deserialize, Serialize};

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::rng::{bernoulli, normal, poisson, standard_exponential};

use crate::events::{TagStream, MAX_DURATION_PS, MAX_TAGS_PER_ARM};

/// Fixed-point unit of the spacing sums: 2^32 per mean Exp(1) spacing.
/// An Exp(1) draw is below 44.44 (the ziggurat tail's r − ln 2^−53 is
/// 44.434), so a spacing is under 2^37.48 units ([`MAX_SPACING`]). An
/// arm has under 2^25.1 spacings: the plans expect at most
/// [`MAX_TAGS_PER_ARM`] each of dark counts and background photons, and
/// their Poisson count stays within 16σ of its mean, because a
/// polar-method normal is below 16 in magnitude. So every sum stays
/// below 2^62.6.
const SPACING_UNIT: f64 = 4_294_967_296.0;

/// Bound of one [`spacing`]: 44.44 × 2^32 units, rounded up.
const MAX_SPACING: u64 = 4444 * (1 << 32) / 100 + 1;

// The count's 16σ plus the closing spacing fit in MAX_TAGS_PER_ARM / 8,
// and 2^25 + 2^21 spacings of at most MAX_SPACING sum below 2^63.
const _: () = assert!(16 * ((2 * MAX_TAGS_PER_ARM).isqrt() + 1) + 1 < MAX_TAGS_PER_ARM / 8);
const _: () = assert!(matches!(
    (2 * MAX_TAGS_PER_ARM + MAX_TAGS_PER_ARM / 8).checked_mul(MAX_SPACING),
    Some(sum) if sum < 1 << 63
));

/// A click detector (non-number-resolving).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinglePhotonDetector {
    /// Detection efficiency, 0‥1.
    pub efficiency: f64,
    /// Dark-count rate, Hz.
    pub dark_count_rate_hz: f64,
    /// Gaussian timing jitter (1σ), ps.
    pub jitter_sigma_ps: f64,
    /// Dead time after each click, ps.
    pub dead_time_ps: i64,
}

impl SinglePhotonDetector {
    /// Telecom InGaAs avalanche detector of the era (id Quantique
    /// id201-class): η ≈ 15 %, kHz darks, ~100 ps jitter, µs dead time.
    pub fn ingaas_paper() -> Self {
        Self {
            efficiency: 0.15,
            dark_count_rate_hz: 1000.0,
            jitter_sigma_ps: 100.0,
            dead_time_ps: 10_000_000, // 10 µs
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// [`QfcError::InvalidParameter`] for an efficiency outside [0, 1], a
    /// negative or non-finite dark rate, a jitter outside [0, 2^56] ps or
    /// a negative dead time.
    pub fn try_validate(&self) -> QfcResult<()> {
        if !(0.0..=1.0).contains(&self.efficiency) {
            return Err(QfcError::invalid(format!(
                "detector efficiency must be in [0, 1], got {}",
                self.efficiency
            )));
        }
        if !(self.dark_count_rate_hz >= 0.0 && self.dark_count_rate_hz.is_finite()) {
            return Err(QfcError::invalid(format!(
                "detector dark rate must be finite and ≥ 0, got {}",
                self.dark_count_rate_hz
            )));
        }
        // A polar-method normal variate is below 16 in magnitude, so a
        // jitter of at most 2^56 ps moves a tag by less than 2^60 ps.
        let max_jitter_ps = cast::to_f64(MAX_DURATION_PS >> 6);
        if !(0.0..=max_jitter_ps).contains(&self.jitter_sigma_ps) {
            return Err(QfcError::invalid(format!(
                "detector jitter must be in [0, {max_jitter_ps}] ps, got {}",
                self.jitter_sigma_ps
            )));
        }
        if self.dead_time_ps < 0 {
            return Err(QfcError::invalid(format!(
                "detector dead time must be ≥ 0, got {}",
                self.dead_time_ps
            )));
        }
        Ok(())
    }

    /// One arm's clicks over `[0, duration_ps)`, in time order, with no
    /// global sort (DESIGN.md §12, "Click generator", states the law).
    ///
    /// The pair photons `photons_ps`, in any order, are each detected
    /// with probability `efficiency` and jittered, then sorted. Dark
    /// counts and the background photons arriving at `background_hz` are
    /// one Poisson process of rate `dark + efficiency · background`,
    /// drawn in time order as normalized Exp(1) spacings over exact
    /// integer sums, so no error grows with their number. Where
    /// `dropped(t)`, a dropout removes photons and background clicks but
    /// no dark count. One pass merges the two sorted sources under the
    /// non-paralyzable dead time, in place, into one allocation. The
    /// plans validate the detector, the window and the expected counts
    /// ([`try_tags_per_arm`](crate::events::try_tags_per_arm)) first.
    pub fn detect<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut photons_ps: Vec<i64>,
        background_hz: f64,
        duration_ps: i64,
        dropped: impl Fn(i64) -> bool,
    ) -> TagStream {
        debug_assert!(self.try_validate().is_ok() && duration_ps > 0 && background_hz >= 0.0);
        photons_ps.retain_mut(|t| {
            if dropped(*t) || !bernoulli(rng, self.efficiency) {
                return false;
            }
            if self.jitter_sigma_ps > 0.0 {
                *t += cast::f64_to_i64(normal(rng, 0.0, self.jitter_sigma_ps).round());
            }
            true
        });
        photons_ps.sort_unstable();

        let background_hz = self.efficiency * background_hz;
        let rate_hz = self.dark_count_rate_hz + background_hz;
        let n = cast::u64_to_usize(poisson(rng, rate_hz * cast::to_f64(duration_ps) * 1e-12));
        let kept = photons_ps.len();
        let mut clicks = vec![0i64; kept + n];
        let mut sum = 0i64;
        for slot in &mut clicks[kept..] {
            sum += spacing(rng);
            *slot = sum;
        }
        let scale = cast::to_f64(duration_ps) / cast::to_f64((sum + spacing(rng)).max(1));
        let p_background = if background_hz > 0.0 { background_hz / rate_hz } else { 0.0 };

        // `write` stays at or below `read`: at most the `kept` photons
        // and the clicks before `read` have been written.
        let (mut write, mut allowed) = (0, i64::MIN);
        let mut offer = |clicks: &mut [i64], t: i64| {
            if t >= allowed {
                clicks[write] = t;
                write += 1;
                allowed = t.saturating_add(self.dead_time_ps);
            }
        };
        let mut photons = photons_ps.iter().copied().peekable();
        // qfc-lint: hot
        for read in kept..kept + n {
            let t = cast::f64_to_i64(cast::to_f64(clicks[read]) * scale).min(duration_ps - 1);
            if p_background > 0.0 && dropped(t) && bernoulli(rng, p_background) {
                continue;
            }
            while let Some(p) = photons.next_if(|&p| p <= t) {
                offer(&mut clicks, p);
            }
            offer(&mut clicks, t);
        }
        photons.for_each(|p| offer(&mut clicks, p));
        clicks.truncate(write);
        TagStream::from_sorted(clicks)
    }
}

/// One Exp(1) spacing in units of [`SPACING_UNIT`].
fn spacing<R: Rng + ?Sized>(rng: &mut R) -> i64 {
    cast::f64_to_i64(standard_exponential(rng) * SPACING_UNIT)
}

/// True arrival times of both photons of a Poisson number of pairs at
/// `rate_hz` over `[0, duration_s)`, in pair order: uniform times, a
/// two-sided exponential delay of time constant `tau_s` between the two,
/// and with probability `swap_probability` (a polarizing beam splitter's
/// leakage) the two routed the other way round.
pub fn pair_arrivals<R: Rng + ?Sized>(
    rng: &mut R,
    rate_hz: f64,
    tau_s: f64,
    duration_s: f64,
    swap_probability: f64,
) -> (Vec<i64>, Vec<i64>) {
    let n = poisson(rng, rate_hz * duration_s);
    qfc_obs::counter_add("shots_simulated", n);
    let mut first = Vec::with_capacity(cast::u64_to_usize(n));
    let mut second = Vec::with_capacity(cast::u64_to_usize(n));
    for _ in 0..n {
        let t = rng.gen::<f64>() * duration_s;
        let dt = standard_exponential(rng) * tau_s;
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let (a, b) = (cast::f64_to_i64(t * 1e12), cast::f64_to_i64((t + sign * dt) * 1e12));
        let (a, b) = if bernoulli(rng, swap_probability) { (b, a) } else { (a, b) };
        first.push(a);
        second.push(b);
    }
    (first, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfc_mathkit::rng::rng_from_seed;

    const SECOND_PS: i64 = 1_000_000_000_000;

    /// Significance level of every Kolmogorov–Smirnov test below.
    const KS_LEVEL: f64 = 1e-3;

    fn detector(efficiency: f64, dark_hz: f64, jitter_ps: f64, dead_ps: i64) -> SinglePhotonDetector {
        SinglePhotonDetector {
            efficiency,
            dark_count_rate_hz: dark_hz,
            jitter_sigma_ps: jitter_ps,
            dead_time_ps: dead_ps,
        }
    }

    /// Clicks of `det` with no pair photons, no background and no dropout.
    fn darks_only(det: &SinglePhotonDetector, seed: u64, duration_ps: i64) -> TagStream {
        det.detect(&mut rng_from_seed(seed), Vec::new(), 0.0, duration_ps, |_| false)
    }

    /// Asserts that `samples` pass a one-sample Kolmogorov–Smirnov test
    /// against the continuous `cdf` at [`KS_LEVEL`] (asymptotic critical
    /// value `sqrt(−ln(α/2)/2)/√n`).
    fn assert_ks(what: &str, mut samples: Vec<f64>, cdf: impl Fn(f64) -> f64) {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        let d = samples
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = cdf(x);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max);
        let critical = (-(KS_LEVEL / 2.0).ln() / 2.0).sqrt() / n.sqrt();
        assert!(d < critical, "{what}: KS statistic {d} ≥ {critical} over {n} samples");
    }

    #[test]
    fn ideal_detector_passes_everything() {
        let mut rng = rng_from_seed(1);
        let arrivals: Vec<i64> = (0..100).map(|i| i * 1_000_000).collect();
        let ideal = detector(1.0, 0.0, 0.0, 0);
        // Photons come in any order and leave sorted.
        let reversed = arrivals.iter().rev().copied().collect();
        let out = ideal.detect(&mut rng, reversed, 0.0, SECOND_PS, |_| false);
        assert_eq!(out.as_slice(), arrivals.as_slice());
    }

    #[test]
    fn efficiency_thins_the_stream() {
        let mut rng = rng_from_seed(2);
        let arrivals: Vec<i64> = (0..100_000).map(|i| i * 1_000_000).collect();
        let det = detector(0.3, 0.0, 0.0, 0);
        let out = det.detect(&mut rng, arrivals, 0.0, 200 * SECOND_PS, |_| false);
        let frac = out.len() as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn dark_counts_at_expected_rate() {
        let det = detector(1.0, 5000.0, 0.0, 0);
        let rate = darks_only(&det, 3, 10 * SECOND_PS).rate_hz(10.0);
        assert!((rate - 5000.0).abs() < 150.0, "rate = {rate}");
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let mut rng = rng_from_seed(4);
        let arrivals = vec![500_000i64; 20_000];
        let det = detector(1.0, 0.0, 120.0, 0);
        let out = det.detect(&mut rng, arrivals, 0.0, SECOND_PS, |_| false);
        let mean: f64 =
            out.as_slice().iter().map(|&t| t as f64).sum::<f64>() / out.len() as f64;
        let var: f64 = out
            .as_slice()
            .iter()
            .map(|&t| (t as f64 - mean).powi(2))
            .sum::<f64>()
            / out.len() as f64;
        assert!((var.sqrt() - 120.0).abs() < 5.0, "σ = {}", var.sqrt());
    }

    #[test]
    fn dead_time_enforced() {
        // Clicks every 100 ns, dead time 250 ns → keep every third.
        let arrivals: Vec<i64> = (0..30).map(|i| i * 100_000).collect();
        let det = detector(1.0, 0.0, 0.0, 250_000);
        let out = det.detect(&mut rng_from_seed(5), arrivals, 0.0, SECOND_PS, |_| false);
        assert_eq!(out.len(), 10);
        // Photons merged with darks and background: sorted, and no gap
        // below the dead time.
        for (dark_hz, background_hz) in [(2e5, 0.0), (5e4, 3e5)] {
            let det = detector(0.5, dark_hz, 80.0, 250_000);
            let photons: Vec<i64> = (0..200_000).map(|i| (i * 4_999_981) % SECOND_PS).collect();
            let out =
                det.detect(&mut rng_from_seed(6), photons, background_hz, SECOND_PS, |_| false);
            assert!(out.len() > 100_000, "{} clicks", out.len());
            assert!(
                out.as_slice().windows(2).all(|w| w[1] - w[0] >= 250_000),
                "darks {dark_hz} Hz, background {background_hz} Hz"
            );
        }
    }

    /// A dark-only arm at paper density (1 200 Hz for 300 s, 360 000
    /// expected clicks): positions / D are U(0, 1), and gaps × rate are
    /// Exp(1).
    #[test]
    fn paper_density_darks_are_a_poisson_process() {
        let rate_hz = 1200.0;
        let duration_ps = 300 * SECOND_PS;
        let out = darks_only(&detector(0.15, rate_hz, 100.0, 0), 7, duration_ps);
        let tags = out.as_slice();
        assert!(tags.windows(2).all(|w| w[0] <= w[1]));
        assert!(tags[0] >= 0 && tags[tags.len() - 1] < duration_ps);
        let d = duration_ps as f64;
        assert_ks("positions / D", tags.iter().map(|&t| t as f64 / d).collect(), |u| {
            u.clamp(0.0, 1.0)
        });
        let per_ps = rate_hz * 1e-12;
        assert_ks(
            "gaps × rate",
            tags.windows(2).map(|w| (w[1] - w[0]) as f64 * per_ps).collect(),
            |x| 1.0 - (-x.max(0.0)).exp(),
        );
    }

    /// Darks plus detected background across 64 seeds: the count's mean
    /// and variance are Poisson, and the gaps from the window's start to
    /// the first click and from the last click to its end are Exp(r).
    #[test]
    fn uncorrelated_count_is_poisson_across_seeds() {
        // 800 Hz of darks plus 1 000 Hz of background at η = 0.4.
        let det = detector(0.4, 800.0, 100.0, 0);
        let (rate_hz, duration_ps) = (1200.0, SECOND_PS);
        let seeds = 64;
        let mut counts = Vec::new();
        let (mut head, mut tail) = (0.0, 0.0);
        for seed in 0..seeds {
            let out = det.detect(&mut rng_from_seed(seed), Vec::new(), 1000.0, duration_ps, |_| {
                false
            });
            let tags = out.as_slice();
            counts.push(tags.len() as f64);
            head += tags[0] as f64 * rate_hz * 1e-12;
            tail += (duration_ps - tags[tags.len() - 1]) as f64 * rate_hz * 1e-12;
        }
        let n = seeds as f64;
        let lambda = rate_hz * duration_ps as f64 * 1e-12;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((mean - lambda).abs() < 4.0 * (lambda / n).sqrt(), "mean {mean} vs {lambda}");
        assert!(
            (var - lambda).abs() < 4.0 * lambda * (2.0 / (n - 1.0)).sqrt(),
            "variance {var} vs {lambda}"
        );
        // Exp(1) has mean 1 and standard deviation 1.
        for (what, sum) in [("first gap", head), ("last gap", tail)] {
            assert!((sum / n - 1.0).abs() < 4.0 / n.sqrt(), "{what} × rate: mean {}", sum / n);
        }
    }

    /// Non-paralyzable dead time τ limits a rate r to r / (1 + rτ), with
    /// count variance `mean / (1 + rτ)²` (a renewal process with gaps
    /// τ + Exp(r)). At rτ = 1 a paralyzable dead time would give r·e^{−1}.
    #[test]
    fn dead_time_limits_the_rate_non_paralyzably() {
        let rate_hz = 1200.0;
        for (dead_ps, seconds) in [(10_000_000, 300), (833_333_333, 30)] {
            let out = darks_only(&detector(0.15, rate_hz, 100.0, dead_ps), 8, seconds * SECOND_PS);
            let r_tau = rate_hz * dead_ps as f64 * 1e-12;
            let expected = rate_hz * seconds as f64 / (1.0 + r_tau);
            let sigma = expected.sqrt() / (1.0 + r_tau);
            let count = out.len() as f64;
            assert!(
                (count - expected).abs() < 4.0 * sigma,
                "dead time {dead_ps} ps: {count} clicks, expected {expected} ± {sigma}"
            );
        }
        // The paper's operating point: 1 200 Hz with 10 µs dead time.
        assert!((rate_hz / (1.0 + rate_hz * 1e-5) - 1185.77).abs() < 0.01);
    }

    /// The spacing sums are exact, so a tag's error does not grow with
    /// the number of clicks: with 2.5 M darks over one hour the sums pass
    /// 2^53, and every tag still lies within 2 ps of ⌊D · S_j / S_{N+1}⌋
    /// computed exactly from the same draws.
    #[test]
    fn positions_carry_no_accumulated_rounding() {
        let (rate_hz, duration_ps) = (700.0, 3600 * SECOND_PS);
        let out = darks_only(&detector(0.15, rate_hz, 100.0, 0), 9, duration_ps);
        let mut rng = rng_from_seed(9);
        let n = poisson(&mut rng, rate_hz * 3600.0);
        assert_eq!(out.len() as u64, n);
        let sums: Vec<i64> = (0..n)
            .scan(0i64, |sum, _| {
                *sum += spacing(&mut rng);
                Some(*sum)
            })
            .collect();
        let total = i128::from(sums[sums.len() - 1] + spacing(&mut rng));
        assert!(total > 1 << 53);
        for (&tag, &s) in out.as_slice().iter().zip(&sums) {
            let exact = (i128::from(s) * i128::from(duration_ps) / total) as i64;
            assert!((tag - exact).abs() <= 2, "S = {s}: {tag} vs {exact}");
        }
    }

    /// The largest spacing: the ziggurat's base layer with U ≈ 1 falls
    /// in the tail, whose smallest uniform 1 − U = 2^−53 gives
    /// r − ln 2^−53 = 44.434 mean spacings, within [`MAX_SPACING`].
    #[test]
    fn largest_spacing_is_within_the_overflow_bound() {
        struct Scripted(Vec<u64>);
        impl rand::RngCore for Scripted {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0.remove(0)
            }
        }
        let units = spacing(&mut Scripted(vec![u64::MAX << 8, u64::MAX]));
        assert!(units as f64 > 44.43 * SPACING_UNIT && units as u64 <= MAX_SPACING, "{units}");
    }

    #[test]
    fn dropouts_remove_photons_and_background_but_not_darks() {
        // Photons every 10 µs, 300 Hz of darks and 2 000 Hz of
        // background at η = 0.5; the detector is blind in [2 s, 6 s).
        let det = detector(0.5, 300.0, 0.0, 0);
        let photons: Vec<i64> = (0..1_000_000).map(|i| i * 10_000_000).collect();
        let dead = |t: i64| (2 * SECOND_PS..6 * SECOND_PS).contains(&t);
        let out = det.detect(&mut rng_from_seed(10), photons, 2000.0, 10 * SECOND_PS, dead);
        let inside = out.as_slice().iter().filter(|&&t| dead(t)).count() as f64;
        let darks = 300.0 * 4.0;
        assert!((inside - darks).abs() < 4.0 * darks.sqrt(), "{inside} clicks in the dropout");
        let outside = out.len() as f64 - inside;
        let expected = (300.0 + 0.5 * 2000.0 + 0.5 * 1e5) * 6.0;
        assert!((outside - expected).abs() < 4.0 * expected.sqrt(), "{outside} clicks outside");
    }

    #[test]
    fn pair_arrivals_have_poisson_count_and_exponential_lag() {
        let tau_s = 1.45e-9;
        let (a, b) = pair_arrivals(&mut rng_from_seed(11), 2000.0, tau_s, 50.0, 0.25);
        assert_eq!(a.len(), b.len());
        let n = a.len() as f64;
        assert!((n - 1e5).abs() < 4.0 * 1e5f64.sqrt(), "{n} pairs");
        // The two photons of a pair are |Δt| ~ Exp(1/τ) apart, whichever
        // way the splitter routed them.
        let mean_lag = a.iter().zip(&b).map(|(x, y)| (y - x).abs() as f64).sum::<f64>() / n;
        assert!((mean_lag * 1e-12 / tau_s - 1.0).abs() < 0.02, "mean |Δt| {mean_lag} ps");
    }

    #[test]
    fn preset_is_valid() {
        assert!(SinglePhotonDetector::ingaas_paper().try_validate().is_ok());
    }

    #[test]
    fn invalid_efficiency_rejected() {
        let mut det = SinglePhotonDetector::ingaas_paper();
        det.efficiency = 1.5;
        let err = det.try_validate().unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
        assert!(err.to_string().contains("efficiency"), "{err}");
    }

    #[test]
    fn try_validate_checks_every_field() {
        assert!(detector(0.15, 1000.0, 100.0, 10_000_000).try_validate().is_ok());
        let err = detector(1.5, 0.0, 0.0, 0).try_validate().unwrap_err();
        assert!(matches!(err, QfcError::InvalidParameter { .. }));
        assert!(err.to_string().contains("efficiency"));
        for bad in [
            detector(0.5, -1.0, 0.0, 0),
            detector(0.5, f64::NAN, 0.0, 0),
            detector(0.5, f64::INFINITY, 0.0, 0),
            detector(0.5, 0.0, -1.0, 0),
            detector(0.5, 0.0, f64::NAN, 0),
            detector(0.5, 0.0, f64::INFINITY, 0),
            detector(0.5, 0.0, 1e17, 0),
            detector(0.5, 0.0, 0.0, -1),
        ] {
            assert!(bad.try_validate().is_err(), "{bad:?}");
        }
    }
}
