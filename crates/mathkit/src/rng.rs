//! Random-variate generation for Monte-Carlo photon-event simulation.
//!
//! Only the `rand` core RNG is taken as a dependency; the distributions
//! themselves (normal, Poisson, binomial, exponential) are implemented here
//! so the workspace stays within its approved dependency set.

use crate::cast;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// Every experiment in the workspace threads an explicit seed through this
/// function so that all published numbers are bit-for-bit reproducible.
///
/// ```
/// use qfc_mathkit::rng::rng_from_seed;
/// use rand::Rng;
/// let mut a = rng_from_seed(7);
/// let mut b = rng_from_seed(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed for shard `shard_id` of a
/// computation rooted at `seed`.
///
/// This is the counter-based splitting scheme behind the deterministic
/// parallel engine: every shard of a sharded Monte-Carlo run draws its
/// variates from `rng_from_seed(split_seed(seed, shard_id))`, so results
/// depend only on the (seed, shard) pair — never on how shards are
/// scheduled across worker threads. Two SplitMix64 finalizer rounds over
/// the golden-ratio-weighted counter give sibling streams that are
/// statistically independent of each other and of the parent stream.
///
/// ```
/// use qfc_mathkit::rng::split_seed;
/// assert_eq!(split_seed(7, 3), split_seed(7, 3));
/// assert_ne!(split_seed(7, 3), split_seed(7, 4));
/// assert_ne!(split_seed(7, 3), split_seed(8, 3));
/// ```
#[inline]
pub fn split_seed(seed: u64, shard_id: u64) -> u64 {
    let counter = seed
        .wrapping_add(shard_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    splitmix64_mix(splitmix64_mix(counter))
}

/// Draws a Bernoulli variate with success probability `p` (clamped to
/// `[0, 1]`).
#[inline]
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.gen::<f64>() < p
}

/// Draws a standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a normal variate with mean `mu` and standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `sigma < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "normal: sigma must be non-negative");
    mu + sigma * standard_normal(rng)
}

/// Draws an exponential variate with the given `rate` (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential: rate must be positive");
    // 1 − U avoids ln(0).
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

/// Draws a Poisson variate with mean `lambda`.
///
/// Uses Knuth's product method for small means and a clipped
/// normal approximation (with continuity correction) for `lambda > 30`,
/// which is accurate to well below the statistical noise of any experiment
/// in this workspace.
///
/// # Panics
///
/// Panics if `lambda < 0` or is not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson: lambda must be finite and non-negative"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        cast::f64_to_u64((x + 0.5).max(0.0))
    }
}

/// Draws a binomial variate `Bin(n, p)`.
///
/// Dispatches on the regime: direct Bernoulli summation for small `n`;
/// Poisson limit for huge `n` with a small mean (the photon-counting
/// regime — `n` frames with a tiny per-frame probability); normal
/// approximation with continuity correction otherwise.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let mean = cast::to_f64(n) * p;
    let var = mean * (1.0 - p);
    if n <= 1024 {
        cast::usize_to_u64((0..n).filter(|_| rng.gen::<f64>() < p).count())
    } else if p < 0.01 {
        // Poisson limit: exact to O(p) for small p regardless of n.
        poisson(rng, mean).min(n)
    } else if var >= 25.0 {
        let x = normal(rng, mean, var.sqrt());
        cast::f64_to_u64((x + 0.5).clamp(0.0, cast::to_f64(n)))
    } else {
        // Moderate n with p near 0 or 1 but var small: sample the minority
        // outcome via the Poisson limit on the cheaper side.
        if p <= 0.5 {
            poisson(rng, mean).min(n)
        } else {
            n - poisson(rng, cast::to_f64(n) * (1.0 - p)).min(n)
        }
    }
}

/// Samples an index from a discrete distribution given by non-negative
/// `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if all weights are zero or any is negative.
pub fn discrete<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights
        .iter()
        .inspect(|&&w| assert!(w >= 0.0, "discrete: negative weight"))
        .sum();
    assert!(total > 0.0, "discrete: all weights zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rng_from_seed(123);
        let mut b = rng_from_seed(123);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut rng = rng_from_seed(2);
        let n = 100_000;
        let lam = 3.7;
        let xs: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lam)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lam).abs() < 0.05, "mean {mean}");
        assert!((var - lam).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut rng = rng_from_seed(3);
        let n = 50_000;
        let lam = 250.0;
        let xs: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lam)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - lam).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero() {
        let mut rng = rng_from_seed(4);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = rng_from_seed(5);
        let n = 100_000;
        let rate = 4.0;
        let mean = (0..n)
            .map(|_| exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(6);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
    }

    #[test]
    fn binomial_moments_small_and_large() {
        let mut rng = rng_from_seed(7);
        let n_trials = 20_000;
        for &(n, p) in &[(50u64, 0.3), (10_000u64, 0.4)] {
            let mean = (0..n_trials)
                .map(|_| binomial(&mut rng, n, p))
                .sum::<u64>() as f64
                / n_trials as f64;
            let expect = n as f64 * p;
            assert!(
                (mean - expect).abs() / expect < 0.02,
                "mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = rng_from_seed(8);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
        assert!(!bernoulli(&mut rng, -0.3));
        assert!(bernoulli(&mut rng, 1.7));
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = rng_from_seed(10);
        let w = [1.0, 0.0, 3.0];
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[discrete(&mut rng, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 0.75).abs() < 0.01, "frac {frac2}");
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn discrete_rejects_zero_weights() {
        let mut rng = rng_from_seed(11);
        let _ = discrete(&mut rng, &[0.0, 0.0]);
    }

    #[test]
    fn split_seed_is_deterministic_and_collision_free() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            for shard in 0..64u64 {
                assert_eq!(split_seed(seed, shard), split_seed(seed, shard));
                assert!(
                    seen.insert(split_seed(seed, shard)),
                    "collision at seed {seed} shard {shard}"
                );
            }
        }
    }

    #[test]
    fn sibling_streams_pass_moment_checks() {
        // Each shard stream must itself look uniform: mean 1/2,
        // variance 1/12 for U(0,1).
        let n = 50_000;
        for shard in 0..8u64 {
            let mut rng = rng_from_seed(split_seed(42, shard));
            let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!((mean - 0.5).abs() < 0.01, "shard {shard} mean {mean}");
            assert!(
                (var - 1.0 / 12.0).abs() < 0.005,
                "shard {shard} var {var}"
            );
        }
    }

    #[test]
    fn sibling_streams_are_uncorrelated() {
        // Pearson correlation between adjacent-shard streams and between
        // each shard stream and the parent stream must be ~0.
        let n = 50_000;
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = rng_from_seed(seed);
            (0..n).map(|_| rng.gen::<f64>()).collect()
        };
        let correlation = |a: &[f64], b: &[f64]| -> f64 {
            let ma = a.iter().sum::<f64>() / a.len() as f64;
            let mb = b.iter().sum::<f64>() / b.len() as f64;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
            let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
            cov / (va * vb).sqrt()
        };
        let parent = draw(42);
        let shards: Vec<Vec<f64>> = (0..6).map(|s| draw(split_seed(42, s))).collect();
        // ~3 sigma for n = 50_000 independent samples is ~0.013; use a
        // comfortable 0.02 bound.
        for (s, stream) in shards.iter().enumerate() {
            let r = correlation(&parent, stream);
            assert!(r.abs() < 0.02, "parent vs shard {s}: r = {r}");
        }
        for pair in shards.windows(2) {
            let r = correlation(&pair[0], &pair[1]);
            assert!(r.abs() < 0.02, "adjacent shards: r = {r}");
        }
    }

    #[test]
    fn split_seed_differs_from_parent_stream() {
        // A shard stream must not alias the parent stream shifted by a
        // few draws (the classic `seed + shard` mistake).
        for shard in 0..4u64 {
            let mut parent = rng_from_seed(42);
            let mut child = rng_from_seed(split_seed(42, shard));
            let child_first = child.gen::<u64>();
            let aliased = (0..16).any(|_| parent.gen::<u64>() == child_first);
            assert!(!aliased, "shard {shard} aliases the parent stream");
        }
    }
}
