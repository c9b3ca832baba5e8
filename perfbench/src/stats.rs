//! The benchmark's own arithmetic: medians, the tail-percentile rule and
//! per-run seed derivation.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail reading: the `percentile`-th nearest-rank value of `n`
/// samples, with `beyond` samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: usize,
    pub n: usize,
    pub beyond: usize,
}

/// The highest whole percentile with at least [`TAIL_BEYOND`] samples
/// beyond it. With nearest rank `r = ceil(q·n/100)`, `n − r ≥ 10` holds
/// exactly when `q ≤ 100·(n − 10)/n`, so `q` is that bound rounded down.
/// `None` for fewer than `TAIL_BEYOND + 1` samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let percentile = 100 * (n - TAIL_BEYOND) / n;
    let rank = (percentile * n).div_ceil(100).max(1);
    Some(Tail {
        value: v[rank - 1],
        percentile,
        n,
        beyond: n - rank,
    })
}

/// SplitMix64 finaliser: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed streams derived from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// One fresh seed per timed (or traced) run, by run index.
    Run = 1,
    /// The check seed: set-up warm-ups and the correctness gate.
    Check = 2,
}

/// Derives the `index`-th seed of `stream` from the workload seed. The
/// program sees only these derived seeds, never the workload seed.
pub fn derive_seed(workload_seed: u64, stream: Stream, index: u64) -> u64 {
    mix(mix(workload_seed ^ mix(stream as u64)).wrapping_add(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the rule has to sort.
        (1..=n).rev().map(|k| k as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).expect("11 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        for (n, p, value) in [
            (20, 50, 10.0),
            (55, 81, 45.0),
            (100, 90, 90.0),
            (1000, 99, 990.0),
        ] {
            let t = tail(&ramp(n)).expect("enough samples");
            assert_eq!((t.n, t.percentile, t.value), (n, p, value), "n = {n}");
            assert!(t.beyond >= TAIL_BEYOND, "n = {n}");
        }
        // Maximality: one percentile higher leaves fewer than ten beyond.
        for n in 11..400 {
            let t = tail(&ramp(n)).expect("enough samples");
            assert!(t.beyond >= TAIL_BEYOND);
            let next_rank = ((t.percentile + 1) * n).div_ceil(100);
            assert!(n - next_rank < TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn seed_derivation_is_deterministic_and_distinct() {
        assert_eq!(
            derive_seed(7, Stream::Run, 3),
            derive_seed(7, Stream::Run, 3)
        );
        // Pinned (and checked against an independent implementation): a
        // change here silently changes every benchmark input.
        assert_eq!(derive_seed(0, Stream::Run, 0), 0xB18A_02F4_6D8D_86C3);
        assert_eq!(derive_seed(1, Stream::Check, 0), 10_428_484_394_136_884_971);
        let mut seen: Vec<u64> = (0..1000).map(|i| derive_seed(42, Stream::Run, i)).collect();
        seen.push(derive_seed(42, Stream::Check, 0));
        seen.push(derive_seed(43, Stream::Run, 0));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1002);
    }
}
