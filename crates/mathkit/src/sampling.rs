//! Precomputed categorical sampling tables for shot-based Monte Carlo.
//!
//! The per-shot hot loops of the workspace draw millions of categorical
//! variates from a *fixed* weight vector (detection outcomes, Bell-basis
//! projections, dark/jitter mixtures). [`rng::discrete`](crate::rng::discrete)
//! re-walks the weight vector on every draw — O(n) subtractions plus a
//! full validation sweep per shot. The tables here move all of that work
//! to construction time, once per experiment:
//!
//! * [`DiscreteSampler`] — a threshold ladder that is **bit-identical**
//!   to `rng::discrete` for every possible uniform draw: it consumes one
//!   `rng.gen::<f64>()` and returns exactly the index the sequential
//!   subtraction loop would have returned, so converted kernels keep the
//!   workspace's byte-identity contract. Draws are O(log n).
//! * [`AliasTable`] — a Walker/Vose alias table with O(1) draws. Its
//!   uniform-to-index map differs from `discrete` (it is statistically,
//!   not bitwise, equivalent), so it is for *new* code paths that carry
//!   no byte-identity obligation.

use crate::cast;
use rand::Rng;

/// Evaluates the running remainder of `rng::discrete`'s subtraction loop
/// after outcomes `0..=j`: `((u − w₀) − w₁) … − w_j`, in the exact
/// floating-point order the sequential loop uses.
#[inline]
fn remainder_after(weights: &[f64], u: f64) -> f64 {
    let mut acc = u;
    for &w in weights {
        acc -= w;
    }
    acc
}

/// Half-width, in units in the last place, of the first bracket
/// [`DiscreteSampler::new`] searches for a threshold.
const BRACKET_ULPS: u64 = 64;

/// Bit patterns `(lo, hi)` that bracket the threshold of `prefix`:
/// `±BRACKET_ULPS` around its forward sum `sum`, which rounds differently
/// from the subtraction loop but lands within a few ulps of the
/// threshold. `None` unless the remainder at `lo` is `≤ 0` and at `hi`
/// is `> 0`; the caller then searches the whole range.
fn bracket(prefix: &[f64], sum: f64) -> Option<(u64, u64)> {
    let inf = f64::INFINITY.to_bits();
    let center = if sum > 0.0 { sum.to_bits() } else { 0 };
    let lo = center.saturating_sub(BRACKET_ULPS);
    let hi = center.saturating_add(BRACKET_ULPS).min(inf);
    let brackets = remainder_after(prefix, f64::from_bits(lo)) <= 0.0
        && remainder_after(prefix, f64::from_bits(hi)) > 0.0;
    brackets.then_some((lo, hi))
}

/// A precomputed categorical sampler that reproduces
/// [`rng::discrete`](crate::rng::discrete) bit for bit.
///
/// `discrete(rng, w)` draws `u = rng.gen::<f64>() * total` and returns
/// the first index `j` whose running remainder `((u − w₀) − … − w_j)`
/// is `≤ 0` (falling through to the last index). Each remainder is a
/// monotone non-decreasing function of `u`, so outcome `j` is selected
/// exactly when `u ≤ t_j`, where `t_j` is the largest float with a
/// non-positive remainder. The constructor finds every `t_j` by binary
/// search over the (order-preserving) bit patterns of non-negative
/// floats, first within a few ulps of the prefix sum and over the whole
/// range only when that bracket misses; a draw is then one uniform plus
/// a `partition_point` over the
/// ascending ladder — identical output, O(log n) instead of O(n), and
/// no re-validation per shot.
///
/// ```
/// use qfc_mathkit::rng::{discrete, rng_from_seed};
/// use qfc_mathkit::sampling::DiscreteSampler;
///
/// let w = [0.2, 0.0, 1.3, 0.5];
/// let table = DiscreteSampler::new(&w);
/// let mut a = rng_from_seed(9);
/// let mut b = rng_from_seed(9);
/// for _ in 0..1000 {
///     assert_eq!(table.sample(&mut a), discrete(&mut b, &w));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSampler {
    /// `thresholds[j]` = largest `u` for which the remainder after
    /// outcome `j` is `≤ 0`; ascending, one entry per non-final outcome.
    thresholds: Vec<f64>,
    /// The weight total, summed in `discrete`'s exact order.
    total: f64,
    /// Number of outcomes (`weights.len()`).
    outcomes: usize,
}

impl DiscreteSampler {
    /// Builds the table. Uses no RNG, so constructing it inside or
    /// outside a sharded kernel cannot perturb any random stream.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative — the same
    /// contract (and messages) as [`rng::discrete`](crate::rng::discrete).
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w >= 0.0, "discrete: negative weight"))
            .sum();
        assert!(total > 0.0, "discrete: all weights zero");
        // The final outcome needs no threshold: it is the fall-through.
        let mut thresholds = Vec::with_capacity(weights.len().saturating_sub(1));
        let mut sum = 0.0;
        for j in 0..weights.len().saturating_sub(1) {
            let prefix = &weights[..=j];
            sum += weights[j];
            // Remainders are monotone in u, non-positive at u = 0 and
            // positive at u = ∞ (∞ − finite = ∞), so the non-negative
            // float bit patterns [0, ∞) are split in two; find the last
            // pattern on the non-positive side. Any bracket whose ends
            // lie on either side holds that pattern, so searching it
            // finds the same threshold as searching the whole range.
            let (mut lo, mut hi) = bracket(prefix, sum).unwrap_or((0, f64::INFINITY.to_bits()));
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if remainder_after(prefix, f64::from_bits(mid)) <= 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            thresholds.push(f64::from_bits(lo));
        }
        Self {
            thresholds,
            total,
            outcomes: weights.len(),
        }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.outcomes
    }

    /// `true` when there are no outcomes (unreachable via [`Self::new`],
    /// which rejects empty/all-zero weights).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.outcomes == 0
    }

    /// The weight total, summed in the same order as `discrete`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws one outcome, consuming exactly one `rng.gen::<f64>()` —
    /// the same single draw `discrete` makes.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_with_uniform(rng.gen::<f64>())
    }

    /// Maps an already-drawn uniform `u01 ∈ [0, 1)` to its outcome.
    #[inline]
    pub fn sample_with_uniform(&self, u01: f64) -> usize {
        let u = u01 * self.total;
        // u ≤ t_j  ⟺  remainder_j(u) ≤ 0  ⟺  discrete returns ≤ j;
        // past every threshold is the fall-through outcome. That final
        // outcome often carries the bulk of the mass (e.g. "no
        // coincidence" in the time-bin kernel), so answer it with one
        // predictable comparison before paying for the binary search —
        // `partition_point` would return `thresholds.len()` there anyway.
        match self.thresholds.last() {
            Some(&t_last) if t_last < u => self.outcomes - 1,
            _ => self.thresholds.partition_point(|&t| t < u),
        }
    }
}

/// A Walker/Vose alias table: O(1) categorical draws.
///
/// Statistically equivalent to [`rng::discrete`](crate::rng::discrete)
/// but **not** bitwise-compatible — it maps uniforms to outcomes through
/// a different partition of `[0, 1)`. Use it for new sampling paths; use
/// [`DiscreteSampler`] where the byte-identity contract applies.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Acceptance probability of each column's own index.
    prob: Vec<f64>,
    /// Fallback index of each column.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table with Vose's stack construction.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w >= 0.0, "alias: negative weight"))
            .sum();
        assert!(total > 0.0, "alias: all weights zero");
        let n = weights.len();
        let mut scaled: Vec<f64> = weights
            .iter()
            .map(|&w| w * cast::to_f64(n) / total)
            .collect();
        let mut prob = vec![0.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers on either stack have weight ≈ 1.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when there are no outcomes (unreachable via [`Self::new`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome from a single uniform: the integer part picks
    /// the column, the fractional part accepts it or takes its alias.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.gen::<f64>() * cast::to_f64(self.prob.len());
        let i = cast::f64_to_usize(x).min(self.prob.len() - 1);
        if x - cast::to_f64(i) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{discrete, rng_from_seed};
    use proptest::prelude::*;
    use rand::Rng;

    /// Reference: discrete's subtraction loop applied to a known uniform.
    fn discrete_with_uniform(weights: &[f64], u01: f64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = u01 * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    #[test]
    fn matches_discrete_on_shared_stream() {
        let cases: &[&[f64]] = &[
            &[1.0],
            &[0.5, 0.5],
            &[1.0, 0.0, 3.0],
            &[0.0, 2.0],
            &[1e-12, 1.0, 1e-12, 0.25],
            &[0.3; 10],
        ];
        for &w in cases {
            let table = DiscreteSampler::new(w);
            let mut a = rng_from_seed(42);
            let mut b = rng_from_seed(42);
            for _ in 0..20_000 {
                assert_eq!(table.sample(&mut a), discrete(&mut b, w), "weights {w:?}");
            }
        }
    }

    #[test]
    fn matches_discrete_at_exact_thresholds() {
        let w = [0.25, 0.5, 0.125, 0.125];
        let table = DiscreteSampler::new(&w);
        // Probe each threshold, its neighbours, and the extremes.
        let mut probes = vec![0.0, f64::MIN_POSITIVE, 0.5, 1.0 - f64::EPSILON];
        for j in 0..w.len() - 1 {
            let t = table.thresholds[j] / table.total();
            for u in [
                t,
                f64::from_bits(t.to_bits().saturating_sub(1)),
                f64::from_bits(t.to_bits() + 1),
            ] {
                probes.push(u.clamp(0.0, 1.0 - f64::EPSILON));
            }
        }
        for u in probes {
            assert_eq!(
                table.sample_with_uniform(u),
                discrete_with_uniform(&w, u),
                "u = {u:e}"
            );
        }
    }

    /// Reference: the threshold search over the whole range `[0, ∞]`.
    fn full_range_thresholds(weights: &[f64]) -> Vec<u64> {
        (0..weights.len().saturating_sub(1))
            .map(|j| {
                let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if remainder_after(&weights[..=j], f64::from_bits(mid)) <= 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            })
            .collect()
    }

    fn threshold_bits(weights: &[f64]) -> Vec<u64> {
        let table = DiscreteSampler::new(weights);
        table.thresholds.iter().map(|t| t.to_bits()).collect()
    }

    #[test]
    fn bracketed_thresholds_match_the_full_range_search() {
        // 250 weights of 0.4 ulp after a 1: the forward sum stays at 1,
        // while the subtraction loop removes all of them exactly, so the
        // last threshold lies 100 ulps above the sum.
        let mut drift = vec![1.0];
        drift.extend([0.4 * f64::EPSILON; 250]);
        let hard: [&[f64]; 6] = [
            &[0.0, 0.0, 1.0, 0.0, 2.0, 0.0],
            &[5e-324, 1e-310, 0.0, 3e-320, 2.2e-308, 1.0],
            &[1e300, 1e-300, 1e-300, 1e300, 1e-300, 0.5],
            &[1e-300, 1e300, 1e-300, 1e-300],
            &[f64::MAX, 0.0, 1.0],
            &drift,
        ];
        for w in hard {
            assert_eq!(threshold_bits(w), full_range_thresholds(w), "weights {w:?}");
        }
        let sum: f64 = drift.iter().fold(0.0, |acc, &w| acc + w);
        assert_eq!(sum, 1.0);
        assert_eq!(bracket(&drift, sum), None, "the drift case falls back");
        // Random weights spanning 30 decades, zeros included.
        let mut rng = rng_from_seed(5);
        for _ in 0..200 {
            let n = 2 + (38.0 * rng.gen::<f64>()) as usize;
            let w: Vec<f64> = (0..n)
                .map(|_| {
                    let (zero, decade, mantissa) =
                        (rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>());
                    if zero < 0.25 {
                        0.0
                    } else {
                        10f64.powf(30.0 * decade - 15.0) * mantissa
                    }
                })
                .collect();
            if w.iter().sum::<f64>() > 0.0 {
                assert_eq!(threshold_bits(&w), full_range_thresholds(&w), "weights {w:?}");
            }
        }
    }

    #[test]
    fn thresholds_are_ascending() {
        let table = DiscreteSampler::new(&[0.1, 0.0, 0.4, 0.0, 0.5]);
        assert!(table.thresholds.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(table.len(), 5);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn rejects_zero_weights_like_discrete() {
        let _ = DiscreteSampler::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "negative weight")]
    fn rejects_negative_weights_like_discrete() {
        let _ = DiscreteSampler::new(&[0.5, -0.1]);
    }

    #[test]
    fn alias_table_respects_weights() {
        let w = [1.0, 0.0, 3.0, 4.0];
        let table = AliasTable::new(&w);
        let mut rng = rng_from_seed(7);
        let n = 400_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        for (i, &c) in counts.iter().enumerate() {
            let expect = w[i] / 8.0;
            let got = c as f64 / n as f64;
            assert!((got - expect).abs() < 0.005, "outcome {i}: {got} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn alias_rejects_zero_weights() {
        let _ = AliasTable::new(&[0.0]);
    }

    proptest! {
        /// The ladder agrees with the subtraction loop for arbitrary
        /// weight vectors and arbitrary uniforms — including u values
        /// engineered to land on bin edges.
        #[test]
        fn sampler_equals_discrete_everywhere(
            weights in prop::collection::vec(0.0f64..1e3, 1..12),
            u01 in 0.0f64..1.0,
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = DiscreteSampler::new(&weights);
            prop_assert_eq!(
                table.sample_with_uniform(u01),
                discrete_with_uniform(&weights, u01)
            );
        }

        /// Alias-table frequencies converge to the normalized weights
        /// (statistical correctness, not bitwise equivalence).
        #[test]
        fn alias_frequencies_match_weights(
            weights in prop::collection::vec(0.0f64..10.0, 2..6),
            seed in 0u64..1000,
        ) {
            let total: f64 = weights.iter().sum();
            prop_assume!(total > 1e-6);
            let table = AliasTable::new(&weights);
            let mut rng = rng_from_seed(seed);
            let n = 60_000usize;
            let mut counts = vec![0u64; weights.len()];
            for _ in 0..n {
                counts[table.sample(&mut rng)] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                let p = weights[i] / total;
                let got = c as f64 / n as f64;
                // 5σ binomial tolerance (plus an absolute floor).
                let tol = 5.0 * (p * (1.0 - p) / n as f64).sqrt() + 2e-3;
                prop_assert!((got - p).abs() < tol, "outcome {}: {} vs {}", i, got, p);
            }
        }
    }
}
