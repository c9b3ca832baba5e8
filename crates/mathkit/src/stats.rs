//! Descriptive statistics and histograms used by the analysis pipelines.

use crate::cast;
use serde::{Deserialize, Serialize};

/// Arithmetic mean of a sample. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / cast::to_f64(xs.len())
}

/// Sample standard deviation (divides by `n − 1`).
///
/// Returns `NaN` when fewer than two samples are given.
pub fn sample_std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / cast::to_f64(xs.len() - 1)).sqrt()
}

/// Relative fluctuation: peak-to-peak range divided by the mean.
///
/// The paper's §II stability claim ("less than 5 % fluctuation over weeks")
/// is stated in exactly this measure, which is only meaningful for a
/// strictly positive mean (count rates). A zero, negative, or non-finite
/// mean returns `NaN` — previously it produced `±inf` or a *negative*
/// "fluctuation" that could spuriously satisfy an at-most bound.
pub fn relative_fluctuation(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    if !m.is_finite() || m <= 0.0 {
        return f64::NAN;
    }
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min) / m
}

/// Minimum of a sample (`NaN` if empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NAN, f64::min)
}

/// Maximum of a sample (`NaN` if empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NAN, f64::max)
}

/// Linear interpolation percentile (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the slice is empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile q out of range");
    assert!(!xs.is_empty(), "percentile of empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * cast::to_f64(v.len() - 1);
    let lo = cast::f64_to_usize(pos.floor());
    let hi = cast::f64_to_usize(pos.ceil());
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - cast::to_f64(lo);
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// A uniform-bin histogram over `[lo, hi)`.
///
/// # Examples
///
/// ```
/// use qfc_mathkit::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.add(1.0);
/// h.add(9.5);
/// h.add(100.0); // out of range → overflow bucket
/// assert_eq!(h.count(0), 1);
/// assert_eq!(h.count(4), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Reassembles a histogram from externally accumulated bin counts —
    /// the merge step of sharded parallel filling, where each shard bins
    /// into a local `Vec<u64>` with the same arithmetic as
    /// [`add_weighted`](Self::add_weighted).
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `counts` is empty.
    pub fn from_parts(lo: f64, hi: f64, counts: Vec<u64>, underflow: u64, overflow: u64) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(!counts.is_empty(), "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts,
            underflow,
            overflow,
        }
    }

    /// Adds every count of `other` (same `lo`/`hi`/bin layout) into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different ranges or bin counts.
    pub fn absorb(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "histogram layouts differ"
        );
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of a single bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / cast::to_f64(self.counts.len())
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1);
    }

    /// Adds `w` identical samples.
    pub fn add_weighted(&mut self, x: f64, w: u64) {
        if x < self.lo {
            self.underflow += w;
        } else if x >= self.hi {
            self.overflow += w;
        } else {
            let idx = cast::f64_to_usize((x - self.lo) / self.bin_width());
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += w;
        }
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (cast::to_f64(i) + 0.5) * self.bin_width()
    }

    /// Samples below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Index and count of the fullest bin (`None` when all bins are empty).
    pub fn peak(&self) -> Option<(usize, u64)> {
        let (i, &c) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if c == 0 {
            None
        } else {
            Some((i, c))
        }
    }

    /// Full width at half maximum in x-units, by linear interpolation of the
    /// bin profile around the peak.
    ///
    /// Returns `None` when all bins are empty **or when either half-max
    /// crossing lies outside the histogram range** — the profile is then
    /// truncated and any width would be a confidently wrong lower bound
    /// (this feeds the §II Δν = 110 MHz linewidth comparison).
    /// [`fwhm_estimate`](Self::fwhm_estimate) exposes the clamped width
    /// for callers that can tolerate it.
    pub fn fwhm(&self) -> Option<f64> {
        let est = self.fwhm_estimate()?;
        if est.left_clamped || est.right_clamped {
            None
        } else {
            Some(est.width)
        }
    }

    /// Like [`fwhm`](Self::fwhm), but always returns the interpolated
    /// width when a peak exists, with explicit flags marking whether
    /// either crossing had to be clamped to the histogram edge (i.e. the
    /// true width is wider than the range can show).
    pub fn fwhm_estimate(&self) -> Option<FwhmEstimate> {
        let (peak_idx, peak) = self.peak()?;
        let half = cast::to_f64(peak) / 2.0;
        // Walk left.
        let mut left = self.bin_center(0);
        let mut left_clamped = true;
        for i in (0..peak_idx).rev() {
            if (cast::to_f64(self.counts[i])) < half {
                let c0 = cast::to_f64(self.counts[i]);
                let c1 = cast::to_f64(self.counts[i + 1]);
                let frac = if c1 > c0 { (half - c0) / (c1 - c0) } else { 0.5 };
                left = self.bin_center(i) + frac * self.bin_width();
                left_clamped = false;
                break;
            }
        }
        // Walk right.
        let mut right = self.bin_center(self.bins() - 1);
        let mut right_clamped = true;
        for i in peak_idx + 1..self.bins() {
            if (cast::to_f64(self.counts[i])) < half {
                let c0 = cast::to_f64(self.counts[i - 1]);
                let c1 = cast::to_f64(self.counts[i]);
                let frac = if c0 > c1 { (c0 - half) / (c0 - c1) } else { 0.5 };
                right = self.bin_center(i - 1) + frac * self.bin_width();
                right_clamped = false;
                break;
            }
        }
        Some(FwhmEstimate {
            width: right - left,
            left_clamped,
            right_clamped,
        })
    }
}

/// Result of [`Histogram::fwhm_estimate`]: an interpolated width plus
/// flags recording whether either half-max crossing fell outside the
/// histogram range and was clamped to the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FwhmEstimate {
    /// Interpolated full width at half maximum (clamped to the range
    /// when a crossing is missing — see the flags).
    pub width: f64,
    /// The left crossing was not found inside the range.
    pub left_clamped: bool,
    /// The right crossing was not found inside the range.
    pub right_clamped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_sample_std_dev_known() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((sample_std_dev(&xs) - (5.0f64 / 3.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn empty_sample_statistics() {
        assert!(mean(&[]).is_nan());
        assert!(sample_std_dev(&[1.0]).is_nan());
        assert!(relative_fluctuation(&[]).is_nan());
    }

    #[test]
    fn relative_fluctuation_known() {
        let xs = [95.0, 100.0, 105.0];
        assert!((relative_fluctuation(&xs) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        assert!((percentile(&xs, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.count(i), 1);
        }
        assert_eq!(h.total(), 10);
        assert_eq!(h.bin_width(), 1.0);
        assert_eq!(h.bin_center(0), 0.5);
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-0.1);
        h.add(1.0); // boundary belongs to overflow ([lo, hi))
        h.add(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn histogram_peak_and_fwhm_triangle() {
        // Triangular profile peaking in the middle.
        let mut h = Histogram::new(0.0, 9.0, 9);
        let profile = [1u64, 2, 4, 8, 16, 8, 4, 2, 1];
        for (i, &c) in profile.iter().enumerate() {
            h.add_weighted(i as f64 + 0.5, c);
        }
        let (idx, peak) = h.peak().expect("nonempty");
        assert_eq!(idx, 4);
        assert_eq!(peak, 16);
        let fwhm = h.fwhm().expect("peak exists");
        assert!(fwhm > 1.0 && fwhm < 4.0, "fwhm {fwhm}");
    }

    #[test]
    fn relative_fluctuation_guards_nonpositive_mean() {
        // Regression: a negative mean used to yield a *negative*
        // fluctuation (range / mean < 0), which spuriously satisfies any
        // at-most bound; a zero mean yielded ±inf.
        assert!(relative_fluctuation(&[-1.0, -2.0, -3.0]).is_nan());
        assert!(relative_fluctuation(&[-1.0, 1.0]).is_nan());
        assert!(relative_fluctuation(&[0.0, 0.0]).is_nan());
        assert!(relative_fluctuation(&[f64::INFINITY, 1.0]).is_nan());
        // Positive-mean samples are unaffected.
        assert!((relative_fluctuation(&[95.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fwhm_returns_none_when_crossing_outside_range() {
        // Regression: a profile whose half-max crossing lies outside the
        // histogram used to silently clamp to the range edges and report
        // the full range as the width.
        let mut h = Histogram::new(0.0, 5.0, 5);
        // Monotone decreasing from an edge peak; right side never drops
        // below half (16/2 = 8), left side has no bins at all.
        for (i, &c) in [16u64, 12, 10, 9, 8].iter().enumerate() {
            h.add_weighted(i as f64 + 0.5, c);
        }
        assert_eq!(h.fwhm(), None);
        let est = h.fwhm_estimate().expect("peak exists");
        assert!(est.left_clamped && est.right_clamped);

        // One-sided truncation is also flagged.
        let mut h = Histogram::new(0.0, 5.0, 5);
        for (i, &c) in [16u64, 12, 7, 2, 1].iter().enumerate() {
            h.add_weighted(i as f64 + 0.5, c);
        }
        assert_eq!(h.fwhm(), None);
        let est = h.fwhm_estimate().expect("peak exists");
        assert!(est.left_clamped && !est.right_clamped);
    }

    #[test]
    fn fwhm_estimate_matches_fwhm_when_contained() {
        let mut h = Histogram::new(0.0, 9.0, 9);
        for (i, &c) in [1u64, 2, 4, 8, 16, 8, 4, 2, 1].iter().enumerate() {
            h.add_weighted(i as f64 + 0.5, c);
        }
        let est = h.fwhm_estimate().expect("peak exists");
        assert!(!est.left_clamped && !est.right_clamped);
        assert_eq!(h.fwhm(), Some(est.width));
    }

    #[test]
    fn histogram_empty_peak() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.peak().is_none());
        assert!(h.fwhm().is_none());
    }

    #[test]
    #[should_panic(expected = "range must be non-empty")]
    fn histogram_invalid_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
