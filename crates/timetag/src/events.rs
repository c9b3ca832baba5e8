//! Time-tagged photon detection events.
//!
//! All timestamps are integer **picoseconds**; at ±2⁶³ ps the range covers
//! ±106 days, comfortably beyond the paper's weeks-long stability run when
//! events are batched per-day. A simulated observation window is at most
//! [`MAX_DURATION_PS`] long.

use qfc_faults::{QfcError, QfcResult};
use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

/// Longest observation window a time-tag simulation accepts: 2^62 ps,
/// about 53 days. Its tags, timing jitter included (bounded by
/// [`SinglePhotonDetector::try_validate`](crate::detector::SinglePhotonDetector::try_validate)
/// to below 2^60 ps), lie in `(−2^61, 2^62 + 2^61)`, so every delay
/// `t_b − t_a` between two of them fits in i64.
pub const MAX_DURATION_PS: i64 = 1 << 62;

/// An integration time of `duration_s` seconds in whole picoseconds.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] unless it is at least 1 ps and at most
/// [`MAX_DURATION_PS`]; NaN and infinite durations included.
pub fn try_duration_ps(duration_s: f64) -> QfcResult<i64> {
    let ps = cast::f64_to_i64(duration_s * 1e12);
    if (1..=MAX_DURATION_PS).contains(&ps) {
        Ok(ps)
    } else {
        Err(QfcError::invalid(format!(
            "duration must be between 1 ps and {MAX_DURATION_PS} ps, got {duration_s} s"
        )))
    }
}

/// Most tags one arm may expect from any one source (pair photons, dark
/// counts, background, F2 pairs): 2^24, or 128 MiB of tags, twelve times
/// the largest paper arm (§III, about 1.4 M). It bounds every stream a
/// task allocates and the click generator's fixed-point spacing sums.
pub const MAX_TAGS_PER_ARM: u64 = 1 << 24;

/// Checks at plan time that a source is expected to put at most
/// [`MAX_TAGS_PER_ARM`] tags on an arm; `what` names the source.
///
/// # Errors
///
/// [`QfcError::InvalidParameter`] otherwise, NaN included.
pub fn try_tags_per_arm(what: &str, expected: f64) -> QfcResult<()> {
    if expected <= cast::to_f64(MAX_TAGS_PER_ARM) {
        Ok(())
    } else {
        Err(QfcError::invalid(format!(
            "{expected} {what} expected per arm; at most {MAX_TAGS_PER_ARM} are simulated"
        )))
    }
}

/// A time-ordered stream of timestamps for one channel.
///
/// # Examples
///
/// ```
/// use qfc_timetag::events::TagStream;
/// let s = TagStream::from_unsorted(vec![30, 10, 20]);
/// assert_eq!(s.as_slice(), &[10, 20, 30]);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TagStream {
    times_ps: Vec<i64>,
}

impl TagStream {
    /// Creates a stream from already-sorted timestamps.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the input is not sorted.
    pub fn from_sorted(times_ps: Vec<i64>) -> Self {
        debug_assert!(times_ps.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
        Self { times_ps }
    }

    /// Creates a stream from arbitrary timestamps, sorting them.
    pub fn from_unsorted(mut times_ps: Vec<i64>) -> Self {
        times_ps.sort_unstable();
        Self { times_ps }
    }

    /// The sorted timestamps.
    pub fn as_slice(&self) -> &[i64] {
        &self.times_ps
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.times_ps.len()
    }

    /// `true` when the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.times_ps.is_empty()
    }

    /// Mean count rate in Hz over an observation window of `duration_s`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s <= 0`.
    pub fn rate_hz(&self, duration_s: f64) -> f64 {
        assert!(duration_s > 0.0, "duration must be positive");
        cast::to_f64(self.times_ps.len()) / duration_s
    }
}

impl FromIterator<i64> for TagStream {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_sorting_and_len() {
        let s = TagStream::from_unsorted(vec![5, 1, 3]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(TagStream::default().is_empty());
    }

    #[test]
    fn durations_outside_the_clock_are_rejected() {
        assert_eq!(try_duration_ps(300.0).ok(), Some(300_000_000_000_000));
        for bad in [0.0, -1.0, 1e-13, 4.7e6, 1e300, f64::INFINITY, f64::NAN] {
            assert!(
                matches!(try_duration_ps(bad), Err(QfcError::InvalidParameter { .. })),
                "{bad} s"
            );
        }
    }

    #[test]
    fn tag_counts_past_the_bound_are_rejected() {
        let bound = cast::to_f64(MAX_TAGS_PER_ARM);
        assert!(try_tags_per_arm("dark counts", 0.0).is_ok());
        assert!(try_tags_per_arm("dark counts", bound).is_ok());
        for bad in [bound + 2.0, 1e290, f64::INFINITY, f64::NAN] {
            assert!(
                matches!(try_tags_per_arm("dark counts", bad), Err(QfcError::InvalidParameter { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn rate_calculation() {
        let s = TagStream::from_unsorted(vec![0; 100]);
        assert!((s.rate_hz(2.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn collect_from_iterator() {
        let s: TagStream = [3i64, 1, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 3]);
    }
}
