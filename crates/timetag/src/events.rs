//! Time-tagged photon detection events.
//!
//! All timestamps are integer **picoseconds**; at ±2⁶³ ps the range covers
//! ±106 days, comfortably beyond the paper's weeks-long stability run when
//! events are batched per-day.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

/// Identifier of a detector/TDC input channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId(pub u16);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A single detection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeTag {
    /// Timestamp, ps.
    pub time_ps: i64,
    /// Channel the event arrived on.
    pub channel: ChannelId,
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
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// Merges another stream into this one, keeping order.
    pub fn merge(&mut self, other: &TagStream) {
        self.times_ps.extend_from_slice(&other.times_ps);
        self.times_ps.sort_unstable();
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
        assert!(TagStream::new().is_empty());
    }

    #[test]
    fn stream_merge_keeps_order() {
        let mut a = TagStream::from_unsorted(vec![1, 5]);
        let b = TagStream::from_unsorted(vec![2, 4]);
        a.merge(&b);
        assert_eq!(a.as_slice(), &[1, 2, 4, 5]);
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

    #[test]
    fn channel_display() {
        assert_eq!(ChannelId(4).to_string(), "ch4");
    }
}
