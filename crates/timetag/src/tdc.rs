//! Time-to-digital converter: quantizes detector clicks onto a discrete
//! time base and merges channels into one tagged record — the instrument
//! between the detectors and the coincidence analysis.

use serde::{Deserialize, Serialize};

use crate::events::{ChannelId, TagStream, TimeTag};

/// A multi-channel time-to-digital converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tdc {
    /// Quantization step (bin resolution), ps.
    pub resolution_ps: i64,
}

impl Tdc {
    /// Creates a TDC with the given resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_ps <= 0`.
    pub fn new(resolution_ps: i64) -> Self {
        assert!(resolution_ps > 0, "resolution must be positive");
        Self { resolution_ps }
    }

    /// The 81-ps-class commercial TDC used in the experiments.
    pub fn paper_instrument() -> Self {
        Self::new(81)
    }

    /// Quantizes one stream onto the TDC time base (round to nearest).
    pub fn quantize(&self, stream: &TagStream) -> TagStream {
        let r = self.resolution_ps;
        stream
            .as_slice()
            .iter()
            .map(|&t| (t + r / 2).div_euclid(r) * r)
            .collect()
    }

    /// Merges per-channel streams into a single time-ordered record of
    /// tagged events, quantizing each timestamp.
    pub fn record(&self, channels: &[(ChannelId, &TagStream)]) -> Vec<TimeTag> {
        let mut tags: Vec<TimeTag> = Vec::new();
        for (id, stream) in channels {
            let q = self.quantize(stream);
            tags.extend(q.as_slice().iter().map(|&t| TimeTag {
                time_ps: t,
                channel: *id,
            }));
        }
        tags.sort_by_key(|t| (t.time_ps, t.channel));
        tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_rounds_to_grid() {
        let tdc = Tdc::new(100);
        let s = TagStream::from_unsorted(vec![49, 51, 149, 250]);
        let q = tdc.quantize(&s);
        assert_eq!(q.as_slice(), &[0, 100, 100, 300]);
    }

    #[test]
    fn record_merges_and_orders() {
        let tdc = Tdc::new(1);
        let a = TagStream::from_unsorted(vec![10, 30]);
        let b = TagStream::from_unsorted(vec![20]);
        let rec = tdc.record(&[(ChannelId(0), &a), (ChannelId(1), &b)]);
        let times: Vec<i64> = rec.iter().map(|t| t.time_ps).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(rec[1].channel, ChannelId(1));
    }

    #[test]
    fn paper_instrument_resolution() {
        assert_eq!(Tdc::paper_instrument().resolution_ps, 81);
    }

    #[test]
    fn negative_times_quantize_correctly() {
        let tdc = Tdc::new(100);
        let s = TagStream::from_unsorted(vec![-151, -49]);
        let q = tdc.quantize(&s);
        assert_eq!(q.as_slice(), &[-200, 0]);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        let _ = Tdc::new(0);
    }
}
