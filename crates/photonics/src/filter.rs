//! Wavelength demultiplexing filters.
//!
//! The experiments route each comb channel to its own detector through a
//! 200-GHz DWDM demultiplexer. The filter model captures what matters for
//! the measured figures: in-band insertion loss (part of the collection
//! efficiency) and finite adjacent-channel isolation (the only physical
//! mechanism that could put counts on the off-diagonal of the §II
//! coincidence matrix).

use serde::{Deserialize, Serialize};

use crate::units::Frequency;

/// Passband shape of a DWDM channel filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PassbandShape {
    /// Gaussian passband (thin-film filters).
    Gaussian,
    /// Super-Gaussian of order 4 ("flat-top", AWG-class).
    FlatTop,
}

/// One channel of a DWDM demultiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelFilter {
    /// Passband center.
    pub center: Frequency,
    /// 3-dB full bandwidth.
    pub bandwidth: Frequency,
    /// In-band (peak) transmission, 0‥1.
    pub peak_transmission: f64,
    /// Passband shape.
    pub shape: PassbandShape,
}

impl ChannelFilter {
    /// A 200-GHz-grid telecom demux channel: 150-GHz flat-top passband,
    /// 0.8 peak transmission (≈1 dB insertion loss).
    pub fn telecom_200ghz(center: Frequency) -> Self {
        Self {
            center,
            bandwidth: Frequency::from_ghz(150.0),
            peak_transmission: 0.8,
            shape: PassbandShape::FlatTop,
        }
    }

    /// Power transmission at a frequency.
    pub fn transmission(&self, f: Frequency) -> f64 {
        let x = (f.hz() - self.center.hz()) / (0.5 * self.bandwidth.hz());
        let exponent = match self.shape {
            // T(x) = exp(−ln2 · x²ᵏ) with k = 1 (Gaussian) or 4 (flat-top),
            // giving T(±1) = ½ (the 3-dB points).
            PassbandShape::Gaussian => std::f64::consts::LN_2 * x * x,
            PassbandShape::FlatTop => std::f64::consts::LN_2 * x.powi(8),
        };
        self.peak_transmission * (-exponent).exp()
    }

    /// Isolation (in dB, positive) against a signal at frequency `f`:
    /// `−10·log10(T(f)/T_peak)`.
    pub fn isolation_db(&self, f: Frequency) -> f64 {
        let t = self.transmission(f) / self.peak_transmission;
        if t <= 0.0 {
            f64::INFINITY
        } else {
            -10.0 * t.log10()
        }
    }
}

/// A bank of channel filters forming the demultiplexer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Demultiplexer {
    channels: Vec<ChannelFilter>,
}

impl Demultiplexer {
    /// Builds a demux with one filter per listed center frequency.
    pub fn new(centers: &[Frequency]) -> Self {
        Self {
            channels: centers
                .iter()
                .map(|&c| ChannelFilter::telecom_200ghz(c))
                .collect(),
        }
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.channels.len()
    }

    /// The filter at output port `i`.
    pub fn filter(&self, i: usize) -> &ChannelFilter {
        &self.channels[i]
    }

    /// Worst adjacent-channel isolation across the bank, dB.
    pub fn worst_adjacent_isolation_db(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for i in 0..self.ports() {
            for j in 0..self.ports() {
                if i.abs_diff(j) == 1 {
                    worst = worst.min(self.channels[i].isolation_db(self.channels[j].center));
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Frequency> {
        (0..n)
            .map(|k| Frequency::from_thz(193.0) + Frequency::from_ghz(200.0 * k as f64))
            .collect()
    }

    #[test]
    fn peak_transmission_at_center() {
        let f = ChannelFilter::telecom_200ghz(Frequency::from_thz(193.1));
        assert!((f.transmission(f.center) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn three_db_points() {
        for shape in [PassbandShape::Gaussian, PassbandShape::FlatTop] {
            let f = ChannelFilter {
                center: Frequency::from_thz(193.1),
                bandwidth: Frequency::from_ghz(150.0),
                peak_transmission: 1.0,
                shape,
            };
            let edge = Frequency::from_hz(f.center.hz() + 75e9);
            assert!((f.transmission(edge) - 0.5).abs() < 1e-9, "{shape:?}");
        }
    }

    #[test]
    fn flat_top_flatter_in_band_steeper_out() {
        let center = Frequency::from_thz(193.1);
        let mk = |shape| ChannelFilter {
            center,
            bandwidth: Frequency::from_ghz(150.0),
            peak_transmission: 1.0,
            shape,
        };
        let gauss = mk(PassbandShape::Gaussian);
        let flat = mk(PassbandShape::FlatTop);
        let in_band = Frequency::from_hz(center.hz() + 40e9);
        let out_band = Frequency::from_hz(center.hz() + 200e9);
        assert!(flat.transmission(in_band) > gauss.transmission(in_band));
        assert!(flat.transmission(out_band) < gauss.transmission(out_band));
    }

    #[test]
    fn adjacent_channel_isolation_strong() {
        let demux = Demultiplexer::new(&grid(5));
        // Flat-top on a 200-GHz grid: adjacent leakage far below −25 dB.
        assert!(demux.worst_adjacent_isolation_db() > 25.0);
    }

    #[test]
    fn isolation_db_of_center_is_zero() {
        let f = ChannelFilter::telecom_200ghz(Frequency::from_thz(193.1));
        assert!(f.isolation_db(f.center).abs() < 1e-9);
        assert!(f.isolation_db(Frequency::from_thz(194.0)) > 40.0);
    }
}
