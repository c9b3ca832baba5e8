//! Frequency-comb channel bookkeeping on the 200-GHz telecom grid.
//!
//! The quantum comb emits photon pairs on ring resonances placed
//! symmetrically around the pump; each signal/idler pair of modes
//! `(+m, −m)` forms one multiplexed channel pair. The comb covers the full
//! S, C and L telecommunication bands, with channels aligned to standard
//! 200-GHz ITU spacing — the paper's headline compatibility claim.

use qfc_mathkit::cast;
use serde::{Deserialize, Serialize};

use crate::ring::Microring;
use crate::units::{Frequency, Wavelength};
use crate::waveguide::Polarization;

/// Telecommunication wavelength bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TelecomBand {
    /// Short band, 1460–1530 nm.
    S,
    /// Conventional band, 1530–1565 nm.
    C,
    /// Long band, 1565–1625 nm.
    L,
    /// Outside S/C/L.
    Other,
}

impl TelecomBand {
    /// Classifies a vacuum wavelength.
    pub fn classify(lambda: Wavelength) -> Self {
        let nm = lambda.nm();
        if (1460.0..1530.0).contains(&nm) {
            Self::S
        } else if (1530.0..1565.0).contains(&nm) {
            Self::C
        } else if (1565.0..1625.0).contains(&nm) {
            Self::L
        } else {
            Self::Other
        }
    }
}

impl std::fmt::Display for TelecomBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::S => write!(f, "S"),
            Self::C => write!(f, "C"),
            Self::L => write!(f, "L"),
            Self::Other => write!(f, "-"),
        }
    }
}

/// One comb channel: a ring resonance at mode index `m ≠ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CombChannel {
    /// Mode index relative to the pump resonance (`> 0` = signal side).
    pub index: i32,
    /// Center frequency.
    pub frequency: Frequency,
    /// Telecom band the channel falls in.
    pub band: TelecomBand,
}

/// A signal/idler channel pair `(+m, −m)`, symmetric about the pump.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelPair {
    /// Absolute mode index `m ≥ 1`.
    pub m: u32,
    /// Signal channel (`+m`, higher frequency).
    pub signal: CombChannel,
    /// Idler channel (`−m`, lower frequency).
    pub idler: CombChannel,
}

/// The comb of channel pairs emitted by a ring for a given polarization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombGrid {
    pump: Frequency,
    pairs: Vec<ChannelPair>,
}

impl CombGrid {
    /// Builds the channel-pair grid for modes `1..=max_m` around the
    /// pump resonance (`m = 0`) of the given polarization family.
    pub fn from_ring(ring: &Microring, pol: Polarization, max_m: u32) -> Self {
        let pump = ring.resonance(pol, 0);
        let pairs = (1..=max_m)
            .map(|m| {
                let fs = ring.resonance(pol, cast::u32_to_i32(m));
                let fi = ring.resonance(pol, -cast::u32_to_i32(m));
                ChannelPair {
                    m,
                    signal: CombChannel {
                        index: cast::u32_to_i32(m),
                        frequency: fs,
                        band: TelecomBand::classify(fs.wavelength()),
                    },
                    idler: CombChannel {
                        index: -cast::u32_to_i32(m),
                        frequency: fi,
                        band: TelecomBand::classify(fi.wavelength()),
                    },
                }
            })
            .collect();
        Self { pump, pairs }
    }

    /// The pump frequency (mode `m = 0`).
    pub fn pump(&self) -> Frequency {
        self.pump
    }

    /// All channel pairs, ascending in `m`.
    pub fn pairs(&self) -> &[ChannelPair] {
        &self.pairs
    }

    /// Channel pair with absolute index `m`, if within the grid.
    pub fn pair(&self, m: u32) -> Option<&ChannelPair> {
        self.pairs.get(cast::u32_to_usize(m.checked_sub(1)?))
    }

    /// Number of channel pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the grid holds no channel pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Set of distinct telecom bands covered by the comb (signal + idler).
    pub fn bands_covered(&self) -> Vec<TelecomBand> {
        let mut bands = Vec::new();
        for p in &self.pairs {
            for b in [p.signal.band, p.idler.band] {
                if !bands.contains(&b) {
                    bands.push(b);
                }
            }
        }
        bands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Microring;

    #[test]
    fn band_classification() {
        assert_eq!(TelecomBand::classify(Wavelength::from_nm(1500.0)), TelecomBand::S);
        assert_eq!(TelecomBand::classify(Wavelength::from_nm(1550.0)), TelecomBand::C);
        assert_eq!(TelecomBand::classify(Wavelength::from_nm(1600.0)), TelecomBand::L);
        assert_eq!(TelecomBand::classify(Wavelength::from_nm(1300.0)), TelecomBand::Other);
    }

    #[test]
    fn grid_is_symmetric_about_pump() {
        let ring = Microring::paper_device();
        let grid = CombGrid::from_ring(&ring, Polarization::Te, 5);
        assert_eq!(grid.len(), 5);
        for p in grid.pairs() {
            // Signal above pump, idler below.
            assert!(p.signal.frequency > grid.pump());
            assert!(p.idler.frequency < grid.pump());
        }
    }

    #[test]
    fn wide_comb_covers_s_c_l() {
        let ring = Microring::paper_device();
        // ±40 modes × 200 GHz = ±8 THz ≈ 1490–1615 nm.
        let grid = CombGrid::from_ring(&ring, Polarization::Te, 40);
        let bands = grid.bands_covered();
        assert!(bands.contains(&TelecomBand::S), "bands {bands:?}");
        assert!(bands.contains(&TelecomBand::C));
        assert!(bands.contains(&TelecomBand::L));
    }

    #[test]
    fn pair_lookup() {
        let ring = Microring::paper_device();
        let grid = CombGrid::from_ring(&ring, Polarization::Te, 5);
        assert_eq!(grid.pair(3).expect("exists").m, 3);
        assert!(grid.pair(0).is_none());
        assert!(grid.pair(6).is_none());
    }

    #[test]
    fn channel_spacing_is_fsr() {
        let ring = Microring::paper_device();
        let grid = CombGrid::from_ring(&ring, Polarization::Te, 3);
        let p1 = grid.pair(1).expect("pair");
        let spacing = p1.signal.frequency - grid.pump();
        assert!((spacing.ghz() - ring.fsr(Polarization::Te).ghz()).abs() < 0.01);
    }
}
