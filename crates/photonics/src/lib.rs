//! # qfc-photonics
//!
//! Photonic substrate of the `qfc` workspace: the Hydex material platform,
//! dispersion-engineered waveguide, high-Q add-drop microring, spontaneous
//! four-wave mixing engine, optical parametric oscillation, telecom comb
//! grid, joint spectral amplitudes, and the pump configurations that select
//! which family of quantum states the comb emits.
//!
//! ## Example
//!
//! ```
//! use qfc_photonics::ring::Microring;
//! use qfc_photonics::fwm;
//! use qfc_photonics::units::Power;
//! use qfc_photonics::waveguide::Polarization;
//!
//! let ring = Microring::paper_device();
//! // Generated pair flux on the first comb channel at the paper's 15 mW.
//! let rate = fwm::pair_rate_cw(&ring, Polarization::Te, Power::from_mw(15.0), 1);
//! assert!(rate > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod comb;
pub mod constants;
pub mod filter;
pub mod fwm;
pub mod jones;
pub mod jsa;
pub mod material;
pub mod memory;
pub mod opo;
pub mod pump;
pub mod ring;
pub mod spectrum;
pub mod sweep;
pub mod units;
pub mod waveguide;

pub use comb::CombGrid;
pub use material::Material;
pub use pump::PumpConfig;
pub use ring::{Microring, MicroringBuilder};
pub use sweep::{BatchBuffers, SweepGrid};
pub use units::{Frequency, Power, Wavelength};
pub use waveguide::{Polarization, Waveguide};
