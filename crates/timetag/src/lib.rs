//! # qfc-timetag
//!
//! Detection substrate of the `qfc` workspace: single-photon detector
//! models (efficiency, dark counts, jitter, dead time), a time-to-digital
//! converter, time-tag streams, and the coincidence analyses (windowed
//! counting, CAR, cross-correlation histograms, linewidth extraction) that
//! produce the paper's §II–III observables.
//!
//! ## Example
//!
//! ```
//! use qfc_timetag::events::TagStream;
//! use qfc_timetag::coincidence::count_coincidences;
//!
//! let a = TagStream::from_unsorted(vec![100, 200]);
//! let b = TagStream::from_unsorted(vec![103, 250]);
//! assert_eq!(count_coincidences(&a, &b, 10, 0), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coincidence;
pub mod detector;
pub mod events;
pub mod tdc;

pub use coincidence::{measure_car, CarResult};
pub use detector::SinglePhotonDetector;
pub use events::{ChannelId, TagStream, TimeTag};
pub use tdc::Tdc;
