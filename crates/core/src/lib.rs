//! # qfc-core
//!
//! The paper's primary contribution as a library: the integrated quantum
//! frequency comb source ([`source::QfcSource`]) and the four virtual
//! experiments of Reimer *et al.* (DATE 2017):
//!
//! * [`heralded`] — §II multiplexed heralded single photons (F1/T1/F2/F3)
//! * [`crosspol`] — §III cross-polarized pairs & OPO (F4/F5/F6)
//! * [`timebin`] — §IV multiplexed time-bin entanglement (F7/T2)
//! * [`multiphoton`] — §V four-photon states & tomography (T3/F8/T4)
//! * [`purity`] — §II spectral purity & quantum-memory compatibility
//!
//! plus typed paper-vs-measured reporting in [`report`] and the
//! fault-injection / graceful-degradation layer: every driver has a
//! `try_run_*` form taking a [`qfc_faults::FaultSchedule`], returning a
//! [`qfc_faults::HealthReport`] alongside its physics report, with
//! recovery policies (pump re-lock, channel quarantine, estimator
//! fallback) in [`supervisor`].
//!
//! ## Example
//!
//! ```
//! use qfc_core::source::QfcSource;
//! use qfc_core::timebin::{channel_state_model, TimeBinConfig};
//!
//! let source = QfcSource::paper_device_timebin();
//! let model = channel_state_model(&source, &TimeBinConfig::paper(), 1);
//! // The visibility budget lands near the paper's 83 % operating point.
//! assert!(model.state_visibility > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod crosspol;
pub mod experiment;
pub mod heralded;
pub mod multiphoton;
pub mod purity;
pub mod report;
pub mod source;
pub mod supervisor;
pub mod timebin;

pub use qfc_faults::{
    FaultEvent, FaultKind, FaultSchedule, HealthReport, QfcError, QfcResult,
};
pub use report::{Comparison, Expectation, ExperimentReport};
pub use source::{EmissionRegime, QfcSource};
pub use supervisor::SupervisorPolicy;
