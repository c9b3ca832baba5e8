//! # qfc — Generation of Complex Quantum States via Integrated Frequency Combs
//!
//! Facade crate re-exporting the full `qfc` workspace: a physics-faithful
//! Rust reproduction of Reimer *et al.*, "Generation of Complex Quantum
//! States via Integrated Frequency Combs" (DATE 2017).
//!
//! The workspace simulates the complete experimental stack — Hydex microring
//! quantum frequency comb, spontaneous four-wave mixing, single-photon
//! detection and time tagging, unbalanced interferometry, and quantum state
//! tomography — and regenerates every quantitative claim of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use qfc::core::source::QfcSource;
//! use qfc::core::heralded::{try_run_heralded_experiment, HeraldedConfig};
//! use qfc::faults::FaultSchedule;
//!
//! // The paper's device with its §II pump configuration, scaled down for a
//! // fast doctest, and no injected faults.
//! let source = QfcSource::paper_device();
//! let mut cfg = HeraldedConfig::paper();
//! cfg.duration_s = 10.0;
//! let run = try_run_heralded_experiment(&source, &cfg, 42, &FaultSchedule::empty())?;
//! assert!(run.health.is_pristine());
//! assert!(run.report.mean_car() > 1.0);
//! # Ok::<(), qfc::faults::QfcError>(())
//! ```

#![forbid(unsafe_code)]

pub use qfc_campaign as campaign;
pub use qfc_core as core;
pub use qfc_faults as faults;
pub use qfc_interferometry as interferometry;
pub use qfc_mathkit as mathkit;
pub use qfc_obs as obs;
pub use qfc_photonics as photonics;
pub use qfc_quantum as quantum;
pub use qfc_runtime as runtime;
pub use qfc_timetag as timetag;
pub use qfc_tomography as tomography;
