//! # qfc-tomography
//!
//! Quantum state tomography substrate of the `qfc` workspace: Pauli-basis
//! measurement settings (realized for time-bin qubits by arrival time and
//! analyzer phases), simulated projective counts, linear-inversion
//! reconstruction, and the iterative RρR maximum-likelihood algorithm used
//! for the paper's §V fidelity numbers.
//!
//! ## Example
//!
//! ```
//! use qfc_tomography::settings::all_settings;
//! use qfc_tomography::counts::exact_counts;
//! use qfc_tomography::reconstruct::try_linear_reconstruction;
//! use qfc_quantum::bell::bell_phi_plus;
//! use qfc_quantum::density::DensityMatrix;
//! use qfc_quantum::fidelity::state_fidelity;
//!
//! let truth = DensityMatrix::from_pure(&bell_phi_plus());
//! let data = exact_counts(&truth, &all_settings(2), 1_000_000);
//! let rec = try_linear_reconstruction(&data)?;
//! assert!(state_fidelity(&rec, &truth) > 0.999);
//! # Ok::<(), qfc_faults::QfcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod counts;
mod factored;
pub mod rank1;
pub mod reconstruct;
pub mod settings;
pub mod stream;

pub use counts::{exact_counts, simulate_counts, TomographyData};
pub use rank1::{
    deterministic_bases, exact_counts_repr, synthetic_low_rank_state, try_mle_repr,
    ProjectorReprSet,
};
pub use reconstruct::{
    try_linear_reconstruction, try_mle_reconstruction, MleOptions, MleResult,
};
pub use settings::{all_settings, PauliBasis, Setting};
pub use stream::{try_stream_counts_seeded, CountAccumulator};
