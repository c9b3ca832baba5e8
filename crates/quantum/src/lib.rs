//! # qfc-quantum
//!
//! Quantum-state substrate of the `qfc` workspace: pure states and density
//! matrices of qubit registers, Pauli algebra, Bell states, entanglement
//! measures (concurrence, entropy), the CHSH inequality,
//! two-mode squeezed vacuum photon statistics, and the time-bin /
//! four-photon encodings of the paper's §IV–V experiments.
//!
//! ## Example
//!
//! ```
//! use qfc_quantum::bell::werner_state;
//! use qfc_quantum::chsh::{s_value, ChshSettings, CLASSICAL_BOUND};
//!
//! // The paper's 83 % raw visibility violates CHSH.
//! let rho = werner_state(0.83, 0.0);
//! let s = s_value(&rho, &ChshSettings::optimal_for_phi_plus());
//! assert!(s > CLASSICAL_BOUND);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bell;
pub mod chsh;
pub mod density;
pub mod fidelity;
pub mod fock;
pub mod multiphoton;
pub mod ops;
pub mod qudit;
pub mod state;
pub mod timebin;

pub use density::DensityMatrix;
pub use fock::TwoModeSqueezedVacuum;
pub use state::PureState;
