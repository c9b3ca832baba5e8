//! # qfc-interferometry
//!
//! Interferometric substrate of the `qfc` workspace: unbalanced Michelson
//! interferometers for writing (double-pulse pump preparation) and reading
//! (time-bin analysis) the time-bin qubits of §IV–V, plus the visibility
//! penalty of residual phase noise that determines how much fringe
//! visibility survives.
//!
//! ## Example
//!
//! ```
//! use qfc_interferometry::michelson::UnbalancedMichelson;
//! use qfc_quantum::state::PureState;
//!
//! let analyzer = UnbalancedMichelson::paper_instrument(0.0);
//! let p = analyzer.slot_probabilities(&PureState::plus());
//! assert!((p[1] - 0.5).abs() < 1e-12); // constructive middle slot
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod michelson;
pub mod stabilization;

pub use michelson::UnbalancedMichelson;
pub use stabilization::visibility_factor;
