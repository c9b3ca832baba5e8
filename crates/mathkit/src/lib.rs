//! # qfc-mathkit
//!
//! Numerical substrate for the `qfc` workspace: complex arithmetic, dense
//! complex linear algebra, a Hermitian eigensolver with matrix functions,
//! random-variate generation, descriptive statistics, and the least-squares
//! fits used to extract physical observables from simulated data.
//!
//! Everything is implemented from scratch on top of `std` (plus the `rand`
//! core RNG), keeping the workspace inside its approved dependency set.
//!
//! ## Example
//!
//! ```
//! use qfc_mathkit::cmatrix::CMatrix;
//! use qfc_mathkit::hermitian::eigh;
//!
//! // Diagonalize a Pauli-X-like coupling matrix.
//! let h = CMatrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let eig = eigh(&h);
//! assert!((eig.eigenvalues[0] + 1.0).abs() < 1e-10);
//! assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cast;
pub mod cmatrix;
pub mod complex;
pub mod cvector;
pub mod fit;
pub mod hermitian;
pub mod rng;
pub mod sampling;
pub mod special;
pub mod stats;

pub use cmatrix::CMatrix;
pub use complex::Complex64;
pub use cvector::CVector;
