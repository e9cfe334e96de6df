//! # mtm-linalg
//!
//! Dense linear-algebra substrate for the `mtm` workspace.
//!
//! The Gaussian-Process regression in `mtm-gp` needs exactly the kernel of
//! numerical linear algebra that this crate provides, built from scratch on
//! `f64`:
//!
//! * [`Mat`] — a row-major dense matrix with the usual constructors and
//!   arithmetic,
//! * [`Cholesky`] — an SPD factorization with jitter escalation, triangular
//!   solves, log-determinant, inverse and the bordered `append` that
//!   grows the factor by one row,
//! * [`blas`] — matrix multiply / symmetric rank-k update / matrix-vector
//!   kernels,
//! * [`triangular`] — forward and backward substitution.
//!
//! Everything is deterministic and allocation-conscious: hot paths reuse
//! caller-provided buffers where it matters (see [`blas::gemv_into`]).
//!
//! ```
//! use mtm_linalg::{Mat, Cholesky};
//!
//! // Solve A x = b for SPD A.
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Cholesky::factor(&a).unwrap();
//! let x = chol.solve_vec(&[1.0, 2.0]);
//! let r0 = 4.0 * x[0] + 1.0 * x[1] - 1.0;
//! let r1 = 1.0 * x[0] + 3.0 * x[1] - 2.0;
//! assert!(r0.abs() < 1e-12 && r1.abs() < 1e-12);
//! ```

pub mod blas;
mod cholesky;
mod error;
mod matrix;
pub mod triangular;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Mat;

// Runtime invariant guards, available to callers when the
// `strict-invariants` feature is on.
#[cfg(feature = "strict-invariants")]
pub use mtm_check::invariants;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
