//! # mtm-gp
//!
//! Gaussian-Process regression from scratch, sized for Bayesian
//! Optimization: tens to a few hundred observations, up to a couple of
//! hundred input dimensions (the paper's large topology tunes >100
//! parallelism hints at once).
//!
//! * [`kernel`] — covariance functions with ARD lengthscales
//!   (squared-exponential and Matérn 5/2, the Spearmint default) and
//!   analytic gradients with respect to log-hyperparameters,
//! * [`gp`] — exact inference via Cholesky factorization: posterior
//!   mean/variance, log marginal likelihood and its gradient,
//! * [`hyper`] — type-II maximum likelihood hyperparameter fitting with a
//!   multi-restart Adam optimizer in log space,
//! * [`mod@slice`] — univariate slice sampling over hyperparameters, for the
//!   marginalized acquisition Spearmint uses,
//! * [`priors`] — log-normal and uniform priors on log-hyperparameters.
//!
//! [`GpRegression`] is the one surrogate the BO loop holds: it absorbs an
//! observation with an `O(n²)` bordered Cholesky append and refactors in
//! `O(n³)` only when its hyperparameters change. Its reference is a fresh
//! [`GpRegression::fit`] over the same data, which the tests compare the
//! appended model against.
//!
//! ```
//! use mtm_gp::{GpRegression, kernel::Matern52Ard};
//!
//! // Fit y = sin(x) on a few points and interpolate.
//! let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0 * 3.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
//! let kernel = Matern52Ard::new(1, 1.0, 1.0);
//! let mut gp = GpRegression::fit(kernel, xs, ys, 1e-6).unwrap();
//! gp.optimize_hyperparameters(&Default::default());
//! let p = gp.predict(&[1.5]);
//! assert!((p.mean - 1.5_f64.sin()).abs() < 0.05);
//! assert!(p.var >= 0.0);
//! ```

#![deny(clippy::missing_panics_doc)]

pub mod gp;
pub mod hyper;
pub mod kernel;
pub mod priors;
pub mod slice;

pub use gp::{GpError, GpRegression, Prediction};
pub use hyper::FitOptions;
pub use kernel::{Kernel, Matern52Ard, SquaredExpArd};

// Runtime invariant guards, available to callers when the
// `strict-invariants` feature is on.
#[cfg(feature = "strict-invariants")]
pub use mtm_check::invariants;
