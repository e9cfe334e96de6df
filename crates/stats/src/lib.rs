//! # mtm-stats
//!
//! Statistics substrate for the `mtm` workspace, implemented from scratch:
//!
//! * [`describe`] — descriptive statistics (mean, variance, min/max, sem),
//! * [`corr`] — Pearson/Spearman correlation and MAD,
//! * [`special`] — special functions (ln-gamma, erf, regularized incomplete
//!   beta) backing the distribution code,
//! * [`dist`] — normal and Student-t distribution functions,
//! * [`ttest`] — Welch's two-sided t-test, used to reproduce the paper's
//!   significance claims (Fig. 8, p = 0.05),
//! * [`loess`] — LOESS local regression with tricube weights (span 0.75 is
//!   what Fig. 6 of the paper uses),
//! * [`linreg`] — ordinary least squares on small designs,
//! * [`quantile`] — quantiles and medians,
//! * [`pool`] — the workspace's one thread pool: order-preserving
//!   fan-out under a process-wide core budget.
//!
//! ```
//! use mtm_stats::{welch_t_test, Summary};
//!
//! let a = [5.1, 4.9, 5.0, 5.2, 4.8];
//! let b = [6.1, 5.9, 6.0, 6.2, 5.8];
//! let t = welch_t_test(&a, &b).unwrap();
//! assert!(t.p_value < 0.01); // clearly different means
//! assert!((Summary::of(&a).mean - 5.0).abs() < 1e-12);
//! ```

pub mod corr;
pub mod describe;
pub mod dist;
pub mod linreg;
pub mod loess;
pub mod pool;
pub mod quantile;
pub mod special;
pub mod ttest;

pub use describe::Summary;
pub use loess::Loess;
pub use ttest::{welch_t_test, TTestResult};
