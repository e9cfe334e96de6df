//! # mtm-bayesopt
//!
//! A from-scratch Bayesian Optimization toolkit, modeled on what the paper
//! used Spearmint for:
//!
//! * [`space`] — typed parameter spaces (integer, float, log-float,
//!   categorical) with a lossless round-trip to the unit hypercube the GP
//!   operates on,
//! * [`design`] — Latin-hypercube and random initial designs,
//! * [`acquisition`] — Expected Improvement (the paper's choice),
//!   Probability of Improvement and GP-UCB,
//! * [`optimizer`] — the propose/observe loop: maintain a persistent GP
//!   surrogate over the observations (incremental `O(n²)` factor updates,
//!   scheduled hyperparameter refits), maximize the acquisition over
//!   candidates with chunked batch scoring and a coordinate-descent
//!   polish, optionally marginalizing the acquisition over slice-sampled
//!   hyperparameters exactly as Spearmint does,
//! * [`error`] — the [`BoError`] end of the `LinalgError → GpError →
//!   BoError` chain; proposal and observation failures are values, not
//!   panics,
//! * [`tpe`], [`hyperband`], [`random_search`] — the strategy zoo:
//!   Tree-structured Parzen Estimator, successive-halving/Hyperband over
//!   measurement budget, and the random-search calibration floor, all
//!   sharing the same deterministic propose/observe contract,
//! * [`proposer`] — [`Proposer`], the one enum callers drive all four
//!   optimizers through.
//!
//! Pause/resume, the Spearmint feature the authors singled out as
//! important for their cluster setup, is not this crate's job: the
//! `mtm-runner` journal resumes every strategy by re-proposing the
//! journaled history through `propose`/`observe`, so each optimizer only
//! keeps the contract that its proposals depend on nothing but its seed
//! and that history.
//!
//! ```
//! use mtm_bayesopt::{BayesOpt, BoConfig, space::{ParamSpace, Param}};
//!
//! // Maximize a toy 1-D function over an integer parameter.
//! let space = ParamSpace::new(vec![Param::int("x", 0, 20)]);
//! let config = BoConfig::builder().seed(7).build().expect("valid config");
//! let mut bo = BayesOpt::new(space, config);
//! for _ in 0..15 {
//!     let cand = bo.propose().expect("propose");
//!     let x = cand.values[0].as_int() as f64;
//!     let y = -(x - 13.0) * (x - 13.0); // peak at 13
//!     bo.observe(cand, y).expect("finite objective");
//! }
//! let best = bo.best().unwrap();
//! assert!((best.values[0].as_int() - 13).abs() <= 2);
//! ```

pub mod acquisition;
pub mod design;
pub mod error;
pub mod hyperband;
pub mod optimizer;
pub mod proposer;
pub mod random_search;
pub mod space;
pub mod tpe;

pub use acquisition::Acquisition;
pub use error::BoError;
pub use hyperband::{Hyperband, HyperbandConfig};
pub use optimizer::{
    score_batch, BayesOpt, BoConfig, BoConfigBuilder, Candidate, KernelChoice, Observation,
};
pub use proposer::Proposer;
pub use random_search::RandomSearch;
pub use space::{Param, ParamSpace, Value};
pub use tpe::{Tpe, TpeConfig};

// Runtime invariant guards, available to callers when the
// `strict-invariants` feature is on.
#[cfg(feature = "strict-invariants")]
pub use mtm_check::invariants;
