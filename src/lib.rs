//! # mtm — Machines Tuning Machines
//!
//! A from-scratch Rust reproduction of *Fischer, Gao, Bernstein:
//! "Machines Tuning Machines: Configuring Distributed Stream Processors
//! with Bayesian Optimization"* (IEEE CLUSTER 2015).
//!
//! This meta-crate re-exports the whole public API:
//!
//! * [`linalg`] / [`stats`] — numerical substrates,
//! * [`gp`] — Gaussian-Process regression,
//! * [`bayesopt`] — the Bayesian-Optimization toolkit (Spearmint's role),
//! * [`stormsim`] — the simulated Storm/Trident cluster (the paper's
//!   80-machine testbed),
//! * [`topogen`] — benchmark topology generation (GGen presets, Sundog),
//! * [`core`] — the auto-configuration strategies and the §V experiment
//!   protocol,
//! * [`obs`] — deterministic structured tracing (`Recorder`, JSONL
//!   traces, the `mtm-obs` CLI).
//!
//! See `examples/quickstart.rs` for a three-minute tour, and the
//! `mtm-bench` crate for the binaries that regenerate every table and
//! figure of the paper.
//!
//! ```
//! use mtm::prelude::*;
//!
//! // Tune a tiny synthetic topology with Bayesian Optimization.
//! let topo = mtm::topogen::make_condition(
//!     mtm::topogen::SizeClass::Small,
//!     &mtm::topogen::Condition { time_imbalance: 0.0, contention: 0.0 },
//!     1,
//! );
//! let objective = Objective::new(topo, ClusterSpec::paper_cluster()).with_window(20.0);
//! let mut bo = Strategy::bo(objective.topology(), ParamSet::Hints, 7);
//! let opts = RunOptions { max_steps: 6, confirm_reps: 2, ..Default::default() };
//! let pass = run_pass_traced(
//!     &mut bo,
//!     &objective,
//!     &opts,
//!     &mut DirectMeasure,
//!     &mut NullRecorder,
//! );
//! assert!(pass.best_throughput > 0.0);
//! ```

pub mod spec;

pub use mtm_bayesopt as bayesopt;
pub use mtm_core as core;
pub use mtm_gp as gp;
pub use mtm_linalg as linalg;
pub use mtm_obs as obs;
pub use mtm_stats as stats;
pub use mtm_stormsim as stormsim;
pub use mtm_topogen as topogen;

// The error chain, at the root for callers that route failures upward
// (LinalgError → GpError → BoError, lifted by `From` at each level).
pub use mtm_bayesopt::error::BoError;
pub use mtm_gp::GpError;
pub use mtm_linalg::LinalgError;

/// The commonly-used types in one import.
pub mod prelude {
    pub use mtm_core::prelude::*;
    pub use mtm_core::{ExperimentResult, PassResult, StepRecord};
}
