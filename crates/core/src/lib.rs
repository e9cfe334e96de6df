//! # mtm-core
//!
//! The paper's contribution: **auto-configuration of a distributed stream
//! processor with Bayesian Optimization**, plus the baselines it is
//! evaluated against.
//!
//! * [`paramsets`] — the tuned parameter surfaces: `h` (parallelism
//!   hints + max-tasks), `h bs bp` (hints + batch size + batch
//!   parallelism) and `bs bp cc` (batch + concurrency parameters with
//!   hints pinned), mirroring §V-D,
//! * [`weights`] — the informed base-parallelism weights of §V-A: spouts
//!   weigh 1, every bolt the sum of its parents,
//! * [`strategy`] — the four optimizers of Fig. 4: `pla` (parallel linear
//!   ascent), `ipla` (informed pla), `bo` (Bayesian Optimization over the
//!   full hint vector) and `ibo` (BO over a single informed multiplier),
//!   plus the zoo (`tpe`, `hyperband`, `random`); [`Strategy::by_name`]
//!   is the one label table,
//! * [`objective`] — the measurement loop: configure → run two simulated
//!   minutes on the cluster model → read noisy throughput,
//! * [`experiment`] — the §V pass loop: 60 (or 180) optimization steps,
//!   early stop for the linear strategies after three consecutive zero
//!   runs. `mtm-runner`'s engine runs the whole protocol on top of it:
//!   two passes keeping the better, then 30 confirmation runs of the
//!   best configuration,
//! * [`report`] — tabular/CSV rendering of results.
//!
//! ```
//! use mtm_core::prelude::*;
//!
//! // Tune a small synthetic topology with BO for a few steps.
//! let topo = mtm_topogen::make_condition(
//!     mtm_topogen::SizeClass::Small,
//!     &mtm_topogen::Condition { time_imbalance: 0.0, contention: 0.0 },
//!     1,
//! );
//! let objective = Objective::new(topo, ClusterSpec::paper_cluster())
//!     .with_window(20.0);
//! let mut strategy = Strategy::bo(objective.topology(), ParamSet::Hints, 42);
//! let opts = RunOptions { max_steps: 8, confirm_reps: 3, ..Default::default() };
//! let pass = run_pass_traced(
//!     &mut strategy,
//!     &objective,
//!     &opts,
//!     &mut DirectMeasure,
//!     &mut mtm_obs::NullRecorder,
//! );
//! assert!(pass.best_throughput > 0.0);
//! ```

pub mod experiment;
pub mod objective;
pub mod paramsets;
pub mod report;
pub mod strategy;
pub mod weights;

pub use experiment::{
    confirm_run_id, pass_seed, run_pass_traced, select_best_pass, step_run_id, DirectMeasure,
    ExperimentResult, Measure, PassResult, RunOptions, StepRecord, TrialCtx, TrialKind,
};
pub use objective::Objective;
pub use paramsets::ParamSet;
pub use strategy::Strategy;
pub use weights::base_parallelism_weights;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiment::{run_pass_traced, DirectMeasure, RunOptions};
    pub use crate::objective::Objective;
    pub use crate::paramsets::ParamSet;
    pub use crate::strategy::Strategy;
    pub use crate::weights::base_parallelism_weights;
    pub use mtm_obs::NullRecorder;
    pub use mtm_stormsim::{ClusterSpec, StormConfig};
}
