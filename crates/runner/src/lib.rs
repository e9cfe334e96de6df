//! # mtm-runner
//!
//! The workspace's journaled, resumable, fault-tolerant parallel
//! experiment execution engine. The §V protocol burns hours of
//! (simulated) cluster time on sequential two-minute trials; this crate
//! makes that execution durable, restartable infrastructure instead of an
//! all-or-nothing loop:
//!
//! * [`journal`] — append-only JSONL **trial journal**, one schema-versioned
//!   segment per experiment, flushed record-by-record so a crash loses at
//!   most the in-flight trial; headers fingerprint seed + budget + fault
//!   plan so stale segments are re-run, never silently served;
//! * [`engine`] — executes the protocol through `mtm_core`'s
//!   `propose`/`observe` interface, **replaying** journaled trials into a
//!   fresh strategy on resume (the surrogate is rebuilt, not stored),
//!   under a deterministic **fault plan** (injected failures, bounded
//!   retries);
//! * [`segment`] — a re-export of [`mtm_obs::segment`], the torn-tail
//!   JSONL log the journal is written as;
//! * [`grid`] — the Figs. 4–7 grid as 96 independent journaled cells
//!   (replaces the monolithic `grid_<scale>.json` cache);
//! * [`scale`] — the `paper`/`fast`/`smoke` budget scaling (moved here
//!   from `mtm-bench`; the bench crate re-exports it);
//! * the `mtm-runner` binary — `run | resume | status` with
//!   progress/ETA reporting (see the README quickstart).
//!
//! Determinism contract: results are bitwise-identical across serial,
//! parallel, and interrupted-then-resumed execution — excluding only the
//! `optimizer_time_s` wall-clock fields, which
//! [`engine::canonical_result_json`] zeroes for comparisons.

pub mod engine;
pub mod error;
pub mod fault;
pub mod grid;
pub mod hash;
pub mod journal;
pub mod progress;
pub mod scale;
pub use mtm_obs::segment;

pub use engine::{
    canonical_result_json, fingerprint, run_experiment_journaled, run_experiment_traced, Outcome,
    RunnerOptions, TrialStats,
};
pub use error::RunnerError;
pub use fault::FaultPlan;
pub use grid::{Cell, Grid, STRATEGIES};
pub use scale::Scale;

use std::path::PathBuf;

/// Directory all runner/harness outputs go to (`results/` under the
/// workspace root, or `$MTM_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MTM_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // This crate lives at <root>/crates/runner.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Default journal root: `<results dir>/journal`.
pub fn journal_root() -> PathBuf {
    results_dir().join("journal")
}
