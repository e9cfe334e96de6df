//! The shared synthetic-experiment grid behind Figs. 4–7.
//!
//! Execution moved into `mtm-runner`: every `(size, condition, strategy)`
//! cell is an independent journaled experiment with its own segment under
//! `results/journal/grid_<scale>/`, resumable after a crash and fanned
//! across a bounded thread pool. The old monolithic `grid_<scale>.json`
//! cache — which was keyed only by scale label and silently served stale
//! results when the seed or schema changed — is gone; segment headers
//! fingerprint seed + schema + budget and invalidate on mismatch.
//!
//! This module keeps the harness-facing surface (`Grid`, `Cell`,
//! [`STRATEGIES`], [`run`], [`run_or_load`]) stable for the figure
//! generators and integration tests.

pub use mtm_runner::grid::{Cell, Grid, STRATEGIES};

use mtm_runner::engine::RunnerOptions;
use mtm_runner::pool;

use crate::Scale;

/// Runner options for harness-driven grid runs: thread count from
/// `MTM_THREADS` (default: all cores), reference semantics otherwise.
fn harness_options() -> RunnerOptions {
    let threads = std::env::var("MTM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(pool::default_threads);
    RunnerOptions {
        threads,
        ..RunnerOptions::serial()
    }
}

/// Run the full grid at `scale` in memory (no journal) — used by tests
/// that want a throwaway grid.
pub fn run(scale: Scale) -> Grid {
    mtm_runner::grid::run(scale, &harness_options())
}

/// Run the grid, loading completed cells from their journal segments and
/// executing (or resuming) the rest.
pub fn run_or_load(scale: Scale) -> Grid {
    mtm_runner::grid::run_or_load(scale, &harness_options(), &mtm_runner::journal_root())
}
