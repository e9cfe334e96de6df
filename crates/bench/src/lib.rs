//! # mtm-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the paper's evaluation section on the simulated cluster:
//!
//! | `run_all` name | paper artifact |
//! |---|---|
//! | `table1` | Table I — the configuration parameter surface |
//! | `table2` | Table II — generated topology statistics |
//! | `table3` | Table III — operator counts in the literature |
//! | `fig3` | Fig. 3 — per-worker network load |
//! | `fig4` | Fig. 4 — strategy throughput grid |
//! | `fig5` | Fig. 5 — steps to best configuration |
//! | `fig6` | Fig. 6 — LOESS-smoothed BO trajectories |
//! | `fig7` | Fig. 7 — optimizer step wall-time |
//! | `fig8` | Fig. 8 — Sundog throughput & convergence |
//!
//! `run_all [NAME…]` emits the named artifacts through
//! [`figures::emit`], all nine in order when no name is given. The
//! `ablations` binary runs the design-choice ablations (averaging,
//! acquisition, kernel, marginalization, contention exponent).
//!
//! The `bench_*` binaries write the gated `BENCH_*.json` perf records;
//! their shared plumbing and their gates live in [`perf`].
//!
//! `run_all` and `ablations` read the `MTM_SCALE` environment variable:
//! `paper` (default — the paper's budgets: 60/180 steps, 2 passes, 30
//! confirmation runs), `fast` (reduced budgets for a laptop-minute run)
//! or `smoke` (seconds; used by the integration tests). Results print as
//! aligned tables and are also written as CSV under `results/`.
//!
//! The synthetic grid (Figs. 4–7 share it) is expensive, so it runs
//! through `mtm_runner::grid` on all cores: each cell is journaled under
//! `results/journal/grid_<scale>/`, completed cells load instantly and
//! interrupted ones resume. `cargo run -p mtm-runner -- run --threads N`
//! fills the same journal with a bounded pool; `status` inspects it, and
//! deleting the segment directory forces a re-run.

pub mod ablations;
pub mod figures;
pub mod perf;

pub use mtm_runner::Scale;

use mtm_core::{ExperimentResult, Objective, RunOptions, Strategy};
use mtm_runner::{run_experiment_journaled, RunnerError, RunnerOptions};

/// Run the §V protocol for `make`'s strategy in memory: the runner engine
/// with no journal, serially.
pub fn run_in_memory(
    exp_id: &str,
    make: &(dyn Fn(u64) -> Strategy + Sync),
    objective: &Objective,
    opts: &RunOptions,
) -> Result<ExperimentResult, RunnerError> {
    let ropts = RunnerOptions::serial();
    run_experiment_journaled(exp_id, make, objective, opts, &ropts, None, false)
        .map(|outcome| outcome.result)
}
