//! Wall-clock record for the incremental surrogate hot path.
//!
//! Measures a single [`BayesOpt::propose`] at growing observation
//! histories (15/60/180 points, 10 integer parameters) in two regimes:
//!
//! * **incremental** — the persistent surrogate absorbs each observation
//!   with an `O(n²)` bordered Cholesky update and only refits
//!   hyperparameters on the `refit_every` schedule (the production
//!   default), and
//! * **full refit** — [`BayesOpt::invalidate_surrogate`] before every
//!   proposal, forcing the legacy fit-from-scratch plus hyperparameter
//!   optimization that the pre-incremental optimizer paid per step.
//!
//! Writes the machine-readable `BENCH_gp.json` at the repo root (the
//! README's bench table is generated from it), prints it to stdout, and
//! exits non-zero when the history-180 speedup falls below
//! [`MIN_SPEEDUP_AT_180`].
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_gp
//! ```

use std::process::ExitCode;

use mtm_bayesopt::BayesOpt;
use mtm_bench::perf::gp::{GpRecord, HistoryCell, MIN_SPEEDUP_AT_180};
use mtm_bench::perf::{self, primed_optimizer, PRIMED_DIM};
use mtm_stats::quantile::median;

/// Timed repetitions per cell; the medians go into the record.
const REPS: usize = 7;

fn time_proposals(bo: &BayesOpt, invalidate_each: bool) -> Result<f64, String> {
    let mut times = Vec::with_capacity(REPS);
    // One untimed warm-up (page-in, code paths compiled hot).
    let mut warm = bo.clone();
    warm.propose()
        .map_err(|e| format!("warm-up propose: {e}"))?;
    drop(warm);
    for _ in 0..REPS {
        // Clone the primed state each rep: its surrogate has absorbed
        // n−1 observations, so the timed propose pays the real per-step
        // cost — one O(n²) absorb, the target refresh, and the scoring.
        let mut run = bo.clone();
        if invalidate_each {
            run.invalidate_surrogate();
        }
        let t0 = std::time::Instant::now();
        let c = run.propose().map_err(|e| format!("timed propose: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    Ok(median(&times).unwrap_or(f64::NAN))
}

fn run() -> Result<(), String> {
    let cfg = primed_optimizer(0)?.config().clone();
    let mut cells = Vec::new();
    for &history in &[15usize, 60, 180] {
        eprintln!("[bench_gp] priming optimizer to {history} observations");
        let bo = primed_optimizer(history)?;
        let incremental_propose_s = time_proposals(&bo, false)?;
        let full_refit_propose_s = time_proposals(&bo, true)?;
        let speedup = full_refit_propose_s / incremental_propose_s.max(1e-12);
        eprintln!(
            "[bench_gp] history {history}: incremental {incremental_propose_s:.6}s, \
             full refit {full_refit_propose_s:.6}s, speedup {speedup:.1}x"
        );
        cells.push(HistoryCell {
            history,
            incremental_propose_s,
            full_refit_propose_s,
            speedup,
        });
    }
    let record = GpRecord {
        bench: "gp",
        dim: PRIMED_DIM,
        n_init: cfg.n_init,
        refit_every: cfg.refit_every,
        n_candidates: cfg.n_candidates,
        reps: REPS,
        min_speedup_at_180: MIN_SPEEDUP_AT_180,
        cells,
    };
    perf::write_record("gp", &record)?;
    record.gate()
}

fn main() -> ExitCode {
    perf::run_main("gp", run)
}
