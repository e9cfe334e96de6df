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
//! It also times one hyperparameter fit of the history-60 and the
//! history-180 surrogate in two arms each: with every core claimed
//! through [`pool::claim`], so the fit's restarts run inline, and with
//! nothing claimed, so they spread over the spare cores. Both arms must
//! leave the same bits. History 60 is as far as the paper protocol's
//! fits go; 180 is the stress point.
//!
//! Writes the machine-readable `BENCH_gp.json` at the repo root (the
//! README's bench table is generated from it), prints it to stdout, and
//! exits non-zero when the history-180 speedup falls below
//! [`MIN_SPEEDUP_AT_180`] or the two arms of either fit disagree in any
//! bit.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_gp
//! ```

use std::process::ExitCode;
use std::sync::{mpsc, Barrier};

use mtm_bayesopt::BayesOpt;
use mtm_bench::perf::gp::{GpRecord, HistoryCell, RefitCell, MIN_SPEEDUP_AT_180};
use mtm_bench::perf::{self, primed_optimizer, PRIMED_DIM};
use mtm_gp::kernel::Matern52Ard;
use mtm_gp::{FitOptions, GpRegression};
use mtm_stats::quantile::median;
use mtm_stats::{describe, pool};

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

/// Histories of the refit cells.
const REFIT_HISTORIES: [usize; 2] = [60, 180];

/// The surrogate the optimizer fits hyperparameters on at `bo`'s
/// history: Matérn-5/2 ARD over the unit-cube inputs and standardized
/// targets, at the optimizer's starting hyperparameters.
fn surrogate_of(bo: &BayesOpt) -> Result<GpRegression<Matern52Ard>, String> {
    let xs: Vec<Vec<f64>> = bo.observations().iter().map(|o| o.unit.clone()).collect();
    let ys: Vec<f64> = bo.observations().iter().map(|o| o.y).collect();
    let mean: f64 = describe::mean(&ys);
    let std: f64 = describe::pop_std(&ys).max(1e-9);
    let zs = ys.iter().map(|y| (y - mean) / std).collect();
    GpRegression::fit(Matern52Ard::new(PRIMED_DIM, 1.0, 0.3), xs, zs, 1e-2)
        .map_err(|e| format!("refit surrogate: {e}"))
}

/// Run `f` while `default_threads() − 1` parked helper threads each hold
/// a core claim, so every fan-out inside `f` sees one spare core and runs
/// inline.
fn with_every_core_claimed<T>(f: impl FnOnce() -> T) -> T {
    let helpers = pool::default_threads().saturating_sub(1);
    let claimed = Barrier::new(helpers + 1);
    std::thread::scope(|scope| {
        let mut releases = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (release, parked) = mpsc::channel::<()>();
            releases.push(release);
            let claimed = &claimed;
            scope.spawn(move || {
                let _core = pool::claim();
                claimed.wait();
                // Parked until `releases` drops, also when `f` panics.
                let _ = parked.recv();
            });
        }
        claimed.wait();
        f()
    })
}

/// Median wall seconds of [`REPS`] fits of `gp`, and each fit's
/// hyperparameter and LML bits.
fn time_fits(gp: &GpRegression<Matern52Ard>, opts: &FitOptions) -> (f64, Vec<Vec<u64>>) {
    // One untimed warm-up.
    gp.clone().optimize_hyperparameters(opts);
    let mut times = Vec::with_capacity(REPS);
    let mut bits = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut fit = gp.clone();
        let t0 = std::time::Instant::now();
        let lml = fit.optimize_hyperparameters(opts);
        times.push(t0.elapsed().as_secs_f64());
        let mut fit_bits: Vec<u64> = fit.hyperparameters().iter().map(|p| p.to_bits()).collect();
        fit_bits.push(lml.to_bits());
        bits.push(fit_bits);
    }
    (median(&times).unwrap_or(f64::NAN), bits)
}

fn refit_cell(bo: &BayesOpt) -> Result<RefitCell, String> {
    let history = bo.n_observations();
    let gp = surrogate_of(bo)?;
    let opts = &bo.config().fit;
    let (fit_inline_s, inline_bits) = with_every_core_claimed(|| time_fits(&gp, opts));
    let (fit_spare_s, spare_bits) = time_fits(&gp, opts);
    let fit_bitwise = inline_bits
        .iter()
        .chain(&spare_bits)
        .all(|bits| Some(bits) == inline_bits.first());
    let nproc = pool::default_threads();
    eprintln!(
        "[bench_gp] history {history} fit: inline {fit_inline_s:.6}s, \
         {nproc} cores {fit_spare_s:.6}s, bitwise {fit_bitwise}"
    );
    Ok(RefitCell {
        history,
        nproc,
        fit_inline_s,
        fit_spare_s,
        fit_bitwise,
    })
}

fn run() -> Result<(), String> {
    let cfg = primed_optimizer(0)?.config().clone();
    let mut cells = Vec::new();
    let mut refits = Vec::new();
    for &history in &[15usize, 60, 180] {
        eprintln!("[bench_gp] priming optimizer to {history} observations");
        let bo = primed_optimizer(history)?;
        if REFIT_HISTORIES.contains(&history) {
            refits.push(refit_cell(&bo)?);
        }
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
        refits,
    };
    perf::write_record("gp", &record)?;
    record.gate()
}

fn main() -> ExitCode {
    perf::run_main("gp", run)
}
