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
//! README's bench table is generated from it) and prints it to stdout.
//!
//! ```text
//! cargo run --release -p mtm-bench --bin bench_gp
//! ```

use serde::Serialize;

use mtm_bayesopt::{space::Param, BayesOpt, BoConfig, ParamSpace};
use mtm_gp::FitOptions;
use mtm_stats::quantile::median;

/// Tuned dimensionality: matches the paper's "10 hints" cell of Fig. 7.
const DIM: usize = 10;
/// Timed repetitions per cell; the medians go into the record.
const REPS: usize = 7;

#[derive(Debug, Serialize)]
struct HistoryCell {
    /// Observation-history size the proposal was measured at.
    history: usize,
    /// Median wall seconds per propose, incremental surrogate.
    incremental_propose_s: f64,
    /// Median wall seconds per propose, invalidate-then-propose baseline.
    full_refit_propose_s: f64,
    /// `full_refit_propose_s / incremental_propose_s`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    dim: usize,
    n_init: usize,
    refit_every: usize,
    n_candidates: usize,
    reps: usize,
    cells: Vec<HistoryCell>,
}

fn bench_config() -> Result<BoConfig, String> {
    BoConfig::builder()
        .seed(2)
        .fit(FitOptions::fast())
        .n_init(6)
        .n_candidates(256)
        .refit_every(4)
        .build()
        .map_err(|e| format!("bench config: {e}"))
}

/// Drive a fresh optimizer to `n_obs` observations of a deterministic
/// objective.
fn primed_optimizer(n_obs: usize) -> Result<BayesOpt, String> {
    let params: Vec<Param> = (0..DIM)
        .map(|i| Param::int(&format!("h{i}"), 1, 60))
        .collect();
    let space = ParamSpace::new(params);
    let mut bo = BayesOpt::new(space, bench_config()?);
    for _ in 0..n_obs {
        let c = bo.propose().map_err(|e| format!("prime propose: {e}"))?;
        let y = c
            .values
            .iter()
            .map(|v| v.as_int() as f64)
            .sum::<f64>()
            .sin();
        bo.observe(c, y)
            .map_err(|e| format!("prime observe: {e}"))?;
    }
    Ok(bo)
}

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
    let cfg = bench_config()?;
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
    let record = BenchRecord {
        bench: "gp",
        dim: DIM,
        n_init: cfg.n_init,
        refit_every: cfg.refit_every,
        n_candidates: cfg.n_candidates,
        reps: REPS,
        cells,
    };
    let json =
        serde_json::to_string_pretty(&record).map_err(|e| format!("serialize record: {e}"))?;
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gp.json");
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{json}");
    eprintln!("[bench_gp] wrote {}", path.display());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_gp: {e}");
        std::process::exit(1);
    }
}
