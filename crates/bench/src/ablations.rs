//! Ablation studies over the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures:
//!
//! 1. **measurement averaging** — §VI explicitly proposes "running each
//!    sampling run multiple times and using the average performance";
//!    we compare BO with 1 vs 3 averaged measurements per step,
//! 2. **acquisition function** — EI (the paper's choice) vs PI vs GP-UCB,
//! 3. **surrogate kernel** — Matérn 5/2 (Spearmint's default) vs
//!    squared-exponential,
//! 4. **hyperparameter marginalization** — Spearmint's slice-sampled
//!    integrated acquisition vs the point estimate,
//! 5. **contention exponent** — the paper's literal linear contention
//!    formula vs our slightly super-linear default (DESIGN.md §5
//!    documents why the deviation exists).

use mtm_bayesopt::optimizer::Marginalize;
use mtm_bayesopt::{Acquisition, BoConfig, KernelChoice};
use mtm_core::objective::synthetic_base;
use mtm_core::report::Table;
use mtm_core::{ExperimentResult, Objective, ParamSet, RunOptions, Strategy};
use mtm_gp::FitOptions;
use mtm_runner::RunnerError;
use mtm_stormsim::ClusterSpec;
use mtm_topogen::{make_condition, Condition, SizeClass};

use crate::run_in_memory;

/// The cell the ablations run on: medium topology, 25% contention —
/// where the paper found BO most valuable.
fn cell_objective(cluster: ClusterSpec) -> Objective {
    let topo = make_condition(
        SizeClass::Medium,
        &Condition {
            time_imbalance: 0.0,
            contention: 0.25,
        },
        0x2015,
    );
    let base = synthetic_base(&topo);
    Objective::new(topo, cluster).with_base(base)
}

/// Latin-hypercube design points per pass before the surrogate runs.
const N_INIT: usize = 10;

fn bo_builder(seed: u64) -> mtm_bayesopt::BoConfigBuilder {
    BoConfig::builder()
        .seed(seed)
        .fit(FitOptions::fast())
        .n_init(N_INIT)
        .n_candidates(512)
        .local_passes(2)
        .refit_every(2)
}

/// All ablation configs are statically valid; fall back to the default
/// (with a debug assertion) instead of panicking in release benches.
fn built(b: mtm_bayesopt::BoConfigBuilder) -> BoConfig {
    b.build().unwrap_or_else(|e| {
        debug_assert!(false, "static ablation config rejected: {e}");
        BoConfig::default()
    })
}

fn bo_config(seed: u64) -> BoConfig {
    built(bo_builder(seed))
}

/// Run one BO experiment with a configured optimizer.
fn run_bo(
    objective: &Objective,
    opts: &RunOptions,
    make: impl Fn(u64) -> BoConfig + Sync,
) -> Result<ExperimentResult, RunnerError> {
    let topo = objective.topology();
    let strategy = |seed| Strategy::bo_with(topo, ParamSet::Hints, make(seed));
    run_in_memory("ablation/bo", &strategy, objective, opts)
}

/// The best throughput measured at a surrogate-driven step (step
/// `>= N_INIT`) of any pass; NaN when no pass got past its design.
fn best_surrogate_step(result: &ExperimentResult) -> f64 {
    result
        .passes
        .iter()
        .flat_map(|p| &p.steps)
        .filter(|s| s.step >= N_INIT)
        .map(|s| s.throughput)
        .fold(f64::NAN, f64::max)
}

/// Ablation 1: measurement averaging (§VI's proposed improvement).
pub fn measurement_averaging(steps: usize) -> Result<Table, RunnerError> {
    let objective = cell_objective(ClusterSpec::paper_cluster());
    let mut t = Table::new(
        "Ablation: averaged measurements per optimization step (§VI)",
        &["mean_tps"],
    );
    for reps in [1usize, 3] {
        let opts = RunOptions {
            max_steps: steps,
            confirm_reps: 10,
            passes: 2,
            measure_reps: reps,
            ..Default::default()
        };
        let mean = run_bo(&objective, &opts, bo_config)?.mean();
        t.push(&format!("bo, {reps} run(s)/step"), vec![mean]);
    }
    Ok(t)
}

/// Ablation 2: acquisition functions.
pub fn acquisitions(steps: usize) -> Result<Table, RunnerError> {
    let objective = cell_objective(ClusterSpec::paper_cluster());
    let opts = RunOptions {
        max_steps: steps,
        confirm_reps: 10,
        passes: 2,
        ..Default::default()
    };
    let mut t = Table::new("Ablation: acquisition function", &["mean_tps"]);
    for (label, acq) in [
        ("ei (paper)", Acquisition::ExpectedImprovement { xi: 0.01 }),
        ("pi", Acquisition::ProbabilityOfImprovement { xi: 0.01 }),
        ("ucb k=2", Acquisition::UpperConfidenceBound { kappa: 2.0 }),
    ] {
        let mean = run_bo(&objective, &opts, |seed| {
            built(bo_builder(seed).acquisition(acq))
        })?
        .mean();
        t.push(label, vec![mean]);
    }
    Ok(t)
}

/// Ablation 3: surrogate kernels.
pub fn kernels(steps: usize) -> Result<Table, RunnerError> {
    let objective = cell_objective(ClusterSpec::paper_cluster());
    let opts = RunOptions {
        max_steps: steps,
        confirm_reps: 10,
        passes: 2,
        ..Default::default()
    };
    let mut t = Table::new("Ablation: surrogate kernel", &["mean_tps"]);
    for (label, kernel) in [
        ("matern52 (spearmint)", KernelChoice::Matern52),
        ("squared-exp", KernelChoice::SquaredExp),
    ] {
        let mean = run_bo(&objective, &opts, |seed| {
            built(bo_builder(seed).kernel(kernel))
        })?
        .mean();
        t.push(label, vec![mean]);
    }
    Ok(t)
}

/// Ablation 4: hyperparameter marginalization (integrated EI).
///
/// Both arms share each pass's design points, and the confirmed winner
/// can be one of them, so `mean_tps` alone may not tell the arms apart;
/// `surrogate_best_tps` is each arm's best measurement over the steps
/// its surrogate chose.
pub fn marginalization(steps: usize) -> Result<Table, RunnerError> {
    let objective = cell_objective(ClusterSpec::paper_cluster());
    let opts = RunOptions {
        max_steps: steps,
        confirm_reps: 10,
        passes: 2,
        ..Default::default()
    };
    let mut t = Table::new(
        "Ablation: hyperparameter treatment in the acquisition",
        &["mean_tps", "surrogate_best_tps"],
    );
    for (label, marg) in [
        ("point estimate", None),
        (
            "slice-sampled (5)",
            Some(Marginalize {
                n_samples: 5,
                burn_in: 2,
            }),
        ),
    ] {
        let result = run_bo(&objective, &opts, |seed| {
            built(bo_builder(seed).marginalize(marg))
        })?;
        t.push(label, vec![result.mean(), best_surrogate_step(&result)]);
    }
    Ok(t)
}

/// Ablation 5: the contention exponent — the paper's literal linear
/// formula vs this reproduction's super-linear default. Reports the
/// pla-vs-bo gap under each, which is the behaviour the exponent exists
/// to reproduce.
pub fn contention_exponent(steps: usize) -> Result<Table, RunnerError> {
    let mut t = Table::new(
        "Ablation: contention exponent (pla vs bo on the contended cell)",
        &["pla_tps", "bo_tps", "bo_gain"],
    );
    for (label, exponent) in [
        ("linear (paper formula)", 1.0),
        ("super-linear (ours)", 1.25),
    ] {
        let mut cluster = ClusterSpec::paper_cluster();
        cluster.contention_exponent = exponent;
        let objective = cell_objective(cluster);
        let opts = RunOptions {
            max_steps: steps,
            confirm_reps: 10,
            passes: 2,
            ..Default::default()
        };
        let pla = run_in_memory("ablation/pla", &|_s| Strategy::pla(), &objective, &opts)?.mean();
        let bo = run_bo(&objective, &opts, bo_config)?.mean();
        t.push(label, vec![pla, bo, bo / pla.max(1e-9)]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ablations_produce_positive_results() {
        // Smoke budgets: just verify the plumbing end to end.
        for table in [
            measurement_averaging(6),
            acquisitions(6),
            kernels(6),
            contention_exponent(6),
        ] {
            let table = table.unwrap();
            assert!(!table.rows.is_empty(), "{}", table.title);
            assert!(
                table.rows.iter().any(|r| r.values[0] > 0.0),
                "{} should have nonzero outcomes",
                table.title
            );
        }
    }

    #[test]
    fn marginalization_reports_surrogate_steps() {
        // Two surrogate-driven steps per pass past the design.
        let table = marginalization(N_INIT + 2).unwrap();
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert!(row.values[0] > 0.0 && row.values[1] > 0.0, "{row:?}");
        }
        // With no step past the design there is no surrogate best.
        let table = marginalization(N_INIT).unwrap();
        assert!(table.rows.iter().all(|r| r.values[1].is_nan()));
    }
}
