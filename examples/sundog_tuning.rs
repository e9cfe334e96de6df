//! Reproduce the paper's Sundog story (Fig. 8) in miniature: tuning
//! parallelism alone is a dead end; opening up batch size and batch
//! parallelism buys a multiple.
//!
//! ```text
//! cargo run --release --example sundog_tuning
//! ```

use mtm::prelude::*;
use mtm::stats::welch_t_test;
use mtm::topogen::sundog_topology;
use mtm_runner::{run_experiment_journaled, RunnerError, RunnerOptions};

fn main() -> Result<(), RunnerError> {
    // Sundog with its development-time defaults (batch size 50k,
    // batch parallelism 5 — "the values used when Sundog was developed
    // and manually tuned").
    let topo = sundog_topology();
    let mut base = StormConfig::baseline(topo.n_nodes());
    base.batch_size = 50_000;
    base.batch_parallelism = 5;
    let objective = Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base);

    let opts = RunOptions {
        max_steps: 40,
        confirm_reps: 15,
        ..Default::default()
    };

    // BO over one surface, in memory (no journal).
    let tune = |label: &str, set: ParamSet| {
        let make = |seed| Strategy::bo(objective.topology(), set.clone(), seed);
        let ropts = RunnerOptions::serial();
        run_experiment_journaled(label, &make, &objective, &opts, &ropts, None, false)
            .map(|outcome| outcome.result)
    };

    // Surface 1: parallelism hints only.
    let h_only = tune("h", ParamSet::Hints)?;

    // Surface 2: hints + batch size + batch parallelism.
    let h_bs_bp = tune("h bs bp", ParamSet::HintsBatch)?;

    // Surface 3: batch + concurrency parameters, hints pinned to 11
    // (the paper pinned pla's best).
    let bs_bp_cc = tune("bs bp cc", ParamSet::BatchConcurrency { fixed_hint: 11 })?;

    println!("Sundog, 40 BO steps per surface:\n");
    for (label, r) in [
        ("h", &h_only),
        ("h bs bp", &h_bs_bp),
        ("bs bp cc", &bs_bp_cc),
    ] {
        println!("  {label:<9} {:>9.0} tuples/s (confirmed mean)", r.mean());
    }

    let gain = h_bs_bp.mean() / h_only.mean().max(1e-9);
    println!("\nbatch tuning gain over hints-only: {gain:.2}x (paper: 2.8x)");

    let winner = h_bs_bp.winner();
    println!(
        "winning batch settings: size {}, parallelism {} (paper found 265312 / 16)",
        winner.best_config.batch_size, winner.best_config.batch_parallelism
    );

    if let Some(t) = welch_t_test(&bs_bp_cc.confirmation, &h_bs_bp.confirmation) {
        println!(
            "bs-bp-cc vs h-bs-bp: p = {:.3} -> {} at p=0.05 (paper: not significant)",
            t.p_value,
            if t.significant_at(0.05) {
                "significant"
            } else {
                "not significant"
            }
        );
    }
    Ok(())
}
