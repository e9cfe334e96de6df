//! End-to-end tuning flows: optimizer ↔ simulator ↔ experiment protocol.

use mtm_core::objective::synthetic_base;
use mtm_core::{
    run_pass_traced, DirectMeasure, ExperimentResult, Objective, ParamSet, RunOptions, Strategy,
};
use mtm_obs::NullRecorder;
use mtm_runner::{run_experiment_journaled, RunnerOptions};
use mtm_stormsim::noise::MeasurementNoise;
use mtm_stormsim::ClusterSpec;
use mtm_topogen::{make_condition, sundog_topology, Condition, SizeClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// BO over `set`, through the runner engine in memory.
fn run_bo(objective: &Objective, set: ParamSet, opts: &RunOptions) -> ExperimentResult {
    let make = |seed| Strategy::bo(objective.topology(), set.clone(), seed);
    let ropts = RunnerOptions::serial();
    run_experiment_journaled("e2e", &make, objective, opts, &ropts, None, false)
        .unwrap()
        .result
}

fn contended_objective() -> Objective {
    let topo = make_condition(
        SizeClass::Small,
        &Condition {
            time_imbalance: 0.0,
            contention: 0.25,
        },
        0x2015,
    );
    let base = synthetic_base(&topo);
    Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base)
}

#[test]
fn bo_beats_random_search_on_a_contended_topology() {
    let objective = contended_objective();
    let budget = 25;

    // BO over hints.
    let mut bo = Strategy::bo(objective.topology(), ParamSet::Hints, 11);
    let opts = RunOptions {
        max_steps: budget,
        confirm_reps: 1,
        passes: 1,
        ..Default::default()
    };
    let bo_pass = run_pass_traced(
        &mut bo,
        &objective,
        &opts,
        &mut DirectMeasure,
        &mut NullRecorder,
    );

    // Random search with the same budget over the same space.
    let space = ParamSet::Hints.space(objective.topology());
    let mut rng = StdRng::seed_from_u64(999);
    let mut random_best = f64::NEG_INFINITY;
    for step in 0..budget {
        let values = space.sample(&mut rng);
        let config =
            ParamSet::Hints.to_config(objective.topology(), objective.base_config(), &values);
        random_best = random_best.max(objective.measure(&config, 7_000 + step as u64));
    }

    assert!(
        bo_pass.best_throughput >= random_best * 0.9,
        "BO ({:.0}) should be at least competitive with random search ({:.0})",
        bo_pass.best_throughput,
        random_best
    );
}

#[test]
fn full_experiment_protocol_produces_consistent_records() {
    let objective = contended_objective();
    let opts = RunOptions {
        max_steps: 12,
        confirm_reps: 6,
        passes: 2,
        seed: 5,
        ..Default::default()
    };
    let result = run_bo(&objective, ParamSet::Hints, &opts);

    assert_eq!(result.passes.len(), 2);
    assert_eq!(result.confirmation.len(), 6);
    // The recorded best matches the trajectory maximum.
    for pass in &result.passes {
        let max = pass
            .steps
            .iter()
            .map(|s| s.throughput)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((pass.best_throughput - max.max(0.0)).abs() < 1e-9);
        // best_step points at a step achieving the best.
        let at = pass.steps[pass.best_step].throughput;
        assert!((at - pass.best_throughput).abs() < 1e-9 || pass.best_throughput == 0.0);
    }
    // The winner really is the better pass.
    assert!(result
        .passes
        .iter()
        .all(|p| p.best_throughput <= result.winner().best_throughput));
}

#[test]
fn experiments_are_reproducible_given_the_seed() {
    let objective = contended_objective();
    let opts = RunOptions {
        max_steps: 8,
        confirm_reps: 3,
        passes: 1,
        seed: 77,
        ..Default::default()
    };
    let a = run_bo(&objective, ParamSet::Hints, &opts);
    let b = run_bo(&objective, ParamSet::Hints, &opts);
    let traj_a: Vec<f64> = a.winner().steps.iter().map(|s| s.throughput).collect();
    let traj_b: Vec<f64> = b.winner().steps.iter().map(|s| s.throughput).collect();
    assert_eq!(traj_a, traj_b, "same seed, same trajectory");
    assert_eq!(a.confirmation, b.confirmation);
}

#[test]
fn sundog_batch_surface_beats_hints_only_surface() {
    // The Fig. 8 story at miniature budget, without measurement noise so
    // the comparison is crisp.
    let topo = sundog_topology();
    let mut base = mtm_stormsim::StormConfig::baseline(topo.n_nodes());
    base.batch_size = 50_000;
    base.batch_parallelism = 5;
    let objective = Objective::new(topo, ClusterSpec::paper_cluster())
        .with_base(base)
        .with_noise(MeasurementNoise::none());
    let opts = RunOptions {
        max_steps: 25,
        confirm_reps: 2,
        passes: 1,
        seed: 3,
        ..Default::default()
    };

    let h_only = run_bo(&objective, ParamSet::Hints, &opts);
    let with_batch = run_bo(&objective, ParamSet::HintsBatch, &opts);
    assert!(
        with_batch.mean() > h_only.mean() * 1.3,
        "opening the batch parameters must pay off substantially: {:.0} vs {:.0}",
        with_batch.mean(),
        h_only.mean()
    );
}

#[test]
fn informed_strategies_respect_topology_weights() {
    // On a fan-in topology the informed strategies give the heavy merge
    // node more tasks than the spouts.
    use mtm_stormsim::topology::TopologyBuilder;
    let mut tb = TopologyBuilder::new("fan");
    let s1 = tb.spout("s1", 1.0);
    let s2 = tb.spout("s2", 1.0);
    let s3 = tb.spout("s3", 1.0);
    let merge = tb.bolt("merge", 10.0);
    tb.connect(s1, merge).connect(s2, merge).connect(s3, merge);
    let topo = tb.build().unwrap();

    let mut ipla = Strategy::ipla(&topo);
    let base = mtm_stormsim::StormConfig::baseline(4);
    let config = ipla.propose(&topo, &base, 7).unwrap(); // multiplier 8
    let hints = &config.parallelism_hints;
    assert!(
        hints[3] > hints[0],
        "merge node (weight 3) must get more tasks than a spout (weight 1): {hints:?}"
    );
}
