//! Quickstart: tune the parallelism of a hand-built topology with
//! Bayesian Optimization and compare against the naive baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mtm::prelude::*;
use mtm::stormsim::topology::TopologyBuilder;
use mtm_runner::{run_experiment_journaled, RunnerError, RunnerOptions};

/// Run the §V protocol for `make`'s strategy in memory (no journal).
fn tune(
    make: &(dyn Fn(u64) -> Strategy + Sync),
    objective: &Objective,
    opts: &RunOptions,
) -> Result<ExperimentResult, RunnerError> {
    let ropts = RunnerOptions::serial();
    run_experiment_journaled("quickstart", make, objective, opts, &ropts, None, false)
        .map(|outcome| outcome.result)
}

fn main() -> Result<(), RunnerError> {
    // 1. Describe a stream-processing topology: a log-ingestion pipeline
    //    with a cheap parser, an expensive enrichment stage, and a sink
    //    that writes to a contended external store.
    let mut tb = TopologyBuilder::new("log-pipeline");
    let source = tb.spout("kafka-source", 1.0); // 1 compute unit ≈ 1 ms/tuple
    let parse = tb.bolt("parse", 4.0);
    let enrich = tb.bolt("enrich", 20.0);
    let store = tb.bolt("store", 6.0);
    tb.connect(source, parse)
        .connect(parse, enrich)
        .connect(enrich, store);
    tb.contentious(store, true); // the store is a shared resource
    let topo = tb.build().expect("valid topology");

    // 2. The cluster: the paper's 80 machines x 4 cores.
    let objective = Objective::new(topo, ClusterSpec::paper_cluster());

    // 3. Baseline: parallel linear ascent (same hint everywhere).
    let opts = RunOptions {
        max_steps: 30,
        confirm_reps: 10,
        ..Default::default()
    };
    let pla = tune(&|_s| Strategy::pla(), &objective, &opts)?;

    // 4. Bayesian Optimization over per-operator hints + max-tasks.
    let bo = tune(
        &|seed| Strategy::bo(objective.topology(), ParamSet::Hints, seed),
        &objective,
        &opts,
    )?;

    println!("log-pipeline on 80x4 cores, 30 optimization steps each:\n");
    for (name, result) in [("pla", &pla), ("bo", &bo)] {
        let (min, max) = result.min_max();
        println!(
            "  {name:<4} best throughput {:>8.0} tuples/s  (confirmed {:.0}..{:.0}, step {} first hit the best)",
            result.mean(),
            min,
            max,
            result.winner().best_step,
        );
    }
    let best = bo.winner();
    println!("\nbo's winning configuration:");
    println!("  hints       = {:?}", best.best_config.parallelism_hints);
    println!("  max-tasks   = {}", best.best_config.max_tasks);
    let detail = objective.inspect(&best.best_config);
    println!("  bottleneck  = {}", detail.bottleneck.label());
    println!("  cpu util    = {:.1}%", detail.cpu_utilization * 100.0);
    println!("  net/worker  = {:.2} MB/s", detail.avg_worker_net_mbps);

    if bo.mean() >= pla.mean() {
        println!("\nBO matched or beat the linear baseline — as the paper found for\ntopologies with contentious resources (Fig. 4, right column).");
    } else {
        println!("\nThe linear baseline won this one — on homogeneous topologies the\npaper saw the same (Fig. 4, top-left).");
    }
    Ok(())
}
