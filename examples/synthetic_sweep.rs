//! A single cell of the paper's Fig. 4 grid, end to end: generate a
//! medium layer-by-layer topology with 25% contentious operators, then
//! race all four strategies.
//!
//! ```text
//! cargo run --release --example synthetic_sweep
//! ```

use mtm::core::objective::synthetic_base;
use mtm::prelude::*;
use mtm::topogen::{condition_name, make_condition, Condition, SizeClass, TopologyStats};
use mtm_runner::{run_experiment_journaled, RunnerError, RunnerOptions};

fn main() -> Result<(), RunnerError> {
    let condition = Condition {
        time_imbalance: 0.0,
        contention: 0.25,
    };
    let topo = make_condition(SizeClass::Medium, &condition, 0x2015);

    let stats = TopologyStats::of(&topo);
    println!("topology: {} ({})", stats.name, condition_name(&condition));
    println!("{}", TopologyStats::table_header());
    println!("{}", stats.table_row("medium"));
    println!(
        "contentious compute: {:.0}% of {} units\n",
        topo.contentious_compute_units() / topo.total_compute_units() * 100.0,
        topo.total_compute_units(),
    );

    let base = synthetic_base(&topo);
    let objective = Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base);
    let opts = RunOptions {
        max_steps: 40,
        confirm_reps: 10,
        ..Default::default()
    };

    println!("strategy   mean tuples/s   min..max          steps-to-best");
    for name in ["pla", "ipla", "bo", "ibo"] {
        let make = |seed| {
            Strategy::by_name(name, objective.topology(), ParamSet::Hints, seed)
                .expect("a paper strategy label")
        };
        let ropts = RunnerOptions::serial();
        let result =
            run_experiment_journaled(name, &make, &objective, &opts, &ropts, None, false)?.result;
        let (min, max) = result.min_max();
        let (cmin, cavg, cmax) = result.convergence_steps();
        println!(
            "{name:<10} {:>13.0}   {:>7.0}..{:<7.0}   {cmin}/{cavg:.0}/{cmax}",
            result.mean(),
            min,
            max
        );
    }
    println!(
        "\nUnder resource contention the paper found BO 'can help increase \
         performance substantially' (Fig. 4, top-right) — the linear sweep \
         wastes cycles multiplying the contentious bolts' cost."
    );
    Ok(())
}
