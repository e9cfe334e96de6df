//! `mtm-tune` — tune a topology described in a JSON spec file.
//!
//! ```text
//! mtm-tune <topology.json> [options]
//!
//! options:
//!   --strategy NAME              pla|ipla|bo|ibo|bo180|random|tpe|hyperband
//!                                (default bo; bo180 is bo, the budget is --steps)
//!   --surface h|h-bs-bp          tuned parameters for the search strategies
//!                                (default h)
//!   --steps N                    optimization steps (default 60)
//!   --passes N                   optimization passes (default 2)
//!   --machines N                 cluster machines (default 80)
//!   --seed N                     RNG seed (default 2015)
//!   --window SECONDS             virtual measurement window (default 120)
//!   --reps N                     measurements averaged per step (default 1)
//! ```
//!
//! Prints the best configuration found, its confirmed throughput, and
//! the simulator's bottleneck attribution.

use std::process::ExitCode;

use mtm::prelude::*;
use mtm::spec::TopologySpec;
use mtm_runner::{run_experiment_journaled, RunnerOptions};

struct Args {
    spec_path: String,
    strategy: String,
    surface: String,
    steps: usize,
    passes: usize,
    machines: usize,
    seed: u64,
    window: f64,
    reps: usize,
}

/// Parse the command line after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        spec_path: String::new(),
        strategy: "bo".into(),
        surface: "h".into(),
        steps: 60,
        passes: 2,
        machines: 80,
        seed: 2015,
        window: 120.0,
        reps: 1,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--strategy" => args.strategy = take("--strategy")?,
            "--surface" => args.surface = take("--surface")?,
            "--steps" => {
                args.steps = take("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--passes" => {
                args.passes = take("--passes")?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?
            }
            "--machines" => {
                args.machines = take("--machines")?
                    .parse()
                    .map_err(|e| format!("--machines: {e}"))?
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--window" => {
                let window: f64 = take("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
                if !(window.is_finite() && window > 0.0) {
                    return Err(format!(
                        "--window: must be a positive, finite number of seconds, got {window}"
                    ));
                }
                args.window = window;
            }
            "--reps" => {
                args.reps = take("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--help" | "-h" => return Err("help".into()),
            other if args.spec_path.is_empty() && !other.starts_with('-') => {
                args.spec_path = other.to_string();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.spec_path.is_empty() {
        return Err("missing <topology.json>".into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: mtm-tune <topology.json> [--strategy pla|ipla|bo|ibo|bo180|random|tpe|hyperband]\n\
         \x20              [--surface h|h-bs-bp] [--steps N] [--passes N] [--machines N] [--seed N]\n\
         \x20              [--window S] [--reps N]"
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&args.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let topo = match TopologySpec::from_json(&text).and_then(|s| s.to_topology()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "topology '{}': {} nodes, {} edges, {} layer(s)",
        topo.name(),
        topo.n_nodes(),
        topo.n_edges(),
        topo.n_layers()
    );

    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = args.machines.max(1);
    let objective = Objective::new(topo, cluster).with_window(args.window);

    let surface = match args.surface.as_str() {
        "h" => ParamSet::Hints,
        "h-bs-bp" => ParamSet::HintsBatch,
        other => {
            eprintln!("error: unknown surface '{other}' (use h or h-bs-bp)");
            return ExitCode::FAILURE;
        }
    };

    let opts = RunOptions {
        max_steps: args.steps,
        passes: args.passes,
        confirm_reps: 15,
        measure_reps: args.reps,
        seed: args.seed,
        ..Default::default()
    };
    let topo = objective.topology();
    if let Err(e) = Strategy::by_name(&args.strategy, topo, surface.clone(), args.seed) {
        eprintln!("error: {e}");
        usage();
        return ExitCode::FAILURE;
    }
    let make = |seed| {
        Strategy::by_name(&args.strategy, topo, surface.clone(), seed)
            .unwrap_or_else(|_| Strategy::pla())
    };
    let exp_id = format!("mtm-tune/{}", args.strategy);
    let outcome = run_experiment_journaled(
        &exp_id,
        &make,
        &objective,
        &opts,
        &RunnerOptions::serial(),
        None,
        false,
    );
    let result = match outcome {
        Ok(outcome) => outcome.result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (min, max) = result.min_max();
    let winner = result.winner();
    println!(
        "\n{} over '{}', {} steps x {} pass(es):",
        result.strategy, args.surface, args.steps, args.passes
    );
    println!(
        "  confirmed throughput: {:.0} tuples/s ({:.0}..{:.0})",
        result.mean(),
        min,
        max
    );
    println!("  found at step {} of the winning pass", winner.best_step);
    println!("\nbest configuration:");
    let c = &winner.best_config;
    println!("  parallelism hints : {:?}", c.parallelism_hints);
    println!("  max-tasks         : {}", c.max_tasks);
    println!("  batch size        : {}", c.batch_size);
    println!("  batch parallelism : {}", c.batch_parallelism);
    println!("  worker threads    : {}", c.worker_threads);
    println!("  receiver threads  : {}", c.receiver_threads);
    println!("  ackers            : {}", c.ackers);
    let detail = objective.inspect(c);
    println!("\nsimulator attribution:");
    println!("  bottleneck   : {}", detail.bottleneck.label());
    println!("  cpu util     : {:.1}%", detail.cpu_utilization * 100.0);
    match detail.batch_latency_s {
        Some(lat) => println!("  batch latency: {lat:.2}s"),
        None => println!("  batch latency: n/a (run failed)"),
    }
    println!("  net/worker   : {:.2} MB/s", detail.avg_worker_net_mbps);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(window: &str) -> Result<Args, String> {
        parse_args(["spec.json", "--window", window].map(String::from))
    }

    #[test]
    fn window_must_be_positive_and_finite() {
        for bad in ["0", "-1", "NaN", "inf"] {
            let err = parse(bad)
                .err()
                .unwrap_or_else(|| panic!("--window {bad} accepted"));
            assert!(err.starts_with("--window: "), "{bad}: {err}");
        }
    }

    #[test]
    fn window_accepts_a_positive_number_of_seconds() {
        let args = parse("20").unwrap();
        assert_eq!(args.window, 20.0);
        assert_eq!(args.spec_path, "spec.json");
    }
}
