//! The tuning workloads: paper-protocol sessions run in this process
//! through the journaled engine.
//!
//! * `tune-gp` — `bo`, `ibo` and `tpe` on the Medium preset at condition
//!   ti50/cont25 (the experiment grid's topology seed; the workload seed
//!   drives the sessions): the surrogate does nearly all the work.
//! * `tune-sim` — `pla`/`ipla` on 10 000-vertex graphs (400 machines) and
//!   `random`/`hyperband` on 3 000-vertex graphs (120 machines), each step
//!   averaged over 3 measurement runs, over two generator seeds: the flow
//!   simulator and the per-trial measure/journal path do the work.
//!   Hints-space strategies stay below 4 000 vertices: `ParamSet::Hints`
//!   declares `max_tasks` as `log_int(n, 4000)`, which panics for larger
//!   graphs.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtm_core::objective::synthetic_base;
use mtm_core::Objective;
use mtm_runner::grid::GRID_SEED;
use mtm_runner::Scale;
use mtm_stormsim::ClusterSpec;
use mtm_topogen::{generate_layer_by_layer, make_condition, Condition, GgenParams, SizeClass};

use crate::calib::Calibration;
use crate::layers::{self, check_segment, factory, Plan};
use crate::report::{serve_layer, Report};
use crate::stats::{mean, median, tail};
use crate::{derive_seed, Args};

/// Rounds every run completes; `tuned_tps` averages over exactly these,
/// so it does not depend on how fast the rounds ran.
const MIN_ROUNDS: usize = 2;

/// Which tuning workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Surrogate-bound sessions.
    Gp,
    /// Simulator-bound sessions.
    Sim,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Gp => "tune-gp",
            Kind::Sim => "tune-sim",
        }
    }

    /// Set-ups before the first round, and again after every round;
    /// `setup_s` is the median of all of them. Spreading them over the run
    /// keeps a slow minute at its start from setting the figure.
    fn setups(self) -> usize {
        match self {
            Kind::Gp => 25,
            Kind::Sim => 3,
        }
    }
}

/// A built session list and what building it cost.
struct Setup {
    plans: Vec<Plan>,
    /// Topology generation alone.
    generate_s: f64,
    /// Generation plus objective construction.
    total_s: f64,
}

/// Paper protocol (60 steps × 2 passes + 30 confirmations) at `reps`
/// measurement runs per step.
fn paper(seed: u64, reps: usize) -> mtm_core::RunOptions {
    mtm_core::RunOptions {
        measure_reps: reps,
        ..Scale::Paper.run_options(seed)
    }
}

fn build(kind: Kind, seed: u64) -> Setup {
    let t = Instant::now();
    let mut generate = Duration::ZERO;
    let mut plans = Vec::new();
    match kind {
        Kind::Gp => {
            let g = Instant::now();
            let condition = Condition {
                time_imbalance: 0.5,
                contention: 0.25,
            };
            let topo = make_condition(SizeClass::Medium, &condition, GRID_SEED);
            generate += g.elapsed();
            let base = synthetic_base(&topo);
            let objective = Arc::new(
                Objective::new(topo.clone(), ClusterSpec::paper_cluster()).with_base(base),
            );
            for (k, label) in ["bo", "ibo", "tpe"].into_iter().enumerate() {
                plans.push(Plan {
                    exp_id: format!("perfbench/tune-gp/{label}"),
                    objective: Arc::clone(&objective),
                    opts: paper(derive_seed(seed, 100 + k as u64), 1),
                    make: factory(label, &topo),
                });
            }
        }
        Kind::Sim => {
            for g in 0..2u64 {
                let graph_seed = derive_seed(seed, g);
                for (vertices, layers, machines, labels) in [
                    (10_000, 12, 400, ["pla", "ipla"]),
                    (3_000, 10, 120, ["random", "hyperband"]),
                ] {
                    let t = Instant::now();
                    let params = GgenParams::with_density(vertices, layers, 2.5, graph_seed)
                        .expect("the graph shapes above are valid");
                    let topo = generate_layer_by_layer(&params);
                    generate += t.elapsed();
                    let mut base = synthetic_base(&topo);
                    if vertices >= 10_000 {
                        // One task per vertex already fills 400 machines: keep
                        // the task cap at the vertex count and batches large,
                        // the shape the simulator benchmark uses at this size.
                        base.max_tasks = vertices as u32;
                        base.ackers = 32;
                        base.batch_size = 30_000;
                        base.batch_parallelism = 1;
                    }
                    let cluster = ClusterSpec {
                        machines,
                        ..ClusterSpec::paper_cluster()
                    };
                    let objective = Arc::new(Objective::new(topo.clone(), cluster).with_base(base));
                    for label in labels {
                        let k = plans.len() as u64;
                        plans.push(Plan {
                            exp_id: format!("perfbench/tune-sim/{label}/{vertices}/{g}"),
                            objective: Arc::clone(&objective),
                            opts: paper(derive_seed(seed, 100 + k), 3),
                            make: factory(label, &topo),
                        });
                    }
                }
            }
        }
    }
    Setup {
        plans,
        generate_s: generate.as_secs_f64(),
        total_s: t.elapsed().as_secs_f64(),
    }
}

/// Run a tuning workload and record its metrics.
pub fn run(kind: Kind, args: &Args, work: &Path, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..kind.setups() {
        let setup = build(kind, args.seed);
        setup_s.push(setup.total_s);
        generate_s.push(setup.generate_s);
        plans = setup.plans;
    }
    report.meta("sessions_per_round", plans.len());

    if args.trace {
        let layers = layers::attribute(&plans, work, report);
        layers::emit(&layers, report);
        report.metric("topogen.generate_ms", median(&generate_s) * 1e3);
        match kind {
            // The serve layer's home among the listed workloads (see
            // `fleet::serve_layer`).
            Kind::Sim => crate::fleet::serve_layer(args, work, report),
            Kind::Gp => {
                for name in serve_layer() {
                    report.metric(name, 0.0);
                }
            }
        }
        return;
    }

    // Warm-up: the cheapest session, untimed, so clocks and caches settle.
    if let Some(plan) = plans.last() {
        report.attempt(1);
        if let Err(e) = layers::run(plan, None) {
            report.fail(&e);
        }
    }

    // Whole rounds of the session list until the run length is used up,
    // and at least MIN_ROUNDS. Round `r` reseeds every session from its
    // base seed, so a run averages over several seeds of each strategy.
    let base_seeds: Vec<u64> = plans.iter().map(|p| p.opts.seed).collect();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut trials, mut wall_s, mut cpu_s, mut raw_wall_s) = (0u64, 0.0, 0.0, 0.0);
    let mut step_ms = Vec::new();
    let mut tuned = Vec::new();
    let mut rounds = 0;
    let mut calib = Calibration::warmed();
    let mut before = calib.sample();
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        for (i, plan) in plans.iter_mut().enumerate() {
            plan.opts.seed = derive_seed(base_seeds[i], rounds as u64);
            report.attempt(1);
            let segment = work.join(format!("{}-r{rounds}-{i}.jsonl", kind.name()));
            let ran = layers::run(plan, Some(&segment));
            // The machine's speed around this session, from the kernel
            // timed just before and just after it.
            let after = calib.sample();
            let slowdown = (before + after) / 2.0;
            before = after;
            match ran {
                Ok(ran) => {
                    if let Err(e) = check_segment(&segment, &ran.outcome.result) {
                        report.fail(&e);
                    }
                    trials += ran.outcome.stats.trials();
                    raw_wall_s += ran.wall_s;
                    wall_s += ran.wall_s / slowdown;
                    cpu_s += ran.cpu_s / slowdown;
                    step_ms.extend(
                        ran.outcome
                            .result
                            .passes
                            .iter()
                            .flat_map(|p| &p.steps)
                            .map(|s| s.optimizer_time_s * 1e3 / slowdown),
                    );
                    if rounds < MIN_ROUNDS {
                        tuned.push(ran.outcome.result.mean());
                    }
                }
                Err(e) => report.fail(&e),
            }
            let _ = std::fs::remove_file(&segment);
        }
        rounds += 1;
        for _ in 0..kind.setups() {
            setup_s.push(build(kind, args.seed).total_s);
        }
    }
    report.metric(
        "trials_per_s",
        trials as f64 / wall_s.max(f64::MIN_POSITIVE),
    );
    report.metric("latency_ms_p50", tail(&step_ms, 0.5).value);
    report.metric("latency_ms_p95", tail(&step_ms, 0.95).value);
    report.metric("cpu_ms_per_trial", cpu_s * 1e3 / trials.max(1) as f64);
    report.metric("tuned_tps", mean(&tuned));
    // Set-up takes milliseconds, too short to time the kernel around it:
    // it is scaled by the run's median slowdown.
    report.metric("setup_s", median(&setup_s) / calib.slowdown());
    report.meta("raw_setup_s", median(&setup_s));
    report.meta("slowdown", calib.slowdown());
    report.meta(
        "raw_trials_per_s",
        trials as f64 / raw_wall_s.max(f64::MIN_POSITIVE),
    );
    report.meta("rounds", rounds);
    report.meta("trials", trials);
    report.meta("latency_samples", step_ms.len());
}
