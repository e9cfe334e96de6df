//! Determinism probe for `mtm-check determinism`.
//!
//! Prints full metrics from fixed-seed runs of the flow simulator, the
//! per-tuple simulator, and a short (10-step) BO loop to stdout. The
//! checker runs this binary twice and diffs the output bit for bit — any
//! hidden nondeterminism (hash-map iteration order, wall-clock leakage,
//! uninitialized state) shows up as a diff. Wall-clock fields (e.g. the
//! optimizer's `optimizer_time_s`) are deliberately *not* printed: they
//! are the one sanctioned nondeterminism in the workspace.

use mtm_core::objective::synthetic_base;
use mtm_core::{
    run_pass_traced, step_run_id, DirectMeasure, Objective, ParamSet, RunOptions, Strategy,
};
use mtm_obs::{JsonlRecorder, MemRecorder, NullRecorder};
use mtm_runner::engine::{canonical_result_json, run_experiment_journaled, run_experiment_traced};
use mtm_runner::{FaultPlan, RunnerOptions};
use mtm_stormsim::noise::MeasurementNoise;
use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig, TupleSimOptions, TupleSimulator};
use mtm_topogen::{make_condition, sundog_topology, Condition, SizeClass};

fn main() {
    let cluster = ClusterSpec::paper_cluster();

    // Flow simulator on the paper's Sundog topology and on a synthetic
    // contended topology.
    let sundog = sundog_topology();
    let mut config = StormConfig::baseline(sundog.n_nodes());
    config.parallelism_hints = (0..sundog.n_nodes() as u32).map(|v| 1 + v % 7).collect();
    let sundog_sim = ok(
        "sundog simulator",
        FlowSimulator::new(sundog, cluster.clone(), 120.0),
    );
    let flow = ok("sundog config", sundog_sim.evaluate(&config));
    println!("flow/sundog {}", render(&flow));

    let contended = make_condition(
        SizeClass::Small,
        &Condition {
            time_imbalance: 0.5,
            contention: 0.25,
        },
        0x2015,
    );
    let config_c = StormConfig::uniform_hints(contended.n_nodes(), 5);
    let contended_sim = ok(
        "contended simulator",
        FlowSimulator::new(contended.clone(), cluster.clone(), 120.0),
    );
    let flow_c = ok("contended config", contended_sim.evaluate(&config_c));
    println!("flow/contended {}", render(&flow_c));

    // A hint sweep through one bound simulator, run to run.
    for h in 1..=8 {
        let c = StormConfig::uniform_hints(contended.n_nodes(), h);
        let r = ok("hint sweep config", contended_sim.evaluate(&c));
        println!("batch/sweep h={h} {}", float_bits(r.throughput_tps));
    }

    // Per-tuple discrete-event simulator (bounded event count keeps the
    // probe fast while still exercising the full event loop).
    let opts = TupleSimOptions {
        window_s: 20.0,
        max_events: 2_000_000,
        ..Default::default()
    };
    let tuple_sim = ok(
        "tuple simulator",
        TupleSimulator::new(contended.clone(), cluster.clone(), opts),
    );
    let tuples = ok("tuple config", tuple_sim.evaluate(&config_c));
    println!("tuples/contended {}", render(&tuples));

    // 10-step BO loop with measurement noise on (seeded), printing the
    // full trajectory at full float precision.
    let base = synthetic_base(&contended);
    let objective = Objective::new(contended, ClusterSpec::paper_cluster())
        .with_base(base)
        .with_noise(MeasurementNoise::default());
    let mut strategy = Strategy::bo(objective.topology(), ParamSet::Hints, 42);
    let run_opts = RunOptions {
        max_steps: 10,
        confirm_reps: 1,
        passes: 1,
        seed: 7,
        ..Default::default()
    };
    let pass = run_pass_traced(
        &mut strategy,
        &objective,
        &run_opts,
        &mut DirectMeasure,
        &mut NullRecorder,
    );
    for s in &pass.steps {
        println!("bo/step {} {}", s.step, float_bits(s.throughput));
    }
    println!(
        "bo/best step={} {}",
        pass.best_step,
        float_bits(pass.best_throughput)
    );

    // Strategy zoo: a short fixed-seed pass per non-paper strategy,
    // printing every proposal's measurement-rep allocation and observed
    // objective at full bit precision.
    strategies_section(&objective);

    // Journal kill–resume replay: run a journaled experiment, truncate its
    // segment mid-run (the moral equivalent of `kill -9`), resume, and
    // print both canonical results. The two lines must match each other
    // AND be bit-identical across probe invocations — scratch paths stay
    // on stderr-free temp storage and never reach stdout.
    let replay_opts = RunOptions {
        max_steps: 6,
        confirm_reps: 2,
        passes: 2,
        seed: 0xD5,
        ..Default::default()
    };
    journal_replay_section(
        &objective,
        "journal",
        "probe/replay",
        &replay_opts,
        &RunnerOptions::serial(),
    );
    // The same on the batched path: three reps per step share one
    // simulation, injected failures retry within a batch, and two runner
    // threads interleave the passes' journal appends.
    let reps_opts = RunOptions {
        measure_reps: 3,
        confirm_reps: 4,
        seed: 0xD6,
        ..replay_opts
    };
    let reps_ropts = RunnerOptions {
        faults: FaultPlan::with_rate(0.3),
        ..RunnerOptions::parallel(2)
    };
    journal_replay_section(
        &objective,
        "journal/reps",
        "probe/reps",
        &reps_opts,
        &reps_ropts,
    );

    // Recording-is-inert: every instrumented path re-run with a live
    // recorder must reproduce the unrecorded result bit for bit, and two
    // recorded runs must write byte-identical trace files.
    recording_inert_section(&objective);
}

/// Drive each zoo strategy (tpe, hyperband, random) through a manual
/// 12-step propose/measure/observe loop — the §V protocol with the
/// strategy's own per-step rep allocation — and print each step's rep
/// count plus the averaged objective's bit pattern. Hyperband's rung
/// promotions (the 3-rep steps of brackets s=1 and s=0, plus the second
/// iteration's fresh rung) and TPE's startup→density handoff both land
/// inside the window, so any nondeterminism in split, promotion, or
/// sampling diffs immediately.
fn strategies_section(objective: &Objective) {
    type Maker = fn(&mtm_stormsim::Topology, ParamSet, u64) -> Strategy;
    let topo = objective.topology().clone();
    let makers: [(&str, Maker); 3] = [
        ("tpe", Strategy::tpe),
        ("hyperband", Strategy::hyperband),
        ("random", Strategy::random),
    ];
    let base = objective.base_config().clone();
    let seed = 0x5_0_0;
    for (label, make) in makers {
        let mut strategy = make(&topo, ParamSet::Hints, seed);
        let mut ys = Vec::new();
        for step in 0..12 {
            let Some(config) = strategy.propose(&topo, &base, step) else {
                break;
            };
            let reps = strategy.measure_reps().unwrap_or(1);
            ys.clear();
            objective.measure_many(
                &config,
                (0..reps).map(|rep| step_run_id(seed, step, rep)),
                &mut ys,
            );
            let y = ys.iter().sum::<f64>() / reps.max(1) as f64;
            strategy.observe(y);
            println!("zoo/{label} step={step} reps={reps} y={}", float_bits(y));
        }
    }
}

/// Re-run the probe's simulator workloads and a short experiment with
/// recording enabled; print bitwise-equality verdicts and the trace sizes
/// (both deterministic, so they diff cleanly across invocations).
fn recording_inert_section(objective: &Objective) {
    let cluster = ClusterSpec::paper_cluster();
    let contended = objective.topology();
    let config_c = StormConfig::uniform_hints(contended.n_nodes(), 5);

    let flow_sim = ok(
        "inert flow simulator",
        FlowSimulator::new(contended.clone(), cluster.clone(), 120.0),
    );
    let plain = ok("inert flow config", flow_sim.evaluate(&config_c));
    let mut mem = MemRecorder::new();
    let recorded = ok(
        "inert flow config",
        flow_sim.evaluate_recorded(&config_c, &mut mem),
    );
    println!(
        "obs/flow inert={} events={}",
        render(&plain) == render(&recorded),
        mem.events().len()
    );

    let opts = TupleSimOptions {
        window_s: 20.0,
        max_events: 2_000_000,
        ..Default::default()
    };
    let tuple_sim = ok(
        "inert tuple simulator",
        TupleSimulator::new(contended.clone(), cluster.clone(), opts),
    );
    let plain = ok("inert tuple config", tuple_sim.evaluate(&config_c));
    let mut mem = MemRecorder::new();
    let recorded = ok(
        "inert tuple config",
        tuple_sim.evaluate_recorded(&config_c, &mut mem),
    );
    println!(
        "obs/tuples inert={} events={}",
        render(&plain) == render(&recorded),
        mem.events().len()
    );

    // A short traced experiment: result bitwise-equal to the untraced run,
    // trace files from two identical runs byte-identical.
    let dir = std::env::temp_dir()
        .join("mtm-determinism-probe-obs")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    if std::fs::create_dir_all(&dir).is_err() {
        println!("obs/experiment <scratch dir unavailable>");
        return;
    }
    let topo = contended.clone();
    let make = move |seed: u64| Strategy::bo(&topo, ParamSet::Hints, seed);
    let run_opts = RunOptions {
        max_steps: 5,
        confirm_reps: 2,
        passes: 1,
        seed: 0xB0,
        ..Default::default()
    };
    let ropts = RunnerOptions::serial();
    let untraced = run_experiment_traced(
        "probe/obs",
        &make,
        objective,
        &run_opts,
        &ropts,
        None,
        false,
        &mut NullRecorder,
    );
    let run_once = |i: usize| -> (Vec<u8>, bool) {
        let path = dir.join(format!("trace-{i}.jsonl"));
        let mut rec = match JsonlRecorder::create(&path, "probe/obs", run_opts.seed) {
            Ok(r) => r,
            Err(_) => return (Vec::new(), false),
        };
        let traced = run_experiment_traced(
            "probe/obs",
            &make,
            objective,
            &run_opts,
            &ropts,
            None,
            false,
            &mut rec,
        );
        if rec.finish().is_err() {
            return (Vec::new(), false);
        }
        let inert = match (&untraced, &traced) {
            (Ok(a), Ok(b)) => canonical_result_json(&a.result) == canonical_result_json(&b.result),
            _ => false,
        };
        (std::fs::read(&path).unwrap_or_default(), inert)
    };
    let (trace_a, inert) = run_once(0);
    let (trace_b, _) = run_once(1);
    println!("obs/experiment inert={inert}");
    println!(
        "obs/trace identical={} bytes={}",
        !trace_a.is_empty() && trace_a == trace_b,
        trace_a.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run + truncate + resume one journaled experiment `exp_id` and print
/// the canonical (wall-clock-zeroed) JSON of the uninterrupted and the
/// resumed result, each line prefixed with `label`.
fn journal_replay_section(
    objective: &Objective,
    label: &str,
    exp_id: &str,
    opts: &RunOptions,
    ropts: &RunnerOptions,
) {
    let dir = std::env::temp_dir()
        .join("mtm-determinism-probe")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    if std::fs::create_dir_all(&dir).is_err() {
        println!("{label}/full <scratch dir unavailable>");
        println!("{label}/resumed <scratch dir unavailable>");
        return;
    }
    let segment = dir.join("probe.jsonl");

    let topo = objective.topology().clone();
    let make = move |seed: u64| Strategy::bo(&topo, ParamSet::Hints, seed);

    let full =
        run_experiment_journaled(exp_id, &make, objective, opts, ropts, Some(&segment), false);
    // Truncate mid-run and mid-line (the loader tolerates torn tails).
    if let Ok(bytes) = std::fs::read(&segment) {
        let _ = std::fs::write(&segment, bytes.get(..record_cut(&bytes)).unwrap_or(&[]));
    }
    let resumed =
        run_experiment_journaled(exp_id, &make, objective, opts, ropts, Some(&segment), true);
    match (full, resumed) {
        (Ok(full), Ok(resumed)) => {
            let a = canonical_result_json(&full.result);
            let b = canonical_result_json(&resumed.result);
            println!("{label}/full {a}");
            println!("{label}/resumed {b}");
            println!("{label}/equiv {}", a == b);
            if ropts.threads == 1 {
                println!(
                    "{label}/replay replayed={} measured={} divergences={}",
                    resumed.stats.replayed,
                    resumed.stats.measured,
                    resumed.stats.replay_divergences
                );
            } else {
                // Which records land before the cut depends on the
                // threads' append order, so only the totals print.
                println!(
                    "{label}/replay trials={} replayed_some={} divergences={}",
                    resumed.stats.trials(),
                    resumed.stats.replayed > 0,
                    resumed.stats.replay_divergences
                );
            }
            println!(
                "{label}/faults injected={} exhausted={}",
                full.stats.injected_failures, full.stats.retries_exhausted
            );
        }
        (full, resumed) => {
            println!(
                "{label}/error full_err={} resumed_err={}",
                full.is_err(),
                resumed.is_err()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset that keeps the first 60% of the lines in `bytes` whole and
/// tears the next one in half. Counting lines rather than bytes keeps the
/// cut on the same record when wall-clock digits change a line's length.
fn record_cut(bytes: &[u8]) -> usize {
    let ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let k = ends.len() * 6 / 10;
    let start = k
        .checked_sub(1)
        .and_then(|i| ends.get(i))
        .copied()
        .unwrap_or(0);
    let end = ends.get(k).copied().unwrap_or(bytes.len());
    start + (end - start) / 2
}

/// Unwrap a probe-internal `Result` without a panic site: probe output
/// must stay diffable, and a backtrace on stdout/stderr is neither
/// deterministic nor useful here.
fn ok<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("determinism_probe: {what}: {e}");
            std::process::exit(2);
        }
    }
}

/// Serialize a metrics struct to canonical JSON (object keys are sorted by
/// the vendored serializer, floats print shortest-round-trip).
fn render<T: serde::Serialize>(value: &T) -> String {
    match serde_json::to_string(value) {
        Ok(s) => s,
        Err(e) => format!("<serialize error: {e}>"),
    }
}

/// Decimal shortest representation plus raw bits — a decimal tie could in
/// principle hide a 1-ulp difference, the bit pattern cannot.
fn float_bits(x: f64) -> String {
    format!("{x} bits={:016x}", x.to_bits())
}
