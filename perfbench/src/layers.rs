//! Tuning sessions, their output checks, and per-layer attribution.
//!
//! Attribution works from outside the program: the benchmark times its
//! own calls into each crate's public functions and seams, and reads the
//! surrogate's timings off `Event::Propose` through a wall-clock
//! [`Recorder`] on the real `run_experiment_traced` path.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mtm_core::{pass_seed, ExperimentResult, Objective, ParamSet, RunOptions, Strategy};
use mtm_obs::{Event, Recorder};
use mtm_runner::hash::config_hash;
use mtm_runner::journal::{load_segment, Journal, Record};
use mtm_runner::segment::load_prefix;
use mtm_runner::{
    canonical_result_json, run_experiment_journaled, run_experiment_traced, Outcome, RunnerOptions,
};
use mtm_stormsim::Topology;

use crate::meta::own_cpu_seconds;
use crate::report::Report;
use crate::stats::{mean, tail};

/// Builds a fresh strategy for a pass seed.
pub type Factory = Box<dyn Fn(u64) -> Strategy + Sync>;

/// One tuning session: a strategy on an objective under a protocol.
pub struct Plan {
    /// Experiment id (journal header).
    pub exp_id: String,
    /// What every trial measures.
    pub objective: Arc<Objective>,
    /// Protocol budget and seed.
    pub opts: RunOptions,
    /// Per-pass strategy factory.
    pub make: Factory,
}

/// The strategy table of the experiment grid, for `label` on `topo`.
pub fn factory(label: &str, topo: &Topology) -> Factory {
    let topo = topo.clone();
    let label = label.to_string();
    Box::new(move |seed| match label.as_str() {
        "pla" => Strategy::pla(),
        "ipla" => Strategy::ipla(&topo),
        "bo" => Strategy::bo(&topo, ParamSet::Hints, seed),
        "ibo" => Strategy::ibo(&topo, seed),
        "random" => Strategy::random(&topo, ParamSet::Hints, seed),
        "tpe" => Strategy::tpe(&topo, ParamSet::Hints, seed),
        _ => Strategy::hyperband(&topo, ParamSet::Hints, seed),
    })
}

/// One finished session.
pub struct Ran {
    /// What the engine returned.
    pub outcome: Outcome,
    /// Wall seconds of the engine call.
    pub wall_s: f64,
    /// CPU seconds this process spent during it (all threads).
    pub cpu_s: f64,
}

/// Run `plan` through the journaled engine, journaled to `segment` (or in
/// memory when `None`). Sessions run serially: on a 2-core machine a second
/// runner thread leaves no core for the rest of the system, and the spread
/// of the propose-time median across runs grew from ±4% to ±10% with it.
pub fn run(plan: &Plan, segment: Option<&Path>) -> Result<Ran, String> {
    let cpu0 = own_cpu_seconds();
    let t = Instant::now();
    let outcome = run_experiment_journaled(
        &plan.exp_id,
        &*plan.make,
        &plan.objective,
        &plan.opts,
        &RunnerOptions::serial(),
        segment,
        false,
    )
    .map_err(|e| format!("{}: {e}", plan.exp_id))?;
    Ok(Ran {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: own_cpu_seconds() - cpu0,
        outcome,
    })
}

/// The segment at `path` must reload to a `Done` equal to `result`.
pub fn check_segment(path: &Path, result: &ExperimentResult) -> Result<(), String> {
    let data = load_segment(path)
        .map_err(|e| format!("reload {}: {e}", path.display()))?
        .ok_or_else(|| format!("segment {} is missing", path.display()))?;
    match data.done {
        Some(done) if canonical_result_json(&done) == canonical_result_json(result) => Ok(()),
        Some(_) => Err(format!(
            "segment {} reloads to a different result",
            path.display()
        )),
        None => Err(format!("segment {} has no Done record", path.display())),
    }
}

/// Keeps the events attribution reads, with wall-clock capture on.
#[derive(Default)]
struct Tap {
    events: Vec<Event>,
}

impl Recorder for Tap {
    fn wallclock(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if matches!(event, Event::Propose { .. } | Event::PassStart { .. }) {
            self.events.push(event);
        }
    }
}

/// Timed `config_hash` + `Objective::measure` pairs per plan list: enough
/// for a p99 with ten samples beyond it.
const EVAL_SAMPLES: usize = 1000;

/// Propose paths reported by name; every other path counts as `other`.
const PATHS: [(&str, &str); 6] = [
    ("bayesopt.path.design", "design"),
    ("bayesopt.path.incremental", "incremental"),
    ("bayesopt.path.replay", "replay"),
    ("bayesopt.path.fresh", "fresh"),
    ("bayesopt.path.uniform", "uniform"),
    ("bayesopt.path.linear", "linear"),
];

/// Where a plan list's serial wall time went.
#[derive(Debug, Default)]
pub struct Layers {
    traced_wall_s: f64,
    plain_wall_s: f64,
    unjournaled_wall_s: f64,
    propose_s: f64,
    construct_s: f64,
    sim_s: f64,
    hash_s: f64,
    journal_s: f64,
    propose_ms: Vec<f64>,
    eval_us: Vec<f64>,
    evaluations: u64,
    trials: u64,
    refits: u64,
    pool_sum: u64,
    proposals: u64,
    paths: BTreeMap<String, u64>,
    journal_records: u64,
    journal_bytes: u64,
}

/// Run every plan serially five ways (see `attribute_one`), check they
/// agree, and attribute the traced run's wall time to the layers.
pub fn attribute(plans: &[Plan], work: &Path, report: &mut Report) -> Layers {
    let mut layers = Layers::default();
    let per_plan = EVAL_SAMPLES.div_ceil(plans.len().max(1));
    for (i, plan) in plans.iter().enumerate() {
        report.attempt(1);
        if let Err(e) = attribute_one(plan, i, per_plan, work, &mut layers) {
            report.fail(&e);
        }
    }
    layers
}

fn attribute_one(
    plan: &Plan,
    i: usize,
    eval_calls: usize,
    work: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let plain_seg = work.join(format!("attr{i}-plain.jsonl"));
    let traced_seg = work.join(format!("attr{i}-traced.jsonl"));
    let replay_seg = work.join(format!("attr{i}-replay.jsonl"));

    // In memory, journaled, traced, journaled, in memory: the symmetric
    // order cancels slow drift out of the overhead differences.
    let bare_first = run(plan, None)?;
    let plain_first = run(plan, Some(&plain_seg))?;
    check_segment(&plain_seg, &plain_first.outcome.result)?;
    let mut tap = Tap::default();
    let t = Instant::now();
    let traced = run_experiment_traced(
        &plan.exp_id,
        &*plan.make,
        &plan.objective,
        &plan.opts,
        &RunnerOptions::serial(),
        Some(&traced_seg),
        false,
        &mut tap,
    )
    .map_err(|e| format!("{} traced: {e}", plan.exp_id))?;
    let traced_wall_s = t.elapsed().as_secs_f64();
    check_segment(&traced_seg, &traced.result)?;
    let plain_last = run(plan, Some(&plain_seg))?;
    check_segment(&plain_seg, &plain_last.outcome.result)?;
    let bare_last = run(plan, None)?;

    let canonical = canonical_result_json(&traced.result);
    let differs = |r: &Ran| canonical_result_json(&r.outcome.result) != canonical;
    if differs(&plain_first) || differs(&plain_last) {
        return Err(format!("{}: recording changed the result", plan.exp_id));
    }
    if differs(&bare_first) || differs(&bare_last) {
        return Err(format!("{}: journaling changed the result", plan.exp_id));
    }

    // bayesopt: building each pass's strategy (search space and optimizer
    // state), the optimizer's wall time per step, and the surrogate's own
    // account of each proposal.
    for p in 0..plan.opts.passes.max(1) {
        let t = Instant::now();
        std::hint::black_box((plan.make)(pass_seed(plan.opts.seed, p)));
        layers.construct_s += t.elapsed().as_secs_f64();
    }
    let step_s = |pass: usize, step: usize| {
        traced
            .result
            .passes
            .get(pass)
            .and_then(|p| p.steps.get(step))
            .map(|s| s.optimizer_time_s)
    };
    let mut pass = 0;
    for event in &tap.events {
        match event {
            Event::PassStart { pass: p, .. } => pass = *p,
            Event::Propose {
                step,
                path,
                refit,
                pool,
                wall_ns,
                ..
            } => {
                let secs = wall_ns
                    .map(|ns| ns as f64 * 1e-9)
                    .or_else(|| step_s(pass, *step))
                    .unwrap_or(0.0);
                layers.propose_ms.push(secs * 1e3);
                layers.refits += u64::from(*refit);
                layers.pool_sum += *pool as u64;
                layers.proposals += 1;
                *layers.paths.entry(path.to_string()).or_default() += 1;
            }
            _ => {}
        }
    }
    layers.propose_s += traced
        .result
        .passes
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.optimizer_time_s)
        .sum::<f64>();

    // stormsim and the runner's trial key: each measured trial hashes its
    // configuration, then simulates it. Time that pair on configurations
    // this session visited, in the same order so caches behave alike, and
    // scale by the number the session really made.
    let objective = &plan.objective;
    let configs: Vec<_> = std::iter::once(objective.base_config())
        .chain(traced.result.passes.iter().map(|p| &p.best_config))
        .collect();
    let mut hash_s = Vec::with_capacity(eval_calls);
    let mut eval_s = Vec::with_capacity(eval_calls);
    for k in 0..eval_calls {
        let config = std::hint::black_box(configs[k % configs.len()]);
        let t = Instant::now();
        std::hint::black_box(config_hash(config));
        hash_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(objective.measure(config, k as u64));
        eval_s.push(t.elapsed().as_secs_f64());
    }
    layers.sim_s += mean(&eval_s) * traced.stats.measured as f64;
    layers.eval_us.extend(eval_s.iter().map(|s| s * 1e6));
    layers.evaluations += traced.stats.measured;

    // runner journal: the trial keys (one per step trial, one more for the
    // confirmed winner) and the session's own records appended again.
    let (lines, bytes) = load_prefix::<Record>(&traced_seg)
        .map_err(|e| format!("scan {}: {e}", traced_seg.display()))?
        .ok_or_else(|| format!("segment {} is missing", traced_seg.display()))?;
    let hashes = 1 + lines
        .iter()
        .filter(|l| matches!(l.record, Record::Trial(_)))
        .count();
    layers.hash_s += mean(&hash_s) * hashes as f64;
    let t = Instant::now();
    let journal = Journal::open_append(&replay_seg, 0).map_err(|e| e.to_string())?;
    for line in &lines {
        journal.append(&line.record).map_err(|e| e.to_string())?;
    }
    drop(journal);
    layers.journal_s += t.elapsed().as_secs_f64();
    layers.journal_records += lines.len() as u64;
    layers.journal_bytes += bytes;

    layers.traced_wall_s += traced_wall_s;
    layers.plain_wall_s += (plain_first.wall_s + plain_last.wall_s) / 2.0;
    layers.unjournaled_wall_s += (bare_first.wall_s + bare_last.wall_s) / 2.0;
    layers.trials += traced.stats.trials();
    for path in [&plain_seg, &traced_seg, &replay_seg] {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Report the per-layer metrics of a plan list.
pub fn emit(layers: &Layers, report: &mut Report) {
    // Shares are of the traced run's wall time, the run the optimizer's
    // times come from; what tracing itself costs is `trace.overhead_s`.
    let wall = layers.traced_wall_s.max(f64::MIN_POSITIVE);
    let bayesopt = layers.propose_s / wall;
    let construct = layers.construct_s / wall;
    let stormsim = layers.sim_s / wall;
    let journal = (layers.journal_s + layers.hash_s) / wall;
    report.metric(
        "bayesopt.propose_ms_p50",
        tail(&layers.propose_ms, 0.5).value,
    );
    report.metric(
        "bayesopt.propose_ms_p99",
        tail(&layers.propose_ms, 0.99).value,
    );
    report.metric("bayesopt.busy_share", bayesopt);
    report.metric("bayesopt.setup_share", construct);
    report.metric("bayesopt.refits", layers.refits as f64);
    report.metric(
        "bayesopt.pool_mean",
        layers.pool_sum as f64 / layers.proposals.max(1) as f64,
    );
    for (name, path) in PATHS {
        report.metric(name, layers.paths.get(path).copied().unwrap_or(0) as f64);
    }
    let other: u64 = layers
        .paths
        .iter()
        .filter(|(path, _)| !PATHS.iter().any(|(_, p)| p == path))
        .map(|(_, n)| n)
        .sum();
    report.metric("bayesopt.path.other", other as f64);
    report.metric("stormsim.evaluate_us_p50", tail(&layers.eval_us, 0.5).value);
    report.metric(
        "stormsim.evaluate_us_p99",
        tail(&layers.eval_us, 0.99).value,
    );
    report.metric("stormsim.evaluations", layers.evaluations as f64);
    report.metric("stormsim.busy_share", stormsim);
    report.metric("runner.journal.records", layers.journal_records as f64);
    report.metric(
        "runner.journal.bytes_per_trial",
        layers.journal_bytes as f64 / layers.trials.max(1) as f64,
    );
    report.metric(
        "runner.journal.overhead_s",
        layers.plain_wall_s - layers.unjournaled_wall_s,
    );
    report.metric("runner.journal.busy_share", journal);
    report.metric("runner.journal.hash_share", layers.hash_s / wall);
    report.metric(
        "core.unattributed_share",
        1.0 - bayesopt - construct - stormsim - journal,
    );
    report.metric(
        "trace.overhead_s",
        layers.traced_wall_s - layers.plain_wall_s,
    );
    report.meta("traced_wall_s", layers.traced_wall_s);
    report.meta("untraced_wall_s", layers.plain_wall_s);
    report.meta("propose_samples", layers.propose_ms.len());
    report.meta("evaluate_samples", layers.eval_us.len());
}
