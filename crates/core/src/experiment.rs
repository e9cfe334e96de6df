//! The §V experimental protocol.
//!
//! One **pass** runs a strategy for up to `max_steps` optimization steps
//! (60 in the paper; 180 for `bo180`), measuring one two-minute run per
//! step and recording the wall-clock time the optimizer itself needed to
//! choose the configuration (Fig. 7's metric). Linear strategies stop
//! early after three consecutive zero-throughput runs, exactly as §V-A
//! describes.
//!
//! A full **experiment** runs two passes with different seeds ("we
//! repeated the procedure and graphed the better of the two optimization
//! passes"), keeps the better, then re-runs its best configuration 30
//! times for the reported average/min/max. `mtm-runner`'s engine is the
//! one implementation of that protocol; this module owns the pass loop
//! and the records it shares.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use mtm_obs::event::finite_or_zero;
use mtm_obs::{Event, Recorder};
use mtm_stormsim::StormConfig;

use crate::objective::Objective;
use crate::strategy::Strategy;

/// Protocol options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOptions {
    /// Optimization steps per pass (paper: 60; `bo180`: 180).
    pub max_steps: usize,
    /// Early stop for linear strategies after this many consecutive
    /// zero-throughput measurements.
    pub zero_stop: usize,
    /// Confirmation re-runs of the best configuration (paper: 30).
    pub confirm_reps: usize,
    /// Optimization passes; the best is kept (paper: 2).
    pub passes: usize,
    /// Measurements averaged per optimization step. The paper used one
    /// 2-minute run per step and notes in §VI that "our setup could be
    /// improved by running each sampling run multiple times and by using
    /// the average performance" — setting this above 1 enables exactly
    /// that extension (see the `ablations` bench).
    pub measure_reps: usize,
    /// Base seed; pass `p` of an experiment derives its seed from this.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_steps: 60,
            zero_stop: 3,
            confirm_reps: 30,
            passes: 2,
            measure_reps: 1,
            seed: 0xE0,
        }
    }
}

/// Where in the §V protocol a measurement happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialKind {
    /// One optimization-step evaluation inside a pass.
    Step,
    /// One confirmation re-run of the winning configuration.
    Confirm,
}

/// Coordinates of one measurement within an experiment. The pass index is
/// not part of the context: a [`Measure`] implementation is scoped to one
/// pass (or to the confirmation phase) and carries that knowledge itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// Seed of the enclosing pass (for [`TrialKind::Confirm`], the
    /// experiment's base seed).
    pub seed: u64,
    /// Optimization step, 0-based (0 for confirmation runs).
    pub step: usize,
    /// Repetition within the step (`measure_reps`) or the confirmation
    /// index.
    pub rep: usize,
    /// Step vs. confirmation measurement.
    pub kind: TrialKind,
}

impl TrialCtx {
    /// The deterministic run id this trial measures under — the protocol's
    /// seed-derivation scheme (see DESIGN.md "Execution engine").
    pub fn run_id(&self) -> u64 {
        match self.kind {
            TrialKind::Step => step_run_id(self.seed, self.step, self.rep),
            TrialKind::Confirm => confirm_run_id(self.seed, self.rep as u64),
        }
    }
}

/// Run-id derivation for an optimization-step measurement: folds the pass
/// seed, step and repetition together so every measurement has an
/// independent noise draw, identically in serial and parallel execution.
pub fn step_run_id(seed: u64, step: usize, rep: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((step * 1_000 + rep) as u64)
}

/// Run-id derivation for a confirmation re-run of the best configuration.
pub fn confirm_run_id(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(0xDEAD_BEEF_CAFE_F00D).wrapping_add(rep)
}

/// How a pass obtains its measured throughput values.
///
/// The default implementation ([`DirectMeasure`]) simulates; `mtm-runner`
/// interposes here to add journaling, replay-on-resume and fault
/// injection without touching the protocol loop.
pub trait Measure {
    /// Measure `config` once per trial context — the reps of one
    /// optimization step — appending one value per context to `out`, in
    /// context order. Value `i` is the objective's noise draw for
    /// `ctxs[i].run_id()` (or a salted retry id) around one deterministic
    /// simulation of `config`, which implementations run at most once per
    /// call: a rep costs its noise draw, not a re-run of the simulator.
    fn measure_batch(
        &mut self,
        objective: &Objective,
        config: &StormConfig,
        ctxs: &[TrialCtx],
        out: &mut Vec<f64>,
    );

    /// Session-scoped cancellation seam: the pass loop polls this once
    /// per optimization step and stops the pass early when it returns
    /// `true`. The default (`false`) keeps batch execution exactly as
    /// before; a service layer (e.g. `mtm-serve`) wires it to a shared
    /// abort flag so a long-lived session can be cancelled between
    /// trials without tearing down the process. An aborted pass returns
    /// the steps measured so far — it is the *caller's* job to treat the
    /// pass as unfinished (the journaled engine refuses to mark an
    /// aborted pass done, so a later resume replays and completes it
    /// bitwise-identically).
    fn poll_abort(&self) -> bool {
        false
    }
}

/// The plain measurement path: one simulation per step, one noise draw
/// per trial keyed by the protocol's deterministic run id.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectMeasure;

impl Measure for DirectMeasure {
    // mtm-cold: one batch of whole evaluation runs per step; per-batch
    // setup allocates by design, and the solver has its own hot root.
    fn measure_batch(
        &mut self,
        objective: &Objective,
        config: &StormConfig,
        ctxs: &[TrialCtx],
        out: &mut Vec<f64>,
    ) {
        objective.measure_many(config, ctxs.iter().map(|c| c.run_id()), out);
    }
}

/// One optimization step's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index, 0-based.
    pub step: usize,
    /// Measured throughput (tuples/s).
    pub throughput: f64,
    /// Wall-clock seconds the optimizer took to choose this configuration.
    pub optimizer_time_s: f64,
}

/// The outcome of one optimization pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassResult {
    /// Strategy label.
    pub strategy: String,
    /// Per-step trajectory.
    pub steps: Vec<StepRecord>,
    /// Best configuration found.
    pub best_config: StormConfig,
    /// Best measured throughput.
    pub best_throughput: f64,
    /// Step at which the best was first measured (Fig. 5's metric).
    pub best_step: usize,
}

/// A full experiment: the better of `passes` passes plus confirmation
/// runs of its best configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Strategy label.
    pub strategy: String,
    /// Every pass, in order; `best_pass` indexes the winner.
    pub passes: Vec<PassResult>,
    /// Index of the winning pass.
    pub best_pass: usize,
    /// The 30 confirmation measurements of the winning configuration.
    pub confirmation: Vec<f64>,
}

impl ExperimentResult {
    /// Mean confirmed throughput.
    pub fn mean(&self) -> f64 {
        if self.confirmation.is_empty() {
            return 0.0;
        }
        self.confirmation.iter().sum::<f64>() / self.confirmation.len() as f64
    }

    /// Min and max confirmed throughput (the paper's error bars).
    pub fn min_max(&self) -> (f64, f64) {
        let min = self
            .confirmation
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .confirmation
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if self.confirmation.is_empty() {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }

    /// The winning pass.
    pub fn winner(&self) -> &PassResult {
        &self.passes[self.best_pass]
    }

    /// Convergence metrics over the passes: (min, avg, max) of the
    /// first-best step — what Fig. 5 plots.
    pub fn convergence_steps(&self) -> (usize, f64, usize) {
        let steps: Vec<usize> = self.passes.iter().map(|p| p.best_step).collect();
        let min = *steps.iter().min().unwrap_or(&0);
        let max = *steps.iter().max().unwrap_or(&0);
        let avg = steps.iter().sum::<usize>() as f64 / steps.len().max(1) as f64;
        (min, avg, max)
    }
}

/// Run one optimization pass, obtaining every measurement through
/// `measure`. This is the single implementation of the §V pass loop —
/// early stop, best tracking and repetition averaging live here, while
/// `measure` decides whether a trial is simulated or replayed from a
/// journal.
///
/// Instrumentation goes to `rec`: per-proposal surrogate events (via
/// [`Strategy::propose_traced`]) and one [`Event::Trial`] per
/// measurement, carrying the deterministic run id that links the trace
/// line to the runner journal. The pass result is bitwise identical with
/// any recorder.
// mtm-allow: wall-clock -- optimizer_time_s is the paper's Fig. 7 cost
// metric: it is recorded per step but never fed back into any decision.
// mtm-hot: trial-loop
pub fn run_pass_traced<R: Recorder>(
    strategy: &mut Strategy,
    objective: &Objective,
    opts: &RunOptions,
    measure: &mut dyn Measure,
    rec: &mut R,
) -> PassResult {
    let topo = objective.topology();
    // mtm-allow: alloc -- one baseline copy per pass, before the loop.
    let base = objective.base_config().clone();
    let mut steps = Vec::with_capacity(opts.max_steps);
    let mut best_throughput = f64::NEG_INFINITY;
    // mtm-allow: alloc -- one incumbent copy per pass, before the loop.
    let mut best_config = base.clone();
    let mut best_step = 0;
    let mut consecutive_zero = 0;
    // Per-step rep buffers, hoisted so the trial loop reuses them
    // (`with_capacity` pre-sizing is the analyzer-sanctioned idiom).
    let base_reps = opts.measure_reps.max(1);
    let mut ctxs: Vec<TrialCtx> = Vec::with_capacity(base_reps);
    let mut ys: Vec<f64> = Vec::with_capacity(base_reps);

    for step in 0..opts.max_steps {
        if measure.poll_abort() {
            break; // session cancelled between trials — pass stays unfinished
        }
        let t0 = Instant::now();
        let Some(config) = strategy.propose_traced(topo, &base, step, rec) else {
            break;
        };
        let optimizer_time_s = t0.elapsed().as_secs_f64();

        // One (or, with the §VI extension, several averaged) two-minute
        // evaluation runs, issued as one batch so the measurement layer
        // can share simulation work across reps; run ids fold in the
        // seed, step and repetition so every measurement has an
        // independent noise draw, identically to per-rep calls. A
        // budget-allocating strategy (Hyperband) overrides the rep count
        // per step — its rung budget IS the measurement duration axis.
        let reps = strategy.measure_reps().unwrap_or(base_reps);
        ctxs.clear();
        // mtm-allow: alloc -- fills the rep-sized buffer pre-sized above the loop
        ctxs.extend((0..reps).map(|rep| TrialCtx {
            seed: opts.seed,
            step,
            rep,
            kind: TrialKind::Step,
        }));
        ys.clear();
        measure.measure_batch(objective, &config, &ctxs, &mut ys);
        if R::ENABLED {
            for (ctx, &y) in ctxs.iter().zip(&ys) {
                rec.record(Event::Trial {
                    step: ctx.step,
                    rep: ctx.rep,
                    run_id: ctx.run_id(),
                    y: finite_or_zero(y),
                });
            }
        }
        let throughput = ys.iter().sum::<f64>() / reps as f64;
        strategy.observe(throughput);
        // mtm-allow: alloc -- appends into capacity reserved for max_steps above
        steps.push(StepRecord {
            step,
            throughput,
            optimizer_time_s,
        });

        if throughput > best_throughput {
            best_throughput = throughput;
            best_config = config;
            best_step = step;
        }
        if strategy.is_linear() {
            if throughput <= 0.0 {
                consecutive_zero += 1;
                if consecutive_zero >= opts.zero_stop {
                    break; // §V-A's early stop for pla/ipla
                }
            } else {
                consecutive_zero = 0;
            }
        }
    }

    PassResult {
        // mtm-allow: alloc -- one label per completed pass.
        strategy: strategy.name().to_string(),
        steps,
        best_config,
        best_throughput: best_throughput.max(0.0),
        best_step,
    }
}

/// Seed of pass `p` within an experiment based at `base`: each pass
/// builds a fresh strategy from it.
pub fn pass_seed(base: u64, p: usize) -> u64 {
    base.wrapping_add(1 + p as u64)
}

/// Index of the winning pass: highest best throughput, last wins ties —
/// the protocol's tie-break. Finite throughputs order the same under
/// `total_cmp` as under partial comparison.
pub fn select_best_pass(passes: &[PassResult]) -> usize {
    passes
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.best_throughput.total_cmp(&b.best_throughput))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paramsets::ParamSet;
    use mtm_obs::NullRecorder;
    use mtm_stormsim::noise::MeasurementNoise;
    use mtm_stormsim::ClusterSpec;
    use mtm_topogen::{make_condition, Condition, SizeClass};

    fn small_objective() -> Objective {
        let topo = make_condition(
            SizeClass::Small,
            &Condition {
                time_imbalance: 0.0,
                contention: 0.0,
            },
            7,
        );
        Objective::new(topo, ClusterSpec::paper_cluster())
    }

    fn quick_opts() -> RunOptions {
        RunOptions {
            max_steps: 10,
            confirm_reps: 4,
            passes: 2,
            ..Default::default()
        }
    }

    #[test]
    fn pla_pass_improves_over_first_step() {
        let obj = small_objective();
        let mut s = Strategy::pla();
        let pass = run_pass_traced(
            &mut s,
            &obj,
            &quick_opts(),
            &mut DirectMeasure,
            &mut NullRecorder,
        );
        assert!(!pass.steps.is_empty());
        assert!(pass.best_throughput >= pass.steps[0].throughput);
        assert_eq!(pass.strategy, "pla");
        // pla's optimizer cost is negligible (Fig. 7: "barely visible").
        let optimizer_s: f64 = pass.steps.iter().map(|s| s.optimizer_time_s).sum();
        assert!(optimizer_s / (pass.steps.len() as f64) < 0.01);
    }

    #[test]
    fn bo_pass_runs_and_observes() {
        let obj = small_objective();
        let mut s = Strategy::bo(obj.topology(), ParamSet::Hints, 3);
        let pass = run_pass_traced(
            &mut s,
            &obj,
            &quick_opts(),
            &mut DirectMeasure,
            &mut NullRecorder,
        );
        assert_eq!(pass.steps.len(), 10);
        assert!(pass.best_throughput > 0.0);
    }

    #[test]
    fn zero_stop_terminates_linear_strategies() {
        // A topology where every configuration fails: zero throughput
        // every step; pla must stop after `zero_stop` runs.
        let topo = make_condition(
            SizeClass::Small,
            &Condition {
                time_imbalance: 0.0,
                contention: 0.0,
            },
            7,
        );
        let mut base = mtm_stormsim::StormConfig::baseline(topo.n_nodes());
        base.batch_size = 50_000_000; // guaranteed to time out
        let obj = Objective::new(topo, ClusterSpec::paper_cluster())
            .with_base(base)
            .with_noise(MeasurementNoise::none());
        let mut s = Strategy::pla();
        let pass = run_pass_traced(
            &mut s,
            &obj,
            &RunOptions {
                max_steps: 60,
                ..Default::default()
            },
            &mut DirectMeasure,
            &mut NullRecorder,
        );
        assert_eq!(pass.steps.len(), 3, "stopped after three zero runs");
        assert_eq!(pass.best_throughput, 0.0);
    }
}
