//! The journaled experiment execution engine.
//!
//! One call to [`run_experiment_journaled`] executes the full §V protocol
//! for one experiment — passes, best-pass selection, confirmation runs —
//! while interposing on every measurement through [`mtm_core::Measure`]:
//!
//! * every trial is **journaled** (appended + flushed before its value is
//!   used), so a crash loses at most one in-flight measurement;
//! * on resume, journaled trials **replay** into a fresh strategy through
//!   the ordinary `propose`/`observe` interface: the strategy re-proposes
//!   (deterministically, from its seed), the proposal's hash is verified
//!   against the journal, and the recorded value is fed back without
//!   touching the simulator — surrogate state is rebuilt, not stored;
//! * measurements go through the **fault plan**: injected failures are
//!   retried with salted run ids, exhaustion reports zero throughput;
//! * a step's reps and the confirmation runs **share one simulation** of
//!   their configuration (and one config hash): each rep draws only its
//!   own noise, so values and journal rows match per-rep measurement.
//!
//! Determinism contract: for a fixed ([`RunOptions`], [`RunnerOptions`]
//! minus `threads`), the result is bitwise-identical whether the run is
//! serial, parallel, interrupted-and-resumed, or all three — except the
//! `optimizer_time_s` wall-clock fields, the workspace's one sanctioned
//! nondeterminism (see [`canonical_result_json`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mtm_core::{
    confirm_run_id, pass_seed, run_pass_traced, select_best_pass, ExperimentResult, Measure,
    Objective, PassResult, RunOptions, Strategy, TrialCtx,
};
use mtm_obs::event::finite_or_zero;
use mtm_obs::{Event, MemRecorder, NullRecorder, Recorder};
use mtm_stats::pool;
use mtm_stormsim::StormConfig;
use serde::Serialize;

use crate::error::RunnerError;
use crate::fault::FaultPlan;
use crate::hash::{config_hash, fnv1a64};
use crate::journal::{
    load_segment, ConfirmRecord, Header, Journal, PassDone, Record, SegmentData, TrialRecord,
    SCHEMA_VERSION,
};

/// Execution options orthogonal to the protocol's [`RunOptions`].
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads for independent units (passes, confirmation reps;
    /// grid cells at the layer above). `0` or `1` runs serially. Not part
    /// of the journal fingerprint: thread count never changes results.
    pub threads: usize,
    /// Fault injection and retry policy.
    pub faults: FaultPlan,
    /// Session abort flag — how `mtm-serve` cancels a long-lived session.
    /// When it flips to `true` the run stops at the next trial boundary
    /// and returns [`RunnerError::Canceled`]; journaled trials up to that
    /// point stay valid, no `PassDone`/`Done` record is written for
    /// interrupted phases, and a later resume completes the experiment
    /// bitwise-identically to an uninterrupted run. `None` is batch
    /// execution. Not part of the journal fingerprint, like `threads`.
    pub abort: Option<Arc<AtomicBool>>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            threads: 1,
            faults: FaultPlan::default(),
            abort: None,
        }
    }
}

impl RunnerOptions {
    /// Serial and fault-free — the reference configuration.
    pub fn serial() -> RunnerOptions {
        RunnerOptions::default()
    }

    /// Parallel over `threads` workers, otherwise the reference
    /// configuration.
    pub fn parallel(threads: usize) -> RunnerOptions {
        RunnerOptions {
            threads,
            ..Default::default()
        }
    }
}

/// Counters describing how an experiment's trials were satisfied.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TrialStats {
    /// Trials measured fresh: one noise draw each around their step's
    /// (or the confirmation phase's) one shared simulation, so this
    /// counts measurements, not simulator runs.
    pub measured: u64,
    /// Trials replayed from the journal on resume.
    pub replayed: u64,
    /// Injected measurement failures encountered (each consumed one
    /// attempt).
    pub injected_failures: u64,
    /// Trials that exhausted every attempt and reported zero throughput.
    pub retries_exhausted: u64,
    /// Replay mismatches (journal vs. re-proposed configuration) — 0
    /// unless the code or seed drifted under a live journal.
    pub replay_divergences: u64,
}

impl TrialStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, other: &TrialStats) {
        self.measured += other.measured;
        self.replayed += other.replayed;
        self.injected_failures += other.injected_failures;
        self.retries_exhausted += other.retries_exhausted;
        self.replay_divergences += other.replay_divergences;
    }

    /// Total trials satisfied by any means.
    pub fn trials(&self) -> u64 {
        self.measured + self.replayed
    }
}

/// Outcome of a journaled experiment.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The experiment result (identical to what direct execution
    /// produces).
    pub result: ExperimentResult,
    /// How its trials were satisfied.
    pub stats: TrialStats,
    /// `true` when a valid journal segment contributed records.
    pub resumed: bool,
}

/// Fingerprint of everything besides the seed that shapes an experiment's
/// results. A journal segment whose header fingerprint differs is stale
/// and gets discarded — this is what fixes the old cache's silent
/// staleness (a changed seed, budget, schema or fault plan re-runs
/// instead of serving old numbers).
pub fn fingerprint(exp_id: &str, opts: &RunOptions, ropts: &RunnerOptions) -> u64 {
    let canonical = format!(
        "v{}|{}|seed={}|steps={}|zero={}|confirm={}|passes={}|reps={}|frate={}|fseed={}|fretries={}",
        SCHEMA_VERSION,
        exp_id,
        opts.seed,
        opts.max_steps,
        opts.zero_stop,
        opts.confirm_reps,
        opts.passes,
        opts.measure_reps,
        ropts.faults.fail_rate,
        ropts.faults.seed,
        ropts.faults.max_retries,
    );
    fnv1a64(canonical.as_bytes())
}

/// Serialize a result with the `optimizer_time_s` wall-clock fields
/// zeroed — the canonical byte representation determinism checks compare.
pub fn canonical_result_json(result: &ExperimentResult) -> String {
    let mut r = result.clone();
    for pass in &mut r.passes {
        for step in &mut pass.steps {
            step.optimizer_time_s = 0.0;
        }
    }
    serde_json::to_string(&r).unwrap_or_default()
}

/// Measure `config` under the fault plan: retry injected failures with
/// salted run ids, report zero throughput on exhaustion. `sim` holds the
/// one simulation of `config` that every rep and retry shares; it is run
/// on the first attempt that is not injected to fail. Returns
/// `(value, run_id_used, attempts, injected, exhausted)`.
// mtm-allow: wall-clock -- the elapsed time only drives a stderr budget
// warning; the measured value itself comes from the seeded simulator.
fn measure_with_retry(
    objective: &Objective,
    config: &StormConfig,
    sim: &OnceLock<f64>,
    base_run_id: u64,
    faults: &FaultPlan,
) -> (f64, u64, u32, u64, bool) {
    let mut injected = 0u64;
    for attempt in 0..=faults.max_retries {
        let run_id = faults.attempt_run_id(base_run_id, attempt);
        if faults.injects_failure(run_id, attempt) {
            injected += 1;
            continue;
        }
        let t0 = Instant::now();
        let raw = *sim.get_or_init(|| objective.simulate(config));
        let value = objective.apply_noise(raw, run_id);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed > faults.timeout_s {
            eprintln!(
                "[runner] warning: measurement took {elapsed:.1}s (budget {:.1}s)",
                faults.timeout_s
            );
        }
        #[cfg(feature = "strict-invariants")]
        mtm_check::invariants::assert_finite_val("runner: measured throughput", value);
        return (value, run_id, attempt + 1, injected, false);
    }
    (0.0, base_run_id, faults.max_retries + 1, injected, true)
}

/// The journal-aware [`Measure`] implementation for one pass.
struct JournaledMeasure<'a> {
    journal: &'a Journal,
    pass: usize,
    /// `(step, rep)` → journaled trial, consumed by replay.
    replay: BTreeMap<(usize, usize), TrialRecord>,
    faults: FaultPlan,
    stats: TrialStats,
    /// Session abort flag ([`Measure::poll_abort`]); `None` for batch
    /// execution.
    abort: Option<&'a AtomicBool>,
    /// First journal-append failure; surfaced after the pass (the
    /// `Measure` trait has no error channel, and one lost record is
    /// recoverable — the run is only reported failed, not corrupted).
    io_error: Option<RunnerError>,
}

impl<'a> JournaledMeasure<'a> {
    fn new(
        journal: &'a Journal,
        pass: usize,
        replay: BTreeMap<(usize, usize), TrialRecord>,
        ropts: &'a RunnerOptions,
    ) -> Self {
        JournaledMeasure {
            journal,
            pass,
            replay,
            faults: ropts.faults,
            stats: TrialStats::default(),
            abort: ropts.abort.as_deref(),
            io_error: None,
        }
    }

    // mtm-cold: journal writes happen once per measured trial, behind the cold measure seam
    fn push(&mut self, record: Record) {
        if self.io_error.is_none() {
            if let Err(e) = self.journal.append(&record) {
                self.io_error = Some(e);
            }
        }
    }

    /// One rep of a step: replay it, or measure it under the fault plan
    /// and journal one [`TrialRecord`]. `hash` is `config`'s hash and `sim` its shared
    /// simulation, both computed once per step by the caller.
    // mtm-cold: one journaled two-minute evaluation run per trial;
    // journal IO is the per-trial cost by design.
    fn measure_rep(
        &mut self,
        objective: &Objective,
        config: &StormConfig,
        hash: u64,
        sim: &OnceLock<f64>,
        ctx: &TrialCtx,
    ) -> f64 {
        if let Some(rec) = self.replay.get(&(ctx.step, ctx.rep)) {
            if rec.config_hash == hash {
                self.stats.replayed += 1;
                return rec.throughput;
            }
            // The journal no longer matches what the strategy proposes
            // (code or seed drifted under a live journal). Stop trusting
            // it: re-measure from here on; fresh appends supersede the
            // stale rows (the loader is last-wins).
            eprintln!(
                "[runner] replay divergence at pass {} step {} rep {} — re-measuring tail",
                self.pass, ctx.step, ctx.rep
            );
            self.stats.replay_divergences += 1;
            self.replay.clear();
        }

        let (value, run_id, attempts, injected, exhausted) =
            measure_with_retry(objective, config, sim, ctx.run_id(), &self.faults);
        self.stats.measured += 1;
        self.stats.injected_failures += injected;
        if exhausted {
            self.stats.retries_exhausted += 1;
            eprintln!(
                "[runner] trial pass {} step {} rep {} failed {} attempts — recording zero",
                self.pass, ctx.step, ctx.rep, attempts
            );
        }
        self.push(Record::Trial(TrialRecord {
            pass: self.pass,
            step: ctx.step,
            rep: ctx.rep,
            config_hash: hash,
            run_id,
            throughput: value,
            attempts,
        }));
        value
    }
}

impl Measure for JournaledMeasure<'_> {
    fn poll_abort(&self) -> bool {
        self.abort.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// One hash and at most one simulation per step: the reps run in
    /// order through [`JournaledMeasure::measure_rep`], and the first rep
    /// that does not replay runs the simulation the later ones reuse.
    // mtm-cold: one batch of journaled evaluation runs per step; per-step
    // hashing and journal IO are the per-trial cost by design.
    fn measure_batch(
        &mut self,
        objective: &Objective,
        config: &StormConfig,
        ctxs: &[TrialCtx],
        out: &mut Vec<f64>,
    ) {
        let hash = config_hash(config);
        let sim = OnceLock::new();
        out.reserve(ctxs.len());
        for ctx in ctxs {
            let y = self.measure_rep(objective, config, hash, &sim, ctx);
            out.push(y);
        }
    }
}

/// Execute (or resume) one full experiment under the journal at
/// `segment`. `segment: None` runs purely in memory (no I/O, infallible
/// in practice); `resume: false` discards any existing segment and starts
/// fresh. See the module docs for the determinism contract.
pub fn run_experiment_journaled(
    exp_id: &str,
    make_strategy: &(dyn Fn(u64) -> Strategy + Sync),
    objective: &Objective,
    opts: &RunOptions,
    ropts: &RunnerOptions,
    segment: Option<&Path>,
    resume: bool,
) -> Result<Outcome, RunnerError> {
    run_experiment_traced(
        exp_id,
        make_strategy,
        objective,
        opts,
        ropts,
        segment,
        resume,
        &mut NullRecorder,
    )
}

/// [`run_experiment_journaled`] with instrumentation: per-pass spans
/// ([`Event::PassStart`]/[`Event::PassEnd`]), per-trial events carrying
/// the journal run ids, confirmation runs, and a closing
/// [`Event::ExperimentEnd`] go to `rec`.
///
/// Trace bytes are independent of the thread count: each parallel unit
/// (pass or confirmation rep) records into its own buffer, and the
/// buffers are spliced into `rec` in unit-index order — the same order a
/// serial run would have produced. The experiment result is bitwise
/// identical with any recorder.
#[allow(clippy::too_many_arguments)] // mirrors run_experiment_journaled + rec
pub fn run_experiment_traced<R: Recorder>(
    exp_id: &str,
    make_strategy: &(dyn Fn(u64) -> Strategy + Sync),
    objective: &Objective,
    opts: &RunOptions,
    ropts: &RunnerOptions,
    segment: Option<&Path>,
    resume: bool,
    rec: &mut R,
) -> Result<Outcome, RunnerError> {
    let fp = fingerprint(exp_id, opts, ropts);
    let wallclock = rec.wallclock();
    let abort = ropts.abort.as_deref();
    let aborted = || abort.is_some_and(|flag| flag.load(Ordering::Relaxed));

    // Load and validate any existing segment.
    let mut existing: Option<SegmentData> = None;
    if resume {
        if let Some(path) = segment {
            if let Some(data) = load_segment(path)? {
                let trusted = data.header.as_ref().is_some_and(|h| {
                    h.version == SCHEMA_VERSION
                        && h.exp_id == exp_id
                        && h.seed == opts.seed
                        && h.fingerprint == fp
                });
                if trusted {
                    existing = Some(data);
                } else if data.header.is_some() {
                    eprintln!("[runner] {exp_id}: stale journal segment (seed/budget/schema changed) — re-running");
                }
            }
        }
    }
    let resumed = existing.is_some();

    // A finished segment short-circuits the whole experiment.
    if let Some(data) = &existing {
        if let Some(done) = &data.done {
            let stats = TrialStats {
                replayed: data.n_records() as u64,
                ..TrialStats::default()
            };
            if R::ENABLED {
                rec.record(Event::Note {
                    text: format!("{exp_id}: finished journal segment, nothing re-run").into(),
                });
                rec.record(Event::ExperimentEnd {
                    exp_id: exp_id.to_string().into(),
                    best_pass: done.best_pass,
                });
            }
            return Ok(Outcome {
                result: done.clone(),
                stats,
                resumed: true,
            });
        }
    }

    let valid_len = existing.as_ref().map_or(0, |d| d.valid_len);
    let journal = match segment {
        Some(path) => Journal::open_append(path, valid_len)?,
        None => Journal::null(),
    };
    if !resumed {
        journal.append(&Record::Header(Header {
            version: SCHEMA_VERSION,
            exp_id: exp_id.to_string(),
            seed: opts.seed,
            fingerprint: fp,
        }))?;
    }
    let existing = existing.unwrap_or_default();

    // Passes: independent units (fresh strategy + own seed each), fanned
    // across the pool; completed passes come straight from the journal.
    let n_passes = opts.passes.max(1);
    let pass_outcomes = pool::run_indexed(n_passes, ropts.threads, |p| {
        let seed = pass_seed(opts.seed, p);
        // Each unit records into its own buffer; the buffers are spliced
        // into `rec` in pass order below, so trace bytes never depend on
        // worker interleaving.
        let mut unit = MemRecorder::new().with_wallclock(wallclock);
        if R::ENABLED {
            unit.record(Event::PassStart { pass: p, seed });
        }
        if let Some(done) = existing.passes.get(&p) {
            let replayed = existing.trials.keys().filter(|(pp, _, _)| *pp == p).count();
            let stats = TrialStats {
                replayed: replayed as u64,
                ..TrialStats::default()
            };
            if R::ENABLED {
                unit.record(Event::Note {
                    text: format!("pass {p}: replayed from journal").into(),
                });
                unit.record(Event::PassEnd {
                    pass: p,
                    best_step: done.best_step,
                    best_y: finite_or_zero(done.best_throughput),
                });
            }
            return Ok((done.clone(), stats, unit.drain()));
        }
        let mut strategy = make_strategy(seed);
        let replay: BTreeMap<(usize, usize), TrialRecord> = existing
            .trials
            .iter()
            .filter(|((pp, _, _), _)| *pp == p)
            .map(|(&(_, step, rep), rec)| ((step, rep), rec.clone()))
            .collect();
        let mut measure = JournaledMeasure::new(&journal, p, replay, ropts);
        let pass_opts = RunOptions {
            seed,
            ..opts.clone()
        };
        let result = run_pass_traced(
            &mut strategy,
            objective,
            &pass_opts,
            &mut measure,
            &mut unit,
        );
        if let Some(e) = measure.io_error.take() {
            return Err(e);
        }
        // An aborted pass must NOT be marked done: its journaled trials
        // stay valid, and a later resume replays them and finishes the
        // remaining steps bitwise-identically.
        if aborted() {
            return Err(RunnerError::Canceled);
        }
        journal.append(&Record::PassDone(PassDone {
            pass: p,
            result: result.clone(),
        }))?;
        if R::ENABLED {
            unit.record(Event::PassEnd {
                pass: p,
                best_step: result.best_step,
                best_y: finite_or_zero(result.best_throughput),
            });
        }
        Ok((result, measure.stats, unit.drain()))
    });

    let mut passes: Vec<PassResult> = Vec::with_capacity(n_passes);
    let mut stats = TrialStats::default();
    for outcome in pass_outcomes {
        let (pass, pass_stats, events) = outcome?;
        stats.merge(&pass_stats);
        passes.push(pass);
        for event in events {
            rec.record(event);
        }
    }

    let best_pass = select_best_pass(&passes);
    let best_config = passes[best_pass].best_config.clone();
    let best_hash = config_hash(&best_config);
    // One simulation of the winner, shared by every confirmation rep on
    // any worker and run only if some rep does not replay.
    let best_sim = OnceLock::new();

    // Confirmation runs: independent units keyed by repetition index.
    // Journaled confirms only replay while they confirm the same winner.
    let confirm_outcomes = pool::run_indexed(opts.confirm_reps, ropts.threads, |rep| {
        if aborted() {
            return Err(RunnerError::Canceled);
        }
        if let Some(journaled) = existing.confirms.get(&rep) {
            if journaled.config_hash == best_hash {
                let unit_stats = TrialStats {
                    replayed: 1,
                    ..TrialStats::default()
                };
                let confirm_event = Event::Confirm {
                    rep,
                    run_id: journaled.run_id,
                    y: finite_or_zero(journaled.throughput),
                };
                return Ok::<(f64, TrialStats, Event), RunnerError>((
                    journaled.throughput,
                    unit_stats,
                    confirm_event,
                ));
            }
        }
        let base_id = confirm_run_id(opts.seed, rep as u64);
        let (value, run_id, _attempts, injected, exhausted) =
            measure_with_retry(objective, &best_config, &best_sim, base_id, &ropts.faults);
        journal.append(&Record::Confirm(ConfirmRecord {
            rep,
            config_hash: best_hash,
            run_id,
            throughput: value,
        }))?;
        let unit_stats = TrialStats {
            measured: 1,
            injected_failures: injected,
            retries_exhausted: exhausted as u64,
            ..TrialStats::default()
        };
        let confirm_event = Event::Confirm {
            rep,
            run_id,
            y: finite_or_zero(value),
        };
        Ok((value, unit_stats, confirm_event))
    });

    let mut confirmation: Vec<f64> = Vec::with_capacity(opts.confirm_reps);
    for outcome in confirm_outcomes {
        let (value, unit_stats, confirm_event) = outcome?;
        stats.merge(&unit_stats);
        confirmation.push(value);
        if R::ENABLED {
            rec.record(confirm_event);
        }
    }

    let result = ExperimentResult {
        strategy: passes[best_pass].strategy.clone(),
        passes,
        best_pass,
        confirmation,
    };
    if aborted() {
        return Err(RunnerError::Canceled);
    }
    journal.append(&Record::Done(result.clone()))?;
    if R::ENABLED {
        rec.record(Event::ExperimentEnd {
            exp_id: exp_id.to_string().into(),
            best_pass,
        });
    }

    Ok(Outcome {
        result,
        stats,
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::ClusterSpec;
    use mtm_topogen::{make_condition, Condition, SizeClass};

    fn objective() -> Objective {
        let topo = make_condition(
            SizeClass::Small,
            &Condition {
                time_imbalance: 0.0,
                contention: 0.0,
            },
            7,
        );
        let base = mtm_core::objective::synthetic_base(&topo);
        Objective::new(topo, ClusterSpec::paper_cluster()).with_base(base)
    }

    fn opts() -> RunOptions {
        RunOptions {
            max_steps: 6,
            confirm_reps: 3,
            passes: 2,
            seed: 0x77,
            ..Default::default()
        }
    }

    fn bo_factory() -> impl Fn(u64) -> Strategy + Sync {
        let topo = objective().topology().clone();
        move |seed| Strategy::bo(&topo, mtm_core::ParamSet::Hints, seed)
    }

    #[test]
    fn experiment_keeps_better_pass_and_confirms() {
        let run_opts = RunOptions {
            max_steps: 10,
            confirm_reps: 4,
            ..opts()
        };
        let make = |_seed: u64| Strategy::pla();
        let run = run_experiment_journaled(
            "test/protocol",
            &make,
            &objective(),
            &run_opts,
            &RunnerOptions::serial(),
            None,
            false,
        )
        .unwrap();
        assert_eq!(run.stats.replayed, 0);
        let result = run.result;
        assert_eq!(result.passes.len(), 2);
        assert_eq!(result.confirmation.len(), 4);
        assert!(result.mean() > 0.0);
        let (min, max) = result.min_max();
        assert!(min <= result.mean() && result.mean() <= max);
        let winner_best = result.winner().best_throughput;
        for p in &result.passes {
            assert!(p.best_throughput <= winner_best);
        }
        let (min, avg, max) = result.convergence_steps();
        assert!(min <= avg as usize + 1 && avg <= max as f64);
    }

    #[test]
    fn parallel_equals_serial() {
        let obj = objective();
        let make = bo_factory();
        let serial = run_experiment_journaled(
            "test/par",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            None,
            false,
        )
        .unwrap();
        let parallel = run_experiment_journaled(
            "test/par",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::parallel(4),
            None,
            false,
        )
        .unwrap();
        assert_eq!(
            canonical_result_json(&serial.result),
            canonical_result_json(&parallel.result)
        );
    }

    #[test]
    fn injected_failures_are_retried_deterministically() {
        let obj = objective();
        let make = bo_factory();
        let faulty = RunnerOptions {
            faults: FaultPlan::with_rate(0.3),
            ..RunnerOptions::serial()
        };
        let a = run_experiment_journaled("test/fault", &make, &obj, &opts(), &faulty, None, false)
            .unwrap();
        let b = run_experiment_journaled("test/fault", &make, &obj, &opts(), &faulty, None, false)
            .unwrap();
        assert!(a.stats.injected_failures > 0, "stats: {:?}", a.stats);
        assert_eq!(
            canonical_result_json(&a.result),
            canonical_result_json(&b.result),
            "fault injection must be deterministic"
        );
        // And a faulty run differs from the fault-free one only through
        // the salted retry run ids — it still completes.
        assert_eq!(a.result.confirmation.len(), 3);
    }

    #[test]
    fn fingerprint_tracks_options() {
        let o = opts();
        let r = RunnerOptions::serial();
        let base = fingerprint("x", &o, &r);
        assert_eq!(base, fingerprint("x", &o, &r));
        assert_ne!(base, fingerprint("y", &o, &r));
        assert_ne!(
            base,
            fingerprint(
                "x",
                &RunOptions {
                    max_steps: o.max_steps + 1,
                    ..o.clone()
                },
                &r
            )
        );
        // Threads and the abort flag are explicitly NOT fingerprinted.
        assert_eq!(base, fingerprint("x", &o, &RunnerOptions::parallel(8)));
        let abortable = RunnerOptions {
            abort: Some(Arc::new(AtomicBool::new(false))),
            ..RunnerOptions::serial()
        };
        assert_eq!(base, fingerprint("x", &o, &abortable));
    }

    #[test]
    fn tracing_is_inert_and_thread_invariant() {
        let obj = objective();
        let make = bo_factory();
        let plain = run_experiment_journaled(
            "test/trace",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            None,
            false,
        )
        .unwrap();
        let mut serial_rec = MemRecorder::new();
        let traced = run_experiment_traced(
            "test/trace",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            None,
            false,
            &mut serial_rec,
        )
        .unwrap();
        assert_eq!(
            canonical_result_json(&plain.result),
            canonical_result_json(&traced.result),
            "recording must not perturb the experiment"
        );
        let serial_events = serial_rec.drain();
        assert!(
            matches!(
                serial_events.first(),
                Some(Event::PassStart { pass: 0, .. })
            ),
            "trace opens with the first pass span"
        );
        assert!(matches!(
            serial_events.last(),
            Some(Event::ExperimentEnd { .. })
        ));
        let trials = serial_events
            .iter()
            .filter(|e| matches!(e, Event::Trial { .. }))
            .count();
        assert!(trials > 0, "per-trial spans must be present");
        let confirms = serial_events
            .iter()
            .filter(|e| matches!(e, Event::Confirm { .. }))
            .count();
        assert_eq!(confirms, opts().confirm_reps);

        let mut par_rec = MemRecorder::new();
        let par = run_experiment_traced(
            "test/trace",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::parallel(4),
            None,
            false,
            &mut par_rec,
        )
        .unwrap();
        assert_eq!(
            canonical_result_json(&traced.result),
            canonical_result_json(&par.result)
        );
        assert_eq!(
            serial_events,
            par_rec.drain(),
            "trace events must not depend on the thread count"
        );
    }

    #[test]
    fn identical_runs_write_byte_identical_trace_files() {
        use mtm_obs::JsonlRecorder;
        let dir = std::env::temp_dir().join("mtm-runner-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let path_a = dir.join(format!("bytes-a-{pid}.jsonl"));
        let path_b = dir.join(format!("bytes-b-{pid}.jsonl"));
        let obj = objective();
        let make = bo_factory();
        for (path, ropts) in [
            (&path_a, RunnerOptions::serial()),
            (&path_b, RunnerOptions::parallel(4)),
        ] {
            let mut rec = JsonlRecorder::create(path, "test/bytes", opts().seed).unwrap();
            run_experiment_traced(
                "test/bytes",
                &make,
                &obj,
                &opts(),
                &ropts,
                None,
                false,
                &mut rec,
            )
            .unwrap();
            rec.finish().unwrap();
        }
        let a = std::fs::read(&path_a).unwrap();
        let b = std::fs::read(&path_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "serial and parallel traces must be byte-identical");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn trace_file_torn_tail_survives_truncation_and_resume() {
        use mtm_obs::{load_trace, JsonlRecorder};
        let dir = std::env::temp_dir().join("mtm-runner-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let trace_path = dir.join(format!("torn-{pid}.jsonl"));
        let seg_path = dir.join(format!("torn-seg-{pid}.jsonl"));
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&seg_path);
        let obj = objective();
        let make = bo_factory();

        let mut rec = JsonlRecorder::create(&trace_path, "test/torn", opts().seed).unwrap();
        run_experiment_traced(
            "test/torn",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            Some(&seg_path),
            false,
            &mut rec,
        )
        .unwrap();
        rec.finish().unwrap();
        let full = load_trace(&trace_path).unwrap().unwrap();
        assert!(matches!(
            full.events.last(),
            Some(Event::ExperimentEnd { .. })
        ));

        // Tear the tail mid-record, the way a kill -9 would.
        let bytes = std::fs::read(&trace_path).unwrap();
        std::fs::write(&trace_path, &bytes[..bytes.len() - 17]).unwrap();
        let torn = load_trace(&trace_path).unwrap().unwrap();
        assert!(torn.events.len() < full.events.len());
        assert_eq!(torn.header, full.header, "header survives the tear");
        assert_eq!(
            torn.events[..],
            full.events[..torn.events.len()],
            "the longest valid prefix is exactly the untorn events"
        );

        // Resume appends after the valid prefix; the finished journal
        // short-circuits, so the tail is a replay marker + experiment end.
        let mut rec = JsonlRecorder::resume(&trace_path, "test/torn", opts().seed).unwrap();
        run_experiment_traced(
            "test/torn",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            Some(&seg_path),
            true,
            &mut rec,
        )
        .unwrap();
        rec.finish().unwrap();
        let resumed = load_trace(&trace_path).unwrap().unwrap();
        assert_eq!(resumed.header, full.header);
        assert_eq!(resumed.events[..torn.events.len()], torn.events[..]);
        assert!(matches!(
            resumed.events.last(),
            Some(Event::ExperimentEnd { .. })
        ));
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&seg_path);
    }

    #[test]
    fn cancel_then_resume_is_bitwise_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join("mtm-runner-cancel-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join(format!("cancel-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&seg);
        let obj = objective();

        // Baseline: the uninterrupted run.
        let make = bo_factory();
        let full = run_experiment_journaled(
            "test/cancel",
            &make,
            &obj,
            &opts(),
            &RunnerOptions::serial(),
            None,
            false,
        )
        .unwrap();

        // A strategy factory that flips the abort flag when pass 1 starts:
        // pass 0 completes and is journaled, pass 1 cancels at its first
        // trial boundary. Deterministic — no timing involved.
        let flag = Arc::new(AtomicBool::new(false));
        let abortable = RunnerOptions {
            abort: Some(Arc::clone(&flag)),
            ..RunnerOptions::serial()
        };
        let pass1_seed = pass_seed(opts().seed, 1);
        let inner = bo_factory();
        let trip = Arc::clone(&flag);
        let make_canceling = move |seed: u64| {
            if seed == pass1_seed {
                trip.store(true, Ordering::Relaxed);
            }
            inner(seed)
        };

        let err = run_experiment_journaled(
            "test/cancel",
            &make_canceling,
            &obj,
            &opts(),
            &abortable,
            Some(&seg),
            false,
        )
        .unwrap_err();
        assert_eq!(err, RunnerError::Canceled);
        let data = load_segment(&seg).unwrap().unwrap();
        assert!(data.done.is_none(), "canceled run must not journal Done");
        assert!(
            data.passes.contains_key(&0) && !data.passes.contains_key(&1),
            "pass 0 finished, the aborted pass 1 must not be marked done"
        );

        // Resume with the abort flag cleared: replays pass 0, runs pass 1
        // fresh, and lands bitwise on the uninterrupted result.
        flag.store(false, Ordering::Relaxed);
        let make = bo_factory();
        let resumed = run_experiment_journaled(
            "test/cancel",
            &make,
            &obj,
            &opts(),
            &abortable,
            Some(&seg),
            true,
        )
        .unwrap();
        assert!(resumed.resumed);
        assert_eq!(
            canonical_result_json(&full.result),
            canonical_result_json(&resumed.result),
            "cancel + resume must reproduce the uninterrupted run exactly"
        );
        let _ = std::fs::remove_file(&seg);
    }

    /// Splits every batch into one-rep batches, so each rep hashes and
    /// simulates on its own: the per-rep path the batched one must match.
    struct PerRep<'m, 'a>(&'m mut JournaledMeasure<'a>);

    impl Measure for PerRep<'_, '_> {
        fn measure_batch(
            &mut self,
            objective: &Objective,
            config: &StormConfig,
            ctxs: &[TrialCtx],
            out: &mut Vec<f64>,
        ) {
            for ctx in ctxs {
                self.0
                    .measure_batch(objective, config, std::slice::from_ref(ctx), out);
            }
        }
    }

    /// A fault plan that fails half the attempts and retries once, so
    /// some trials exhaust.
    fn harsh_faults() -> FaultPlan {
        FaultPlan {
            fail_rate: 0.5,
            max_retries: 1,
            ..FaultPlan::default()
        }
    }

    /// The journal's `Trial`/`Confirm` lines — every measured value and
    /// its run id, minus the wall-clock fields `PassDone`/`Done` carry.
    fn measurement_rows(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| l.starts_with("{\"Trial\"") || l.starts_with("{\"Confirm\""))
            .map(str::to_string)
            .collect()
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("mtm-runner-batch-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn batched_reps_match_per_rep_measurement() {
        let obj = objective();
        let make = bo_factory();
        let dir = test_dir("per-rep");
        let run_opts = RunOptions {
            max_steps: 8,
            measure_reps: 3,
            seed: pass_seed(opts().seed, 0),
            ..opts()
        };
        let ropts = RunnerOptions {
            faults: harsh_faults(),
            ..RunnerOptions::serial()
        };
        let mut outcomes = Vec::new();
        for per_rep in [false, true] {
            let path = dir.join(format!("per-rep-{per_rep}.jsonl"));
            let journal = Journal::open_append(&path, 0).unwrap();
            let mut measure = JournaledMeasure::new(&journal, 0, BTreeMap::new(), &ropts);
            let mut strategy = make(run_opts.seed);
            let result = if per_rep {
                let mut split = PerRep(&mut measure);
                run_pass_traced(
                    &mut strategy,
                    &obj,
                    &run_opts,
                    &mut split,
                    &mut NullRecorder,
                )
            } else {
                run_pass_traced(
                    &mut strategy,
                    &obj,
                    &run_opts,
                    &mut measure,
                    &mut NullRecorder,
                )
            };
            assert!(measure.io_error.is_none());
            let mut canonical = result.clone();
            for step in &mut canonical.steps {
                step.optimizer_time_s = 0.0;
            }
            outcomes.push((
                serde_json::to_string(&canonical).unwrap(),
                measure.stats,
                std::fs::read(&path).unwrap(),
            ));
        }
        let (batched, per_rep) = (&outcomes[0], &outcomes[1]);
        assert_eq!(batched.0, per_rep.0, "pass results differ");
        assert_eq!(batched.1, per_rep.1, "stats differ");
        assert_eq!(batched.2, per_rep.2, "journal bytes differ");
        let stats = batched.1;
        assert_eq!(stats.trials(), 8 * 3, "one trial per rep: {stats:?}");
        assert!(stats.injected_failures > 0, "{stats:?}");
        assert!(stats.retries_exhausted > 0, "an exhausted trial: {stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_confirmation_simulation_matches_fresh_per_rep() {
        let obj = objective();
        let config = obj.base_config().clone();
        let faults = harsh_faults();
        let shared = OnceLock::new();
        let mut exhausted = 0;
        for rep in 0..16u64 {
            let base_id = confirm_run_id(0x77, rep);
            let a = measure_with_retry(&obj, &config, &shared, base_id, &faults);
            let b = measure_with_retry(&obj, &config, &OnceLock::new(), base_id, &faults);
            assert_eq!(
                (a.0.to_bits(), a.1, a.2, a.3, a.4),
                (b.0.to_bits(), b.1, b.2, b.3, b.4)
            );
            exhausted += a.4 as usize;
        }
        assert!(exhausted > 0, "the plan must exhaust some rep");
    }

    /// Run `run_opts` serially to completion at `seg`, cut the segment
    /// right after the first line `cut_after` matches, resume on two
    /// threads, and check the result and every measurement row against
    /// the uninterrupted run. The serial run fixes the journal order, so
    /// the cut always leaves trials to re-measure.
    fn cut_and_resume(name: &str, run_opts: &RunOptions, cut_after: impl Fn(&Record) -> bool) {
        let dir = test_dir(name);
        let seg = dir.join("seg.jsonl");
        let obj = objective();
        let make = bo_factory();
        let serial = RunnerOptions {
            faults: harsh_faults(),
            ..RunnerOptions::serial()
        };
        let full =
            run_experiment_journaled(name, &make, &obj, run_opts, &serial, Some(&seg), false)
                .unwrap();
        let full_rows = measurement_rows(&seg);

        let (lines, _) = mtm_obs::segment::load_prefix::<Record>(&seg)
            .unwrap()
            .unwrap();
        let cut = lines
            .iter()
            .find(|l| cut_after(&l.record))
            .expect("the cut record is journaled")
            .end;
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..cut as usize]).unwrap();

        let parallel = RunnerOptions {
            faults: harsh_faults(),
            ..RunnerOptions::parallel(2)
        };
        let resumed =
            run_experiment_journaled(name, &make, &obj, run_opts, &parallel, Some(&seg), true)
                .unwrap();
        assert!(
            resumed.resumed && resumed.stats.replayed > 0,
            "{:?}",
            resumed.stats
        );
        assert!(resumed.stats.measured > 0, "{:?}", resumed.stats);
        assert_eq!(
            full.stats.trials(),
            resumed.stats.trials(),
            "every trial is replayed or measured"
        );
        assert_eq!(
            canonical_result_json(&full.result),
            canonical_result_json(&resumed.result)
        );
        let mut resumed_rows = measurement_rows(&seg);
        let mut full_rows = full_rows;
        // The resumed rows land in worker order.
        full_rows.sort();
        resumed_rows.sort();
        assert_eq!(full_rows, resumed_rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cut_between_reps_of_one_step_resumes_bitwise() {
        let run_opts = RunOptions {
            measure_reps: 3,
            ..opts()
        };
        // Reps 0 and 1 of pass 0, step 2 replay; rep 2 is measured fresh
        // in the same batch.
        cut_and_resume(
            "test/cut-reps",
            &run_opts,
            |r| matches!(r, Record::Trial(t) if t.pass == 0 && t.step == 2 && t.rep == 1),
        );
    }

    #[test]
    fn cut_mid_confirmation_resumes_bitwise() {
        let run_opts = RunOptions {
            measure_reps: 3,
            confirm_reps: 6,
            ..opts()
        };
        // Rep 2 is the third confirmation journaled; the rest re-measure.
        cut_and_resume(
            "test/cut-confirm",
            &run_opts,
            |r| matches!(r, Record::Confirm(c) if c.rep == 2),
        );
    }
}
