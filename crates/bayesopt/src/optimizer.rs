//! The Bayesian Optimization propose/observe loop.
//!
//! Mirrors the Spearmint recipe the paper relied on:
//!
//! 1. seed with a Latin-hypercube design,
//! 2. fit a GP surrogate (Matérn 5/2 by default) to standardized
//!    observations, refitting hyperparameters by type-II ML,
//! 3. maximize the acquisition (EI by default) over a candidate sweep —
//!    uniform candidates plus perturbations of the incumbents — polished
//!    with coordinate descent,
//! 4. optionally *marginalize* the acquisition over slice-sampled
//!    hyperparameters instead of using the point estimate.
//!
//! # The incremental hot path
//!
//! The optimizer holds a persistent [`GpRegression`] between proposals.
//! A new observation reaches the surrogate through an `O(n²)` bordered
//! Cholesky update, target re-standardization is two `O(n²)` triangular
//! solves, and only the scheduled hyperparameter refits pay the `O(n³)`
//! factorization — so a non-refit `propose()` is `O(n²)` plus the
//! candidate scoring, instead of the full-refit `O(n³)` the
//! original per-call fit paid.
//!
//! Determinism contract: every `propose` derives its randomness from
//! `(seed, step)`, and the persistent surrogate is a pure function of
//! the observation history: one absorb/retarget/maybe-refit step per
//! proposal, from a base fit on the warm-up block (`"replay"`, the first
//! surrogate-backed proposal) onward. Marginalized acquisition samples
//! hyperparameters on a scratch copy, so it never perturbs that state.
//! A run resumed from the runner journal re-proposes its history through
//! `propose`/`observe` and so proposes bitwise what the uninterrupted
//! run would have.

use std::time::Instant;

use mtm_gp::kernel::{Kernel, Matern52Ard, SquaredExpArd};
use mtm_gp::priors::IndependentPriors;
use mtm_gp::slice::sample_hyperposterior;
use mtm_gp::{FitOptions, GpRegression};
use mtm_obs::event::finite_or_zero;
use mtm_obs::{Event, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::acquisition::Acquisition;
use crate::design::latin_hypercube;
use crate::error::BoError;
use crate::space::{ParamSpace, Value};

/// Observation noise variance of the base surrogate fit (before any
/// hyperparameter optimization).
const BASE_NOISE: f64 = 1e-2;

/// Chunk width of candidate scoring: each chunk is predicted into one
/// reused scratch buffer and its scores land in a disjoint slice of the
/// output buffer. The argmax is a separate, index-ordered scan.
const SCORE_CHUNK: usize = 64;

/// Perturbation candidates spawned around each of the top incumbents.
const N_PERTURB: usize = 16;

/// Which kernel family the surrogate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Matérn 5/2 with ARD — the Spearmint default.
    Matern52,
    /// Squared exponential with ARD.
    SquaredExp,
}

/// Either supported kernel behind one type, so `BayesOpt` is not generic.
#[derive(Debug, Clone)]
pub enum BoKernel {
    /// Matérn 5/2 variant.
    Matern(Matern52Ard),
    /// Squared-exponential variant.
    SquaredExp(SquaredExpArd),
}

impl Kernel for BoKernel {
    fn n_params(&self) -> usize {
        match self {
            BoKernel::Matern(k) => k.n_params(),
            BoKernel::SquaredExp(k) => k.n_params(),
        }
    }
    fn params(&self) -> Vec<f64> {
        match self {
            BoKernel::Matern(k) => k.params(),
            BoKernel::SquaredExp(k) => k.params(),
        }
    }
    fn set_params(&mut self, p: &[f64]) {
        match self {
            BoKernel::Matern(k) => k.set_params(p),
            BoKernel::SquaredExp(k) => k.set_params(p),
        }
    }
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            BoKernel::Matern(k) => k.eval(a, b),
            BoKernel::SquaredExp(k) => k.eval(a, b),
        }
    }
    fn eval_pair(&self, a: &[f64], b: &[f64]) -> (f64, f64) {
        match self {
            BoKernel::Matern(k) => k.eval_pair(a, b),
            BoKernel::SquaredExp(k) => k.eval_pair(a, b),
        }
    }
    fn grad_from(&self, a: &[f64], b: &[f64], k: f64, factor: f64, grad: &mut [f64]) {
        match self {
            BoKernel::Matern(kern) => kern.grad_from(a, b, k, factor, grad),
            BoKernel::SquaredExp(kern) => kern.grad_from(a, b, k, factor, grad),
        }
    }
    fn diag(&self) -> f64 {
        match self {
            BoKernel::Matern(k) => k.diag(),
            BoKernel::SquaredExp(k) => k.diag(),
        }
    }
    fn input_dim(&self) -> usize {
        match self {
            BoKernel::Matern(k) => k.input_dim(),
            BoKernel::SquaredExp(k) => k.input_dim(),
        }
    }
}

/// Marginalized-acquisition settings (Spearmint's integrated EI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marginalize {
    /// Hyperparameter posterior samples to average over.
    pub n_samples: usize,
    /// Discarded warm-up sweeps.
    pub burn_in: usize,
}

/// Configuration of the optimizer.
///
/// Marked `#[non_exhaustive]`: construct it with [`BoConfig::builder`]
/// (validating) or take [`BoConfig::default`] and mutate the public
/// fields. The `Default` values are stable so journaled configurations
/// replay identically across versions. [`BoConfig::validate`] holds the
/// checks the builder runs.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Latin-hypercube warm-up evaluations before the surrogate runs.
    pub n_init: usize,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Kernel family of the surrogate.
    pub kernel: KernelChoice,
    /// Hyperparameter fit options.
    pub fit: FitOptions,
    /// Re-run the hyperparameter fit every this many observations
    /// (between fits the previous hyperparameters are reused and the
    /// factor is maintained incrementally).
    pub refit_every: usize,
    /// Uniform random candidates per proposal.
    pub n_candidates: usize,
    /// Coordinate-descent polish passes on the best candidate.
    pub local_passes: usize,
    /// Marginalize the acquisition over hyperparameter samples.
    pub marginalize: Option<Marginalize>,
    /// Master seed; all per-step randomness derives from it.
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            n_init: 5,
            acquisition: Acquisition::default(),
            kernel: KernelChoice::Matern52,
            fit: FitOptions::default(),
            refit_every: 1,
            n_candidates: 512,
            local_passes: 2,
            marginalize: None,
            seed: 0xB0,
        }
    }
}

impl BoConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> BoConfigBuilder {
        BoConfigBuilder {
            cfg: BoConfig::default(),
        }
    }

    /// Reject settings the optimizer cannot run: `n_init < 2`,
    /// `refit_every == 0`, `n_candidates == 0`, or marginalization with
    /// zero samples.
    pub fn validate(&self) -> Result<(), BoError> {
        if self.n_init < 2 {
            return Err(BoError::InvalidConfig(format!(
                "n_init must be >= 2 (got {})",
                self.n_init
            )));
        }
        if self.refit_every < 1 {
            return Err(BoError::InvalidConfig("refit_every must be >= 1".into()));
        }
        if self.n_candidates == 0 {
            return Err(BoError::InvalidConfig("n_candidates must be > 0".into()));
        }
        if let Some(m) = self.marginalize {
            if m.n_samples == 0 {
                return Err(BoError::InvalidConfig(
                    "marginalize.n_samples must be > 0".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Validating builder for [`BoConfig`] (see [`BoConfig::builder`]).
#[derive(Debug, Clone)]
pub struct BoConfigBuilder {
    cfg: BoConfig,
}

impl BoConfigBuilder {
    /// Latin-hypercube warm-up evaluations (validated: at least 2).
    pub fn n_init(mut self, v: usize) -> Self {
        self.cfg.n_init = v;
        self
    }

    /// Acquisition function.
    pub fn acquisition(mut self, v: Acquisition) -> Self {
        self.cfg.acquisition = v;
        self
    }

    /// Kernel family of the surrogate.
    pub fn kernel(mut self, v: KernelChoice) -> Self {
        self.cfg.kernel = v;
        self
    }

    /// Hyperparameter fit options.
    pub fn fit(mut self, v: FitOptions) -> Self {
        self.cfg.fit = v;
        self
    }

    /// Hyperparameter refit cadence (validated: at least 1).
    pub fn refit_every(mut self, v: usize) -> Self {
        self.cfg.refit_every = v;
        self
    }

    /// Uniform random candidates per proposal (validated: nonzero).
    pub fn n_candidates(mut self, v: usize) -> Self {
        self.cfg.n_candidates = v;
        self
    }

    /// Coordinate-descent polish passes.
    pub fn local_passes(mut self, v: usize) -> Self {
        self.cfg.local_passes = v;
        self
    }

    /// Marginalize the acquisition over hyperparameter samples.
    pub fn marginalize(mut self, v: Option<Marginalize>) -> Self {
        self.cfg.marginalize = v;
        self
    }

    /// Master seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Validate ([`BoConfig::validate`]) and produce the configuration.
    pub fn build(self) -> Result<BoConfig, BoError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A proposed configuration, carrying both encodings.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Unit-cube point (canonicalized).
    pub unit: Vec<f64>,
    /// Typed values decoded from `unit`.
    pub values: Vec<Value>,
}

/// A completed evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Unit-cube point that was evaluated.
    pub unit: Vec<f64>,
    /// Typed values of the evaluated configuration.
    pub values: Vec<Value>,
    /// Measured objective (higher is better).
    pub y: f64,
}

/// Score `candidates` under `sur`, *accumulating* into `scores`. The
/// [`SCORE_CHUNK`]-wide chunks fan out over `workers` threads of the one
/// pool ([`mtm_stats::pool`]), each scored by [`score_chunk`] into its
/// own buffer, and are added into `scores` in chunk order: every score
/// is the same expression added to the same slot, so the sums do not
/// depend on `workers`.
fn accumulate_scores<K: Kernel>(
    sur: &GpRegression<K>,
    acq: &Acquisition,
    candidates: &[Vec<f64>],
    z_best: f64,
    scores: &mut [f64],
    workers: usize,
) {
    debug_assert_eq!(candidates.len(), scores.len());
    let n_chunks = candidates.len().div_ceil(SCORE_CHUNK);
    let chunk_scores = mtm_stats::pool::run_indexed(n_chunks, workers, |c| {
        let cands = candidates.chunks(SCORE_CHUNK).nth(c).unwrap_or_default();
        let mut out = vec![0.0; cands.len()];
        score_chunk(sur, acq, cands, z_best, &mut out);
        out
    });
    for (sums, chunk) in scores.chunks_mut(SCORE_CHUNK).zip(&chunk_scores) {
        for (s, &v) in sums.iter_mut().zip(chunk) {
            *s += v;
        }
    }
}

/// Score one chunk of candidates into `out`, predicting into one
/// pre-sized buffer.
// mtm-hot: acq-score
fn score_chunk<K: Kernel>(
    sur: &GpRegression<K>,
    acq: &Acquisition,
    cands: &[Vec<f64>],
    z_best: f64,
    out: &mut [f64],
) {
    let mut scratch = Vec::with_capacity(cands.len());
    sur.predict_many_into(cands, &mut scratch);
    for (s, p) in out.iter_mut().zip(scratch.iter()) {
        *s = acq.score(p.mean, p.std(), z_best);
    }
}

/// Score a pool of candidate points under an already-fit surrogate in
/// one pass. `out` is cleared and refilled with one score per
/// candidate through the same 64-candidate chunks the proposal loop
/// uses, so the result is bitwise-identical to scoring every
/// candidate on its own. The chunks run on the cores no other thread has
/// claimed ([`mtm_stats::pool::spare`]); the scores do not depend on how
/// many that is.
pub fn score_batch<K: Kernel>(
    sur: &GpRegression<K>,
    acq: &Acquisition,
    candidates: &[Vec<f64>],
    best: f64,
    out: &mut Vec<f64>,
) {
    score_batch_on(sur, acq, candidates, best, out, mtm_stats::pool::spare());
}

/// [`score_batch`] with its chunks fanned out over `workers` threads.
fn score_batch_on<K: Kernel>(
    sur: &GpRegression<K>,
    acq: &Acquisition,
    candidates: &[Vec<f64>],
    best: f64,
    out: &mut Vec<f64>,
    workers: usize,
) {
    out.clear();
    out.resize(candidates.len(), 0.0);
    accumulate_scores(sur, acq, candidates, best, out, workers);
}

/// Polish steps tried on each coordinate, in order.
const POLISH_DELTAS: [f64; 4] = [-0.15, -0.05, 0.05, 0.15];

/// Coordinate-descent polish of `best_point` under `eval`: up to
/// `passes` sweeps over the coordinates, each trying [`POLISH_DELTAS`]
/// and keeping a trial only when it scores strictly higher. Returns the
/// polished point and how many moves it kept.
///
/// A trial is `canonicalize(best_point)` with the moved coordinate set
/// to the snap of `best_point[coord] + delta`, clamped: exactly the
/// canonicalization of the moved point, with the incumbent's snap taken
/// once per kept move rather than once per trial. Every coordinate is
/// re-snapped there because snapping is not idempotent for `LogFloat`
/// (see [`crate::space`]). A trial bit-equal to `best_point` is not
/// scored: it would score exactly the incumbent's score, which the
/// strict `>` cannot take.
fn polish(
    space: &ParamSpace,
    passes: usize,
    mut best_point: Vec<f64>,
    eval: impl Fn(&[f64]) -> f64,
) -> (Vec<f64>, usize) {
    let mut cur_score = eval(&best_point);
    let mut moves = 0;
    // `trial` equals `snapped` outside the coordinate being tried.
    let mut snapped = space.canonicalize(&best_point);
    let mut trial = snapped.clone();
    for _ in 0..passes {
        let mut improved = false;
        for (coord, param) in space.params().iter().enumerate() {
            for delta in POLISH_DELTAS {
                let (Some(&x), Some(t)) = (best_point.get(coord), trial.get_mut(coord)) else {
                    continue;
                };
                let moved = param.snap((x + delta).clamp(0.0, 1.0));
                *t = moved;
                if moved.to_bits() == x.to_bits() && bits_equal(&trial, &best_point) {
                    continue;
                }
                let s = eval(&trial);
                if s > cur_score {
                    cur_score = s;
                    best_point.clone_from(&trial);
                    snapped = space.canonicalize(&best_point);
                    trial.clone_from(&snapped);
                    improved = true;
                    moves += 1;
                }
            }
            // Restore the coordinate the last rejected trial moved.
            if let (Some(t), Some(&v)) = (trial.get_mut(coord), snapped.get(coord)) {
                *t = v;
            }
        }
        if !improved {
            break;
        }
    }
    (best_point, moves)
}

/// Whether two points are equal bit for bit.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The Bayesian optimizer.
#[derive(Debug, Clone)]
pub struct BayesOpt {
    space: ParamSpace,
    config: BoConfig,
    observations: Vec<Observation>,
    init_design: Vec<Vec<f64>>,
    /// Hyperparameters carried over between refits.
    cached_hypers: Option<Vec<f64>>,
    fits_done: usize,
    /// The persistent surrogate; `None` until the first surrogate-backed
    /// proposal (or after an invalidation).
    surrogate: Option<GpRegression<BoKernel>>,
    /// How many leading observations the surrogate has absorbed.
    n_absorbed: usize,
    /// Set when deterministic replay failed once or the surrogate was
    /// invalidated; the optimizer then pins itself to the fresh-refit
    /// path ([`rebuild_fresh`](Self::rebuild_fresh)) for this run.
    replay_poisoned: bool,
}

/// Scratch the proposal path fills for the [`Event::Propose`] trace
/// line. Collection is gated on `Recorder::ENABLED`; nothing here feeds
/// back into the search.
#[derive(Default)]
struct ProposeStats {
    path: &'static str,
    pool: usize,
    margin: f64,
    polish_moves: usize,
}

impl BayesOpt {
    /// Create an optimizer over `space`.
    pub fn new(space: ParamSpace, config: BoConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_init = config.n_init.max(2);
        let init_design = latin_hypercube(n_init, space.dim(), &mut rng)
            .into_iter()
            .map(|u| space.canonicalize(&u))
            .collect();
        BayesOpt {
            space,
            config,
            observations: Vec::new(),
            init_design,
            cached_hypers: None,
            fits_done: 0,
            surrogate: None,
            n_absorbed: 0,
            replay_poisoned: false,
        }
    }

    /// The optimization domain.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoConfig {
        &self.config
    }

    /// Completed evaluations, in observation order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of completed evaluations.
    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }

    /// The best observation so far.
    pub fn best(&self) -> Option<&Observation> {
        self.observations.iter().max_by(|a, b| a.y.total_cmp(&b.y))
    }

    /// Step index (0-based) at which the best value was first reached —
    /// the paper's Fig. 5 "convergence speed" metric.
    pub fn best_step(&self) -> Option<usize> {
        let best = self.best()?.y;
        self.observations.iter().position(|o| o.y >= best)
    }

    /// Propose the next configuration to evaluate.
    ///
    /// Errors only bubble up from the surrogate layer (a refit during
    /// hyperparameter marginalization failing); degenerate data falls
    /// back to uniform exploration rather than erroring.
    pub fn propose(&mut self) -> Result<Candidate, BoError> {
        self.propose_recorded(&mut NullRecorder)
    }

    /// [`propose`](Self::propose) with instrumentation: one
    /// [`Event::Propose`] per successful proposal records which surrogate
    /// path ran (`design`/`incremental`/`replay`/`fresh`/`uniform`),
    /// whether hyperparameters were refit, the candidate-pool size, the
    /// acquisition argmax margin, and the polish-move count. The proposal
    /// itself is bitwise identical with any recorder — the collection is
    /// gated on `R::ENABLED` and never feeds back into the search.
    ///
    /// `wall_ns` (the per-propose surrogate timing) is captured only when
    /// `rec.wallclock()` is true; the default leaves it `None` so traces
    /// stay byte-identical across runs.
    // mtm-allow: wall-clock -- opt-in propose-latency capture; the clock
    // is never read (wall_ns stays None) unless the recorder explicitly
    // enables wall-clock mode, which golden traces do not.
    pub fn propose_recorded<R: Recorder>(&mut self, rec: &mut R) -> Result<Candidate, BoError> {
        let t0 = if R::ENABLED && rec.wallclock() {
            Some(Instant::now())
        } else {
            None
        };
        let step = self.observations.len();
        if let Some(unit) = self.init_design.get(step) {
            let unit = unit.clone();
            let values = self.space.decode(&unit);
            if R::ENABLED {
                rec.record(Event::Propose {
                    step,
                    path: "design".into(),
                    refit: false,
                    pool: self.init_design.len(),
                    margin: 0.0,
                    polish_moves: 0,
                    wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64),
                });
            }
            return Ok(Candidate { unit, values });
        }
        // Derive this step's randomness from (seed, step) so resumed runs
        // propose identically.
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ (step as u64).wrapping_mul(0x9E37_79B9));
        let fits_before = self.fits_done;
        let mut stats = ProposeStats::default();
        let result = self.propose_with_surrogate::<R>(&mut rng, &mut stats);
        if R::ENABLED && result.is_ok() {
            rec.record(Event::Propose {
                step,
                path: stats.path.into(),
                refit: self.fits_done > fits_before,
                pool: stats.pool,
                margin: finite_or_zero(stats.margin),
                polish_moves: stats.polish_moves,
                wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64),
            });
        }
        result
    }

    /// Record the result of evaluating `candidate`.
    ///
    /// Rejects NaN/±inf objectives with
    /// [`BoError::NonFiniteObjective`]; the optimizer state is unchanged
    /// on error.
    pub fn observe(&mut self, candidate: Candidate, y: f64) -> Result<(), BoError> {
        if !y.is_finite() {
            return Err(BoError::NonFiniteObjective(y));
        }
        // mtm-allow: alloc -- amortized history append; one per measured trial
        self.observations.push(Observation {
            unit: candidate.unit,
            values: candidate.values,
            y,
        });
        Ok(())
    }

    /// Drop all incremental surrogate state *and* the cached
    /// hyperparameters, and pin the optimizer to the fresh-refit path:
    /// every subsequent [`propose`](Self::propose) fits a new GP over all
    /// observations, and the next one also re-optimizes hyperparameters.
    /// `bench_gp` times this path as its baseline; called before the
    /// first proposal, it gives the reference run the incremental path
    /// is tested against; and it is an escape hatch if surrogate state
    /// is ever suspected stale.
    pub fn invalidate_surrogate(&mut self) {
        self.surrogate = None;
        self.n_absorbed = 0;
        self.cached_hypers = None;
        self.replay_poisoned = true;
    }

    /// The kernel family at the space's dimensionality, with the fixed
    /// base hyperparameters every (re)build starts from.
    fn make_kernel(&self) -> BoKernel {
        let d = self.space.dim();
        match self.config.kernel {
            KernelChoice::Matern52 => BoKernel::Matern(Matern52Ard::new(d, 1.0, 0.3)),
            KernelChoice::SquaredExp => BoKernel::SquaredExp(SquaredExpArd::new(d, 1.0, 0.3)),
        }
    }

    /// Is a hyperparameter refit due at observation count `m`?
    ///
    /// Cadence: at least `refit_every`, stretched as evidence
    /// accumulates — each refit costs `O(n³)` per optimizer restart
    /// iteration, and with 100+ observations the hyperparameters barely
    /// move between steps. This is what keeps the 180-step runs'
    /// per-step cost growing sublinearly (Fig. 7 of the paper).
    fn hyperfit_due(&self, m: usize) -> bool {
        let n0 = self.init_design.len();
        let cadence = self.config.refit_every.max(1).max(m / 25);
        m >= n0 && (m - n0).is_multiple_of(cadence)
    }

    /// Bring the persistent surrogate in sync with the recorded
    /// observations. Returns which path did it (`"incremental"`,
    /// `"replay"` or `"fresh"` — the trace's propose-path vocabulary), or
    /// `None` when no usable surrogate could be built (numerically
    /// degenerate data) — the caller then explores uniformly.
    fn sync_surrogate(&mut self) -> Option<&'static str> {
        let n = self.observations.len();
        if self.replay_poisoned {
            // Pinned: fresh fit on every proposal.
            return self.rebuild_fresh(n).then_some("fresh");
        }
        if self.surrogate.is_none() {
            if self.replay_build(n) {
                return Some("replay");
            }
            // Deterministic replay failed (degenerate prefix). Pin to the
            // fresh path, which fits over all observations at once and
            // may still succeed.
            self.replay_poisoned = true;
            return self.rebuild_fresh(n).then_some("fresh");
        }
        if self.step_to(n) {
            return Some("incremental");
        }
        self.surrogate = None;
        self.replay_poisoned = true;
        self.rebuild_fresh(n).then_some("fresh")
    }

    /// Rebuild the surrogate by replaying the live schedule: base fit on
    /// the warm-up block, then one absorb/retarget/maybe-refit step per
    /// observation count. Because the live path performs exactly one
    /// such step per proposal, a surrogate reconstructed here is
    /// bitwise-identical to one carried across the same history.
    fn replay_build(&mut self, n: usize) -> bool {
        let n0 = self.init_design.len().min(n);
        if n0 == 0 {
            return false;
        }
        let xs: Vec<Vec<f64>> = self
            .observations
            .iter()
            .take(n0)
            .map(|o| o.unit.clone())
            .collect();
        let zs = self.standardized_prefix(n0);
        let Ok(sur) = GpRegression::fit(self.make_kernel(), xs, zs, BASE_NOISE) else {
            return false;
        };
        self.surrogate = Some(sur);
        self.n_absorbed = n0;
        for m in n0..=n {
            if !self.step_to(m) {
                self.surrogate = None;
                return false;
            }
        }
        true
    }

    /// One live step of surrogate maintenance at observation count `m`:
    /// absorb observations the surrogate has not seen, refresh the
    /// standardized targets, refit hyperparameters if due.
    fn step_to(&mut self, m: usize) -> bool {
        while self.n_absorbed < m {
            let Some(o) = self.observations.get(self.n_absorbed) else {
                return false;
            };
            // Absorb with the raw target; the standardized retarget
            // below overwrites every target in one O(n²) pass.
            let (x, y) = (o.unit.clone(), o.y);
            let Some(sur) = self.surrogate.as_mut() else {
                return false;
            };
            if sur.add_observation(x, y).is_err() {
                return false;
            }
            self.n_absorbed += 1;
        }
        let zs = self.standardized_prefix(m);
        let due = self.hyperfit_due(m);
        let fit = self.config.fit.clone();
        let Some(sur) = self.surrogate.as_mut() else {
            return false;
        };
        if sur.set_targets(&zs).is_err() {
            return false;
        }
        if due {
            sur.optimize_hyperparameters(&fit);
            self.cached_hypers = Some(sur.hyperparameters());
            self.fits_done += 1;
        }
        true
    }

    /// Fresh-refit path: fit a new GP over all `n` observations, reapply
    /// the cached hyperparameters and refit them when due (or when none
    /// are cached). It is the fallback when replay fails, the path
    /// [`invalidate_surrogate`](Self::invalidate_surrogate) pins, the
    /// baseline `bench_gp` times, and the reference the incremental
    /// path must propose identically to
    /// (`incremental_and_fresh_paths_propose_identically`).
    fn rebuild_fresh(&mut self, n: usize) -> bool {
        self.surrogate = None;
        self.n_absorbed = 0;
        if n == 0 {
            return false;
        }
        let xs: Vec<Vec<f64>> = self.observations.iter().map(|o| o.unit.clone()).collect();
        let zs = self.standardized_prefix(n);
        let Ok(mut sur) = GpRegression::fit(self.make_kernel(), xs, zs, BASE_NOISE) else {
            return false;
        };
        if let Some(h) = &self.cached_hypers {
            let _ = sur.set_hyperparameters(h);
        }
        if self.hyperfit_due(n) || self.cached_hypers.is_none() {
            sur.optimize_hyperparameters(&self.config.fit);
            self.cached_hypers = Some(sur.hyperparameters());
            self.fits_done += 1;
        }
        self.surrogate = Some(sur);
        self.n_absorbed = n;
        true
    }

    fn propose_with_surrogate<R: Recorder>(
        &mut self,
        rng: &mut StdRng,
        stats: &mut ProposeStats,
    ) -> Result<Candidate, BoError> {
        let d = self.space.dim();
        let Some(sync_path) = self.sync_surrogate() else {
            // Degenerate data (e.g. duplicated inputs the jitter ladder
            // cannot rescue): explore uniformly.
            stats.path = "uniform";
            let mut unit: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            self.space.canonicalize_in_place(&mut unit);
            let values = self.space.decode(&unit);
            return Ok(Candidate { unit, values });
        };
        stats.path = sync_path;
        let n = self.observations.len();
        let zs = self.standardized_prefix(n);
        let z_best = zs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        // Hyperparameter marginalization (Spearmint's integrated EI) runs
        // on a scratch copy: the slice sampler refactors the surrogate at
        // every hyperparameter move, and the persistent one must stay what
        // the live schedule built. Empty samples = score under the current
        // (cached) point estimate.
        let mut scratch = self.config.marginalize.and_then(|_| self.surrogate.clone());
        let hyper_samples: Vec<Vec<f64>> = match (self.config.marginalize, scratch.as_mut()) {
            (Some(m), Some(sur)) => {
                let priors = IndependentPriors::weakly_informative(sur.hyperparameters().len());
                sample_hyperposterior(sur, &priors, m.n_samples, m.burn_in, rng)
            }
            _ => Vec::new(),
        };

        // Candidate sweep: scores accumulate acquisition values over the
        // hyperparameter samples (or the single point estimate).
        let candidates = self.candidate_pool(rng);
        let mut scores = vec![0.0; candidates.len()];
        let acq = self.config.acquisition;
        let sur = match scratch.as_mut() {
            Some(sur) => {
                for h in &hyper_samples {
                    sur.set_hyperparameters(h)?;
                    let workers = mtm_stats::pool::spare();
                    accumulate_scores(&*sur, &acq, &candidates, z_best, &mut scores, workers);
                }
                // Polish below runs under the first sample.
                if let Some(h0) = hyper_samples.first() {
                    sur.set_hyperparameters(h0)?;
                }
                &*sur
            }
            None => self
                .surrogate
                .as_ref()
                .ok_or_else(|| BoError::InvalidConfig("surrogate vanished mid-proposal".into()))?,
        };
        if hyper_samples.is_empty() {
            let workers = mtm_stats::pool::spare();
            accumulate_scores(sur, &acq, &candidates, z_best, &mut scores, workers);
        }

        // Index-ordered argmax (first maximum wins).
        let (mut best_idx, mut best_score) = (0usize, f64::NEG_INFINITY);
        for (i, &s) in scores.iter().enumerate() {
            if s > best_score {
                best_score = s;
                best_idx = i;
            }
        }
        if R::ENABLED {
            // Margin = winner minus runner-up: how decisive the argmax
            // was. A second pass so the search loop above stays exactly
            // the unrecorded code.
            stats.pool = candidates.len();
            let mut second = f64::NEG_INFINITY;
            for (i, &s) in scores.iter().enumerate() {
                if i != best_idx && s > second {
                    second = s;
                }
            }
            stats.margin = if best_score.is_finite() && second.is_finite() {
                best_score - second
            } else {
                0.0
            };
        }
        let best_point = candidates
            .get(best_idx)
            .cloned()
            .unwrap_or_else(|| vec![0.5; d]);

        // Coordinate-descent polish under the (first) hyperparameter
        // sample; cheap and effective on the mostly-discrete spaces here.
        let eval = |u: &[f64]| {
            let p = sur.predict(u);
            acq.score(p.mean, p.std(), z_best)
        };
        let (best_point, moves) = polish(&self.space, self.config.local_passes, best_point, eval);
        if R::ENABLED {
            stats.polish_moves = moves;
        }

        let unit = self.space.canonicalize(&best_point);
        let values = self.space.decode(&unit);
        Ok(Candidate { unit, values })
    }

    /// Uniform candidates plus Gaussian perturbations of the incumbents.
    fn candidate_pool(&self, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let d = self.space.dim();
        let mut pool = Vec::with_capacity(self.config.n_candidates + 3 * N_PERTURB);
        for _ in 0..self.config.n_candidates {
            let mut u: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            self.space.canonicalize_in_place(&mut u);
            pool.push(u);
        }
        // Perturb the top three incumbents.
        let mut by_y: Vec<&Observation> = self.observations.iter().collect();
        by_y.sort_by(|a, b| b.y.total_cmp(&a.y));
        for inc in by_y.iter().take(3) {
            for _ in 0..N_PERTURB {
                let mut u: Vec<f64> = inc
                    .unit
                    .iter()
                    .map(|&x| {
                        // Box–Muller normal perturbation, sigma 0.1.
                        let u1: f64 = rng.random::<f64>().max(1e-12);
                        let u2: f64 = rng.random();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        (x + 0.1 * z).clamp(0.0, 1.0)
                    })
                    .collect();
                self.space.canonicalize_in_place(&mut u);
                pool.push(u);
            }
        }
        pool
    }

    /// Standardize the first `m` targets to zero mean / unit variance.
    /// For `m == n` this is the classic full standardization; the replay
    /// path calls it at every intermediate prefix to reproduce the live
    /// schedule bitwise.
    fn standardized_prefix(&self, m: usize) -> Vec<f64> {
        let ys: Vec<f64> = self.observations.iter().take(m).map(|o| o.y).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / ys.len() as f64;
        let std = var.sqrt().max(1e-9);
        ys.iter().map(|y| (y - mean) / std).collect()
    }

    /// How many hyperparameter fits have been performed (diagnostics).
    pub fn fits_done(&self) -> usize {
        self.fits_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn quadratic_space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::float("x", -5.0, 5.0),
            Param::float("y", -5.0, 5.0),
        ])
    }

    #[test]
    fn recorded_propose_is_inert_and_traces_surrogate_paths() {
        let objective = |v: &[Value]| {
            let x = v[0].as_float();
            let y = v[1].as_float();
            -(x * x + y * y)
        };
        let run = |rec: &mut dyn FnMut(&mut BayesOpt) -> Candidate| -> Vec<Vec<f64>> {
            let mut opt = BayesOpt::new(quadratic_space(), BoConfig::default());
            let mut proposals = Vec::new();
            for _ in 0..8 {
                let c = rec(&mut opt);
                proposals.push(c.unit.clone());
                let y = objective(&c.values);
                opt.observe(c, y).unwrap();
            }
            proposals
        };
        let plain = run(&mut |opt| opt.propose().unwrap());
        let mut mem = mtm_obs::MemRecorder::new();
        let recorded = run(&mut |opt| opt.propose_recorded(&mut mem).unwrap());
        assert_eq!(plain, recorded, "recording must not perturb proposals");

        let proposes: Vec<(usize, String, Option<u64>)> = mem
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Propose {
                    step,
                    path,
                    wall_ns,
                    ..
                } => Some((*step, path.to_string(), *wall_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(proposes.len(), 8, "one Propose event per call");
        // Warm-up steps come from the design; post-warm-up steps from a
        // surrogate path — and with no wall-clock opt-in, no timings.
        let n0 = BoConfig::default().n_init.max(2);
        for (step, path, wall_ns) in &proposes {
            assert_eq!(wall_ns, &None, "deterministic traces carry no timings");
            if *step < n0 {
                assert_eq!(path, "design");
            } else {
                assert!(
                    ["incremental", "replay", "fresh", "uniform"].contains(&path.as_str()),
                    "unexpected path {path} at step {step}"
                );
            }
        }
        assert!(
            proposes.iter().any(|(_, p, _)| p == "incremental"),
            "the persistent surrogate should serve most steps: {proposes:?}"
        );
    }

    #[test]
    fn wallclock_recorder_captures_propose_timings() {
        let mut opt = BayesOpt::new(quadratic_space(), BoConfig::default());
        let mut mem = mtm_obs::MemRecorder::new().with_wallclock(true);
        let c = opt.propose_recorded(&mut mem).unwrap();
        opt.observe(c, 1.0).unwrap();
        match mem.events() {
            [Event::Propose { wall_ns, .. }] => {
                assert!(wall_ns.is_some(), "wall-clock opt-in must time proposals");
            }
            other => panic!("expected one Propose event, got {other:?}"),
        }
    }

    #[test]
    fn warmup_follows_lhs_design() {
        let mut bo = BayesOpt::new(quadratic_space(), BoConfig::default());
        let c1 = bo.propose().expect("propose");
        bo.observe(c1.clone(), 0.0).expect("observe");
        let c2 = bo.propose().expect("propose");
        assert_ne!(c1.unit, c2.unit, "design points must differ");
    }

    #[test]
    fn finds_2d_quadratic_peak() {
        let space = quadratic_space();
        let mut bo = BayesOpt::new(
            space,
            BoConfig {
                seed: 3,
                fit: FitOptions::fast(),
                ..Default::default()
            },
        );
        for _ in 0..25 {
            let c = bo.propose().expect("propose");
            let (x, y) = (c.values[0].as_float(), c.values[1].as_float());
            let obj = -((x - 1.0) * (x - 1.0) + (y + 2.0) * (y + 2.0));
            bo.observe(c, obj).expect("observe");
        }
        let best = bo.best().unwrap();
        assert!(
            best.y > -1.0,
            "BO should get close to the optimum, best objective {}",
            best.y
        );
    }

    #[test]
    fn beats_random_search_on_average() {
        // Same budget, same deterministic objective, three seeds each.
        let objective = |x: f64, y: f64| -> f64 {
            // Branin-like bumpy surface on [-5,5]^2, maximized at ~(1,1).
            -((x - 1.0) * (x - 1.0) + (y - 1.0) * (y - 1.0))
                + 0.5 * (3.0 * x).sin() * (3.0 * y).sin()
        };
        let budget = 22;
        let mut bo_total = 0.0;
        let mut rnd_total = 0.0;
        for seed in 0..3u64 {
            let mut bo = BayesOpt::new(
                quadratic_space(),
                BoConfig {
                    seed,
                    fit: FitOptions::fast(),
                    ..Default::default()
                },
            );
            for _ in 0..budget {
                let c = bo.propose().expect("propose");
                let v = objective(c.values[0].as_float(), c.values[1].as_float());
                bo.observe(c, v).expect("observe");
            }
            bo_total += bo.best().unwrap().y;

            let mut rng = StdRng::seed_from_u64(seed + 1000);
            let space = quadratic_space();
            let mut best = f64::NEG_INFINITY;
            for _ in 0..budget {
                let v = space.sample(&mut rng);
                best = best.max(objective(v[0].as_float(), v[1].as_float()));
            }
            rnd_total += best;
        }
        assert!(
            bo_total > rnd_total,
            "BO ({bo_total:.3}) should beat random search ({rnd_total:.3}) on this budget"
        );
    }

    #[test]
    fn integer_space_proposals_are_valid() {
        let space = ParamSpace::new(vec![Param::int("a", 1, 30), Param::int("b", 1, 30)]);
        let mut bo = BayesOpt::new(
            space,
            BoConfig {
                seed: 5,
                ..Default::default()
            },
        );
        for _ in 0..10 {
            let c = bo.propose().expect("propose");
            let a = c.values[0].as_int();
            let b = c.values[1].as_int();
            assert!((1..=30).contains(&a) && (1..=30).contains(&b));
            bo.observe(c, (a * b) as f64).expect("observe");
        }
    }

    #[test]
    fn best_step_tracks_first_occurrence() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let mut bo = BayesOpt::new(space.clone(), BoConfig::default());
        for y in [1.0, 5.0, 3.0, 5.0] {
            let values = vec![Value::Float(0.5)];
            let unit = space.encode(&values);
            bo.observe(Candidate { unit, values }, y).expect("observe");
        }
        assert_eq!(bo.best_step(), Some(1));
        assert_eq!(bo.best().unwrap().y, 5.0);
    }

    #[test]
    fn constant_objective_does_not_crash() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let mut bo = BayesOpt::new(
            space,
            BoConfig {
                seed: 1,
                ..Default::default()
            },
        );
        for _ in 0..8 {
            let c = bo.propose().expect("propose");
            bo.observe(c, 1.0).expect("observe"); // zero variance targets
        }
        assert_eq!(bo.n_observations(), 8);
    }

    #[test]
    fn marginalized_acquisition_runs() {
        let space = quadratic_space();
        let cfg = BoConfig {
            seed: 9,
            n_init: 4,
            fit: FitOptions::fast(),
            marginalize: Some(Marginalize {
                n_samples: 3,
                burn_in: 1,
            }),
            n_candidates: 64,
            ..Default::default()
        };
        let mut bo = BayesOpt::new(space, cfg);
        for _ in 0..8 {
            let c = bo.propose().expect("propose");
            let v = -(c.values[0].as_float().powi(2));
            bo.observe(c, v).expect("observe");
        }
        assert_eq!(bo.n_observations(), 8);
    }

    #[test]
    fn rejects_nan_objective_without_state_change() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let mut bo = BayesOpt::new(space, BoConfig::default());
        let c = bo.propose().expect("propose");
        let err = bo.observe(c.clone(), f64::NAN).unwrap_err();
        assert!(matches!(err, BoError::NonFiniteObjective(_)));
        assert_eq!(bo.n_observations(), 0, "failed observe must not record");
        bo.observe(c, 1.0).expect("finite objective is accepted");
        assert_eq!(bo.n_observations(), 1);
    }

    #[test]
    fn builder_validates_and_default_round_trips() {
        // Builder with no overrides reproduces Default exactly.
        let built = BoConfig::builder().build().expect("default is valid");
        let dflt = BoConfig::default();
        assert_eq!(built.n_init, dflt.n_init);
        assert_eq!(built.refit_every, dflt.refit_every);
        assert_eq!(built.n_candidates, dflt.n_candidates);
        assert_eq!(built.local_passes, dflt.local_passes);
        assert_eq!(built.seed, dflt.seed);

        assert!(BoConfig::builder().n_init(1).build().is_err());
        assert!(BoConfig::builder().refit_every(0).build().is_err());
        assert!(BoConfig::builder().n_candidates(0).build().is_err());
        assert!(BoConfig::builder()
            .marginalize(Some(Marginalize {
                n_samples: 0,
                burn_in: 1
            }))
            .build()
            .is_err());
        let ok = BoConfig::builder()
            .seed(42)
            .refit_every(3)
            .n_candidates(128)
            .build()
            .expect("valid config");
        assert_eq!(ok.seed, 42);
    }

    #[test]
    fn batch_scoring_matches_per_candidate_scoring() {
        use mtm_gp::kernel::Matern52Ard;
        let d = 3;
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * d + j) as f64 * 0.377).fract())
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| (5.0 * v).sin()).sum())
            .collect();
        let gp = GpRegression::fit(Matern52Ard::new(d, 1.0, 0.3), xs, ys, 1e-3).unwrap();
        // Pool size deliberately not a multiple of SCORE_CHUNK.
        let pool: Vec<Vec<f64>> = (0..(3 * SCORE_CHUNK + 17))
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 7 + j) as f64 * 0.211).fract())
                    .collect()
            })
            .collect();
        let acq = Acquisition::default();
        // One pass over the pool must be bitwise-identical to scoring
        // every candidate on its own.
        let mut batched = Vec::new();
        score_batch(&gp, &acq, &pool, 0.7, &mut batched);
        assert_eq!(batched.len(), pool.len());
        let mut single = Vec::new();
        for (i, (cand, &b)) in pool.iter().zip(&batched).enumerate() {
            score_batch(&gp, &acq, std::slice::from_ref(cand), 0.7, &mut single);
            assert_eq!(
                single[0].to_bits(),
                b.to_bits(),
                "batched score {i} differs: {} vs {b}",
                single[0]
            );
        }
    }

    /// The polish loop as it was before [`polish`]: every trial is a
    /// clone of the incumbent, moved, clamped and fully canonicalized,
    /// and every trial is scored.
    fn polish_reference(
        space: &ParamSpace,
        passes: usize,
        mut best_point: Vec<f64>,
        eval: impl Fn(&[f64]) -> f64,
    ) -> (Vec<f64>, usize) {
        let mut cur_score = eval(&best_point);
        let mut moves = 0;
        for _ in 0..passes {
            let mut improved = false;
            for coord in 0..space.dim() {
                for delta in [-0.15, -0.05, 0.05, 0.15] {
                    let mut trial = best_point.clone();
                    trial[coord] = (trial[coord] + delta).clamp(0.0, 1.0);
                    let trial = space.canonicalize(&trial);
                    let s = eval(&trial);
                    if s > cur_score {
                        cur_score = s;
                        best_point = trial;
                        improved = true;
                        moves += 1;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (best_point, moves)
    }

    /// Run [`polish`] and [`polish_reference`] from the best of a few
    /// snapped candidates under 20 surrogates fit to growing histories
    /// on `space`, asserting the same point bits and move count. With
    /// `unstable_starts`, every candidate is one a second snap would
    /// move, so a polish that does not re-snap the incumbent diverges.
    /// Returns `(moves, trials skipped)` summed over the states.
    fn polish_matches_reference_on(
        space: &ParamSpace,
        lengthscale: f64,
        unstable_starts: bool,
        seed: u64,
    ) -> (usize, usize) {
        let d = space.dim();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = |rng: &mut StdRng| -> Vec<f64> {
            let mut u: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            space.canonicalize_in_place(&mut u);
            u
        };
        let draw_start = |rng: &mut StdRng| loop {
            let u = draw(rng);
            if !unstable_starts || bits(&space.canonicalize(&u)) != bits(&u) {
                break u;
            }
        };
        let target: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
        let objective = |u: &[f64]| -> f64 {
            -u.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let (mut moves, mut skipped) = (0, 0);
        for state in 0..20 {
            for _ in 0..2 {
                let x = draw(&mut rng);
                ys.push(objective(&x));
                xs.push(x);
            }
            let kernel = Matern52Ard::new(d, 1.0, lengthscale);
            let gp = GpRegression::fit(kernel, xs.clone(), ys.clone(), 1e-6).unwrap();
            let z_best = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let acq = Acquisition::default();
            let evals = std::cell::Cell::new(0usize);
            let eval = |u: &[f64]| {
                evals.set(evals.get() + 1);
                let p = gp.predict(u);
                acq.score(p.mean, p.std(), z_best)
            };
            let start = (0..8)
                .map(|_| draw_start(&mut rng))
                .max_by(|a, b| eval(a).total_cmp(&eval(b)))
                .unwrap();
            evals.set(0);
            let (want, want_moves) = polish_reference(space, 2, start.clone(), eval);
            let want_evals = evals.replace(0);
            let (got, got_moves) = polish(space, 2, start, eval);
            assert_eq!(bits(&got), bits(&want), "state {state}: polished point");
            assert_eq!(got_moves, want_moves, "state {state}: move count");
            moves += got_moves;
            skipped += want_evals - evals.get();
        }
        (moves, skipped)
    }

    #[test]
    fn polish_is_bit_equal_to_the_full_canonicalize_loop() {
        // The Medium Hints space: 50 hints and max-tasks (d = 51).
        let mut params: Vec<Param> = (0..50)
            .map(|v| Param::int(format!("h{v}"), 1, 60))
            .collect();
        params.push(Param::log_int("max_tasks", 50, 4_000));
        let (moves, skipped) = polish_matches_reference_on(&ParamSpace::new(params), 2.0, false, 5);
        assert!(
            moves > 0 && skipped > 0,
            "hints: {moves} moves, {skipped} skipped"
        );
        // `ibo`'s informed-multiplier space, where snapping is not
        // idempotent on the LogFloat coordinate.
        let ibo = ParamSpace::new(vec![
            Param::log_float("multiplier", 0.25, 60.0),
            Param::log_int("max_tasks", 50, 4_000),
        ]);
        let (moves, _) = polish_matches_reference_on(&ibo, 0.3, true, 6);
        assert!(moves > 0, "ibo: no polish move kept");
    }

    #[test]
    fn score_batch_is_bit_exact_across_worker_counts() {
        use mtm_gp::kernel::Matern52Ard;
        let d = 4;
        let point = |i: usize, salt: f64| -> Vec<f64> {
            (0..d)
                .map(|j| ((i * d + j) as f64 * 0.377 + salt).fract())
                .collect()
        };
        let xs: Vec<Vec<f64>> = (0..30).map(|i| point(i, 0.0)).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| (4.0 * v).sin()).sum())
            .collect();
        let gp = GpRegression::fit(Matern52Ard::new(d, 1.0, 0.3), xs, ys, 1e-3).unwrap();
        // Six chunks, the last one partial: more chunks than the largest
        // worker count, and not a multiple of any of them.
        let candidates: Vec<Vec<f64>> = (0..(5 * SCORE_CHUNK + 23))
            .map(|i| point(i, 0.13))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for acq in [
            Acquisition::default(),
            Acquisition::UpperConfidenceBound { kappa: 2.0 },
            Acquisition::ProbabilityOfImprovement { xi: 0.01 },
        ] {
            let mut serial = Vec::new();
            score_batch_on(&gp, &acq, &candidates, 0.7, &mut serial, 1);
            assert_eq!(serial.len(), candidates.len());
            // Accumulating twice (the marginalized path) sums chunk by chunk.
            let mut twice = serial.clone();
            accumulate_scores(&gp, &acq, &candidates, 0.7, &mut twice, 1);
            for workers in [2, 3, 5] {
                let mut fanned = Vec::new();
                score_batch_on(&gp, &acq, &candidates, 0.7, &mut fanned, workers);
                assert_eq!(bits(&fanned), bits(&serial), "{acq:?}, workers {workers}");
                accumulate_scores(&gp, &acq, &candidates, 0.7, &mut fanned, workers);
                assert_eq!(
                    bits(&fanned),
                    bits(&twice),
                    "{acq:?}, workers {workers}, twice"
                );
            }
        }
    }

    /// Run the default optimizer and one pinned to the fresh-refit path
    /// side by side for `steps` proposals, asserting the same values at
    /// every step and the same number of hyperparameter fits.
    fn incremental_matches_fresh(kernel: KernelChoice, seed: u64, steps: usize) {
        let objective = |vals: &[Value]| -> f64 {
            let (x, y) = (vals[0].as_float(), vals[1].as_float());
            -((x - 1.0) * (x - 1.0) + (y + 2.0) * (y + 2.0)) + (2.0 * x).sin()
        };
        let config = BoConfig::builder()
            .seed(seed)
            .kernel(kernel)
            .n_init(4)
            .fit(FitOptions::fast())
            .refit_every(3)
            .n_candidates(96)
            .build()
            .expect("valid config");
        let mut inc = BayesOpt::new(quadratic_space(), config.clone());
        let mut fresh = BayesOpt::new(quadratic_space(), config);
        fresh.invalidate_surrogate();
        for step in 0..steps {
            let ci = inc.propose().expect("incremental propose");
            let cf = fresh.propose().expect("fresh propose");
            assert_eq!(
                ci.values, cf.values,
                "{kernel:?}, seed {seed}: proposals diverged at step {step}"
            );
            inc.observe(ci.clone(), objective(&ci.values))
                .expect("observe");
            fresh
                .observe(cf.clone(), objective(&cf.values))
                .expect("observe");
        }
        assert_eq!(
            inc.fits_done(),
            fresh.fits_done(),
            "{kernel:?}, seed {seed}"
        );
    }

    #[test]
    fn incremental_and_fresh_paths_propose_identically() {
        // The bordered appends and retargets of the incremental path
        // must propose what a fresh fit over all observations proposes.
        for kernel in [KernelChoice::Matern52, KernelChoice::SquaredExp] {
            for seed in [1, 17, 99, 1234] {
                incremental_matches_fresh(kernel, seed, 40);
            }
        }
    }

    /// Run a marginalized optimizer and a reference that drops its
    /// surrogate after every proposal (a test-local copy of how
    /// marginalization used to leave the optimizer, rebuilt by replay on
    /// the next call) side by side for `steps` proposals, asserting the
    /// same unit bits at every step. Returns both `fits_done` counts.
    fn marginalized_matches_drop_and_replay(
        kernel: KernelChoice,
        seed: u64,
        steps: usize,
    ) -> (usize, usize) {
        let objective = |vals: &[Value]| -> f64 {
            let (x, y) = (vals[0].as_float(), vals[1].as_float());
            -((x - 1.0) * (x - 1.0) + (y + 2.0) * (y + 2.0)) + (2.0 * x).sin()
        };
        let config = BoConfig::builder()
            .seed(seed)
            .kernel(kernel)
            .n_init(4)
            .fit(FitOptions::fast())
            .refit_every(3)
            .n_candidates(64)
            .marginalize(Some(Marginalize {
                n_samples: 3,
                burn_in: 1,
            }))
            .build()
            .expect("valid config");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut live = BayesOpt::new(quadratic_space(), config.clone());
        let mut reference = BayesOpt::new(quadratic_space(), config);
        for step in 0..steps {
            let cl = live.propose().expect("live propose");
            let cr = reference.propose().expect("reference propose");
            reference.surrogate = None;
            reference.n_absorbed = 0;
            assert_eq!(
                bits(&cl.unit),
                bits(&cr.unit),
                "{kernel:?}, seed {seed}: proposals diverged at step {step}"
            );
            live.observe(cl.clone(), objective(&cl.values))
                .expect("observe");
            reference
                .observe(cr.clone(), objective(&cr.values))
                .expect("observe");
        }
        (live.fits_done(), reference.fits_done())
    }

    #[test]
    fn marginalized_scratch_copy_proposes_like_drop_and_replay() {
        for kernel in [KernelChoice::Matern52, KernelChoice::SquaredExp] {
            for seed in [9, 17, 99] {
                let (live, replayed) = marginalized_matches_drop_and_replay(kernel, seed, 24);
                assert!(
                    live < replayed,
                    "{kernel:?}, seed {seed}: {live} fits live, {replayed} replayed"
                );
            }
        }
    }

    #[test]
    fn invalidate_surrogate_forces_full_refit_next_propose() {
        let mut bo = BayesOpt::new(
            quadratic_space(),
            BoConfig {
                seed: 21,
                fit: FitOptions::fast(),
                refit_every: 4,
                ..Default::default()
            },
        );
        for _ in 0..9 {
            let c = bo.propose().expect("propose");
            let y = -(c.values[0].as_float().powi(2));
            bo.observe(c, y).expect("observe");
        }
        let fits_before = bo.fits_done();
        bo.invalidate_surrogate();
        let _ = bo.propose().expect("propose");
        assert!(
            bo.fits_done() > fits_before,
            "invalidation must force a hyperparameter refit"
        );
    }
}
