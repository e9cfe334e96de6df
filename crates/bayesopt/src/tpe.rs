//! Tree-structured Parzen Estimator (TPE) — the Optuna-style
//! density-ratio optimizer (Bergstra et al., "Algorithms for
//! Hyper-Parameter Optimization", NeurIPS 2011).
//!
//! Where the GP surrogate in [`crate::optimizer`] models p(y | x), TPE
//! models the two conditionals p(x | y good) and p(x | y bad): after a
//! short random startup phase the observation history is split at the
//! gamma quantile of the objective, each side gets a per-dimension
//! Parzen (kernel-density) estimator over the unit-cube encoding, and
//! the next proposal is the candidate — sampled from the *good* density
//! — that maximizes the ratio l(x)/g(x). Discrete parameters ride on the
//! same continuous-relaxation encoding the GP uses (bucket midpoints,
//! see [`crate::space`]), so the estimator needs no per-type cases.
//!
//! Determinism contract (shared with [`crate::optimizer::BayesOpt`]):
//!
//! * every proposal derives its randomness from `(seed, step)` where
//!   `step` is the observation count, so a resumed run that replays its
//!   observations proposes bitwise-identically;
//! * the good/bad split orders observations by `(y desc, unit lex)` —
//!   a pure function of the observation *multiset*, invariant under
//!   permutation of the insertion order;
//! * the split depends on objective *ranks* only, so scaling `y` by any
//!   positive constant leaves the whole proposal sequence unchanged.

use mtm_obs::event::finite_or_zero;
use mtm_obs::{Event, NullRecorder, Recorder};
use mtm_stats::dist::{norm_cdf, norm_pdf, norm_ppf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use crate::error::BoError;
use crate::optimizer::{Candidate, Observation};
use crate::space::ParamSpace;

/// Fraction of the history treated as "good" (the split quantile).
const GAMMA: f64 = 0.25;
/// Candidates sampled from the good density per proposal.
const N_CANDIDATES: usize = 24;

/// Tuning knobs of the TPE sampler. An out-of-range `n_startup` is
/// clamped at construction ([`Tpe::new`]) rather than rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpeConfig {
    /// Seed all per-step randomness derives from.
    pub seed: u64,
    /// Random startup proposals before the density model switches on
    /// (Optuna's `n_startup_trials`).
    pub n_startup: usize,
}

impl Default for TpeConfig {
    fn default() -> Self {
        TpeConfig {
            seed: 0,
            n_startup: 6,
        }
    }
}

impl TpeConfig {
    /// Default knobs with a caller-supplied seed.
    pub fn with_seed(seed: u64) -> Self {
        TpeConfig {
            seed,
            ..TpeConfig::default()
        }
    }
}

/// The TPE propose/observe loop over one [`ParamSpace`].
#[derive(Debug, Clone)]
pub struct Tpe {
    space: ParamSpace,
    config: TpeConfig,
    observations: Vec<Observation>,
}

impl Tpe {
    /// A sampler over `space`, with `n_startup` clamped to at least 1.
    pub fn new(space: ParamSpace, config: TpeConfig) -> Self {
        let config = TpeConfig {
            n_startup: config.n_startup.max(1),
            ..config
        };
        Tpe {
            space,
            config,
            observations: Vec::new(),
        }
    }

    /// The optimization domain.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> &TpeConfig {
        &self.config
    }

    /// Completed evaluations, in observation order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The best observation so far (ties: earliest wins).
    pub fn best(&self) -> Option<&Observation> {
        self.observations
            .iter()
            .reduce(|a, b| if b.y > a.y { b } else { a })
    }

    /// Propose the next configuration to evaluate.
    pub fn propose(&mut self) -> Candidate {
        self.propose_recorded(&mut NullRecorder)
    }

    /// [`propose`](Self::propose) with instrumentation: one
    /// [`Event::Propose`] per proposal, `path: "startup"` during the
    /// random phase and `path: "tpe"` once the density ratio drives the
    /// choice (`pool` is the candidate count, `margin` the best minus
    /// runner-up log-ratio). The proposal is bitwise identical with any
    /// recorder.
    ///
    /// `wall_ns` is captured only when `rec.wallclock()` is true, exactly
    /// as in [`BayesOpt::propose_recorded`](crate::optimizer::BayesOpt::propose_recorded);
    /// the default leaves it `None` so traces stay byte-identical.
    // mtm-cold: one proposal per optimization step, like BayesOpt's.
    // mtm-allow: wall-clock -- opt-in propose-latency capture, as in BayesOpt
    pub fn propose_recorded<R: Recorder>(&mut self, rec: &mut R) -> Candidate {
        let t0 = if R::ENABLED && rec.wallclock() {
            Some(Instant::now())
        } else {
            None
        };
        let step = self.observations.len();
        let mut rng = step_rng(self.config.seed, step);
        if step < self.config.n_startup {
            let candidate = self.space.sample_candidate(&mut rng);
            if R::ENABLED {
                rec.record(Event::Propose {
                    step,
                    path: "startup".into(),
                    refit: false,
                    pool: 1,
                    margin: 0.0,
                    polish_moves: 0,
                    wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64),
                });
            }
            return candidate;
        }

        let (good, bad) = self.partition();
        let dims = self.space.dim();
        let mut good_density = Vec::with_capacity(dims);
        let mut bad_density = Vec::with_capacity(dims);
        for d in 0..dims {
            good_density.push(Parzen::fit(
                good.iter().filter_map(|o| o.unit.get(d).copied()),
            ));
            bad_density.push(Parzen::fit(
                bad.iter().filter_map(|o| o.unit.get(d).copied()),
            ));
        }

        // Sample the candidate pool from the good density, snapped to
        // bucket midpoints so the ratio is evaluated at the configuration
        // that would actually run. Scoring draws no randomness, so all
        // candidates are drawn first, in the same order as one at a time.
        let candidates: Vec<Vec<f64>> = (0..N_CANDIDATES)
            .map(|_| {
                let mut u: Vec<f64> = good_density.iter().map(|p| p.sample(&mut rng)).collect();
                self.space.canonicalize_in_place(&mut u);
                u
            })
            .collect();
        let scores = score_candidates_on(
            &candidates,
            &good_density,
            &bad_density,
            mtm_stats::pool::spare(),
        );
        // Keep the two best log-ratios (argmax + margin). First maximizer
        // wins ties, so the scan order (the sampling order) is
        // load-bearing and deterministic.
        let mut best_u: Vec<f64> = Vec::new();
        let mut best_score = f64::NEG_INFINITY;
        let mut runner_up = f64::NEG_INFINITY;
        for (u, score) in candidates.into_iter().zip(scores) {
            if score > best_score {
                runner_up = best_score;
                best_score = score;
                best_u = u;
            } else if score > runner_up {
                runner_up = score;
            }
        }
        let values = self.space.decode(&best_u);
        if R::ENABLED {
            rec.record(Event::Propose {
                step,
                path: "tpe".into(),
                refit: false,
                pool: N_CANDIDATES,
                margin: finite_or_zero(best_score - runner_up),
                polish_moves: 0,
                wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64),
            });
        }
        Candidate {
            unit: best_u,
            values,
        }
    }

    /// Record the result of evaluating `candidate`. Rejects NaN/±inf
    /// objectives with [`BoError::NonFiniteObjective`]; state is
    /// unchanged on error.
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

    /// The good/bad split the next proposal would model: observations
    /// ordered by `(y desc, unit lex asc)` — a pure function of the
    /// observation multiset — with the top `ceil(GAMMA·n)` (at least 1)
    /// forming the good side. Public so the metamorphic suite can pin
    /// the permutation invariance directly.
    pub fn partition(&self) -> (Vec<&Observation>, Vec<&Observation>) {
        let mut ordered: Vec<&Observation> = self.observations.iter().collect();
        ordered.sort_by(|a, b| {
            b.y.total_cmp(&a.y).then_with(|| {
                // Lexicographic unit-point tie-break: insertion-order
                // independent even when two configs share an objective.
                a.unit
                    .iter()
                    .zip(b.unit.iter())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        let n_good =
            ((GAMMA * ordered.len() as f64).ceil() as usize).clamp(1, ordered.len().max(1));
        let bad = ordered.split_off(n_good.min(ordered.len()));
        (ordered, bad)
    }
}

/// Log density ratio `log l(u) − log g(u)` of each candidate, summed in
/// dimension order. The candidates fan out over `workers` threads of the
/// one pool ([`mtm_stats::pool`]); each score is the same sum whichever
/// thread computes it, so the scores do not depend on `workers`.
fn score_candidates_on(
    candidates: &[Vec<f64>],
    good: &[Parzen],
    bad: &[Parzen],
    workers: usize,
) -> Vec<f64> {
    mtm_stats::pool::run_indexed(candidates.len(), workers, |i| {
        candidates.get(i).map_or(f64::NEG_INFINITY, |u| {
            u.iter()
                .zip(good.iter().zip(bad))
                .map(|(&x, (l, g))| l.log_pdf(x) - g.log_pdf(x))
                .sum()
        })
    })
}

/// Per-step RNG derivation, shared with `BayesOpt`: resumed runs replay
/// their observations and land on the same stream.
fn step_rng(seed: u64, step: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9))
}

/// One-dimensional Parzen estimator on `[0, 1]`: a uniform-weight
/// mixture of truncated Gaussians, one per observed coordinate plus one
/// wide prior component at the interval center (so an empty or
/// single-point side still defines a proper density). Bandwidths follow
/// the classic TPE heuristic — distance to the farther neighbor, with
/// the interval edges counting as neighbors.
#[derive(Debug, Clone)]
struct Parzen {
    /// One entry per mixture component, observed points first
    /// (ascending), the prior component last.
    components: Vec<Component>,
}

/// One truncated-Gaussian mixture component, with the CDF values its
/// density and its sampler need fixed at fit time (see [`component`]),
/// so neither `log_pdf` nor `sample` calls `norm_cdf`.
#[derive(Debug, Clone, Copy)]
struct Component {
    /// Center.
    c: f64,
    /// Width.
    s: f64,
    /// The density's divisor `width × in-range mass`.
    norm: f64,
    /// `(Φ(−c/s), Φ((1−c)/s))`: the CDF at the interval's edges.
    cdf: (f64, f64),
}

/// Bandwidth floor: keeps a cluster of identical coordinates (common
/// with bucket-midpoint encodings) from collapsing into a delta spike.
const MIN_BANDWIDTH: f64 = 1e-3;
/// The wide prior component (center 0.5, width 1) every mixture carries.
const PRIOR: (f64, f64) = (0.5, 1.0);

impl Parzen {
    /// Fit the mixture to the observed coordinates of one dimension.
    fn fit(coords: impl Iterator<Item = f64>) -> Parzen {
        let mut centers: Vec<f64> = coords.map(|c| c.clamp(0.0, 1.0)).collect();
        centers.sort_by(f64::total_cmp);
        let n = centers.len();
        let mut components = Vec::with_capacity(n + 1);
        for (i, &c) in centers.iter().enumerate() {
            // The interval edges count as the first/last point's
            // neighbors; `get` keeps the scan free of panicking indexing.
            let left = i
                .checked_sub(1)
                .and_then(|j| centers.get(j).copied())
                .unwrap_or(0.0);
            let right = centers.get(i + 1).copied().unwrap_or(1.0);
            let width = (c - left).max(right - c).clamp(MIN_BANDWIDTH, 1.0);
            components.push(component(c, width));
        }
        components.push(component(PRIOR.0, PRIOR.1));
        Parzen { components }
    }

    /// Log-density at `u` (natural log; finite for `u` in `[0, 1]`).
    fn log_pdf(&self, u: f64) -> f64 {
        let k = self.components.len() as f64;
        let mut acc = 0.0;
        for &Component { c, s, norm, .. } in &self.components {
            acc += norm_pdf((u - c) / s) / norm;
        }
        (acc / k).max(f64::MIN_POSITIVE).ln()
    }

    /// Draw one coordinate: pick a component uniformly, then
    /// inverse-CDF sample its truncated Gaussian — two uniform draws per
    /// coordinate, fully deterministic under a seeded `rng`.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let k = self.components.len();
        let pick = ((rng.random::<f64>() * k as f64).floor() as usize).min(k.saturating_sub(1));
        let Component {
            c,
            s,
            cdf: (lo, hi),
            ..
        } = self
            .components
            .get(pick)
            .copied()
            .unwrap_or_else(|| component(PRIOR.0, PRIOR.1));
        let p = (lo + rng.random::<f64>() * (hi - lo)).clamp(1e-12, 1.0 - 1e-12);
        (c + s * norm_ppf(p)).clamp(0.0, 1.0)
    }
}

/// The mixture component at center `c` with width `s`. Its density
/// divides by `s × mass`, where `mass = Φ((1−c)/s) − Φ(−c/s)` is the
/// probability a Gaussian at `(c, s)` leaves inside `[0, 1]`.
fn component(c: f64, s: f64) -> Component {
    let cdf = (norm_cdf((0.0 - c) / s), norm_cdf((1.0 - c) / s));
    let mass = cdf.1 - cdf.0;
    Component {
        c,
        s,
        norm: s * mass.max(f64::MIN_POSITIVE),
        cdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Param, Value};

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::int("h", 1, 30),
            Param::log_int("batch", 10, 10_000),
            Param::categorical("mode", &["a", "b", "c"]),
        ])
    }

    fn drive(seed: u64, ys: &[f64]) -> (Tpe, Vec<Vec<Value>>) {
        let mut tpe = Tpe::new(
            space(),
            TpeConfig {
                n_startup: 4,
                ..TpeConfig::with_seed(seed)
            },
        );
        let mut proposed = Vec::new();
        for &y in ys {
            let cand = tpe.propose();
            proposed.push(cand.values.clone());
            tpe.observe(cand, y).unwrap();
        }
        (tpe, proposed)
    }

    #[test]
    fn proposals_are_deterministic_and_in_range() {
        let ys: Vec<f64> = (0..12).map(|i| (i as f64 * 7.3) % 5.0).collect();
        let (_, a) = drive(9, &ys);
        let (_, b) = drive(9, &ys);
        assert_eq!(a, b, "same seed, same history, same proposals");
        for values in &a {
            let h = values[0].as_int();
            assert!((1..=30).contains(&h));
        }
        let (_, c) = drive(10, &ys);
        assert_ne!(a, c, "a different seed explores differently");
    }

    #[test]
    fn startup_phase_lasts_n_startup_steps() {
        let mut tpe = Tpe::new(
            space(),
            TpeConfig {
                n_startup: 3,
                ..TpeConfig::default()
            },
        );
        let mut rec = mtm_obs::MemRecorder::new();
        for i in 0..5 {
            let cand = tpe.propose_recorded(&mut rec);
            tpe.observe(cand, i as f64).unwrap();
        }
        let paths: Vec<&str> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Propose { path, .. } => Some(path.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(paths, ["startup", "startup", "startup", "tpe", "tpe"]);
    }

    #[test]
    fn partition_takes_the_gamma_top() {
        let ys = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0];
        let (tpe, _) = drive(3, &ys);
        let (good, bad) = tpe.partition();
        assert_eq!(good.len(), 2, "ceil(0.25 * 8)");
        assert_eq!(bad.len(), 6);
        let min_good = good.iter().map(|o| o.y).fold(f64::INFINITY, f64::min);
        let max_bad = bad.iter().map(|o| o.y).fold(f64::NEG_INFINITY, f64::max);
        assert!(min_good >= max_bad, "split respects the quantile");
    }

    #[test]
    fn non_finite_objective_is_rejected() {
        let mut tpe = Tpe::new(space(), TpeConfig::default());
        let cand = tpe.propose();
        assert!(tpe.observe(cand.clone(), f64::NAN).is_err());
        assert!(tpe.observations().is_empty());
        tpe.observe(cand, 1.0).unwrap();
        assert_eq!(tpe.observations().len(), 1);
    }

    #[test]
    fn converges_toward_the_peak_on_a_smooth_objective() {
        // 1-D peak at h = 22: after a modest budget TPE's best should be
        // close — the density ratio must actually steer.
        let space = ParamSpace::new(vec![Param::int("h", 1, 60)]);
        let mut tpe = Tpe::new(space, TpeConfig::with_seed(11));
        for _ in 0..40 {
            let cand = tpe.propose();
            let h = cand.values[0].as_int() as f64;
            let y = -(h - 22.0) * (h - 22.0);
            tpe.observe(cand, y).unwrap();
        }
        let best = tpe.best().unwrap().values[0].as_int();
        assert!(
            (best - 22).abs() <= 3,
            "best {best} should be near the peak 22"
        );
    }

    #[test]
    fn parzen_is_a_proper_density() {
        let p = Parzen::fit([0.2, 0.21, 0.8].into_iter());
        // Trapezoid-integrate exp(log_pdf) over [0,1]: ~1.
        let n = 2_000;
        let mass: f64 = (0..=n)
            .map(|i| {
                let u = i as f64 / n as f64;
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                w * p.log_pdf(u).exp()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mass - 1.0).abs() < 0.01, "total mass {mass}");
        // Density concentrates where the points are.
        assert!(p.log_pdf(0.2) > p.log_pdf(0.5));
    }

    /// Probability mass a unit Gaussian at `(c, s)` leaves inside
    /// `[0, 1]`, recomputed per call as `log_pdf` once did.
    fn truncnorm_mass(c: f64, s: f64) -> f64 {
        norm_cdf((1.0 - c) / s) - norm_cdf((0.0 - c) / s)
    }

    /// `Parzen::sample` as it was before the CDF pair was cached: both
    /// edge CDFs recomputed per draw.
    fn sample_recomputing_cdfs(p: &Parzen, rng: &mut StdRng) -> f64 {
        let k = p.components.len();
        let pick = ((rng.random::<f64>() * k as f64).floor() as usize).min(k.saturating_sub(1));
        let (c, s) = p.components.get(pick).map_or(PRIOR, |m| (m.c, m.s));
        let lo = norm_cdf((0.0 - c) / s);
        let hi = norm_cdf((1.0 - c) / s);
        let p = (lo + rng.random::<f64>() * (hi - lo)).clamp(1e-12, 1.0 - 1e-12);
        (c + s * norm_ppf(p)).clamp(0.0, 1.0)
    }

    #[test]
    fn parzen_cached_normalizers_match_per_call_recomputation() {
        let p = Parzen::fit([0.0, 0.2, 0.2, 0.21, 0.8, 1.0].into_iter());
        for m in &p.components {
            let lo = norm_cdf((0.0 - m.c) / m.s);
            let hi = norm_cdf((1.0 - m.c) / m.s);
            assert_eq!(m.cdf.0.to_bits(), lo.to_bits(), "c = {}", m.c);
            assert_eq!(m.cdf.1.to_bits(), hi.to_bits(), "c = {}", m.c);
        }
        for i in 0..=50 {
            let u = i as f64 / 50.0;
            let k = p.components.len() as f64;
            let mut acc = 0.0;
            for m in &p.components {
                let z = truncnorm_mass(m.c, m.s).max(f64::MIN_POSITIVE);
                acc += norm_pdf((u - m.c) / m.s) / (m.s * z);
            }
            let want = (acc / k).max(f64::MIN_POSITIVE).ln();
            assert_eq!(p.log_pdf(u).to_bits(), want.to_bits(), "u = {u}");
        }
        let (mut fast, mut slow) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        for draw in 0..2_000 {
            let got = p.sample(&mut fast);
            let want = sample_recomputing_cdfs(&p, &mut slow);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {draw}");
        }
    }

    #[test]
    fn tpe_scoring_is_bit_exact_across_worker_counts() {
        // A d = 51 history like the Medium Hints space's, split as a
        // proposal splits it, scored over several pool widths.
        let mut params: Vec<Param> = (0..50)
            .map(|v| Param::int(format!("h{v}"), 1, 60))
            .collect();
        params.push(Param::log_int("max_tasks", 50, 4_000));
        let mut tpe = Tpe::new(ParamSpace::new(params), TpeConfig::with_seed(4));
        for i in 0..30 {
            let cand = tpe.propose();
            tpe.observe(cand, ((i * 37) % 11) as f64).unwrap();
        }
        let (good, bad) = tpe.partition();
        let dims = tpe.space().dim();
        let fit = |side: &[&Observation]| -> Vec<Parzen> {
            (0..dims)
                .map(|d| Parzen::fit(side.iter().filter_map(|o| o.unit.get(d).copied())))
                .collect()
        };
        let (l, g) = (fit(&good), fit(&bad));
        let mut rng = StdRng::seed_from_u64(8);
        let candidates: Vec<Vec<f64>> = (0..37)
            .map(|_| {
                let mut u: Vec<f64> = l.iter().map(|p| p.sample(&mut rng)).collect();
                tpe.space().canonicalize_in_place(&mut u);
                u
            })
            .collect();
        let serial = score_candidates_on(&candidates, &l, &g, 1);
        assert_eq!(serial.len(), candidates.len());
        for (u, &got) in candidates.iter().zip(&serial) {
            let mut want = 0.0;
            for ((&x, lp), gp) in u.iter().zip(&l).zip(&g) {
                want += lp.log_pdf(x) - gp.log_pdf(x);
            }
            assert_eq!(got.to_bits(), want.to_bits());
        }
        for workers in [2, 3, 5] {
            let fanned = score_candidates_on(&candidates, &l, &g, workers);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fanned), bits(&serial), "workers = {workers}");
        }
    }

    #[test]
    fn propose_timing_is_opt_in() {
        let cfg = TpeConfig {
            n_startup: 1,
            ..TpeConfig::default()
        };
        let walls = |mut rec: mtm_obs::MemRecorder| {
            let mut tpe = Tpe::new(space(), cfg);
            for i in 0..3 {
                let cand = tpe.propose_recorded(&mut rec);
                tpe.observe(cand, i as f64).unwrap();
            }
            rec.events()
                .iter()
                .filter_map(|e| match e {
                    Event::Propose { wall_ns, .. } => Some(wall_ns.is_some()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // Both the startup and the density-ratio path are timed.
        assert_eq!(
            walls(mtm_obs::MemRecorder::new().with_wallclock(true)),
            [true; 3]
        );
        assert_eq!(walls(mtm_obs::MemRecorder::new()), [false; 3]);
    }

    #[test]
    fn parzen_sampling_stays_in_bounds_and_tracks_centers() {
        let p = Parzen::fit([0.1, 0.12, 0.9].into_iter());
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<f64> = (0..500).map(|_| p.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let near = draws
            .iter()
            .filter(|&&x| (x - 0.11).abs() < 0.2 || (x - 0.9).abs() < 0.2)
            .count();
        assert!(near > draws.len() / 2, "draws cluster at the centers");
    }
}
