//! Type-II maximum-likelihood hyperparameter fitting.
//!
//! We maximize the log marginal likelihood (optionally plus a log-prior,
//! giving MAP estimation) with Adam in log-hyperparameter space, restarted
//! from several random initializations. Adam is a good fit here: the LML
//! surface is cheap to differentiate analytically (see
//! [`crate::gp::GpRegression::lml_with_grad`]) but multimodal and poorly
//! scaled across parameters, which adaptive per-coordinate steps absorb.
//!
//! The restarts are independent ascents, so they fan out over the
//! workspace's one thread pool ([`mtm_stats::pool`]) on whatever cores
//! no other thread has claimed. The fitted bits do not depend on how
//! many that is (see [`optimize`]).

use mtm_stats::pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gp::GpRegression;
use crate::kernel::Kernel;
use crate::priors::IndependentPriors;

/// Adam learning rate (log space).
const LEARNING_RATE: f64 = 0.08;
/// Clamp for each log-hyperparameter, symmetric around 0.
const LOG_BOUND: f64 = 9.0;
/// RNG seed for restart initialization.
const SEED: u64 = 0x5EED;

/// Options controlling the hyperparameter fit.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Number of random restarts in addition to the current parameters.
    pub restarts: usize,
    /// Adam iterations per restart.
    pub max_iters: usize,
    /// Optional log-priors turning ML into MAP estimation.
    pub priors: Option<IndependentPriors>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            restarts: 2,
            max_iters: 80,
            priors: None,
        }
    }
}

impl FitOptions {
    /// A cheaper configuration for inner loops and tests.
    pub fn fast() -> Self {
        FitOptions {
            restarts: 1,
            max_iters: 50,
            ..Default::default()
        }
    }

    /// A thorough configuration for final fits.
    pub fn thorough() -> Self {
        FitOptions {
            restarts: 4,
            max_iters: 160,
            ..Default::default()
        }
    }
}

/// Maximize the (penalized) log marginal likelihood of `gp` in place.
/// Returns the best LML value reached (excluding the prior term).
///
/// The restarts run on the cores no other thread has claimed
/// ([`pool::spare`]); the result is bitwise the same on any number.
pub fn optimize<K: Kernel>(gp: &mut GpRegression<K>, opts: &FitOptions) -> f64 {
    optimize_on(gp, opts, pool::spare())
}

/// [`optimize`] with its restarts fanned out over `workers` threads.
///
/// Each restart ascends on its own clone of `gp` from a start point
/// drawn before any ascent runs, and the ascents draw no randomness, so
/// the per-restart results do not depend on `workers`; the reduction
/// then walks them in restart order.
fn optimize_on<K: Kernel>(gp: &mut GpRegression<K>, opts: &FitOptions, workers: usize) -> f64 {
    let start = gp.hyperparameters();
    let mut best_lml = gp.log_marginal_likelihood();
    let inits = restart_points(&start, opts);
    // The refit-boundary drift check compares an incrementally updated
    // factor with a fresh one at the same hyperparameters. Run it once on
    // the incoming GP: each restart's clone refactors at its own start
    // point, which the check would mistake for drift.
    #[cfg(feature = "strict-invariants")]
    let _ = gp.refit();

    let base: &GpRegression<K> = gp;
    let ascents = pool::run_indexed(inits.len(), workers, |restart| {
        inits
            .get(restart)
            .and_then(|init| ascend_from(base.clone(), init, opts))
    });

    let mut best_params = start.clone();
    for (params, lml) in ascents.into_iter().flatten() {
        if lml > best_lml && lml.is_finite() {
            best_lml = lml;
            best_params = params;
        }
    }

    // Leave the GP at the best parameters found (fall back to the original
    // ones, which are always refittable).
    if gp.set_hyperparameters(&best_params).is_err() {
        let _ = gp.set_hyperparameters(&start);
    }
    gp.log_marginal_likelihood()
}

/// The start point of every restart, in restart order, all drawn from
/// the one seeded RNG before any ascent runs.
fn restart_points(start: &[f64], opts: &FitOptions) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..=opts.restarts)
        .map(|restart| {
            if restart == 0 {
                start.to_vec()
            } else if restart == 1 {
                // First restart is always unit scale with optimistic (small)
                // noise: a canonical start that doesn't depend on the RNG
                // stream, so a badly-scaled incoming point can never strand
                // the whole fit. Noise starts low because a large initial
                // noise floor pulls Adam into the "everything is noise"
                // basin before the signal parameters can adapt; from below,
                // the noise gradient recovers quickly if the data really is
                // noisy.
                let mut p = vec![0.0; start.len()];
                if let Some(last) = p.last_mut() {
                    *last = -6.0;
                }
                p
            } else {
                // Remaining restarts around unit scale rather than around
                // the incoming point: a bad starting point would otherwise
                // anchor every restart inside the same bad basin.
                start.iter().map(|_| rng.random_range(-3.0..3.0)).collect()
            }
        })
        .collect()
}

/// One restart on its own GP: factor at `init`, ascend, refactor at the
/// ascent's best point. `None` when either factorization fails.
fn ascend_from<K: Kernel>(
    mut gp: GpRegression<K>,
    init: &[f64],
    opts: &FitOptions,
) -> Option<(Vec<f64>, f64)> {
    gp.set_hyperparameters(init).ok()?;
    let final_params = adam_ascent(&mut gp, opts);
    gp.set_hyperparameters(&final_params).ok()?;
    Some((final_params, gp.log_marginal_likelihood()))
}

/// One Adam ascent run from the GP's current hyperparameters. Returns the
/// best parameter vector visited.
fn adam_ascent<K: Kernel>(gp: &mut GpRegression<K>, opts: &FitOptions) -> Vec<f64> {
    const BETA1: f64 = 0.9;
    const BETA2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    let mut params = gp.hyperparameters();
    let dim = params.len();
    let mut m = vec![0.0; dim];
    let mut v = vec![0.0; dim];
    let mut best = params.clone();
    let mut best_obj = f64::NEG_INFINITY;

    for t in 1..=opts.max_iters {
        let (lml, mut grad) = gp.lml_with_grad();
        let mut obj = lml;
        if let Some(priors) = &opts.priors {
            obj += priors.log_density(&params);
            priors.add_grad(&params, &mut grad);
        }
        if obj > best_obj && obj.is_finite() {
            best_obj = obj;
            best.copy_from_slice(&params);
        }
        if !grad.iter().all(|g| g.is_finite()) {
            break;
        }
        let mut max_step = 0.0_f64;
        for i in 0..dim {
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * grad[i];
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * grad[i] * grad[i];
            let m_hat: f64 = m[i] / (1.0 - BETA1.powi(t as i32));
            let v_hat: f64 = v[i] / (1.0 - BETA2.powi(t as i32));
            let step = LEARNING_RATE * m_hat / (v_hat.sqrt() + EPS);
            params[i] = (params[i] + step).clamp(-LOG_BOUND, LOG_BOUND);
            max_step = max_step.max(step.abs());
        }
        if gp.set_hyperparameters(&params).is_err() {
            // Stepped into an unfactorable region: stop this restart and
            // report the best point seen so far.
            break;
        }
        if max_step < 1e-5 {
            break; // converged
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52Ard, SquaredExpArd};
    use crate::priors::{IndependentPriors, Prior};

    fn noisy_quadratic() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        // Deterministic pseudo-noise so the test is stable.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let noise = if i % 2 == 0 { 0.02 } else { -0.02 };
                -(x[0] - 0.5) * (x[0] - 0.5) + noise
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn fit_recovers_sensible_noise() {
        let (xs, ys) = noisy_quadratic();
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.5).unwrap();
        gp.optimize_hyperparameters(&FitOptions::default());
        // Noise of 0.5 is far too big for +-0.02 jitter; the fit should
        // shrink it by orders of magnitude.
        assert!(gp.noise_var() < 0.05, "noise_var = {}", gp.noise_var());
    }

    #[test]
    fn restarts_do_not_hurt() {
        let (xs, ys) = noisy_quadratic();
        let mut gp1 =
            GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs.clone(), ys.clone(), 0.1)
                .unwrap();
        let one = gp1.optimize_hyperparameters(&FitOptions {
            restarts: 0,
            ..Default::default()
        });
        let mut gp4 = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.1).unwrap();
        let four = gp4.optimize_hyperparameters(&FitOptions {
            restarts: 3,
            ..Default::default()
        });
        assert!(
            four >= one - 1e-6,
            "more restarts can't do worse: {four} vs {one}"
        );
    }

    #[test]
    fn map_fit_respects_priors() {
        let (xs, ys) = noisy_quadratic();
        // Very tight prior pinning the noise to a large value.
        let n_params = 3; // signal + 1 lengthscale + noise
        let mut priors = IndependentPriors::flat(n_params);
        priors.set(2, Prior::log_normal((0.3_f64).ln(), 0.01));
        let opts = FitOptions {
            priors: Some(priors),
            ..Default::default()
        };
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.3).unwrap();
        gp.optimize_hyperparameters(&opts);
        // MAP fit should keep the noise near 0.3 despite the likelihood
        // preferring something tiny.
        assert!(
            gp.noise_var() > 0.1,
            "prior should have held the noise up, got {}",
            gp.noise_var()
        );
    }

    fn noisy_surface() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..18)
            .map(|i| vec![(i as f64 * 0.61).sin(), i as f64 / 17.0])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (2.0 * x[0]).cos() + x[1] * x[1] + if i % 3 == 0 { 0.05 } else { -0.03 })
            .collect();
        (xs, ys)
    }

    /// The fitted hyperparameters and returned LML, as bits, when the
    /// restarts of one fit of `gp` run on `workers` threads.
    fn fit_bits<K: Kernel>(gp: &GpRegression<K>, opts: &FitOptions, workers: usize) -> Vec<u64> {
        let mut gp = gp.clone();
        let lml = optimize_on(&mut gp, opts, workers);
        let mut bits: Vec<u64> = gp.hyperparameters().iter().map(|p| p.to_bits()).collect();
        bits.push(lml.to_bits());
        bits
    }

    fn assert_bit_exact_across_workers<K: Kernel>(gp: &GpRegression<K>, label: &str) {
        let n_params = gp.hyperparameters().len();
        for restarts in [0, 2, 4] {
            for priors in [None, Some(IndependentPriors::weakly_informative(n_params))] {
                let opts = FitOptions {
                    restarts,
                    priors,
                    ..Default::default()
                };
                let serial = fit_bits(gp, &opts, 1);
                for workers in [2, 3, 5] {
                    assert_eq!(
                        fit_bits(gp, &opts, workers),
                        serial,
                        "{label}, restarts {restarts}, MAP {}, workers {workers}",
                        opts.priors.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn fit_is_bit_exact_across_worker_counts() {
        let (xs, ys) = noisy_surface();
        let se = GpRegression::fit(
            SquaredExpArd::new(2, 1.0, 0.5),
            xs.clone(),
            ys.clone(),
            0.05,
        )
        .unwrap();
        assert_bit_exact_across_workers(&se, "SE-ARD");
        let matern = GpRegression::fit(Matern52Ard::new(2, 1.0, 0.5), xs, ys, 0.05).unwrap();
        assert_bit_exact_across_workers(&matern, "Matérn-5/2");
    }

    // Strict builds assert a finite Gram matrix, and a non-finite one is
    // exactly the factorization failure this test provokes.
    #[cfg(not(feature = "strict-invariants"))]
    #[test]
    fn fit_is_bit_exact_when_a_restart_fails_to_factor() {
        // Inputs 1e200 apart: at the incoming lengthscale e^500 they are
        // close, but at any start point's unit-scale lengthscale their
        // squared distance overflows and Matérn's `inf · 0` is NaN.
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 1e200]).collect();
        let ys: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let gp = GpRegression::fit(Matern52Ard::new(1, 1.0, 500.0_f64.exp()), xs, ys, 0.1).unwrap();
        let opts = FitOptions {
            restarts: 2,
            ..Default::default()
        };
        let inits = restart_points(&gp.hyperparameters(), &opts);
        let failed = inits
            .iter()
            .filter(|init| ascend_from(gp.clone(), init, &opts).is_none())
            .count();
        assert!(failed >= 1, "no restart took the failed-factor path");
        let serial = fit_bits(&gp, &opts, 1);
        for workers in [2, 3, 5] {
            assert_eq!(fit_bits(&gp, &opts, workers), serial, "workers {workers}");
        }
    }
}
