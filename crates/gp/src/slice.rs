//! Univariate slice sampling (Neal 2003), applied coordinate-wise.
//!
//! Spearmint does not pick a single hyperparameter setting: it slice-samples
//! the hyperparameter posterior and *averages the acquisition function over
//! the samples*. [`sample_hyperposterior`] provides that machinery — it
//! draws from `p(θ | D) ∝ exp(LML(θ)) · prior(θ)` by cycling coordinates
//! with the stepping-out/shrinkage procedure.

use rand::rngs::StdRng;
use rand::Rng;

use crate::gp::GpRegression;
use crate::kernel::Kernel;
use crate::priors::IndependentPriors;

/// One univariate slice-sampling move along coordinate `coord` of `x`.
///
/// `log_f` evaluates the (unnormalized) log target at a full vector.
/// `width` is the initial bracket size.
pub fn slice_sample_coord(
    log_f: &mut dyn FnMut(&[f64]) -> f64,
    x: &mut [f64],
    coord: usize,
    width: f64,
    rng: &mut StdRng,
) {
    const MAX_STEPS: usize = 32;
    let x0 = x[coord];
    let log_fx0 = log_f(x);
    if !log_fx0.is_finite() {
        return; // refuse to move from an invalid state
    }
    // Vertical level defining the slice.
    let log_y = log_fx0 + rng.random::<f64>().max(1e-300).ln();

    // Step out.
    let mut lo = x0 - width * rng.random::<f64>();
    let mut hi = lo + width;
    for _ in 0..MAX_STEPS {
        x[coord] = lo;
        if log_f(x) <= log_y {
            break;
        }
        lo -= width;
    }
    for _ in 0..MAX_STEPS {
        x[coord] = hi;
        if log_f(x) <= log_y {
            break;
        }
        hi += width;
    }

    // Shrinkage.
    for _ in 0..MAX_STEPS * 2 {
        let cand = rng.random_range(lo..hi);
        x[coord] = cand;
        if log_f(x) > log_y {
            return; // accepted
        }
        if cand < x0 {
            lo = cand;
        } else {
            hi = cand;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    x[coord] = x0; // give up, stay put
}

/// Draw `n_samples` hyperparameter vectors from the GP's
/// hyperposterior, after `burn_in` discarded sweeps. The GP is left at
/// the **last** sample.
///
/// Each returned vector is `[kernel log-params..., log noise]`, the same
/// layout as [`GpRegression::hyperparameters`].
pub fn sample_hyperposterior<K: Kernel>(
    gp: &mut GpRegression<K>,
    priors: &IndependentPriors,
    n_samples: usize,
    burn_in: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut current = gp.hyperparameters();
    let dim = current.len();
    debug_assert_eq!(priors.len(), dim);

    let mut log_f = |p: &[f64]| -> f64 {
        let prior = priors.log_density(p);
        if !prior.is_finite() {
            return f64::NEG_INFINITY;
        }
        match gp.set_hyperparameters(p) {
            Ok(()) => gp.log_marginal_likelihood() + prior,
            Err(_) => f64::NEG_INFINITY,
        }
    };

    let mut out = Vec::with_capacity(n_samples);
    for sweep in 0..(burn_in + n_samples) {
        for coord in 0..dim {
            slice_sample_coord(&mut log_f, &mut current, coord, 1.0, rng);
        }
        if sweep >= burn_in {
            out.push(current.clone());
        }
    }
    // Ensure the GP state matches the final sample.
    let _ = gp.set_hyperparameters(&current);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExpArd;
    use rand::SeedableRng;

    #[test]
    fn samples_standard_normal() {
        // Target: standard normal in 1-D. Check mean/var of the chain.
        let mut rng = StdRng::seed_from_u64(42);
        let mut log_f = |x: &[f64]| -0.5 * x[0] * x[0];
        let mut x = vec![3.0];
        let mut samples = Vec::new();
        for i in 0..3000 {
            slice_sample_coord(&mut log_f, &mut x, 0, 1.0, &mut rng);
            if i >= 500 {
                samples.push(x[0]);
            }
        }
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.12, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.25, "var = {var}");
    }

    #[test]
    fn respects_hard_bounds() {
        // Target: uniform on [0, 1]. All samples must stay inside.
        let mut rng = StdRng::seed_from_u64(7);
        let mut log_f = |x: &[f64]| {
            if (0.0..=1.0).contains(&x[0]) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut x = vec![0.5];
        for _ in 0..500 {
            slice_sample_coord(&mut log_f, &mut x, 0, 0.3, &mut rng);
            assert!((0.0..=1.0).contains(&x[0]), "escaped: {}", x[0]);
        }
    }

    #[test]
    fn hyperposterior_sampling_stays_finite_and_plausible() {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).cos()).collect();
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 0.5), xs, ys, 1e-2).unwrap();
        let priors = IndependentPriors::weakly_informative(3);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = sample_hyperposterior(&mut gp, &priors, 8, 4, &mut rng);
        assert_eq!(samples.len(), 8);
        for s in &samples {
            assert_eq!(s.len(), 3);
            assert!(s.iter().all(|v| v.is_finite()));
        }
        // Chain should move.
        assert!(samples.windows(2).any(|w| w[0] != w[1]));
    }
}
