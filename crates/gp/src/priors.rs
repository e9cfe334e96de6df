//! Priors over log-hyperparameters, for MAP fitting and slice sampling.

/// A univariate prior over one log-hyperparameter.
#[derive(Debug, Clone, Copy)]
pub enum Prior {
    /// Improper flat prior (contributes nothing).
    Flat,
    /// Normal prior on the log-parameter, i.e. log-normal on the parameter.
    LogNormal {
        /// Mean of the log-parameter.
        mu: f64,
        /// Standard deviation of the log-parameter.
        sigma: f64,
    },
    /// Hard uniform box on the log-parameter: `-inf` density outside.
    Uniform {
        /// Lower bound (log space).
        lo: f64,
        /// Upper bound (log space).
        hi: f64,
    },
}

impl Prior {
    /// Log-normal convenience constructor (`mu`, `sigma` in log space).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive.
    pub fn log_normal(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0);
        Prior::LogNormal { mu, sigma }
    }

    /// Log density at log-parameter `p` (up to a constant).
    pub fn log_density(&self, p: f64) -> f64 {
        match *self {
            Prior::Flat => 0.0,
            Prior::LogNormal { mu, sigma } => {
                let z = (p - mu) / sigma;
                -0.5 * z * z
            }
            Prior::Uniform { lo, hi } => {
                if p >= lo && p <= hi {
                    0.0
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
    }

    /// Gradient of the log density at `p` (0 where undefined).
    pub fn grad(&self, p: f64) -> f64 {
        match *self {
            Prior::Flat | Prior::Uniform { .. } => 0.0,
            Prior::LogNormal { mu, sigma } => -(p - mu) / (sigma * sigma),
        }
    }
}

/// Independent priors, one per hyperparameter.
#[derive(Debug, Clone)]
pub struct IndependentPriors {
    priors: Vec<Prior>,
}

impl IndependentPriors {
    /// All-flat priors over `n` parameters.
    pub fn flat(n: usize) -> Self {
        IndependentPriors {
            priors: vec![Prior::Flat; n],
        }
    }

    /// The default weakly-informative priors Spearmint-style BO uses:
    /// log-normal centered on unit scale for everything, with the noise
    /// (last parameter) nudged small.
    pub fn weakly_informative(n: usize) -> Self {
        let mut priors = vec![Prior::log_normal(0.0, 2.0); n];
        if n > 0 {
            priors[n - 1] = Prior::log_normal((1e-2_f64).ln(), 2.0);
        }
        IndependentPriors { priors }
    }

    /// Replace the prior at index `i`.
    pub fn set(&mut self, i: usize, prior: Prior) {
        self.priors[i] = prior;
    }

    /// Number of parameters covered.
    pub fn len(&self) -> usize {
        self.priors.len()
    }

    /// `true` when covering zero parameters.
    pub fn is_empty(&self) -> bool {
        self.priors.is_empty()
    }

    /// Joint log density at log-parameter vector `p`.
    ///
    /// # Panics
    /// Panics (debug) on length mismatch.
    pub fn log_density(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.priors.len());
        self.priors
            .iter()
            .zip(p)
            .map(|(pr, &v)| pr.log_density(v))
            .sum()
    }

    /// Accumulate the prior gradient into `grad`.
    pub fn add_grad(&self, p: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(p.len(), grad.len());
        for ((pr, &v), g) in self.priors.iter().zip(p).zip(grad.iter_mut()) {
            *g += pr.grad(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_contributes_nothing() {
        let p = IndependentPriors::flat(3);
        assert_eq!(p.log_density(&[1.0, -5.0, 100.0]), 0.0);
        let mut g = vec![1.0; 3];
        p.add_grad(&[0.0; 3], &mut g);
        assert_eq!(g, vec![1.0; 3]);
    }

    #[test]
    fn log_normal_peaks_at_mu() {
        let pr = Prior::log_normal(1.0, 0.5);
        assert!(pr.log_density(1.0) > pr.log_density(2.0));
        assert!(pr.log_density(1.0) > pr.log_density(0.0));
        assert_eq!(pr.grad(1.0), 0.0);
        assert!(pr.grad(0.0) > 0.0); // pushes up towards mu
        assert!(pr.grad(2.0) < 0.0);
    }

    #[test]
    fn uniform_box_rejects_outside() {
        let pr = Prior::Uniform { lo: -1.0, hi: 1.0 };
        assert_eq!(pr.log_density(0.5), 0.0);
        assert_eq!(pr.log_density(1.5), f64::NEG_INFINITY);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let pr = Prior::log_normal(0.3, 0.7);
        let h = 1e-6;
        for p in [-1.0, 0.0, 0.3, 2.0] {
            let fd = (pr.log_density(p + h) - pr.log_density(p - h)) / (2.0 * h);
            assert!((pr.grad(p) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn weakly_informative_shapes() {
        let p = IndependentPriors::weakly_informative(4);
        assert_eq!(p.len(), 4);
        // The noise prior prefers small values.
        let low_noise = p.log_density(&[0.0, 0.0, 0.0, (1e-2_f64).ln()]);
        let high_noise = p.log_density(&[0.0, 0.0, 0.0, (1e2_f64).ln()]);
        assert!(low_noise > high_noise);
    }
}
