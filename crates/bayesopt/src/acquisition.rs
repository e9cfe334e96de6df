//! Acquisition functions.
//!
//! All are written for **maximization** of the objective. The paper uses
//! Expected Improvement (Mockus 1978), the Spearmint default; PI and GP-UCB
//! are provided for the ablation benches.

use mtm_stats::dist::{norm_cdf, norm_pdf};

/// An acquisition function scoring candidate points from the surrogate's
/// posterior `(mean, std)` given the incumbent `best`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected Improvement with exploration margin `xi`:
    /// `E[max(0, f(x) - best - xi)]`.
    ExpectedImprovement {
        /// Exploration margin added to the incumbent.
        xi: f64,
    },
    /// Probability of Improvement with margin `xi`.
    ProbabilityOfImprovement {
        /// Exploration margin added to the incumbent.
        xi: f64,
    },
    /// GP Upper Confidence Bound: `mean + kappa * std`.
    UpperConfidenceBound {
        /// Exploration weight on the posterior standard deviation.
        kappa: f64,
    },
}

impl Default for Acquisition {
    fn default() -> Self {
        // The paper: "In this paper, we use Expected Improvement".
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }
}

impl Acquisition {
    /// Score a candidate with posterior mean `mean` and standard deviation
    /// `std` against incumbent value `best`.
    pub fn score(&self, mean: f64, std: f64, best: f64) -> f64 {
        #[cfg(feature = "strict-invariants")]
        crate::invariants::assert_finite("acquisition inputs (mean, std)", &[mean, std]);
        let score = match *self {
            Acquisition::ExpectedImprovement { xi } => {
                let improve = mean - best - xi;
                if std <= 1e-12 {
                    return improve.max(0.0);
                }
                let z = improve / std;
                improve * norm_cdf(z) + std * norm_pdf(z)
            }
            Acquisition::ProbabilityOfImprovement { xi } => {
                let improve = mean - best - xi;
                if std <= 1e-12 {
                    return if improve > 0.0 { 1.0 } else { 0.0 };
                }
                norm_cdf(improve / std)
            }
            Acquisition::UpperConfidenceBound { kappa } => mean + kappa * std,
        };
        #[cfg(feature = "strict-invariants")]
        crate::invariants::assert_finite_val(self.label(), score);
        score
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Acquisition::ExpectedImprovement { .. } => "ei",
            Acquisition::ProbabilityOfImprovement { .. } => "pi",
            Acquisition::UpperConfidenceBound { .. } => "ucb",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ei_matches_monte_carlo() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        let mut rng = StdRng::seed_from_u64(11);
        for &(mean, std, best) in &[
            (1.0, 0.5, 1.2),
            (0.0, 1.0, 0.0),
            (-0.5, 2.0, 1.0),
            (3.0, 0.1, 1.0),
        ] {
            // Box–Muller Monte-Carlo estimate of E[max(0, N(mean,std)-best)].
            let n = 300_000;
            let mut acc = 0.0;
            for _ in 0..n / 2 {
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let r = (-2.0 * u1.ln()).sqrt();
                let z1 = r * (2.0 * std::f64::consts::PI * u2).cos();
                let z2 = r * (2.0 * std::f64::consts::PI * u2).sin();
                acc += (mean + std * z1 - best).max(0.0);
                acc += (mean + std * z2 - best).max(0.0);
            }
            let mc = acc / n as f64;
            let closed = acq.score(mean, std, best);
            assert!(
                (closed - mc).abs() < 0.01 * (1.0 + closed.abs()),
                "EI({mean},{std},{best}): closed {closed} vs MC {mc}"
            );
        }
    }

    #[test]
    fn ei_zero_variance_degenerates_to_hinge() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        assert_eq!(acq.score(2.0, 0.0, 1.0), 1.0);
        assert_eq!(acq.score(0.5, 0.0, 1.0), 0.0);
    }

    #[test]
    fn ei_rewards_uncertainty_at_equal_mean() {
        let acq = Acquisition::default();
        let low = acq.score(1.0, 0.1, 1.0);
        let high = acq.score(1.0, 1.0, 1.0);
        assert!(high > low, "more variance, more EI at the incumbent mean");
    }

    #[test]
    fn pi_is_a_probability() {
        let acq = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        for &(m, s, b) in &[(0.0, 1.0, 0.0), (5.0, 0.2, 1.0), (-3.0, 0.5, 0.0)] {
            let p = acq.score(m, s, b);
            assert!((0.0..=1.0).contains(&p));
        }
        assert!((acq.score(1.0, 1.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ucb_is_linear_in_std() {
        let acq = Acquisition::UpperConfidenceBound { kappa: 2.0 };
        assert_eq!(acq.score(1.0, 0.5, f64::NEG_INFINITY), 2.0);
    }
}
