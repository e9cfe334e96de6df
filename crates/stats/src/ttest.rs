//! Welch's unequal-variances t-test.
//!
//! The paper (Section V-D) reports two-sided t-tests at p = 0.05 to argue
//! that several Sundog configurations are statistically indistinguishable;
//! the Fig. 8 bench reproduces those claims with this implementation.

use serde::{Deserialize, Serialize};

use crate::describe::Summary;
use crate::dist::t_sf_two_sided;

/// Result of a two-sample t-test.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Difference of means (a - b).
    pub mean_diff: f64,
}

impl TTestResult {
    /// `true` when the difference is significant at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Welch's two-sided t-test for independent samples `a` and `b`.
///
/// Returns `None` when either sample has fewer than two observations or
/// both sample variances are zero (the statistic is undefined).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    if sa.n < 2 || sb.n < 2 {
        return None;
    }
    let va_n = sa.var / sa.n as f64;
    let vb_n = sb.var / sb.n as f64;
    let denom = (va_n + vb_n).sqrt();
    // mtm-allow: float-eq -- exact degenerate-variance guard
    if denom == 0.0 {
        return None;
    }
    let t = (sa.mean - sb.mean) / denom;
    // Welch–Satterthwaite approximation.
    let df = (va_n + vb_n).powi(2)
        / (va_n * va_n / (sa.n as f64 - 1.0) + vb_n * vb_n / (sb.n as f64 - 1.0));
    let p_value = t_sf_two_sided(t, df).clamp(0.0, 1.0);
    Some(TTestResult {
        t,
        df,
        p_value,
        mean_diff: sa.mean - sb.mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert!((r.t).abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn clearly_different_samples_significant() {
        let a = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0];
        let b = [20.0, 20.1, 19.9, 20.2, 19.8, 20.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-10);
        assert!(r.significant_at(0.05));
        assert!(r.mean_diff < 0.0);
    }

    #[test]
    fn reference_case_matches_r() {
        // R: t.test(x, y) on the two samples below gives
        // t = -2.70778, df = 26.953, p = 0.011616.
        let x = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let y = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5,
        ];
        let r = welch_t_test(&x, &y).unwrap();
        assert!((r.t - (-2.70778)).abs() < 1e-4, "t = {}", r.t);
        assert!((r.df - 26.953).abs() < 0.01, "df = {}", r.df);
        assert!((r.p_value - 0.011616).abs() < 1e-5, "p = {}", r.p_value);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[], &[]).is_none());
        // Zero variance in both samples.
        assert!(welch_t_test(&[5.0, 5.0], &[5.0, 5.0]).is_none());
    }
}
