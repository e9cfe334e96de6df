//! Ordinary least squares on a single predictor, plus log-log power-law
//! fitting used by the scalability analysis (Fig. 7 argues optimizer step
//! time grows *sublinearly* in topology size — we verify by fitting the
//! exponent of `time ~ size^b` and checking `b < 1`).

use serde::{Deserialize, Serialize};

/// Result of a simple linear regression `y = a + b x`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinFit {
    /// Intercept.
    pub intercept: f64,
    /// Slope.
    pub slope: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Least-squares fit of `y = a + b x`.
///
/// Returns `None` for fewer than two points or zero x-variance.
pub fn linfit(x: &[f64], y: &[f64]) -> Option<LinFit> {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    // mtm-allow: float-eq -- exact degenerate-variance guard
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    // mtm-allow: float-eq -- exact degenerate-variance guard
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinFit {
        intercept,
        slope,
        r_squared,
    })
}

/// Fit `y = c * x^b` by regressing `ln y` on `ln x`. All inputs must be
/// strictly positive. Returns `(c, b, r_squared)`.
pub fn power_law_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
    if x.iter().chain(y).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    linfit(&lx, &ly).map(|f| (f.intercept.exp(), f.slope, f.r_squared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let f = linfit(&x, &y).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        assert!(linfit(&[1.0], &[2.0]).is_none());
        assert!(linfit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn power_law_recovers_exponent() {
        let x = [10.0_f64, 50.0, 100.0, 200.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v.powf(0.6)).collect();
        let (c, b, r2) = power_law_fit(&x, &y).unwrap();
        assert!((c - 3.0).abs() < 1e-9);
        assert!((b - 0.6).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_rejects_nonpositive() {
        assert!(power_law_fit(&[1.0, -2.0], &[1.0, 2.0]).is_none());
        assert!(power_law_fit(&[1.0, 2.0], &[0.0, 2.0]).is_none());
    }
}
