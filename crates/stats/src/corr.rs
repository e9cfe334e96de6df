//! Correlation coefficients.

use crate::quantile::quantile_sorted;

/// Pearson product-moment correlation. `None` if either input is
/// constant or lengths differ / are below 2.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    // mtm-allow: float-eq -- exact degenerate-variance guard
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (ties get average ranks). `None` under the
/// same conditions as [`pearson`].
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = ranks(x);
    let ry = ranks(y);
    pearson(&rx, &ry)
}

/// Average ranks (1-based) with tie handling.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        // mtm-allow: float-eq -- rank ties are exact: only bitwise-equal samples share a rank
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Median absolute deviation, scaled for normal consistency (×1.4826).
pub fn mad(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let med = quantile_sorted(&sorted, 0.5);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(|a, b| a.total_cmp(b));
    Some(1.4826 * quantile_sorted(&dev, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_linear_data_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn spearman_is_invariant_to_monotone_transforms() {
        let x = [1.0_f64, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let inv: Vec<f64> = x.iter().map(|v| 1.0 / v).collect(); // anti-monotone
        assert!((spearman(&x, &inv).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn mad_matches_hand_computation() {
        // median 3, deviations [2,1,0,1,2] -> median dev 1.
        let v = mad(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((v - 1.4826).abs() < 1e-12);
        assert!(mad(&[]).is_none());
    }
}
