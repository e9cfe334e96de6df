//! Quantile estimation (linear-interpolation type 7, R's default).

/// The `q`-quantile of a sample, `0 <= q <= 1`, by linear interpolation of
/// order statistics. Returns `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted sample (no allocation, no checks beyond
/// debug assertions).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Median convenience wrapper.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolation_matches_r_type7() {
        // R: quantile(1:5, 0.25) = 2 ; quantile(1:4, 0.25) = 1.75
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.75));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), Some(3.0));
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }
}
