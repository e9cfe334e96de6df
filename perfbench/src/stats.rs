//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as a median and a tail percentile. A tail is only
//! trustworthy when enough samples lie beyond it, so [`tail`] reads the
//! requested percentile only when at least [`MIN_BEYOND`] samples rank
//! above it, and otherwise the highest percentile that has that many.

/// Samples that must rank above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The quantile actually read (at most the one asked for).
    pub q: f64,
    /// The sample at that quantile (nearest rank).
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank index (1-based) of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps exact products (0.95 * 100) from rounding up a rank.
    let r = (q * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// The highest quantile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond its rank. With too few samples for any
/// such tail, the median stands in for it.
pub fn tail(samples: &[f64], want: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct {
            q: want,
            value: 0.0,
            n,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median_rank = n.div_ceil(2);
    let r = rank(n, want).min(n.saturating_sub(MIN_BEYOND).max(median_rank));
    Pct {
        q: r as f64 / n as f64,
        value: sorted[r - 1],
        n,
    }
}

/// Median (nearest rank; the lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    tail(samples, 0.5).value
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled order: the helper must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn reads_the_requested_percentile_when_the_tail_is_supported() {
        let v = one_to(1000);
        let p99 = tail(&v, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.q, 0.99);
        assert_eq!(p99.n, 1000);
        assert_eq!(tail(&v, 0.95).value, 950.0);
        assert_eq!(median(&v), 500.0);
    }

    #[test]
    fn caps_the_tail_so_ten_samples_lie_beyond_it() {
        // 100 samples cannot support p99 (1 beyond) or p95 (5 beyond):
        // the highest supported percentile is p90.
        let v = one_to(100);
        for want in [0.99, 0.95] {
            let p = tail(&v, want);
            assert_eq!(p.value, 90.0);
            assert_eq!(p.q, 0.9);
        }
        // Exactly ten beyond is enough.
        assert_eq!(tail(&v, 0.90).value, 90.0);
        assert_eq!(tail(&v, 0.80).value, 80.0);
        // Every supported read leaves at least MIN_BEYOND samples above.
        for n in 20..300 {
            let v = one_to(n);
            let p = tail(&v, 0.99);
            let beyond = v.iter().filter(|&&x| x > p.value).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            assert!(p.q <= 0.99);
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let v = one_to(5);
        assert_eq!(tail(&v, 0.99).value, 3.0);
        assert_eq!(tail(&[7.0], 0.95).value, 7.0);
        assert_eq!(tail(&[], 0.5).value, 0.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
