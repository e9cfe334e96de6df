//! Probability distribution functions built on [`crate::special`].

use crate::special::{betainc_reg, erf, erfc};

/// Standard normal probability density.
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function.
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF (Acklam's algorithm, refined with one
/// Halley step — relative error below 1e-13).
pub fn norm_ppf(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "norm_ppf requires 0 <= p <= 1");
    // mtm-allow: float-eq -- exact boundary sentinel
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    // mtm-allow: float-eq -- exact boundary sentinel
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// CDF of Student's t distribution with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "t_cdf requires df > 0");
    // mtm-allow: float-eq -- exact boundary sentinel
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let tail = 0.5 * betainc_reg(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Two-sided p-value for a t statistic.
pub fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    betainc_reg(df / 2.0, 0.5, x)
}

/// Normal CDF expressed via erf (kept for cross-checks in tests).
pub fn norm_cdf_via_erf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_pdf_peak() {
        assert!((norm_pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
    }

    #[test]
    fn norm_cdf_reference() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_1),
            (1.959_963_985, 0.975),
            (-2.0, 0.022_750_131_9),
        ];
        for (x, want) in cases {
            assert!((norm_cdf(x) - want).abs() < 1e-8, "Phi({x})");
            assert!((norm_cdf_via_erf(x) - want).abs() < 1e-8);
        }
    }

    #[test]
    fn ppf_round_trips_cdf() {
        for p in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = norm_ppf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-10, "round trip at p={p}");
        }
        assert_eq!(norm_ppf(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_ppf(1.0), f64::INFINITY);
    }

    #[test]
    fn t_cdf_matches_normal_at_high_df() {
        for x in [-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert!(
                (t_cdf(x, 1e7) - norm_cdf(x)).abs() < 1e-4,
                "t ~ normal at df->inf, x={x}"
            );
        }
    }

    #[test]
    fn t_cdf_reference_values() {
        // t distribution with 1 df is Cauchy: CDF(1) = 0.75.
        assert!((t_cdf(1.0, 1.0) - 0.75).abs() < 1e-10);
        // df=2: CDF(t) = 1/2 + t / (2 sqrt(2 + t^2) ) -> at t=2: .90825
        let want = 0.5 + 2.0 / (2.0 * (6.0_f64).sqrt());
        assert!((t_cdf(2.0, 2.0) - want).abs() < 1e-10);
    }

    #[test]
    fn two_sided_pvalue_symmetry() {
        for t in [0.5, 1.3, 2.7] {
            let p_pos = t_sf_two_sided(t, 11.0);
            let p_neg = t_sf_two_sided(-t, 11.0);
            assert!((p_pos - p_neg).abs() < 1e-14);
            let direct = 2.0 * (1.0 - t_cdf(t, 11.0));
            assert!((p_pos - direct).abs() < 1e-10);
        }
    }
}
