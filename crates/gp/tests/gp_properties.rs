//! Property-based tests of Gaussian-Process inference invariants.

use proptest::prelude::*;

use mtm_gp::kernel::{Kernel, Matern52Ard, SquaredExpArd};
use mtm_gp::GpRegression;

fn arb_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..15, 1usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 10_000.0
        };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x.iter().sum::<f64>() * 3.0).sin() + 0.1 * next())
            .collect();
        (xs, ys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn posterior_variance_is_bounded_by_prior((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let kernel = Matern52Ard::new(d, 1.0, 0.5);
        let prior_var = kernel.diag();
        let gp = GpRegression::fit(kernel, xs, ys, 1e-3).unwrap();
        for q in [vec![0.5; d], vec![0.1; d], vec![2.5; d]] {
            let p = gp.predict(&q);
            prop_assert!(p.var >= 0.0, "variance must be nonnegative");
            prop_assert!(
                p.var <= prior_var + 1e-9,
                "posterior variance {} exceeds prior {prior_var}",
                p.var
            );
        }
    }

    #[test]
    fn conditioning_on_a_point_shrinks_its_variance((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let query = vec![0.3; d];
        let kernel = SquaredExpArd::new(d, 1.0, 0.5);
        let mut gp = GpRegression::fit(kernel, xs, ys, 1e-3).unwrap();
        let before = gp.predict(&query);
        gp.add_observation(query.clone(), 0.0).unwrap();
        let after = gp.predict(&query);
        prop_assert!(
            after.var <= before.var + 1e-9,
            "observing a point must not increase its variance: {} -> {}",
            before.var,
            after.var
        );
        prop_assert!(after.var < 1e-2, "observed point is nearly pinned");
    }

    #[test]
    fn lml_is_finite_and_decreases_with_absurd_noise((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let gp_small =
            GpRegression::fit(Matern52Ard::new(d, 1.0, 0.5), xs.clone(), ys.clone(), 1e-4)
                .unwrap();
        let gp_huge =
            GpRegression::fit(Matern52Ard::new(d, 1.0, 0.5), xs, ys, 1e6).unwrap();
        let a = gp_small.log_marginal_likelihood();
        let b = gp_huge.log_marginal_likelihood();
        prop_assert!(a.is_finite() && b.is_finite());
        // A noise floor of 1e6 on O(1) targets is always a worse model.
        prop_assert!(a > b, "small-noise LML {a} should beat huge-noise {b}");
    }

    #[test]
    fn kernel_gram_matrices_are_symmetric_psd_diagonal((xs, _ys) in arb_dataset()) {
        let d = xs[0].len();
        let kernel = Matern52Ard::new(d, 2.0, 0.7);
        for a in &xs {
            for b in &xs {
                let kab = kernel.eval(a, b);
                let kba = kernel.eval(b, a);
                prop_assert!((kab - kba).abs() < 1e-12, "symmetry");
                // Cauchy-Schwarz for kernels.
                let kaa = kernel.eval(a, a);
                let kbb = kernel.eval(b, b);
                prop_assert!(kab * kab <= kaa * kbb + 1e-9);
            }
        }
    }

    #[test]
    fn predictions_interpolate_up_to_noise((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let gp = GpRegression::fit(SquaredExpArd::new(d, 1.0, 0.5), xs.clone(), ys.clone(), 1e-8)
            .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            // Duplicated inputs with differing targets can pull the mean;
            // tolerate a generous band.
            prop_assert!(
                (p.mean - y).abs() < 0.6,
                "interpolation too loose: {} vs {y}",
                p.mean
            );
        }
    }
}

/// The kernels as they read before their linear-space scales were cached:
/// `exp` of every log-hyperparameter on every call. Returns
/// `(k(a, b), ∂k/∂ log θ)` for `p = [log σ_f², log ℓ_1, ..]`.
fn reference_se(p: &[f64], a: &[f64], b: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; p.len()];
    let mut s = 0.0;
    for i in 0..a.len() {
        let inv_l = (-p[1 + i]).exp();
        let d = (a[i] - b[i]) * inv_l;
        let d2 = d * d;
        grad[1 + i] = d2;
        s += d2;
    }
    let k = p[0].exp() * (-0.5 * s).exp();
    grad[0] = k;
    for g in grad[1..].iter_mut() {
        *g *= k;
    }
    (k, grad)
}

fn reference_matern(p: &[f64], a: &[f64], b: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; p.len()];
    let sf2 = p[0].exp();
    let mut r2 = 0.0;
    for i in 0..a.len() {
        let inv_l = (-p[1 + i]).exp();
        let d = (a[i] - b[i]) * inv_l;
        grad[1 + i] = d * d;
        r2 += d * d;
    }
    let r = r2.sqrt();
    let sqrt5 = 5.0_f64.sqrt();
    let e = (-sqrt5 * r).exp();
    let k = sf2 * (1.0 + sqrt5 * r + 5.0 * r2 / 3.0) * e;
    grad[0] = k;
    let factor = (5.0 * sf2 / 3.0) * (1.0 + sqrt5 * r) * e;
    for g in grad[1..].iter_mut() {
        *g *= factor;
    }
    (k, grad)
}

/// A reference kernel: `(params, a, b) -> (k(a, b), ∂k/∂ log θ)`.
type Reference = fn(&[f64], &[f64], &[f64]) -> (f64, Vec<f64>);

/// Evaluate `kernel` at `(a, b)`, `(a, a)` and `(b, a)` and compare every
/// value and gradient entry with the reference bit for bit.
fn assert_bits_match<K: Kernel>(kernel: &K, reference: Reference, a: &[f64], b: &[f64]) {
    let p = kernel.params();
    for (x, y) in [(a, b), (a, a), (b, a)] {
        let (want, want_grad) = reference(&p, x, y);
        let mut grad = vec![0.0; kernel.n_params()];
        let got = kernel.eval_grad(x, y, &mut grad);
        prop_assert_eq!(kernel.eval(x, y).to_bits(), want.to_bits());
        prop_assert_eq!(got.to_bits(), want.to_bits());
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&grad), bits(&want_grad));
    }
    prop_assert_eq!(kernel.diag().to_bits(), p[0].exp().to_bits());
}

fn arb_kernel_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..7).prop_flat_map(|d| {
        (
            prop::collection::vec(-4.0f64..4.0, d + 1),
            prop::collection::vec(-3.0f64..3.0, d),
            prop::collection::vec(-3.0f64..3.0, d),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_kernel_scales_are_bit_exact((p, a, b) in arb_kernel_case()) {
        let d = a.len();
        let mut se = SquaredExpArd::new(d, 1.3, 0.4);
        assert_bits_match(&se, reference_se, &a, &b);
        se.set_params(&p);
        assert_bits_match(&se, reference_se, &a, &b);

        let mut matern = Matern52Ard::new(d, 0.7, 2.1);
        assert_bits_match(&matern, reference_matern, &a, &b);
        matern.set_params(&p);
        assert_bits_match(&matern, reference_matern, &a, &b);
        // A second update must overwrite the cache, not blend into it.
        let q: Vec<f64> = p.iter().map(|v| 0.5 - v).collect();
        matern.set_params(&q);
        assert_bits_match(&matern, reference_matern, &a, &b);
    }
}
