//! Covariance functions (kernels) with ARD lengthscales.
//!
//! All hyperparameters are handled in **log space** (`log σ_f^2`,
//! `log ℓ_i`): that keeps them positive under unconstrained optimization
//! and makes the marginal-likelihood surface much better behaved. The
//! gradient methods therefore return `∂k/∂(log θ_j)`.
//!
//! Both kernels also keep the linear-space values derived from those
//! parameters (`σ_f²` and every `1/ℓ_i`), refreshed in place by `new`
//! and `set_params`. `eval`, `eval_pair` and `diag` read the cache
//! instead of calling `exp` per dimension per pair; each cached value is
//! the same expression the per-call code evaluated, so results are
//! bit-identical.
//!
//! The gradient splits in two: [`Kernel::eval_pair`] does the per-pair
//! transcendental work once and returns `k` with the pair's gradient
//! factor, and [`Kernel::grad_from`] turns that pair into the gradient
//! with one pass over the dimensions. A GP's Gram fill keeps every
//! pair's `(k, factor)`, so its LML gradient sweep pays only the second
//! half; [`Kernel::eval_grad`] is the two halves back to back.

/// A stationary covariance function with tunable log-hyperparameters.
pub trait Kernel: Send + Sync + Clone {
    /// Number of tunable hyperparameters (signal variance + lengthscales).
    fn n_params(&self) -> usize;

    /// Current hyperparameters in log space.
    fn params(&self) -> Vec<f64>;

    /// Overwrite hyperparameters from a log-space vector.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n_params()`.
    fn set_params(&mut self, p: &[f64]);

    /// Covariance `k(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Covariance `k(a, b)` and the pair's gradient factor: the scalar
    /// that [`grad_from`](Self::grad_from) multiplies each scaled squared
    /// distance `d_i² = ((a_i − b_i)/ℓ_i)²` by to get `∂k/∂ log ℓ_i`.
    /// `k` is bit-equal to [`eval`](Self::eval)'s.
    fn eval_pair(&self, a: &[f64], b: &[f64]) -> (f64, f64);

    /// Gradient of `k(a, b)` with respect to each log-hyperparameter
    /// from the pair's `(k, factor)` as [`eval_pair`](Self::eval_pair)
    /// returned them. `grad` must have length `n_params()`.
    fn grad_from(&self, a: &[f64], b: &[f64], k: f64, factor: f64, grad: &mut [f64]);

    /// Covariance and gradient with respect to each log-hyperparameter.
    /// `grad` must have length `n_params()`; returns `k(a, b)`.
    fn eval_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        let (k, factor) = self.eval_pair(a, b);
        self.grad_from(a, b, k, factor, grad);
        k
    }

    /// Prior variance at any point, `k(x, x)`.
    fn diag(&self) -> f64;

    /// Input dimensionality this kernel was built for.
    fn input_dim(&self) -> usize;
}

/// Recompute the linear-space scales both ARD kernels cache from their
/// log-space parameters, in place.
fn refresh_scales(
    log_signal_var: f64,
    log_lengthscales: &[f64],
    signal_var: &mut f64,
    inv_lengthscales: &mut [f64],
) {
    *signal_var = log_signal_var.exp();
    for (inv_l, &log_l) in inv_lengthscales.iter_mut().zip(log_lengthscales) {
        *inv_l = (-log_l).exp();
    }
}

/// `Σ_i ((a_i − b_i)/ℓ_i)²`, summed in dimension order.
fn scaled_sq_dist(inv_lengthscales: &[f64], a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for ((&ai, &bi), &inv_l) in a.iter().zip(b).zip(inv_lengthscales) {
        let d = (ai - bi) * inv_l;
        s += d * d;
    }
    s
}

/// The ARD kernels' gradient from a pair's `(k, factor)`:
/// `∂k/∂ log σ_f² = k` and `∂k/∂ log ℓ_i = d_i² · factor`.
fn ard_grad_from(
    inv_lengthscales: &[f64],
    a: &[f64],
    b: &[f64],
    k: f64,
    factor: f64,
    grad: &mut [f64],
) {
    debug_assert_eq!(grad.len(), 1 + inv_lengthscales.len());
    let Some((g0, g_dims)) = grad.split_first_mut() else {
        return;
    };
    *g0 = k;
    let dims = a.iter().zip(b).zip(inv_lengthscales);
    for (g, ((&ai, &bi), &inv_l)) in g_dims.iter_mut().zip(dims) {
        let d = (ai - bi) * inv_l;
        *g = d * d * factor;
    }
}

/// Squared-exponential (RBF) kernel with Automatic Relevance Determination:
///
/// ```text
/// k(a, b) = σ_f² exp( -½ Σ_i (a_i - b_i)² / ℓ_i² )
/// ```
#[derive(Debug, Clone)]
pub struct SquaredExpArd {
    log_signal_var: f64,
    log_lengthscales: Vec<f64>,
    /// `exp(log_signal_var)`.
    signal_var: f64,
    /// `exp(-log_lengthscales[i])`.
    inv_lengthscales: Vec<f64>,
}

impl SquaredExpArd {
    /// Create with uniform `lengthscale` across `dim` inputs and signal
    /// variance `signal_var`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or either scale parameter is not positive.
    pub fn new(dim: usize, signal_var: f64, lengthscale: f64) -> Self {
        assert!(dim > 0 && signal_var > 0.0 && lengthscale > 0.0);
        let log_signal_var = signal_var.ln();
        let log_lengthscale = lengthscale.ln();
        SquaredExpArd {
            log_signal_var,
            log_lengthscales: vec![log_lengthscale; dim],
            signal_var: log_signal_var.exp(),
            inv_lengthscales: vec![(-log_lengthscale).exp(); dim],
        }
    }

    /// Current lengthscales (linear space).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.log_lengthscales.iter().map(|l| l.exp()).collect()
    }
}

impl Kernel for SquaredExpArd {
    fn n_params(&self) -> usize {
        1 + self.log_lengthscales.len()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.log_signal_var);
        p.extend_from_slice(&self.log_lengthscales);
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.n_params());
        self.log_signal_var = p[0];
        self.log_lengthscales.copy_from_slice(&p[1..]);
        refresh_scales(
            self.log_signal_var,
            &self.log_lengthscales,
            &mut self.signal_var,
            &mut self.inv_lengthscales,
        );
    }

    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.inv_lengthscales.len());
        let s = scaled_sq_dist(&self.inv_lengthscales, a, b);
        self.signal_var * (-0.5 * s).exp()
    }

    fn eval_pair(&self, a: &[f64], b: &[f64]) -> (f64, f64) {
        // ∂k/∂ log ℓ_i = k · d_i²: the factor is `k` itself.
        let k = self.eval(a, b);
        (k, k)
    }

    fn grad_from(&self, a: &[f64], b: &[f64], k: f64, factor: f64, grad: &mut [f64]) {
        ard_grad_from(&self.inv_lengthscales, a, b, k, factor, grad);
    }

    fn diag(&self) -> f64 {
        self.signal_var
    }

    fn input_dim(&self) -> usize {
        self.log_lengthscales.len()
    }
}

/// Matérn 5/2 kernel with ARD — the covariance Spearmint uses by default
/// for hyperparameter tuning (Snoek et al. 2012 argue the SE kernel is too
/// smooth for real objective surfaces):
///
/// ```text
/// r²   = Σ_i (a_i - b_i)² / ℓ_i²
/// k    = σ_f² (1 + √5 r + 5r²/3) exp(-√5 r)
/// ```
#[derive(Debug, Clone)]
pub struct Matern52Ard {
    log_signal_var: f64,
    log_lengthscales: Vec<f64>,
    /// `exp(log_signal_var)`.
    signal_var: f64,
    /// `exp(-log_lengthscales[i])`.
    inv_lengthscales: Vec<f64>,
}

impl Matern52Ard {
    /// Create with uniform `lengthscale` across `dim` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or either scale parameter is not positive.
    pub fn new(dim: usize, signal_var: f64, lengthscale: f64) -> Self {
        assert!(dim > 0 && signal_var > 0.0 && lengthscale > 0.0);
        let log_signal_var = signal_var.ln();
        let log_lengthscale = lengthscale.ln();
        Matern52Ard {
            log_signal_var,
            log_lengthscales: vec![log_lengthscale; dim],
            signal_var: log_signal_var.exp(),
            inv_lengthscales: vec![(-log_lengthscale).exp(); dim],
        }
    }

    /// Current lengthscales (linear space).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.log_lengthscales.iter().map(|l| l.exp()).collect()
    }
}

impl Kernel for Matern52Ard {
    fn n_params(&self) -> usize {
        1 + self.log_lengthscales.len()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.log_signal_var);
        p.extend_from_slice(&self.log_lengthscales);
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.n_params());
        self.log_signal_var = p[0];
        self.log_lengthscales.copy_from_slice(&p[1..]);
        refresh_scales(
            self.log_signal_var,
            &self.log_lengthscales,
            &mut self.signal_var,
            &mut self.inv_lengthscales,
        );
    }

    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = scaled_sq_dist(&self.inv_lengthscales, a, b);
        let r = r2.sqrt();
        let sqrt5_r = 5.0_f64.sqrt() * r;
        self.signal_var * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp()
    }

    fn eval_pair(&self, a: &[f64], b: &[f64]) -> (f64, f64) {
        let sf2 = self.signal_var;
        let r2 = scaled_sq_dist(&self.inv_lengthscales, a, b);
        let r = r2.sqrt();
        let sqrt5_r = 5.0_f64.sqrt() * r;
        let e = (-sqrt5_r).exp();
        let k = sf2 * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * e;
        // dk/dr = -(5 σ_f²/3) r (1 + √5 r) e^{-√5 r};
        // ∂r/∂ log ℓ_i = -d_i² / r  (r > 0), so
        // ∂k/∂ log ℓ_i = (5 σ_f²/3)(1 + √5 r) e^{-√5 r} d_i²;
        // at r = 0 every d_i² = 0, so the gradient is 0.
        let factor = (5.0 * sf2 / 3.0) * (1.0 + sqrt5_r) * e;
        (k, factor)
    }

    fn grad_from(&self, a: &[f64], b: &[f64], k: f64, factor: f64, grad: &mut [f64]) {
        ard_grad_from(&self.inv_lengthscales, a, b, k, factor, grad);
    }

    fn diag(&self) -> f64 {
        self.signal_var
    }

    fn input_dim(&self) -> usize {
        self.log_lengthscales.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_grad<K: Kernel>(k: &K, a: &[f64], b: &[f64]) -> Vec<f64> {
        let p0 = k.params();
        let h = 1e-6;
        (0..k.n_params())
            .map(|j| {
                let mut kp = k.clone();
                let mut p = p0.clone();
                p[j] += h;
                kp.set_params(&p);
                let up = kp.eval(a, b);
                p[j] -= 2.0 * h;
                kp.set_params(&p);
                let dn = kp.eval(a, b);
                (up - dn) / (2.0 * h)
            })
            .collect()
    }

    #[test]
    fn se_kernel_basics() {
        let k = SquaredExpArd::new(2, 2.0, 0.5);
        let x = [0.3, 0.7];
        assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
        assert_eq!(k.diag(), k.eval(&x, &x));
        // Symmetry and decay.
        let y = [0.5, 0.1];
        assert_eq!(k.eval(&x, &y), k.eval(&y, &x));
        assert!(k.eval(&x, &y) < k.eval(&x, &x));
    }

    #[test]
    fn matern_kernel_basics() {
        let k = Matern52Ard::new(3, 1.5, 1.0);
        let x = [0.0, 0.0, 0.0];
        let y = [1.0, -1.0, 0.5];
        assert!((k.eval(&x, &x) - 1.5).abs() < 1e-12);
        assert_eq!(k.eval(&x, &y), k.eval(&y, &x));
        assert!(k.eval(&x, &y) > 0.0 && k.eval(&x, &y) < 1.5);
    }

    #[test]
    fn se_gradient_matches_finite_differences() {
        let mut k = SquaredExpArd::new(3, 1.0, 1.0);
        k.set_params(&[0.3, -0.2, 0.1, 0.5]);
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.3];
        let mut g = vec![0.0; k.n_params()];
        let kv = k.eval_grad(&a, &b, &mut g);
        assert!((kv - k.eval(&a, &b)).abs() < 1e-14);
        let fd = fd_grad(&k, &a, &b);
        for (an, num) in g.iter().zip(&fd) {
            assert!((an - num).abs() < 1e-6, "analytic {an} vs fd {num}");
        }
    }

    #[test]
    fn matern_gradient_matches_finite_differences() {
        let mut k = Matern52Ard::new(2, 1.0, 1.0);
        k.set_params(&[-0.4, 0.2, -0.6]);
        let a = [0.8, 0.1];
        let b = [0.25, 0.65];
        let mut g = vec![0.0; k.n_params()];
        let kv = k.eval_grad(&a, &b, &mut g);
        assert!((kv - k.eval(&a, &b)).abs() < 1e-14);
        let fd = fd_grad(&k, &a, &b);
        for (an, num) in g.iter().zip(&fd) {
            assert!((an - num).abs() < 1e-6, "analytic {an} vs fd {num}");
        }
    }

    #[test]
    fn matern_gradient_at_zero_distance_is_finite() {
        let k = Matern52Ard::new(2, 1.0, 1.0);
        let a = [0.5, 0.5];
        let mut g = vec![0.0; 3];
        let kv = k.eval_grad(&a, &a, &mut g);
        assert!((kv - 1.0).abs() < 1e-12);
        assert!(g.iter().all(|v| v.is_finite()));
        assert!((g[1]).abs() < 1e-12 && (g[2]).abs() < 1e-12);
    }

    /// The one-call `eval_grad` bodies the `eval_pair` + `grad_from`
    /// split replaced, kept as their bit-exact reference.
    fn reference_eval_grad(
        matern: bool,
        sf2: f64,
        inv_ls: &[f64],
        a: &[f64],
        b: &[f64],
    ) -> Vec<f64> {
        let mut grad = vec![0.0; 1 + inv_ls.len()];
        let mut s = 0.0;
        for (g, ((&ai, &bi), &inv_l)) in grad[1..].iter_mut().zip(a.iter().zip(b).zip(inv_ls)) {
            let d = (ai - bi) * inv_l;
            *g = d * d;
            s += d * d;
        }
        let (k, factor) = if matern {
            let r = s.sqrt();
            let sqrt5 = 5.0_f64.sqrt();
            let e = (-sqrt5 * r).exp();
            let k = sf2 * (1.0 + sqrt5 * r + 5.0 * s / 3.0) * e;
            (k, (5.0 * sf2 / 3.0) * (1.0 + sqrt5 * r) * e)
        } else {
            let k = sf2 * (-0.5 * s).exp();
            (k, k)
        };
        grad[0] = k;
        for g in grad[1..].iter_mut() {
            *g *= factor;
        }
        grad
    }

    #[test]
    fn split_gradient_is_bit_equal_to_the_one_call_formula() {
        let params = [0.4, -0.9, 0.2, 1.3];
        let mut se = SquaredExpArd::new(3, 1.0, 1.0);
        let mut matern = Matern52Ard::new(3, 1.0, 1.0);
        se.set_params(&params);
        matern.set_params(&params);
        let sf2 = params[0].exp();
        let inv_ls: Vec<f64> = params[1..].iter().map(|l| (-l).exp()).collect();
        let point = |i: usize| -> Vec<f64> {
            (0..3)
                .map(|d| ((i * 3 + d) as f64 * 0.577).sin() * 2.0)
                .collect()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for i in 0..12 {
            // j == i covers the zero-distance pair.
            for j in 0..=i {
                let (a, b) = (point(i), point(j));
                let mut g = vec![0.0; 4];
                let k = se.eval_grad(&a, &b, &mut g);
                assert_eq!(k.to_bits(), se.eval(&a, &b).to_bits());
                assert_eq!(
                    bits(&g),
                    bits(&reference_eval_grad(false, sf2, &inv_ls, &a, &b))
                );
                let k = matern.eval_grad(&a, &b, &mut g);
                assert_eq!(k.to_bits(), matern.eval(&a, &b).to_bits());
                assert_eq!(
                    bits(&g),
                    bits(&reference_eval_grad(true, sf2, &inv_ls, &a, &b))
                );
            }
        }
    }

    #[test]
    fn params_round_trip() {
        let mut k = SquaredExpArd::new(4, 1.0, 1.0);
        let p = vec![0.1, -0.2, 0.3, -0.4, 0.5];
        k.set_params(&p);
        assert_eq!(k.params(), p);
        assert_eq!(k.input_dim(), 4);
        let ls = k.lengthscales();
        assert!((ls[0] - (-0.2_f64).exp()).abs() < 1e-12);
    }
}
