//! Exact Gaussian-Process regression.
//!
//! The model is the textbook one (Rasmussen & Williams ch. 2): a constant
//! mean (the empirical mean of the targets), a stationary kernel `k`, and
//! i.i.d. Gaussian observation noise `σ_n²`. Inference goes through one
//! Cholesky factorization of `K + σ_n² I`; adding an observation uses the
//! `O(n²)` bordered update from `mtm-linalg` instead of refactoring.

use mtm_linalg::{Cholesky, LinalgError, Mat};

use crate::hyper::{self, FitOptions};
use crate::kernel::Kernel;

/// Posterior prediction at a single input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance of the latent function (excludes observation
    /// noise; add [`GpRegression::noise_var`] for a predictive variance).
    pub var: f64,
}

impl Prediction {
    /// Posterior standard deviation (clamped at zero).
    pub fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }
}

/// Errors from GP fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// The kernel matrix could not be factored.
    Linalg(LinalgError),
    /// Inputs are inconsistent (empty data, ragged rows, dim mismatch).
    BadInput(String),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            GpError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

/// A fitted Gaussian-Process regression model.
#[derive(Debug, Clone)]
pub struct GpRegression<K: Kernel> {
    kernel: K,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    mean: f64,
    log_noise_var: f64,
    chol: Cholesky,
    /// `(K + σ_n² I)^{-1} (y - m)` — the dual weights.
    alpha: Vec<f64>,
    /// [`Kernel::eval_pair`] of every lower-triangle pair `(i, j ≤ i)`,
    /// row by row, as the last refit's Gram fill evaluated it, for
    /// [`lml_with_grad`](Self::lml_with_grad) to read instead of
    /// re-evaluating the kernel. Emptied when an added observation makes
    /// it stale (see [`pairs_fresh`](Self::pairs_fresh)).
    pairs: Vec<(f64, f64)>,
    /// Bordered factor appends applied since the last full
    /// factorization. Drives the strict-invariants drift check at refit
    /// boundaries.
    incremental_steps: usize,
}

impl<K: Kernel> GpRegression<K> {
    /// Fit a GP to `(xs, ys)` with observation noise variance `noise_var`.
    ///
    /// Fails on empty data, ragged inputs, a dimension mismatch with the
    /// kernel, or a kernel matrix that cannot be made positive definite.
    pub fn fit(
        kernel: K,
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        noise_var: f64,
    ) -> Result<Self, GpError> {
        if xs.is_empty() {
            return Err(GpError::BadInput("no observations".into()));
        }
        if xs.len() != ys.len() {
            return Err(GpError::BadInput(format!(
                "{} inputs but {} targets",
                xs.len(),
                ys.len()
            )));
        }
        let dim = kernel.input_dim();
        if xs.iter().any(|x| x.len() != dim) {
            return Err(GpError::BadInput(format!("inputs must all have dim {dim}")));
        }
        if noise_var <= 0.0 || noise_var.is_nan() {
            return Err(GpError::BadInput("noise variance must be positive".into()));
        }
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut gp = GpRegression {
            kernel,
            xs,
            ys,
            mean,
            log_noise_var: noise_var.ln(),
            chol: Cholesky::factor(&Mat::identity(1))?,
            alpha: Vec::new(),
            pairs: Vec::new(),
            incremental_steps: 0,
        };
        gp.refit()?;
        Ok(gp)
    }

    /// Rebuild the kernel matrix and refactor (used after hyperparameter
    /// changes).
    ///
    /// When the factor was maintained incrementally since the last full
    /// factorization at the *same* hyperparameters, the strict-invariants
    /// build compares the incremental factor against the fresh one here —
    /// the refit boundary is exactly where accumulated drift would surface.
    pub fn refit(&mut self) -> Result<(), GpError> {
        let mut k = gram(&self.kernel, &self.xs, &mut self.pairs);
        k.add_diag(self.log_noise_var.exp());
        #[cfg(feature = "strict-invariants")]
        let n = self.xs.len();
        #[cfg(feature = "strict-invariants")]
        mtm_linalg::invariants::assert_finite("GP kernel matrix", k.as_slice());
        #[cfg(feature = "strict-invariants")]
        mtm_linalg::invariants::check_psd_spot("GP kernel matrix", n, &|i, j| k[(i, j)]);
        #[cfg(feature = "strict-invariants")]
        let stale = (self.incremental_steps > 0 && self.chol.dim() == n).then(|| self.chol.clone());
        self.chol = Cholesky::factor(&k)?;
        #[cfg(feature = "strict-invariants")]
        if let Some(old) = stale {
            // Jitter escalation changes the factored matrix itself; only
            // compare factors built at the same effective jitter.
            if old.jitter() == self.chol.jitter() {
                mtm_linalg::invariants::check_factor_agreement(
                    "GP factor at refit boundary",
                    n,
                    &|i, j| old.l()[(i, j)],
                    &|i, j| self.chol.l()[(i, j)],
                );
            }
        }
        self.incremental_steps = 0;
        self.refresh_weights();
        Ok(())
    }

    /// Whether [`pairs`](Self::pairs) holds every lower-triangle pair of
    /// the current inputs under the current kernel: true from a refit
    /// until the next added observation.
    fn pairs_fresh(&self) -> bool {
        let n = self.xs.len();
        self.pairs.len() == n * (n + 1) / 2
    }

    /// Absorb one new observation in `O(n²)` via a bordered Cholesky
    /// update. Falls back to a full refit if the update is numerically
    /// rejected. The constant mean and dual weights are re-estimated —
    /// the kernel matrix (and hence the factor) does not depend on the
    /// targets, so the updated factor stays exact.
    pub fn add_observation(&mut self, x: Vec<f64>, y: f64) -> Result<(), GpError> {
        if x.len() != self.kernel.input_dim() {
            return Err(GpError::BadInput("dimension mismatch".into()));
        }
        if !y.is_finite() {
            return Err(GpError::BadInput("target must be finite".into()));
        }
        let b: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, &x)).collect();
        let c = self.kernel.diag() + self.log_noise_var.exp();
        self.xs.push(x);
        self.ys.push(y);
        match self.chol.append(&b, c) {
            Ok(()) => {
                self.pairs.clear();
                self.incremental_steps += 1;
                self.refresh_weights();
                Ok(())
            }
            Err(_) => self.refit(),
        }
    }

    /// Replace every target value, keeping inputs and factor.
    ///
    /// The kernel matrix does not depend on the targets, so only the
    /// constant mean and the dual weights need recomputing — two
    /// triangular solves, `O(n²)`. This is what lets a BO loop
    /// re-standardize its objective after every observation without
    /// paying a refactorization.
    pub fn set_targets(&mut self, ys: &[f64]) -> Result<(), GpError> {
        if ys.len() != self.xs.len() {
            return Err(GpError::BadInput(format!(
                "{} targets for {} inputs",
                ys.len(),
                self.xs.len()
            )));
        }
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(GpError::BadInput("targets must be finite".into()));
        }
        self.ys.clear();
        self.ys.extend_from_slice(ys);
        self.refresh_weights();
        Ok(())
    }

    /// Recompute the constant mean and dual weights against the current
    /// factor (`O(n²)`).
    fn refresh_weights(&mut self) {
        self.mean = self.ys.iter().sum::<f64>() / self.ys.len() as f64;
        let centered: Vec<f64> = self.ys.iter().map(|y| y - self.mean).collect();
        self.alpha = self.chol.solve_vec(&centered);
    }

    /// Number of incremental factor updates since the last full
    /// factorization.
    pub fn incremental_steps(&self) -> usize {
        self.incremental_steps
    }

    /// Posterior prediction at `x`.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        debug_assert_eq!(x.len(), self.kernel.input_dim());
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean = self.mean + mtm_linalg::vector::dot(&kstar, &self.alpha);
        let w = self.chol.whiten(&kstar);
        let var = self.kernel.diag() - mtm_linalg::vector::dot(&w, &w);
        #[cfg(feature = "strict-invariants")]
        mtm_linalg::invariants::assert_finite("GP posterior (mean, var)", &[mean, var]);
        Prediction {
            mean,
            var: var.max(0.0),
        }
    }

    /// Predictions at many inputs, batched.
    ///
    /// Builds the `n × m` cross-covariance block and whitens all query
    /// columns through one matrix triangular solve — the same flops as
    /// `m` calls to [`predict`](Self::predict) but with streaming memory
    /// access, which is what the acquisition hot loop wants. Summation
    /// order differs from the scalar path, so results may differ from
    /// `predict` by rounding (use one or the other consistently when
    /// bitwise reproducibility matters).
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let mut out = Vec::new();
        self.predict_many_into(xs, &mut out);
        out
    }

    /// [`predict_many`](Self::predict_many) into a caller-owned buffer.
    ///
    /// `out` is cleared and refilled; callers that score candidates in a
    /// loop reuse one buffer and stop paying a fresh `Vec<Prediction>`
    /// per batch. The cross-covariance block and its whitened copy are
    /// still built per call (they depend on the training-set size `n`),
    /// which is why the gp crate carries an `[alloc_hot]` budget rather
    /// than a zero.
    pub fn predict_many_into(&self, xs: &[Vec<f64>], out: &mut Vec<Prediction>) {
        out.clear();
        if xs.is_empty() {
            return;
        }
        debug_assert!(xs.iter().all(|x| x.len() == self.kernel.input_dim()));
        let n = self.xs.len();
        let m = xs.len();
        let kstar = Mat::from_fn(n, m, |i, j| self.kernel.eval(&self.xs[i], &xs[j]));
        let w = mtm_linalg::triangular::solve_lower_mat(self.chol.l(), &kstar);
        let diag = self.kernel.diag();
        // mtm-allow: alloc -- fills caller scratch; capacity plateaus at chunk width
        out.resize(
            m,
            Prediction {
                mean: self.mean,
                var: diag,
            },
        );
        // Row sweeps keep both kstar and w accesses contiguous.
        for i in 0..n {
            let a = self.alpha[i];
            let krow = kstar.row(i);
            let wrow = w.row(i);
            for (p, (&k, &wv)) in out.iter_mut().zip(krow.iter().zip(wrow)) {
                p.mean += a * k;
                p.var -= wv * wv;
            }
        }
        for p in out.iter_mut() {
            #[cfg(feature = "strict-invariants")]
            mtm_linalg::invariants::assert_finite("GP batched posterior", &[p.mean, p.var]);
            p.var = p.var.max(0.0);
        }
    }

    /// Log marginal likelihood of the current hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.xs.len() as f64;
        let centered: Vec<f64> = self.ys.iter().map(|y| y - self.mean).collect();
        let fit = mtm_linalg::vector::dot(&centered, &self.alpha);
        -0.5 * fit - 0.5 * self.chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Log marginal likelihood and its gradient with respect to
    /// `[kernel log-params..., log σ_n²]`.
    ///
    /// Uses the standard identity `∂L/∂θ = ½ tr((αα^T - K⁻¹) ∂K/∂θ)`,
    /// evaluated pairwise so the per-parameter `∂K/∂θ` matrices are never
    /// materialized (`O(n² d)` time, `O(n²)` memory). Each pair's
    /// `(k, factor)` comes from the last refit's Gram fill when that is
    /// still fresh, else from [`Kernel::eval_pair`]: the same bits either
    /// way.
    pub fn lml_with_grad(&self) -> (f64, Vec<f64>) {
        let n = self.xs.len();
        let n_kp = self.kernel.n_params();
        let lml = self.log_marginal_likelihood();

        // M = αα^T - K⁻¹ (symmetric).
        let kinv = self.chol.inverse();
        let mut grad = vec![0.0; n_kp + 1];
        let mut kg = vec![0.0; n_kp];
        let mut cached = if self.pairs_fresh() {
            self.pairs.iter()
        } else {
            [].iter()
        };
        let rows = self.xs.iter().zip(&self.alpha);
        for (i, ((xi, &a_i), kinv_row)) in rows.zip(kinv.as_slice().chunks_exact(n)).enumerate() {
            let cols = self.xs.iter().zip(&self.alpha).zip(kinv_row).take(i + 1);
            for (j, ((xj, &a_j), &kinv_ij)) in cols.enumerate() {
                let m_ij = a_i * a_j - kinv_ij;
                let weight = if i == j { 0.5 * m_ij } else { m_ij };
                let (k, factor) = match cached.next() {
                    Some(&pair) => pair,
                    None => self.kernel.eval_pair(xi, xj),
                };
                self.kernel.grad_from(xi, xj, k, factor, &mut kg);
                for (g, &dk) in grad.iter_mut().zip(&kg) {
                    *g += weight * dk;
                }
            }
        }
        // Noise term: ∂K/∂ log σ_n² = σ_n² I → ½ σ_n² tr(M).
        let sn2 = self.log_noise_var.exp();
        let kinv_diag = kinv.as_slice().iter().step_by(n + 1);
        let tr_m: f64 = self
            .alpha
            .iter()
            .zip(kinv_diag)
            .map(|(&a_i, &kinv_ii)| a_i * a_i - kinv_ii)
            .sum();
        if let Some(g_noise) = grad.last_mut() {
            *g_noise = 0.5 * sn2 * tr_m;
        }
        #[cfg(feature = "strict-invariants")]
        mtm_linalg::invariants::assert_finite("LML gradient", &grad);
        (lml, grad)
    }

    /// Fit kernel and noise hyperparameters by type-II maximum likelihood.
    /// Returns the best log marginal likelihood found.
    pub fn optimize_hyperparameters(&mut self, opts: &FitOptions) -> f64 {
        hyper::optimize(self, opts)
    }

    /// All hyperparameters in log space: kernel params then `log σ_n²`.
    pub fn hyperparameters(&self) -> Vec<f64> {
        let mut p = self.kernel.params();
        p.push(self.log_noise_var);
        p
    }

    /// Set all hyperparameters (kernel + noise) and refit.
    pub fn set_hyperparameters(&mut self, p: &[f64]) -> Result<(), GpError> {
        let n_kp = self.kernel.n_params();
        if p.len() != n_kp + 1 {
            return Err(GpError::BadInput(format!(
                "expected {} hyperparameters, got {}",
                n_kp + 1,
                p.len()
            )));
        }
        self.kernel.set_params(&p[..n_kp]);
        self.log_noise_var = p[n_kp];
        self.refit()
    }

    /// Observation noise variance.
    pub fn noise_var(&self) -> f64 {
        self.log_noise_var.exp()
    }

    /// Number of observations absorbed so far.
    pub fn n_observations(&self) -> usize {
        self.xs.len()
    }

    /// The kernel (for inspection of fitted lengthscales).
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Training inputs.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Training targets.
    pub fn targets(&self) -> &[f64] {
        &self.ys
    }
}

/// The noise-free Gram matrix `K[i][j] = k(x_i, x_j)`, with every
/// lower-triangle pair's [`Kernel::eval_pair`] refilled into `pairs` row
/// by row.
///
/// Stationary kernels see `x_i - x_j` only through its square, and
/// `(b - a)·s = -((a - b)·s)` exactly, so `k(x_j, x_i)` is bit-equal to
/// `k(x_i, x_j)`: the lower triangle is evaluated and mirrored.
fn gram<K: Kernel>(kernel: &K, xs: &[Vec<f64>], pairs: &mut Vec<(f64, f64)>) -> Mat {
    let n = xs.len();
    let mut k = Mat::zeros(n, n);
    pairs.resize(n * (n + 1) / 2, (0.0, 0.0));
    let mut rest = pairs.as_mut_slice();
    for (i, xi) in xs.iter().enumerate() {
        let (row_pairs, below) = std::mem::take(&mut rest).split_at_mut(i + 1);
        rest = below;
        for ((kij, xj), pair) in k.row_mut(i).iter_mut().zip(xs).zip(row_pairs) {
            *pair = kernel.eval_pair(xi, xj);
            *kij = pair.0;
        }
    }
    k.mirror_lower();
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52Ard, SquaredExpArd};

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + 2.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_at_low_noise() {
        let (xs, ys) = toy_data();
        let gp = GpRegression::fit(
            SquaredExpArd::new(1, 1.0, 0.3),
            xs.clone(),
            ys.clone(),
            1e-8,
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!(
                (p.mean - y).abs() < 1e-3,
                "should interpolate: {} vs {y}",
                p.mean
            );
            assert!(
                p.var < 1e-4,
                "training variance should be tiny, got {}",
                p.var
            );
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = GpRegression::fit(Matern52Ard::new(1, 1.0, 0.3), xs, ys, 1e-6).unwrap();
        let near = gp.predict(&[0.5]);
        let far = gp.predict(&[5.0]);
        assert!(far.var > near.var * 10.0);
        // Far from data the posterior reverts to the constant mean.
        assert!((far.mean - gp.mean).abs() < 0.05);
    }

    #[test]
    fn rejects_bad_inputs() {
        let k = SquaredExpArd::new(2, 1.0, 1.0);
        assert!(GpRegression::fit(k.clone(), vec![], vec![], 0.1).is_err());
        assert!(GpRegression::fit(k.clone(), vec![vec![1.0]], vec![1.0], 0.1).is_err());
        assert!(GpRegression::fit(k.clone(), vec![vec![1.0, 2.0]], vec![1.0, 2.0], 0.1).is_err());
        assert!(GpRegression::fit(k, vec![vec![1.0, 2.0]], vec![1.0], 0.0).is_err());
    }

    #[test]
    fn incremental_add_matches_batch_fit() {
        let (xs, ys) = toy_data();
        let k = SquaredExpArd::new(1, 1.0, 0.3);
        // Batch over all ten points.
        let batch = GpRegression::fit(k.clone(), xs.clone(), ys.clone(), 1e-4).unwrap();
        // Incremental: fit on nine, add the tenth. The incremental path
        // keeps the old constant mean, so compare against a batch fit that
        // uses the same mean by refitting after the add.
        let mut inc = GpRegression::fit(k, xs[..9].to_vec(), ys[..9].to_vec(), 1e-4).unwrap();
        inc.add_observation(xs[9].clone(), ys[9]).unwrap();
        inc.refit().unwrap();
        for x in &[[0.33], [0.77], [1.5]] {
            let pb = batch.predict(x);
            let pi = inc.predict(x);
            assert!((pb.mean - pi.mean).abs() < 1e-9);
            assert!((pb.var - pi.var).abs() < 1e-9);
        }
    }

    #[test]
    fn lml_gradient_matches_finite_differences() {
        let (xs, ys) = toy_data();
        let mut gp = GpRegression::fit(Matern52Ard::new(1, 1.0, 0.5), xs, ys, 1e-2).unwrap();
        let p0 = gp.hyperparameters();
        let (_, grad) = gp.lml_with_grad();
        let h = 1e-6;
        for j in 0..p0.len() {
            let mut p = p0.clone();
            p[j] += h;
            gp.set_hyperparameters(&p).unwrap();
            let up = gp.log_marginal_likelihood();
            p[j] -= 2.0 * h;
            gp.set_hyperparameters(&p).unwrap();
            let dn = gp.log_marginal_likelihood();
            gp.set_hyperparameters(&p0).unwrap();
            let fd = (up - dn) / (2.0 * h);
            assert!(
                (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {j}: analytic {} vs fd {fd}",
                grad[j]
            );
        }
    }

    #[test]
    fn optimizing_hyperparameters_improves_lml() {
        let (xs, ys) = toy_data();
        // Start from deliberately bad hyperparameters.
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 100.0, 10.0), xs, ys, 1.0).unwrap();
        let before = gp.log_marginal_likelihood();
        let after = gp.optimize_hyperparameters(&FitOptions::thorough());
        assert!(
            after > before + 1.0,
            "LML should improve: {before} -> {after}"
        );
        // And the fit should now interpolate reasonably.
        let p = gp.predict(&[0.5]);
        let target = (1.5_f64).sin() + 2.0;
        assert!(
            (p.mean - target).abs() < 0.3,
            "prediction {} should be near {target}",
            p.mean
        );
    }

    #[test]
    fn kernel_matrix_is_bit_equal_to_a_full_fill() {
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                vec![
                    (i as f64 * 0.37).sin(),
                    (i as f64 * 1.3).cos(),
                    i as f64 / 8.0,
                ]
            })
            .collect();
        let ys: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let mut gp = GpRegression::fit(Matern52Ard::new(3, 1.0, 0.5), xs, ys, 1e-3).unwrap();
        gp.set_hyperparameters(&[0.4, -0.7, 0.2, 1.1, -2.0])
            .unwrap();
        let k = gram(&gp.kernel, &gp.xs, &mut Vec::new());
        let full = Mat::from_fn(9, 9, |i, j| gp.kernel.eval(&gp.xs[i], &gp.xs[j]));
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&k), bits(&full));
    }

    /// The per-pair `eval_grad` sweep `lml_with_grad` replaced, kept as
    /// its bit-exact reference.
    fn reference_lml_with_grad<K: Kernel>(gp: &GpRegression<K>) -> (f64, Vec<f64>) {
        let n = gp.xs.len();
        let n_kp = gp.kernel.n_params();
        let lml = gp.log_marginal_likelihood();
        let kinv = gp.chol.inverse();
        let mut grad = vec![0.0; n_kp + 1];
        let mut kg = vec![0.0; n_kp];
        for i in 0..n {
            for j in 0..=i {
                let m_ij = gp.alpha[i] * gp.alpha[j] - kinv[(i, j)];
                let weight = if i == j { 0.5 * m_ij } else { m_ij };
                gp.kernel.eval_grad(&gp.xs[i], &gp.xs[j], &mut kg);
                for (g, &dk) in grad[..n_kp].iter_mut().zip(&kg) {
                    *g += weight * dk;
                }
            }
        }
        let sn2 = gp.log_noise_var.exp();
        let tr_m: f64 = (0..n)
            .map(|i| gp.alpha[i] * gp.alpha[i] - kinv[(i, i)])
            .sum();
        grad[n_kp] = 0.5 * sn2 * tr_m;
        (lml, grad)
    }

    fn assert_grad_matches_reference<K: Kernel>(gp: &GpRegression<K>, fresh: bool, label: &str) {
        assert_eq!(gp.pairs_fresh(), fresh, "{label}: cache freshness");
        let bits = |(lml, grad): (f64, Vec<f64>)| {
            std::iter::once(lml)
                .chain(grad)
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(gp.lml_with_grad()),
            bits(reference_lml_with_grad(gp)),
            "{label}"
        );
    }

    fn cache_states_match_reference<K: Kernel>(kernel: K, label: &str) {
        let xs: Vec<Vec<f64>> = (0..14)
            .map(|i| {
                vec![
                    (i as f64 * 0.43).sin(),
                    (i as f64 * 0.91).cos(),
                    i as f64 / 13.0,
                ]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - x[1] + x[2] * x[2]).collect();
        let mut gp = GpRegression::fit(kernel, xs[..10].to_vec(), ys[..10].to_vec(), 1e-2).unwrap();
        assert_grad_matches_reference(&gp, true, &format!("{label}: fit"));
        gp.set_hyperparameters(&[0.3, -0.8, 0.4, -1.1, -3.0])
            .unwrap();
        assert_grad_matches_reference(&gp, true, &format!("{label}: set_hyperparameters"));
        gp.set_targets(&ys[4..14]).unwrap();
        assert_grad_matches_reference(&gp, true, &format!("{label}: set_targets, fresh"));
        gp.add_observation(xs[10].clone(), ys[10]).unwrap();
        assert_grad_matches_reference(&gp, false, &format!("{label}: add_observation"));
        gp.set_targets(&ys[3..14]).unwrap();
        assert_grad_matches_reference(&gp, false, &format!("{label}: set_targets, stale"));
        gp.refit().unwrap();
        assert_grad_matches_reference(&gp, true, &format!("{label}: refit"));
    }

    #[test]
    fn lml_gradient_is_bit_equal_to_per_pair_eval_grad() {
        cache_states_match_reference(SquaredExpArd::new(3, 1.0, 0.5), "SE-ARD");
        cache_states_match_reference(Matern52Ard::new(3, 1.0, 0.5), "Matérn-5/2");
    }

    fn seed_data(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * d + j) as f64 * 0.61803).fract())
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| (3.0 * v).sin()).sum::<f64>())
            .collect();
        (xs, ys)
    }

    fn fit_seeded(n: usize, d: usize) -> GpRegression<Matern52Ard> {
        let (xs, ys) = seed_data(n, d);
        GpRegression::fit(Matern52Ard::new(d, 1.0, 0.3), xs, ys, 1e-2).unwrap()
    }

    #[test]
    fn incremental_and_exact_agree_through_observe_stream() {
        // Each bordered append must leave the posterior a fresh fit on
        // the same prefix computes.
        let d = 3;
        let (xs, ys) = seed_data(30, d);
        let queries: Vec<Vec<f64>> = (0..16)
            .map(|i| (0..d).map(|j| ((i + j) as f64 * 0.137).fract()).collect())
            .collect();
        let agree_with_prefix_fit = |inc: &GpRegression<Matern52Ard>, m: usize| {
            let kernel = Matern52Ard::new(d, 1.0, 0.3);
            let exact =
                GpRegression::fit(kernel, xs[..m].to_vec(), ys[..m].to_vec(), 1e-2).unwrap();
            assert_eq!(inc.n_observations(), exact.n_observations());
            let pi = inc.predict_many(&queries);
            let pe = exact.predict_many(&queries);
            for (a, b) in pi.iter().zip(&pe) {
                assert!(
                    (a.mean - b.mean).abs() < 1e-9,
                    "means diverged at {m}: {} vs {}",
                    a.mean,
                    b.mean
                );
                assert!(
                    (a.var - b.var).abs() < 1e-9,
                    "vars diverged at {m}: {} vs {}",
                    a.var,
                    b.var
                );
            }
        };
        let mut inc = fit_seeded(6, d);
        for m in 7..=xs.len() {
            inc.add_observation(xs[m - 1].clone(), ys[m - 1]).unwrap();
            agree_with_prefix_fit(&inc, m);
        }
        assert_eq!(inc.incremental_steps(), xs.len() - 6, "every step appended");
        // Under strict-invariants, this refit compares the appended
        // factor against a fresh one.
        inc.refit().unwrap();
        agree_with_prefix_fit(&inc, xs.len());
    }

    #[test]
    fn set_targets_matches_full_refit() {
        let d = 2;
        let mut a = fit_seeded(10, d);
        let mut b = a.clone();
        let new_ys: Vec<f64> = (0..10)
            .map(|i| (i as f64 * 0.7).cos() * 2.0 + 1.0)
            .collect();
        a.set_targets(&new_ys).unwrap();
        // b: replace targets the expensive way.
        b.set_targets(&new_ys).unwrap();
        b.refit().unwrap();
        for q in [[0.2, 0.8], [0.5, 0.1], [0.9, 0.9]] {
            let pa = a.predict(&q);
            let pb = b.predict(&q);
            assert!((pa.mean - pb.mean).abs() < 1e-10);
            assert!((pa.var - pb.var).abs() < 1e-10);
        }
    }

    #[test]
    fn batched_predict_matches_scalar_predict() {
        let gp = fit_seeded(12, 3);
        let queries: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 3 + j) as f64 * 0.317).fract())
                    .collect()
            })
            .collect();
        let batched = gp.predict_many(&queries);
        for (q, b) in queries.iter().zip(&batched) {
            let s = gp.predict(q);
            assert!((s.mean - b.mean).abs() < 1e-10);
            assert!((s.var - b.var).abs() < 1e-10);
        }
    }

    #[test]
    fn accessors_report_the_fit() {
        let (xs, ys) = toy_data();
        let gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 0.3), xs, ys, 1e-4).unwrap();
        assert_eq!(gp.targets().len(), 10);
        assert_eq!(gp.n_observations(), 10);
        assert!(gp.noise_var() > 0.0);
    }
}
