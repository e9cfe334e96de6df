use serde::{Deserialize, Serialize};

use crate::{triangular, LinalgError, Mat, Result};

/// Jitter ladder: when plain factorization fails we retry with increasing
/// multiples of the mean diagonal added, exactly the strategy GP libraries
/// (GPy, Spearmint) use to cope with near-singular kernel matrices.
const JITTER_STEPS: &[f64] = &[0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2];

/// Lower-triangular Cholesky factorization of a symmetric positive-definite
/// matrix: `A = L L^T`.
///
/// The factor retains the jitter that had to be added to succeed (zero in
/// the common case) so callers can account for it, e.g. when reporting the
/// effective noise level of a GP fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cholesky {
    l: Mat,
    jitter: f64,
}

impl Cholesky {
    /// Factor `a`, escalating diagonal jitter if needed.
    ///
    /// Returns an error if `a` is not square, contains non-finite values, or
    /// stays indefinite even at the largest jitter.
    pub fn factor(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite);
        }
        let n = a.rows();
        #[cfg(feature = "strict-invariants")]
        crate::invariants::check_symmetric("Cholesky::factor input", n, &|i, j| a[(i, j)]);
        let mean_diag = if n == 0 {
            0.0
        } else {
            a.trace().abs() / n as f64
        };
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut max_tried = 0.0;
        for &step in JITTER_STEPS {
            let jitter = step * scale;
            max_tried = jitter;
            if let Some(l) = try_factor(a, jitter) {
                return Ok(Cholesky { l, jitter });
            }
        }
        Err(LinalgError::NotPositiveDefinite {
            max_jitter: max_tried,
        })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Jitter added to the diagonal to achieve positive definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Solve `A x = b` via two triangular solves.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        triangular::solve_lower_in_place(&self.l, &mut x);
        triangular::solve_lower_transpose_in_place(&self.l, &mut x);
        x
    }

    /// Solve `A X = B` for a matrix right-hand side.
    pub fn solve_mat(&self, b: &Mat) -> Mat {
        let y = triangular::solve_lower_mat(&self.l, b);
        triangular::solve_lower_transpose_mat(&self.l, &y)
    }

    /// `L^{-1} b` — "whitens" a vector against the factored covariance.
    pub fn whiten(&self, b: &[f64]) -> Vec<f64> {
        triangular::solve_lower(&self.l, b)
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        self.l.diag().iter().map(|d| d.ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse `A^{-1}` (used for LML gradients where the full
    /// inverse genuinely appears; prefer the solve methods elsewhere).
    ///
    /// Runs the two substitutions of `solve_mat(&Mat::identity(n))`
    /// restricted to the entries that can be nonzero and that the lower
    /// triangle of the result depends on: row `i` of `L^{-1}` is zero
    /// right of the diagonal, and row `i` of `L^{-T} L^{-1}` left of the
    /// diagonal reads only the lower triangles of the rows below it. The
    /// skipped updates subtract exact `+0.0`s, so the lower triangle is
    /// bit-equal to the full solve's; the upper triangle mirrors it.
    pub fn inverse(&self) -> Mat {
        let n = self.dim();
        let mut x = Mat::identity(n);
        if n == 0 {
            return x;
        }
        let l = self.l.as_slice();
        let xs = x.as_mut_slice();
        // Forward: X <- L^{-1} X, lower triangle only.
        let diag = l.iter().step_by(n + 1);
        for ((i, l_row), &l_ii) in l.chunks_exact(n).enumerate().zip(diag) {
            let (done, rest) = xs.split_at_mut(i * n);
            let (x_row, _) = rest.split_at_mut(i + 1);
            let l_head = l_row.iter().take(i).enumerate();
            for ((k, &l_ik), x_k) in l_head.zip(done.chunks_exact(n)) {
                // lint:allow(float_cmp) exact sparse-skip of zero entries
                if l_ik == 0.0 {
                    continue;
                }
                for (xi, xk) in x_row.iter_mut().zip(x_k.split_at(k + 1).0) {
                    *xi -= l_ik * xk;
                }
            }
            let inv = 1.0 / l_ii;
            for v in x_row.iter_mut() {
                *v *= inv;
            }
        }
        // Backward: X <- L^{-T} X, lower triangle only, last row first.
        for (i, &l_ii) in l.iter().step_by(n + 1).enumerate().rev() {
            let (head, below) = xs.split_at_mut((i + 1) * n);
            let (x_row, _) = head.split_at_mut(i * n).1.split_at_mut(i + 1);
            // Column i of L below the diagonal: L[k][i] for k > i.
            let l_col = l.iter().skip((i + 1) * n + i).step_by(n);
            for (&l_ki, x_k) in l_col.zip(below.chunks_exact(n)) {
                // lint:allow(float_cmp) exact sparse-skip of zero entries
                if l_ki == 0.0 {
                    continue;
                }
                for (xi, xk) in x_row.iter_mut().zip(x_k) {
                    *xi -= l_ki * xk;
                }
            }
            let inv = 1.0 / l_ii;
            for v in x_row.iter_mut() {
                *v *= inv;
            }
        }
        x.mirror_lower();
        x
    }

    /// Quadratic form `b^T A^{-1} b` computed stably as `||L^{-1} b||^2`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let w = self.whiten(b);
        crate::blas::dot(&w, &w)
    }

    /// Grow the factorization to represent the `(n+1) x (n+1)` matrix that
    /// appends column `[b; c]` to `A`:
    ///
    /// ```text
    /// A' = [ A  b ]
    ///      [ b' c ]
    /// ```
    ///
    /// Costs `O(n^2)` — one triangular solve — instead of refactoring.
    /// Returns an error if the Schur complement is not positive.
    pub fn append(&mut self, b: &[f64], c: f64) -> Result<()> {
        let n = self.dim();
        debug_assert_eq!(b.len(), n);
        let l12 = self.whiten(b);
        let schur = c - crate::blas::dot(&l12, &l12);
        if schur <= 0.0 || !schur.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                max_jitter: self.jitter,
            });
        }
        let mut grown = Mat::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        grown.row_mut(n)[..n].copy_from_slice(&l12);
        grown[(n, n)] = schur.sqrt();
        self.l = grown;
        Ok(())
    }
}

/// Attempt a plain lower Cholesky of `a + jitter * I`. Returns `None` if a
/// non-positive pivot shows up.
///
/// Left-looking, in column order: column `j` takes its pivot from row
/// `j`'s finished prefix, then each of the `n − j − 1` entries below is
/// an independent dot of two finished row prefixes, so consecutive
/// entries do not wait on each other. Every entry is the expression the
/// row-order sweep evaluates, over the same operands, and pivot `j`
/// reads only columns `< j`: the factor and the first failing pivot are
/// bit-identical to the row-order sweep's.
fn try_factor(a: &Mat, jitter: f64) -> Option<Mat> {
    let n = a.rows();
    let mut l = Mat::zeros(n, n);
    let a = a.as_slice();
    let ls = l.as_mut_slice();
    for (j, &a_jj) in a.iter().step_by(n + 1).enumerate() {
        let (row_j, below) = ls.split_at_mut(j * n).1.split_at_mut(n);
        let (head_j, tail_j) = row_j.split_at_mut(j);
        let d = a_jj + jitter - crate::blas::dot(head_j, head_j);
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let l_jj = d.sqrt();
        if let Some(pivot) = tail_j.first_mut() {
            *pivot = l_jj;
        }
        // Column j of `a` below the diagonal: a[i][j] for i > j.
        let a_col = a.iter().skip((j + 1) * n + j).step_by(n);
        for (row_i, &a_ij) in below.chunks_exact_mut(n).zip(a_col) {
            let (head_i, tail_i) = row_i.split_at_mut(j);
            if let Some(l_ij) = tail_i.first_mut() {
                *l_ij = (a_ij - crate::blas::dot(head_i, head_j)) / l_jj;
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn spd(n: usize, seed: u64) -> Mat {
        // Deterministic pseudo-random SPD matrix: B B^T + n I.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let b = Mat::from_fn(n, n, |_, _| next());
        let mut g = blas::syrk(&b);
        g.add_diag(n as f64);
        g
    }

    /// The row-order sweep `try_factor` replaced, kept as its bit-exact
    /// reference.
    fn row_order_try_factor(a: &Mat, jitter: f64) -> Option<Mat> {
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let s = blas::dot(&l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    let d = a[(i, i)] + jitter - s;
                    if d <= 0.0 || !d.is_finite() {
                        return None;
                    }
                    l[(i, j)] = d.sqrt();
                } else {
                    l[(i, j)] = (a[(i, j)] - s) / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// [`Cholesky::factor`]'s jitter ladder over the row-order sweep.
    fn row_order_factor(a: &Mat) -> Result<(Mat, f64)> {
        let n = a.rows();
        let mean_diag = if n == 0 {
            0.0
        } else {
            a.trace().abs() / n as f64
        };
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut max_tried = 0.0;
        for &step in JITTER_STEPS {
            let jitter = step * scale;
            max_tried = jitter;
            if let Some(l) = row_order_try_factor(a, jitter) {
                return Ok((l, jitter));
            }
        }
        Err(LinalgError::NotPositiveDefinite {
            max_jitter: max_tried,
        })
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn column_order_factor_is_bit_equal_to_the_row_order_sweep() {
        // Sparse SPD: a banded matrix with exact zeros off the band.
        let banded = |n: usize| {
            Mat::from_fn(n, n, |i, j| match i.abs_diff(j) {
                0 => 4.0 + i as f64 * 0.01,
                1 => -1.0 / (1 + i.min(j)) as f64,
                2 => 0.25,
                _ => 0.0,
            })
        };
        // A near-singular Gram matrix of close 1-D inputs under a wide
        // RBF: plain factorization fails and the ladder adds jitter.
        let near_singular = Mat::from_fn(9, 9, |i, j| {
            let d = (i as f64 - j as f64) * 1e-3;
            (-0.5 * d * d).exp()
        });
        let mut cases: Vec<Mat> = (0..=13).map(|n| spd(n, 100 + n as u64)).collect();
        cases.extend([banded(1), banded(7), banded(20), Mat::identity(5)]);
        cases.push(near_singular.clone());
        for (c, a) in cases.iter().enumerate() {
            let got = Cholesky::factor(a).unwrap();
            let (want_l, want_jitter) = row_order_factor(a).unwrap();
            assert_eq!(bits(got.l()), bits(&want_l), "case {c}");
            assert_eq!(got.jitter().to_bits(), want_jitter.to_bits(), "case {c}");
        }
        let rescued = Cholesky::factor(&near_singular).unwrap();
        assert!(
            rescued.jitter() > 0.0,
            "the near-singular case needs jitter"
        );

        // Indefinite: every rung fails, with the same error.
        let indefinite = Mat::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 3.0], &[0.0, 3.0, 1.0]]);
        assert_eq!(
            Cholesky::factor(&indefinite).unwrap_err(),
            row_order_factor(&indefinite).unwrap_err()
        );
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(12, 7);
        let ch = Cholesky::factor(&a).unwrap();
        assert_eq!(ch.jitter(), 0.0);
        let recon = blas::matmul_nt(ch.l(), ch.l()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-9);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd(8, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let x = ch.solve_vec(&b);
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn log_det_matches_known() {
        let a = Mat::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - 24.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_manual() {
        let a = spd(5, 11);
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -1.0, 0.5, 2.0, 0.0];
        let x = ch.solve_vec(&b);
        let manual = blas::dot(&b, &x);
        assert!((ch.quad_form(&b) - manual).abs() < 1e-9);
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-deficient Gram matrix: ones everywhere.
        let a = Mat::filled(4, 4, 1.0);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.jitter() > 0.0, "jitter should have been needed");
        assert!(try_factor(&a, 0.0).is_none());
    }

    #[test]
    fn indefinite_rejected() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, -5.0]]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Mat::identity(3);
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NonFinite)));
    }

    #[test]
    fn append_matches_refactor() {
        let a = spd(7, 9);
        let full = spd(8, 9); // not related; we build the bordered matrix by hand
        let _ = full;
        let mut bordered = Mat::zeros(8, 8);
        for i in 0..7 {
            for j in 0..7 {
                bordered[(i, j)] = a[(i, j)];
            }
        }
        let b: Vec<f64> = (0..7).map(|i| 0.1 * i as f64).collect();
        for i in 0..7 {
            bordered[(i, 7)] = b[i];
            bordered[(7, i)] = b[i];
        }
        bordered[(7, 7)] = 10.0;

        let mut ch = Cholesky::factor(&a).unwrap();
        ch.append(&b, 10.0).unwrap();
        let ch_ref = Cholesky::factor(&bordered).unwrap();
        assert!((ch.l() - ch_ref.l()).max_abs() < 1e-8);
    }

    #[test]
    fn append_rejects_nonpositive_schur() {
        let a = Mat::identity(2);
        let mut ch = Cholesky::factor(&a).unwrap();
        // c smaller than ||b||^2 makes the Schur complement negative.
        assert!(ch.append(&[1.0, 1.0], 1.0).is_err());
    }
}
