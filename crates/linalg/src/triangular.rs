//! Forward and backward substitution for triangular systems.
//!
//! These are the building blocks the Cholesky solver is made of, exposed
//! publicly because the GP code also needs raw `L x = b` solves (e.g. to
//! whiten residuals when computing the log marginal likelihood).

use crate::Mat;

/// Solve `L x = b` where `L` is lower triangular (entries above the diagonal
/// are ignored). Returns `x`.
///
/// # Panics
/// Panics (debug) if shapes disagree or a diagonal entry is zero.
pub fn solve_lower(l: &Mat, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_lower_in_place(l, &mut x);
    x
}

/// In-place forward substitution: `b <- L^{-1} b`.
pub fn solve_lower_in_place(l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    debug_assert!(l.is_square() && b.len() == n);
    for i in 0..n {
        let row = l.row(i);
        let s = crate::blas::dot(&row[..i], &b[..i]);
        debug_assert!(row[i] != 0.0, "zero diagonal in triangular solve"); // mtm-allow: float-eq -- exact zero-pivot guard
        b[i] = (b[i] - s) / row[i];
    }
}

/// Solve `L^T x = b` where `L` is lower triangular. Returns `x`.
pub fn solve_lower_transpose(l: &Mat, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_lower_transpose_in_place(l, &mut x);
    x
}

/// In-place backward substitution against the transpose: `b <- L^{-T} b`.
pub fn solve_lower_transpose_in_place(l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    debug_assert!(l.is_square() && b.len() == n);
    let ls = l.as_slice();
    for (i, &l_ii) in ls.iter().step_by(n + 1).enumerate().rev() {
        // Column i of L below the diagonal is row i of L^T right of
        // diagonal: walk the rows below, summing in row order.
        let (head, below) = b.split_at_mut(i + 1);
        let l_col = ls.iter().skip((i + 1) * n + i).step_by(n);
        let mut s = 0.0;
        for (&l_ki, &b_k) in l_col.zip(below.iter()) {
            s += l_ki * b_k;
        }
        if let Some(b_i) = head.last_mut() {
            *b_i = (*b_i - s) / l_ii;
        }
    }
}

/// Solve `L X = B` column-by-column for a matrix right-hand side.
pub fn solve_lower_mat(l: &Mat, b: &Mat) -> Mat {
    let n = l.rows();
    debug_assert_eq!(b.rows(), n);
    let mut x = b.clone();
    // Forward substitution applied to all columns at once, walking rows of X
    // (rows are contiguous, so this keeps the inner loops streaming).
    for i in 0..n {
        for k in 0..i {
            let l_ik = l[(i, k)];
            // mtm-allow: float-eq -- exact sparse-skip of zero entries
            if l_ik == 0.0 {
                continue;
            }
            let (head, tail) = x.as_mut_slice().split_at_mut(i * b.cols());
            let row_k = &head[k * b.cols()..(k + 1) * b.cols()];
            let row_i = &mut tail[..b.cols()];
            for (xi, xk) in row_i.iter_mut().zip(row_k) {
                *xi -= l_ik * xk;
            }
        }
        let inv = 1.0 / l[(i, i)];
        for v in x.row_mut(i) {
            *v *= inv;
        }
    }
    x
}

/// Solve `L^T X = B` for a matrix right-hand side.
pub fn solve_lower_transpose_mat(l: &Mat, b: &Mat) -> Mat {
    let n = l.rows();
    debug_assert_eq!(b.rows(), n);
    let cols = b.cols();
    let mut x = b.clone();
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            let l_ki = l[(k, i)];
            // mtm-allow: float-eq -- exact sparse-skip of zero entries
            if l_ki == 0.0 {
                continue;
            }
            let (head, tail) = x.as_mut_slice().split_at_mut(k * cols);
            let row_i = &mut head[i * cols..(i + 1) * cols];
            let row_k = &tail[..cols];
            for (xi, xk) in row_i.iter_mut().zip(row_k) {
                *xi -= l_ki * xk;
            }
        }
        let inv = 1.0 / l[(i, i)];
        for v in x.row_mut(i) {
            *v *= inv;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_l() -> Mat {
        Mat::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, -1.0, 5.0]])
    }

    #[test]
    fn forward_substitution() {
        let l = sample_l();
        let b = vec![2.0, 7.0, 10.0];
        let x = solve_lower(&l, &b);
        // Verify L x = b.
        let lx = l.matvec(&x).unwrap();
        for (got, want) in lx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_substitution_transpose() {
        let l = sample_l();
        let b = vec![1.0, -2.0, 3.0];
        let x = solve_lower_transpose(&l, &b);
        let ltx = l.transpose().matvec(&x).unwrap();
        for (got, want) in ltx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_solve_is_bit_equal_to_the_indexed_column_walk() {
        let n = 11;
        let l = Mat::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Less => 0.0,
            std::cmp::Ordering::Equal => 1.5 + (i as f64 * 0.3).sin(),
            std::cmp::Ordering::Greater => ((i * 7 + j) as f64 * 0.61).cos(),
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin() * 3.0).collect();
        let mut want = b.clone();
        for i in (0..n).rev() {
            let mut s = 0.0;
            for k in (i + 1)..n {
                s += l[(k, i)] * want[k];
            }
            want[i] = (want[i] - s) / l[(i, i)];
        }
        let got = solve_lower_transpose(&l, &b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert!(solve_lower_transpose(&Mat::zeros(0, 0), &[]).is_empty());
    }

    #[test]
    fn matrix_rhs_matches_columnwise() {
        let l = sample_l();
        let b = Mat::from_fn(3, 4, |i, j| (i + j) as f64 + 1.0);
        let x = solve_lower_mat(&l, &b);
        for j in 0..4 {
            let col_solve = solve_lower(&l, &b.col(j));
            for i in 0..3 {
                assert!((x[(i, j)] - col_solve[i]).abs() < 1e-12);
            }
        }

        let xt = solve_lower_transpose_mat(&l, &b);
        for j in 0..4 {
            let col_solve = solve_lower_transpose(&l, &b.col(j));
            for i in 0..3 {
                assert!((xt[(i, j)] - col_solve[i]).abs() < 1e-12);
            }
        }
    }
}
