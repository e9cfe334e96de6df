//! BLAS-like computational kernels.
//!
//! The kernels here are written for cache-friendly row-major access (the
//! `i-k-j` loop order for matmul keeps the innermost loop streaming over
//! contiguous rows of both the right-hand side and the accumulator, letting
//! LLVM vectorize it).

use crate::{LinalgError, Mat, Result};

/// General matrix multiply: `C = A * B`.
pub fn matmul(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let a_ik = a[(i, kk)];
            // mtm-allow: float-eq -- exact sparse-skip of zero entries
            if a_ik == 0.0 {
                continue;
            }
            let b_row = b.row(kk);
            let c_row = c.row_mut(i);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
    Ok(c)
}

/// `A * B^T` without materializing the transpose.
pub fn matmul_nt(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_nt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, n) = (a.rows(), b.rows());
    let mut c = Mat::zeros(m, n);
    for (i, c_row) in c.as_mut_slice().chunks_mut(n).enumerate() {
        let a_row = a.row(i);
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            *c_ij = dot(a_row, b.row(j));
        }
    }
    Ok(c)
}

/// Symmetric rank-k update: returns `A * A^T` (an `m x m` SPD-ish Gram
/// matrix). Only the lower triangle is computed; the upper is mirrored.
pub fn syrk(a: &Mat) -> Mat {
    let m = a.rows();
    let mut c = Mat::zeros(m, m);
    for i in 0..m {
        for j in 0..=i {
            let v = dot(a.row(i), a.row(j));
            c[(i, j)] = v;
            c[(j, i)] = v;
        }
    }
    c
}

/// Matrix-vector product written into a caller-provided buffer
/// (`out = A * v`), avoiding an allocation on hot paths.
///
/// # Panics
/// Panics (debug) on shape mismatch; callers validate shapes.
pub fn gemv_into(a: &Mat, v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.cols(), v.len());
    debug_assert_eq!(a.rows(), out.len());
    for (i, out_i) in out.iter_mut().enumerate() {
        *out_i = dot(a.row(i), v);
    }
}

/// Dot product of two equal-length slices.
///
/// Unrolled by four lanes; the independent accumulators break the
/// floating-point dependency chain so the loop pipelines well. The walk
/// over `chunks_exact(4)` carries no bounds checks; lane `l` of every
/// chunk feeds `s_l`, and the tail feeds `rest` in order.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let (a_tail, b_tail) = (a4.remainder(), b4.remainder());
    for (x, y) in a4.zip(b4) {
        if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (x, y) {
            s0 += x0 * y0;
            s1 += x1 * y1;
            s2 += x2 * y2;
            s3 += x3 * y3;
        }
    }
    let mut rest = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        rest += x * y;
    }
    s0 + s1 + s2 + s3 + rest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for k in 0..a.cols() {
                    c[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_small_matches_naive() {
        let a = Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        let b = Mat::from_fn(4, 2, |i, j| (i as f64) - (j as f64));
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c, naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_large_matches_naive() {
        let a = Mat::from_fn(70, 70, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Mat::from_fn(70, 70, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        let c = matmul(&a, &b).unwrap();
        let expected = naive_matmul(&a, &b);
        assert!((&c - &expected).max_abs() < 1e-9);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Mat::from_fn(3, 5, |i, j| (i * j) as f64 + 1.0);
        let b = Mat::from_fn(4, 5, |i, j| (i + 2 * j) as f64);
        let c = matmul_nt(&a, &b).unwrap();
        let expected = matmul(&a, &b.transpose()).unwrap();
        assert!((&c - &expected).max_abs() < 1e-12);
    }

    #[test]
    fn syrk_is_gram_matrix() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = syrk(&a);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g[(0, 0)], 5.0);
        assert_eq!(g[(2, 1)], 39.0);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn gemv_variants() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = vec![0.0; 3];
        gemv_into(&a, &[1.0, -1.0], &mut out);
        assert_eq!(out, vec![-1.0, -1.0, -1.0]);
    }

    /// The indexed four-lane loop `dot` replaced, kept as its bit-exact
    /// reference.
    fn indexed_dot(a: &[f64], b: &[f64]) -> f64 {
        let chunks = a.len() / 4;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for c in 0..chunks {
            let i = c * 4;
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
        }
        let mut rest = 0.0;
        for i in chunks * 4..a.len() {
            rest += a[i] * b[i];
        }
        s0 + s1 + s2 + s3 + rest
    }

    #[test]
    fn dot_is_bit_equal_to_the_indexed_loop() {
        // Values spread over many magnitudes and signs, so every lane's
        // rounding shows; non-finite entries pin NaN and infinity paths.
        let val = |i: usize, salt: f64| {
            ((i as f64 + salt) * 0.7311).sin() * 10f64.powi((i % 7) as i32 - 3)
        };
        for n in 0..=67 {
            let a: Vec<f64> = (0..n).map(|i| val(i, 0.0)).collect();
            let b: Vec<f64> = (0..n).map(|i| val(i, 0.5)).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                indexed_dot(&a, &b).to_bits(),
                "n={n}"
            );
            for (pos, bad) in [
                (0, f64::NAN),
                (n / 2, f64::INFINITY),
                (n.saturating_sub(1), f64::NEG_INFINITY),
            ] {
                if n == 0 {
                    continue;
                }
                let mut a_bad = a.clone();
                a_bad[pos] = bad;
                let (got, want) = (dot(&a_bad, &b), indexed_dot(&a_bad, &b));
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "n={n}, {bad} at {pos}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn dot_handles_remainders() {
        for n in 0..9 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let expected: f64 = (0..n).map(|i| (i * (i + 1)) as f64).sum();
            assert_eq!(dot(&a, &b), expected, "n={n}");
        }
    }
}
