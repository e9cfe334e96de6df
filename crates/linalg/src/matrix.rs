use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// `Mat` is the workhorse type of the workspace's numerical code. It is
/// deliberately simple: a `Vec<f64>` plus a shape, with bounds-checked
/// indexing through `mat[(i, j)]` and unchecked-by-construction iteration
/// through [`Mat::row`] slices (row-major storage makes rows contiguous).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length must equal rows*cols"
        );
        Mat { rows, cols, data }
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy of the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Add `value` to every diagonal entry in place.
    pub fn add_diag(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Maximum absolute entry (infinity norm of the flattened data).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// `true` if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Check symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Copy the strict lower triangle into the upper one, in place:
    /// `A[j][i] <- A[i][j]` for `j < i`. For symmetric matrices built by
    /// computing one triangle.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn mirror_lower(&mut self) {
        assert!(self.is_square(), "mirror_lower needs a square matrix");
        let n = self.cols;
        for i in 1..n {
            let (above, rest) = self.data.split_at_mut(i * n);
            let col_i = above.iter_mut().skip(i).step_by(n);
            for (a_ji, &a_ij) in col_i.zip(rest.iter()) {
                *a_ji = a_ij;
            }
        }
    }

    /// Symmetrize in place: `A <- (A + A^T) / 2`. Useful to scrub the tiny
    /// asymmetries that accumulate when building kernel matrices.
    pub fn symmetrize(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
        Ok(())
    }

    /// Matrix product `self * rhs` (delegates to [`crate::blas::matmul`]).
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        crate::blas::matmul(self, rhs)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        crate::blas::gemv_into(self, v, &mut out);
        Ok(out)
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl $trait<&Mat> for &Mat {
            type Output = Mat;
            fn $method(self, rhs: &Mat) -> Mat {
                assert_eq!(self.shape(), rhs.shape(), "elementwise op shape mismatch");
                Mat {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $assign_trait<&Mat> for Mat {
            fn $assign_method(&mut self, rhs: &Mat) {
                assert_eq!(self.shape(), rhs.shape(), "elementwise op shape mismatch");
                for (a, b) in self.data.iter_mut().zip(&rhs.data) {
                    *a = *a $op *b;
                }
            }
        }
    };
}

impl_elementwise!(Add, add, +, AddAssign, add_assign);
impl_elementwise!(Sub, sub, -, SubAssign, sub_assign);

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, s: f64) -> Mat {
        self.map(|x| x * s)
    }
}

impl MulAssign<f64> for Mat {
    fn mul_assign(&mut self, s: f64) {
        self.scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = Mat::identity(3);
        assert_eq!(i3.trace(), 3.0);
        assert_eq!(i3.diag(), vec![1.0, 1.0, 1.0]);
        let d = Mat::from_diag(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], 5.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);
        let sum = &a + &b;
        assert_eq!(sum, Mat::filled(2, 2, 5.0));
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
    }

    #[test]
    fn symmetry_checks() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0 + 1e-12], &[2.0, 1.0]]);
        assert!(m.is_symmetric(1e-9));
        assert!(!m.is_symmetric(1e-15));
        m.symmetrize().unwrap();
        assert!(m.is_symmetric(0.0));

        let mut lower = Mat::from_rows(&[&[1.0, 9.0, 9.0], &[2.0, 3.0, 9.0], &[4.0, 5.0, 6.0]]);
        lower.mirror_lower();
        assert_eq!(
            lower,
            Mat::from_rows(&[&[1.0, 2.0, 4.0], &[2.0, 3.0, 5.0], &[4.0, 5.0, 6.0]])
        );
    }

    #[test]
    fn symmetrize_rejects_rectangular() {
        let mut m = Mat::zeros(2, 3);
        assert!(matches!(m.symmetrize(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = vec![1.0, 0.0, -1.0];
        assert_eq!(m.matvec(&v).unwrap(), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_dimension_error() {
        let m = Mat::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn add_diag_and_norms() {
        let mut m = Mat::zeros(3, 3);
        m.add_diag(2.0);
        assert_eq!(m.trace(), 6.0);
        assert_eq!(m.max_abs(), 2.0);
    }

    #[test]
    fn finite_check() {
        let mut m = Mat::zeros(2, 2);
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());
    }
}
