//! Row-major dense matrix of `f64`.
//!
//! This is the workhorse type for the tomography pipeline: routing matrices
//! are converted to dense form before factorisation, and all factorisations
//! in this crate ([`crate::qr`], [`crate::pivoted_qr`], [`crate::cholesky`])
//! operate on it in place.

use crate::error::LinalgError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// Storage is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at `data[i * cols + j]`. Row-major layout matches
/// the access pattern of Householder QR (which sweeps columns within a
/// panel of rows) well enough for the problem sizes of the paper
/// (`n_c ≤` a few thousand).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {}x{}, x has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            *yi = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Transposed matrix–vector product `Aᵀ y`.
    pub fn matvec_transposed(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {}x{}, y has length {}",
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut x = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            let row = self.row(i);
            if yi == 0.0 {
                continue;
            }
            for (xj, a) in x.iter_mut().zip(row.iter()) {
                *xj += a * yi;
            }
        }
        Ok(x)
    }

    /// Matrix–matrix product `A B`: the triple loop in i-k-j order, so
    /// the inner loop *streams* rows of `other` and the output instead
    /// of striding down columns.
    ///
    /// Zero `a_ik` terms are skipped, so a `0·∞` or `0·NaN` product
    /// adds nothing to the output. No inference path multiplies dense
    /// matrices; tests check the QR, Cholesky and Givens factors
    /// through this product.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {}x{}, B is {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut c = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = c.row_mut(i);
                for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                    *cj += aik * bj;
                }
            }
        }
        Ok(c)
    }

    /// Returns `AᵀA` (the Gram matrix), exploiting symmetry: the upper
    /// triangle accumulates over the rows of `A` in ascending order,
    /// skipping zero `a_ij` as [`Matrix::matmul`] does, and is mirrored
    /// into the lower one.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let row = self.row(i);
            for j in 0..n {
                let rj = row[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..n {
                    g[(j, k)] += rj * row[k];
                }
            }
        }
        // Mirror the upper triangle.
        for j in 0..n {
            for k in (j + 1)..n {
                g[(k, j)] = g[(j, k)];
            }
        }
        g
    }

    /// Returns a new matrix consisting of the selected columns, in the
    /// given order.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, cols.len());
        self.select_columns_into(cols, &mut m);
        m
    }

    /// [`Matrix::select_columns`] writing into a preallocated matrix:
    /// `out` is reshaped in place (reusing its buffer) and fully
    /// overwritten, so steady-state callers re-selecting columns every
    /// refresh allocate nothing.
    pub fn select_columns_into(&self, cols: &[usize], out: &mut Matrix) {
        out.reshape_uninit(self.rows, cols.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (t, &j) in dst.iter_mut().zip(cols.iter()) {
                *t = src[j];
            }
        }
    }

    /// Reshapes the matrix in place to `rows × cols`, reusing the
    /// existing allocation where possible. The contents afterwards are
    /// **unspecified** (a mix of old data and zeros) — every entry must
    /// be overwritten before use. This is the buffer-recycling primitive
    /// behind the `*_into` APIs.
    pub fn reshape_uninit(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes the matrix in place to `rows × cols` (reusing the
    /// allocation) and zero-fills it.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.reshape_uninit(rows, cols);
        self.data.fill(0.0);
    }

    /// Maximum absolute entry; 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, a| m.max(a.abs()))
    }

    /// Element-wise subtraction `A - B`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {}x{}, B is {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Swaps columns `a` and `b` in place.
    pub fn swap_columns(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(i * self.cols + a, i * self.cols + b);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch(_)));
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        m[(1, 0)] = -4.0;
        assert_eq!(m[(1, 0)], -4.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = sample();
        let y = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_transposed_matches_transpose() {
        let m = sample();
        let y = vec![2.0, -1.0];
        let direct = m.matvec_transposed(&y).unwrap();
        let via_t = m.transpose().matvec(&y).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let m = sample();
        assert!(m.matmul(&sample()).is_err());
    }

    #[test]
    fn gram_is_a_transpose_times_a() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        assert_eq!(g, expected);
    }

    #[test]
    fn drop_and_select_columns() {
        let m = sample();
        let d = m.select_columns(&[0, 2]);
        assert_eq!(d.shape(), (2, 2));
        assert_eq!(d[(0, 1)], 3.0);
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s[(1, 0)], 6.0);
        assert_eq!(s[(1, 1)], 4.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn swap_columns_in_place() {
        let mut m = sample();
        m.swap_columns(0, 2);
        assert_eq!(m.row(0), &[3.0, 2.0, 1.0]);
        m.swap_columns(1, 1);
        assert_eq!(m.row(1), &[6.0, 5.0, 4.0]);
    }

    #[test]
    fn sub_computes_difference() {
        let m = sample();
        let z = m.sub(&m).unwrap();
        assert_eq!(z.max_abs(), 0.0);
        assert!(m.sub(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn display_renders_rows() {
        let s = format!("{}", Matrix::identity(2));
        assert_eq!(s.lines().count(), 2);
    }
}
