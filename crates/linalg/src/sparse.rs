//! Compressed sparse row (CSR) matrices.
//!
//! Routing matrices and the augmented matrix `A` of Definition 1 are 0/1
//! matrices whose rows contain only the links of one path (or of the
//! intersection of two paths) — a few tens of nonzeros out of thousands of
//! columns. The sparse dispatches keep them in CSR form: the Givens QR
//! of [`crate::sparse_qr`] factors Phase 1's and Phase 2's sparse
//! systems and certifies the pair budget's row basis, and the
//! matrix–vector products here serve its corrected seminormal solve.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// A sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, strictly increasing within each row.
    indices: Vec<usize>,
    /// Nonzero values, parallel to `indices`.
    values: Vec<f64>,
}

/// Builder that assembles a [`CsrMatrix`] row by row.
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Creates a builder for matrices with `cols` columns.
    pub fn new(cols: usize) -> Self {
        CsrBuilder {
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a row given `(column, value)` pairs. Pairs need not be
    /// sorted; duplicates are summed.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) -> Result<()> {
        let mut sorted: Vec<(usize, f64)> = entries.to_vec();
        sorted.sort_unstable_by_key(|&(c, _)| c);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
        for (c, v) in sorted {
            if c >= self.cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "column index {c} out of bounds for {} columns",
                    self.cols
                )));
            }
            match merged.last_mut() {
                Some((lc, lv)) if *lc == c => *lv += v,
                _ => merged.push((c, v)),
            }
        }
        for (c, v) in merged {
            if v != 0.0 {
                self.indices.push(c);
                self.values.push(v);
            }
        }
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Appends a binary row: value 1.0 at each listed column.
    pub fn push_binary_row(&mut self, cols: &[usize]) -> Result<()> {
        let entries: Vec<(usize, f64)> = cols.iter().map(|&c| (c, 1.0)).collect();
        self.push_row(&entries)
    }

    /// Finalises the builder into a [`CsrMatrix`].
    pub fn build(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }
}

impl CsrMatrix {
    /// An empty matrix with the given number of columns and no rows.
    pub fn empty(cols: usize) -> Self {
        CsrBuilder::new(cols).build()
    }

    /// Converts a dense matrix, dropping explicit zeros.
    pub fn from_dense(a: &Matrix) -> Self {
        let mut b = CsrBuilder::new(a.cols());
        for i in 0..a.rows() {
            let entries: Vec<(usize, f64)> = a
                .row(i)
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(j, &v)| (j, v))
                .collect();
            b.push_row(&entries)
                .expect("indices in range by construction");
        }
        b.build()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
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
            *yi = self.row(i).map(|(j, v)| v * x[j]).sum();
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
            if yi == 0.0 {
                continue;
            }
            for (j, v) in self.row(i) {
                x[j] += v * yi;
            }
        }
        Ok(x)
    }

    /// Converts to a dense [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Restricts the matrix to the given columns (strictly ascending
    /// indices), renumbering them `0..kept.len()` in order.
    ///
    /// # Panics
    /// Panics if `kept` is not strictly ascending or indexes out of
    /// range.
    pub fn select_columns(&self, kept: &[usize]) -> CsrMatrix {
        let mut out = CsrMatrix::empty(0);
        self.select_columns_into(kept, &mut out);
        out
    }

    /// [`CsrMatrix::select_columns`] writing into a preallocated matrix
    /// whose buffers are reused and fully overwritten (same panics).
    pub fn select_columns_into(&self, kept: &[usize], out: &mut CsrMatrix) {
        assert!(
            kept.windows(2).all(|w| w[0] < w[1]),
            "kept columns must be strictly ascending"
        );
        if let Some(&last) = kept.last() {
            assert!(
                last < self.cols,
                "column {last} out of range for {} columns",
                self.cols
            );
        }
        out.rows = self.rows;
        out.cols = kept.len();
        out.indptr.clear();
        out.indptr.push(0usize);
        out.indices.clear();
        out.values.clear();
        // Old column → new column by binary search over the (strictly
        // ascending) kept list: `O(nnz · log k)` with zero scratch,
        // keeping this hot-path entry allocation-free.
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                if let Ok(nj) = kept.binary_search(&j) {
                    out.indices.push(nj);
                    out.values.push(v);
                }
            }
            out.indptr.push(out.indices.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = CsrBuilder::new(4);
        b.push_row(&[(0, 1.0), (2, 2.0)]).unwrap();
        b.push_row(&[]).unwrap();
        b.push_row(&[(3, -1.0), (1, 4.0)]).unwrap();
        b.build()
    }

    #[test]
    fn builder_sorts_and_merges() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(2, 1.0), (0, 1.0), (2, 2.0)]).unwrap();
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        let row: Vec<(usize, f64)> = m.row(0).collect();
        assert_eq!(row, vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn builder_drops_cancelled_entries() {
        let mut b = CsrBuilder::new(2);
        b.push_row(&[(1, 1.0), (1, -1.0)]).unwrap();
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 1);
    }

    #[test]
    fn out_of_bounds_column_rejected() {
        let mut b = CsrBuilder::new(2);
        assert!(b.push_row(&[(2, 1.0)]).is_err());
        assert!(b.push_binary_row(&[5]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(2, 1)], 4.0);
        assert_eq!(CsrMatrix::from_dense(&d), m);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_transposed_matches_dense() {
        let m = sample();
        let y = vec![1.0, -1.0, 2.0];
        let sparse = m.matvec_transposed(&y).unwrap();
        let dense = m.to_dense().matvec_transposed(&y).unwrap();
        assert_eq!(sparse, dense);
        assert!(m.matvec_transposed(&[1.0]).is_err());
    }

    #[test]
    fn binary_rows() {
        let mut b = CsrBuilder::new(5);
        b.push_binary_row(&[4, 0, 2]).unwrap();
        let m = b.build();
        assert!(m.row(0).map(|(k, _)| k).eq([0, 2, 4]));
        assert!(m.row(0).all(|(_, v)| v == 1.0));
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(3);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 0);
    }
}
