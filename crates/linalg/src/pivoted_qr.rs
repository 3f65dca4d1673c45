//! Column-pivoted (rank-revealing) Householder QR.
//!
//! Phase 2 of the LIA algorithm needs to know when the reduced routing
//! matrix `R*` reaches full column rank, and the identifiability check of
//! Theorem 1 needs `rank(A)`. Column pivoting makes the diagonal of the
//! triangular factor non-increasing in magnitude, so the numerical rank is
//! the number of diagonal entries above a tolerance (Golub & Van Loan
//! §5.4.1, "QR with column pivoting").
//!
//! Unlike [`crate::qr::Qr`], this factorisation accepts wide matrices
//! (`m < n`): it simply stops after `min(m, n)` reflections.

use crate::error::LinalgError;
use crate::householder::{apply_reflector, reflect_column, ReflectorScratch};
use crate::matrix::Matrix;
use crate::Result;

/// Column-pivoted Householder QR factorisation `A P = Q R`.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    packed: Matrix,
    tau: Vec<f64>,
    /// `perm[k]` is the index (into the original matrix) of the column
    /// that ended up in position `k`.
    perm: Vec<usize>,
    /// `|R[0,0]|`, used for relative rank tolerances.
    max_pivot: f64,
}

impl PivotedQr {
    /// Computes the pivoted QR factorisation of `a` (any shape, nonempty).
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut packed = a.clone();
        let mut tau = vec![0.0; n.min(m)];
        let mut perm: Vec<usize> = (0..n).collect();
        // Running squared column norms of the trailing submatrix.
        let mut col_norms: Vec<f64> = (0..n)
            .map(|j| (0..m).map(|i| packed[(i, j)].powi(2)).sum::<f64>())
            .collect();

        let steps = m.min(n);
        let mut scratch = ReflectorScratch::default();
        for k in 0..steps {
            // Pivot: bring the trailing column with the largest remaining
            // norm into position k. Recompute norms periodically to avoid
            // drift from the cheap downdating formula.
            let (pivot_col, pivot_norm) = col_norms[k..]
                .iter()
                .enumerate()
                .map(|(off, &v)| (k + off, v))
                .fold(
                    (k, f64::MIN),
                    |best, cand| {
                        if cand.1 > best.1 {
                            cand
                        } else {
                            best
                        }
                    },
                );
            if pivot_norm <= 0.0 {
                // All remaining columns are (numerically) zero.
                tau.truncate(k);
                break;
            }
            if pivot_col != k {
                packed.swap_columns(k, pivot_col);
                perm.swap(k, pivot_col);
                col_norms.swap(k, pivot_col);
            }
            tau[k] = reflect_column(&mut packed, k, &mut scratch);
            // Downdate trailing column norms: after zeroing below-diagonal
            // entries in column k, each trailing column loses its k-th
            // row's contribution.
            for j in (k + 1)..n {
                let rkj = packed[(k, j)];
                col_norms[j] -= rkj * rkj;
                if col_norms[j] < 0.0 {
                    // Numerical cancellation: recompute exactly.
                    col_norms[j] = ((k + 1)..m).map(|i| packed[(i, j)].powi(2)).sum();
                }
            }
        }
        let max_pivot = packed[(0, 0)].abs();
        Ok(PivotedQr {
            packed,
            tau,
            perm,
            max_pivot,
        })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// The column permutation: `perm()[k]` is the original index of the
    /// column in position `k` of the factorisation.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Absolute value of the `k`-th diagonal entry of `R` (non-increasing
    /// in `k` by construction).
    pub fn pivot_magnitude(&self, k: usize) -> f64 {
        self.packed[(k, k)].abs()
    }

    /// Numerical rank: the number of diagonal pivots exceeding
    /// `tol * |R[0,0]|`.
    pub fn rank_with_tol(&self, rel_tol: f64) -> usize {
        if self.max_pivot == 0.0 {
            return 0;
        }
        let threshold = rel_tol * self.max_pivot;
        let kmax = self.tau.len();
        (0..kmax)
            .take_while(|&k| self.pivot_magnitude(k) > threshold)
            .count()
    }

    /// Numerical rank with the crate's default tolerance
    /// ([`crate::rank::DEFAULT_RANK_TOL`]).
    pub fn rank(&self) -> usize {
        self.rank_with_tol(crate::rank::DEFAULT_RANK_TOL)
    }

    /// Returns the original indices of a maximal set of linearly
    /// independent columns (the first `rank` pivoted columns).
    pub fn independent_columns(&self) -> Vec<usize> {
        let r = self.rank();
        self.perm[..r].to_vec()
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` when `A` has full
    /// column rank; returns [`LinalgError::Singular`] with the first
    /// deficient pivot position otherwise.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.packed.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {m}x{n}, b has length {}",
                b.len()
            )));
        }
        let r = self.rank();
        if r < n {
            return Err(LinalgError::Singular { index: r });
        }
        let mut qtb = b.to_vec();
        for k in 0..self.tau.len() {
            apply_reflector(&self.packed, k, self.tau[k], &mut qtb);
        }
        let y = crate::triangular::solve_upper_triangular(&self.packed, &qtb[..n])?;
        // Undo the permutation: x[perm[k]] = y[k].
        let mut x = vec![0.0; n];
        for (k, &orig) in self.perm.iter().enumerate() {
            x[orig] = y[k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rank_square() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0]]).unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        assert_eq!(qr.rank(), 2);
    }

    #[test]
    fn detects_rank_deficiency() {
        // Third column = first + second.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 1.0, 2.0],
        ])
        .unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        assert_eq!(qr.rank(), 2);
        let indep = qr.independent_columns();
        assert_eq!(indep.len(), 2);
    }

    #[test]
    fn wide_matrix_rank_is_row_bound() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 1.0, 2.0], vec![0.0, 1.0, 1.0, 3.0]]).unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        assert_eq!(qr.rank(), 2);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let a = Matrix::zeros(3, 2);
        let qr = PivotedQr::new(&a).unwrap();
        assert_eq!(qr.rank(), 0);
        assert!(qr.independent_columns().is_empty());
    }

    #[test]
    fn pivot_magnitudes_non_increasing() {
        let a = Matrix::from_rows(&[
            vec![1.0, 100.0, 2.0],
            vec![3.0, 1.0, 4.0],
            vec![5.0, 2.0, 6.0],
            vec![1.0, 0.5, 2.0],
        ])
        .unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        let r = qr.rank();
        for k in 1..r {
            assert!(qr.pivot_magnitude(k) <= qr.pivot_magnitude(k - 1) + 1e-12);
        }
    }

    #[test]
    fn least_squares_matches_unpivoted_qr() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![2.0, 0.1, 1.0],
            vec![0.3, 1.0, 2.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 2.0, 0.7],
        ])
        .unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x1 = PivotedQr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let x2 = crate::qr::Qr::new(&a)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        for (p, q) in x1.iter().zip(x2.iter()) {
            assert!((p - q).abs() < 1e-10, "{x1:?} vs {x2:?}");
        }
    }

    #[test]
    fn solve_rejects_rank_deficient() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn independent_columns_are_actually_independent() {
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 2.0],
            vec![0.0, 1.0, 1.0, 1.0],
            vec![1.0, 2.0, 1.0, 3.0],
        ])
        .unwrap();
        let qr = PivotedQr::new(&a).unwrap();
        let cols = qr.independent_columns();
        let sub = a.select_columns(&cols);
        let sub_qr = PivotedQr::new(&sub).unwrap();
        assert_eq!(sub_qr.rank(), cols.len());
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            PivotedQr::new(&Matrix::zeros(0, 3)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn rank_of_binary_routing_like_matrix() {
        // The Figure-1 routing matrix from the paper: 3 paths, 5 links
        // (after alias reduction): rank 3.
        let r = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 1.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
        ])
        .unwrap();
        let qr = PivotedQr::new(&r).unwrap();
        assert_eq!(qr.rank(), 3);
    }
}
