//! Numerical rank estimation via column-pivoted QR.

use crate::matrix::Matrix;
use crate::pivoted_qr::PivotedQr;

/// Default relative tolerance used to decide when a pivot counts towards
/// the rank. Routing matrices are small-integer matrices, so their
/// nonzero pivots are well separated from rounding noise; `1e-10` leaves
/// a wide safety margin on both sides.
pub const DEFAULT_RANK_TOL: f64 = 1e-10;

/// Numerical rank of `a` with the default tolerance.
///
/// Returns 0 for an empty matrix.
pub fn rank(a: &Matrix) -> usize {
    rank_with_tol(a, DEFAULT_RANK_TOL)
}

/// Numerical rank of `a`: the number of pivots of the column-pivoted QR
/// factorisation whose magnitude exceeds `rel_tol * |R[0,0]|`.
pub fn rank_with_tol(a: &Matrix, rel_tol: f64) -> usize {
    if a.rows() == 0 || a.cols() == 0 {
        return 0;
    }
    match PivotedQr::new(a) {
        Ok(qr) => qr.rank_with_tol(rel_tol),
        Err(_) => 0,
    }
}

/// Returns `true` if `a` has full column rank.
pub fn has_full_column_rank(a: &Matrix) -> bool {
    a.cols() > 0 && a.rows() >= a.cols() && rank(a) == a.cols()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_of_identity() {
        assert_eq!(rank(&Matrix::identity(4)), 4);
        assert!(has_full_column_rank(&Matrix::identity(4)));
    }

    #[test]
    fn rank_of_zero_and_empty() {
        assert_eq!(rank(&Matrix::zeros(3, 3)), 0);
        assert_eq!(rank(&Matrix::zeros(0, 0)), 0);
        assert!(!has_full_column_rank(&Matrix::zeros(3, 3)));
    }

    #[test]
    fn rank_of_outer_product_is_one() {
        // a bᵀ has rank 1 for nonzero a, b.
        let mut m = Matrix::zeros(3, 3);
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        for i in 0..3 {
            for j in 0..3 {
                m[(i, j)] = a[i] * b[j];
            }
        }
        assert_eq!(rank(&m), 1);
    }

    #[test]
    fn wide_matrix_cannot_have_full_column_rank() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]).unwrap();
        assert_eq!(rank(&m), 2);
        assert!(!has_full_column_rank(&m));
    }

    #[test]
    fn near_dependent_columns_respect_tolerance() {
        // Second column differs from the first by 1e-14: numerically
        // dependent at default tolerance.
        let m =
            Matrix::from_rows(&[vec![1.0, 1.0 + 1e-14], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(rank(&m), 1);
        // A loose tolerance of 0 counts every nonzero pivot.
        assert_eq!(rank_with_tol(&m, 0.0), 2);
    }
}
