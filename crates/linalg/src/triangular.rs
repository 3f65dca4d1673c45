//! Triangular solves (forward and back substitution): `U x = b` for the
//! QR least-squares solves, `L x = b` and `Lᵀ x = b` for the Cholesky
//! solve.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Relative pivot threshold below which a triangular system is declared
/// singular. Scaled by the largest diagonal magnitude.
const PIVOT_RTOL: f64 = 1e-13;

fn max_diag_abs(m: &Matrix, n: usize) -> f64 {
    (0..n).fold(0.0_f64, |acc, i| acc.max(m[(i, i)].abs()))
}

/// Solves `U x = b` where `U` is upper triangular, reading only the upper
/// triangle of the leading `n × n` block of `u` with `n = b.len()`.
///
/// Returns [`LinalgError::Singular`] if a diagonal pivot is (relatively)
/// zero.
pub fn solve_upper_triangular(u: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = b.len();
    if u.rows() < n || u.cols() < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "U is {}x{}, b has length {n}",
            u.rows(),
            u.cols()
        )));
    }
    let tol = PIVOT_RTOL * max_diag_abs(u, n);
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= u[(i, j)] * x[j];
        }
        let pivot = u[(i, i)];
        if pivot.abs() <= tol {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = acc / pivot;
    }
    Ok(x)
}

/// Solves `L x = b` where `L` is lower triangular, reading only the lower
/// triangle of the leading `n × n` block of `l` with `n = b.len()`.
pub fn solve_lower_triangular(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = b.len();
    if l.rows() < n || l.cols() < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "L is {}x{}, b has length {n}",
            l.rows(),
            l.cols()
        )));
    }
    let tol = PIVOT_RTOL * max_diag_abs(l, n);
    let mut x = b.to_vec();
    for i in 0..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= l[(i, j)] * x[j];
        }
        let pivot = l[(i, i)];
        if pivot.abs() <= tol {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = acc / pivot;
    }
    Ok(x)
}

/// Order above which [`solve_lower_transposed`] switches to its
/// row-streaming (saxpy) form. The small-system path keeps the exact
/// historical accumulation order; the large path reorders the same
/// subtractions to stream rows of `L` instead of striding down columns.
const TRANSPOSED_STREAM_MIN: usize = 128;

/// Solves `Lᵀ x = b` reading only the lower triangle of `l` (used by the
/// Cholesky solver to avoid materialising `Lᵀ`).
pub fn solve_lower_transposed(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = b.len();
    if l.rows() < n || l.cols() < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "L is {}x{}, b has length {n}",
            l.rows(),
            l.cols()
        )));
    }
    let tol = PIVOT_RTOL * max_diag_abs(l, n);
    let mut x = b.to_vec();
    if n > TRANSPOSED_STREAM_MIN {
        // Saxpy back-substitution: once x[j] is known, its contribution
        // is subtracted from every pending entry in one contiguous
        // sweep over row j of L (column i of Lᵀ strides the matrix;
        // row j does not).
        for j in (0..n).rev() {
            let pivot = l[(j, j)];
            if pivot.abs() <= tol {
                return Err(LinalgError::Singular { index: j });
            }
            let xj = x[j] / pivot;
            x[j] = xj;
            let row = &l.row(j)[..j];
            for (xi, lji) in x[..j].iter_mut().zip(row.iter()) {
                *xi -= lji * xj;
            }
        }
        return Ok(x);
    }
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            // (Lᵀ)[i, j] = L[j, i]
            acc -= l[(j, i)] * x[j];
        }
        let pivot = l[(i, i)];
        if pivot.abs() <= tol {
            return Err(LinalgError::Singular { index: i });
        }
        x[i] = acc / pivot;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn upper_triangular_solve() {
        // U = [2 1; 0 3], b = [5, 6] -> x = [1.5, 2] gives Ux = [5, 6].
        let u = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]).unwrap();
        let x = solve_upper_triangular(&u, &[5.0, 6.0]).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lower_triangular_solve() {
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]).unwrap();
        let x = solve_lower_triangular(&l, &[4.0, 11.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lower_transposed_matches_explicit_transpose() {
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let via_helper = solve_lower_transposed(&l, &b).unwrap();
        let via_explicit = solve_upper_triangular(&l.transpose(), &b).unwrap();
        for (a, b) in via_helper.iter().zip(via_explicit.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transposed_streaming_path_matches_small_path() {
        // An SPD factor big enough to take the streaming branch.
        let n = TRANSPOSED_STREAM_MIN + 17;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                l[(i, j)] = (((i * 31 + j * 7) % 11) as f64 - 5.0) / 23.0;
            }
            l[(i, i)] = 2.0 + ((i % 5) as f64) / 7.0;
        }
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let fast = solve_lower_transposed(&l, &b).unwrap();
        let reference = solve_upper_triangular(&l.transpose(), &b).unwrap();
        for (a, r) in fast.iter().zip(reference.iter()) {
            assert!((a - r).abs() < 1e-9, "{a} vs {r}");
        }
    }

    #[test]
    fn singular_pivot_detected() {
        let u = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        assert!(matches!(
            solve_upper_triangular(&u, &[1.0, 1.0]),
            Err(LinalgError::Singular { index: 1 })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let u = Matrix::identity(2);
        assert!(solve_upper_triangular(&u, &[1.0, 2.0, 3.0]).is_err());
        assert!(solve_lower_triangular(&u, &[1.0, 2.0, 3.0]).is_err());
        assert!(solve_lower_transposed(&u, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn solves_use_leading_block_only() {
        // A 3x3 matrix, but b of length 2: only the leading 2x2 block is read.
        let u = Matrix::from_rows(&[
            vec![1.0, 2.0, 99.0],
            vec![0.0, 1.0, 99.0],
            vec![99.0, 99.0, 0.0],
        ])
        .unwrap();
        let x = solve_upper_triangular(&u, &[3.0, 1.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0]);
    }
}
