//! Householder QR factorisation (no pivoting).
//!
//! This is the factorisation the paper cites for solving the moment system
//! (8): "using Householder reflection to compute an orthogonal-triangular
//! factorization of A" [Golub & Van Loan]. The factorisation is stored in
//! the compact LAPACK-style form: the upper triangle of the working matrix
//! holds `R`, the columns below the diagonal hold the essential parts of
//! the Householder vectors, and a separate array holds the scalar
//! coefficients `tau`.

use crate::error::LinalgError;
use crate::householder::{apply_reflector, reflect_column, ReflectorScratch};
use crate::matrix::Matrix;
use crate::triangular::solve_upper_triangular;
use crate::Result;

/// Compact Householder QR factorisation of an `m × n` matrix with `m ≥ n`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorisation: upper triangle is `R`, strictly-lower part
    /// holds Householder vectors (with implicit unit leading entry).
    packed: Matrix,
    /// Householder scalars, one per reflected column.
    tau: Vec<f64>,
}

impl Qr {
    /// Computes the QR factorisation of `a`.
    ///
    /// Requires `m ≥ n` (tall or square); returns
    /// [`LinalgError::DimensionMismatch`] otherwise, and
    /// [`LinalgError::Empty`] for an empty matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::DimensionMismatch(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        let mut packed = a.clone();
        let mut tau = vec![0.0; n];
        let mut scratch = ReflectorScratch::default();
        for (k, tk) in tau.iter_mut().enumerate() {
            *tk = reflect_column(&mut packed, k, &mut scratch);
        }
        Ok(Qr { packed, tau })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.packed.cols()
    }

    /// Returns the `n × n` upper-triangular factor `R` (thin form).
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// Applies `Qᵀ` to a vector of length `m`, in place.
    pub fn apply_qt(&self, y: &mut [f64]) -> Result<()> {
        let (m, n) = self.packed.shape();
        if y.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "Q is {m}x{m}, y has length {}",
                y.len()
            )));
        }
        for k in 0..n {
            apply_reflector(&self.packed, k, self.tau[k], y);
        }
        Ok(())
    }

    /// Applies `Q` to a vector of length `m`, in place (reflectors in
    /// reverse order; each Householder reflector is its own inverse).
    pub fn apply_q(&self, y: &mut [f64]) -> Result<()> {
        let (m, n) = self.packed.shape();
        if y.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "Q is {m}x{m}, y has length {}",
                y.len()
            )));
        }
        for k in (0..n).rev() {
            apply_reflector(&self.packed, k, self.tau[k], y);
        }
        Ok(())
    }

    /// Materialises the thin `m × n` orthonormal factor `Q`.
    ///
    /// Mostly useful for testing; solvers use [`Qr::apply_qt`] instead.
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = self.packed.shape();
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            // apply_q cannot fail here: e has length m by construction.
            self.apply_q(&mut e).expect("unit vector has length m");
            for i in 0..m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` via
    /// `R x = (Qᵀ b)[..n]`.
    ///
    /// Returns [`LinalgError::Singular`] if `A` is numerically rank
    /// deficient (zero pivot on the diagonal of `R`).
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.packed.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {m}x{n}, b has length {}",
                b.len()
            )));
        }
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb)?;
        solve_upper_triangular(&self.packed, &qtb[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn factors_reproduce_a() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        let q = qr.q_thin();
        let r = qr.r();
        let qr_prod = q.matmul(&r).unwrap();
        assert!(qr_prod.sub(&a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.5],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![4.0, 0.0, -2.0],
        ])
        .unwrap();
        let qr = Qr::new(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // A x = b has an exact solution -> residual 0, x recovered exactly.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let x_true = vec![2.0, -3.0];
        let b = a.matvec(&x_true).unwrap();
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        assert_close(x[0], 2.0, 1e-12);
        assert_close(x[1], -3.0, 1e-12);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Overdetermined inconsistent system: check the normal equations
        // Aᵀ(Ax - b) = 0 hold at the solution.
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
        ])
        .unwrap();
        let b = vec![6.0, 5.0, 7.0, 10.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let grad = a.matvec_transposed(&resid).unwrap();
        assert!(grad.iter().all(|g| g.abs() < 1e-10), "gradient {grad:?}");
    }

    #[test]
    fn rejects_wide_matrices_and_empty() {
        let wide = Matrix::zeros(2, 3);
        assert!(Qr::new(&wide).is_err());
        assert!(matches!(
            Qr::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn singular_matrix_detected_on_solve() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5], vec![3.0, 1.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        let y0 = vec![1.0, -2.0, 3.0];
        let mut y = y0.clone();
        qr.apply_q(&mut y).unwrap();
        qr.apply_qt(&mut y).unwrap();
        for (a, b) in y.iter().zip(y0.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 2.0], vec![0.0, 3.0]]).unwrap();
        // Factorisation succeeds; solving must report singularity.
        let qr = Qr::new(&a).unwrap();
        assert!(qr.solve_least_squares(&[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn dimension_checks_on_apply_and_solve() {
        let a = Matrix::identity(3);
        let qr = Qr::new(&a).unwrap();
        let mut short = vec![1.0, 2.0];
        assert!(qr.apply_qt(&mut short).is_err());
        assert!(qr.apply_q(&mut short).is_err());
        assert!(qr.solve_least_squares(&short).is_err());
    }
}
