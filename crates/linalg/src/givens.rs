//! Givens rotations and rank-1 Cholesky factor updates.
//!
//! Section 5.1 of the paper notes that when beacons arrive or leave, only
//! the rows of the augmented matrix `A` corresponding to the changed paths
//! need updating — recomputing the whole factorisation is wasteful. The
//! streaming estimator's normal equations see the same structure: when
//! covariance rows move between the kept and dropped sets across
//! refreshes, or churn swaps the rows of rerouted paths, the Gram matrix
//! changes by a handful of rank-1 terms `± a aᵀ`. [`rank_one_update`] absorbs `+ a aᵀ` into an existing
//! upper-triangular factor with `n` Givens rotations, and
//! [`rank_one_downdate`] removes `− a aᵀ` with hyperbolic rotations
//! (failing cleanly if the downdate would destroy positive
//! definiteness), each in `O(n²)` instead of a fresh `O(n³)`
//! factorisation.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// A single Givens rotation `[c s; -s c]` chosen to zero the second
/// component of `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GivensRotation {
    /// Cosine component.
    pub c: f64,
    /// Sine component.
    pub s: f64,
    /// The resulting first component `r = sqrt(a² + b²)` (with sign).
    pub r: f64,
}

impl GivensRotation {
    /// Computes the rotation zeroing `b` in the pair `(a, b)`, using the
    /// numerically stable formulation of Golub & Van Loan §5.1.8.
    pub fn compute(a: f64, b: f64) -> Self {
        if b == 0.0 {
            GivensRotation { c: 1.0, s: 0.0, r: a }
        } else if a == 0.0 {
            GivensRotation {
                c: 0.0,
                s: b.signum(),
                r: b.abs(),
            }
        } else {
            let r = a.hypot(b);
            GivensRotation {
                c: a / r,
                s: b / r,
                r,
            }
        }
    }

    /// Applies the rotation to a coordinate pair, returning the rotated
    /// pair `(c·x + s·y, −s·x + c·y)`.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        (self.c * x + self.s * y, -self.s * x + self.c * y)
    }
}

/// Absorbs a rank-1 term `+ x xᵀ` into an upper-triangular Cholesky-like
/// factor: given `R` with `RᵀR = G`, rewrites `R` in place so that
/// `RᵀR = G + x xᵀ`, using `n` Givens rotations (`O(n²)` total).
///
/// `x` is consumed as workspace (its contents are destroyed). The
/// updated factor keeps a non-negative diagonal. It is the building
/// block the streaming Phase-1 estimator uses to fold a
/// covariance row back into the kept set without refactoring the Gram
/// matrix from scratch.
pub fn rank_one_update(r: &mut Matrix, x: &mut [f64]) -> Result<()> {
    let n = x.len();
    if r.rows() < n || r.cols() < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "factor is {}x{}, update vector has length {n}",
            r.rows(),
            r.cols()
        )));
    }
    for k in 0..n {
        if x[k] == 0.0 {
            continue;
        }
        let g = GivensRotation::compute(r[(k, k)], x[k]);
        r[(k, k)] = g.r;
        for j in (k + 1)..n {
            let (rk, xk) = g.apply(r[(k, j)], x[j]);
            r[(k, j)] = rk;
            x[j] = xk;
        }
    }
    Ok(())
}

/// Removes a rank-1 term `− x xᵀ` from an upper-triangular factor:
/// given `R` with `RᵀR = G`, rewrites `R` in place so that
/// `RᵀR = G − x xᵀ`, using `n` *hyperbolic* rotations (`O(n²)` total).
///
/// `x` is consumed as workspace. Fails with
/// [`LinalgError::NotPositiveDefinite`] — leaving `R` partially
/// modified — when `G − x xᵀ` is not positive definite (the caller
/// should refactor from scratch in that case; the streaming estimator
/// does exactly that). Each hyperbolic rotation
/// `H = (1/c)·[1 −s; −s 1]` with `c² = 1 − s²` preserves
/// `r² − x²` per column, which is what turns the *sum* invariant of a
/// Givens rotation into the *difference* invariant a downdate needs.
pub fn rank_one_downdate(r: &mut Matrix, x: &mut [f64]) -> Result<()> {
    let n = x.len();
    if r.rows() < n || r.cols() < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "factor is {}x{}, downdate vector has length {n}",
            r.rows(),
            r.cols()
        )));
    }
    for k in 0..n {
        if x[k] == 0.0 {
            continue;
        }
        let rkk = r[(k, k)];
        let t = x[k] / rkk;
        // |t| ≥ 1 (or a zero pivot) means the downdated matrix loses
        // positive definiteness at this pivot.
        if !t.is_finite() || t.abs() >= 1.0 {
            return Err(LinalgError::NotPositiveDefinite { index: k });
        }
        let c = (1.0 - t * t).sqrt();
        let s = t;
        r[(k, k)] = rkk * c;
        for j in (k + 1)..n {
            let rk = r[(k, j)];
            let xj = x[j];
            r[(k, j)] = (rk - s * xj) / c;
            x[j] = (xj - s * rk) / c;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_zeroes_second_component() {
        let g = GivensRotation::compute(3.0, 4.0);
        let (x, y) = g.apply(3.0, 4.0);
        assert!((x - 5.0).abs() < 1e-12);
        assert!(y.abs() < 1e-12);
    }

    #[test]
    fn rotation_edge_cases() {
        let g = GivensRotation::compute(2.0, 0.0);
        assert_eq!((g.c, g.s, g.r), (1.0, 0.0, 2.0));
        let g = GivensRotation::compute(0.0, -2.0);
        assert_eq!(g.r, 2.0);
        let (x, y) = g.apply(0.0, -2.0);
        assert!((x - 2.0).abs() < 1e-12);
        assert!(y.abs() < 1e-12);
    }

    /// A small SPD matrix and its upper Cholesky factor `R` (RᵀR = G).
    fn spd_and_factor() -> (Matrix, Matrix) {
        let b = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![0.5, 3.0, 1.0],
            vec![1.0, 0.0, 2.5],
            vec![0.0, 1.0, 1.0],
        ])
        .unwrap();
        let g = b.gram();
        let chol = crate::Cholesky::new(&g).unwrap();
        (g, chol.l().transpose())
    }

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        a.sub(b).unwrap().max_abs()
    }

    #[test]
    fn rank_one_update_matches_refactorisation() {
        let (g, mut r) = spd_and_factor();
        let x = [0.7, -1.2, 0.4];
        rank_one_update(&mut r, &mut x.to_vec()).unwrap();
        // RᵀR must equal G + x xᵀ.
        let mut expected = g.clone();
        for i in 0..3 {
            for j in 0..3 {
                expected[(i, j)] += x[i] * x[j];
            }
        }
        let rtr = r.transpose().matmul(&r).unwrap();
        assert!(max_abs_diff(&rtr, &expected) < 1e-10);
        // Triangularity and positive diagonal are preserved.
        for i in 0..3 {
            assert!(r[(i, i)] > 0.0);
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn downdate_reverses_update() {
        let (g, mut r) = spd_and_factor();
        let x = [0.7, -1.2, 0.4];
        rank_one_update(&mut r, &mut x.to_vec()).unwrap();
        rank_one_downdate(&mut r, &mut x.to_vec()).unwrap();
        let rtr = r.transpose().matmul(&r).unwrap();
        assert!(max_abs_diff(&rtr, &g) < 1e-9);
    }

    #[test]
    fn downdate_detects_indefiniteness() {
        let (_, mut r) = spd_and_factor();
        // Removing a vector far larger than the matrix itself cannot
        // leave a positive definite result.
        let mut x = vec![100.0, 0.0, 0.0];
        assert!(matches!(
            rank_one_downdate(&mut r, &mut x),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn update_dimension_checked() {
        let mut r = Matrix::zeros(2, 2);
        assert!(rank_one_update(&mut r, &mut [1.0, 2.0, 3.0].to_vec()).is_err());
        assert!(rank_one_downdate(&mut r, &mut [1.0, 2.0, 3.0].to_vec()).is_err());
    }

    #[test]
    fn sparse_update_skips_zero_leading_entries() {
        let (g, mut r) = spd_and_factor();
        let x = [0.0, 0.0, 1.5];
        rank_one_update(&mut r, &mut x.to_vec()).unwrap();
        let rtr = r.transpose().matmul(&r).unwrap();
        let mut expected = g.clone();
        expected[(2, 2)] += 1.5 * 1.5;
        assert!(max_abs_diff(&rtr, &expected) < 1e-10);
    }
}
