//! Left-looking Householder QR that grows one column at a time.
//!
//! Phase 2 of LIA keeps the highest-variance columns of the routing
//! matrix until the next one would make the kept set rank deficient,
//! then solves the reduced least-squares system on the kept columns.
//! Appending the columns in that order to a QR factor answers both at
//! once: each append says whether the new column lies in the span of
//! the kept ones, and the factor built on the way is the factor of the
//! reduced matrix.
//!
//! A column `a` is appended by applying the stored reflectors
//! `H_0 … H_{k−1}` to a copy of it (left-looking: kept columns are
//! never touched again). Rows `k..m` of the result are the part of `a`
//! orthogonal to the kept span. The column is **dependent** when the
//! norm of that residual is at most [`DEFAULT_RANK_TOL`] × `‖a‖₂`; a
//! dependent column is rejected and leaves the factor unchanged. An
//! independent one gets a new reflector that annihilates its residual
//! below row `k`, and becomes column `k` of `R`. Once `m` columns are
//! kept every further column lies in their span and is rejected
//! without any arithmetic.
//!
//! **Storage.** Reflector `k` is stored column-major as one contiguous
//! slice over rows `k..m` with an explicit unit head, so each append is
//! a sequence of contiguous dot and axpy passes; `R` is stored packed
//! column by column. Both grow with the kept count, never with the
//! number of candidate columns, and [`AppendQr::reset`] keeps their
//! capacity: a reused factor allocates nothing once it has reached its
//! working size.
//!
//! **Determinism.** The kernel is scalar. Every dot product accumulates
//! in ascending row order into one accumulator, so results are the
//! same bits under every `LOSSTOMO_SIMD` engine.

use crate::error::LinalgError;
use crate::rank::DEFAULT_RANK_TOL;
use crate::Result;

/// A Householder QR factor `A = Q R` of the columns appended so far.
#[derive(Debug, Clone, Default)]
pub struct AppendQr {
    /// Row count `m` of every appended column.
    rows: usize,
    /// Reflector `j` over rows `j..m` (unit head included), reflectors
    /// back to back.
    refl: Vec<f64>,
    /// Householder scalar of each reflector.
    tau: Vec<f64>,
    /// `R` packed by columns: column `j` (rows `0..=j`) starts at
    /// offset `j(j+1)/2`.
    r: Vec<f64>,
    /// The column being appended.
    work: Vec<f64>,
}

impl AppendQr {
    /// An empty factor for columns of length `rows`.
    pub fn new(rows: usize) -> Self {
        let mut qr = AppendQr::default();
        qr.reset(rows);
        qr
    }

    /// Empties the factor for columns of length `rows`, keeping the
    /// buffers' capacity.
    pub fn reset(&mut self, rows: usize) {
        self.rows = rows;
        self.refl.clear();
        self.tau.clear();
        self.r.clear();
    }

    /// Number of columns kept so far.
    pub fn cols(&self) -> usize {
        self.tau.len()
    }

    /// Appends `col` if it is independent of the columns kept so far
    /// and returns whether it was kept; a rejected column leaves the
    /// factor unchanged. Panics if `col.len()` differs from the row
    /// count given to [`AppendQr::new`] or [`AppendQr::reset`].
    pub fn push(&mut self, col: &[f64]) -> bool {
        let m = self.rows;
        assert_eq!(
            col.len(),
            m,
            "column has {} rows, factor has {m}",
            col.len()
        );
        let k = self.tau.len();
        if k == m {
            return false;
        }
        self.work.clear();
        self.work.extend_from_slice(col);
        let a = &mut self.work[..];
        let norm0 = sum_squares(a).sqrt();
        apply_reflectors(&self.refl, &self.tau, a);
        let residual = &a[k..];
        let norm = sum_squares(residual).sqrt();
        // Written as "independent" so that a NaN residual, which
        // compares false, counts as dependent.
        let independent = norm > DEFAULT_RANK_TOL * norm0;
        if !independent {
            return false;
        }
        // Reflect the residual onto `beta · e_k`, with the sign of
        // `beta` chosen against `alpha` to avoid cancellation.
        let alpha = residual[0];
        let beta = if alpha >= 0.0 { -norm } else { norm };
        let scale = 1.0 / (alpha - beta);
        self.r.extend_from_slice(&a[..k]);
        self.r.push(beta);
        self.refl.push(1.0);
        self.refl.extend(residual[1..].iter().map(|x| x * scale));
        self.tau.push((beta - alpha) / beta);
        true
    }

    /// Solves `min ‖A x − b‖₂` for the kept columns `A`, returning `x`
    /// in append order.
    ///
    /// Returns [`LinalgError::Empty`] when no column has been kept.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.rows, self.cols());
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {m}x{n}, b has length {}",
                b.len()
            )));
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut x = b.to_vec();
        apply_reflectors(&self.refl, &self.tau, &mut x);
        x.truncate(n);
        // Column-oriented back substitution on the packed `R`. Kept
        // columns have nonzero diagonals by construction.
        let mut off = n * (n + 1) / 2;
        for j in (0..n).rev() {
            off -= j + 1;
            let col = &self.r[off..=off + j];
            x[j] /= col[j];
            let xj = x[j];
            for (xi, rij) in x[..j].iter_mut().zip(&col[..j]) {
                *xi -= rij * xj;
            }
        }
        Ok(x)
    }
}

/// Sum of squares, accumulated in ascending order.
fn sum_squares(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc + x * x)
}

/// Applies `H_{k−1} ⋯ H_0` to `v` in place (`k = tau.len()`), where
/// `refl` holds the reflectors back to back as [`AppendQr`] stores
/// them.
fn apply_reflectors(refl: &[f64], tau: &[f64], v: &mut [f64]) {
    let m = v.len();
    let mut off = 0;
    for (j, &tau) in tau.iter().enumerate() {
        let w = &refl[off..off + m - j];
        off += m - j;
        let x = &mut v[j..];
        let dot = w
            .iter()
            .zip(x.iter())
            .fold(0.0, |acc, (wi, xi)| acc + wi * xi);
        let t = tau * dot;
        for (xi, wi) in x.iter_mut().zip(w) {
            *xi -= t * wi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::pivoted_qr::PivotedQr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn push_all(qr: &mut AppendQr, a: &Matrix) -> Vec<bool> {
        (0..a.cols()).map(|j| qr.push(&a.col(j))).collect()
    }

    /// The factor's state without the append workspace.
    fn state(qr: &AppendQr) -> (usize, Vec<f64>, Vec<f64>, Vec<f64>) {
        (qr.rows, qr.refl.clone(), qr.tau.clone(), qr.r.clone())
    }

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        let data = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(m, n, data).unwrap()
    }

    /// The solve agrees with the pivoted QR to 1e-12 (relative) and,
    /// more loosely, with the normal equations, on random full-rank
    /// tall matrices and on a 0/1 routing-like matrix.
    #[test]
    fn least_squares_matches_pivoted_qr_and_normal_equations() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cases: Vec<Matrix> = [(1, 1), (5, 3), (12, 12), (40, 9), (64, 31)]
            .into_iter()
            .map(|(m, n)| random_matrix(&mut rng, m, n))
            .collect();
        cases.push(
            Matrix::from_rows(&[
                vec![1.0, 1.0, 0.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 1.0],
            ])
            .unwrap(),
        );
        for a in &cases {
            let (m, n) = a.shape();
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut qr = AppendQr::new(m);
            assert!(push_all(&mut qr, a).into_iter().all(|kept| kept));
            let x = qr.solve_least_squares(&b).unwrap();
            let pivoted = PivotedQr::new(a).unwrap().solve_least_squares(&b).unwrap();
            let normal =
                crate::lstsq::solve_spd(&a.gram(), &a.matvec_transposed(&b).unwrap()).unwrap();
            let scale = pivoted.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            for ((p, q), r) in x.iter().zip(&pivoted).zip(&normal) {
                assert!(
                    (p - q).abs() <= 1e-12 * scale,
                    "{m}x{n}: {p} vs pivoted {q}"
                );
                assert!((p - r).abs() <= 1e-8 * scale, "{m}x{n}: {p} vs normal {r}");
            }
        }
    }

    #[test]
    fn column_in_the_span_is_rejected_and_later_pushes_work() {
        let c0 = [1.0, 1.0, 0.0, 0.0];
        let c1 = [1.0, 0.0, 1.0, 0.0];
        let dependent = [3.0, 1.0, 2.0, 0.0]; // c0 + 2·c1
        let c2 = [0.0, 0.0, 1.0, 1.0];
        let mut qr = AppendQr::new(4);
        assert!(qr.push(&c0));
        assert!(qr.push(&c1));
        let before = state(&qr);
        assert!(!qr.push(&dependent));
        assert_eq!(state(&qr), before, "a rejected column changed the factor");
        assert!(qr.push(&c2));
        assert_eq!(qr.cols(), 3);
        // The kept three columns still solve exactly.
        let x_true = [0.5, -1.0, 2.0];
        let b: Vec<f64> = (0..4)
            .map(|i| c0[i] * x_true[0] + c1[i] * x_true[1] + c2[i] * x_true[2])
            .collect();
        let x = qr.solve_least_squares(&b).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn wide_input_stops_at_the_row_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 4, 7);
        let mut qr = AppendQr::new(4);
        let kept = push_all(&mut qr, &a);
        assert_eq!(kept, [true, true, true, true, false, false, false]);
        assert_eq!(qr.cols(), 4);
    }

    #[test]
    fn zero_column_is_rejected() {
        let mut qr = AppendQr::new(3);
        assert!(!qr.push(&[0.0; 3]));
        assert_eq!(qr.cols(), 0);
        assert!(qr.push(&[0.0, 2.0, 0.0]));
        assert!(!qr.push(&[0.0; 3]));
        assert_eq!(qr.cols(), 1);
        assert!(matches!(
            AppendQr::new(3).solve_least_squares(&[1.0; 3]),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn reused_factor_is_bit_identical_to_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let big = random_matrix(&mut rng, 9, 6);
        let small = random_matrix(&mut rng, 5, 3);
        let mut reused = AppendQr::new(9);
        push_all(&mut reused, &big);
        for a in [&small, &big, &small] {
            reused.reset(a.rows());
            push_all(&mut reused, a);
            let mut fresh = AppendQr::new(a.rows());
            push_all(&mut fresh, a);
            assert_eq!(state(&reused), state(&fresh));
            let b: Vec<f64> = (0..a.rows()).map(|i| i as f64 - 1.5).collect();
            let (x, y) = (
                reused.solve_least_squares(&b).unwrap(),
                fresh.solve_least_squares(&b).unwrap(),
            );
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut qr = AppendQr::new(3);
        qr.push(&[1.0, 0.0, 0.0]);
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }
}
