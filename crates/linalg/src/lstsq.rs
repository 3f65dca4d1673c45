//! Least-squares solves.
//!
//! * [`solve_spd_with`] — the solve the pipeline runs: Phase 1 forms the
//!   normal equations `AᵀA v = Aᵀ Σ*` from integer co-occurrence counts
//!   without materialising `A`, and this factors them with Cholesky.
//!   Forming `AᵀA` squares the condition number, which is acceptable
//!   here because routing matrices are well-scaled 0/1 matrices.
//! * [`solve_least_squares`] — the paper's method: factor the full
//!   system matrix with Householder reflections and back-substitute.
//!   Numerically the most robust choice, at cost `O(m n²)` where `m` is
//!   the number of rows (`n_p(n_p+1)/2` in Phase 1). It is the oracle
//!   the Phase-1, `AppendQr` and property tests compare against.

use crate::cholesky::Cholesky;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::Result;

/// Solves `min ‖A x − b‖₂` by Householder QR.
///
/// `A` must be tall (or square) with full column rank.
pub fn solve_least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "A is {}x{}, b has length {}",
            a.rows(),
            a.cols(),
            b.len()
        )));
    }
    Qr::new(a)?.solve_least_squares(b)
}

/// Order above which [`solve_spd`] considers a fill-reducing
/// permutation; below it the system is solved directly (keeping the
/// historical numerics for small systems exactly).
const SPD_PERMUTE_MIN_DIM: usize = 128;

/// Density threshold (lower-triangle nonzeros as a fraction of the full
/// lower triangle, in eighths) below which permutation pays off.
const SPD_PERMUTE_MAX_DENSITY_EIGHTHS: usize = 2;

/// Reusable workspace for repeated [`solve_spd_with`] calls over
/// same-shaped systems: the permutation order, the permuted Gram
/// buffer, the Cholesky factor, and the gather/scatter vectors all
/// survive between solves, so a steady-state caller allocates nothing.
///
/// The workspace additionally *caches the factorisation*: a caller that
/// can certify the Gram matrix is bit-identical to the previous
/// successful solve (see `gram_unchanged` on [`solve_spd_with`]) skips
/// the permutation analysis and the Cholesky refactorisation entirely —
/// two triangular solves instead of an `O(n³)` factor.
#[derive(Debug, Default)]
pub struct SpdScratch {
    nnz: Vec<usize>,
    order: Vec<usize>,
    /// Permuted Gram buffer (permuted branch only).
    pg: Matrix,
    pc: Vec<f64>,
    chol: Option<Cholesky>,
    /// Whether the cached factor came from the permuted branch.
    permuted: bool,
    /// Order of the cached factor.
    n: usize,
    valid: bool,
}

impl SpdScratch {
    /// Creates an empty workspace (filled by the first solve).
    pub fn new() -> Self {
        SpdScratch::default()
    }

    /// Whether a factorisation from a previous successful solve is
    /// cached (and could be reused by a `gram_unchanged` call for a
    /// system of order `n`).
    pub fn factor_is_cached(&self, n: usize) -> bool {
        self.valid && self.n == n
    }

    /// Drops the cached factorisation (buffers are kept). Call when the
    /// Gram matrix changed in a way the caller cannot certify.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// Solves the symmetric positive-definite system `G x = c` (e.g. normal
/// equations that were accumulated externally).
///
/// Large sparse systems — Phase-1 normal equations over tree-like
/// topologies have ~1 % density because only links sharing a root path
/// co-occur — are first symmetrically permuted by ascending row
/// occupancy. For an ancestor-closure (chordal) sparsity pattern this
/// approximates a perfect elimination ordering (deepest links first),
/// so the Cholesky factor stays sparse instead of filling in, and the
/// blocked kernel's zero-block skipping eliminates most of the work.
/// The permutation is a similarity transform: the returned solution is
/// the exact permuted-back solve of the same system (identical in exact
/// arithmetic, last-bits different in floating point). Dense or small
/// systems take the direct path unchanged.
///
/// This is a thin wrapper over [`solve_spd_with`] with a fresh
/// (throwaway) workspace.
pub fn solve_spd(gram: &Matrix, c: &[f64]) -> Result<Vec<f64>> {
    solve_spd_with(gram, c, &mut SpdScratch::default(), false)
}

/// [`solve_spd`] with a reusable [`SpdScratch`] workspace.
///
/// Bit-identical to [`solve_spd`] for any `gram_unchanged` value: when
/// `gram_unchanged` is `true` — the caller certifies `gram` holds
/// exactly the bits of the previous successful solve through this
/// workspace — the cached factor is reused, which reproduces the same
/// triangular solves a refactorisation would (the factor of identical
/// bits is identical bits). Pass `false` whenever unsure; the only cost
/// is the refactorisation.
pub fn solve_spd_with(
    gram: &Matrix,
    c: &[f64],
    ws: &mut SpdScratch,
    gram_unchanged: bool,
) -> Result<Vec<f64>> {
    let n = gram.rows();
    if gram_unchanged && ws.factor_is_cached(n) {
        if c.len() != n {
            // Mirror the uncached paths, which surface a dimension
            // error instead of indexing out of bounds in the gather.
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {n}x{n}, b has length {}",
                c.len()
            )));
        }
        let chol = ws.chol.as_ref().expect("cached factor present when valid");
        if ws.permuted {
            return solve_permuted(chol, &ws.order, c, &mut ws.pc);
        }
        return chol.solve(c);
    }
    ws.valid = false;
    if n > SPD_PERMUTE_MIN_DIM && gram.cols() == n && c.len() == n {
        // Count each row's nonzeros (= symmetric column occupancy).
        ws.nnz.clear();
        ws.nnz
            .extend((0..n).map(|i| gram.row(i).iter().filter(|&&x| x != 0.0).count()));
        let total: usize = ws.nnz.iter().sum();
        if total * 8 <= n * n * SPD_PERMUTE_MAX_DENSITY_EIGHTHS {
            ws.order.clear();
            ws.order.extend(0..n);
            // Stable sort: deterministic tie-breaking by original index.
            let nnz = &ws.nnz;
            ws.order.sort_by_key(|&i| nnz[i]);
            ws.pg.reshape_uninit(n, n);
            for (i2, &oi) in ws.order.iter().enumerate() {
                let src = gram.row(oi);
                let dst = ws.pg.row_mut(i2);
                for (d, &oj) in dst.iter_mut().zip(ws.order.iter()) {
                    *d = src[oj];
                }
            }
            let chol = factor_cached(&mut ws.chol, &ws.pg);
            let chol = match chol {
                Ok(chol) => chol,
                Err(LinalgError::NotPositiveDefinite { index }) => {
                    return Err(LinalgError::NotPositiveDefinite {
                        index: ws.order[index],
                    });
                }
                Err(e) => return Err(e),
            };
            let x = solve_permuted(chol, &ws.order, c, &mut ws.pc)?;
            ws.permuted = true;
            ws.n = n;
            ws.valid = true;
            return Ok(x);
        }
    }
    let chol = factor_cached(&mut ws.chol, gram)?;
    let x = chol.solve(c)?;
    ws.permuted = false;
    ws.n = n;
    ws.valid = true;
    Ok(x)
}

/// (Re)factors into the workspace's Cholesky slot, reusing its buffer.
/// The slot keeps its buffer when the factorisation fails, so a caller
/// whose solves keep failing allocates the factor once.
fn factor_cached<'a>(slot: &'a mut Option<Cholesky>, a: &Matrix) -> Result<&'a Cholesky> {
    let chol = slot.get_or_insert_with(Cholesky::empty);
    chol.factor_into(a)?;
    Ok(chol)
}

/// Gathers `c` through `order`, solves against the permuted factor, and
/// scatters the solution back to the caller's coordinates (mapping any
/// pivot index in solver errors back as well).
fn solve_permuted(
    chol: &Cholesky,
    order: &[usize],
    c: &[f64],
    pc: &mut Vec<f64>,
) -> Result<Vec<f64>> {
    pc.clear();
    pc.extend(order.iter().map(|&o| c[o]));
    let y = match chol.solve(pc) {
        Ok(y) => y,
        Err(LinalgError::Singular { index }) => {
            return Err(LinalgError::Singular {
                index: order[index],
            });
        }
        Err(e) => return Err(e),
    };
    let mut x = vec![0.0; order.len()];
    for (&o, &yi) in order.iter().zip(y.iter()) {
        x[o] = yi;
    }
    Ok(x)
}

/// Computes the residual 2-norm `‖A x − b‖₂` of a candidate solution —
/// handy for tests and for the cross-validation harness.
pub fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> Result<f64> {
    let ax = a.matvec(x)?;
    if ax.len() != b.len() {
        return Err(LinalgError::DimensionMismatch(format!(
            "Ax has length {}, b has length {}",
            ax.len(),
            b.len()
        )));
    }
    Ok(ax
        .iter()
        .zip(b.iter())
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall_example() -> (Matrix, Vec<f64>) {
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
        ])
        .unwrap();
        let b = vec![6.0, 5.0, 7.0, 10.0];
        (a, b)
    }

    /// The normal equations `AᵀA x = Aᵀ b` through [`solve_spd`].
    fn normal_equations(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        solve_spd(&a.gram(), &a.matvec_transposed(b)?)
    }

    #[test]
    fn backends_agree_on_well_conditioned_problem() {
        let (a, b) = tall_example();
        let x_qr = solve_least_squares(&a, &b).unwrap();
        let x_ne = normal_equations(&a, &b).unwrap();
        for (p, q) in x_qr.iter().zip(x_ne.iter()) {
            assert!((p - q).abs() < 1e-9, "{x_qr:?} vs {x_ne:?}");
        }
        // Known closed-form: intercept 3.5, slope 1.4.
        assert!((x_qr[0] - 3.5).abs() < 1e-10);
        assert!((x_qr[1] - 1.4).abs() < 1e-10);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (a, _) = tall_example();
        assert!(solve_least_squares(&a, &[1.0]).is_err());
        assert!(normal_equations(&a, &[1.0]).is_err());
    }

    #[test]
    fn rank_deficient_rejected_by_both_backends() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        assert!(solve_least_squares(&a, &b).is_err());
        assert!(normal_equations(&a, &b).is_err());
    }

    #[test]
    fn residual_norm_zero_for_consistent_system() {
        let (a, _) = tall_example();
        let x = vec![1.0, 2.0];
        let b = a.matvec(&x).unwrap();
        assert!(residual_norm(&a, &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn residual_norm_checks_dimensions() {
        let (a, _) = tall_example();
        assert!(residual_norm(&a, &[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn solve_spd_direct() {
        let g = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 5.0]]).unwrap();
        let x = solve_spd(&g, &[4.0, 10.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    /// Sparse SPD matrix large enough to take the permuted branch.
    fn sparse_spd(n: usize) -> Matrix {
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            g[(i, i)] = 4.0 + (i % 7) as f64;
            if i + 1 < n {
                g[(i, i + 1)] = -1.0;
                g[(i + 1, i)] = -1.0;
            }
        }
        g
    }

    #[test]
    fn solve_spd_with_scratch_is_bit_identical() {
        let n = 200;
        let g = sparse_spd(n);
        let c: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let baseline = solve_spd(&g, &c).unwrap();
        let mut ws = SpdScratch::new();
        // Fresh scratch, reused scratch, and the cached-factor skip must
        // all reproduce the same bits.
        let first = solve_spd_with(&g, &c, &mut ws, false).unwrap();
        assert_eq!(first, baseline);
        assert!(ws.factor_is_cached(n));
        let second = solve_spd_with(&g, &c, &mut ws, true).unwrap();
        assert_eq!(second, baseline);
        // A different right-hand side through the cached factor matches
        // a from-scratch solve of the same system.
        let c2: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let cached = solve_spd_with(&g, &c2, &mut ws, true).unwrap();
        assert_eq!(cached, solve_spd(&g, &c2).unwrap());
        // Invalidated scratch refactors and still matches.
        ws.invalidate();
        assert!(!ws.factor_is_cached(n));
        assert_eq!(solve_spd_with(&g, &c, &mut ws, true).unwrap(), baseline);
    }

    #[test]
    fn solve_spd_with_scratch_survives_shape_changes() {
        let mut ws = SpdScratch::new();
        let g1 = sparse_spd(150);
        let c1 = vec![1.0; 150];
        let x1 = solve_spd_with(&g1, &c1, &mut ws, false).unwrap();
        assert_eq!(x1, solve_spd(&g1, &c1).unwrap());
        // Smaller, dense system through the same scratch (direct branch).
        let g2 = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 5.0]]).unwrap();
        let x2 = solve_spd_with(&g2, &[4.0, 10.0], &mut ws, false).unwrap();
        assert_eq!(x2, solve_spd(&g2, &[4.0, 10.0]).unwrap());
        // A stale `gram_unchanged` hint at a different order must not
        // reuse the old factor.
        let g3 = sparse_spd(150);
        assert_eq!(
            solve_spd_with(&g3, &c1, &mut ws, true).unwrap(),
            solve_spd(&g3, &c1).unwrap()
        );
    }
}
