//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Phase 1 of LIA solves its least-squares system through the normal
//! equations `AᵀA v = Aᵀ Σ*` ([`crate::lstsq::solve_spd_with`]), where
//! `AᵀA` is `n_c × n_c` — far smaller than the `n_p(n_p+1)/2 × n_c`
//! matrix `A` itself. Orders above 128 take a right-looking blocked
//! factorisation whose trailing update is the one dense kernel of the
//! inference path with an AVX2 body ([`crate::simd`]).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::simd::{self, Engine};
use crate::triangular::{solve_lower_transposed, solve_lower_triangular};
use crate::Result;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Scratch of the blocked trailing update, kept so
    /// [`Cholesky::factor_into`] allocates nothing at a stable order.
    blocked_scratch: Vec<f64>,
}

/// Matrices at or below this order use the unblocked factorisation
/// (identical numerics to the original implementation); larger ones use
/// the right-looking blocked algorithm.
const BLOCK_DISPATCH_MIN: usize = 128;

/// Panel width of the blocked factorisation.
const NB: usize = 64;

/// Register-blocking factor of the trailing update: trailing rows are
/// packed in blocks of `MR`, and the micro-kernels accumulate
/// `MR × MR` block pairs.
pub(crate) const MR: usize = 4;

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive (relative to the largest diagonal entry).
    ///
    /// Dispatches to a right-looking blocked factorisation above order
    /// 128 — mathematically the same decomposition, but panel
    /// contributions are subtracted per panel, so large factors can
    /// differ from the unblocked factorisation in the last bits (small
    /// systems take the unblocked path and match it exactly).
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut chol = Cholesky::empty();
        chol.factor_into(a)?;
        Ok(chol)
    }

    /// An unfactored instance with empty buffers, for
    /// [`Cholesky::factor_into`] to fill.
    pub(crate) fn empty() -> Self {
        Cholesky {
            l: Matrix::zeros(0, 0),
            blocked_scratch: Vec::new(),
        }
    }

    /// Re-factors `a` into this instance's preallocated factor buffer —
    /// the in-place counterpart of [`Cholesky::new`], producing
    /// bit-identical factors while allocating nothing once the buffer
    /// has reached the right order. [`Cholesky::new`] is a thin wrapper
    /// over this with an empty buffer.
    ///
    /// On error the stored factor is invalid and must not be used for
    /// solves until a subsequent `factor_into` succeeds.
    pub fn factor_into(&mut self, a: &Matrix) -> Result<()> {
        self.factor_into_with(a, simd::active())
    }

    /// [`Cholesky::factor_into`] under an explicit SIMD engine for the
    /// blocked trailing update (the diagonal-block factorisation and
    /// panel solve stay scalar — they carry a negligible share of the
    /// flops). Non-FMA engines produce bit-identical factors.
    pub fn factor_into_with(&mut self, a: &Matrix, engine: Engine) -> Result<()> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {m}x{n}"
            )));
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        self.l.reshape_zeroed(n, n);
        if n <= BLOCK_DISPATCH_MIN {
            factor_unblocked(a, &mut self.l)
        } else {
            factor_blocked(a, &mut self.l, &mut self.blocked_scratch, engine)
        }
    }

    /// The textbook left-looking factorisation, one column at a time:
    /// the reference the blocked variant is tested against.
    #[cfg(test)]
    pub(crate) fn new_unblocked(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {m}x{n}"
            )));
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        factor_unblocked(a, &mut l)?;
        Ok(Cholesky {
            l,
            blocked_scratch: Vec::new(),
        })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via `L y = b`, `Lᵀ x = y`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {n}x{n}, b has length {}",
                b.len()
            )));
        }
        let y = solve_lower_triangular(&self.l, b)?;
        solve_lower_transposed(&self.l, &y)
    }
}

/// The textbook left-looking factorisation body, writing into a
/// pre-zeroed `n × n` factor buffer.
fn factor_unblocked(a: &Matrix, l: &mut Matrix) -> Result<()> {
    let n = a.rows();
    let tol = pivot_tolerance(a);
    for j in 0..n {
        // Diagonal entry.
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= tol {
            return Err(LinalgError::NotPositiveDefinite { index: j });
        }
        let ljj = d.sqrt();
        l[(j, j)] = ljj;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / ljj;
        }
    }
    Ok(())
}

/// Right-looking blocked factorisation: factor a diagonal `NB × NB`
/// block, triangular-solve the panel below it, then subtract the
/// panel's outer product from the trailing lower triangle
/// ([`trailing_update`]). The trailing update carries ~all the flops
/// and runs on packed panel rows instead of the unblocked version's
/// full-length strided history dots.
/// Writes into a pre-zeroed `n × n` factor buffer; `scratch` is the
/// reusable trailing-update workspace.
fn factor_blocked(
    a: &Matrix,
    l: &mut Matrix,
    scratch: &mut Vec<f64>,
    engine: Engine,
) -> Result<()> {
    let n = a.rows();
    let tol = pivot_tolerance(a);
    for i in 0..n {
        for j in 0..=i {
            l[(i, j)] = a[(i, j)];
        }
    }
    let ld = l.as_mut_slice();
    let mut p = 0;
    while p < n {
        let pb = NB.min(n - p);
        // 1. Factor the diagonal block in place (all contributions
        //    from previous panels were already subtracted).
        for j in 0..pb {
            let gj = p + j;
            let mut d = ld[gj * n + gj];
            for k in 0..j {
                let v = ld[gj * n + p + k];
                d -= v * v;
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { index: gj });
            }
            let ljj = d.sqrt();
            ld[gj * n + gj] = ljj;
            for i in (j + 1)..pb {
                let gi = p + i;
                let mut s = ld[gi * n + gj];
                for k in 0..j {
                    s -= ld[gi * n + p + k] * ld[gj * n + p + k];
                }
                ld[gi * n + gj] = s / ljj;
            }
        }
        // 2. Triangular-solve the panel below the diagonal block.
        // Rows are independent, so four are solved per sweep: four
        // accumulator chains per column hide the subtract latency
        // that a one-row-at-a-time solve is bound by. Each element
        // keeps the textbook accumulation order (ascending k), so
        // the grouping does not change the factor.
        let mut i0 = p + pb;
        while i0 + 4 <= n {
            // Panel prefixes of the four rows, kept k-major in a
            // local buffer (filled column by column as solved), so
            // the inner subtraction reads one contiguous 4-vector
            // per step and vectorises like the trailing kernel.
            let mut arow = [[0.0f64; 4]; NB];
            for j in 0..pb {
                let gj = p + j;
                let bj = gj * n + p;
                let mut s = [
                    ld[i0 * n + gj],
                    ld[(i0 + 1) * n + gj],
                    ld[(i0 + 2) * n + gj],
                    ld[(i0 + 3) * n + gj],
                ];
                for (a, ljk) in arow.iter().zip(ld[bj..bj + j].iter()) {
                    for (sr, ar) in s.iter_mut().zip(a.iter()) {
                        *sr -= ar * ljk;
                    }
                }
                let d = ld[gj * n + gj];
                for (r, &sr) in s.iter().enumerate() {
                    let v = sr / d;
                    arow[j][r] = v;
                    ld[(i0 + r) * n + gj] = v;
                }
            }
            i0 += 4;
        }
        for i in i0..n {
            for j in 0..pb {
                let gj = p + j;
                let mut s = ld[i * n + gj];
                for k in 0..j {
                    s -= ld[i * n + p + k] * ld[gj * n + p + k];
                }
                ld[i * n + gj] = s / ld[gj * n + gj];
            }
        }
        // 3. Trailing update `C -= P Pᵀ`.
        trailing_update(ld, n, p, pb, scratch, engine);
        p += pb;
    }
    Ok(())
}

/// Relative pivot tolerance shared by both factorisation paths.
fn pivot_tolerance(a: &Matrix) -> f64 {
    let n = a.rows();
    let max_diag = (0..n).fold(0.0_f64, |acc, i| acc.max(a[(i, i)].abs()));
    1e-13 * max_diag.max(1e-300)
}

/// Blocked right-looking Cholesky step: trailing update
/// `C[i][j] -= Σ_k P[i][k] P[j][k]` for the panel `P` of width `pb`
/// starting at column `p`, applied to all rows/cols `>= p + pb` of the
/// lower triangle of `l` (row-major, `n` columns).
///
/// Each trailing element is updated with one dot product over the panel
/// (ascending `k`, one accumulator), so the result does not depend on
/// tile traversal order — the update is deterministic for a given panel
/// schedule regardless of how tiles are iterated.
///
/// The packing and zero-block occupancy flags are shared between the
/// scalar and SIMD sweeps, so block skipping is identical under every
/// engine; bit-identity of the non-FMA engines follows from the
/// per-cell ascending-`k` accumulation both sweeps perform.
fn trailing_update(
    l: &mut [f64],
    n: usize,
    p: usize,
    pb: usize,
    scratch: &mut Vec<f64>,
    engine: Engine,
) {
    let start = p + pb;
    let nr = n - start;
    if nr == 0 {
        return;
    }
    let nonzero = pack_trailing_panel(l, n, p, pb, start, nr, scratch);
    let pack = &scratch[..];
    if let Engine::Avx2 { fma } = engine {
        if simd::trailing_avx2(l, n, start, nr, pb, pack, &nonzero, fma) {
            return;
        }
    }
    trailing_sweep_scalar(l, n, start, nr, pb, pack, &nonzero);
}

/// Packs the trailing panel once per step, BLIS-style: the trailing
/// rows are grouped in blocks of [`MR`], and each block is stored
/// k-major — `pack[blk * pb*MR + k*MR + r]` is the panel entry of
/// trailing row `start + blk*MR + r`, panel column `p + k`. The
/// micro-kernels then stream two perfectly sequential 4-vectors per
/// multiply step. The tail block is zero-padded; padded lanes only
/// ever feed accumulators whose results are discarded at write-back.
///
/// Returns per-block occupancy flags: a block whose panel rows are all
/// zero contributes exactly zero to every dot product it appears in,
/// so the sweeps skip such pairs outright. Phase-1 normal equations
/// over tree-like topologies are extremely sparse (only links on a
/// common root path co-occur) and their factors inherit much of that
/// sparsity, so this turns most block pairs into no-ops; on dense
/// factors the flags cost one comparison per pack entry.
fn pack_trailing_panel(
    l: &[f64],
    n: usize,
    p: usize,
    pb: usize,
    start: usize,
    nr: usize,
    scratch: &mut Vec<f64>,
) -> Vec<bool> {
    let nblk = nr.div_ceil(MR);
    let blk_len = pb * MR;
    scratch.clear();
    scratch.resize(nblk * blk_len, 0.0);
    let mut nonzero = vec![false; nblk];
    for blk in 0..nblk {
        let rows = MR.min(nr - blk * MR);
        let dst = &mut scratch[blk * blk_len..(blk + 1) * blk_len];
        let mut any = false;
        for r in 0..rows {
            let row = &l[(start + blk * MR + r) * n + p..(start + blk * MR + r) * n + p + pb];
            for (k, &x) in row.iter().enumerate() {
                dst[k * MR + r] = x;
                any |= x != 0.0;
            }
        }
        nonzero[blk] = any;
    }
    nonzero
}

/// The scalar reference trailing sweep over a pre-packed panel
/// (fallback and proptest oracle for [`crate::simd`]'s sweep).
fn trailing_sweep_scalar(
    l: &mut [f64],
    n: usize,
    start: usize,
    nr: usize,
    pb: usize,
    pack: &[f64],
    nonzero: &[bool],
) {
    let nblk = nr.div_ceil(MR);
    let blk_len = pb * MR;
    for bi in 0..nblk {
        if !nonzero[bi] {
            continue;
        }
        let a_blk = &pack[bi * blk_len..(bi + 1) * blk_len];
        for bj in 0..=bi {
            if !nonzero[bj] {
                continue;
            }
            let b_blk = &pack[bj * blk_len..(bj + 1) * blk_len];
            // 4×4 micro-kernel: 16 independent accumulator chains, one
            // per trailing element, each summing ascending k. The plain
            // mul+add body vectorises to within ~80 % of the machine's
            // non-FMA peak; `f64::mul_add` was measured slower here
            // (LLVM scalarises the fused form), so it is deliberately
            // not used.
            let mut acc = [[0.0f64; MR]; MR];
            for (a, b) in a_blk.chunks_exact(MR).zip(b_blk.chunks_exact(MR)) {
                for (ar, acc_row) in a.iter().zip(acc.iter_mut()) {
                    for (bc, av) in b.iter().zip(acc_row.iter_mut()) {
                        *av += ar * bc;
                    }
                }
            }
            let rows = MR.min(nr - bi * MR);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let i = start + bi * MR + r;
                let irow = &mut l[i * n..i * n + n];
                for (c, &av) in acc_row.iter().enumerate().take(MR) {
                    let j = start + bj * MR + c;
                    if j <= i {
                        irow[j] -= av;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SPD test matrix of any order: `A = BᵀB + I` for a deterministic
    /// tall `B`.
    fn spd(n: usize) -> Matrix {
        let data: Vec<f64> = (0..2 * n * n)
            .map(|t| ((t * 2654435761 + 7) % 19) as f64 / 19.0 - 0.5)
            .collect();
        let b = Matrix::from_vec(2 * n, n, data).unwrap();
        let mut a = b.gram();
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn blocked_factor_matches_unblocked() {
        // Orders straddling the dispatch threshold and non-multiples of
        // the panel width.
        for &n in &[129usize, 150, 200, 257] {
            let a = spd(n);
            let blocked = Cholesky::new(&a).unwrap();
            let unblocked = Cholesky::new_unblocked(&a).unwrap();
            let diff = blocked.l().sub(unblocked.l()).unwrap().max_abs();
            assert!(diff < 1e-10, "order {n}: factors differ by {diff}");
            // And the factor actually reproduces A.
            let llt = blocked.l().matmul(&blocked.l().transpose()).unwrap();
            assert!(llt.sub(&a).unwrap().max_abs() < 1e-9);
        }
    }

    #[test]
    fn blocked_detects_indefiniteness() {
        // Make a large SPD matrix indefinite by flipping one diagonal
        // entry deep inside a trailing block.
        let mut a = spd(160);
        a[(150, 150)] = -5.0;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn factor_of_identity_is_identity() {
        let c = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(c.l().sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-15);
    }

    #[test]
    fn factor_reproduces_matrix() {
        // A = Bᵀ B + I is SPD for any B.
        let b = Matrix::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.5, -1.0, 3.0]]).unwrap();
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let c = Cholesky::new(&a).unwrap();
        let llt = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(llt.sub(&a).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let x_true = vec![1.0, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![2.0, 1.0], // eigenvalues 3 and -1
        ])
        .unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_semidefinite() {
        // Rank-1 matrix: xxᵀ with x=[1,1].
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn solve_checks_dimensions() {
        let c = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(c.solve(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn factor_into_reuse_is_bit_identical() {
        // Reusing one instance across several systems (including a
        // shape change and an order straddling the blocked dispatch)
        // must reproduce the freshly-allocated factors exactly.
        let mut reused = Cholesky::new(&Matrix::identity(3)).unwrap();
        for &n in &[8usize, 64, 129, 150] {
            let a = spd(n);
            reused.factor_into(&a).unwrap();
            let fresh = Cholesky::new(&a).unwrap();
            assert_eq!(reused.l().as_slice(), fresh.l().as_slice(), "order {n}");
        }
    }

    #[test]
    fn factor_into_recovers_after_error() {
        let mut chol = Cholesky::new(&Matrix::identity(4)).unwrap();
        let bad = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(chol.factor_into(&bad).is_err());
        let good = spd(4);
        chol.factor_into(&good).unwrap();
        let fresh = Cholesky::new(&good).unwrap();
        assert_eq!(chol.l().as_slice(), fresh.l().as_slice());
    }
}
