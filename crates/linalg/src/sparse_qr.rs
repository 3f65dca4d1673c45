//! Sparse rank-revealing QR for routing-shaped matrices.
//!
//! Phase 2 of LIA spends its time deciding whether column subsets of the
//! routing matrix `R` are linearly independent, and the dense
//! [`crate::pivoted_qr::PivotedQr`] it used for that densifies a matrix
//! that is 1–2 % dense — at 2.5k columns a single factorisation costs
//! seconds, and the bisection runs `O(log n_c)` of them. This module
//! factors the CSR matrix directly.
//!
//! The factorisation is the row-streaming Givens variant of sparse QR
//! (George & Heath): rows arrive one at a time in their natural order
//! and are rotated into an upper-triangular factor `R` whose rows are
//! kept *sparse* — each rotation touches only the union of the two
//! rows' supports, so structurally-zero panels are never visited.
//! Columns are processed in the caller's column order (no norm
//! pivoting); rank deficiency shows up as columns whose triangular row
//! is never installed or whose installed row collapses to rounding
//! noise (see the rank-semantics notes on [`SparseQr`]). For 0/1
//! routing matrices linear dependencies are exact integer relations,
//! so the collapse is unambiguous at the shared
//! [`crate::rank::DEFAULT_RANK_TOL`].
//!
//! Least squares uses the *corrected seminormal equations* (Björck):
//! solve `RᵀR x = Aᵀb`, then apply one iterative-refinement step
//! through the residual. Only `R` and `A` are retained — no `Q`, no
//! rotation log — and the refinement step restores QR-level accuracy
//! for the well-scaled 0/1 systems this crate factors. The dense
//! pivoted QR remains both the dispatch choice below the Phase-2
//! threshold and the oracle the property tests pin this module against
//! (`crates/linalg/tests/properties.rs`).

use crate::error::LinalgError;
use crate::sparse::CsrMatrix;
use crate::Result;

/// A sparse upper-triangular row: ascending `(column, value)` pairs,
/// the first of which is the diagonal entry.
type SparseRow = Vec<(usize, f64)>;

/// Sparse rank-revealing QR factorisation (Givens row-streaming).
///
/// Stores the triangular factor `R` row-sparse plus the input matrix
/// (for the seminormal least-squares solve); `Q` is never formed.
///
/// **Rank semantics.** The installed rows form a row-echelon factor
/// with pairwise-distinct leading columns, so in exact arithmetic the
/// rank is simply the number of installed nonzero rows. In floating
/// point a dependent input row does not vanish — it leaves a row of
/// rounding noise — while a perfectly independent row can install with
/// a *tiny leading entry but a large tail* (the echelon diagonal,
/// unlike a pivoted QR's, is not rank-ordered). Rows are therefore
/// classified by their **largest entry** relative to the factor's
/// overall scale, not by their diagonal: noise rows sit at
/// `O(ε · scale)` across their whole support and are rejected, and
/// tiny-lead independent rows are kept.
#[derive(Debug, Clone)]
pub struct SparseQr {
    a: CsrMatrix,
    /// `r_rows[j]` is the triangular row whose diagonal sits in column
    /// `j`, or `None` when no row ever reached that column (a
    /// structurally dependent or empty column).
    r_rows: Vec<Option<SparseRow>>,
    /// Largest entry magnitude of each installed row, aligned with
    /// `r_rows`.
    row_max: Vec<Option<f64>>,
    /// Largest entry magnitude over the whole factor, for relative
    /// rank tolerances.
    scale: f64,
}

impl SparseQr {
    /// Factors `a` (any shape, nonempty), taking ownership — every
    /// call site factors an owned column-subset temporary, and the
    /// matrix is retained for the seminormal solve anyway.
    pub fn new(a: CsrMatrix) -> Result<Self> {
        let mut qr = SparseQr {
            a: CsrMatrix::empty(0),
            r_rows: Vec::new(),
            row_max: Vec::new(),
            scale: 0.0,
        };
        qr.refactor(a)?;
        Ok(qr)
    }

    /// Re-factors `a` into this instance, recycling the triangular
    /// factor's per-row allocations, and hands the *previously*
    /// factored matrix back so the caller can recycle its buffers too —
    /// the in-place counterpart of [`SparseQr::new`] (which is a thin
    /// wrapper over this). Bit-identical to a fresh factorisation.
    ///
    /// On error the stored factorisation is invalid until a subsequent
    /// `refactor` succeeds.
    pub fn refactor(&mut self, a: CsrMatrix) -> Result<CsrMatrix> {
        let (m, n) = (a.rows(), a.cols());
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        let prev = std::mem::replace(&mut self.a, a);
        // Recycle every installed row's allocation through a pool.
        let mut pool: Vec<SparseRow> = self.r_rows.drain(..).flatten().collect();
        self.r_rows.resize_with(n, || None);
        let a = &self.a;
        let r_rows = &mut self.r_rows;
        let mut work: SparseRow = pool.pop().unwrap_or_default();
        let mut merged: SparseRow = pool.pop().unwrap_or_default();
        let mut rotated: SparseRow = pool.pop().unwrap_or_default();
        for i in 0..m {
            work.clear();
            work.extend(a.row(i));
            // Rotate the working row into the factor, annihilating its
            // leading entry against the resident triangular row until
            // the row is exhausted or claims an empty diagonal.
            while let Some(&(j, wj)) = work.first() {
                // A leading entry that is rounding noise relative to the
                // row's own remaining mass must not claim a column: a
                // numerically-annihilated (dependent) row would get
                // promoted to structural independence by its
                // cancellation residue, stopping the rotation chain
                // before the rest of its mass cancels. Dropping the
                // noise lead lets the chain continue and the dependent
                // mass annihilate properly.
                let wmax = work.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max);
                if wj.abs() <= crate::rank::DEFAULT_RANK_TOL * wmax {
                    work.remove(0);
                    continue;
                }
                match &mut r_rows[j] {
                    slot @ None => {
                        let mut row = pool.pop().unwrap_or_default();
                        row.clear();
                        row.extend_from_slice(&work);
                        *slot = Some(row);
                        break;
                    }
                    Some(rj) => rotate_rows(rj, &mut work, &mut merged, &mut rotated),
                }
            }
        }
        self.row_max.clear();
        self.row_max.extend(self.r_rows.iter().map(|r| {
            r.as_ref()
                .map(|row| row.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max))
        }));
        self.scale = self
            .row_max
            .iter()
            .flatten()
            .copied()
            .fold(0.0_f64, f64::max);
        Ok(prev)
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.a.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.a.cols()
    }

    /// Stored nonzeros of the triangular factor (a fill measure).
    pub fn factor_nnz(&self) -> usize {
        self.r_rows.iter().flatten().map(|r| r.len()).sum()
    }

    /// Numerical rank: installed rows whose largest entry exceeds
    /// `rel_tol · scale` (see the type docs for why rows, not
    /// diagonals, are classified).
    pub fn rank_with_tol(&self, rel_tol: f64) -> usize {
        if self.scale == 0.0 {
            return 0;
        }
        let threshold = rel_tol * self.scale;
        self.row_max
            .iter()
            .flatten()
            .filter(|&&m| m > threshold)
            .count()
    }

    /// Numerical rank with the crate's default tolerance
    /// ([`crate::rank::DEFAULT_RANK_TOL`]).
    pub fn rank(&self) -> usize {
        self.rank_with_tol(crate::rank::DEFAULT_RANK_TOL)
    }

    /// Whether every column carries a sound installed row — equivalent
    /// to `rank() == cols()` but without the count.
    pub fn has_full_column_rank(&self) -> bool {
        if self.scale == 0.0 {
            return false;
        }
        let threshold = crate::rank::DEFAULT_RANK_TOL * self.scale;
        self.row_max
            .iter()
            .all(|m| matches!(m, Some(v) if *v > threshold))
    }

    /// Solves `min ‖A x − b‖₂` when `A` has full column rank; returns
    /// [`LinalgError::Singular`] with the first deficient column
    /// otherwise.
    ///
    /// Corrected seminormal equations: `x₀` from
    /// `Rᵀ(R x₀) = Aᵀb`, then one refinement step
    /// `Rᵀ(R dx) = Aᵀ(b − A x₀)`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.a.rows(), self.a.cols());
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "A is {m}x{n}, b has length {}",
                b.len()
            )));
        }
        if let Some(index) = self.first_deficient_column() {
            return Err(LinalgError::Singular { index });
        }
        let atb = self.a.matvec_transposed(b)?;
        let mut x = self.solve_seminormal(&atb);
        // One refinement pass through the residual recovers the last
        // digits the squared system loses.
        let ax = self.a.matvec(&x)?;
        let residual: Vec<f64> = b.iter().zip(ax.iter()).map(|(p, q)| p - q).collect();
        let atr = self.a.matvec_transposed(&residual)?;
        let dx = self.solve_seminormal(&atr);
        for (xi, di) in x.iter_mut().zip(dx.iter()) {
            *xi += di;
        }
        Ok(x)
    }

    /// The first column with a missing or noise-level installed row.
    fn first_deficient_column(&self) -> Option<usize> {
        if self.scale == 0.0 {
            return Some(0);
        }
        let threshold = crate::rank::DEFAULT_RANK_TOL * self.scale;
        self.row_max
            .iter()
            .position(|m| !matches!(m, Some(v) if *v > threshold))
    }

    /// Solves `RᵀR x = c` by two sparse triangular solves.
    fn solve_seminormal(&self, c: &[f64]) -> Vec<f64> {
        let n = self.a.cols();
        // Forward solve Rᵀ z = c, right-looking over the rows of R.
        let mut z = c.to_vec();
        for j in 0..n {
            let row = self.r_rows[j].as_ref().expect("full rank checked");
            let zj = z[j] / row[0].1;
            z[j] = zj;
            for &(k, v) in &row[1..] {
                z[k] -= v * zj;
            }
        }
        // Back solve R x = z.
        let mut x = z;
        for j in (0..n).rev() {
            let row = self.r_rows[j].as_ref().expect("full rank checked");
            let mut sum = x[j];
            for &(k, v) in &row[1..] {
                sum -= v * x[k];
            }
            x[j] = sum / row[0].1;
        }
        x
    }
}

/// Applies the Givens rotation that annihilates `work`'s leading entry
/// against the resident row `rj` (both sorted sparse rows sharing the
/// same leading column). `rj` becomes the rotated resident row, `work`
/// the rotated remainder with its leading entry removed; `merged` and
/// `rotated` are reusable scratch (this is the factorisation's
/// innermost loop — no per-rotation allocations).
fn rotate_rows(
    rj: &mut SparseRow,
    work: &mut SparseRow,
    merged: &mut SparseRow,
    rotated: &mut SparseRow,
) {
    let (j, wj) = work[0];
    debug_assert_eq!(rj[0].0, j);
    let rjj = rj[0].1;
    let h = rjj.hypot(wj);
    let (c, s) = (rjj / h, wj / h);
    merged.clear();
    rotated.clear();
    let (mut x, mut y) = (0usize, 0usize);
    while x < rj.len() || y < work.len() {
        let (col, rv, wv) = match (rj.get(x), work.get(y)) {
            (Some(&(cr, rv)), Some(&(cw, wv))) if cr == cw => {
                x += 1;
                y += 1;
                (cr, rv, wv)
            }
            (Some(&(cr, rv)), Some(&(cw, _))) if cr < cw => {
                x += 1;
                (cr, rv, 0.0)
            }
            (Some(_), Some(&(cw, wv))) => {
                y += 1;
                (cw, 0.0, wv)
            }
            (Some(&(cr, rv)), None) => {
                x += 1;
                (cr, rv, 0.0)
            }
            (None, Some(&(cw, wv))) => {
                y += 1;
                (cw, 0.0, wv)
            }
            (None, None) => unreachable!("loop condition"),
        };
        let new_r = c * rv + s * wv;
        if new_r != 0.0 {
            merged.push((col, new_r));
        }
        if col != j {
            let new_w = c * wv - s * rv;
            if new_w != 0.0 {
                rotated.push((col, new_w));
            }
        }
    }
    std::mem::swap(rj, merged);
    std::mem::swap(work, rotated);
}

/// Streams the rows of `a` in the caller's `order` through the Givens
/// factorisation and returns the indices (ascending) of the rows that
/// *own a sound triangular diagonal* at the end — a greedy row basis
/// of `a` certified by the factorisation itself.
///
/// A row is reported iff, after rotating against every resident
/// triangular row it meets, it still claims an empty diagonal slot: in
/// exact arithmetic that happens exactly when the row is linearly
/// independent of the rows visited before it, so the reported set is a
/// row basis (size = rank) of the prefix ordering. The same noise-lead
/// drop rule as [`SparseQr`] keeps numerically-annihilated rows from
/// claiming a column with cancellation residue. Streaming stops early
/// once every column's diagonal is installed (rank can't grow past
/// `cols`), which is what makes the certificate cheap on tall
/// pair-augmented systems.
pub fn row_basis(a: &CsrMatrix, order: &[usize]) -> Vec<usize> {
    let tol = crate::rank::DEFAULT_RANK_TOL;
    let n = a.cols();
    let mut r_rows: Vec<Option<SparseRow>> = Vec::new();
    r_rows.resize_with(n, || None);
    let mut installed = 0usize;
    // Install events in visit order: (input row index, installed row's
    // largest entry, alive). A dependent row can claim a column with
    // cancellation residue (`SparseQr` tolerates this — later merges
    // make the resident sound — but the *attribution* would be wrong
    // here), so a sound incoming row evicts a residue resident, taking
    // over its column and its credit; the displaced residue is
    // numerically zero and is discarded. Soundness of what remains is
    // judged at the end against the factor's overall scale.
    let mut events: Vec<(usize, f64, bool)> = Vec::new();
    let mut owner: Vec<usize> = vec![usize::MAX; n];
    let mut scale = 0.0_f64;
    let mut min_alive = f64::INFINITY;
    let mut work: SparseRow = Vec::new();
    let mut merged: SparseRow = Vec::new();
    let mut rotated: SparseRow = Vec::new();
    // `min_alive` tracks *install-time* magnitudes, but rotations only
    // grow a resident's diagonal — so when the install-time minimum
    // looks unsound, re-judge against the residents' current
    // magnitudes before streaming on (cadence-limited: the recompute
    // walks the whole factor). A factor with a *genuinely* tiny
    // resident would otherwise stream every remaining row hunting for
    // an eviction that never comes, so the hunt gets a bounded
    // patience window; a basis mis-certified inside that window is the
    // caller's concern (the pair-budget selector re-certifies with an
    // exact Gram factorisation).
    let mut until_refresh = 0usize;
    let mut patience = 4 * n.max(64);
    for &i in order {
        // Stop once every column is soundly owned: rank can't grow
        // past `cols`, and no remaining row can evict a sound owner.
        if installed == n {
            if min_alive > tol * scale {
                break;
            }
            if until_refresh == 0 {
                min_alive = r_rows
                    .iter()
                    .flatten()
                    .map(|rj| rj.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max))
                    .fold(f64::INFINITY, f64::min);
                until_refresh = 256;
                if min_alive > tol * scale {
                    break;
                }
            }
            until_refresh -= 1;
            if patience == 0 {
                break;
            }
            patience -= 1;
        }
        work.clear();
        work.extend(a.row(i));
        while let Some(&(j, wj)) = work.first() {
            // Same noise-lead rule as `SparseQr::refactor`: a leading
            // entry that is rounding noise relative to the row's
            // remaining mass must not claim a column.
            let wmax = work.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max);
            if wj.abs() <= tol * wmax {
                work.remove(0);
                continue;
            }
            match &mut r_rows[j] {
                slot @ None => {
                    *slot = Some(work.clone());
                    installed += 1;
                    owner[j] = events.len();
                    events.push((i, wmax, true));
                    scale = scale.max(wmax);
                    min_alive = min_alive.min(wmax);
                    break;
                }
                Some(rj) => {
                    let rj_max = rj.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max);
                    if rj_max <= tol * wmax {
                        // Residue eviction: the resident is rounding
                        // noise next to the incoming row.
                        rj.clear();
                        rj.extend_from_slice(&work);
                        events[owner[j]].2 = false;
                        owner[j] = events.len();
                        events.push((i, wmax, true));
                        scale = scale.max(wmax);
                        min_alive = events
                            .iter()
                            .filter(|e| e.2)
                            .map(|e| e.1)
                            .fold(f64::INFINITY, f64::min);
                        break;
                    }
                    rotate_rows(rj, &mut work, &mut merged, &mut rotated)
                }
            }
        }
    }
    // Classification mirrors `SparseQr`'s rank rule: a column counts
    // iff its *final* resident row — which later rotations keep
    // updating, and can grow well past the install-time magnitude — is
    // sound against the factor's overall scale. The credit goes to the
    // column's owner (the row that installed it, or evicted a residue
    // to take it over).
    let row_max = |rj: &SparseRow| rj.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max);
    let scale = r_rows.iter().flatten().map(&row_max).fold(scale, f64::max);
    let threshold = tol * scale;
    let mut basis: Vec<usize> = r_rows
        .iter()
        .enumerate()
        .filter_map(|(j, slot)| {
            let rj = slot.as_ref()?;
            (row_max(rj) > threshold).then(|| events[owner[j]].0)
        })
        .collect();
    basis.sort_unstable();
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::pivoted_qr::PivotedQr;
    use crate::sparse::CsrBuilder;

    fn binary(rows: &[&[usize]], cols: usize) -> CsrMatrix {
        let mut b = CsrBuilder::new(cols);
        for r in rows {
            b.push_binary_row(r).unwrap();
        }
        b.build()
    }

    #[test]
    fn full_rank_routing_matrix() {
        // The Figure-1 augmented matrix: rank 5.
        let a = binary(
            &[&[0, 1], &[0, 2, 3], &[0, 2, 4], &[0], &[0, 2], &[0, 2]],
            5,
        );
        let dense_rank = PivotedQr::new(&a.to_dense()).unwrap().rank();
        let qr = SparseQr::new(a).unwrap();
        assert_eq!(qr.rank(), dense_rank);
    }

    #[test]
    fn detects_exact_dependencies() {
        // Column 2 = column 0 + column 1 on every row.
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(0, 1.0), (2, 1.0)]).unwrap();
        b.push_row(&[(1, 1.0), (2, 1.0)]).unwrap();
        b.push_row(&[(0, 1.0), (1, 1.0), (2, 2.0)]).unwrap();
        let a = b.build();
        let qr = SparseQr::new(a).unwrap();
        assert_eq!(qr.rank(), 2);
        assert!(!qr.has_full_column_rank());
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn least_squares_matches_dense_pivoted_qr() {
        let a = binary(
            &[&[0, 1], &[1, 2], &[0, 2, 3], &[3], &[0, 1, 2, 3], &[2]],
            4,
        );
        let b = vec![1.0, -2.0, 0.5, 3.0, 1.5, -0.25];
        let dense_qr = PivotedQr::new(&a.to_dense()).unwrap();
        let sparse = SparseQr::new(a).unwrap().solve_least_squares(&b).unwrap();
        let dense = dense_qr.solve_least_squares(&b).unwrap();
        for (p, q) in sparse.iter().zip(dense.iter()) {
            assert!((p - q).abs() < 1e-12, "{sparse:?} vs {dense:?}");
        }
    }

    #[test]
    fn factor_satisfies_rtr_equals_ata() {
        let a = binary(&[&[0, 2], &[1, 2], &[0, 1], &[2, 3], &[1, 3]], 4);
        let ata = a.to_dense().gram();
        let qr = SparseQr::new(a).unwrap();
        let mut r = Matrix::zeros(4, 4);
        for (j, row) in qr.r_rows.iter().enumerate() {
            for &(k, v) in row.as_ref().unwrap() {
                r[(j, k)] = v;
            }
        }
        let rtr = r.transpose().matmul(&r).unwrap();
        assert!(rtr.sub(&ata).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert!(matches!(
            SparseQr::new(CsrMatrix::empty(3)),
            Err(LinalgError::Empty)
        ));
        let zero = binary(&[&[], &[]], 2);
        let qr = SparseQr::new(zero).unwrap();
        assert_eq!(qr.rank(), 0);
        assert!(!qr.has_full_column_rank());
    }

    #[test]
    fn wide_matrix_rank_is_row_bound() {
        let a = binary(&[&[0, 1, 3], &[1, 2, 4]], 5);
        let qr = SparseQr::new(a).unwrap();
        assert_eq!(qr.rank(), 2);
    }

    #[test]
    fn row_basis_matches_rank_and_spans() {
        // Figure-1 augmented matrix: 6 rows, rank 5 — exactly one row
        // is redundant under any visiting order.
        let a = binary(
            &[&[0, 1], &[0, 2, 3], &[0, 2, 4], &[0], &[0, 2], &[0, 2]],
            5,
        );
        let order: Vec<usize> = (0..a.rows()).collect();
        let basis = row_basis(&a, &order);
        assert_eq!(basis.len(), 5);
        // Rows 4 and 5 are duplicates; exactly one of them is in the
        // basis under natural order (the first).
        assert!(basis.contains(&4) && !basis.contains(&5));
        // The basis rows alone have full column rank.
        let mut b = CsrBuilder::new(5);
        for &i in &basis {
            let links: Vec<usize> = a.row(i).map(|(k, _)| k).collect();
            b.push_binary_row(&links).unwrap();
        }
        assert!(SparseQr::new(b.build()).unwrap().has_full_column_rank());
        // A reversed order picks a different — but equally sized — basis.
        let rev: Vec<usize> = order.iter().rev().copied().collect();
        assert_eq!(row_basis(&a, &rev).len(), 5);
    }

    #[test]
    fn row_basis_on_deficient_matrix_reports_rank() {
        // Column 2 never separates from 0+1: rank 2 of 3 columns.
        let mut b = CsrBuilder::new(3);
        b.push_row(&[(0, 1.0), (2, 1.0)]).unwrap();
        b.push_row(&[(1, 1.0), (2, 1.0)]).unwrap();
        b.push_row(&[(0, 1.0), (1, 1.0), (2, 2.0)]).unwrap();
        let a = b.build();
        assert_eq!(row_basis(&a, &[0, 1, 2]).len(), 2);
    }

    #[test]
    fn refactor_recycles_and_matches_fresh() {
        let a1 = binary(&[&[0, 1], &[1, 2], &[0, 2, 3], &[3]], 4);
        let a2 = binary(&[&[0, 2], &[1, 2], &[0, 1], &[2, 3], &[1, 3]], 4);
        let mut reused = SparseQr::new(a1.clone()).unwrap();
        // Refactoring hands the previous matrix back for recycling…
        let prev = reused.refactor(a2.clone()).unwrap();
        assert_eq!(prev, a1);
        // …and the recycled factorisation matches a fresh one exactly.
        let fresh = SparseQr::new(a2).unwrap();
        assert_eq!(reused.rank(), fresh.rank());
        assert_eq!(reused.factor_nnz(), fresh.factor_nnz());
        let b = vec![1.0, -2.0, 0.5, 3.0, 1.5];
        assert_eq!(
            reused.solve_least_squares(&b).unwrap(),
            fresh.solve_least_squares(&b).unwrap()
        );
    }
}
