//! Shared Householder reflector kernels for [`crate::qr`] and
//! [`crate::pivoted_qr`].
//!
//! The textbook trailing update applies the reflector column by column:
//! for each trailing column `j`, walk rows `k+1..m` twice (dot product,
//! then axpy). On a row-major matrix that strides down columns — one
//! cache line fetched per element — which made the factorisation the
//! dominant cost of Phase 2 at paper scale. The panel update here
//! computes all trailing dot products in one *row-streaming* sweep
//! (`dots[j] += v_i · row_i[j]`, rows visited once, contiguous slices),
//! then applies the rank-1 correction in a second row-streaming sweep.
//!
//! **Bit-exactness.** For every trailing column the dot product still
//! accumulates over rows in ascending order into a single accumulator,
//! and the applied correction performs the identical `tau·dot` and
//! `t·v_i` products, so the packed factor is bit-identical to the one
//! the column-walking update produced. Golden pipeline fixtures are
//! therefore unaffected by this rewrite.

use crate::matrix::Matrix;

/// Scratch buffers reused across reflector applications so the
/// factorisation performs no per-column allocations.
#[derive(Debug, Default, Clone)]
pub(crate) struct ReflectorScratch {
    /// The essential part of the Householder vector (rows `k+1..m`).
    v: Vec<f64>,
    /// One dot product per trailing column (`k+1..n`).
    dots: Vec<f64>,
}

/// Builds the Householder reflector that annihilates column `k` of
/// `packed` below the diagonal, stores it in place, applies it to the
/// trailing columns with a row-streaming panel update, and returns
/// `tau`.
///
/// The reflector is `H = I − tau · w wᵀ` with `w = [1, v]` where `v` is
/// stored in rows `k+1..m` of column `k`.
pub(crate) fn reflect_column(packed: &mut Matrix, k: usize, scratch: &mut ReflectorScratch) -> f64 {
    let (m, n) = packed.shape();
    // Norm of the column below (and including) the diagonal.
    let mut norm_sq = 0.0;
    for i in k..m {
        let x = packed[(i, k)];
        norm_sq += x * x;
    }
    let norm = norm_sq.sqrt();
    if norm == 0.0 {
        // Zero column: nothing to reflect, tau = 0 encodes the identity.
        return 0.0;
    }
    let alpha = packed[(k, k)];
    // Choose the sign that avoids cancellation.
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for i in (k + 1)..m {
        packed[(i, k)] *= scale;
    }
    packed[(k, k)] = beta;

    // Copy v out so the panel update can stream whole rows of `packed`
    // mutably while reading the reflector.
    scratch.v.clear();
    scratch.v.extend((k + 1..m).map(|i| packed[(i, k)]));
    let v = &scratch.v[..];

    // Pass 1 (read): dots[j] = packed[k][j] + Σ_i v_i · packed[i][j],
    // accumulated over rows in ascending order.
    scratch.dots.clear();
    scratch.dots.extend_from_slice(&packed.row(k)[k + 1..n]);
    let dots = &mut scratch.dots[..];
    for (vi, i) in v.iter().zip(k + 1..m) {
        let row = &packed.row(i)[k + 1..n];
        for (d, &x) in dots.iter_mut().zip(row) {
            *d += vi * x;
        }
    }
    // Pass 2 (write): subtract t_j = tau·dot_j from row k and t_j·v_i
    // from each trailing row.
    for d in dots.iter_mut() {
        *d *= tau;
    }
    for (x, t) in packed.row_mut(k)[k + 1..n].iter_mut().zip(dots.iter()) {
        *x -= t;
    }
    for (vi, i) in v.iter().zip(k + 1..m) {
        let row = &mut packed.row_mut(i)[k + 1..n];
        for (x, t) in row.iter_mut().zip(dots.iter()) {
            *x -= t * vi;
        }
    }
    tau
}

/// Applies the `k`-th stored reflector to a vector in place.
pub(crate) fn apply_reflector(packed: &Matrix, k: usize, tau: f64, y: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let m = packed.rows();
    let mut dot = y[k];
    for i in (k + 1)..m {
        dot += packed[(i, k)] * y[i];
    }
    let t = tau * dot;
    y[k] -= t;
    for i in (k + 1)..m {
        y[i] -= t * packed[(i, k)];
    }
}
