//! Sample moments of end-to-end measurements (eq. (7) of the paper).
//!
//! Given `m` snapshots of the log transmission rates
//! `Y^(l) = [Y_1^(l) … Y_np^(l)]`, the unbiased sample covariance is
//!
//! `Σ̂_{ii'} = 1/(m−1) · Σ_l (Y_i^(l) − Ȳ_i)(Y_{i'}^(l) − Ȳ_{i'})`.
//!
//! Phase 1 only needs the entries for path pairs that share at least one
//! link (disjoint pairs produce all-zero rows of `A`). The estimator
//! stores the centred deviations *path-major* in one flat buffer, so
//! every covariance entry is a dot product of two contiguous slices, and
//! computes all entries the augmented system needs in a single pass
//! ([`CenteredMeasurements::pair_covariances`]), interleaving four
//! register-resident accumulator chains per loop. The
//! pair sweep is parallelised over disjoint output blocks with
//! crossbeam scoped threads; every entry is produced by exactly one
//! thread with a fixed ascending accumulation order, so serial and
//! parallel results are bit-identical.
//!
//! The pair sweep is the `O(paths²)` term of Phase 1: its cost is one
//! dot product per *requested* pair. Under a row budget
//! ([`crate::budget`]) the augmented system hands over only the
//! selected pairs, so the sweep (and the Gram assembly downstream)
//! shrinks proportionally — see `scale_pairs` in the bench crate for
//! the measured effect.

use losstomo_linalg::simd::{self, Engine};
use losstomo_netsim::MeasurementSet;

/// Centred snapshot data, ready to produce covariance entries on demand.
#[derive(Debug, Clone)]
pub struct CenteredMeasurements {
    /// Path-major centred deviations:
    /// `dev[i * m + l] = Y_i^(l) − Ȳ_i` for path `i`, snapshot `l`.
    dev: Vec<f64>,
    n_paths: usize,
    snapshots: usize,
    /// Scratch: per-path means of the current window (a field so
    /// re-centring allocates nothing).
    means: Vec<f64>,
}

/// Pairs per chunk when fanning covariance work out to threads; large
/// enough that spawn overhead is negligible against the dot products.
const MIN_PAIRS_PER_THREAD: usize = 4096;

impl CenteredMeasurements {
    /// Centres the log measurements of `m ≥ 2` snapshots.
    ///
    /// # Panics
    /// Panics if fewer than two snapshots are supplied (the sample
    /// covariance is undefined) or if snapshots disagree on the number
    /// of paths.
    pub fn new(measurements: &MeasurementSet) -> Self {
        Self::from_rows(measurements.log_rate_rows())
    }

    /// Centres pre-extracted log-rate rows (one row per snapshot).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::from_row_refs(&refs)
    }

    /// Centres borrowed log-rate rows (one slice per snapshot, in
    /// chronological order).
    ///
    /// This is the core constructor; [`CenteredMeasurements::from_rows`]
    /// delegates to it. The streaming accumulator
    /// ([`crate::streaming::StreamingCovariance`]) calls it over its
    /// window ring buffer, which is what makes streaming refreshes
    /// bit-identical to a batch recompute: the means accumulate over
    /// rows in the same order and the deviations are produced by the
    /// same subtraction.
    pub fn from_row_refs(rows: &[&[f64]]) -> Self {
        let mut centered = CenteredMeasurements::empty();
        centered.recentre_from_refs(rows);
        centered
    }

    /// An empty instance for workspace slots. It holds no window —
    /// re-centre it before asking for covariances.
    pub(crate) fn empty() -> Self {
        CenteredMeasurements {
            dev: Vec::new(),
            n_paths: 0,
            snapshots: 0,
            means: Vec::new(),
        }
    }

    /// Re-centres this instance over a new window of borrowed rows,
    /// reusing the internal buffers — the in-place counterpart of
    /// [`CenteredMeasurements::from_row_refs`] (which is a thin wrapper
    /// over this on an empty instance). Same arithmetic, same panics,
    /// bit-identical deviations; no allocation once the buffers have
    /// reached `n_paths × m` capacity.
    pub fn recentre_from_refs(&mut self, rows: &[&[f64]]) {
        self.recentre_from_iter(rows.iter().copied());
    }

    /// [`CenteredMeasurements::recentre_from_refs`] over any re-runnable
    /// row iterator (two passes: means, then deviations), so callers
    /// holding rows in a ring buffer can re-centre without materialising
    /// a slice of references. Iteration order is the window order —
    /// means accumulate over it exactly as the batch constructor does.
    pub fn recentre_from_iter<'a, I>(&mut self, rows: I)
    where
        I: Iterator<Item = &'a [f64]> + Clone,
    {
        let mut m = 0usize;
        self.means.clear();
        for row in rows.clone() {
            if m == 0 {
                self.means.resize(row.len(), 0.0);
            }
            assert_eq!(
                row.len(),
                self.means.len(),
                "snapshots disagree on the number of paths"
            );
            m += 1;
            for (mean, y) in self.means.iter_mut().zip(row.iter()) {
                *mean += y;
            }
        }
        assert!(m >= 2, "need at least 2 snapshots, got {m}");
        let n_paths = self.means.len();
        for mean in self.means.iter_mut() {
            *mean /= m as f64;
        }
        // Transpose into path-major order so each path's deviations are
        // one contiguous slice.
        self.dev.clear();
        self.dev.resize(n_paths * m, 0.0);
        for (l, row) in rows.enumerate() {
            for (i, (y, mean)) in row.iter().zip(self.means.iter()).enumerate() {
                self.dev[i * m + l] = y - mean;
            }
        }
        self.n_paths = n_paths;
        self.snapshots = m;
    }

    /// Number of snapshots `m`.
    pub fn snapshots(&self) -> usize {
        self.snapshots
    }

    /// Number of paths `n_p`.
    pub fn paths(&self) -> usize {
        self.n_paths
    }

    /// The centred deviations of path `i`, one entry per snapshot.
    #[inline]
    fn dev_row(&self, i: usize) -> &[f64] {
        &self.dev[i * self.snapshots..(i + 1) * self.snapshots]
    }

    /// The sample covariance `Σ̂_{ii'}` (unbiased, `m − 1` denominator).
    pub fn cov(&self, i: usize, i2: usize) -> f64 {
        debug_assert!(i < self.n_paths && i2 < self.n_paths);
        dot(self.dev_row(i), self.dev_row(i2)) / (self.snapshots - 1) as f64
    }

    /// The sample variance of path `i`.
    pub fn var(&self, i: usize) -> f64 {
        self.cov(i, i)
    }

    /// Computes `Σ̂_{ii'}` for every requested `(i, i')` pair in one
    /// pass, parallelised over the available cores (the
    /// `LOSSTOMO_THREADS` environment variable caps the thread count).
    ///
    /// Entry `r` of the result corresponds to `pairs[r]`. Bit-identical
    /// to calling [`CenteredMeasurements::cov`] per pair, and to
    /// [`CenteredMeasurements::pair_covariances_with_threads`] at any
    /// thread count.
    pub fn pair_covariances(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.pair_covariances_with_threads(pairs, crate::parallel::num_threads())
    }

    /// [`CenteredMeasurements::pair_covariances`] writing into a
    /// reusable output buffer (resized and fully overwritten) instead
    /// of allocating one per sweep. Bit-identical results.
    pub fn pair_covariances_into(&self, pairs: &[(usize, usize)], out: &mut Vec<f64>) {
        self.pair_covariances_with_threads_into(pairs, crate::parallel::num_threads(), out);
    }

    /// [`CenteredMeasurements::pair_covariances`] with an explicit
    /// thread count (1 forces the serial path).
    pub fn pair_covariances_with_threads(
        &self,
        pairs: &[(usize, usize)],
        n_threads: usize,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.pair_covariances_with_threads_into(pairs, n_threads, &mut out);
        out
    }

    /// [`CenteredMeasurements::pair_covariances_with_threads`] into a
    /// reusable output buffer.
    pub fn pair_covariances_with_threads_into(
        &self,
        pairs: &[(usize, usize)],
        n_threads: usize,
        out: &mut Vec<f64>,
    ) {
        // The engine is resolved once per sweep (not per pair) and
        // shared by every worker thread.
        let engine = simd::active();
        out.clear();
        out.resize(pairs.len(), 0.0);
        if pairs.is_empty() {
            return;
        }
        let threads = n_threads
            .max(1)
            .min(pairs.len().div_ceil(MIN_PAIRS_PER_THREAD));
        if threads <= 1 {
            self.pair_cov_block(pairs, out, engine);
            return;
        }
        let chunk = pairs.len().div_ceil(threads);
        crossbeam::scope(|scope| {
            for (pair_chunk, out_chunk) in pairs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| self.pair_cov_block(pair_chunk, out_chunk, engine));
            }
        })
        .expect("covariance worker panicked");
    }

    /// [`CenteredMeasurements::pair_covariances`] under an explicit
    /// SIMD engine, serial (the engine is the variable under test —
    /// used by the SIMD equivalence suites and the `scale_simd` bench).
    /// Non-FMA engines are bit-identical.
    pub fn pair_covariances_with_engine(
        &self,
        pairs: &[(usize, usize)],
        engine: Engine,
    ) -> Vec<f64> {
        let mut out = vec![0.0; pairs.len()];
        self.pair_cov_block(pairs, &mut out, engine);
        out
    }

    /// Computes one block of pair covariances into `out`.
    ///
    /// Pairs are processed in groups of four so four independent
    /// accumulation chains are in flight, hiding the floating-point add
    /// latency that bounds a single running dot product. Each entry
    /// still accumulates over snapshots in ascending order into its own
    /// accumulator, which is what makes the result independent of the
    /// grouping (and of the thread count in the caller). Under an AVX2
    /// engine the four chains become the four lanes of
    /// [`simd::pair_cov4`] — same chains, same order, bit-identical
    /// without FMA.
    fn pair_cov_block(&self, pairs: &[(usize, usize)], out: &mut [f64], engine: Engine) {
        let denom = (self.snapshots - 1) as f64;
        let mut q = 0;
        // Four pairs per iteration of one shared snapshot loop: four
        // independent accumulator chains advance together, so the adds
        // of one chain hide the latency of the others.
        while q + 4 <= pairs.len() {
            let a0 = self.dev_row(pairs[q].0);
            let b0 = self.dev_row(pairs[q].1);
            let a1 = self.dev_row(pairs[q + 1].0);
            let b1 = self.dev_row(pairs[q + 1].1);
            let a2 = self.dev_row(pairs[q + 2].0);
            let b2 = self.dev_row(pairs[q + 2].1);
            let a3 = self.dev_row(pairs[q + 3].0);
            let b3 = self.dev_row(pairs[q + 3].1);
            let s = match engine {
                Engine::Avx2 { fma } => simd::pair_cov4(a0, b0, a1, b1, a2, b2, a3, b3, fma)
                    .unwrap_or_else(|| scalar4(a0, b0, a1, b1, a2, b2, a3, b3)),
                Engine::Scalar => scalar4(a0, b0, a1, b1, a2, b2, a3, b3),
            };
            out[q] = s[0] / denom;
            out[q + 1] = s[1] / denom;
            out[q + 2] = s[2] / denom;
            out[q + 3] = s[3] / denom;
            q += 4;
        }
        for q in q..pairs.len() {
            out[q] = dot(self.dev_row(pairs[q].0), self.dev_row(pairs[q].1)) / denom;
        }
    }
}

/// The scalar four-chain dot kernel (fallback and oracle of
/// [`simd::pair_cov4`]): one shared snapshot loop advancing four
/// independent ascending-order accumulators.
#[inline]
#[allow(clippy::too_many_arguments)]
fn scalar4(
    a0: &[f64],
    b0: &[f64],
    a1: &[f64],
    b1: &[f64],
    a2: &[f64],
    b2: &[f64],
    a3: &[f64],
    b3: &[f64],
) -> [f64; 4] {
    let m = a0.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for l in 0..m {
        s0 += a0[l] * b0[l];
        s1 += a1[l] * b1[l];
        s2 += a2[l] * b2[l];
        s3 += a3[l] * b3[l];
    }
    [s0, s1, s2, s3]
}

/// Dot product of two equal-length slices, accumulating in ascending
/// index order (a single chain — bit-compatible with the historical
/// per-entry covariance loop).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_linalg::vector;

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0, -1.0],
            vec![2.0, 4.0, -1.5],
            vec![3.0, 6.0, -0.5],
            vec![0.0, 0.0, -1.0],
        ]
    }

    #[test]
    fn matches_direct_formulas() {
        let c = CenteredMeasurements::from_rows(rows());
        let data = rows();
        let col = |j: usize| -> Vec<f64> { data.iter().map(|r| r[j]).collect() };
        for i in 0..3 {
            assert!((c.var(i) - vector::sample_variance(&col(i))).abs() < 1e-12);
            for j in 0..3 {
                let expected = vector::sample_covariance(&col(i), &col(j));
                assert!((c.cov(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn covariance_is_symmetric() {
        let c = CenteredMeasurements::from_rows(rows());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.cov(i, j), c.cov(j, i));
            }
        }
    }

    #[test]
    fn perfectly_correlated_paths() {
        // Column 1 = 2 × column 0 → cov = 2·var₀.
        let c = CenteredMeasurements::from_rows(rows());
        assert!((c.cov(0, 1) - 2.0 * c.var(0)).abs() < 1e-12);
    }

    #[test]
    fn dimensions_exposed() {
        let c = CenteredMeasurements::from_rows(rows());
        assert_eq!(c.snapshots(), 4);
        assert_eq!(c.paths(), 3);
    }

    #[test]
    fn pair_covariances_match_per_entry_bitwise() {
        let c = CenteredMeasurements::from_rows(rows());
        let pairs: Vec<(usize, usize)> = (0..3).flat_map(|i| (i..3).map(move |j| (i, j))).collect();
        let batch = c.pair_covariances(&pairs);
        for (r, &(i, j)) in pairs.iter().enumerate() {
            assert_eq!(batch[r], c.cov(i, j), "pair ({i},{j})");
        }
        assert!(c.pair_covariances(&[]).is_empty());
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Enough pairs to actually exercise the chunked path.
        let m = 16;
        let n = 40;
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|l| {
                (0..n)
                    .map(|i| (((l * 31 + i * 17 + 3) % 97) as f64) / 9.7 - 5.0)
                    .collect()
            })
            .collect();
        let c = CenteredMeasurements::from_rows(rows);
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
        let serial = c.pair_covariances_with_threads(&pairs, 1);
        for threads in [2, 3, 8] {
            let parallel = c.pair_covariances_with_threads(&pairs, threads);
            assert_eq!(serial, parallel, "{threads} threads drifted");
        }
    }

    #[test]
    fn engines_are_bit_identical_on_pair_batches() {
        // Odd path count and odd snapshot count, so the engine path
        // exercises both the 4-pair batches and the tail pairs, and the
        // kernel's m % 4 scalar continuation.
        let m = 23;
        let n = 17;
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|l| {
                (0..n)
                    .map(|i| (((l * 29 + i * 13 + 7) % 101) as f64) / 10.1 - 5.0)
                    .collect()
            })
            .collect();
        let c = CenteredMeasurements::from_rows(rows);
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
        let reference = c.pair_covariances(&pairs);
        let scalar = c.pair_covariances_with_engine(&pairs, Engine::Scalar);
        assert_eq!(
            reference, scalar,
            "scalar engine drifted from default entry point"
        );
        if Engine::avx2_available() {
            // The covariance kernel has no contraction opportunity, so
            // even the FMA engine must match bitwise.
            for engine in [Engine::Avx2 { fma: false }, Engine::Avx2 { fma: true }] {
                let vector = c.pair_covariances_with_engine(&pairs, engine);
                let sb: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
                let vb: Vec<u64> = vector.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, vb, "{engine:?} drifted from scalar");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 snapshots")]
    fn rejects_single_snapshot() {
        CenteredMeasurements::from_rows(vec![vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn rejects_ragged_rows() {
        CenteredMeasurements::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
