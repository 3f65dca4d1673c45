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
//! every covariance entry is a dot product of two contiguous slices.
//! Every entry, by either kernel below, accumulates its products over
//! ascending snapshots in one chain of multiplies then adds, so each is
//! bit-identical to [`CenteredMeasurements::cov`].
//!
//! Two kernels sweep a pair set:
//!
//! * **The pair kernel** ([`CenteredMeasurements::pair_covariances`])
//!   runs the pairs in list order, four accumulator chains per loop,
//!   parallelised over disjoint output blocks with crossbeam scoped
//!   threads. It is the oracle of the tile kernel and serves one-off
//!   sweeps that would not repay a plan.
//! * **The tile kernel** runs a [`PairPlan`]: built once per pair set (a
//!   topology constant), it orders the paths by connected component of
//!   the pair graph and groups the requested pairs into upper-triangle
//!   4×8 tiles of that order. A sweep packs each column block's 8
//!   deviation rows snapshot-major and runs every touched tile of the
//!   block through the register-blocked kernel
//!   ([`losstomo_linalg::simd::cov_tile`]), on the calling thread. On a
//!   tree two paths share a link exactly when they lie below one root
//!   link, so the pair set is a union of complete blocks and its tiles
//!   run about 95% full.
//!
//! A plan takes tiles only when the requested pairs fill at least half
//! of the touched tiles' cells; otherwise it keeps the pair kernel. Mesh
//! pair sets (9–17% fill on the paper's Waxman and PlanetLab
//! topologies) and the sparse sets a row budget or a churn restart
//! leaves run the pair kernel.
//!
//! The sweep is the `O(paths²)` term of Phase 1: its cost is one dot
//! product per *requested* pair. Under a row budget ([`crate::budget`])
//! the augmented system hands over only the selected pairs, so the sweep
//! (and the Gram assembly downstream) shrinks proportionally — see
//! `scale_pairs` in the bench crate for the measured effect.

use losstomo_linalg::simd::{self, Engine, TILE_COLS, TILE_ROWS};
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
    /// Every engine is bit-identical.
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
    /// [`simd::pair_cov4`] — same chains, same order, bit-identical.
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
                Engine::Avx2 => simd::pair_cov4(a0, b0, a1, b1, a2, b2, a3, b3)
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

/// Which kernel a [`PairPlan`] sweeps its pairs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// The register-blocked 4×8 tile kernel over the component-ordered
    /// paths, on the calling thread.
    Tiles,
    /// The four-chain pair kernel over the pair list
    /// ([`CenteredMeasurements::pair_covariances`]).
    Pairs,
}

/// The covariance sweep of one pair set (see the [module docs](self)).
///
/// Built once per pair set, it decides the kernel from the pair set
/// itself: tiles when the requested pairs fill at least half of the
/// touched tiles' cells, the pair kernel otherwise. Either way, slot `r`
/// of a sweep is the covariance of `pairs[r]`, bit-identical to
/// [`CenteredMeasurements::cov`]. Building is `O(paths + pairs)` in
/// time and memory.
#[derive(Debug, Clone)]
pub struct PairPlan {
    n_paths: usize,
    len: usize,
    body: PlanBody,
}

#[derive(Debug, Clone)]
enum PlanBody {
    Pairs(Vec<(usize, usize)>),
    Tiles(Tiles),
}

/// The tile layout of a pair set. A pair `(i, j)` sits in the upper
/// triangle of the component order, at row `min(pos i, pos j)` and
/// column `max(pos i, pos j)`: row block `row / 4`, column block
/// `column / 8`, and cell `(row % 4)·8 + column % 8` of its tile.
#[derive(Debug, Clone)]
struct Tiles {
    /// The path at each position: the components of the pair graph in
    /// the order of their smallest path, each in index order.
    order: Vec<u32>,
    /// Column block `cb` holds `tiles[col_start[cb]..col_start[cb + 1]]`.
    col_start: Vec<u32>,
    /// The touched tiles, by column block and then row block: each
    /// tile's row block and its mask of requested cells.
    tiles: Vec<(u32, u32)>,
    /// The output slot of each requested cell, tile by tile, in cell
    /// order.
    slots: Vec<u32>,
}

impl PairPlan {
    /// Plans the sweep of `pairs` over `n_paths` paths.
    ///
    /// # Panics
    /// Panics on a pair index out of range.
    pub fn new(n_paths: usize, pairs: &[(usize, usize)]) -> Self {
        Self::from_fn(n_paths, pairs.len(), |r| pairs[r])
    }

    /// [`PairPlan::new`] over the `len` pairs `pair(0), pair(1), …`,
    /// which a caller holding its pairs in another shape can plan
    /// without first collecting them.
    pub(crate) fn from_fn(
        n_paths: usize,
        len: usize,
        pair: impl Fn(usize) -> (usize, usize),
    ) -> Self {
        assert!(
            (0..len).all(|r| pair(r).0 < n_paths && pair(r).1 < n_paths),
            "pair index out of range for {n_paths} paths"
        );
        let body = match Tiles::layout(n_paths, len, &pair) {
            Some(tiles) => PlanBody::Tiles(tiles),
            None => PlanBody::Pairs((0..len).map(pair).collect()),
        };
        PairPlan { n_paths, len, body }
    }

    /// The kernel this plan sweeps with.
    pub fn kind(&self) -> PlanKind {
        match self.body {
            PlanBody::Pairs(_) => PlanKind::Pairs,
            PlanBody::Tiles(_) => PlanKind::Tiles,
        }
    }

    /// Number of planned pairs (the length of a sweep's output).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Computes `Σ̂` of every planned pair into `out` (resized and fully
    /// overwritten). `panel` is the tile kernel's packing buffer, reused
    /// between sweeps so a steady-state sweep allocates nothing. A
    /// `Pairs` plan runs [`CenteredMeasurements::pair_covariances_into`],
    /// threads included; a `Tiles` plan runs on the calling thread.
    ///
    /// # Panics
    /// Panics if `centered` does not cover the plan's paths.
    pub fn covariances_into(
        &self,
        centered: &CenteredMeasurements,
        panel: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.check_paths(centered);
        match &self.body {
            PlanBody::Pairs(pairs) => centered.pair_covariances_into(pairs, out),
            PlanBody::Tiles(tiles) => tiles.sweep(centered, simd::active(), panel, out),
        }
    }

    /// [`PairPlan::covariances_into`] under an explicit SIMD engine,
    /// serial, into a fresh vector (the engine is the variable under
    /// test — used by the equivalence suites and the `scale_simd`
    /// bench). Bit-identical under every engine.
    pub fn covariances_with_engine(
        &self,
        centered: &CenteredMeasurements,
        engine: Engine,
    ) -> Vec<f64> {
        self.check_paths(centered);
        match &self.body {
            PlanBody::Pairs(pairs) => centered.pair_covariances_with_engine(pairs, engine),
            PlanBody::Tiles(tiles) => {
                let mut out = Vec::new();
                tiles.sweep(centered, engine, &mut Vec::new(), &mut out);
                out
            }
        }
    }

    fn check_paths(&self, centered: &CenteredMeasurements) {
        assert_eq!(
            centered.paths(),
            self.n_paths,
            "measurements cover {} paths, the plan {}",
            centered.paths(),
            self.n_paths
        );
    }
}

impl Tiles {
    /// Lays the `len` pairs `pair(r)` out in tiles, or `None` when they
    /// would fill less than half of the touched tiles' cells, or when
    /// two of them share a cell (a repeated pair, in either
    /// orientation).
    fn layout(n: usize, len: usize, pair: &impl Fn(usize) -> (usize, usize)) -> Option<Tiles> {
        // Slots and (row block · 32 + cell) keys must fit in a u32.
        if len == 0 || len > u32::MAX as usize || n > 1 << 28 {
            return None;
        }
        let order = component_order(n, len, pair);
        let mut pos = vec![0u32; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p as u32;
        }
        // Each slot as (row block · 32 + cell, slot), by column block.
        let placed = (0..len).map(|r| {
            let (i, j) = pair(r);
            let (a, b) = (pos[i].min(pos[j]) as usize, pos[i].max(pos[j]) as usize);
            let cell = (a % TILE_ROWS) * TILE_COLS + b % TILE_COLS;
            (
                b / TILE_COLS,
                [((a / TILE_ROWS) << 5 | cell) as u32, r as u32],
            )
        });
        let (by_col, col_bounds) = counting_sort(placed, n.div_ceil(TILE_COLS));
        // One column block at a time: its tiles' slots by cell, and the
        // tile of each row block (`u32::MAX` when untouched).
        let mut cells: Vec<[u32; TILE_ROWS * TILE_COLS]> = Vec::new();
        let mut tile_at = vec![u32::MAX; n.div_ceil(TILE_ROWS)];
        let mut col_start = vec![0u32];
        let mut tiles: Vec<(u32, u32)> = Vec::new();
        let mut slots = Vec::with_capacity(len);
        for (cb, bounds) in col_bounds.windows(2).enumerate() {
            cells.clear();
            for &[key, r] in &by_col[bounds[0]..bounds[1]] {
                let at = &mut tile_at[key as usize >> 5];
                if *at == u32::MAX {
                    *at = cells.len() as u32;
                    cells.push([u32::MAX; TILE_ROWS * TILE_COLS]);
                }
                let cell = &mut cells[*at as usize][key as usize & 31];
                if *cell != u32::MAX {
                    return None;
                }
                *cell = r;
            }
            // No row lies past the column block's last column.
            for (rb, at) in tile_at.iter_mut().enumerate().take(2 * cb + 2) {
                if *at == u32::MAX {
                    continue;
                }
                let mut mask = 0u32;
                for (cell, &slot) in cells[*at as usize].iter().enumerate() {
                    if slot != u32::MAX {
                        mask |= 1 << cell;
                        slots.push(slot);
                    }
                }
                *at = u32::MAX;
                tiles.push((rb as u32, mask));
            }
            col_start.push(tiles.len() as u32);
            // Fill = len / (32·tiles), and tiles only grow.
            if 2 * len < TILE_ROWS * TILE_COLS * tiles.len() {
                return None;
            }
        }
        Some(Tiles {
            order,
            col_start,
            tiles,
            slots,
        })
    }

    /// The tiled sweep (see [`PairPlan::covariances_into`]).
    fn sweep(
        &self,
        c: &CenteredMeasurements,
        engine: Engine,
        panel: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let m = c.snapshots();
        let denom = (m - 1) as f64;
        // The sweep writes every slot and every panel entry it reads.
        out.resize(self.slots.len(), 0.0);
        panel.resize(TILE_COLS * m, 0.0);
        // A position past the last path reads the last path's row; no
        // requested cell lies there.
        let last = self.order.len() - 1;
        let row_at = |p: usize| c.dev_row(self.order[p.min(last)] as usize);
        let mut slot = 0;
        for (cb, bounds) in self.col_start.windows(2).enumerate() {
            let tiles = &self.tiles[bounds[0] as usize..bounds[1] as usize];
            if tiles.is_empty() {
                continue;
            }
            for col in 0..TILE_COLS {
                for (l, &x) in row_at(cb * TILE_COLS + col).iter().enumerate() {
                    panel[l * TILE_COLS + col] = x;
                }
            }
            for &(rb, mask) in tiles {
                let rows = std::array::from_fn(|r| row_at(rb as usize * TILE_ROWS + r));
                let acc = match engine {
                    Engine::Avx2 => simd::cov_tile(rows, panel)
                        .unwrap_or_else(|| simd::cov_tile_scalar(rows, panel)),
                    Engine::Scalar => simd::cov_tile_scalar(rows, panel),
                };
                let mut bits = mask;
                while bits != 0 {
                    let cell = bits.trailing_zeros() as usize;
                    out[self.slots[slot] as usize] = acc[cell] / denom;
                    slot += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// The paths in component order: the connected components of the graph
/// whose edges are the `len` pairs `pair(r)`, in the order of their
/// smallest path, each in index order (a union-find whose roots are the
/// smallest paths).
fn component_order(n: usize, len: usize, pair: &impl Fn(usize) -> (usize, usize)) -> Vec<u32> {
    let mut root: Vec<u32> = (0..n as u32).collect();
    let find = |root: &mut Vec<u32>, mut x: u32| {
        while root[x as usize] != x {
            root[x as usize] = root[root[x as usize] as usize];
            x = root[x as usize];
        }
        x
    };
    for (i, j) in (0..len).map(pair) {
        // Most pairs of a dense set join two paths already linked to
        // one parent: skip them without a walk.
        if root[i] == root[j] {
            continue;
        }
        let (a, b) = (find(&mut root, i as u32), find(&mut root, j as u32));
        root[a.max(b) as usize] = a.min(b);
    }
    let roots: Vec<u32> = (0..n as u32).map(|i| find(&mut root, i)).collect();
    let (order, _) = counting_sort((0..n as u32).map(|i| (roots[i as usize] as usize, i)), n);
    order
}

/// A stable counting sort of `(key, item)` pairs by key, which must be
/// below `keys`: the items, and the `keys + 1` bounds of each key's run.
fn counting_sort<T: Copy>(
    items: impl Iterator<Item = (usize, T)> + Clone,
    keys: usize,
) -> (Vec<T>, Vec<usize>) {
    let mut bounds = vec![0usize; keys + 1];
    for (k, _) in items.clone() {
        bounds[k + 1] += 1;
    }
    for k in 0..keys {
        bounds[k + 1] += bounds[k];
    }
    let Some((_, first)) = items.clone().next() else {
        return (Vec::new(), bounds);
    };
    let mut out = vec![first; bounds[keys]];
    let mut next = bounds.clone();
    for (k, x) in items {
        out[next[k]] = x;
        next[k] += 1;
    }
    (out, bounds)
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
            let vector = c.pair_covariances_with_engine(&pairs, Engine::Avx2);
            let sb: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
            let vb: Vec<u64> = vector.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, vb, "AVX2 drifted from scalar");
        }
    }

    fn synthetic(m: usize, n: usize) -> CenteredMeasurements {
        CenteredMeasurements::from_rows(
            (0..m)
                .map(|l| {
                    (0..n)
                        .map(|i| (((l * 37 + i * 11 + 5) % 89) as f64) / 8.9 - 5.0)
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn plan_tiles_a_dense_set_and_matches_cov_bitwise() {
        let (m, n) = (7, 21);
        let c = synthetic(m, n);
        // Every pair of two blocks, listed in an order unrelated to the
        // tiles.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for block in [[0usize, 16], [16, 21]] {
            for i in block[0]..block[1] {
                pairs.extend((i..block[1]).map(|j| (j, i)));
            }
        }
        pairs.reverse();
        let plan = PairPlan::new(n, &pairs);
        assert_eq!(plan.kind(), PlanKind::Tiles);
        let (mut panel, mut out) = (Vec::new(), Vec::new());
        plan.covariances_into(&c, &mut panel, &mut out);
        let want: Vec<f64> = pairs.iter().map(|&(i, j)| c.cov(i, j)).collect();
        assert_eq!(out, want);
        assert_eq!(plan.covariances_with_engine(&c, Engine::Scalar), want);
    }

    #[test]
    fn plan_keeps_the_pair_kernel_for_sparse_or_repeated_pairs() {
        let c = synthetic(5, 40);
        let sparse: Vec<(usize, usize)> = (0..40).map(|i| (i, (i * 7) % 40)).collect();
        let repeated: Vec<(usize, usize)> = (0..20)
            .flat_map(|i| (i..20).map(move |j| (i, j)))
            .chain([(3, 1)])
            .collect();
        for pairs in [sparse, repeated] {
            let plan = PairPlan::new(40, &pairs);
            assert_eq!(plan.kind(), PlanKind::Pairs);
            let (mut panel, mut out) = (Vec::new(), Vec::new());
            plan.covariances_into(&c, &mut panel, &mut out);
            assert_eq!(out, c.pair_covariances(&pairs));
        }
        let empty = PairPlan::new(40, &[]);
        assert!(empty.is_empty());
        let (mut panel, mut out) = (Vec::new(), vec![1.0]);
        empty.covariances_into(&c, &mut panel, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "pair index out of range")]
    fn plan_rejects_out_of_range_pairs() {
        PairPlan::new(3, &[(0, 3)]);
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
