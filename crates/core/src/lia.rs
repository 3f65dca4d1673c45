//! The Loss Inference Algorithm (LIA) — Phase 2 and the end-to-end
//! driver (Section 5.2–5.3).
//!
//! After Phase 1 has learnt the link variances, Phase 2:
//!
//! 1. sorts links in increasing variance order (by Assumption S.3 this
//!    is increasing congestion order),
//! 2. removes the least-variant columns from the first-moment system
//!    `Y = R X` until the remaining matrix `R*` has full column rank,
//! 3. solves `Y = R* X*` by least squares for the surviving (congested)
//!    links, and
//! 4. approximates the removed links' transmission rates by 1 (loss 0).
//!
//! The paper's loop removes the globally smallest-variance column while
//! `R*` is rank deficient, so `R*` is the longest *suffix* of the
//! variance order whose columns are independent. Every path finds it in
//! one pass that appends columns in decreasing variance order and stops
//! at the first column that lies in the span of the ones already kept.
//! That column's position in the order, plus one, is the cut.
//!
//! **On a tree routing** ([`crate::tree::reconstruct_tree`]) the columns
//! of `R` are the path sets of a laminar family, and a set of them is
//! independent iff every kept column keeps a *private* path, one through
//! no kept link below it. Appending link `e` with nearest kept ancestor
//! `a` takes `p_e` = its paths not yet covered by kept links below it
//! from `a`'s private paths, so the column is dependent iff `p_e = 0`
//! or `a` would keep none: an `O(depth)` count, no arithmetic on `R`.
//! The solve is a group mean: `w_e` is the mean of `y` over the paths
//! whose deepest kept link is `e`, and `x_e = w_e − w_a`. Under
//! [`Phase2Dispatch::Auto`] a tree runs this path ([`RankView::Tree`]).
//!
//! **On a mesh** the dense path appends columns to a column-append
//! Householder QR ([`AppendQr`]), and the factor built on the way is
//! the factor of `R*` the reduced solve uses — one factorisation per
//! Phase 2, identical output to the paper's loop. Above
//! [`DENSE_MAX_COLS`] links the sparse path bisects over the cut
//! instead: "a subset of an independent set is independent" makes
//! feasibility monotone in the cut, so `O(log n_c)` sparse Givens rank
//! checks find it (the row-streaming Givens QR cannot append columns),
//! and a warm-start hint can re-certify a remembered cut with two
//! checks. The forced [`Phase2Dispatch::Dense`] and
//! [`Phase2Dispatch::Sparse`] run these paths on trees too, as the tree
//! path's oracle.
//!
//! A greedy-matroid variant that keeps every column independent of the
//! already-kept higher-variance set is provided for the ablation study
//! (it never discards an identifiable congested link). It runs the same
//! column-append scan but skips dependent columns instead of stopping.
//!
//! Selection, factoring and solving live in one place, the crate-private
//! Phase-2 model: batch [`infer_link_rates`], the deng-fast backend's
//! screened solve and the LIA core all fit and solve through it, behind
//! one snapshot check (`y` must hold one finite log rate per path).
//!
//! Phase 2 consumes whatever variances Phase 1 produced; it is
//! agnostic to the augmented-pair row budget ([`crate::budget`]) —
//! budgeting changes how many covariance rows *feed* Phase 1, not the
//! first-moment system `Y = R X` solved here.

use crate::tree::{reconstruct_tree, LinkTree, NO_LINK};
use losstomo_linalg::{AppendQr, CsrMatrix, LinalgError, Matrix, SparseQr};
use losstomo_topology::ReducedTopology;
use serde::{Deserialize, Serialize};

/// How Phase 2 chooses the columns of `R*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EliminationStrategy {
    /// The paper's rule: drop the smallest-variance columns (as a
    /// prefix of the variance order) until `R*` has full column rank.
    #[default]
    PaperOrder,
    /// Keep a maximal independent set, scanning columns in decreasing
    /// variance order (matroid greedy). Keeps a superset of the
    /// information the paper's rule keeps.
    GreedyMatroid,
}

/// Which solver family Phase 2 uses for its column selection and the
/// reduced least-squares solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Phase2Dispatch {
    /// The closed form on a tree routing (private-path counts and group
    /// means, see the module docs). On a mesh, dense up to
    /// [`DENSE_MAX_COLS`] columns and the sparse Givens QR above (the
    /// routing matrix is 1–2 % dense at mesh scale, where densifying
    /// dominates the pipeline). Default.
    #[default]
    Auto,
    /// Force the dense path at any size, trees included (the tree
    /// path's oracle): one column-append QR scan finds the cut and
    /// factors `R*`.
    Dense,
    /// Force the sparse path at any size (tests, benchmarks).
    Sparse,
}

/// The link-column count up to which [`Phase2Dispatch::Auto`] and
/// [`Phase1Dispatch::Auto`](crate::variance::Phase1Dispatch::Auto) stay
/// dense; above it the sparse Givens QR factors the CSR system
/// directly.
pub const DENSE_MAX_COLS: usize = 2500;

impl Phase2Dispatch {
    /// Whether a mesh with `nc` link columns resolves to the dense
    /// path.
    pub fn is_dense(self, nc: usize) -> bool {
        match self {
            Phase2Dispatch::Auto => nc <= DENSE_MAX_COLS,
            Phase2Dispatch::Dense => true,
            Phase2Dispatch::Sparse => false,
        }
    }
}

/// The routing-matrix view Phase 2 selects columns from and solves
/// against — materialised **once** per estimator or batch call, so
/// neither path re-materialises `R`.
#[derive(Debug, Clone)]
pub enum RankView {
    /// Dense column-major copy of `R`: stored row `k` is link column
    /// `k`, contiguous for the column-append QR scan.
    Dense(Matrix),
    /// CSR view of `R`; subset rank checks use the sparse Givens QR.
    Sparse(CsrMatrix),
    /// The tree a tree routing forms: the closed-form path reads its
    /// parents, path counts and each path's last link, never `R`.
    Tree(LinkTree),
}

impl RankView {
    /// Builds the view the dispatch policy selects for `red`; under
    /// [`Phase2Dispatch::Auto`] that checks whether `red` is a tree.
    pub fn new(red: &ReducedTopology, dispatch: Phase2Dispatch) -> RankView {
        let tree = match dispatch {
            Phase2Dispatch::Auto => reconstruct_tree(red),
            _ => None,
        };
        RankView::with_tree(red, dispatch, tree)
    }

    /// [`RankView::new`] for a caller that has run the tree check:
    /// `tree` is `red`'s tree when its routing is one.
    pub(crate) fn with_tree(
        red: &ReducedTopology,
        dispatch: Phase2Dispatch,
        tree: Option<LinkTree>,
    ) -> RankView {
        match tree {
            Some(tree) if dispatch == Phase2Dispatch::Auto => RankView::Tree(tree),
            _ if dispatch.is_dense(red.num_links()) => RankView::Dense(dense_columns(red)),
            _ => RankView::Sparse(red.matrix.to_sparse()),
        }
    }
}

/// `Rᵀ` as a dense matrix: row `k` holds link `k`'s 0/1 column of `R`.
fn dense_columns(red: &ReducedTopology) -> Matrix {
    let mut rt = Matrix::zeros(red.num_links(), red.num_paths());
    for (i, links) in red.matrix.iter().enumerate() {
        for &k in links {
            rt[(k, i)] = 1.0;
        }
    }
    rt
}

/// Does the column subset `kept` (any order) of the CSR view have full
/// column rank? A subset wider than the row count is trivially
/// dependent and short-circuits.
fn sparse_full_rank(csr: &CsrMatrix, kept: &[usize]) -> bool {
    if kept.is_empty() {
        return true;
    }
    if kept.len() > csr.rows() {
        return false;
    }
    let mut sorted = kept.to_vec();
    sorted.sort_unstable();
    match SparseQr::new(csr.select_columns(&sorted)) {
        Ok(qr) => qr.has_full_column_rank(),
        Err(_) => false,
    }
}

/// LIA configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiaConfig {
    /// Column-elimination strategy for Phase 2.
    pub elimination: EliminationStrategy,
    /// Dense-vs-sparse factorisation dispatch.
    pub dispatch: Phase2Dispatch,
}

/// The output of Phase 2 for one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkRateEstimate {
    /// Estimated transmission rate `φ̂_{e_k}` per virtual link
    /// (1.0 for links eliminated as un-congested).
    pub transmission: Vec<f64>,
    /// Whether each link survived into `R*` (true) or was eliminated
    /// and approximated as loss-free (false).
    pub kept: Vec<bool>,
    /// Number of columns of `R*`.
    pub kept_count: usize,
}

impl LinkRateEstimate {
    /// Estimated loss rate `1 − φ̂` per link.
    pub fn loss_rates(&self) -> Vec<f64> {
        self.transmission.iter().map(|t| 1.0 - t).collect()
    }

    /// Links whose estimated loss rate exceeds the threshold `t_l`.
    pub fn congested_links(&self, threshold: f64) -> Vec<usize> {
        self.transmission
            .iter()
            .enumerate()
            .filter(|(_, &t)| 1.0 - t > threshold)
            .map(|(k, _)| k)
            .collect()
    }
}

/// Selects the columns of `R*` given the learnt variances.
///
/// Returns the kept column indices (ascending). The paper's strategy
/// keeps the longest independent suffix of the variance order; the
/// greedy strategy scans in decreasing variance order and keeps columns
/// that enlarge the span.
///
/// This convenience entry point always uses the
/// [`Phase2Dispatch::Auto`] policy; to force the dense scan or the
/// sparse bisection, go through
/// [`infer_link_rates`]/[`LiaConfig::dispatch`] or call
/// [`select_paper_order_hinted`] with an explicit [`RankView`].
pub fn select_full_rank_columns(
    red: &ReducedTopology,
    variances: &[f64],
    strategy: EliminationStrategy,
) -> Vec<usize> {
    assert_eq!(
        variances.len(),
        red.num_links(),
        "got {} variances for {} links",
        variances.len(),
        red.num_links()
    );
    let order = variance_order(variances);
    let view = RankView::new(red, Phase2Dispatch::Auto);
    match (strategy, &view) {
        (EliminationStrategy::PaperOrder, _) => {
            select_paper_order_hinted(red, &view, &order, None).0
        }
        (_, RankView::Tree(tree)) => {
            let mut factor = TreeFactor::default();
            factor.scan(tree, &order, strategy);
            sorted(factor.cols())
        }
        // On a mesh greedy is dense at every size: it reads one column
        // at a time.
        _ => sorted(dense_factor(red, &order, strategy).cols()),
    }
}

/// The ascending variance order Phase 2 eliminates in: link indices
/// sorted by increasing variance, ties broken by link index for
/// reproducibility.
///
/// The kept column set is a pure function of this permutation, not of
/// the variance *values*.
pub fn variance_order(variances: &[f64]) -> Vec<usize> {
    let mut order = Vec::new();
    variance_order_into(variances, &mut order);
    order
}

/// [`variance_order`] into a reused buffer (allocates nothing once
/// `order` has the capacity). The tie-break makes every key distinct,
/// so the in-place unstable sort yields the same permutation.
pub(crate) fn variance_order_into(variances: &[f64], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..variances.len());
    order.sort_unstable_by(|&a, &b| variances[a].total_cmp(&variances[b]).then(a.cmp(&b)));
}

/// Runs `strategy`'s column-append scan over `red`'s dense columns in
/// `order` (ascending variance, any subset of the links), whatever the
/// dispatch policy.
pub(crate) fn dense_factor(
    red: &ReducedTopology,
    order: &[usize],
    strategy: EliminationStrategy,
) -> DenseFactor {
    let mut factor = DenseFactor::default();
    factor.scan(&dense_columns(red), order, strategy);
    factor
}

fn sorted(cols: &[usize]) -> Vec<usize> {
    let mut out = cols.to_vec();
    out.sort_unstable();
    out
}

/// The dense factor of `R*`: the column-append QR and its columns in
/// append (decreasing-variance) order. Built by one scan over the
/// variance order; reused across scans without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseFactor {
    qr: AppendQr,
    cols: Vec<usize>,
}

impl DenseFactor {
    /// Appends the columns of `rt` (a [`RankView::Dense`] payload) in
    /// decreasing variance order — the reverse of `order`, which may
    /// cover any subset of the links. The paper's rule stops at the
    /// first column in the span of those kept and returns the cut, the
    /// number of leading entries of `order` eliminated; the
    /// greedy-matroid rule skips such columns instead (once the span is
    /// full every push is rejected without arithmetic) and returns 0.
    pub(crate) fn scan(
        &mut self,
        rt: &Matrix,
        order: &[usize],
        strategy: EliminationStrategy,
    ) -> usize {
        self.qr.reset(rt.cols());
        self.cols.clear();
        for (pos, &k) in order.iter().enumerate().rev() {
            if self.qr.push(rt.row(k)) {
                self.cols.push(k);
            } else if strategy == EliminationStrategy::PaperOrder {
                return pos + 1;
            }
        }
        0
    }

    /// The kept columns, in append order.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Solves `Y = R* X*` for one snapshot: `X*` in append order.
    pub(crate) fn solve(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.qr.solve_least_squares(y)
    }
}

/// The closed-form factor of `R*` on a tree routing: the kept columns
/// and their private-path counts, built by one scan over the variance
/// order, and each path's deepest kept link, which is all the solve
/// reads. Reused across scans without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeFactor {
    /// Per link: is it a column of `R*`?
    kept: Vec<bool>,
    /// Per link not kept: paths through it that cross a kept link below
    /// it.
    cover: Vec<usize>,
    /// Per kept link: its private paths, those through it that cross
    /// no kept link below it.
    private: Vec<usize>,
    /// The kept columns, in append order.
    cols: Vec<usize>,
    /// Per link: the deepest kept link on its root chain, itself
    /// included ([`NO_LINK`] when none is kept).
    deepest: Vec<usize>,
    /// Per path: its deepest kept link ([`NO_LINK`] when none).
    owner: Vec<usize>,
    /// Per kept column, in append order: its nearest kept ancestor.
    up: Vec<usize>,
}

impl TreeFactor {
    /// Appends `tree`'s link columns in decreasing variance order — the
    /// reverse of `order`, which may cover any subset of the links —
    /// with the stop/skip rule and return value of
    /// [`DenseFactor::scan`], then records each path's deepest kept
    /// link for the solve.
    pub(crate) fn scan(
        &mut self,
        tree: &LinkTree,
        order: &[usize],
        strategy: EliminationStrategy,
    ) -> usize {
        let nc = tree.num_links();
        self.kept.clear();
        self.kept.resize(nc, false);
        self.cover.clear();
        self.cover.resize(nc, 0);
        self.private.clear();
        self.private.resize(nc, 0);
        self.cols.clear();
        let mut cut = 0;
        for (pos, &e) in order.iter().enumerate().rev() {
            if self.push(tree, e) {
                self.cols.push(e);
            } else if strategy == EliminationStrategy::PaperOrder {
                cut = pos + 1;
                break;
            }
        }
        self.record_owners(tree);
        cut
    }

    /// Keeps column `e` if it is independent of the kept ones: `e` must
    /// keep a private path, and so must its nearest kept ancestor `a`
    /// once `e`'s new paths leave it. On a keep, the links strictly
    /// between `e` and `a` cover those paths too; above `a` they were
    /// covered already.
    fn push(&mut self, tree: &LinkTree, e: usize) -> bool {
        let parent = tree.parents();
        let p = tree.paths_through(e) - self.cover[e];
        let mut a = parent[e];
        while a != NO_LINK && !self.kept[a] {
            a = parent[a];
        }
        if p == 0 || (a != NO_LINK && self.private[a] == p) {
            return false;
        }
        self.kept[e] = true;
        self.private[e] = p;
        if a != NO_LINK {
            self.private[a] -= p;
        }
        let mut f = parent[e];
        while f != a {
            self.cover[f] += p;
            f = parent[f];
        }
        true
    }

    /// Each path's deepest kept link and each kept column's nearest
    /// kept ancestor, in one top-down pass.
    fn record_owners(&mut self, tree: &LinkTree) {
        let parent = tree.parents();
        self.deepest.clear();
        self.deepest.resize(tree.num_links(), NO_LINK);
        for &e in tree.top_down() {
            self.deepest[e] = match (self.kept[e], parent[e]) {
                (true, _) => e,
                (false, NO_LINK) => NO_LINK,
                (false, p) => self.deepest[p],
            };
        }
        self.owner.clear();
        self.owner
            .extend(tree.leaves().iter().map(|&leaf| self.deepest[leaf]));
        self.up.clear();
        self.up.extend(self.cols.iter().map(|&e| match parent[e] {
            NO_LINK => NO_LINK,
            p => self.deepest[p],
        }));
    }

    /// The kept columns, in append order.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Solves `Y = R* X*` for one snapshot: `X*` in append order. `w_e`
    /// is the mean of `y` over the paths `e` owns (its private paths),
    /// and `x_e = w_e − w_(nearest kept ancestor)`.
    fn solve(&self, y: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; self.kept.len()];
        for (&owner, &yi) in self.owner.iter().zip(y) {
            if owner != NO_LINK {
                w[owner] += yi;
            }
        }
        for &e in &self.cols {
            w[e] /= self.private[e] as f64;
        }
        self.cols
            .iter()
            .zip(&self.up)
            .map(|(&e, &a)| if a == NO_LINK { w[e] } else { w[e] - w[a] })
            .collect()
    }
}

/// The paper-order column selection with an optional warm-start cut,
/// returning `(kept columns ascending, cut position)`.
///
/// The cut `h*` is the minimal number of smallest-variance columns to
/// drop so that the remaining set is independent. On a
/// [`RankView::Dense`] view one column-append scan finds it and the
/// hint is ignored, and so does the closed-form scan on a
/// [`RankView::Tree`]. On a [`RankView::Sparse`] view it is a bisection:
/// feasibility is monotone in the cut ("subset of an independent set is
/// independent"), so `h*` is the unique `h` with `feasible(h)` and
/// (`h = 0` or `¬feasible(h − 1)`) — a caller that remembers the
/// previous refresh's cut can re-certify it with **two** rank checks
/// instead of the `O(log n_c)` bisection, with identical output (the
/// LIA core does exactly this; a stale hint gallops to the
/// new cut). `view` must be a [`RankView`] of `red.matrix`, passed in
/// so repeated callers materialise it once.
pub fn select_paper_order_hinted(
    red: &ReducedTopology,
    view: &RankView,
    order: &[usize],
    hint: Option<usize>,
) -> (Vec<usize>, usize) {
    let nc = red.num_links();
    assert_eq!(
        order.len(),
        nc,
        "got a {}-element variance order for {} links",
        order.len(),
        nc
    );
    let cut = match view {
        RankView::Dense(rt) => {
            assert_eq!(
                (rt.rows(), rt.cols()),
                (nc, red.num_paths()),
                "dense view is {}x{}, expected the {}x{} transposed routing matrix",
                rt.rows(),
                rt.cols(),
                nc,
                red.num_paths()
            );
            DenseFactor::default().scan(rt, order, EliminationStrategy::PaperOrder)
        }
        RankView::Sparse(csr) => bisect_cut(csr, order, hint),
        RankView::Tree(tree) => {
            assert_eq!(
                (tree.num_links(), tree.num_paths()),
                (nc, red.num_paths()),
                "tree view has {} links and {} paths, expected {} and {}",
                tree.num_links(),
                tree.num_paths(),
                nc,
                red.num_paths()
            );
            TreeFactor::default().scan(tree, order, EliminationStrategy::PaperOrder)
        }
    };
    (sorted(&order[cut..]), cut)
}

/// The minimal paper-order cut over `order` (ascending variance, any
/// subset of the links) by bisection on the sparse view, warm-started
/// from `hint` when given.
fn bisect_cut(csr: &CsrMatrix, order: &[usize], hint: Option<usize>) -> usize {
    let nc = order.len();
    let full_rank_after_drop = |k: usize| -> bool { sparse_full_rank(csr, &order[k..]) };
    // Feasibility is monotone in the cut: if dropping k smallest
    // leaves an independent set, dropping k+1 does too. Invariant:
    // lo infeasible, hi feasible; converges on the minimal feasible
    // cut.
    let bisect = |mut lo: usize, mut hi: usize| -> usize {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if full_rank_after_drop(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    // Warm start: certify the hinted cut as still minimal. Between
    // refreshes the cut drifts by a position or two (one link's
    // variance crossing another's), so when certification fails we
    // gallop outward from the stale hint to bracket the new cut and
    // bisect the bracket — a handful of rank checks on narrow column
    // subsets instead of the full `(0, nc)` bisection, whose early
    // probes rank-check near-full-width systems.
    if let Some(h) = hint {
        if h <= nc && full_rank_after_drop(h) {
            if h == 0 || !full_rank_after_drop(h - 1) {
                return h;
            }
            // Cut moved down: `h − 1` is feasible.
            let mut hi = h - 1;
            let mut step = 1usize;
            let lo = loop {
                if hi == 0 {
                    return 0;
                }
                let probe = hi.saturating_sub(step);
                if full_rank_after_drop(probe) {
                    hi = probe;
                    step *= 2;
                } else {
                    break probe;
                }
            };
            return bisect(lo, hi);
        } else if h < nc {
            // Cut moved up: `h` is infeasible (dropping all `nc` is
            // trivially feasible, so a bracket always exists).
            let mut lo = h;
            let mut step = 1usize;
            let hi = loop {
                let probe = lo + step;
                if probe >= nc {
                    break nc;
                }
                if full_rank_after_drop(probe) {
                    break probe;
                }
                lo = probe;
                step *= 2;
            };
            return bisect(lo, hi);
        }
        // `h > nc`: a stale hint from another topology — fall through
        // to the cold-start search.
    }
    if full_rank_after_drop(0) {
        return 0;
    }
    bisect(0, nc)
}

/// The Phase-2 model: the kept columns of `R*` for one variance order
/// and their factorisation, fitted once and solved per snapshot. Batch
/// [`infer_link_rates`], the deng-fast screened solve and the LIA core
/// ([`crate::estimator::LiaEstimator`]) all run Phase 2 through it, so
/// they stay bit-identical. Every fit refits: the dense scan reuses
/// its buffers, and the sparse path reuses its factor only when the
/// kept set is unchanged.
#[derive(Debug)]
pub(crate) struct Phase2Model {
    /// The kept columns, ascending (empty while unfitted).
    kept: Vec<usize>,
    /// The last sparse paper-order cut: the bisection's warm-start hint.
    cut: Option<usize>,
    /// The factor of `R*` (`None` while unfitted).
    factor: Option<RstarFactor>,
    /// Sparse `R*` column-selection buffer, recycled through
    /// [`SparseQr::refactor`].
    rstar: CsrMatrix,
}

/// The factorisation of `R*` a [`Phase2Model`] solves with.
#[derive(Debug)]
enum RstarFactor {
    /// The dense column-append factor, built by the scan that selected
    /// its columns.
    Dense(DenseFactor),
    /// Sparse Givens QR of the kept columns.
    Sparse(SparseQr),
    /// The closed-form tree factor, built by the scan that selected its
    /// columns.
    Tree(TreeFactor),
}

impl Default for Phase2Model {
    fn default() -> Self {
        Phase2Model {
            kept: Vec::new(),
            cut: None,
            factor: None,
            rstar: CsrMatrix::empty(0),
        }
    }
}

impl Phase2Model {
    /// Selects and factors `R*` for `order` (ascending variance, any
    /// subset of `red`'s links) on `view`, a [`RankView`] of
    /// `red.matrix`. The dense and the tree view run one scan into the
    /// model's buffers, which selects the kept columns and factors `R*`
    /// in the same pass. The sparse view finds the paper-order cut by
    /// bisection, warm-started from the last cut, or the greedy set by
    /// the dense scan, and refactors `R*` only when the kept set
    /// changed. On error the model is left unfitted.
    pub(crate) fn fit(
        &mut self,
        red: &ReducedTopology,
        view: &RankView,
        order: &[usize],
        strategy: EliminationStrategy,
    ) -> Result<(), LinalgError> {
        let csr = match view {
            RankView::Dense(rt) => {
                let mut factor = match self.factor.take() {
                    Some(RstarFactor::Dense(factor)) => factor,
                    _ => DenseFactor::default(),
                };
                factor.scan(rt, order, strategy);
                self.kept.clear();
                self.kept.extend_from_slice(factor.cols());
                self.kept.sort_unstable();
                self.factor = Some(RstarFactor::Dense(factor));
                return Ok(());
            }
            RankView::Tree(tree) => {
                let mut factor = match self.factor.take() {
                    Some(RstarFactor::Tree(factor)) => factor,
                    _ => TreeFactor::default(),
                };
                factor.scan(tree, order, strategy);
                self.kept.clear();
                self.kept.extend_from_slice(factor.cols());
                self.kept.sort_unstable();
                self.factor = Some(RstarFactor::Tree(factor));
                return Ok(());
            }
            RankView::Sparse(csr) => csr,
        };
        let kept = match strategy {
            EliminationStrategy::PaperOrder => {
                let cut = bisect_cut(csr, order, self.cut);
                self.cut = Some(cut);
                sorted(&order[cut..])
            }
            // Greedy is dense at every size: it reads one column at a
            // time.
            EliminationStrategy::GreedyMatroid => sorted(dense_factor(red, order, strategy).cols()),
        };
        if kept == self.kept && matches!(self.factor, Some(RstarFactor::Sparse(_))) {
            return Ok(());
        }
        csr.select_columns_into(&kept, &mut self.rstar);
        let rstar = std::mem::replace(&mut self.rstar, CsrMatrix::empty(0));
        let factored = match self.factor.take() {
            Some(RstarFactor::Sparse(mut qr)) => qr.refactor(rstar).map(|prev| {
                // The displaced matrix becomes the next selection buffer.
                self.rstar = prev;
                qr
            }),
            _ => SparseQr::new(rstar),
        };
        match factored {
            Ok(qr) => {
                self.factor = Some(RstarFactor::Sparse(qr));
                self.kept = kept;
                Ok(())
            }
            Err(e) => {
                self.kept.clear();
                Err(e)
            }
        }
    }

    /// Solves `Y = R* X*` for one snapshot and expands the solution to
    /// per-link rates over all `nc` links.
    pub(crate) fn rates(&self, nc: usize, y: &[f64]) -> Result<LinkRateEstimate, LinalgError> {
        match &self.factor {
            Some(RstarFactor::Dense(factor)) => {
                Ok(rates_from_solution(nc, factor.cols(), &factor.solve(y)?))
            }
            Some(RstarFactor::Sparse(qr)) => Ok(rates_from_solution(
                nc,
                &self.kept,
                &qr.solve_least_squares(y)?,
            )),
            Some(RstarFactor::Tree(factor)) => {
                Ok(rates_from_solution(nc, factor.cols(), &factor.solve(y)))
            }
            None => Err(LinalgError::DimensionMismatch(
                "no Phase-2 model fitted yet — ingest more snapshots".to_string(),
            )),
        }
    }

    /// The kept columns, ascending (empty while unfitted).
    pub(crate) fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Drops the fit (the routing matrix changed). The cut survives as
    /// an output-neutral hint for the next sparse bisection.
    pub(crate) fn clear(&mut self) {
        self.kept.clear();
        self.factor = None;
    }
}

/// The snapshot check every Phase-2 entry point runs: `y` must hold one
/// log rate per path (`np` of them) or a
/// [`LinalgError::DimensionMismatch`] is returned, and every entry must
/// be finite or [`LinalgError::NonFinite`] names the first that is not.
/// A NaN rate would read as "not congested" under every loss threshold.
pub(crate) fn check_snapshot(np: usize, y: &[f64]) -> Result<(), LinalgError> {
    if y.len() != np {
        return Err(LinalgError::DimensionMismatch(format!(
            "snapshot covers {} paths, topology has {np}",
            y.len()
        )));
    }
    match y.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(LinalgError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Runs Phase 2: solves the reduced first-moment system for one
/// snapshot's log measurements `y` and returns per-link rates.
///
/// The factorisation family follows `cfg.dispatch`: below the dense
/// threshold one column-append QR scan selects the columns and factors
/// `R*` (the LIA core fits the same model, so the two stay
/// bit-identical); above it the rank checks and the reduced solve both
/// go through the sparse Givens QR without ever densifying `R`.
///
/// A mis-sized `y` returns [`LinalgError::DimensionMismatch`], and a NaN
/// or ±∞ entry [`LinalgError::NonFinite`] naming the first one.
pub fn infer_link_rates(
    red: &ReducedTopology,
    variances: &[f64],
    y: &[f64],
    cfg: &LiaConfig,
) -> Result<LinkRateEstimate, LinalgError> {
    check_snapshot(red.num_paths(), y)?;
    assert_eq!(
        variances.len(),
        red.num_links(),
        "got {} variances for {} links",
        variances.len(),
        red.num_links()
    );
    let mut model = Phase2Model::default();
    let view = RankView::new(red, cfg.dispatch);
    model.fit(red, &view, &variance_order(variances), cfg.elimination)?;
    model.rates(red.num_links(), y)
}

/// Expands a reduced-system solution `X*` (log rates of the kept
/// columns, in the order of `kept`) into per-link transmission rates.
pub(crate) fn rates_from_solution(nc: usize, kept: &[usize], xstar: &[f64]) -> LinkRateEstimate {
    let mut transmission = vec![1.0; nc];
    let mut kept_mask = vec![false; nc];
    for (pos, &k) in kept.iter().enumerate() {
        // X_k = log φ_k; clamp into [0, 1] (sampling noise can push the
        // estimate slightly above 0 in log space).
        transmission[k] = xstar[pos].exp().clamp(0.0, 1.0);
        kept_mask[k] = true;
    }
    LinkRateEstimate {
        transmission,
        kept: kept_mask,
        kept_count: kept.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::fixtures;

    fn fig1() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
    }

    #[test]
    fn paper_order_drops_smallest_variances() {
        let red = fig1();
        // R is 3×5 with rank 3: at least 2 columns must go. Give the
        // "congested" links 0 and 2 large variances.
        let variances = vec![0.5, 0.001, 0.3, 0.002, 0.003];
        let kept = select_full_rank_columns(&red, &variances, EliminationStrategy::PaperOrder);
        assert!(kept.len() <= 3);
        assert!(kept.contains(&0), "highest-variance link must survive");
        // The kept set must be full column rank.
        let sub = red.matrix.to_dense().select_columns(&kept);
        assert_eq!(losstomo_linalg::rank(&sub), kept.len());
    }

    #[test]
    fn stale_hints_reproduce_the_cold_bisection_exactly() {
        // The sparse view's warm-start path gallops outward from a stale
        // hint; every possible hint (certified, drifted either way, or
        // nonsense beyond `nc`) must land on the identical minimal cut,
        // which is also the dense scan's and the tree scan's. The tree
        // scan also matches the dense scan column for column under
        // both strategies on the full order and on subset orders, and
        // their models solve a snapshot alike.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let topo = losstomo_topology::gen::tree::generate(
            losstomo_topology::gen::tree::TreeParams {
                nodes: 60,
                max_branching: 4,
            },
            &mut rng,
        );
        let paths =
            losstomo_topology::compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
        let red = losstomo_topology::reduce(&topo.graph, &paths);
        let nc = red.num_links();
        let view = RankView::new(&red, Phase2Dispatch::Sparse);
        let dense = RankView::new(&red, Phase2Dispatch::Dense);
        let tree = RankView::new(&red, Phase2Dispatch::Auto);
        assert!(matches!(tree, RankView::Tree(_)));
        for seed in 0..3u64 {
            // A deterministic shuffled variance order per seed.
            let mut order: Vec<usize> = (0..nc).collect();
            for i in (1..nc).rev() {
                let j = ((seed + 1) * 2654435761 % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let (cold_kept, cold_cut) = select_paper_order_hinted(&red, &view, &order, None);
            assert_eq!(
                select_paper_order_hinted(&red, &dense, &order, None),
                (cold_kept.clone(), cold_cut)
            );
            assert_eq!(
                select_paper_order_hinted(&red, &tree, &order, None),
                (cold_kept.clone(), cold_cut)
            );
            let y: Vec<f64> = (0..red.num_paths())
                .map(|i| -0.01 * ((i as u64 * 7 + seed) % 13) as f64)
                .collect();
            let every_other: Vec<usize> = order.iter().copied().step_by(2).collect();
            for sub in [&order[..], &order[nc / 3..], &every_other[..]] {
                for strategy in [
                    EliminationStrategy::PaperOrder,
                    EliminationStrategy::GreedyMatroid,
                ] {
                    let RankView::Tree(links) = &tree else {
                        unreachable!()
                    };
                    let mut by_tree = TreeFactor::default();
                    let mut by_qr = DenseFactor::default();
                    assert_eq!(
                        by_tree.scan(links, sub, strategy),
                        by_qr.scan(&dense_columns(&red), sub, strategy),
                        "{strategy:?} cut"
                    );
                    assert_eq!(by_tree.cols(), by_qr.cols(), "{strategy:?} columns");
                    let (mut m_tree, mut m_dense) =
                        (Phase2Model::default(), Phase2Model::default());
                    m_tree.fit(&red, &tree, sub, strategy).unwrap();
                    m_dense.fit(&red, &dense, sub, strategy).unwrap();
                    let a = m_tree.rates(nc, &y).unwrap();
                    let b = m_dense.rates(nc, &y).unwrap();
                    assert_eq!(a.kept, b.kept);
                    for (x, z) in a.transmission.iter().zip(&b.transmission) {
                        assert!((x - z).abs() < 1e-12, "{strategy:?}: {x} vs {z}");
                    }
                }
            }
            for hint in 0..=(nc + 2) {
                let (kept, cut) = select_paper_order_hinted(&red, &view, &order, Some(hint));
                assert_eq!(cut, cold_cut, "hint {hint} drifted the cut");
                assert_eq!(kept, cold_kept, "hint {hint} drifted the kept set");
            }
        }
    }

    #[test]
    fn greedy_keeps_at_least_as_many_columns() {
        let red = fig1();
        let variances = vec![0.5, 0.001, 0.3, 0.002, 0.003];
        let paper = select_full_rank_columns(&red, &variances, EliminationStrategy::PaperOrder);
        let greedy = select_full_rank_columns(&red, &variances, EliminationStrategy::GreedyMatroid);
        assert!(greedy.len() >= paper.len());
        let sub = red.matrix.to_dense().select_columns(&greedy);
        assert_eq!(losstomo_linalg::rank(&sub), greedy.len());
    }

    #[test]
    fn exact_rates_recovered_when_congested_links_survive() {
        // Ground truth: link 0 lossy (φ=0.9), link 2 lossy (φ=0.8),
        // others perfect. Y = R log φ. With variances pointing at links
        // 0 and 2, Phase 2 must recover their rates exactly.
        let red = fig1();
        let phi_true = [0.9_f64, 1.0, 0.8, 1.0, 1.0];
        let x: Vec<f64> = phi_true.iter().map(|p| p.ln()).collect();
        let y = red.matrix.to_dense().matvec(&x).unwrap();
        let variances = vec![0.5, 0.0, 0.3, 0.0, 0.0];
        let est = infer_link_rates(&red, &variances, &y, &LiaConfig::default()).unwrap();
        assert!((est.transmission[0] - 0.9).abs() < 1e-10, "{est:?}");
        assert!((est.transmission[2] - 0.8).abs() < 1e-10);
        assert_eq!(est.transmission[1], 1.0);
        assert_eq!(est.transmission[3], 1.0);
        assert_eq!(est.transmission[4], 1.0);
    }

    #[test]
    fn congested_links_classified_by_threshold() {
        let est = LinkRateEstimate {
            transmission: vec![0.9, 1.0, 0.999],
            kept: vec![true, false, true],
            kept_count: 2,
        };
        assert_eq!(est.congested_links(0.002), vec![0]);
        let loss = est.loss_rates();
        assert!((loss[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wrong_snapshot_size_rejected() {
        let red = fig1();
        let variances = vec![0.0; red.num_links()];
        assert!(infer_link_rates(&red, &variances, &[0.0], &LiaConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "variances for")]
    fn wrong_variance_count_panics() {
        let red = fig1();
        select_full_rank_columns(&red, &[0.0], EliminationStrategy::PaperOrder);
    }

    #[test]
    fn kept_mask_consistent_with_count() {
        let red = fig1();
        let variances = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let y = vec![0.0; red.num_paths()];
        let est = infer_link_rates(&red, &variances, &y, &LiaConfig::default()).unwrap();
        assert_eq!(est.kept.iter().filter(|&&k| k).count(), est.kept_count);
    }
}
