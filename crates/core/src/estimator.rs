//! The estimator zoo: pluggable loss-inference backends behind one
//! [`LossEstimator`] trait.
//!
//! The paper's LIA is one point in a space of loss-tomography
//! estimators. This module makes the space explicit:
//!
//! | backend | idea | role |
//! |---------|------|------|
//! | [`EstimatorKind::Lia`] | two-phase GMM (Phase 1 variances, Phase 2 elimination); closed form on trees | the paper's algorithm, bit-identical to the pre-trait pipeline |
//! | [`EstimatorKind::DengFast`] | per-link moment matching + Gauss–Seidel (Deng et al.) | the speed point on meshes — skips the `O(paths²)` pair system |
//!
//! Every backend is built for one topology ([`build_estimator`]) and
//! then fed any number of measurement windows on it. LIA's backend,
//! [`LiaEstimator`], is the LIA core: it keeps the topology's pair
//! system, its tree (when the routing is one), its Phase-2 view and
//! both phases' workspaces between calls, and
//! [`crate::streaming::OnlineEstimator`] runs the same core.
//!
//! The fast backend swaps in its own Phase 1 and a variance-screened
//! Phase 2 (see [`DengFastEstimator`]) that fits the same Phase-2 model
//! on only the columns whose learned variance clears the noise floor.
//! Both backends run Phase 2's snapshot check, so a NaN or ±∞ log rate
//! is a [`LinalgError::NonFinite`] on either. The backends remain
//! oracles for each other (`tests/estimator_agreement.rs`): at the
//! paper's loss separation both must flag every truly congested link,
//! and LIA is pinned bit-identical to the historical pipeline by golden
//! fixtures.

use crate::augmented::{intersect_sorted, AugmentedSystem};
use crate::budget::{apply_budget, PairBudget, PairSelection};
use crate::covariance::{CenteredMeasurements, PairPlan};
use crate::lia::{
    check_snapshot, rates_from_solution, variance_order, variance_order_into, EliminationStrategy,
    LiaConfig, LinkRateEstimate, Phase2Model, RankView,
};
use crate::tree::{reconstruct_tree, LinkTree};
use crate::variance::{
    estimate_variances_scratch, Phase1Scratch, VarianceConfig, VarianceEstimate,
};
use losstomo_linalg::LinalgError;
use losstomo_topology::{
    ChurnError, DeltaEffect, PathId, ReducedTopology, RoutingMatrix, TopologyDelta,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which estimator backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EstimatorKind {
    /// The paper's two-phase LIA (default).
    #[default]
    Lia,
    /// Deng-style fast moment matching for general topologies.
    DengFast,
}

impl EstimatorKind {
    /// Stable lowercase name (CLI flags, bench JSON, fixture keys).
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Lia => "lia",
            EstimatorKind::DengFast => "deng-fast",
        }
    }

    /// Every backend, in frontier display order.
    pub fn all() -> [EstimatorKind; 2] {
        [EstimatorKind::Lia, EstimatorKind::DengFast]
    }

    /// Parses a backend name (the forms accepted by bench `--estimator`
    /// flags); `None` for anything unknown.
    pub fn parse(s: &str) -> Option<EstimatorKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lia" => Some(EstimatorKind::Lia),
            "deng" | "deng-fast" | "dengfast" => Some(EstimatorKind::DengFast),
            _ => None,
        }
    }
}

/// Self-reported cost and intermediate state of one estimate.
#[derive(Debug, Clone)]
pub struct EstimatorDiagnostics {
    /// The backend that produced the estimate ([`EstimatorKind::name`]).
    pub backend: &'static str,
    /// Covariance rows (path pairs) the backend consumed.
    pub rows_used: usize,
    /// Rows dropped or clamped for having negative sample covariance.
    pub dropped_rows: usize,
    /// Learnt per-link variances.
    pub variances: Vec<f64>,
}

/// One backend's answer: the per-link rate estimate plus diagnostics.
#[derive(Debug, Clone)]
pub struct EstimatorOutput {
    /// Per-link transmission rates, kept mask, and kept count — the
    /// same container every consumer of [`crate::infer_link_rates`] already
    /// speaks.
    pub estimate: LinkRateEstimate,
    /// Cost and intermediate state.
    pub diagnostics: EstimatorDiagnostics,
}

impl EstimatorOutput {
    /// Links whose estimated loss rate exceeds `threshold`.
    pub fn congested_links(&self, threshold: f64) -> Vec<usize> {
        self.estimate.congested_links(threshold)
    }
}

/// A pluggable loss-inference backend, built for one topology.
///
/// [`build_estimator`] binds a backend to a reduced topology and builds
/// what the backend needs of it once; [`estimate`] does the per-window
/// work: given the centred training measurements and the evaluation
/// snapshot's log path rates, produce per-link rates. A backend keeps
/// its workspaces between calls, and a warm backend returns the same
/// bits as a freshly built one. The trait is object-safe so
/// configuration structs can carry a [`EstimatorKind`] and dispatch at
/// run time.
///
/// [`estimate`]: LossEstimator::estimate
pub trait LossEstimator: Send {
    /// Which backend this is.
    fn kind(&self) -> EstimatorKind;

    /// Stable backend name (defaults to [`EstimatorKind::name`]).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Runs the full inference: learn whatever the backend learns from
    /// `centered` (the `m` training snapshots over the paths of the
    /// backend's topology) and solve for per-link rates against
    /// `y_eval` (the evaluation snapshot's log rates). A window over
    /// any other number of paths is a
    /// [`LinalgError::DimensionMismatch`], returned before any work.
    fn estimate(
        &mut self,
        centered: &CenteredMeasurements,
        y_eval: &[f64],
    ) -> Result<EstimatorOutput, LinalgError>;
}

/// Builds the backend for `kind` on the topology `red`.
///
/// `lia` configures Phase 2 (shared by both backends), `variance`
/// configures LIA's Phase 1, and `pair_budget` bounds LIA's augmented
/// pair system. The fast backend builds no such system, so it reads
/// neither `variance` nor the budget.
pub fn build_estimator(
    kind: EstimatorKind,
    red: &ReducedTopology,
    lia: LiaConfig,
    variance: VarianceConfig,
    pair_budget: PairBudget,
) -> Box<dyn LossEstimator> {
    match kind {
        EstimatorKind::Lia => Box::new(LiaEstimator::new(red, lia, variance, pair_budget)),
        EstimatorKind::DengFast => Box::new(DengFastEstimator {
            lia,
            red: red.clone(),
            system: DengSystem::new(red),
            view: RankView::new(red, lia.dispatch),
        }),
    }
}

/// A window over another path count than `red`'s is a
/// [`LinalgError::DimensionMismatch`].
fn check_window(red: &ReducedTopology, centered: &CenteredMeasurements) -> Result<(), LinalgError> {
    if centered.paths() == red.num_paths() {
        return Ok(());
    }
    Err(LinalgError::DimensionMismatch(format!(
        "window covers {} paths, the topology has {}",
        centered.paths(),
        red.num_paths()
    )))
}

// ---------------------------------------------------------------------
// LIA
// ---------------------------------------------------------------------

/// The paper's two-phase pipeline for one topology: the LIA core that
/// batch inference (this [`LossEstimator`]) and online inference
/// ([`crate::streaming::OnlineEstimator`]) both run.
///
/// It holds the topology's augmented pair system under `pair_budget`,
/// its tree when the routing is one, the Phase-2 view of its routing
/// matrix, and the Phase-1 and Phase-2 workspaces, so repeated fits on
/// one topology build none of them again. A fit runs Phase 1 on the
/// pair covariances and fits the Phase-2 model; a snapshot is then
/// solved against that model. On a tree under the `Auto` dispatches
/// both phases run in closed form, and the core holds no Gram, no SPD
/// factor, no dense `Rᵀ` and no column-append QR. It is pinned
/// bit-identical to the historical pipeline
/// ([`crate::estimate_variances`] then [`crate::infer_link_rates`],
/// which dispatch the same way) by `tests/golden_estimators.rs` and the
/// agreement proptests, and a warm core to a fresh one by
/// `tests/estimator_agreement.rs`.
#[derive(Debug)]
pub struct LiaEstimator {
    lia: LiaConfig,
    variance: VarianceConfig,
    pair_budget: PairBudget,
    red: ReducedTopology,
    aug: AugmentedSystem,
    /// The pair selection the budget produced (`None` when the budget
    /// didn't bite and `aug` is the full system).
    selection: Option<PairSelection>,
    /// The routing's tree, `None` on a mesh.
    tree: Option<LinkTree>,
    /// The Phase-2 routing-matrix view (the tree, or dense below the
    /// dispatch threshold and CSR above).
    view: RankView,
    phase1: Phase1Scratch,
    /// The Phase-1 estimate of the last successful fit.
    variances: Option<VarianceEstimate>,
    /// Reusable variance-order buffer.
    order: Vec<usize>,
    phase2: Phase2Model,
    /// The covariance sweep of `aug`'s pairs, planned on the first
    /// batch [`LossEstimator::estimate`] after a routing change (an
    /// online estimator sweeps its window's plan instead).
    plan: Option<PairPlan>,
    /// The batch estimate's pair covariances and the tile kernel's
    /// packing buffer, reused between calls.
    sigmas: Vec<f64>,
    panel: Vec<f64>,
}

impl LiaEstimator {
    /// Builds the core for `red`: its augmented pair system under
    /// `pair_budget`, its tree check and its Phase-2 view. Nothing is
    /// fitted yet.
    pub fn new(
        red: &ReducedTopology,
        lia: LiaConfig,
        variance: VarianceConfig,
        pair_budget: PairBudget,
    ) -> Self {
        let (aug, selection) = apply_budget(AugmentedSystem::build(red), pair_budget);
        let tree = reconstruct_tree(red);
        LiaEstimator {
            lia,
            variance,
            pair_budget,
            red: red.clone(),
            aug,
            selection,
            view: RankView::with_tree(red, lia.dispatch, tree.clone()),
            tree,
            phase1: Phase1Scratch::default(),
            variances: None,
            order: Vec::new(),
            phase2: Phase2Model::default(),
            plan: None,
            sigmas: Vec::new(),
            panel: Vec::new(),
        }
    }

    /// Phase 1 on `sigmas` (`sigmas[r]` = `Σ̂` of the pair system's
    /// row-`r` path pair), then the Phase-2 fit. Returns the wall time
    /// of each phase. On error the last successful fit's variances stay.
    pub(crate) fn fit(&mut self, sigmas: &[f64]) -> Result<(Duration, Duration), LinalgError> {
        let start = Instant::now();
        let est = estimate_variances_scratch(
            &self.red,
            &self.aug,
            sigmas,
            &self.variance,
            self.tree.as_ref(),
            &mut self.phase1,
        )?;
        let phase1 = start.elapsed();
        let start = Instant::now();
        variance_order_into(&est.v, &mut self.order);
        self.phase2
            .fit(&self.red, &self.view, &self.order, self.lia.elimination)?;
        self.variances = Some(est);
        Ok((phase1, start.elapsed()))
    }

    /// Phase 2 for one snapshot's log measurements against the fitted
    /// model, behind the snapshot check every Phase-2 entry point runs.
    pub(crate) fn rates(&self, y: &[f64]) -> Result<LinkRateEstimate, LinalgError> {
        check_snapshot(self.red.num_paths(), y)?;
        self.phase2.rates(self.red.num_links(), y)
    }

    /// Applies a routing delta: rebuilds the pair system, the tree
    /// check and the view as [`LiaEstimator::new`] builds them (a delta
    /// can turn a tree into a mesh and back), and forgets everything
    /// fitted on the old routing. An invalid delta returns the
    /// [`ChurnError`] and leaves the core untouched.
    pub(crate) fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<DeltaEffect, ChurnError> {
        let effect = self.red.apply_delta(delta)?;
        (self.aug, self.selection) =
            apply_budget(AugmentedSystem::build(&self.red), self.pair_budget);
        self.tree = reconstruct_tree(&self.red);
        self.view = RankView::with_tree(&self.red, self.lia.dispatch, self.tree.clone());
        self.phase1.reset();
        // The model keeps its cut as an output-neutral hint for the
        // sparse bisection.
        self.phase2.clear();
        self.variances = None;
        self.plan = None;
        Ok(effect)
    }

    /// The topology the core serves.
    pub(crate) fn topology(&self) -> &ReducedTopology {
        &self.red
    }

    /// The (budgeted) augmented pair system.
    pub(crate) fn augmented(&self) -> &AugmentedSystem {
        &self.aug
    }

    /// The budget's pair selection, or `None` when it kept every pair.
    pub(crate) fn pair_selection(&self) -> Option<&PairSelection> {
        self.selection.as_ref()
    }

    /// The Phase-1 estimate of the last successful fit.
    pub(crate) fn variances(&self) -> Option<&VarianceEstimate> {
        self.variances.as_ref()
    }

    /// Columns kept in `R*` by the last fit (ascending).
    pub(crate) fn kept_columns(&self) -> &[usize] {
        self.phase2.kept()
    }
}

impl LossEstimator for LiaEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Lia
    }

    fn estimate(
        &mut self,
        centered: &CenteredMeasurements,
        y_eval: &[f64],
    ) -> Result<EstimatorOutput, LinalgError> {
        check_window(&self.red, centered)?;
        let (aug, n_paths) = (&self.aug, self.red.num_paths());
        let plan = self.plan.get_or_insert_with(|| {
            PairPlan::from_fn(n_paths, aug.num_rows(), |r| {
                let (a, b) = aug.pair(r);
                (a.index(), b.index())
            })
        });
        let mut sigmas = std::mem::take(&mut self.sigmas);
        plan.covariances_into(centered, &mut self.panel, &mut sigmas);
        let fitted = self.fit(&sigmas);
        self.sigmas = sigmas;
        fitted?;
        let estimate = self.rates(y_eval)?;
        let var_est = self.variances.as_ref().expect("a successful fit stores it");
        Ok(EstimatorOutput {
            estimate,
            diagnostics: EstimatorDiagnostics {
                backend: self.name(),
                rows_used: var_est.used_rows,
                dropped_rows: var_est.dropped_rows,
                variances: var_est.v.clone(),
            },
        })
    }
}

// ---------------------------------------------------------------------
// Deng-style fast moment matching (general topologies)
// ---------------------------------------------------------------------

/// Gauss–Seidel sweeps of the fast backend's redistribution loop.
const DENG_SWEEPS: usize = 8;

/// Deng-style fast estimator for general topologies.
///
/// Fast on **both** phases:
///
/// * *Phase 1* — instead of the `O(paths²)`-row augmented system, it
///   picks a handful of covariance equations *per link* (pairs drawn
///   from that link's traverser list), then redistributes each
///   equation's covariance mass across its links with a few damped
///   Gauss–Seidel sweeps of
///   `v_k ← mean over rows ∋ k of (σ_r − Σ_{l ∈ row, l ≠ k} v_l)`
///   clamped at zero — `O(links · m)` instead of `O(pairs · m)`.
/// * *Phase 2* — instead of running the paper-order selection over
///   every link, it **screens** columns by learned variance: links
///   below [`DENG_SCREEN_FACTOR`] × the median (the noise floor, since
///   congestion is sparse) are declared loss-free outright, and only
///   the small candidate set enters the paper-order selection and the
///   reduced solve. If congestion is *not* sparse (candidates exceed
///   half the links) it falls back to the full [`crate::infer_link_rates`]
///   rather than mis-screen.
///
/// The variances are approximate, but detection only consumes their
/// *order* and the screened solve still least-squares the surviving
/// columns, so accuracy stays within a few DR points of LIA while the
/// wall-clock drops by the candidate-set ratio (the `scale_estimators`
/// bench gates ≥2× on the paper-scale Waxman mesh).
///
/// The equation set, its row supports and the Phase-2 view are
/// constants of the topology, built once in [`build_estimator`].
#[derive(Debug, Clone)]
pub struct DengFastEstimator {
    /// Phase-2 configuration (dispatch shared with LIA; the
    /// elimination strategy only applies on the dense-congestion
    /// fallback path).
    lia: LiaConfig,
    red: ReducedTopology,
    system: DengSystem,
    /// The Phase-2 view of the routing matrix under `lia.dispatch`.
    view: RankView,
}

/// Variance screening factor for the fast backend's Phase 2: links
/// whose learned variance is at or below this multiple of the median
/// variance (the noise floor under sparse congestion) are treated as
/// loss-free without entering the paper-order selection.
pub const DENG_SCREEN_FACTOR: f64 = 10.0;

/// The fast backend's screened Phase 2: select and solve only the
/// columns whose learned variance clears the noise floor, on `view`, a
/// [`RankView`] of `red.matrix` under `cfg.dispatch`.
fn deng_screened_phase2(
    red: &ReducedTopology,
    view: &RankView,
    variances: &[f64],
    y: &[f64],
    cfg: &LiaConfig,
) -> Result<LinkRateEstimate, LinalgError> {
    check_snapshot(red.num_paths(), y)?;
    let nc = red.num_links();
    if nc == 0 {
        return Ok(rates_from_solution(0, &[], &[]));
    }
    let mut sorted = variances.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tau = sorted[nc / 2] * DENG_SCREEN_FACTOR;
    let mut candidates: Vec<usize> = (0..nc).filter(|&k| variances[k] > tau).collect();
    let mut model = Phase2Model::default();
    // Dense congestion defeats the median-as-noise-floor assumption;
    // fall back to the full paper-order Phase 2 rather than mis-screen.
    if candidates.len() * 2 > nc {
        model.fit(red, view, &variance_order(variances), cfg.elimination)?;
        return model.rates(nc, y);
    }
    if candidates.is_empty() {
        return Ok(rates_from_solution(nc, &[], &[]));
    }
    // Paper-order semantics within the candidate set: drop the minimal
    // prefix of smallest-variance candidates until the rest is
    // independent. The scan (or the sparse bisection) touches only
    // candidate columns.
    candidates.sort_by(|&a, &b| variances[a].total_cmp(&variances[b]));
    model.fit(red, view, &candidates, EliminationStrategy::PaperOrder)?;
    model.rates(nc, y)
}

/// The fast backend's equation set: a few path pairs per link, chosen
/// from the link's traverser list without building the full pair
/// system. Exposed for the bench binary's row-count reporting.
pub fn deng_select_pairs(red: &ReducedTopology) -> Vec<(usize, usize)> {
    let ppl = red.paths_per_link();
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::new();
    let mut push = |a: usize, b: usize, pairs: &mut Vec<(usize, usize)>| {
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            pairs.push(key);
        }
    };
    for ps in &ppl {
        match ps.len() {
            0 => {}
            1 => push(ps[0].index(), ps[0].index(), &mut pairs),
            n => {
                // Spread the picks across the traverser list so nearby
                // links don't all select the same pair: first two,
                // ends, and a middle-adjacent pair.
                push(ps[0].index(), ps[1].index(), &mut pairs);
                push(ps[0].index(), ps[n - 1].index(), &mut pairs);
                if n > 2 {
                    push(ps[n / 2].index(), ps[n / 2 - 1].index(), &mut pairs);
                }
            }
        }
    }
    pairs
}

/// The fast backend's Phase 1: per-link pair selection + Gauss–Seidel
/// redistribution. Returns `(variances, rows_used, clamped_rows)`.
pub fn deng_fast_variances(
    red: &ReducedTopology,
    centered: &CenteredMeasurements,
) -> (Vec<f64>, usize, usize) {
    DengSystem::new(red).variances(centered)
}

/// The fast backend's equation set on one topology: the pairs
/// [`deng_select_pairs`] picks, each pair's shared links, and the rows
/// through each link.
#[derive(Debug, Clone)]
struct DengSystem {
    pairs: Vec<(usize, usize)>,
    /// Row `r`: the links pair `r` shares.
    rows: RoutingMatrix,
    /// Per link: the rows through it.
    rows_of: Vec<Vec<usize>>,
}

impl DengSystem {
    fn new(red: &ReducedTopology) -> Self {
        let pairs = deng_select_pairs(red);
        let mut rows = RoutingMatrix::builder(red.num_links());
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); red.num_links()];
        for (r, &(a, b)) in pairs.iter().enumerate() {
            let (pa, pb) = (PathId(a as u32), PathId(b as u32));
            let row = if a == b {
                red.path_links(pa).to_vec()
            } else {
                intersect_sorted(red.path_links(pa), red.path_links(pb))
            };
            for &k in &row {
                rows_of[k].push(r);
            }
            rows.push_sorted_row(&row);
        }
        DengSystem {
            pairs,
            rows: rows.build(),
            rows_of,
        }
    }

    /// Phase 1 on `centered`: `(variances, rows_used, clamped_rows)`.
    fn variances(&self, centered: &CenteredMeasurements) -> (Vec<f64>, usize, usize) {
        let nc = self.rows_of.len();
        let mut sigmas = centered.pair_covariances(&self.pairs);
        // Negative sample covariances carry no variance information
        // (the paper drops those rows; here we clamp so the row still
        // pins its links' variances toward zero).
        let mut clamped = 0usize;
        for s in sigmas.iter_mut() {
            if *s < 0.0 {
                *s = 0.0;
                clamped += 1;
            }
        }
        // Gauss–Seidel: each sweep re-solves every link's equations
        // given the current estimates of the other links on its rows.
        let mut v = vec![0.0_f64; nc];
        let mut row_sum: Vec<f64> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|&l| v[l]).sum())
            .collect();
        for _ in 0..DENG_SWEEPS {
            for (k, rows_of) in self.rows_of.iter().enumerate() {
                if rows_of.is_empty() {
                    continue;
                }
                let mut acc = 0.0;
                for &r in rows_of {
                    acc += sigmas[r] - (row_sum[r] - v[k]);
                }
                let new = (acc / rows_of.len() as f64).max(0.0);
                let delta = new - v[k];
                if delta != 0.0 {
                    for &r in rows_of {
                        row_sum[r] += delta;
                    }
                    v[k] = new;
                }
            }
        }
        (v, self.pairs.len(), clamped)
    }
}

impl LossEstimator for DengFastEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::DengFast
    }

    fn estimate(
        &mut self,
        centered: &CenteredMeasurements,
        y_eval: &[f64],
    ) -> Result<EstimatorOutput, LinalgError> {
        check_window(&self.red, centered)?;
        let (v, rows_used, clamped) = self.system.variances(centered);
        let estimate = deng_screened_phase2(&self.red, &self.view, &v, y_eval, &self.lia)?;
        Ok(EstimatorOutput {
            estimate,
            diagnostics: EstimatorDiagnostics {
                backend: self.name(),
                rows_used,
                dropped_rows: clamped,
                variances: v,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lia::infer_link_rates;
    use crate::variance::{estimate_variances, estimate_variances_from_sigmas};
    use losstomo_netsim::{simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig};
    use losstomo_topology::gen::tree::{self, TreeParams};
    use losstomo_topology::{compute_paths, fixtures, reduce};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_tree(seed: u64, nodes: usize) -> ReducedTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tree::generate(
            TreeParams {
                nodes,
                max_branching: 4,
            },
            &mut rng,
        );
        let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
        reduce(&t.graph, &paths)
    }

    fn simulated(
        red: &ReducedTopology,
        m: usize,
        seed: u64,
    ) -> (CenteredMeasurements, Vec<f64>, losstomo_netsim::Snapshot) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario =
            CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
        let ms = simulate_run(red, &mut scenario, &ProbeConfig::default(), m + 1, &mut rng);
        let train = losstomo_netsim::MeasurementSet {
            snapshots: ms.snapshots[..m].to_vec(),
        };
        let eval = ms.snapshots[m].clone();
        let y = eval.log_rates();
        (CenteredMeasurements::new(&train), y, eval)
    }

    #[test]
    fn kind_names_roundtrip_through_parse() {
        for kind in EstimatorKind::all() {
            assert_eq!(EstimatorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EstimatorKind::parse("deng"), Some(EstimatorKind::DengFast));
        assert_eq!(EstimatorKind::parse("nope"), None);
    }

    #[test]
    fn build_dispatches_every_kind() {
        let red = fixtures::reduced(&fixtures::figure1());
        for kind in EstimatorKind::all() {
            let est = build_estimator(
                kind,
                &red,
                LiaConfig::default(),
                VarianceConfig::default(),
                PairBudget::Full,
            );
            assert_eq!(est.kind(), kind);
            assert_eq!(est.name(), kind.name());
        }
    }

    #[test]
    fn lia_backend_is_bit_identical_to_manual_pipeline() {
        let red = small_tree(11, 60);
        let (centered, y, _) = simulated(&red, 25, 5);
        let mut backend = LiaEstimator::new(
            &red,
            LiaConfig::default(),
            VarianceConfig::default(),
            PairBudget::Full,
        );
        let out = backend.estimate(&centered, &y).unwrap();
        let aug = AugmentedSystem::build(&red);
        let var_est =
            estimate_variances(&red, &aug, &centered, &VarianceConfig::default()).unwrap();
        let manual = infer_link_rates(&red, &var_est.v, &y, &LiaConfig::default()).unwrap();
        assert_eq!(out.estimate.kept, manual.kept);
        for (a, b) in out.estimate.transmission.iter().zip(&manual.transmission) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in out.diagnostics.variances.iter().zip(&var_est.v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(out.diagnostics.dropped_rows, var_est.dropped_rows);
    }

    #[test]
    fn tree_path_recovers_exact_variances_from_exact_covariances() {
        let red = small_tree(12, 80);
        let aug = AugmentedSystem::build(&red);
        // Synthetic ground-truth variances, then exact covariances
        // sigma_r = sum of v_true over the row's shared links.
        let v_true: Vec<f64> = (0..red.num_links())
            .map(|k| 1e-4 + 1e-3 * ((k * 7 % 13) as f64))
            .collect();
        let sigmas: Vec<f64> = (0..aug.num_rows())
            .map(|r| aug.row(r).iter().map(|&k| v_true[k]).sum())
            .collect();
        // Exact covariances are non-negative, so the drop keeps every
        // row and both settings solve the same rows.
        for drop_negative_covariances in [true, false] {
            let cfg = VarianceConfig {
                drop_negative_covariances,
                ..VarianceConfig::default()
            };
            let est = estimate_variances_from_sigmas(&red, &aug, &sigmas, &cfg).unwrap();
            assert_eq!(est.fallback, None);
            assert_eq!(est.used_rows, aug.num_rows());
            for (k, (a, b)) in est.v.iter().zip(&v_true).enumerate() {
                assert!(
                    (a - b).abs() < 1e-10,
                    "link {k}, drop {drop_negative_covariances}: estimate {a}, truth {b}"
                );
            }
        }
    }

    #[test]
    fn deng_pairs_cover_every_traversed_link() {
        let red = small_tree(16, 80);
        let pairs = deng_select_pairs(&red);
        // Every selected pair is normalised and unique.
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(a <= b);
            assert!(seen.insert((a, b)));
        }
        // Every link appears in at least one pair's shared set.
        let mut covered = vec![false; red.num_links()];
        for &(a, b) in &pairs {
            let row = if a == b {
                red.path_links(losstomo_topology::PathId(a as u32)).to_vec()
            } else {
                intersect_sorted(
                    red.path_links(losstomo_topology::PathId(a as u32)),
                    red.path_links(losstomo_topology::PathId(b as u32)),
                )
            };
            for k in row {
                covered[k] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "some link has no equation");
        // The whole point: far fewer rows than the full pair system.
        assert!(pairs.len() < AugmentedSystem::build(&red).num_rows());
    }

    #[test]
    fn deng_detects_congested_links_on_tree() {
        let red = small_tree(17, 100);
        let (centered, y, eval) = simulated(&red, 40, 18);
        let mut backend = build_estimator(
            EstimatorKind::DengFast,
            &red,
            LiaConfig::default(),
            VarianceConfig::default(),
            PairBudget::Full,
        );
        let out = backend.estimate(&centered, &y).unwrap();
        let threshold = losstomo_netsim::DEFAULT_LOSS_THRESHOLD;
        let est_flags: Vec<bool> = out
            .estimate
            .loss_rates()
            .iter()
            .map(|&l| l > threshold)
            .collect();
        let truth: Vec<bool> = eval.link_truth.iter().map(|t| t.congested).collect();
        let loc = crate::metrics::location_accuracy(&truth, &est_flags);
        assert!(
            loc.detection_rate > 0.7,
            "Deng DR {:.2} too low",
            loc.detection_rate
        );
    }

    /// A window over one path too few or too many is a typed error
    /// from either backend, and leaves the backend as it was.
    #[test]
    fn windows_over_other_path_counts_are_rejected() {
        let red = fixtures::reduced(&fixtures::figure2());
        let n_p = red.num_paths();
        let (centered, y, _) = simulated(&red, 20, 3);
        for kind in EstimatorKind::all() {
            let build = || {
                build_estimator(
                    kind,
                    &red,
                    LiaConfig::default(),
                    VarianceConfig::default(),
                    PairBudget::Full,
                )
            };
            let mut est = build();
            for paths in [n_p - 1, n_p + 1] {
                let rows = (0..8).map(|l| vec![-0.01 * l as f64; paths]).collect();
                let window = CenteredMeasurements::from_rows(rows);
                let err = est.estimate(&window, &y).unwrap_err();
                assert!(
                    matches!(err, LinalgError::DimensionMismatch(_)),
                    "{kind:?} on {paths} paths: {err:?}"
                );
            }
            let fresh = build().estimate(&centered, &y).unwrap().estimate;
            let warm = est.estimate(&centered, &y).unwrap().estimate;
            assert_eq!(warm.transmission, fresh.transmission);
        }
    }

    #[test]
    fn diagnostics_report_backend_and_rows() {
        let red = small_tree(19, 60);
        let (centered, y, _) = simulated(&red, 20, 20);
        for kind in EstimatorKind::all() {
            let mut est = build_estimator(
                kind,
                &red,
                LiaConfig::default(),
                VarianceConfig::default(),
                PairBudget::Full,
            );
            let out = est.estimate(&centered, &y).unwrap();
            assert_eq!(out.diagnostics.backend, kind.name());
            assert_eq!(out.diagnostics.variances.len(), red.num_links());
            assert_eq!(out.estimate.transmission.len(), red.num_links());
        }
    }
}
