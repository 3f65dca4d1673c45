//! Streaming loss inference: a covariance window and an online
//! two-phase estimator.
//!
//! The paper's estimator is batch — collect `m` snapshots, form the
//! sample covariance (eq. 7), solve `Σ* = A v` — but a production
//! monitor sees snapshots arrive as a stream and wants congested-link
//! sets that update per snapshot, not per recomputation. This module
//! provides the two pieces:
//!
//! * [`StreamingCovariance`] is a window of retained snapshot rows,
//!   unbounded or sliding: an ingest appends one row of log
//!   measurements and, when a sliding window overflows, evicts the
//!   oldest. The covariances of the augmented path pairs are read by an
//!   **exact replay** over the retained window, through the window's
//!   [`PairPlan`] (4×8 tiles on a tree, the pair kernel on a mesh). It
//!   is bit-identical to the batch
//!   [`CenteredMeasurements::pair_covariances`] sweep — each covariance
//!   takes the same additions in the same order — so a streaming refresh
//!   reproduces a batch recompute exactly. After a routing change
//!   ([`StreamingCovariance::apply_churn`]) the replay is the same sweep
//!   over every pair, followed by a re-sweep of only the pairs on a
//!   changed path over the rows since the change, each restart group
//!   through a plan of its own.
//! * [`OnlineEstimator`] is a covariance window and a refresh cadence
//!   around the LIA core that batch inference runs too
//!   ([`crate::estimator::LiaEstimator`]): each refresh fits the core
//!   on the window's pair covariances, and each snapshot is solved
//!   against the fitted model. On a tree routing a refresh solves both
//!   phases in closed form and builds no Gram. On a mesh the core keeps
//!   its Phase-1 Gram counts patched incrementally (integer
//!   co-occurrence counts, so patched and from-scratch assemblies are
//!   exactly equal) and its all-rows factor cached between refreshes.
//!   Refresh cadence is configurable, and every ingest reports
//!   congested-set changes
//!   ([`OnlineUpdate::appeared`] / [`OnlineUpdate::cleared`]).
//!
//! ## Exactness contract
//!
//! With an unbounded window ([`WindowMode::Unbounded`], the default),
//! ingesting `m` snapshots and refreshing produces **bit-for-bit** the
//! Phase-1 variances and Phase-2 link rates of the batch pipeline
//! ([`estimate_variances`][crate::estimate_variances] followed by
//! [`infer_link_rates`][crate::infer_link_rates]) on the same `m`
//! snapshots: the replayed covariances are the same bits, Phase 1 runs
//! the same code (on a mesh, over the same integer Gram counts), and
//! the Phase-2 model is fitted by the same code over the same variance
//! order and solved by the same kernel. A sliding window is equally
//! exact over its window: every window mode replays its retained rows.
//!
//! ## Memory and refresh cost
//!
//! The exactness contract requires replaying the retained window, so
//! [`WindowMode::Unbounded`] (the default, matching the paper's
//! grow-forever batch regime) buffers every ingested row and its
//! refresh cost grows with the history length. A monitor that runs
//! indefinitely should bound its state with [`WindowMode::Sliding`]
//! (exact over the window, `O(w)` rows retained) and/or lengthen
//! [`OnlineConfig::refresh_every`].

use crate::augmented::AugmentedSystem;
use crate::budget::{PairBudget, PairSelection};
use crate::covariance::{CenteredMeasurements, PairPlan};
use crate::estimator::LiaEstimator;
use crate::lia::{self, LiaConfig, LinkRateEstimate};
use crate::variance::{VarianceConfig, VarianceEstimate};
use bytes::Bytes;
use losstomo_linalg::simd::cast_bytes_to_f64;
use losstomo_linalg::LinalgError;
use losstomo_netsim::Snapshot;
use losstomo_topology::{ChurnError, DeltaEffect, PathId, ReducedTopology, TopologyDelta};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How much history the streaming accumulator retains.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WindowMode {
    /// Keep every ingested snapshot (the batch regime, grown online).
    /// Memory and exact-refresh cost grow with the stream — prefer a
    /// bounded window for monitors that run indefinitely.
    #[default]
    Unbounded,
    /// Keep only the most recent `w ≥ 2` snapshots: each ingest past
    /// the `w`-th evicts the oldest retained row.
    Sliding(usize),
}

/// One retained window row: an owned decode, or a zero-copy window of
/// a wire receive buffer (alignment-checked little-endian `f64` bytes
/// — [`StreamingCovariance::ingest_wire`] only stores this variant
/// when the in-place `&[f64]` cast succeeds).
///
/// A `Wire` row pins its whole receive buffer (the `Bytes` handle is a
/// reference-counted window); the buffer is freed once every row cut
/// from it has been evicted or rewritten.
#[derive(Debug, Clone)]
enum StoredRow {
    Owned(Vec<f64>),
    Wire(Bytes),
}

impl StoredRow {
    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            StoredRow::Owned(v) => v,
            StoredRow::Wire(b) => cast_bytes_to_f64(b.as_slice())
                .expect("wire rows are stored only after the alignment check"),
        }
    }
}

/// The covariance window of a fixed pair set: its retained rows.
///
/// Feed it one row of log measurements per snapshot with
/// [`StreamingCovariance::ingest`] and read the pair covariances with
/// the batch-bit-identical replay
/// ([`StreamingCovariance::exact_covariances`]), which every
/// [`OnlineEstimator`] refresh runs. The pair set is typically
/// [`AugmentedSystem::pair_indices`] — every `Σ̂_{ii'}` Phase 1 needs.
/// The window keeps it only as its [`PairPlan`], planned on
/// construction and on every churn.
#[derive(Debug, Clone)]
pub struct StreamingCovariance {
    n_paths: usize,
    plan: PairPlan,
    mode: WindowMode,
    /// Retained rows, oldest first.
    rows: VecDeque<StoredRow>,
    total_ingested: u64,
    /// Per path: the global ingest index (count of rows ever ingested
    /// before validity) from which the path's rows describe its
    /// *current* route. `0` for paths never touched by churn; set to
    /// `total_ingested` when a churn event adds or reroutes the path.
    path_from: Vec<u64>,
    /// The pairs whose horizon (the later of their two paths') the
    /// window had not reached at the last churn, grouped by horizon in
    /// ascending order. Empty before the first churn.
    restarts: Vec<RestartGroup>,
}

/// Pairs that churn restarted at one ingest index: until the window
/// start passes `from`, an exact replay reads only their rows since.
#[derive(Debug, Clone)]
struct RestartGroup {
    /// Global ingest index of the group's first valid row.
    from: u64,
    /// The group's pair slots, ascending.
    slots: Vec<usize>,
    /// The sweep of the pairs at `slots`, in slot order.
    plan: PairPlan,
}

/// Progress of the post-churn window flush — how far the estimator is
/// from re-entering its exactness contract after a routing change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// Retained snapshots that predate the most recent churn event
    /// (their rows describe old routing for at least one pair).
    pub stale_rows: usize,
    /// Pairs restarted by churn that still have fewer than two valid
    /// snapshots — their covariances read `0.0` (no signal yet) until
    /// they warm up.
    pub warming_pairs: usize,
    /// Snapshots until every retained row postdates the last churn —
    /// the flush point at which estimates become bit-identical to a
    /// fresh estimator on the new topology. `Some(0)` = churn-free
    /// now; `None` = never ([`WindowMode::Unbounded`] retains stale
    /// rows forever).
    pub snapshots_until_flush: Option<u64>,
}

impl Staleness {
    /// Whether the window is churn-free (the exactness gate holds).
    pub fn is_flushed(&self) -> bool {
        self.snapshots_until_flush == Some(0)
    }
}

impl StreamingCovariance {
    /// Creates an accumulator for `n_paths` paths tracking `pairs`.
    ///
    /// # Panics
    /// Panics on an empty path set, a sliding window shorter than 2
    /// (the sample covariance is undefined), or a pair index out of
    /// range.
    pub fn new(n_paths: usize, pairs: Vec<(usize, usize)>, mode: WindowMode) -> Self {
        assert!(n_paths > 0, "need at least one path");
        if let WindowMode::Sliding(w) = mode {
            assert!(
                w >= 2,
                "sliding window must hold at least 2 snapshots, got {w}"
            );
        }
        StreamingCovariance {
            n_paths,
            plan: PairPlan::new(n_paths, &pairs),
            mode,
            rows: VecDeque::new(),
            total_ingested: 0,
            path_from: vec![0; n_paths],
            restarts: Vec::new(),
        }
    }

    /// Returns the window unchanged: `_every` is ignored, because the
    /// window keeps no running moments to recentre. Kept only because
    /// the repository benchmark (`perfbench/src/stream.rs`) calls it;
    /// the benchmark PR of ROADMAP item 4 deletes it.
    pub fn with_recentre_every(self, _every: usize) -> Self {
        self
    }

    /// Number of paths per snapshot row.
    pub fn paths(&self) -> usize {
        self.n_paths
    }

    /// The sweep plan of the tracked pairs (its slots are the result
    /// order).
    pub fn plan(&self) -> &PairPlan {
        &self.plan
    }

    /// Snapshots currently retained (window occupancy).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` until the first ingest.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total snapshots ever ingested (including evicted ones).
    pub fn total_ingested(&self) -> u64 {
        self.total_ingested
    }

    /// Ingests one snapshot's log measurements (`Y_i = log φ̂_i`, one
    /// entry per path): appends a copy of the row to the window and,
    /// when a sliding window overflows, evicts the oldest row. No
    /// covariance work happens here; the replay reads the window.
    ///
    /// # Panics
    /// Panics if `row` does not have one entry per path.
    pub fn ingest(&mut self, row: &[f64]) {
        self.push(StoredRow::Owned(row.to_vec()));
    }

    /// Zero-copy variant of [`StreamingCovariance::ingest`]: `row` is
    /// `n_paths × 8` little-endian `f64` bytes straight off the wire.
    /// When the buffer is 8-byte aligned (and the host little-endian)
    /// the row is **retained by reference** — the window stores an
    /// O(1) handle to the receive buffer instead of copying the row.
    /// Otherwise it decodes once and takes the owned path. The replay
    /// is bit-identical either way.
    ///
    /// Note the retention trade-off: a wire-backed row pins its whole
    /// receive buffer until eviction (see
    /// [`WindowMode::Sliding`]) — callers batching many tenants into
    /// one buffer amortise this; callers cherry-picking one row from a
    /// huge buffer may prefer the owned path.
    ///
    /// # Panics
    /// Panics if `row` is not `n_paths × 8` bytes long.
    pub fn ingest_wire(&mut self, row: &Bytes) {
        let stored = if cast_bytes_to_f64(row.as_slice()).is_some() {
            StoredRow::Wire(row.clone())
        } else {
            let mut decoded = Vec::new();
            decode_wire_row(row.as_slice(), &mut decoded).unwrap_or_else(|e| panic!("{e}"));
            StoredRow::Owned(decoded)
        };
        self.push(stored);
    }

    /// Appends `row` to the window and evicts the oldest row when a
    /// sliding window overflows.
    fn push(&mut self, row: StoredRow) {
        let width = row.as_slice().len();
        assert_eq!(
            width, self.n_paths,
            "snapshot covers {width} paths, accumulator tracks {}",
            self.n_paths
        );
        self.total_ingested += 1;
        self.rows.push_back(row);
        if let WindowMode::Sliding(w) = self.mode {
            if self.rows.len() > w {
                self.rows.pop_front();
            }
        }
    }

    /// The exact pair covariances of the retained window — bit-identical
    /// to the batch [`CenteredMeasurements::pair_covariances`] over the
    /// same rows, by the replay every [`OnlineEstimator`] refresh runs.
    /// While the window still holds pre-churn rows, a pair that churn
    /// restarted reads only the rows since its restart (see
    /// [`StreamingCovariance::apply_churn`]), and `0.0` while those are
    /// fewer than two.
    ///
    /// # Panics
    /// Panics with fewer than two retained snapshots.
    pub fn exact_covariances(&self) -> Vec<f64> {
        let mut scratch = RefreshScratch::default();
        self.replay_into(&mut scratch);
        scratch.sigmas
    }

    /// The window replay into `scratch.sigmas`: the planned sweep over
    /// every pair, then, for each restart group the window start has not
    /// passed, a sweep of only that group's pairs over the rows since
    /// its restart, written over their slots. A pair's covariance reads
    /// only its own two deviation rows, so neither sweep's bits depend
    /// on the other pairs in its list or on the kernel its plan picked.
    fn replay_into(&self, scratch: &mut RefreshScratch) {
        let RefreshScratch {
            sigmas,
            centered,
            group,
            panel,
        } = scratch;
        centered.recentre_from_iter(self.rows.iter().map(StoredRow::as_slice));
        self.plan.covariances_into(centered, panel, sigmas);
        let ws = self.window_start();
        for g in self.restarts.iter().filter(|g| g.from > ws) {
            let offset = (g.from - ws) as usize;
            if self.rows.len() - offset < 2 {
                // Warming: no sample covariance yet.
                for &slot in &g.slots {
                    sigmas[slot] = 0.0;
                }
                continue;
            }
            centered.recentre_from_iter(self.rows.range(offset..).map(StoredRow::as_slice));
            g.plan.covariances_into(centered, panel, group);
            for (&slot, &c) in g.slots.iter().zip(group.iter()) {
                sigmas[slot] = c;
            }
        }
    }

    /// Global ingest index of the oldest retained row.
    fn window_start(&self) -> u64 {
        self.total_ingested - self.rows.len() as u64
    }

    /// Whether every retained row postdates the last churn event — the
    /// gate for the exactness contract (a churn-free window replays
    /// bit-identically to a fresh accumulator fed the same rows).
    /// Always `true` before the first [`StreamingCovariance::apply_churn`].
    pub fn is_churn_free(&self) -> bool {
        self.last_restart() <= self.window_start()
    }

    /// The latest horizon of any restart group (`0` before the first
    /// churn): the window is churn-free once its start reaches it.
    fn last_restart(&self) -> u64 {
        self.restarts.last().map_or(0, |g| g.from)
    }

    /// How far the window is from flushing its pre-churn history — see
    /// [`Staleness`].
    pub fn staleness(&self) -> Staleness {
        let ws = self.window_start();
        let last = self.last_restart();
        let stale_rows = (last.saturating_sub(ws) as usize).min(self.rows.len());
        // Every row since a pending restart is retained, so a group
        // warms while fewer than two rows have arrived since it.
        let warming_pairs = self
            .restarts
            .iter()
            .filter(|g| g.from > ws && self.total_ingested - g.from < 2)
            .map(|g| g.slots.len())
            .sum();
        let snapshots_until_flush = match self.mode {
            _ if last <= ws => Some(0),
            WindowMode::Sliding(w) => Some(stale_rows as u64 + (w - self.rows.len()) as u64),
            // An unbounded window never evicts, so stale rows never
            // leave. Callers that need the flush should bound the
            // window before churning.
            WindowMode::Unbounded => None,
        };
        Staleness {
            stale_rows,
            warming_pairs,
            snapshots_until_flush,
        }
    }

    /// Rewires the accumulator across a routing change: retained rows
    /// are remapped to the new path numbering (columns of removed paths
    /// drop, columns of added paths read a `0.0` filler that no pair on
    /// an added path replays), and added or rerouted paths restart with
    /// a validity horizon of "now". Each pair's horizon is the later of
    /// its two paths' horizons, so a pair of unchanged paths keeps its
    /// whole history — whether or not it was tracked before — and a
    /// pair on a changed path replays only post-churn rows until the
    /// window flushes. The pairs whose horizon the window has not yet
    /// reached are recorded here, grouped by horizon, for the replay;
    /// the pair set and each group are planned here too.
    ///
    /// `new_pairs` is the post-churn pair set (typically
    /// [`AugmentedSystem::pair_indices`] of the rebuilt system) and
    /// `effect` the [`DeltaEffect`] of the routing change.
    pub fn apply_churn(
        &mut self,
        new_n_paths: usize,
        new_pairs: Vec<(usize, usize)>,
        effect: &DeltaEffect,
    ) {
        assert!(new_n_paths > 0, "need at least one path");
        let id_map = &effect.id_map;
        assert_eq!(id_map.len(), self.n_paths, "one id_map entry per old path");
        let plan = PairPlan::new(new_n_paths, &new_pairs);
        let now = self.total_ingested;
        // Remap retained rows to the new numbering. Wire-backed rows
        // turn into owned rows here (their receive buffer describes
        // the old path numbering and is released).
        for row in self.rows.iter_mut() {
            let mut new_row = vec![0.0; new_n_paths];
            let old_row = row.as_slice();
            for (old_i, &mapped) in id_map.iter().enumerate() {
                if let Some(new_i) = mapped {
                    new_row[new_i.index()] = old_row[old_i];
                }
            }
            *row = StoredRow::Owned(new_row);
        }
        // Surviving paths keep their horizons; added (unmapped) and
        // changed paths restart at "now".
        let mut path_from = vec![now; new_n_paths];
        for (&old_from, mapped) in self.path_from.iter().zip(id_map) {
            if let Some(new_i) = mapped {
                path_from[new_i.index()] = old_from;
            }
        }
        for p in &effect.changed {
            path_from[p.index()] = now;
        }
        // Horizons change only here, so the replay groups are fixed
        // here: every pair whose horizon the window has not reached,
        // grouped by horizon, slots ascending.
        let ws = self.window_start();
        let mut pending: Vec<(u64, usize)> = new_pairs
            .iter()
            .enumerate()
            .map(|(slot, &(a, b))| (path_from[a].max(path_from[b]), slot))
            .filter(|&(from, _)| from > ws)
            .collect();
        pending.sort_unstable();
        self.restarts = pending
            .chunk_by(|x, y| x.0 == y.0)
            .map(|group| {
                let pairs: Vec<(usize, usize)> =
                    group.iter().map(|&(_, slot)| new_pairs[slot]).collect();
                RestartGroup {
                    from: group[0].0,
                    slots: group.iter().map(|&(_, slot)| slot).collect(),
                    plan: PairPlan::new(new_n_paths, &pairs),
                }
            })
            .collect();
        self.path_from = path_from;
        self.plan = plan;
        self.n_paths = new_n_paths;
    }
}

/// Decodes a wire row of little-endian `f64` bytes into `out` (cleared
/// first): what both wire ingest paths fall back on when the in-place
/// cast fails on a misaligned buffer or a big-endian host. A length
/// that is not a whole number of `f64`s decodes nothing and is a
/// [`LinalgError::DimensionMismatch`].
fn decode_wire_row(bytes: &[u8], out: &mut Vec<f64>) -> Result<(), LinalgError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(LinalgError::DimensionMismatch(format!(
            "wire row of {} bytes is not a whole number of f64s",
            bytes.len()
        )));
    }
    out.clear();
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))),
    );
    Ok(())
}

/// Configuration of the online estimator.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// History retention for the covariance accumulator.
    pub window: WindowMode,
    /// Run a Phase-1 + Phase-2-structure refresh every `k ≥ 1` ingests.
    /// Between refreshes, Phase 2 reuses the cached column set and
    /// factorisation with each new snapshot's measurements (exact).
    ///
    /// `usize::MAX` is the **manual-refresh sentinel**: ingest never
    /// auto-refreshes — not even the warm-up attempts it otherwise
    /// makes while no model exists — so ingest is pure covariance
    /// accumulation until [`OnlineEstimator::refresh`] is called
    /// explicitly. High-rate feeds (the `fleet_ingest` service-edge
    /// harness) use this to keep Phase 1/2 entirely off the ingest
    /// hot path.
    pub refresh_every: usize,
    /// Phase-1 settings.
    pub variance: VarianceConfig,
    /// Phase-2 settings.
    pub lia: LiaConfig,
    /// Loss-rate threshold above which a link counts as congested for
    /// change detection (the paper's `t_l`).
    pub congestion_threshold: f64,
    /// Row budget for the augmented pair system (default: full).
    /// Applied at construction and again after every routing change;
    /// the selection is readable via
    /// [`OnlineEstimator::pair_selection`].
    pub pair_budget: PairBudget,
    /// Ignored: the covariance window keeps no running moments to
    /// recentre (default `0`). Kept only because the repository
    /// benchmark (`perfbench/src/stream.rs`) reads it; the benchmark PR
    /// of ROADMAP item 4 deletes it.
    pub recentre_every: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: WindowMode::Unbounded,
            refresh_every: 1,
            variance: VarianceConfig::default(),
            lia: LiaConfig::default(),
            congestion_threshold: losstomo_netsim::DEFAULT_LOSS_THRESHOLD,
            pair_budget: PairBudget::default(),
            recentre_every: 0,
        }
    }
}

/// The reusable buffers of the window replay
/// ([`StreamingCovariance::exact_covariances`]), kept between the
/// refreshes of one [`OnlineEstimator`]: a steady-state refresh, of a
/// churned window too, allocates nothing here. The Phase-1 and Phase-2
/// workspaces live in the estimator's LIA core, so on the dense Phase-2
/// path (the default up to [`crate::lia::DENSE_MAX_COLS`] links) what a
/// steady-state refresh still allocates is Phase 1's
/// [`VarianceEstimate`] vector; the sparse Phase-2 path, when
/// dispatched, allocates in its rank checks.
#[derive(Debug)]
struct RefreshScratch {
    /// Pair covariances of the current refresh.
    sigmas: Vec<f64>,
    /// The centred window, or the suffix of one restart group.
    centered: CenteredMeasurements,
    /// One restart group's covariances, before they are written over
    /// the group's slots of `sigmas`.
    group: Vec<f64>,
    /// The tile kernel's packing buffer.
    panel: Vec<f64>,
}

impl Default for RefreshScratch {
    fn default() -> Self {
        RefreshScratch {
            sigmas: Vec::new(),
            centered: CenteredMeasurements::empty(),
            group: Vec::new(),
            panel: Vec::new(),
        }
    }
}

/// What one [`OnlineEstimator::ingest`] produced.
#[derive(Debug, Clone)]
pub struct OnlineUpdate {
    /// Whether this ingest triggered a Phase-1/Phase-2-structure
    /// refresh (per the configured cadence).
    pub refreshed: bool,
    /// Per-link rate estimate for the ingested snapshot (`None` while
    /// the estimator is still warming up).
    pub estimate: Option<LinkRateEstimate>,
    /// Links currently diagnosed congested (ascending).
    pub congested: Vec<usize>,
    /// Links that entered the congested set with this snapshot.
    pub appeared: Vec<usize>,
    /// Links that left the congested set with this snapshot.
    pub cleared: Vec<usize>,
}

/// Wall-clock breakdown of the last successful refresh, by phase —
/// what makes a tail-latency spike attributable: a covariance spike
/// points at the window replay, a Phase-1 spike at the moment-system
/// solve (e.g. a kept-row factorisation instead of the cached all-rows
/// solve), a Phase-2 spike at the column selection and factorisation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshTiming {
    /// Covariance assembly: the window replay into the sigma buffer.
    pub covariance: Duration,
    /// Phase 1: the moment-system solve for the link variances.
    pub phase1: Duration,
    /// Phase 2: variance ordering, column selection and factorisation
    /// of `R*`.
    pub phase2: Duration,
}

/// The streaming two-phase estimator: ingest snapshots one at a time,
/// read back per-link loss rates and congested-set changes.
///
/// See the [module docs](self) for the incremental machinery and the
/// exactness contract. Typical use:
///
/// ```text
/// let mut est = OnlineEstimator::new(&red, OnlineConfig::default());
/// for snapshot in simulate_stream(&red, scenario, &probe_cfg, rng) {
///     let update = est.ingest(&snapshot)?;
///     for k in update.appeared { alert_congested(k); }
/// }
/// ```
#[derive(Debug)]
pub struct OnlineEstimator {
    cfg: OnlineConfig,
    /// The LIA core: the topology, its pair system and Phase-2 view,
    /// the Phase-1 and Phase-2 workspaces and the fitted model.
    core: LiaEstimator,
    cov: StreamingCovariance,
    congested: Vec<usize>,
    since_refresh: usize,
    refreshes: u64,
    /// Phase breakdown of the last successful refresh.
    last_timing: Option<RefreshTiming>,
    warmup_error: Option<LinalgError>,
    /// Refresh buffers, reused across refreshes.
    scratch: RefreshScratch,
    /// Reusable log-rate row for [`OnlineEstimator::ingest`], so the
    /// owned-snapshot path allocates nothing per snapshot.
    row_scratch: Vec<f64>,
}

impl OnlineEstimator {
    /// Builds the estimator for a reduced topology: the LIA core (with
    /// the augmented system under the pair budget) and the streaming
    /// accumulator for its pairs.
    pub fn new(red: &ReducedTopology, cfg: OnlineConfig) -> Self {
        assert!(cfg.refresh_every >= 1, "refresh cadence must be ≥ 1");
        let core = LiaEstimator::new(red, cfg.lia, cfg.variance, cfg.pair_budget);
        let cov =
            StreamingCovariance::new(red.num_paths(), core.augmented().pair_indices(), cfg.window);
        OnlineEstimator {
            cfg,
            core,
            cov,
            congested: Vec::new(),
            since_refresh: 0,
            refreshes: 0,
            last_timing: None,
            warmup_error: None,
            scratch: RefreshScratch::default(),
            row_scratch: Vec::new(),
        }
    }

    /// The augmented system the estimator tracks covariances for
    /// (already budgeted when [`OnlineConfig::pair_budget`] bites).
    pub fn augmented(&self) -> &AugmentedSystem {
        self.core.augmented()
    }

    /// The pair selection applied to the current routing, or `None`
    /// when the configured [`PairBudget`] kept the full pair set.
    pub fn pair_selection(&self) -> Option<&PairSelection> {
        self.core.pair_selection()
    }

    /// The covariance window (occupancy, post-churn staleness, the
    /// exact replay).
    pub fn covariance(&self) -> &StreamingCovariance {
        &self.cov
    }

    /// The latest Phase-1 estimate, if any refresh has succeeded.
    pub fn variances(&self) -> Option<&VarianceEstimate> {
        self.core.variances()
    }

    /// Phase breakdown of the last successful refresh (covariance
    /// assembly / Phase-1 solve / Phase-2 fit), for attributing
    /// tail-latency spikes. `None` until a refresh succeeds.
    pub fn last_refresh_timing(&self) -> Option<RefreshTiming> {
        self.last_timing
    }

    /// Links currently diagnosed congested (ascending).
    pub fn congested_links(&self) -> &[usize] {
        &self.congested
    }

    /// Columns currently kept in `R*` (ascending; empty before the
    /// first successful refresh).
    pub fn kept_columns(&self) -> &[usize] {
        self.core.kept_columns()
    }

    /// Successful refreshes so far.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// The error of the most recent failed warm-up refresh, if the
    /// estimator has not produced variances yet (early on, dropping
    /// negative covariance rows can leave the moment system
    /// under-determined; the estimator keeps ingesting until it becomes
    /// solvable).
    pub fn warmup_error(&self) -> Option<&LinalgError> {
        self.warmup_error.as_ref()
    }

    /// The reduced topology the estimator currently serves (reflects
    /// every delta applied so far).
    pub fn topology(&self) -> &ReducedTopology {
        self.core.topology()
    }

    /// The configuration the estimator was built with.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Post-churn flush progress of the covariance window — see
    /// [`Staleness`].
    pub fn staleness(&self) -> Staleness {
        self.cov.staleness()
    }

    /// Ingests one simulated/measured snapshot: extracts the log rates
    /// once (into an internal scratch row reused across snapshots — no
    /// per-snapshot allocation), updates the covariance accumulator,
    /// refreshes per the cadence, and scores the snapshot against the
    /// current model.
    pub fn ingest(&mut self, snapshot: &Snapshot) -> Result<OnlineUpdate, LinalgError> {
        let mut row = std::mem::take(&mut self.row_scratch);
        snapshot.log_rates_into(&mut row);
        let result = self.ingest_log_rates(&row);
        self.row_scratch = row;
        result
    }

    /// [`OnlineEstimator::ingest`] for pre-extracted log measurements
    /// `Y_i = log φ̂_i` (one entry per path).
    ///
    /// Malformed input is rejected with a typed error **before** any
    /// state is touched: a mis-sized row returns
    /// [`LinalgError::DimensionMismatch`], a row containing NaN/±∞
    /// returns [`LinalgError::NonFinite`]. Either way the window does
    /// not retain the row and the estimator keeps serving its current
    /// model.
    pub fn ingest_log_rates(&mut self, y: &[f64]) -> Result<OnlineUpdate, LinalgError> {
        self.validate_row(y)?;
        self.cov.ingest(y);
        self.finish_ingest(y)
    }

    /// Zero-copy wire ingest: `y` is `num_paths × 8` little-endian
    /// `f64` bytes straight off a receive buffer. On an aligned buffer
    /// the row is validated and accumulated **in place** and retained
    /// by reference (see [`StreamingCovariance::ingest_wire`] for the
    /// buffer-pinning trade-off); a misaligned buffer (or a big-endian
    /// host) decodes once through the internal scratch row. Results
    /// are bit-identical to [`OnlineEstimator::ingest_log_rates`] fed
    /// the decoded row, and the same typed-rejection contract holds:
    /// mis-sized rows (a length that is not `num_paths × 8` bytes, a
    /// stray trailing byte included) or non-finite rows leave the
    /// estimator untouched.
    pub fn ingest_wire_row(&mut self, row: &Bytes) -> Result<OnlineUpdate, LinalgError> {
        let Some(y) = cast_bytes_to_f64(row.as_slice()) else {
            let mut decoded = std::mem::take(&mut self.row_scratch);
            let result = decode_wire_row(row.as_slice(), &mut decoded)
                .and_then(|()| self.ingest_log_rates(&decoded));
            self.row_scratch = decoded;
            return result;
        };
        self.validate_row(y)?;
        self.cov.ingest_wire(row);
        self.finish_ingest(y)
    }

    /// The typed-rejection gate every ingest entry point runs before
    /// any state is touched (the check [`OnlineEstimator::estimate`]
    /// runs too).
    fn validate_row(&self, y: &[f64]) -> Result<(), LinalgError> {
        lia::check_snapshot(self.topology().num_paths(), y)
    }

    /// Post-accumulation half of an ingest: cadenced refresh, then
    /// score `y` against the current model.
    fn finish_ingest(&mut self, y: &[f64]) -> Result<OnlineUpdate, LinalgError> {
        self.since_refresh += 1;
        // `usize::MAX` = manual refresh only: skip the warm-up
        // attempts too, so ingest stays pure accumulation.
        let due = self.cfg.refresh_every != usize::MAX
            && (self.variances().is_none() || self.since_refresh >= self.cfg.refresh_every);
        let mut refreshed = false;
        if due && self.cov.len() >= 2 {
            match self.refresh() {
                Ok(()) => refreshed = true,
                // While warming up, an unsolvable moment system just
                // means "not enough signal yet" — keep streaming. The
                // same grace applies while the window still holds
                // pre-churn rows (warming pairs read zero covariance
                // and can leave the moment system under-determined).
                // After the first success on a churn-free window,
                // failures are real and surface.
                Err(e) if self.variances().is_none() || !self.cov.is_churn_free() => {
                    self.warmup_error = Some(e)
                }
                Err(e) => return Err(e),
            }
        }
        let estimate = if self.variances().is_some() {
            Some(self.estimate(y)?)
        } else {
            None
        };
        let congested = estimate
            .as_ref()
            .map(|e| e.congested_links(self.cfg.congestion_threshold))
            .unwrap_or_default();
        let (appeared, cleared) = diff_sorted(&self.congested, &congested);
        self.congested.clone_from(&congested);
        Ok(OnlineUpdate {
            refreshed,
            estimate,
            congested,
            appeared,
            cleared,
        })
    }

    /// Refits the LIA core on the window's pair covariances: Phase 1,
    /// then the Phase-2 model. Called automatically per the cadence;
    /// public so callers on a slow cadence can force a refresh (e.g.
    /// before reading [`OnlineEstimator::variances`] at a reporting
    /// boundary).
    ///
    /// A window of fewer than two snapshots has no sample covariance:
    /// the call then returns [`LinalgError::DimensionMismatch`] and
    /// leaves the estimator untouched.
    pub fn refresh(&mut self) -> Result<(), LinalgError> {
        if self.cov.len() < 2 {
            return Err(LinalgError::DimensionMismatch(format!(
                "need at least 2 snapshots to refresh, have {}",
                self.cov.len()
            )));
        }
        let cov_start = Instant::now();
        self.cov.replay_into(&mut self.scratch);
        let covariance = cov_start.elapsed();
        let (phase1, phase2) = self.core.fit(&self.scratch.sigmas)?;
        self.last_timing = Some(RefreshTiming {
            covariance,
            phase1,
            phase2,
        });
        self.warmup_error = None;
        self.since_refresh = 0;
        self.refreshes += 1;
        Ok(())
    }

    /// Phase 2 for one snapshot's log measurements against the current
    /// model: reuses the fitted kept set and factorisation, so a
    /// per-snapshot estimate between refreshes costs one least-squares
    /// application instead of a column selection plus factorisation.
    ///
    /// `y` passes the same gate as an ingested row: a mis-sized `y`
    /// returns [`LinalgError::DimensionMismatch`], a NaN or ±∞ entry
    /// [`LinalgError::NonFinite`]. Before the first successful refresh
    /// there is no model, which is a [`LinalgError::DimensionMismatch`]
    /// too.
    pub fn estimate(&self, y: &[f64]) -> Result<LinkRateEstimate, LinalgError> {
        self.core.rates(y)
    }

    /// Applies a routing delta to the **live** estimator — no drain:
    ///
    /// * the LIA core swaps to the new routing (an invalid delta
    ///   returns the [`ChurnError`] and leaves the estimator
    ///   untouched): it rebuilds the augmented pair system under the
    ///   configured [`PairBudget`] and the Phase-2 view exactly as
    ///   [`OnlineEstimator::new`] builds them, and forgets its Gram
    ///   counts, its all-rows factor and its fitted model (the next
    ///   refresh recounts the integers from scratch);
    /// * the covariance window remaps its retained rows and restarts
    ///   the added and rerouted paths with a fresh validity horizon
    ///   ([`StreamingCovariance::apply_churn`]): interim refreshes
    ///   replay each pair over its valid suffix, and once the window
    ///   flushes ([`Staleness::is_flushed`]) estimates are again
    ///   **bit-identical** to a fresh estimator built on the new
    ///   topology and fed the same post-churn snapshots.
    ///
    /// A refresh is attempted immediately; a post-churn refresh
    /// failure (e.g. every pair warming) is held as a warm-up error
    /// rather than surfaced — the estimator keeps streaming. When it
    /// replaces a live model, [`ChurnReport::refresh_error`] says so.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<ChurnReport, ChurnError> {
        let had_model = self.variances().is_some();
        let effect = self.core.apply_delta(delta)?;
        let aug = self.core.augmented();
        self.cov.apply_churn(
            self.core.topology().num_paths(),
            aug.pair_indices(),
            &effect,
        );
        let changed = |p: &PathId| effect.changed.binary_search(p).is_ok();
        let recomputed_pairs = aug
            .iter()
            .filter(|((a, b), _)| changed(a) || changed(b))
            .count();
        let carried_pairs = aug.num_rows() - recomputed_pairs;
        let mut refreshed = false;
        let mut refresh_error = None;
        if self.cov.len() >= 2 {
            match self.refresh() {
                Ok(()) => refreshed = true,
                Err(e) => {
                    if had_model {
                        refresh_error = Some(format!("post-churn refresh failed: {e}"));
                    }
                    self.warmup_error = Some(e);
                }
            }
        }
        Ok(ChurnReport {
            added_paths: effect.added.len(),
            removed_paths: effect.removed.len(),
            rerouted_paths: effect.changed.len() - effect.added.len(),
            carried_pairs,
            recomputed_pairs,
            refresh_error,
            refreshed,
            staleness: self.cov.staleness(),
        })
    }
}

/// What [`OnlineEstimator::apply_delta`] did — the per-layer cost and
/// outcome of one churn event.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Paths added by the delta.
    pub added_paths: usize,
    /// Paths removed by the delta.
    pub removed_paths: usize,
    /// Surviving paths whose link row changed (reroutes + remap hits).
    pub rerouted_paths: usize,
    /// Augmented pairs of two unchanged paths: their history carries.
    pub carried_pairs: usize,
    /// Augmented pairs with an added or rerouted path: restarted
    /// (warming up).
    pub recomputed_pairs: usize,
    /// `Some(reason)` when the immediate post-churn refresh failed
    /// while a model was live: the estimator serves no estimate until a
    /// later refresh succeeds. Never silent.
    pub refresh_error: Option<String>,
    /// Whether the immediate post-churn refresh succeeded.
    pub refreshed: bool,
    /// Flush progress of the covariance window at return.
    pub staleness: Staleness,
}

/// Set difference of two ascending index lists, as
/// `(in_new_only, in_old_only)`.
fn diff_sorted(old: &[usize], new: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut appeared = Vec::new();
    let mut cleared = Vec::new();
    let (mut a, mut b) = (0, 0);
    while a < old.len() || b < new.len() {
        match (old.get(a), new.get(b)) {
            (Some(&x), Some(&y)) if x == y => {
                a += 1;
                b += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                cleared.push(x);
                a += 1;
            }
            (Some(_), Some(&y)) => {
                appeared.push(y);
                b += 1;
            }
            (Some(&x), None) => {
                cleared.push(x);
                a += 1;
            }
            (None, Some(&y)) => {
                appeared.push(y);
                b += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (appeared, cleared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::{estimate_variances, FallbackReason};
    use crate::{infer_link_rates, CenteredMeasurements};
    use losstomo_netsim::{
        simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
    };
    use losstomo_topology::fixtures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig1() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure1())
    }

    fn fig2() -> ReducedTopology {
        fixtures::reduced(&fixtures::figure2())
    }

    fn simulate(red: &ReducedTopology, m: usize, seed: u64) -> MeasurementSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario =
            CongestionScenario::draw(red.num_links(), 0.3, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig {
            probes_per_snapshot: 200,
            ..ProbeConfig::default()
        };
        simulate_run(red, &mut scenario, &cfg, m, &mut rng)
    }

    fn all_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect()
    }

    fn synthetic_rows(m: usize, n: usize) -> Vec<Vec<f64>> {
        (0..m)
            .map(|l| {
                (0..n)
                    .map(|i| (((l * 37 + i * 13 + 5) % 101) as f64) / 10.1 - 5.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streaming_exact_matches_batch_bitwise() {
        let rows = synthetic_rows(12, 5);
        let pairs = all_pairs(5);
        let mut sc = StreamingCovariance::new(5, pairs.clone(), WindowMode::Unbounded);
        for row in &rows {
            sc.ingest(row);
        }
        let batch = CenteredMeasurements::from_rows(rows).pair_covariances(&pairs);
        assert_eq!(sc.exact_covariances(), batch);
        assert_eq!(sc.len(), 12);
        assert_eq!(sc.total_ingested(), 12);
    }

    #[test]
    fn sliding_window_matches_batch_over_window() {
        let rows = synthetic_rows(20, 4);
        let pairs = all_pairs(4);
        let w = 6;
        let mut sc = StreamingCovariance::new(4, pairs.clone(), WindowMode::Sliding(w));
        for row in &rows {
            sc.ingest(row);
        }
        assert_eq!(sc.len(), w);
        let window = rows[rows.len() - w..].to_vec();
        let batch = CenteredMeasurements::from_rows(window).pair_covariances(&pairs);
        assert_eq!(sc.exact_covariances(), batch);
    }

    /// Encodes `rows` as contiguous little-endian `f64` bytes and
    /// returns the buffer plus one zero-copy window per row.
    fn wire_rows(rows: &[Vec<f64>]) -> Vec<Bytes> {
        let width = rows[0].len() * 8;
        let mut buf = Vec::with_capacity(rows.len() * width);
        for row in rows {
            for v in row {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let buf = Bytes::from(buf);
        (0..rows.len())
            .map(|r| buf.slice(r * width..(r + 1) * width))
            .collect()
    }

    #[test]
    fn wire_ingest_is_bit_identical_to_owned_ingest() {
        // Same rows through `ingest` (owned) and `ingest_wire`
        // (retained by reference): the exact replay and sliding-window
        // eviction must agree bitwise.
        let rows = synthetic_rows(20, 4);
        let pairs = all_pairs(4);
        for mode in [WindowMode::Unbounded, WindowMode::Sliding(6)] {
            let mut owned = StreamingCovariance::new(4, pairs.clone(), mode);
            let mut wire = StreamingCovariance::new(4, pairs.clone(), mode);
            for (row, b) in rows.iter().zip(wire_rows(&rows)) {
                owned.ingest(row);
                wire.ingest_wire(&b);
            }
            assert_eq!(owned.len(), wire.len());
            assert_eq!(owned.exact_covariances(), wire.exact_covariances());
        }
    }

    #[test]
    fn misaligned_wire_rows_decode_to_the_same_bits() {
        // A one-byte-shifted buffer defeats the in-place cast; the
        // decode fallback must retain identical rows.
        let rows = synthetic_rows(8, 3);
        let pairs = all_pairs(3);
        let width = 3 * 8;
        let mut buf = vec![0u8; 1]; // poison the alignment
        for row in &rows {
            for v in row {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let buf = Bytes::from(buf);
        let mut owned = StreamingCovariance::new(3, pairs.clone(), WindowMode::Unbounded);
        let mut wire = StreamingCovariance::new(3, pairs.clone(), WindowMode::Unbounded);
        for (r, row) in rows.iter().enumerate() {
            owned.ingest(row);
            wire.ingest_wire(&buf.slice(1 + r * width..1 + (r + 1) * width));
        }
        assert_eq!(owned.exact_covariances(), wire.exact_covariances());
    }

    /// The effect of a delta that renumbers paths by `id_map` and
    /// reroutes the new paths `changed`.
    fn churn_effect(id_map: Vec<Option<PathId>>, changed: &[u32]) -> DeltaEffect {
        DeltaEffect {
            id_map,
            changed: changed.iter().map(|&p| PathId(p)).collect(),
            removed: Vec::new(),
            added: Vec::new(),
        }
    }

    #[test]
    fn churn_remap_rewrites_wire_rows() {
        // `apply_churn` remaps retained rows in place; wire-backed
        // rows must convert to owned remapped rows and keep replaying
        // identically to an accumulator that ingested owned rows.
        let rows = synthetic_rows(10, 3);
        let pairs = vec![(0, 0), (1, 1), (0, 1)];
        let mut owned = StreamingCovariance::new(3, pairs.clone(), WindowMode::Sliding(6));
        let mut wire = StreamingCovariance::new(3, pairs.clone(), WindowMode::Sliding(6));
        for (row, b) in rows.iter().zip(wire_rows(&rows)) {
            owned.ingest(row);
            wire.ingest_wire(&b);
        }
        // Drop path 1 and reroute path 2: old paths {0,2} become new
        // paths {0,1}, and new path 1 restarts.
        let effect = churn_effect(vec![Some(PathId(0)), None, Some(PathId(1))], &[1]);
        let new_pairs = vec![(0, 0), (1, 1), (0, 1)];
        owned.apply_churn(2, new_pairs.clone(), &effect);
        wire.apply_churn(2, new_pairs, &effect);
        assert_eq!(owned.exact_covariances(), wire.exact_covariances());
        for k in 0..8 {
            let post = [k as f64 * 0.4, (k % 3) as f64 * 1.1];
            owned.ingest(&post);
            wire.ingest(&post);
        }
        assert_eq!(owned.exact_covariances(), wire.exact_covariances());
        assert!(owned.is_churn_free() && wire.is_churn_free());
    }

    #[test]
    fn estimator_wire_rows_match_owned_rows_bitwise() {
        // Full `OnlineEstimator` equivalence: wire-fed and slice-fed
        // estimators agree on variances and congested sets, and typed
        // rejection leaves the wire-fed estimator untouched.
        let red = fig2();
        let ms = simulate(&red, 40, 97);
        let rows: Vec<Vec<f64>> = ms.snapshots.iter().map(|s| s.log_rates()).collect();
        let mut by_slice = OnlineEstimator::new(&red, OnlineConfig::default());
        let mut by_wire = OnlineEstimator::new(&red, OnlineConfig::default());
        for (row, b) in rows.iter().zip(wire_rows(&rows)) {
            let a = by_slice.ingest_log_rates(row).unwrap();
            let b = by_wire.ingest_wire_row(&b).unwrap();
            assert_eq!(a.congested, b.congested);
        }
        assert_eq!(
            by_slice.variances().unwrap().v,
            by_wire.variances().unwrap().v
        );
        // Mis-sized row: typed error, state untouched.
        let before = by_wire.variances().unwrap().v.clone();
        let short = wire_rows(&[vec![1.0; 2]]).remove(0);
        assert!(matches!(
            by_wire.ingest_wire_row(&short),
            Err(LinalgError::DimensionMismatch(_))
        ));
        // Non-finite row: typed error, state untouched.
        let mut bad = rows[0].clone();
        bad[1] = f64::NAN;
        let bad = wire_rows(&[bad]).remove(0);
        assert!(matches!(
            by_wire.ingest_wire_row(&bad),
            Err(LinalgError::NonFinite { index: 1 })
        ));
        assert_eq!(by_wire.variances().unwrap().v, before);
    }

    #[test]
    fn wire_row_with_a_stray_byte_is_a_typed_rejection() {
        // Six `f64`s and one stray byte for Figure 2's six paths: the
        // decode must refuse the row, not drop the byte and accept it.
        let red = fig2();
        assert_eq!(red.num_paths(), 6);
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        let mut row: Vec<u8> = (0..6)
            .flat_map(|i| (-0.01 * i as f64).to_le_bytes())
            .collect();
        row.push(0);
        assert!(matches!(
            online.ingest_wire_row(&Bytes::from(row)),
            Err(LinalgError::DimensionMismatch(_))
        ));
        assert_eq!(online.covariance().total_ingested(), 0);
    }

    #[test]
    fn pair_budget_restricts_estimator_pair_sweep() {
        // A biting budget must shrink the augmented system (and with
        // it the tracked pair set), keep Phase 1 solvable, and keep
        // rank so the estimator still converges on clean streams.
        let red = fixtures::reduced(&fixtures::figure2());
        let full = AugmentedSystem::build(&red);
        let rank = losstomo_linalg::rank(&full.to_dense());
        let cfg = OnlineConfig {
            pair_budget: PairBudget::Rows(rank),
            ..OnlineConfig::default()
        };
        let mut est = OnlineEstimator::new(&red, cfg);
        let sel = est.pair_selection().expect("budget bites on figure2");
        assert!(est.augmented().num_rows() < full.num_rows());
        assert_eq!(est.augmented().num_rows(), sel.rows.len());
        assert_eq!(
            est.covariance().plan().len(),
            est.augmented().num_rows(),
            "covariance sweep tracks exactly the selected pairs"
        );
        let ms = simulate(&red, 30, 3);
        for snapshot in &ms.snapshots {
            est.ingest(snapshot).unwrap();
        }
        assert!(est.refresh_count() > 0);
        assert!(est.variances().is_some());
        // Full budget (the default) is the identity.
        let unbudgeted = OnlineEstimator::new(&red, OnlineConfig::default());
        assert!(unbudgeted.pair_selection().is_none());
        assert_eq!(unbudgeted.augmented().num_rows(), full.num_rows());
    }

    #[test]
    #[should_panic(expected = "at least 2 snapshots")]
    fn covariances_need_two_snapshots() {
        let mut sc = StreamingCovariance::new(2, vec![(0, 1)], WindowMode::Unbounded);
        sc.ingest(&[1.0, 2.0]);
        let _ = sc.exact_covariances();
    }

    #[test]
    fn online_estimator_matches_batch_pipeline_bitwise() {
        let red = fig1();
        let m = 25;
        let ms = simulate(&red, m + 1, 42);
        // Batch reference.
        let train = MeasurementSet {
            snapshots: ms.snapshots[..m].to_vec(),
        };
        let aug = AugmentedSystem::build(&red);
        let centered = CenteredMeasurements::new(&train);
        let batch_v =
            estimate_variances(&red, &aug, &centered, &VarianceConfig::default()).unwrap();
        let y_eval = ms.snapshots[m].log_rates();
        let batch_p2 = infer_link_rates(&red, &batch_v.v, &y_eval, &LiaConfig::default()).unwrap();
        // Online, default (exact) configuration.
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        for snap in &ms.snapshots[..m] {
            online.ingest(snap).unwrap();
        }
        let online_v = online.variances().expect("warm after m snapshots");
        assert_eq!(online_v.v, batch_v.v, "Phase-1 variances drifted");
        assert_eq!(online_v.dropped_rows, batch_v.dropped_rows);
        assert_eq!(online_v.used_rows, batch_v.used_rows);
        let online_p2 = online.estimate(&y_eval).unwrap();
        assert_eq!(online_p2.transmission, batch_p2.transmission);
        assert_eq!(online_p2.kept, batch_p2.kept);
        assert_eq!(online_p2.kept_count, batch_p2.kept_count);
    }

    /// Log-rate rows of a simulated stream over `red`: congestion moves
    /// (Markov), so the kept-row mask changes from refresh to refresh.
    fn markov_rows(red: &ReducedTopology, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario = CongestionScenario::draw(
            red.num_links(),
            0.3,
            CongestionDynamics::Markov {
                stay_congested: 0.9,
            },
            &mut rng,
        );
        let cfg = ProbeConfig {
            probes_per_snapshot: 200,
            ..ProbeConfig::default()
        };
        simulate_run(red, &mut scenario, &cfg, m, &mut rng).log_rate_rows()
    }

    /// Feeds `rows` to one long-lived estimator (with `window`, Phase-1
    /// settings `variance` and Phase-2 settings `lia`, defaults
    /// otherwise) and checks every refresh, by bits, against a batch
    /// recompute (`estimate_variances` and `infer_link_rates`) over the
    /// rows then in the window. Returns what each refresh's Phase 1 did:
    /// `None` for a kept-row solve (with its dropped-row count), or the
    /// fallback reason.
    fn every_refresh_matches_batch(
        red: &ReducedTopology,
        rows: &[Vec<f64>],
        window: WindowMode,
        variance: VarianceConfig,
        lia: LiaConfig,
    ) -> Vec<(Option<FallbackReason>, usize)> {
        let cfg = OnlineConfig {
            window,
            variance,
            lia,
            ..OnlineConfig::default()
        };
        let mut online = OnlineEstimator::new(red, cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut trace = Vec::new();
        for (i, y) in rows.iter().enumerate() {
            let up = online.ingest_log_rates(y).unwrap();
            if !up.refreshed {
                continue;
            }
            let start = match window {
                WindowMode::Sliding(w) => (i + 1).saturating_sub(w),
                _ => 0,
            };
            let centered = CenteredMeasurements::from_rows(rows[start..=i].to_vec());
            let batch = estimate_variances(red, online.augmented(), &centered, &cfg.variance)
                .expect("the online refresh solved this window");
            let got = online.variances().expect("refreshed");
            assert_eq!(bits(&got.v), bits(&batch.v), "row {i}: Phase-1 variances");
            assert_eq!(got.dropped_rows, batch.dropped_rows, "row {i}");
            assert_eq!(got.used_rows, batch.used_rows, "row {i}");
            assert_eq!(got.fallback, batch.fallback, "row {i}");
            let want = infer_link_rates(red, &batch.v, y, &cfg.lia).unwrap();
            let est = up.estimate.expect("refreshed");
            assert_eq!(bits(&est.transmission), bits(&want.transmission), "row {i}");
            assert_eq!(est.kept, want.kept, "row {i}");
            trace.push((got.fallback.map(|f| f.reason), got.dropped_rows));
        }
        trace
    }

    /// Whether `trace` holds a kept-row solve with dropped rows, then a
    /// certified fallback (which moves the Gram cache to all rows
    /// without a kept solve), then a kept-row solve with nothing dropped
    /// — whose mask equals the cache's, so a kept solve that reused the
    /// first solve's factor would go wrong here.
    fn has_stale_factor_trap(trace: &[(Option<FallbackReason>, usize)]) -> bool {
        let mut state = 0;
        for (fallback, dropped) in trace {
            state = match (fallback, *dropped) {
                (None, 0) if state == 2 => return true,
                (None, 0) => 0,
                (None, _) => 1,
                (Some(FallbackReason::Certified(_)), _) if state >= 1 => 2,
                (Some(_), _) => state,
            };
        }
        false
    }

    /// A long-lived estimator (warm Gram cache, cached all-rows factor)
    /// matches a fresh batch recompute at *every*
    /// refresh, not only the last: on a small tree whose refreshes mix
    /// kept-row solves, certified fallbacks and all-rows solves, and on
    /// a small Waxman mesh, each with an unbounded and a sliding window.
    /// The tree forces the dense Phase 1, whose factor cache the trap
    /// targets, and runs again under `Auto` (the tree path, both
    /// strategies). On the mesh the forced-sparse and greedy Phase-2
    /// paths hold too: the long-lived Phase-2 model (warm-started cut,
    /// refactored only when the kept set changes) fits what a fresh
    /// batch model fits.
    #[test]
    fn long_lived_estimator_matches_batch_at_every_refresh() {
        use crate::lia::{EliminationStrategy, Phase2Dispatch};
        use crate::variance::Phase1Dispatch;
        use losstomo_topology::gen::tree::{self, TreeParams};
        use losstomo_topology::gen::waxman::{self, WaxmanParams};
        use losstomo_topology::{compute_paths, reduce, GeneratedTopology};
        let reduce_gen = |t: GeneratedTopology| {
            reduce(
                &t.graph,
                &compute_paths(&t.graph, &t.beacons, &t.destinations),
            )
        };
        let tree = reduce_gen(tree::generate(
            TreeParams {
                nodes: 14,
                max_branching: 3,
            },
            &mut StdRng::seed_from_u64(13),
        ));
        let mesh = reduce_gen(waxman::generate(
            WaxmanParams {
                nodes: 20,
                hosts: 5,
                ..WaxmanParams::default()
            },
            &mut StdRng::seed_from_u64(4),
        ));
        let default = LiaConfig::default();
        let greedy = LiaConfig {
            elimination: EliminationStrategy::GreedyMatroid,
            ..default
        };
        let auto = VarianceConfig::default();
        let dense = VarianceConfig {
            dispatch: Phase1Dispatch::Dense,
            ..auto
        };
        for window in [WindowMode::Unbounded, WindowMode::Sliding(12)] {
            let tree_rows = markov_rows(&tree, 150, 3);
            let trace = every_refresh_matches_batch(&tree, &tree_rows, window, dense, default);
            assert!(
                has_stale_factor_trap(&trace),
                "{window:?}: the tree stream should certify between two kept-row solves"
            );
            for lia in [default, greedy] {
                let trace = every_refresh_matches_batch(&tree, &tree_rows, window, auto, lia);
                assert!(
                    trace.iter().any(|(f, _)| f.is_some())
                        && trace.iter().any(|(f, _)| f.is_none()),
                    "{window:?}, {lia:?}: the tree stream should mix kept solves and fold-backs"
                );
            }
            let mesh_rows = markov_rows(&mesh, 120, 5);
            for lia in [
                default,
                LiaConfig {
                    dispatch: Phase2Dispatch::Sparse,
                    ..default
                },
                LiaConfig {
                    elimination: EliminationStrategy::GreedyMatroid,
                    ..default
                },
                LiaConfig {
                    dispatch: Phase2Dispatch::Sparse,
                    elimination: EliminationStrategy::GreedyMatroid,
                },
            ] {
                let trace = every_refresh_matches_batch(&mesh, &mesh_rows, window, auto, lia);
                assert!(
                    trace.len() > 100,
                    "{window:?}, {lia:?}: the mesh stream should refresh"
                );
            }
        }
    }

    #[test]
    fn refresh_cadence_skips_intermediate_refreshes() {
        let red = fig1();
        let ms = simulate(&red, 12, 7);
        let cfg = OnlineConfig {
            refresh_every: 4,
            ..OnlineConfig::default()
        };
        let mut online = OnlineEstimator::new(&red, cfg);
        let mut refreshes = 0;
        for snap in &ms.snapshots {
            if online.ingest(snap).unwrap().refreshed {
                refreshes += 1;
            }
        }
        // First refresh as soon as solvable, then every 4th ingest.
        assert!(refreshes < ms.snapshots.len() as u64 && refreshes >= 2);
        assert_eq!(refreshes, online.refresh_count());
    }

    #[test]
    fn manual_refresh_of_a_short_window_is_a_typed_error() {
        let red = fig1();
        let ms = simulate(&red, 12, 7);
        let cfg = OnlineConfig {
            refresh_every: usize::MAX,
            ..OnlineConfig::default()
        };
        let mut online = OnlineEstimator::new(&red, cfg);
        // At 0 and at 1 retained row there is no sample covariance.
        for (rows, snap) in ms.snapshots[..2].iter().enumerate() {
            assert!(matches!(
                online.refresh(),
                Err(LinalgError::DimensionMismatch(msg)) if msg.contains(&format!("have {rows}"))
            ));
            assert_eq!(online.refresh_count(), 0);
            assert!(online.variances().is_none());
            assert!(!online.ingest(snap).unwrap().refreshed);
        }
        for snap in &ms.snapshots[2..] {
            online.ingest(snap).unwrap();
        }
        online.refresh().unwrap();
        assert_eq!(online.refresh_count(), 1);
        assert!(online.variances().is_some());
    }

    #[test]
    fn change_detection_reports_transitions() {
        let (appeared, cleared) = diff_sorted(&[1, 3, 5], &[1, 4, 5, 9]);
        assert_eq!(appeared, vec![4, 9]);
        assert_eq!(cleared, vec![3]);
        let (a2, c2) = diff_sorted(&[], &[2]);
        assert_eq!(a2, vec![2]);
        assert!(c2.is_empty());
    }

    #[test]
    fn online_update_congested_set_is_consistent() {
        let red = fig1();
        let ms = simulate(&red, 20, 3);
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        let mut current: Vec<usize> = Vec::new();
        for snap in &ms.snapshots {
            let up = online.ingest(snap).unwrap();
            // appeared/cleared must replay old → new exactly.
            let mut replayed: Vec<usize> = current
                .iter()
                .copied()
                .filter(|k| !up.cleared.contains(k))
                .chain(up.appeared.iter().copied())
                .collect();
            replayed.sort_unstable();
            assert_eq!(replayed, up.congested);
            current = up.congested.clone();
        }
        assert_eq!(current, online.congested_links());
    }

    #[test]
    fn warmup_is_graceful() {
        let red = fig1();
        let ms = simulate(&red, 3, 5);
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        let up = online.ingest(&ms.snapshots[0]).unwrap();
        assert!(!up.refreshed);
        assert!(up.estimate.is_none());
        assert!(up.congested.is_empty());
    }

    #[test]
    fn wrong_width_snapshot_is_typed_error_not_poison() {
        let red = fig1();
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        let err = online.ingest_log_rates(&[0.0]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch(_)));
        assert!(err.to_string().contains("snapshot covers"));
        // Nothing was ingested — the accumulator is untouched.
        assert_eq!(online.covariance().total_ingested(), 0);
    }

    #[test]
    fn non_finite_snapshot_is_rejected_and_estimator_stays_sane() {
        let red = fig1();
        let ms = simulate(&red, 40, 97);
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots[..20] {
            online.ingest(s).unwrap();
        }
        let before = online
            .variances()
            .expect("warm after 20 snapshots")
            .v
            .clone();
        // A NaN (and an infinite) snapshot must bounce with a typed
        // error, not poison the window.
        let mut bad = ms.snapshots[20].log_rates();
        bad[2] = f64::NAN;
        assert_eq!(
            online.ingest_log_rates(&bad).unwrap_err(),
            LinalgError::NonFinite { index: 2 }
        );
        bad[2] = f64::INFINITY;
        assert_eq!(
            online.ingest_log_rates(&bad).unwrap_err(),
            LinalgError::NonFinite { index: 2 }
        );
        // The model is unchanged and further ingests behave exactly as
        // if the bad rows never arrived.
        assert_eq!(online.variances().unwrap().v, before);
        let mut control = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots {
            control.ingest(s).unwrap();
        }
        for s in &ms.snapshots[20..] {
            online.ingest(s).unwrap();
        }
        assert_eq!(
            online.variances().unwrap().v,
            control.variances().unwrap().v
        );
    }

    /// The churn robustness gate: apply a delta mid-stream, keep
    /// ingesting until the sliding window flushes, and the estimator's
    /// variances and per-snapshot estimates are **bit-identical** to a
    /// fresh estimator built on the new topology and fed the same
    /// post-churn snapshots.
    #[test]
    fn churned_estimator_matches_fresh_after_flush() {
        let w = 8;
        let cfg = OnlineConfig {
            window: WindowMode::Sliding(w),
            ..OnlineConfig::default()
        };
        let mut red = fig2();
        let ms = simulate(&red, 30, 11);
        let mut online = OnlineEstimator::new(&red, cfg);
        for s in &ms.snapshots {
            online.ingest(s).unwrap();
        }
        // Reroute one path, drop another, add a new one.
        let nc = red.num_links();
        let delta = TopologyDelta::new()
            .reroute_path(PathId(0), vec![0, nc - 1])
            .remove_path(PathId(2))
            .add_path(vec![0, 1]);
        let effect_check = {
            let mut copy = red.clone();
            copy.apply_delta(&delta).unwrap()
        };
        assert!(!effect_check.changed.is_empty());
        let report = online.apply_delta(&delta).unwrap();
        red.apply_delta(&delta).unwrap();
        assert_eq!(online.topology().matrix, red.matrix);
        assert_eq!(report.added_paths, 1);
        assert_eq!(report.removed_paths, 1);
        assert_eq!(report.rerouted_paths, 1);
        assert!(report.carried_pairs > 0);
        assert!(report.recomputed_pairs > 0);
        let st = report.staleness;
        assert!(st.stale_rows > 0);
        let flush = st.snapshots_until_flush.expect("sliding window flushes");
        assert!(flush >= st.stale_rows as u64);
        // Stream post-churn snapshots on the new topology into both the
        // churned estimator and a fresh control.
        let ms2 = simulate(&red, flush as usize + 5, 12);
        let mut fresh = OnlineEstimator::new(&red, cfg);
        let mut fed = 0u64;
        for s in &ms2.snapshots {
            let y = s.log_rates();
            let _ = online.ingest_log_rates(&y);
            let _ = fresh.ingest_log_rates(&y);
            fed += 1;
            if fed >= flush {
                assert!(online.covariance().is_churn_free());
                assert!(online.staleness().is_flushed());
            }
        }
        // Post-flush both windows hold the same `w` rows: force a
        // refresh on each and compare bits.
        online.refresh().unwrap();
        fresh.refresh().unwrap();
        assert_eq!(online.variances().unwrap().v, fresh.variances().unwrap().v);
        let y = ms2.snapshots.last().unwrap().log_rates();
        assert_eq!(
            online.estimate(&y).unwrap().transmission,
            fresh.estimate(&y).unwrap().transmission
        );
        assert_eq!(online.kept_columns(), fresh.kept_columns());
    }

    #[test]
    fn staleness_counts_down_to_flush() {
        let w = 6;
        let mut cov = StreamingCovariance::new(
            3,
            vec![(0, 0), (1, 1), (2, 2), (0, 1)],
            WindowMode::Sliding(w),
        );
        for k in 0..10 {
            cov.ingest(&[k as f64, 1.0, 2.0]);
        }
        assert!(cov.is_churn_free());
        assert_eq!(cov.staleness().snapshots_until_flush, Some(0));
        // Reroute path 1: pairs 1 and 3 restart.
        let id_map: Vec<Option<PathId>> = (0..3).map(|i| Some(PathId(i))).collect();
        cov.apply_churn(
            3,
            vec![(0, 0), (1, 1), (2, 2), (0, 1)],
            &churn_effect(id_map, &[1]),
        );
        assert!(!cov.is_churn_free());
        let st = cov.staleness();
        assert_eq!(st.stale_rows, w);
        assert_eq!(st.snapshots_until_flush, Some(w as u64));
        assert_eq!(st.warming_pairs, 2);
        let mut last = w as u64;
        for k in 0..w {
            cov.ingest(&[k as f64 * 0.5, 3.0, 1.0]);
            let st = cov.staleness();
            let now = st.snapshots_until_flush.expect("sliding flushes");
            assert_eq!(now, last - 1);
            last = now;
        }
        assert!(cov.is_churn_free());
        assert!(cov.staleness().is_flushed());
        assert_eq!(cov.staleness().warming_pairs, 0);
    }

    #[test]
    fn grouped_replay_matches_per_pair_manual_replay() {
        let w = 8;
        let mut cov =
            StreamingCovariance::new(2, vec![(0, 0), (1, 1), (0, 1)], WindowMode::Sliding(w));
        let mut rng_rows: Vec<[f64; 2]> = Vec::new();
        for k in 0..6 {
            let r = [(k * 7 % 5) as f64 * 0.3, (k * 3 % 4) as f64 * 0.7];
            rng_rows.push(r);
            cov.ingest(&r);
        }
        let id_map = vec![Some(PathId(0)), Some(PathId(1))];
        // Reroute path 1: its self pair and the cross pair restart.
        cov.apply_churn(2, vec![(0, 0), (1, 1), (0, 1)], &churn_effect(id_map, &[1]));
        for k in 0..3 {
            let r = [k as f64 * 0.9, (3 - k) as f64 * 0.2];
            rng_rows.push(r);
            cov.ingest(&r);
        }
        let got = cov.exact_covariances();
        // The carried pair replays the full window; the restarted pairs
        // replay only their post-churn suffix.
        let window: Vec<&[f64]> = rng_rows[rng_rows.len() - cov.len()..]
            .iter()
            .map(|r| r.as_slice())
            .collect();
        let full = CenteredMeasurements::from_row_refs(&window).pair_covariances(&[(0, 0)]);
        assert_eq!(got[0], full[0]);
        let suffix: Vec<&[f64]> = rng_rows[rng_rows.len() - 3..]
            .iter()
            .map(|r| r.as_slice())
            .collect();
        let restarted =
            CenteredMeasurements::from_row_refs(&suffix).pair_covariances(&[(1, 1), (0, 1)]);
        assert_eq!(got[1..], restarted[..]);
    }

    #[test]
    fn pair_first_tracked_after_churn_keeps_its_paths_history() {
        // The pair set grows across a churn that reroutes only path 2:
        // the new pair (0, 1) joins two unchanged paths, so it replays
        // the whole window, while (1, 2) replays the post-churn suffix.
        let w = 10;
        let mut cov =
            StreamingCovariance::new(3, vec![(0, 0), (1, 1), (2, 2)], WindowMode::Sliding(w));
        let rows = synthetic_rows(9, 3);
        for row in &rows[..6] {
            cov.ingest(row);
        }
        let id_map: Vec<Option<PathId>> = (0..3).map(|i| Some(PathId(i))).collect();
        cov.apply_churn(
            3,
            vec![(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)],
            &churn_effect(id_map, &[2]),
        );
        for row in &rows[6..] {
            cov.ingest(row);
        }
        assert!(!cov.is_churn_free());
        assert_eq!(cov.staleness().warming_pairs, 0);
        let got = cov.exact_covariances();
        let whole = CenteredMeasurements::from_rows(rows.clone()).pair_covariances(&[(0, 1)]);
        assert_eq!(got[3], whole[0]);
        let suffix =
            CenteredMeasurements::from_rows(rows[6..].to_vec()).pair_covariances(&[(1, 2)]);
        assert_eq!(got[4], suffix[0]);
    }

    #[test]
    fn invalid_delta_leaves_estimator_untouched() {
        let red = fig1();
        let ms = simulate(&red, 14, 41);
        let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots[..10] {
            online.ingest(s).unwrap();
        }
        let before = online.variances().unwrap().v.clone();
        let remove_all =
            (0..red.num_paths()).fold(TopologyDelta::new(), |d, _| d.remove_path(PathId(0)));
        for (delta, want) in [
            (
                TopologyDelta::new().remove_path(PathId(99)),
                ChurnError::PathOutOfRange {
                    path: PathId(99),
                    rows: red.num_paths(),
                },
            ),
            (remove_all, ChurnError::NoPaths),
        ] {
            assert_eq!(online.apply_delta(&delta).unwrap_err(), want);
            assert_eq!(online.variances().unwrap().v, before);
            assert_eq!(online.topology().matrix, red.matrix);
            assert!(online.covariance().is_churn_free());
        }
        // It keeps ingesting, as if no delta had been offered.
        let mut fresh = OnlineEstimator::new(&red, OnlineConfig::default());
        for s in &ms.snapshots {
            fresh.ingest(s).unwrap();
        }
        for s in &ms.snapshots[10..] {
            online.ingest(s).unwrap();
        }
        assert_eq!(online.variances().unwrap().v, fresh.variances().unwrap().v);
    }
}
