//! # losstomo
//!
//! A from-scratch Rust implementation of **"Network Loss Inference with
//! Second Order Statistics of End-to-End Flows"** (Hung X. Nguyen and
//! Patrick Thiran, IMC 2007): infer per-link packet loss rates from
//! nothing but regular unicast end-to-end measurements, by exploiting
//! the *spatial covariance* of path loss rates.
//!
//! This facade crate re-exports the four member crates:
//!
//! * [`linalg`] — dense/sparse linear algebra (Householder QR, pivoted
//!   QR, the column-append [`linalg::AppendQr`], the sparse
//!   rank-revealing [`linalg::SparseQr`], Cholesky, least squares, rank
//!   estimation);
//! * [`topology`] — graph model, BRITE-like generators, routing, alias
//!   reduction, routing matrices, flutter filtering;
//! * [`netsim`] — Gilbert/Bernoulli loss simulation, LLRD models, the
//!   probe engine (batch and [`netsim::simulate_stream`] streaming),
//!   probe wire format and traceroute error model;
//! * [`core`] — the LIA algorithm (variance learning + rank-reduced
//!   first-moment inversion), the estimator zoo behind
//!   [`core::LossEstimator`] (LIA and a Deng-style fast solver), the
//!   streaming
//!   [`core::streaming::OnlineEstimator`], baselines, metrics and
//!   analyses;
//! * [`wire`] — the framed binary snapshot wire format of the service
//!   edge: batch encoder, zero-copy [`wire::WireBatch`] parser whose
//!   row views alias the input buffer, and CRC32 integrity;
//! * [`fleet`] — multi-tenant online inference: a [`fleet::Fleet`] of
//!   independent estimators behind bounded per-tenant snapshot queues,
//!   drained by a sharded worker pool, with congested-set change
//!   events per tenant, wire-batch ingest
//!   ([`fleet::Fleet::ingest_wire_batch`]), a frame demux thread, and
//!   the [`fleet::Fleet::query`] stats surface.
//!
//! See `ARCHITECTURE.md` at the repository root for the crate
//! dependency graph, the batch vs streaming data flow, and a
//! paper-to-code walkthrough; the `losstomo-bench` crate has a binary
//! per paper table/figure.
//!
//! ## Quickstart: batch inference
//!
//! Build a network, simulate `m + 1` snapshots of probe measurements,
//! learn the link variances from the first `m` (Phase 1), and infer
//! per-link loss rates on the last snapshot (Phase 2):
//!
//! ```
//! use losstomo::prelude::*;
//! use losstomo::topology::gen::tree::{self, TreeParams};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. A random 60-node tree: beacon at the root, destinations at the
//! //    leaves, alias-reduced to the measurement system R.
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = tree::generate(TreeParams { nodes: 60, max_branching: 4 }, &mut rng);
//! let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
//! let red = reduce(&topo.graph, &paths);
//!
//! // 2. Simulate m + 1 snapshots: 20% of links congested, bursty
//! //    (Gilbert) losses, 200 probes per path per snapshot.
//! let m = 12;
//! let mut scenario =
//!     CongestionScenario::draw(red.num_links(), 0.2, CongestionDynamics::Fixed, &mut rng);
//! let probe = ProbeConfig { probes_per_snapshot: 200, ..ProbeConfig::default() };
//! let ms = simulate_run(&red, &mut scenario, &probe, m + 1, &mut rng);
//!
//! // 3. Phase 1 — link variances from the first m snapshots.
//! let aug = AugmentedSystem::build(&red);
//! let train = MeasurementSet { snapshots: ms.snapshots[..m].to_vec() };
//! let centered = CenteredMeasurements::new(&train);
//! let est_v = estimate_variances(&red, &aug, &centered, &VarianceConfig::default())?;
//! assert_eq!(est_v.v.len(), red.num_links());
//!
//! // 4. Phase 2 — per-link loss rates on the newest snapshot.
//! let eval = &ms.snapshots[m];
//! let est = infer_link_rates(&red, &est_v.v, &eval.log_rates(), &LiaConfig::default())?;
//! assert_eq!(est.transmission.len(), red.num_links());
//! assert!(est.transmission.iter().all(|t| (0.0..=1.0).contains(t)));
//! # Ok::<(), losstomo::linalg::LinalgError>(())
//! ```
//!
//! ## Streaming inference
//!
//! The same pipeline, fed one snapshot at a time: the
//! [`core::streaming::OnlineEstimator`] ingests each snapshot as it
//! arrives, refreshes incrementally, and reports congested-set changes.
//! With the default configuration its output is bit-identical to the
//! batch pipeline over the same snapshots:
//!
//! ```
//! use losstomo::prelude::*;
//! use losstomo::topology::gen::tree::{self, TreeParams};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let topo = tree::generate(TreeParams { nodes: 40, max_branching: 4 }, &mut rng);
//! let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
//! let red = reduce(&topo.graph, &paths);
//! let scenario =
//!     CongestionScenario::draw(red.num_links(), 0.2, CongestionDynamics::Fixed, &mut rng);
//! let probe = ProbeConfig { probes_per_snapshot: 200, ..ProbeConfig::default() };
//!
//! // Snapshots arrive as an iterator; the estimator's retention is
//! // governed by its window mode (unbounded here — use
//! // `WindowMode::Sliding` for monitors that run indefinitely).
//! let mut monitor = OnlineEstimator::new(&red, OnlineConfig::default());
//! for snapshot in simulate_stream(&red, scenario, &probe, rng).take(10) {
//!     let update = monitor.ingest(&snapshot)?;
//!     // update.appeared / update.cleared list congested-set changes.
//!     if let Some(est) = &update.estimate {
//!         assert_eq!(est.transmission.len(), red.num_links());
//!     }
//! }
//! assert!(monitor.variances().is_some());
//! # Ok::<(), losstomo::linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use losstomo_core as core;
pub use losstomo_fleet as fleet;
pub use losstomo_linalg as linalg;
pub use losstomo_netsim as netsim;
pub use losstomo_topology as topology;
pub use losstomo_wire as wire;

/// A prepared measurement system: the routed paths, the alias-reduced
/// topology (with the shared `RoutingMatrix`), and the augmented
/// moment system of Definition 1.
///
/// Built by [`experiment_setup`]; this is the boilerplate every
/// experiment, example and monitor needs before it can simulate or
/// infer anything.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// One path per reachable beacon→destination pair, in routing-matrix
    /// row order.
    pub paths: topology::PathSet,
    /// The reduced measurement system `R`.
    pub red: topology::ReducedTopology,
    /// The augmented system `A` (Phase-1 moment rows).
    pub aug: core::AugmentedSystem,
}

/// Routes every beacon→destination pair, alias-reduces the covered
/// links into the measurement system `R`, and builds the augmented
/// system `A` — the setup sequence shared by the examples and the
/// experiment binaries.
///
/// ```
/// let fig = losstomo::topology::fixtures::figure1();
/// let setup = losstomo::experiment_setup(&fig.graph, &fig.beacons, &fig.destinations);
/// assert_eq!(setup.red.num_paths(), setup.paths.len());
/// assert_eq!(setup.aug.num_links(), setup.red.num_links());
/// ```
pub fn experiment_setup(
    graph: &topology::Graph,
    beacons: &[topology::NodeId],
    destinations: &[topology::NodeId],
) -> ExperimentSetup {
    let paths = topology::compute_paths(graph, beacons, destinations);
    let red = topology::reduce(graph, &paths);
    let aug = core::AugmentedSystem::build(&red);
    ExperimentSetup { paths, red, aug }
}

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use losstomo_core::{
        build_estimator, check_identifiability, cross_validate, estimate_delay_variances,
        estimate_variances, infer_link_delays, infer_link_rates, location_accuracy, run_experiment,
        run_many, scfs_diagnose, AugmentedSystem, CenteredMeasurements, ChurnReport,
        CrossValidationConfig, DelayEstimate, EliminationStrategy, EstimatorDiagnostics,
        EstimatorKind, EstimatorOutput, ExperimentConfig, LiaConfig, LinkRateEstimate,
        LossEstimator, OnlineConfig, OnlineEstimator, OnlineUpdate, ScfsConfig, Staleness,
        StreamingCovariance, VarianceConfig, WindowMode,
    };
    pub use losstomo_fleet::{
        Fleet, FleetConfig, FleetError, FleetEvent, FleetEventKind, TenantId, TenantStats,
    };
    pub use losstomo_netsim::{
        fan_in, simulate_run, simulate_snapshot, simulate_stream, ChainAdvance, CongestionDynamics,
        CongestionScenario, FlowletParams, FlowletProcess, LossModel, LossProcessKind,
        MeasurementSet, ProbeConfig, Snapshot, SnapshotFanIn, SnapshotStream, TracerouteConfig,
    };
    pub use losstomo_topology::{
        compute_paths, reduce, ChurnError, Graph, LinkId, NodeId, NodeKind, Path, PathId, PathSet,
        ReducedTopology, TopologyDelta, TopologyEdit,
    };
    pub use losstomo_wire::{
        BatchEncoder, FrameView, SnapshotView, WireBatch, WireEncodeOptions, WireError,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_pipeline_types() {
        use crate::prelude::*;
        // Compile-time check that the core types are reachable.
        let _cfg = LiaConfig::default();
        let _v = VarianceConfig::default();
        let _p = ProbeConfig::default();
        let _x = CrossValidationConfig::default();
        let _o = OnlineConfig::default();
        let _w = WindowMode::default();
        let _f = FleetConfig::default();
        let _k = EstimatorKind::default();
        let _fl = FlowletParams::default();
    }
}
