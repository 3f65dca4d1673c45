//! # losstomo-core — Loss Inference with Second-Order Statistics
//!
//! Rust implementation of the **LIA** algorithm from Nguyen & Thiran,
//! *"Network Loss Inference with Second Order Statistics of End-to-End
//! Flows"*, IMC 2007.
//!
//! The mean loss rates of network links are **not** identifiable from
//! end-to-end unicast measurements (the first-moment system `Y = R X`
//! is rank deficient on essentially every topology). The paper's insight
//! is that the *variances* of the links' log transmission rates **are**
//! identifiable: the covariance matrix of path measurements satisfies
//! `Σ = R diag(v) Rᵀ`, equivalently `Σ* = A v` where the augmented
//! matrix `A` (pairwise products of routing rows) provably has full
//! column rank (Theorem 1). Because congestion losses are bursty, a
//! link's variance is a monotone proxy for its congestion level, so the
//! learnt variances tell us *which columns of `R` can be safely deleted*
//! (the quiet links), leaving a full-rank first-moment system for the
//! congested ones.
//!
//! ## Pipeline
//!
//! ```text
//!  m snapshots ──► covariance (eq. 7) ──► Σ* = A v  (Phase 1)
//!                                              │ variances v
//!  snapshot m+1 ──► Y = R* X* on the highest-variance
//!                   full-rank column set        (Phase 2)
//!                                              │
//!                 per-link loss rates, DR/FPR, error factors
//! ```
//!
//! ## Module map
//!
//! * [`covariance`] — sample moments of path measurements (eq. 7)
//! * [`augmented`] — the matrix `A` of Definition 1 + Theorem-1 check
//! * [`variance`] — Phase 1 (GMM least-squares estimator)
//! * [`lia`] — Phase 2 column elimination + reduced solve
//! * [`tree`] — the tree check, and the tree both phases solve in
//!   closed form
//! * [`streaming`] — covariance window + online two-phase
//!   estimation over snapshot streams
//! * [`scfs`] — the SCFS single-snapshot baseline of Figure 5
//! * [`estimator`] — the estimator zoo: LIA and Deng-style fast
//!   matching, behind one trait
//! * [`metrics`] — DR/FPR, error factor `f_δ`, CDFs, summaries
//! * [`validate`] — inference/validation split, eq. (11)
//! * [`analysis`] — Figure-3 scatter, Table-3 AS split, §7.2.2 durations
//! * [`identifiability`] — rank diagnostics for `R` and `A`
//! * [`experiment`] — the end-to-end simulation harness
//! * [`parallel`] — thread-count policy for the parallel stages

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod augmented;
pub mod budget;
pub mod covariance;
pub mod delay;
pub mod estimator;
pub mod experiment;
pub mod identifiability;
pub mod lia;
pub mod metrics;
pub mod parallel;
pub mod scfs;
pub mod streaming;
pub mod tree;
pub mod validate;
pub mod variance;

pub use augmented::AugmentedSystem;
pub use budget::{apply_budget, select_pairs, PairBudget, PairSelection};
pub use covariance::CenteredMeasurements;
pub use delay::{estimate_delay_variances, infer_link_delays, DelayEstimate};
pub use estimator::{
    build_estimator, deng_fast_variances, EstimatorDiagnostics, EstimatorKind, EstimatorOutput,
    LossEstimator,
};
pub use experiment::{run_experiment, run_many, ExperimentConfig, ExperimentResult};
pub use identifiability::{check_identifiability, IdentifiabilityReport};
pub use lia::{
    infer_link_rates, select_full_rank_columns, EliminationStrategy, LiaConfig, LinkRateEstimate,
    Phase2Dispatch, RankView,
};
pub use metrics::{location_accuracy, LocationAccuracy, RateErrors, Summary};
pub use scfs::{scfs_diagnose, ScfsConfig};
pub use streaming::{
    ChurnReport, OnlineConfig, OnlineEstimator, OnlineUpdate, RefreshTiming, Staleness,
    StreamingCovariance, WindowMode,
};
pub use validate::{cross_validate, CrossValidationConfig, CrossValidationResult};
pub use variance::{
    estimate_variances, estimate_variances_from_sigmas, FallbackReason, Phase1Dispatch,
    Phase1Fallback, VarianceConfig, VarianceEstimate,
};
