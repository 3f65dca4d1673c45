//! End-to-end experiment harness: generate losses, learn variances,
//! infer rates, score against ground truth.
//!
//! This is the engine behind every simulation figure and table
//! (Sections 6.1–6.3): one [`run_experiment`] call reproduces a single
//! cell; [`run_many`] repeats it across seeds in parallel (the paper
//! averages 10 runs per configuration).

use crate::budget::PairBudget;
use crate::covariance::CenteredMeasurements;
use crate::estimator::{build_estimator, EstimatorKind, LossEstimator};
use crate::lia::{LiaConfig, LinkRateEstimate};
use crate::metrics::{location_accuracy, LocationAccuracy, RateErrors, DEFAULT_DELTA};
use crate::scfs::{scfs_diagnose, ScfsConfig};
use crate::variance::VarianceConfig;
use losstomo_linalg::LinalgError;
use losstomo_netsim::{simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig};
use losstomo_topology::ReducedTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Full configuration of one simulated experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Fraction of congested links (the paper's `p`, default 10 %).
    pub p_congested: f64,
    /// Learning snapshots `m` (default 50).
    pub snapshots: usize,
    /// Probe engine settings (`S`, loss model, loss process).
    pub probe: ProbeConfig,
    /// Congested-set evolution (default fixed, as in Section 6).
    pub dynamics: CongestionDynamics,
    /// Phase-2 settings.
    pub lia: LiaConfig,
    /// Phase-1 settings.
    pub variance: VarianceConfig,
    /// Row budget for the augmented pair system (default: full).
    pub pair_budget: PairBudget,
    /// Which estimator backend runs the inference (default: LIA).
    pub estimator: EstimatorKind,
    /// Error-factor margin `δ`.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Also run the SCFS baseline on the evaluation snapshot.
    pub run_scfs: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            p_congested: 0.1,
            snapshots: 50,
            probe: ProbeConfig::default(),
            dynamics: CongestionDynamics::Fixed,
            lia: LiaConfig::default(),
            variance: VarianceConfig::default(),
            pair_budget: PairBudget::default(),
            estimator: EstimatorKind::default(),
            delta: DEFAULT_DELTA,
            seed: 0,
            run_scfs: false,
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// LIA's congested-link location accuracy on the evaluation
    /// snapshot.
    pub location: LocationAccuracy,
    /// SCFS's accuracy on the same snapshot (if requested).
    pub scfs_location: Option<LocationAccuracy>,
    /// Per-link loss-rate errors of LIA.
    pub errors: RateErrors,
    /// Columns kept in `R*`.
    pub kept_count: usize,
    /// Truly congested links in the evaluation snapshot.
    pub congested_count: usize,
    /// Estimated link variances from Phase 1.
    pub variances: Vec<f64>,
    /// True per-link loss rates in the evaluation snapshot.
    pub true_loss: Vec<f64>,
    /// Estimated per-link loss rates.
    pub est_loss: Vec<f64>,
    /// Covariance rows dropped for being negative.
    pub dropped_rows: usize,
}

impl ExperimentResult {
    /// The Figure-7 statistic: congested links per kept column
    /// (must stay < 1 for the Phase-2 approximation to be safe).
    pub fn congested_to_kept_ratio(&self) -> f64 {
        if self.kept_count == 0 {
            0.0
        } else {
            self.congested_count as f64 / self.kept_count as f64
        }
    }
}

/// Runs one complete experiment on a prepared topology.
///
/// Simulates `m + 1` snapshots; the first `m` feed Phase 1, the last is
/// the evaluation snapshot for Phase 2 and the baselines. Fewer than
/// two training snapshots have no sample covariance:
/// [`LinalgError::DimensionMismatch`], before anything is simulated.
pub fn run_experiment(
    red: &ReducedTopology,
    cfg: &ExperimentConfig,
) -> Result<ExperimentResult, LinalgError> {
    let mut backend = build_estimator(cfg.estimator, red, cfg.lia, cfg.variance, cfg.pair_budget);
    run_with(red, cfg, backend.as_mut())
}

/// [`run_experiment`] through `backend`, a backend built for `red` from
/// `cfg` (a warm one gives the same bits as a fresh one).
fn run_with(
    red: &ReducedTopology,
    cfg: &ExperimentConfig,
    backend: &mut dyn LossEstimator,
) -> Result<ExperimentResult, LinalgError> {
    if cfg.snapshots < 2 {
        let msg = format!("need at least 2 training snapshots, got {}", cfg.snapshots);
        return Err(LinalgError::DimensionMismatch(msg));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), cfg.p_congested, cfg.dynamics, &mut rng);
    let mut ms = simulate_run(red, &mut scenario, &cfg.probe, cfg.snapshots + 1, &mut rng);

    // Training snapshots feed the backend's learning stage (Phase 1
    // for LIA and Deng), the evaluation snapshot feeds its solve stage.
    let eval = ms.snapshots.pop().expect("m + 1 snapshots were simulated");
    let centered = CenteredMeasurements::new(&ms);
    let y = eval.log_rates();
    let out = backend.estimate(&centered, &y)?;

    Ok(score_against_truth(
        red,
        cfg,
        &eval,
        &out.estimate,
        out.diagnostics.variances,
        out.diagnostics.dropped_rows,
    ))
}

/// Scores an estimate against a snapshot's ground truth, including the
/// optional SCFS baseline. Exposed so ablation binaries can score
/// alternative estimators with identical logic.
pub fn score_against_truth(
    red: &ReducedTopology,
    cfg: &ExperimentConfig,
    eval: &losstomo_netsim::Snapshot,
    est: &LinkRateEstimate,
    variances: Vec<f64>,
    dropped_rows: usize,
) -> ExperimentResult {
    let threshold = cfg.probe.loss_model.threshold();
    let true_loss: Vec<f64> = eval.link_truth.iter().map(|t| t.true_loss_rate()).collect();
    // The paper's F is the set of links the loss model made congested
    // (diagnosis X is still thresholded on the *inferred* rates).
    let truth_flags: Vec<bool> = eval.link_truth.iter().map(|t| t.congested).collect();
    let est_loss = est.loss_rates();
    let est_flags: Vec<bool> = est_loss.iter().map(|&l| l > threshold).collect();
    let location = location_accuracy(&truth_flags, &est_flags);
    let errors = RateErrors::compare(&true_loss, &est_loss, cfg.delta);

    let scfs_location = if cfg.run_scfs {
        let diagnosed = scfs_diagnose(
            red,
            &eval.path_loss_rates(),
            &ScfsConfig {
                link_threshold: threshold,
            },
        );
        Some(location_accuracy(&truth_flags, &diagnosed))
    } else {
        None
    };

    ExperimentResult {
        location,
        scfs_location,
        errors,
        kept_count: est.kept_count,
        congested_count: truth_flags.iter().filter(|&&c| c).count(),
        variances,
        true_loss,
        est_loss,
        dropped_rows,
    }
}

/// Runs `n_runs` experiments with seeds `cfg.seed .. cfg.seed + n_runs`,
/// in parallel across threads (crossbeam scoped threads; results are
/// returned in seed order). Worker count follows
/// [`crate::parallel::num_threads`] (`LOSSTOMO_THREADS` caps it). Each
/// worker builds one backend for `red` and runs all of its seeds
/// through it; every result equals [`run_experiment`]'s for that seed.
pub fn run_many(
    red: &ReducedTopology,
    cfg: &ExperimentConfig,
    n_runs: usize,
) -> Vec<Result<ExperimentResult, LinalgError>> {
    let n_threads = crate::parallel::num_threads().min(n_runs.max(1));
    let results = parking_lot::Mutex::new(Vec::with_capacity(n_runs));
    for _ in 0..n_runs {
        results.lock().push(None);
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|_| {
                let mut backend =
                    build_estimator(cfg.estimator, red, cfg.lia, cfg.variance, cfg.pair_budget);
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n_runs {
                        break;
                    }
                    let mut run_cfg = *cfg;
                    run_cfg.seed = cfg.seed + i as u64;
                    let r = run_with(red, &run_cfg, backend.as_mut());
                    results.lock()[i] = Some(r);
                }
            });
        }
    })
    .expect("experiment worker panicked");
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("all slots filled by workers"))
        .collect()
}

/// Averages location accuracies across successful runs.
pub fn average_location(results: &[Result<ExperimentResult, LinalgError>]) -> LocationAccuracy {
    let ok: Vec<&ExperimentResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    if ok.is_empty() {
        return LocationAccuracy {
            detection_rate: 0.0,
            false_positive_rate: 0.0,
            actual_congested: 0,
            diagnosed_congested: 0,
        };
    }
    let n = ok.len() as f64;
    LocationAccuracy {
        detection_rate: ok.iter().map(|r| r.location.detection_rate).sum::<f64>() / n,
        false_positive_rate: ok
            .iter()
            .map(|r| r.location.false_positive_rate)
            .sum::<f64>()
            / n,
        actual_congested: ok
            .iter()
            .map(|r| r.location.actual_congested)
            .sum::<usize>()
            / ok.len(),
        diagnosed_congested: ok
            .iter()
            .map(|r| r.location.diagnosed_congested)
            .sum::<usize>()
            / ok.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_topology::gen::tree::{self, TreeParams};
    use losstomo_topology::{compute_paths, reduce};

    fn small_tree(seed: u64) -> ReducedTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tree::generate(
            TreeParams {
                nodes: 100,
                max_branching: 5,
            },
            &mut rng,
        );
        let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
        reduce(&t.graph, &paths)
    }

    #[test]
    fn lia_beats_chance_on_small_tree() {
        let red = small_tree(31);
        let cfg = ExperimentConfig {
            snapshots: 30,
            run_scfs: true,
            seed: 7,
            ..ExperimentConfig::default()
        };
        let res = run_experiment(&red, &cfg).unwrap();
        assert!(
            res.location.detection_rate > 0.8,
            "DR {:.2} too low",
            res.location.detection_rate
        );
        // At 100-node scale the kept column set is much larger than the
        // congested set, so borderline good links inflate the FPR; at
        // the paper's 1000-node scale (bench binaries) FPR drops below
        // a few percent because R* keeps almost exactly the congested
        // links.
        assert!(
            res.location.false_positive_rate < 0.45,
            "FPR {:.2} too high",
            res.location.false_positive_rate
        );
        assert!(res.scfs_location.is_some());
        // Figure-7 invariant: congested links fit within R*.
        assert!(res.congested_to_kept_ratio() <= 1.0);
    }

    #[test]
    fn run_many_is_deterministic_and_ordered() {
        let red = small_tree(32);
        let cfg = ExperimentConfig {
            snapshots: 10,
            seed: 100,
            ..ExperimentConfig::default()
        };
        let a = run_many(&red, &cfg, 3);
        let b = run_many(&red, &cfg, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.location, y.location);
        }
        // Different seeds give different draws.
        let drs: Vec<f64> = a
            .iter()
            .map(|r| r.as_ref().unwrap().congested_count as f64)
            .collect();
        assert!(drs.len() == 3);
    }

    /// `S = 1` is the smallest probe count the simulator accepts
    /// (`S = 0` panics there); every output must still be finite.
    #[test]
    fn single_probe_experiment_is_finite() {
        let red = small_tree(33);
        let cfg = ExperimentConfig {
            snapshots: 10,
            probe: losstomo_netsim::ProbeConfig {
                probes_per_snapshot: 1,
                ..Default::default()
            },
            seed: 5,
            ..ExperimentConfig::default()
        };
        let res = run_experiment(&red, &cfg).unwrap();
        assert!(res.variances.iter().all(|v| v.is_finite()));
        assert!(res.est_loss.iter().all(|l| l.is_finite()));
        assert!(res.true_loss.iter().all(|l| l.is_finite()));
        assert!(res.errors.error_factors.iter().all(|e| e.is_finite()));
        assert!(res.errors.absolute_errors.iter().all(|e| e.is_finite()));
    }

    /// Fewer than two training snapshots have no sample covariance:
    /// every backend returns a typed error, alone and inside
    /// `run_many`, instead of panicking; two snapshots are enough.
    #[test]
    fn fewer_than_two_training_snapshots_is_a_typed_error() {
        let red = small_tree(34);
        for estimator in EstimatorKind::all() {
            for m in [0, 1] {
                let cfg = ExperimentConfig {
                    snapshots: m,
                    estimator,
                    ..ExperimentConfig::default()
                };
                let want = LinalgError::DimensionMismatch(format!(
                    "need at least 2 training snapshots, got {m}"
                ));
                assert_eq!(run_experiment(&red, &cfg).unwrap_err(), want);
                for r in run_many(&red, &cfg, 3) {
                    assert_eq!(r.unwrap_err(), want);
                }
            }
            let cfg = ExperimentConfig {
                snapshots: 2,
                estimator,
                ..ExperimentConfig::default()
            };
            run_experiment(&red, &cfg).unwrap();
        }
    }

    #[test]
    fn average_location_handles_empty() {
        let avg = average_location(&[]);
        assert_eq!(avg.detection_rate, 0.0);
    }
}
