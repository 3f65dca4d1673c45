//! Delay tomography — the paper's first proposed extension (Section 8).
//!
//! "A first immediate extension is to compute link delays. Congested
//! links usually have high delay variations. In this direction, we first
//! need to take multiple snapshots of the network to learn about the
//! delay variances. Based on the inferred variances, we could then
//! reduce the first order moment equations by removing links with small
//! congestion delays and then solve for the delays of the remaining
//! congested links."
//!
//! Delays compose *additively* along a path, so the measurement model is
//! `Y = R X` directly (no log transform) with `X_k` the mean link delay
//! of the snapshot. Two things change relative to loss:
//!
//! * the covariance identity `Σ = R diag(v) Rᵀ` and Theorem 1 carry over
//!   unchanged — the same [`crate::augmented::AugmentedSystem`] serves
//!   Phase 1;
//! * un-congested links do **not** have near-zero delay (they still have
//!   propagation delay), so Phase 2 must operate on the *queueing
//!   component*: we subtract a per-path baseline (the minimum observed
//!   path delay, an estimate of its propagation total) and approximate
//!   eliminated links' queueing delay by 0.

use crate::augmented::AugmentedSystem;
use crate::covariance::CenteredMeasurements;
use crate::lia::{variance_order, LiaConfig};
use crate::variance::{estimate_variances, VarianceConfig, VarianceEstimate};
use losstomo_linalg::LinalgError;
use losstomo_netsim::delay::DelaySnapshot;
use losstomo_topology::ReducedTopology;
use serde::{Deserialize, Serialize};

/// Result of the delay-inference extension on one snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayEstimate {
    /// Estimated mean *queueing* delay per link (ms); 0 for eliminated
    /// links.
    pub queue_delay: Vec<f64>,
    /// Whether each link survived into the reduced system.
    pub kept: Vec<bool>,
}

impl DelayEstimate {
    /// Links whose estimated queueing delay exceeds `threshold` ms.
    pub fn congested_links(&self, threshold: f64) -> Vec<usize> {
        self.queue_delay
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > threshold)
            .map(|(k, _)| k)
            .collect()
    }
}

/// Learns per-link delay variances from `m` snapshots (Phase 1 for
/// delays; identical moment system, no log transform).
pub fn estimate_delay_variances(
    red: &ReducedTopology,
    aug: &AugmentedSystem,
    snapshots: &[DelaySnapshot],
    cfg: &VarianceConfig,
) -> Result<VarianceEstimate, LinalgError> {
    let rows: Vec<Vec<f64>> = snapshots.iter().map(|s| s.path_delay.clone()).collect();
    let centered = CenteredMeasurements::from_rows(rows);
    estimate_variances(red, aug, &centered, cfg)
}

/// Phase 2 for delays: subtract the per-path baseline (minimum path
/// delay over the learning window ≈ propagation total), eliminate the
/// low-variance columns, and solve for the queueing delays of the
/// surviving links.
///
/// `history` supplies the baselines; `eval` is the snapshot to explain.
/// It passes Phase 2's snapshot check: a mis-sized `eval` is a
/// [`LinalgError::DimensionMismatch`], and a NaN or ±∞ delay a
/// [`LinalgError::NonFinite`] (a NaN would otherwise read as zero
/// queueing delay).
///
/// Limitation (inherent to baseline subtraction): a link congested in
/// *every* history snapshot leaks its minimum queueing delay into the
/// baseline, so only its excess over that minimum is attributed to it.
/// With episodic congestion (the regime of Section 7.2.2) the baseline
/// tracks true propagation and queueing delays are recovered in full.
pub fn infer_link_delays(
    red: &ReducedTopology,
    variances: &[f64],
    history: &[DelaySnapshot],
    eval: &DelaySnapshot,
    cfg: &LiaConfig,
) -> Result<DelayEstimate, LinalgError> {
    let np = red.num_paths();
    crate::lia::check_snapshot(np, &eval.path_delay)?;
    if history.is_empty() {
        return Err(LinalgError::Empty);
    }
    // Per-path baseline: the smallest delay ever observed on the path.
    let mut baseline = vec![f64::INFINITY; np];
    for snap in history {
        for (b, &d) in baseline.iter_mut().zip(snap.path_delay.iter()) {
            *b = b.min(d);
        }
    }
    let y: Vec<f64> = eval
        .path_delay
        .iter()
        .zip(baseline.iter())
        .map(|(&d, &b)| (d - b).max(0.0))
        .collect();

    assert_eq!(
        variances.len(),
        red.num_links(),
        "got {} variances for {} links",
        variances.len(),
        red.num_links()
    );
    // The same column-append scan as LIA's dense Phase 2: it selects
    // the columns and factors `R*` in one pass.
    let factor = crate::lia::dense_factor(red, &variance_order(variances), cfg.elimination);
    let x = factor.solve(&y)?;
    let mut queue_delay = vec![0.0; red.num_links()];
    let mut kept_mask = vec![false; red.num_links()];
    for (pos, &k) in factor.cols().iter().enumerate() {
        queue_delay[k] = x[pos].max(0.0);
        kept_mask[k] = true;
    }
    Ok(DelayEstimate {
        queue_delay,
        kept: kept_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_netsim::delay::{simulate_delay_run, DelayConfig, DelayNetwork};
    use losstomo_netsim::{CongestionDynamics, CongestionScenario};
    use losstomo_topology::gen::tree::{self, TreeParams};
    use losstomo_topology::{compute_paths, reduce};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_delay_pipeline(seed: u64) -> (Vec<bool>, DelayEstimate, DelaySnapshot) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = tree::generate(
            TreeParams {
                nodes: 80,
                max_branching: 4,
            },
            &mut rng,
        );
        let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
        let red = reduce(&topo.graph, &paths);
        let cfg = DelayConfig::default();
        let net = DelayNetwork::draw(&red, &cfg, &mut rng);
        // Episodic congestion: links alternate between good and
        // congested states, so every path sees its propagation-only
        // baseline at least once in the window.
        let mut scenario = CongestionScenario::draw(
            red.num_links(),
            0.1,
            CongestionDynamics::Markov {
                stay_congested: 0.7,
            },
            &mut rng,
        );
        let m = 40;
        let snaps = simulate_delay_run(&red, &net, &mut scenario, &cfg, m + 1, &mut rng);
        let aug = AugmentedSystem::build(&red);
        let v =
            estimate_delay_variances(&red, &aug, &snaps[..m], &VarianceConfig::default()).unwrap();
        let est =
            infer_link_delays(&red, &v.v, &snaps[..m], &snaps[m], &LiaConfig::default()).unwrap();
        // "Detectable" congested links: congested in the evaluation
        // snapshot AND congested often enough during the learning window
        // for Phase 1 to have seen their delay variance. Links whose
        // first congestion episode *is* the evaluation snapshot are
        // invisible to any variance-based method.
        let window_congestion: Vec<usize> = (0..red.num_links())
            .map(|k| snaps[..m].iter().filter(|s| s.congested[k]).count())
            .collect();
        let truth: Vec<bool> = (0..red.num_links())
            .map(|k| snaps[m].congested[k] && window_congestion[k] >= m / 4)
            .collect();
        (truth, est, snaps[m].clone())
    }

    #[test]
    fn congested_links_found_via_delays() {
        let (truth, est, _) = run_delay_pipeline(1);
        // Detectable congested links must be among the estimated
        // high-queue links (threshold 2 ms, well below the 5–40 ms
        // congested range).
        let detected = est.congested_links(2.0);
        let missed: Vec<usize> = truth
            .iter()
            .enumerate()
            .filter(|(k, &c)| c && !detected.contains(k))
            .map(|(k, _)| k)
            .collect();
        let total = truth.iter().filter(|&&c| c).count();
        assert!(
            missed.len() <= total / 4,
            "missed {missed:?} of {total} detectable congested links"
        );
    }

    #[test]
    fn estimated_queue_delays_track_truth() {
        let (_, est, eval) = run_delay_pipeline(2);
        for (k, (&est_d, &true_d)) in est
            .queue_delay
            .iter()
            .zip(eval.link_queue_delay.iter())
            .enumerate()
        {
            if est.kept[k] && true_d > 5.0 {
                assert!(
                    (est_d - true_d).abs() < 0.5 * true_d + 3.0,
                    "link {k}: est {est_d:.2} vs true {true_d:.2}"
                );
            }
        }
    }

    #[test]
    fn errors_on_bad_input() {
        let red = losstomo_topology::fixtures::reduced(&losstomo_topology::fixtures::figure1());
        let snap = |path_delay: Vec<f64>| DelaySnapshot {
            path_delay,
            link_queue_delay: vec![],
            congested: vec![],
        };
        let cfg = LiaConfig::default();
        let est = infer_link_delays(&red, &[0.0; 5], &[], &snap(vec![0.0; 3]), &cfg);
        assert!(est.is_err());
        // A NaN delay is rejected, not read as zero queueing delay.
        let history = [snap(vec![1.0; 3]), snap(vec![2.0; 3])];
        let eval = snap(vec![1.0, f64::NAN, 1.0]);
        let est = infer_link_delays(&red, &[0.0; 5], &history, &eval, &cfg);
        assert_eq!(est.unwrap_err(), LinalgError::NonFinite { index: 1 });
    }
}
