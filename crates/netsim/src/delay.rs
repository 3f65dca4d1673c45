//! Per-link delay simulation — the substrate for the paper's first
//! proposed extension (Section 8): "A first immediate extension is to
//! compute link delays. Congested links usually have high delay
//! variations."
//!
//! Each link has a fixed propagation delay plus a queueing component:
//! negligible jitter on un-congested links, and a per-snapshot mean
//! queueing delay with per-packet jitter on congested links. Path delay
//! is the sum of link delays, so the measurement model is linear without
//! any log transform, and the identifiability theory of Section 4
//! carries over verbatim (the augmented matrix `A` is the same).

use crate::scenario::CongestionScenario;
use losstomo_topology::ReducedTopology;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Delay-model configuration (all values in milliseconds).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DelayConfig {
    /// Probes per path per snapshot (averaged into one path-delay
    /// sample, like the loss engine's `S`).
    pub probes_per_snapshot: u32,
    /// Propagation delay per link drawn once from `U[min, max)`.
    pub propagation_range: (f64, f64),
    /// Mean queueing delay of a congested link, re-drawn per snapshot
    /// from `U[min, max)`.
    pub congested_queue_range: (f64, f64),
    /// Mean queueing delay of a good link per snapshot, `U[0, max)`.
    pub good_queue_max: f64,
}

impl Default for DelayConfig {
    fn default() -> Self {
        DelayConfig {
            probes_per_snapshot: 1000,
            propagation_range: (1.0, 10.0),
            congested_queue_range: (5.0, 40.0),
            good_queue_max: 0.2,
        }
    }
}

/// Fixed per-run delay state: propagation delays, drawn once (T.1).
#[derive(Debug, Clone)]
pub struct DelayNetwork {
    /// Propagation delay per virtual link.
    pub propagation: Vec<f64>,
}

impl DelayNetwork {
    /// Draws propagation delays for every link of the topology.
    pub fn draw<R: Rng>(red: &ReducedTopology, cfg: &DelayConfig, rng: &mut R) -> Self {
        let (lo, hi) = cfg.propagation_range;
        assert!(lo < hi, "propagation range must be non-empty");
        DelayNetwork {
            propagation: (0..red.num_links())
                .map(|_| rng.gen_range(lo..hi))
                .collect(),
        }
    }
}

/// One delay snapshot: average path delays plus ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelaySnapshot {
    /// Average end-to-end delay per path (ms), over `S` probes.
    pub path_delay: Vec<f64>,
    /// Ground truth: mean queueing delay per link in this snapshot.
    pub link_queue_delay: Vec<f64>,
    /// Ground truth: congestion status per link.
    pub congested: Vec<bool>,
}

/// Simulates one delay snapshot.
///
/// Every congested link draws a snapshot-mean queueing delay; each
/// probe's per-link delay is `propagation + Exp(mean queue)`; the path
/// sample is the average over `S` probes. Averaging keeps the
/// measurement noise `O(mean/√S)`, so path delays are effectively the
/// sum of per-link snapshot means — the linear model `Y = R X`.
pub fn simulate_delay_snapshot<R: Rng>(
    red: &ReducedTopology,
    net: &DelayNetwork,
    scenario: &CongestionScenario,
    cfg: &DelayConfig,
    rng: &mut R,
) -> DelaySnapshot {
    let n_links = red.num_links();
    assert_eq!(scenario.len(), n_links, "scenario/topology size mismatch");
    let (qlo, qhi) = cfg.congested_queue_range;
    // Per-snapshot mean queueing delay per link.
    let queue_mean: Vec<f64> = (0..n_links)
        .map(|k| {
            if scenario.is_congested(k) {
                rng.gen_range(qlo..qhi)
            } else {
                rng.gen_range(0.0..cfg.good_queue_max)
            }
        })
        .collect();
    // Per-path averages over S probes; exponential jitter around the
    // per-link mean (inverse-CDF sampling).
    let s = cfg.probes_per_snapshot.max(1);
    let mut path_delay = vec![0.0; red.num_paths()];
    for (i, delay_out) in path_delay.iter_mut().enumerate() {
        let links = red.path_links(losstomo_topology::PathId(i as u32));
        let mut acc = 0.0;
        for _ in 0..s {
            for &k in links {
                let jitter = -queue_mean[k] * (1.0 - rng.gen::<f64>()).ln();
                acc += net.propagation[k] + jitter;
            }
        }
        *delay_out = acc / s as f64;
    }
    DelaySnapshot {
        path_delay,
        link_queue_delay: queue_mean,
        congested: scenario.statuses().to_vec(),
    }
}

/// Simulates a run of consecutive delay snapshots, advancing the
/// congestion scenario between them.
pub fn simulate_delay_run<R: Rng>(
    red: &ReducedTopology,
    net: &DelayNetwork,
    scenario: &mut CongestionScenario,
    cfg: &DelayConfig,
    n_snapshots: usize,
    rng: &mut R,
) -> Vec<DelaySnapshot> {
    let mut out = Vec::with_capacity(n_snapshots);
    for t in 0..n_snapshots {
        if t > 0 {
            scenario.advance(rng);
        }
        out.push(simulate_delay_snapshot(red, net, scenario, cfg, rng));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CongestionDynamics;
    use losstomo_topology::fixtures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(p: f64, seed: u64) -> (ReducedTopology, DelayNetwork, CongestionScenario, StdRng) {
        let red = fixtures::reduced(&fixtures::figure1());
        let mut rng = StdRng::seed_from_u64(seed);
        let net = DelayNetwork::draw(&red, &DelayConfig::default(), &mut rng);
        let scenario =
            CongestionScenario::draw(red.num_links(), p, CongestionDynamics::Fixed, &mut rng);
        (red, net, scenario, rng)
    }

    #[test]
    fn path_delay_close_to_sum_of_link_means() {
        let (red, net, scenario, mut rng) = setup(1.0, 1);
        let cfg = DelayConfig::default();
        let snap = simulate_delay_snapshot(&red, &net, &scenario, &cfg, &mut rng);
        for (i, &d) in snap.path_delay.iter().enumerate() {
            let links = red.path_links(losstomo_topology::PathId(i as u32));
            let expected: f64 = links
                .iter()
                .map(|&k| net.propagation[k] + snap.link_queue_delay[k])
                .sum();
            // Averaged over 1000 probes: within a few percent.
            assert!(
                (d - expected).abs() < 0.15 * expected,
                "path {i}: {d} vs {expected}"
            );
        }
    }

    #[test]
    fn congested_links_have_larger_queues() {
        let (red, net, _, mut rng) = setup(0.0, 2);
        let cfg = DelayConfig::default();
        let all_good = CongestionScenario::with_statuses(
            0.0,
            CongestionDynamics::Fixed,
            vec![false; red.num_links()],
        );
        let all_bad = CongestionScenario::with_statuses(
            1.0,
            CongestionDynamics::Fixed,
            vec![true; red.num_links()],
        );
        let good = simulate_delay_snapshot(&red, &net, &all_good, &cfg, &mut rng);
        let bad = simulate_delay_snapshot(&red, &net, &all_bad, &cfg, &mut rng);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&bad.link_queue_delay) > 10.0 * avg(&good.link_queue_delay));
    }

    #[test]
    fn run_advances_scenario() {
        let (red, net, mut scenario, mut rng) = setup(0.5, 3);
        scenario.dynamics = CongestionDynamics::Redraw;
        let snaps = simulate_delay_run(
            &red,
            &net,
            &mut scenario,
            &DelayConfig::default(),
            4,
            &mut rng,
        );
        assert_eq!(snaps.len(), 4);
        assert!(snaps.windows(2).any(|w| w[0].congested != w[1].congested));
    }

    #[test]
    fn propagation_delays_in_range() {
        let (_, net, _, _) = setup(0.1, 4);
        assert!(net.propagation.iter().all(|&d| (1.0..10.0).contains(&d)));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn scenario_mismatch_panics() {
        let (red, net, _, mut rng) = setup(0.1, 5);
        let tiny = CongestionScenario::with_statuses(0.1, CongestionDynamics::Fixed, vec![false]);
        simulate_delay_snapshot(&red, &net, &tiny, &DelayConfig::default(), &mut rng);
    }
}
