//! Property-based tests for the flowlet bursty-loss workload
//! ([`losstomo_netsim::flowlet`]).
//!
//! The flowlet process promises three things:
//!
//! * **calibrated marginal** — the long-run per-packet loss rate equals
//!   the configured `p` for any burst-length law (renewal-reward
//!   calibration of the burst-start probability `q`);
//! * **burst-length control** — a maximal run of consecutive drops is a
//!   geometric number of back-to-back bursts, so its mean is exactly
//!   `μ / (1 − q)` with `μ` the analytic mean burst length;
//! * **determinism** — all randomness flows through the caller's RNG,
//!   so the same seed yields a bit-identical drop sequence and the
//!   engine's `simulate_stream ≡ simulate_run` contract carries over
//!   unchanged to [`LossProcessKind::Flowlet`].

use losstomo_netsim::flowlet::{FlowletParams, FlowletProcess};
use losstomo_netsim::{
    simulate_run, simulate_stream, CongestionDynamics, CongestionScenario, LossProcess,
    LossProcessKind, MeasurementSet, ProbeConfig,
};
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::{compute_paths, reduce};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `n` packets and returns (drop fraction, completed drop-run
/// lengths). Runs still open at the end are discarded so the sample is
/// unbiased.
fn run_process(p: &mut FlowletProcess, n: usize, seed: u64) -> (f64, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut drops = 0usize;
    let mut runs: Vec<u64> = Vec::new();
    let mut current = 0u64;
    for _ in 0..n {
        if !p.packet_survives(&mut rng) {
            drops += 1;
            current += 1;
        } else {
            if current > 0 {
                runs.push(current);
            }
            current = 0;
        }
    }
    (drops as f64 / n as f64, runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The long-run marginal loss rate converges to the configured `p`
    /// for any shape/truncation of the burst law.
    #[test]
    fn marginal_rate_converges_to_p(
        rate in 0.02f64..0.3,
        shape in 1.2f64..2.5,
        max_burst in 8u32..64,
        seed in 0u64..1000,
    ) {
        let mut p = FlowletProcess::with_params(rate, FlowletParams { shape, max_burst });
        let (emp, _) = run_process(&mut p, 400_000, seed);
        let tol = (0.06 * rate).max(0.004);
        prop_assert!(
            (emp - rate).abs() < tol,
            "configured {rate:.4}, empirical {emp:.4} (shape {shape:.2}, cap {max_burst})"
        );
    }

    /// Measured drop-run lengths match the configured burst law: a run
    /// is a geometric number of chained bursts, mean `μ / (1 − q)`.
    #[test]
    fn burst_lengths_match_flowlet_parameter(
        rate in 0.05f64..0.25,
        shape in 1.3f64..2.2,
        seed in 0u64..1000,
    ) {
        let params = FlowletParams { shape, max_burst: 32 };
        let mut p = FlowletProcess::with_params(rate, params);
        let mu = p.mean_burst();
        let q = p.burst_start_probability();
        let expected = mu / (1.0 - q);
        let (_, runs) = run_process(&mut p, 600_000, seed);
        prop_assert!(runs.len() > 500, "too few completed runs ({})", runs.len());
        let mean = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        prop_assert!(
            (mean - expected).abs() < 0.12 * expected + 0.05,
            "mean run {mean:.3} vs analytic {expected:.3} (shape {shape:.2}, rate {rate:.3})"
        );
    }

    /// Same seed ⇒ bit-identical drop sequence.
    #[test]
    fn same_seed_same_drop_sequence(
        rate in 0.01f64..0.5,
        seed in 0u64..1000,
    ) {
        let trace = |s: u64| {
            let mut p = FlowletProcess::from_loss_rate(rate);
            let mut rng = StdRng::seed_from_u64(s);
            (0..2000).map(|_| p.packet_survives(&mut rng)).collect::<Vec<bool>>()
        };
        prop_assert_eq!(trace(seed), trace(seed));
    }
}

/// Heavier tails (smaller shape) give longer bursts at equal loss rate
/// — the knob is monotone end to end.
#[test]
fn heavier_tail_means_longer_bursts() {
    let mk = |shape: f64| {
        let mut p = FlowletProcess::with_params(
            0.1,
            FlowletParams {
                shape,
                max_burst: 64,
            },
        );
        let (_, runs) = run_process(&mut p, 500_000, 77);
        runs.iter().sum::<u64>() as f64 / runs.len() as f64
    };
    let heavy = mk(1.2);
    let light = mk(2.5);
    assert!(
        heavy > 1.5 * light,
        "shape 1.2 mean run {heavy:.2} should dwarf shape 2.5 mean run {light:.2}"
    );
}

/// The engine contract: with [`LossProcessKind::Flowlet`],
/// `simulate_stream` yields a bit-identical snapshot sequence to
/// `simulate_run` from the same seed.
#[test]
fn stream_equals_batch_under_flowlet_loss() {
    let mut trng = StdRng::seed_from_u64(5);
    let t = tree::generate(
        TreeParams {
            nodes: 80,
            max_branching: 4,
        },
        &mut trng,
    );
    let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
    let red = reduce(&t.graph, &paths);
    let cfg = ProbeConfig {
        process: LossProcessKind::Flowlet,
        ..ProbeConfig::default()
    };
    let draw = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng)
    };
    let n = 12usize;

    let mut batch_rng = StdRng::seed_from_u64(99);
    let mut batch_scenario = draw(98);
    let batch = simulate_run(&red, &mut batch_scenario, &cfg, n, &mut batch_rng);

    let stream_rng = StdRng::seed_from_u64(99);
    let stream_scenario = draw(98);
    let streamed: MeasurementSet = simulate_stream(&red, stream_scenario, &cfg, stream_rng)
        .take(n)
        .collect();

    assert_eq!(batch.snapshots.len(), streamed.snapshots.len());
    for (a, b) in batch.snapshots.iter().zip(streamed.snapshots.iter()) {
        for (x, y) in a.log_rates().iter().zip(b.log_rates().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Flowlet losses are *burstier* than Bernoulli at equal marginal rate
/// — the reason the workload exists.
#[test]
fn flowlet_burstier_than_bernoulli_at_equal_rate() {
    let rate = 0.1;
    let mut fp = FlowletProcess::from_loss_rate(rate);
    let (_, flowlet_runs) = run_process(&mut fp, 400_000, 11);
    let flowlet_mean = flowlet_runs.iter().sum::<u64>() as f64 / flowlet_runs.len() as f64;
    // Bernoulli mean run at rate r is 1/(1-r) ≈ 1.11.
    assert!(
        flowlet_mean > 2.0,
        "flowlet mean drop-run {flowlet_mean:.2} should exceed Bernoulli's ~1.11"
    );
}
