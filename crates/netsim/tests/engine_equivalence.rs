//! The bit-sliced probe engine against the round-by-round walk it
//! replaced.
//!
//! [`oracle_snapshot`] is the engine as it was before survival
//! bitmasks: every transition is the float comparison
//! `gen::<f64>() < p`, and every probe round walks every path link by
//! link. The shipped engine draws the same values in the same order,
//! compares them against integer thresholds, and walks each path once
//! over 64-round words; it must reproduce the oracle exactly —
//! `path_received`, every `LinkTruth` field (the assigned rate by its
//! bits) and the RNG state afterwards — on random trees and meshes,
//! probe counts on and off a 64-round word boundary, every loss
//! process, both LLRD models, both chain-advance modes and congestion
//! probabilities from 0 to 1.

use losstomo_netsim::flowlet::FlowletProcess;
use losstomo_netsim::loss::GILBERT_STAY_BAD;
use losstomo_netsim::{
    simulate_snapshot, ChainAdvance, CongestionDynamics, CongestionScenario, LinkTruth, LossModel,
    LossProcess, LossProcessKind, ProbeConfig, Snapshot,
};
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::gen::waxman::{self, WaxmanParams};
use losstomo_topology::{compute_paths, reduce, ReducedTopology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A loss process as the round-by-round engine ran it: Gilbert and
/// Bernoulli transitions are float comparisons against the
/// probabilities; flowlet is the shipped process.
enum OracleProcess {
    Gilbert { p_gb: f64, p_bg: f64, bad: bool },
    Bernoulli { rate: f64 },
    Flowlet(FlowletProcess),
}

impl OracleProcess {
    fn new(kind: LossProcessKind, loss_rate: f64) -> Self {
        match kind {
            LossProcessKind::Gilbert => {
                // `GilbertProcess::from_loss_rate`'s calibration.
                let rate = loss_rate.clamp(0.0, 1.0);
                let p_bg_default = 1.0 - GILBERT_STAY_BAD;
                let (p_gb, p_bg) = if rate >= 1.0 {
                    (1.0, 0.0)
                } else if rate <= 0.0 {
                    (0.0, p_bg_default)
                } else {
                    let wanted = rate * p_bg_default / (1.0 - rate);
                    if wanted <= 1.0 {
                        (wanted, p_bg_default)
                    } else {
                        (1.0, (1.0 - rate) / rate)
                    }
                };
                OracleProcess::Gilbert {
                    p_gb,
                    p_bg,
                    bad: false,
                }
            }
            LossProcessKind::Bernoulli => OracleProcess::Bernoulli {
                rate: loss_rate.clamp(0.0, 1.0),
            },
            LossProcessKind::Flowlet => {
                OracleProcess::Flowlet(FlowletProcess::from_loss_rate(loss_rate))
            }
        }
    }

    fn packet_survives(&mut self, rng: &mut StdRng) -> bool {
        match self {
            OracleProcess::Gilbert { p_gb, p_bg, bad } => {
                if *bad {
                    if rng.gen::<f64>() < *p_bg {
                        *bad = false;
                    }
                } else if rng.gen::<f64>() < *p_gb {
                    *bad = true;
                }
                !*bad
            }
            OracleProcess::Bernoulli { rate } => rng.gen::<f64>() >= *rate,
            OracleProcess::Flowlet(p) => p.packet_survives(rng),
        }
    }
}

/// One snapshot, simulated round by round and path by path.
fn oracle_snapshot(
    red: &ReducedTopology,
    scenario: &CongestionScenario,
    cfg: &ProbeConfig,
    rng: &mut StdRng,
) -> Snapshot {
    let n_links = red.num_links();
    let mut processes = Vec::with_capacity(n_links);
    let mut truth = Vec::with_capacity(n_links);
    for k in 0..n_links {
        let congested = scenario.is_congested(k);
        let rate = if congested {
            cfg.loss_model.draw_congested(rng)
        } else {
            cfg.loss_model.draw_good(rng)
        };
        processes.push(OracleProcess::new(cfg.process, rate));
        truth.push(LinkTruth {
            assigned_loss_rate: rate,
            congested,
            arrivals: 0,
            drops: 0,
        });
    }
    let mut path_received = vec![0u32; red.num_paths()];
    let mut good = vec![true; n_links];
    for _round in 0..cfg.probes_per_snapshot {
        if cfg.advance == ChainAdvance::PerRound {
            for (g, p) in good.iter_mut().zip(processes.iter_mut()) {
                *g = p.packet_survives(rng);
            }
        }
        for (links, received) in red.matrix.iter().zip(path_received.iter_mut()) {
            let mut survived = true;
            for &k in links {
                truth[k].arrivals += 1;
                let survives = match cfg.advance {
                    ChainAdvance::PerRound => good[k],
                    ChainAdvance::PerArrival => processes[k].packet_survives(rng),
                };
                if !survives {
                    truth[k].drops += 1;
                    survived = false;
                    break;
                }
            }
            if survived {
                *received += 1;
            }
        }
    }
    Snapshot {
        probes: cfg.probes_per_snapshot,
        path_received,
        link_truth: truth,
    }
}

fn random_topology(seed: u64, mesh: bool) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = if mesh {
        waxman::generate(
            WaxmanParams {
                nodes: rng.gen_range(12usize..40),
                hosts: rng.gen_range(3usize..7),
                ..WaxmanParams::default()
            },
            &mut rng,
        )
    } else {
        tree::generate(
            TreeParams {
                nodes: rng.gen_range(8usize..80),
                max_branching: rng.gen_range(2usize..6),
            },
            &mut rng,
        )
    };
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

fn assert_identical(engine: &Snapshot, oracle: &Snapshot) -> Result<(), TestCaseError> {
    prop_assert_eq!(engine.probes, oracle.probes);
    prop_assert_eq!(&engine.path_received, &oracle.path_received);
    prop_assert_eq!(engine.link_truth.len(), oracle.link_truth.len());
    for (e, o) in engine.link_truth.iter().zip(&oracle.link_truth) {
        prop_assert_eq!(
            e.assigned_loss_rate.to_bits(),
            o.assigned_loss_rate.to_bits()
        );
        prop_assert_eq!(e.congested, o.congested);
        prop_assert_eq!(e.arrivals, o.arrivals);
        prop_assert_eq!(e.drops, o.drops);
    }
    Ok(())
}

const PROCESSES: [LossProcessKind; 3] = [
    LossProcessKind::Gilbert,
    LossProcessKind::Bernoulli,
    LossProcessKind::Flowlet,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two consecutive snapshots per case, so the second starts from
    /// whatever RNG state the first left behind.
    #[test]
    fn engine_matches_round_by_round_walk(
        (topo_seed, mesh, seed) in (any::<u64>(), any::<bool>(), any::<u64>()),
        probes in prop_oneof![
            Just(1u32), Just(63), Just(64), Just(65), Just(130), 1u32..300
        ],
        (process, llrd2, per_arrival) in (0usize..3, any::<bool>(), any::<bool>()),
        p in prop_oneof![Just(0.0f64), Just(1.0), 0.0f64..1.0],
    ) {
        let red = random_topology(topo_seed, mesh);
        let cfg = ProbeConfig {
            probes_per_snapshot: probes,
            loss_model: if llrd2 { LossModel::Llrd2 } else { LossModel::Llrd1 },
            process: PROCESSES[process],
            advance: if per_arrival { ChainAdvance::PerArrival } else { ChainAdvance::PerRound },
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario =
            CongestionScenario::draw(red.num_links(), p, CongestionDynamics::Fixed, &mut rng);
        let mut oracle_rng = rng.clone();
        for _ in 0..2 {
            let engine = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
            let oracle = oracle_snapshot(&red, &scenario, &cfg, &mut oracle_rng);
            assert_identical(&engine, &oracle)?;
        }
        prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64());
    }
}

/// The paper's operating point on a mid-sized tree: `S = 1000`, 10%
/// congested, every process, both LLRD models.
#[test]
fn engine_matches_round_by_round_walk_at_paper_defaults() {
    let red = random_topology(5, false);
    for process in PROCESSES {
        for loss_model in [LossModel::Llrd1, LossModel::Llrd2] {
            let cfg = ProbeConfig {
                loss_model,
                process,
                ..ProbeConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(9);
            let scenario =
                CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
            let mut oracle_rng = rng.clone();
            let engine = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
            let oracle = oracle_snapshot(&red, &scenario, &cfg, &mut oracle_rng);
            assert_identical(&engine, &oracle).unwrap();
            assert_eq!(rng.next_u64(), oracle_rng.next_u64());
        }
    }
}
