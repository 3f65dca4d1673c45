//! Cross-estimator agreement: the zoo's backends as oracles for each
//! other.
//!
//! Two independent implementations of "which links are lossy" give
//! two chances to catch a regression no single-estimator test can see:
//!
//! * **(a)** LIA's Phase 1 is *exact* on trees — fed exact covariances
//!   (all non-negative, so the negative-row drop keeps every row) it
//!   must return the true per-link variances to 1e-10, over randomly
//!   generated tree topologies;
//! * **(b)** at the paper's loss separation (congested ≥ 5 % loss,
//!   good ≤ 0.2 %), both backends (LIA and Deng) must flag every truly
//!   congested link — their congested sets agree on the truth even
//!   where their variance estimates differ;
//! * **(c)** the LIA backend is the pre-refactor
//!   `estimate_variances` + `infer_link_rates` pipeline *bit-for-bit*:
//!   the trait added dispatch, not arithmetic;
//! * **(d)** a backend keeps its per-topology state between windows, and
//!   a warm backend answers every window with the bits a freshly built
//!   one gives — alone, and as `run_many` reuses one per worker — for
//!   both backends and for LIA with the negative-row drop off.

use losstomo_core::budget::PairBudget;
use losstomo_core::estimator::{
    build_estimator, EstimatorKind, EstimatorOutput, LiaEstimator, LossEstimator,
};
use losstomo_core::lia::{infer_link_rates, LiaConfig};
use losstomo_core::variance::{
    estimate_variances, estimate_variances_from_sigmas, Phase1Dispatch, VarianceConfig,
};
use losstomo_core::{
    run_experiment, run_many, AugmentedSystem, CenteredMeasurements, ExperimentConfig,
    ExperimentResult, LocationAccuracy,
};
use losstomo_linalg::LinalgError;
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
    DEFAULT_LOSS_THRESHOLD,
};
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::gen::waxman::{self, WaxmanParams};
use losstomo_topology::{compute_paths, reduce, ReducedTopology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tree(nodes: usize, branching: usize, seed: u64) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = tree::generate(
        TreeParams {
            nodes,
            max_branching: branching,
        },
        &mut rng,
    );
    let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
    reduce(&t.graph, &paths)
}

fn waxman_mesh(seed: u64) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = waxman::generate(
        WaxmanParams {
            nodes: 40,
            hosts: 8,
            ..WaxmanParams::default()
        },
        &mut rng,
    );
    let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
    reduce(&t.graph, &paths)
}

/// Simulates `m + 1` snapshots and returns (centred training set,
/// evaluation log rates, truth congested flags).
fn simulate(
    red: &ReducedTopology,
    p_congested: f64,
    m: usize,
    seed: u64,
) -> (CenteredMeasurements, Vec<f64>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = CongestionScenario::draw(
        red.num_links(),
        p_congested,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms = simulate_run(red, &mut scenario, &ProbeConfig::default(), m + 1, &mut rng);
    let train = MeasurementSet {
        snapshots: ms.snapshots[..m].to_vec(),
    };
    let eval = &ms.snapshots[m];
    (
        CenteredMeasurements::new(&train),
        eval.log_rates(),
        eval.link_truth.iter().map(|t| t.congested).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) LIA's Phase 1 is the analytic solution on trees: exact
    /// covariances in, true variances out, to 1e-10.
    #[test]
    fn tree_path_is_exact_on_random_trees(
        nodes in 20usize..120,
        branching in 2usize..6,
        topo_seed in 0u64..10_000,
        var_seed in 0u64..10_000,
    ) {
        let red = random_tree(nodes, branching, topo_seed);
        let aug = AugmentedSystem::build(&red);
        let mut vrng = StdRng::seed_from_u64(var_seed);
        let v_true: Vec<f64> = (0..red.num_links())
            .map(|_| vrng.gen_range(1e-6..1e-2))
            .collect();
        let sigmas: Vec<f64> = (0..aug.num_rows())
            .map(|r| aug.row(r).iter().map(|&k| v_true[k]).sum())
            .collect();
        let est =
            estimate_variances_from_sigmas(&red, &aug, &sigmas, &VarianceConfig::default())
                .unwrap();
        prop_assert_eq!(est.used_rows, aug.num_rows());
        for (k, (a, b)) in est.v.iter().zip(&v_true).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-10,
                "link {k}: estimate {a:.12e} vs truth {b:.12e} ({nodes} nodes)"
            );
        }
    }

    /// (b) At the paper's loss separation every backend flags every
    /// truly congested link.
    #[test]
    fn backends_agree_on_truly_congested_links(
        nodes in 40usize..90,
        sim_seed in 0u64..10_000,
    ) {
        let red = random_tree(nodes, 4, sim_seed.wrapping_mul(31).wrapping_add(7));
        let (centered, y, truth) = simulate(&red, 0.08, 50, sim_seed);
        prop_assume!(truth.iter().any(|&c| c)); // need something to detect
        for kind in EstimatorKind::all() {
            let mut backend = backend(kind, VarianceConfig::default(), &red);
            let out = backend.estimate(&centered, &y).unwrap();
            let flagged = out.congested_links(DEFAULT_LOSS_THRESHOLD);
            for (k, &congested) in truth.iter().enumerate() {
                prop_assert!(
                    !congested || flagged.contains(&k),
                    "{} missed congested link {k} ({} nodes, seed {sim_seed})",
                    backend.name(),
                    nodes
                );
            }
        }
    }

    /// (c) The LIA backend is bit-identical to the pre-refactor
    /// pipeline on random trees and seeds.
    #[test]
    fn lia_backend_bit_identical_to_pre_refactor_path(
        nodes in 30usize..100,
        m in 10usize..30,
        sim_seed in 0u64..10_000,
    ) {
        let red = random_tree(nodes, 5, sim_seed.wrapping_add(101));
        let (centered, y, _) = simulate(&red, 0.1, m, sim_seed);
        let mut backend = LiaEstimator::new(
            &red,
            LiaConfig::default(),
            VarianceConfig::default(),
            PairBudget::Full,
        );
        let out = backend.estimate(&centered, &y).unwrap();

        // The historical path, spelled out.
        let aug = AugmentedSystem::build(&red);
        let var_est =
            estimate_variances(&red, &aug, &centered, &VarianceConfig::default()).unwrap();
        let manual = infer_link_rates(&red, &var_est.v, &y, &LiaConfig::default()).unwrap();

        prop_assert_eq!(&out.estimate.kept, &manual.kept);
        prop_assert_eq!(out.estimate.kept_count, manual.kept_count);
        for (a, b) in out.estimate.transmission.iter().zip(&manual.transmission) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in out.diagnostics.variances.iter().zip(&var_est.v) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(out.diagnostics.dropped_rows, var_est.dropped_rows);
        prop_assert_eq!(out.diagnostics.rows_used, var_est.used_rows);
    }
}

/// Deterministic pin of (b): on a fixed seed both backends, and LIA
/// with the negative-row drop off, flag supersets of the truth, and
/// LIA's sets with and without the drop match exactly (they share
/// Phase 2 and their Phase-1 orders coincide on a well-separated
/// tree).
#[test]
fn fixed_seed_congested_sets_pinned() {
    let red = random_tree(60, 4, 2024);
    let (centered, y, truth) = simulate(&red, 0.08, 50, 3);
    let truth_set: Vec<usize> = truth
        .iter()
        .enumerate()
        .filter(|(_, &c)| c)
        .map(|(k, _)| k)
        .collect();
    assert!(!truth_set.is_empty());
    let congested = |kind, variance| {
        backend(kind, variance, &red)
            .estimate(&centered, &y)
            .unwrap()
            .congested_links(DEFAULT_LOSS_THRESHOLD)
    };
    let lia = congested(EstimatorKind::Lia, VarianceConfig::default());
    let all_rows = congested(EstimatorKind::Lia, ALL_ROWS);
    let deng = congested(EstimatorKind::DengFast, VarianceConfig::default());
    for set in [&lia, &all_rows, &deng] {
        for k in &truth_set {
            assert!(set.contains(k), "missed truly congested link {k}");
        }
    }
    assert_eq!(
        lia, all_rows,
        "LIA with and without the drop diverged on the pinned seed"
    );
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An estimate's transmissions, kept mask, variances and rows dropped,
/// by bits, or its error.
type EstimateBits = Result<(Vec<u64>, Vec<bool>, Vec<u64>, usize), LinalgError>;

fn estimate_bits(out: Result<EstimatorOutput, LinalgError>) -> EstimateBits {
    out.map(|out| {
        (
            bits(&out.estimate.transmission),
            out.estimate.kept,
            bits(&out.diagnostics.variances),
            out.diagnostics.dropped_rows,
        )
    })
}

/// LIA's Phase 1 with the negative-row drop off: every row is solved.
const ALL_ROWS: VarianceConfig = VarianceConfig {
    drop_negative_covariances: false,
    dispatch: Phase1Dispatch::Auto,
};

/// Every backend configuration the (d) tests run: each kind under the
/// default Phase 1, and LIA with the drop off.
fn configurations() -> Vec<(&'static str, EstimatorKind, VarianceConfig)> {
    let mut legs: Vec<_> = EstimatorKind::all()
        .into_iter()
        .map(|kind| (kind.name(), kind, VarianceConfig::default()))
        .collect();
    legs.push(("lia-all-rows", EstimatorKind::Lia, ALL_ROWS));
    legs
}

fn backend(
    kind: EstimatorKind,
    variance: VarianceConfig,
    red: &ReducedTopology,
) -> Box<dyn LossEstimator> {
    build_estimator(kind, red, LiaConfig::default(), variance, PairBudget::Full)
}

/// (d) One backend per configuration, fed four windows on one
/// topology, answers each window with the bits of a backend built for
/// that window alone, on random trees and on 40-node Waxman meshes. On
/// the meshes LIA's Phase 1 solves kept rows with some rows dropped, so
/// a kept-row factor carried from one window's drop mask into another's
/// shows here; with the drop off it solves every row on every window.
#[test]
fn warm_backend_matches_fresh_backend() {
    let mut topologies: Vec<ReducedTopology> = (0..3u64)
        .map(|seed| random_tree(30 + 15 * seed as usize, 4, 500 + seed))
        .collect();
    topologies.extend((0..3u64).map(waxman_mesh));
    let mut kept_solves = 0;
    for (t, red) in topologies.iter().enumerate() {
        let windows: Vec<_> = (0..4u64)
            .map(|w| simulate(red, 0.15, 20, 100 * t as u64 + w))
            .collect();
        for (name, kind, variance) in configurations() {
            let mut warm = backend(kind, variance, red);
            for (w, (centered, y, _)) in windows.iter().enumerate() {
                let got = estimate_bits(warm.estimate(centered, y));
                let want = estimate_bits(backend(kind, variance, red).estimate(centered, y));
                assert_eq!(got, want, "{name} on topology {t}, window {w}");
                match (name, &got) {
                    ("lia", Ok((.., dropped))) if *dropped > 0 => kept_solves += 1,
                    ("lia-all-rows", got) => {
                        assert!(got.is_ok(), "{name} failed on topology {t}, window {w}")
                    }
                    _ => {}
                }
            }
        }
    }
    eprintln!("warm ≡ fresh: LIA solved kept rows with drops on {kept_solves} windows");
    assert!(
        kept_solves > 0,
        "LIA should solve kept rows with drops on some window"
    );
}

/// An experiment's scores and estimates, by bits, or its error.
type ResultBits =
    Result<(Vec<u64>, Vec<u64>, Vec<u64>, usize, usize, LocationAccuracy), LinalgError>;

fn result_bits(r: &Result<ExperimentResult, LinalgError>) -> ResultBits {
    r.as_ref()
        .map(|r| {
            (
                bits(&r.variances),
                bits(&r.est_loss),
                bits(&r.true_loss),
                r.kept_count,
                r.dropped_rows,
                r.location,
            )
        })
        .map_err(Clone::clone)
}

/// (d) `run_many` runs each worker's seeds through one backend; every
/// seed scores exactly as `run_experiment` scores it alone.
#[test]
fn run_many_matches_run_experiment_per_seed() {
    for red in [random_tree(50, 4, 77), waxman_mesh(1)] {
        for (name, estimator, variance) in configurations() {
            let cfg = ExperimentConfig {
                snapshots: 20,
                estimator,
                variance,
                seed: 40,
                ..ExperimentConfig::default()
            };
            for (i, got) in run_many(&red, &cfg, 6).iter().enumerate() {
                let seed = cfg.seed + i as u64;
                let alone = run_experiment(&red, &ExperimentConfig { seed, ..cfg });
                assert_eq!(result_bits(got), result_bits(&alone), "{name}, seed {seed}");
            }
        }
    }
}
