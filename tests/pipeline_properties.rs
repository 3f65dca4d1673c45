//! Property-based integration tests over the whole pipeline.

use losstomo::core::lia::{select_paper_order_hinted, variance_order};
use losstomo::core::{AugmentedSystem, Phase2Dispatch, RankView};
use losstomo::linalg::vector::{axpy, dot, norm2, scale};
use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use losstomo::topology::gen::waxman::{self, WaxmanParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_tree(seed: u64, nodes: usize, branching: usize) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = tree::generate(
        TreeParams {
            nodes,
            max_branching: branching,
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

fn small_waxman(seed: u64) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = waxman::generate(
        WaxmanParams {
            nodes: 60,
            hosts: 8,
            ..WaxmanParams::default()
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

/// The greedy-matroid selection as incremental Gram–Schmidt over the
/// columns in descending variance order — the implementation the
/// column-append scan replaced, kept here as its oracle.
fn gram_schmidt_greedy(red: &ReducedTopology, variances: &[f64]) -> Vec<usize> {
    let dense = red.matrix.to_dense();
    let np = red.num_paths();
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    for &j in variance_order(variances).iter().rev() {
        if basis.len() == np {
            break; // span is full
        }
        let mut col = dense.col(j);
        let norm0 = norm2(&col);
        if norm0 == 0.0 {
            continue;
        }
        for b in &basis {
            let proj = dot(b, &col);
            axpy(-proj, b, &mut col);
        }
        let residual = norm2(&col);
        if residual > 1e-10 * norm0 {
            scale(1.0 / residual, &mut col);
            basis.push(col);
            kept.push(j);
        }
    }
    kept.sort_unstable();
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dense column-append scan finds the same paper-order cut and
    /// kept set as the sparse path's rank bisection, and the greedy
    /// scan keeps what Gram–Schmidt keeps, on random trees and a small
    /// Waxman mesh for any variance vector (ties included).
    #[test]
    fn dense_scan_matches_sparse_bisection(seed in 0u64..5000, nodes in 20usize..80,
                                           vs in proptest::collection::vec(0.0f64..1.0, 40)) {
        for red in [random_tree(seed, nodes, 4), small_waxman(seed)] {
            let variances: Vec<f64> = (0..red.num_links()).map(|k| vs[k % vs.len()]).collect();
            let order = variance_order(&variances);
            let dense = RankView::new(&red, Phase2Dispatch::Dense);
            let sparse = RankView::new(&red, Phase2Dispatch::Sparse);
            prop_assert_eq!(
                select_paper_order_hinted(&red, &dense, &order, None),
                select_paper_order_hinted(&red, &sparse, &order, None)
            );
            prop_assert_eq!(
                losstomo::core::select_full_rank_columns(
                    &red, &variances, EliminationStrategy::GreedyMatroid),
                gram_schmidt_greedy(&red, &variances)
            );
        }
    }

    /// Theorem 1, property-tested: every random tree yields a
    /// full-column-rank augmented matrix.
    #[test]
    fn augmented_matrix_always_full_rank(seed in 0u64..5000, nodes in 20usize..80,
                                         branching in 2usize..8) {
        let red = random_tree(seed, nodes, branching);
        let aug = AugmentedSystem::build(&red);
        prop_assert!(aug.is_identifiable());
    }

    /// Phase 2 with oracle variances and noise-free measurements
    /// recovers the loss rates of the variance-flagged links exactly,
    /// for arbitrary loss assignments.
    #[test]
    fn oracle_phase2_is_exact(seed in 0u64..5000,
                              congested in proptest::collection::vec(0.02f64..0.3, 1..5)) {
        let red = random_tree(seed, 40, 4);
        let nc = red.num_links();
        // Assign losses to `congested.len()` random-ish links.
        let mut phi = vec![1.0; nc];
        let mut variances = vec![0.0; nc];
        for (i, &loss) in congested.iter().enumerate() {
            let k = (seed as usize + i * 7919) % nc;
            phi[k] = 1.0 - loss;
            variances[k] = loss; // any monotone proxy works
        }
        let x: Vec<f64> = phi.iter().map(|p| p.ln()).collect();
        let y = red.matrix.to_dense().matvec(&x).unwrap();
        let est = infer_link_rates(&red, &variances, &y, &LiaConfig::default()).unwrap();
        for (k, (&est_phi, &true_phi)) in est.transmission.iter().zip(phi.iter()).enumerate() {
            prop_assert!(
                (est_phi - true_phi).abs() < 1e-8,
                "link {k} est {est_phi} true {true_phi}"
            );
        }
    }

    /// The kept column set is always linearly independent and spans at
    /// most rank(R) columns, for any variance vector.
    #[test]
    fn kept_columns_always_independent(seed in 0u64..5000,
                                       vs in proptest::collection::vec(0.0f64..1.0, 30)) {
        let red = random_tree(seed, 30, 4);
        let nc = red.num_links();
        let variances: Vec<f64> = (0..nc).map(|k| vs[k % vs.len()]).collect();
        for strategy in [EliminationStrategy::PaperOrder, EliminationStrategy::GreedyMatroid] {
            let kept = losstomo::core::select_full_rank_columns(&red, &variances, strategy);
            let dense = red.matrix.to_dense();
            let sub = dense.select_columns(&kept);
            prop_assert_eq!(losstomo::linalg::rank(&sub), kept.len());
            prop_assert!(kept.len() <= losstomo::linalg::rank(&dense));
        }
    }

    /// The greedy strategy never keeps fewer columns than the paper's.
    #[test]
    fn greedy_keeps_superset_cardinality(seed in 0u64..5000) {
        let red = random_tree(seed, 35, 5);
        let nc = red.num_links();
        let variances: Vec<f64> = (0..nc).map(|k| ((k * 37 + 11) % 101) as f64 / 101.0).collect();
        let paper = losstomo::core::select_full_rank_columns(
            &red, &variances, EliminationStrategy::PaperOrder);
        let greedy = losstomo::core::select_full_rank_columns(
            &red, &variances, EliminationStrategy::GreedyMatroid);
        prop_assert!(greedy.len() >= paper.len());
    }

    /// Probe accounting: received counts never exceed S, and the
    /// per-link arrival counts are consistent with path traversal.
    #[test]
    fn probe_engine_conservation(seed in 0u64..5000, p in 0.0f64..0.5) {
        let red = random_tree(seed, 25, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let scenario = CongestionScenario::draw(
            red.num_links(), p, CongestionDynamics::Fixed, &mut rng);
        let cfg = ProbeConfig { probes_per_snapshot: 50, ..ProbeConfig::default() };
        let snap = simulate_snapshot(&red, &scenario, &cfg, &mut rng);
        for &r in &snap.path_received {
            prop_assert!(r <= 50);
        }
        for t in &snap.link_truth {
            prop_assert!(t.drops <= t.arrivals);
        }
        // First links of paths see exactly S arrivals per traversing path.
        let per_link = red.paths_per_link();
        for (k, t) in snap.link_truth.iter().enumerate() {
            prop_assert!(t.arrivals <= 50 * per_link[k].len() as u64);
        }
    }
}
