//! Property tests pinning the planned covariance sweep (`PairPlan`) to
//! `CenteredMeasurements::cov`, pair by pair and **bit for bit**,
//! whichever kernel the plan picks:
//!
//! * random trees with their full pair sets, which plan as tiles, and
//!   the same sets under a 25% row budget;
//! * small Waxman meshes, whose sparse pair sets keep the pair kernel;
//! * dense synthetic sets over path counts that are not multiples of 4
//!   or 8, in both pair orientations;
//! * churned trees: a sliding window after a route swap and a re-added
//!   path, whose plan and restart groups replay each pair over the rows
//!   since its own horizon.
//!
//! Each sweep runs through the default entry point and under every
//! engine the host has, at window lengths m ∈ {2, 3, 50}.

use losstomo_core::covariance::{CenteredMeasurements, PairPlan, PlanKind};
use losstomo_core::streaming::{StreamingCovariance, WindowMode};
use losstomo_core::{apply_budget, AugmentedSystem, PairBudget};
use losstomo_linalg::Engine;
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::gen::waxman::{self, WaxmanParams};
use losstomo_topology::{compute_paths, reduce, GeneratedTopology, PathId, ReducedTopology};
use losstomo_topology::{DeltaEffect, TopologyDelta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn reduced(topo: GeneratedTopology) -> ReducedTopology {
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

fn random_tree(nodes: usize, max_branching: usize, seed: u64) -> ReducedTopology {
    let params = TreeParams {
        nodes,
        max_branching,
    };
    reduced(tree::generate(params, &mut StdRng::seed_from_u64(seed)))
}

/// `m` random log-rate rows over `n` paths.
fn random_rows(m: usize, n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..m)
        .map(|_| (0..n).map(|_| -8.0 * rng.gen::<f64>()).collect())
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The engines this host can run.
fn engines() -> Vec<Engine> {
    let mut engines = vec![Engine::Scalar];
    if Engine::avx2_available() {
        engines.push(Engine::Avx2 { fma: false });
    }
    if Engine::fma_available() {
        engines.push(Engine::Avx2 { fma: true });
    }
    engines
}

/// Plans `pairs`, sweeps the plan through every entry point, and checks
/// each slot against `cov(i, j)` bitwise. Returns the plan's kind.
fn check_plan(
    n: usize,
    pairs: &[(usize, usize)],
    c: &CenteredMeasurements,
) -> Result<PlanKind, TestCaseError> {
    let plan = PairPlan::new(n, pairs);
    prop_assert_eq!(plan.len(), pairs.len());
    let want: Vec<u64> = pairs.iter().map(|&(i, j)| c.cov(i, j).to_bits()).collect();
    let (mut panel, mut out) = (Vec::new(), vec![f64::NAN; 3]);
    plan.covariances_into(c, &mut panel, &mut out);
    prop_assert!(bits(&out) == want, "{:?} plan drifted", plan.kind());
    for engine in engines() {
        let got = plan.covariances_with_engine(c, engine);
        prop_assert!(
            bits(&got) == want,
            "{:?} plan drifted under {:?}",
            plan.kind(),
            engine
        );
    }
    Ok(plan.kind())
}

/// Swaps the routes of two paths and re-adds the last one (the churn
/// perfbench's `tree-churn` cycles through): the routing stays a tree.
fn swap_and_readd(red: &ReducedTopology, p: usize, q: usize) -> TopologyDelta {
    let last = red.num_paths() - 1;
    TopologyDelta::new()
        .reroute_path(PathId(p as u32), red.matrix.row(q).to_vec())
        .reroute_path(PathId(q as u32), red.matrix.row(p).to_vec())
        .add_path(red.matrix.row(last).to_vec())
        .remove_path(PathId(last as u32))
}

/// `rows` in the numbering after `effect`: an added path reads `0.0`.
fn remap(rows: &mut [Vec<f64>], effect: &DeltaEffect, n: usize) {
    for row in rows.iter_mut() {
        let mut new_row = vec![0.0; n];
        for (old, new) in effect.id_map.iter().enumerate() {
            if let Some(new) = new {
                new_row[new.index()] = row[old];
            }
        }
        *row = new_row;
    }
}

fn window_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3), Just(50)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A tree's full pair set is a union of complete blocks, one per
    /// root link, and at these sizes plans as tiles (a census of 9,000
    /// such trees found none under half full; trees of a few dozen
    /// paths can be, when a block boundary splits a tile). A 25% budget
    /// of it need not.
    #[test]
    fn tree_pair_sets_sweep_to_cov_bitwise(
        seed in any::<u64>(),
        nodes in 200usize..400,
        branching in 2usize..5,
        m in window_len(),
    ) {
        let red = random_tree(nodes, branching, seed);
        let n = red.num_paths();
        let c = CenteredMeasurements::from_rows(random_rows(m, n, &mut StdRng::seed_from_u64(seed)));
        let aug = AugmentedSystem::build(&red);
        prop_assert_eq!(check_plan(n, &aug.pair_indices(), &c)?, PlanKind::Tiles);
        let (budgeted, _) = apply_budget(aug, PairBudget::Fraction(0.25));
        check_plan(n, &budgeted.pair_indices(), &c)?;
    }

    /// A small mesh's pair set fills too few cells of its tiles and
    /// keeps the pair kernel.
    #[test]
    fn mesh_pair_sets_sweep_to_cov_bitwise(
        seed in any::<u64>(),
        hosts in 10usize..20,
        m in window_len(),
    ) {
        let params = WaxmanParams { nodes: 120, hosts, ..WaxmanParams::default() };
        let red = reduced(waxman::generate(params, &mut StdRng::seed_from_u64(seed)));
        let n = red.num_paths();
        let c = CenteredMeasurements::from_rows(random_rows(m, n, &mut StdRng::seed_from_u64(seed)));
        check_plan(n, &AugmentedSystem::build(&red).pair_indices(), &c)?;
    }

    /// Every pair over `n` paths (diagonal included), in either
    /// orientation. Below 8 paths one tile is under half full; from 19
    /// on every layout, ragged last blocks included, is at least half
    /// full (17 paths fill 43.5%).
    #[test]
    fn dense_pair_sets_sweep_to_cov_bitwise(
        n in 1usize..42,
        reversed in any::<bool>(),
        seed in any::<u64>(),
        m in window_len(),
    ) {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i..n).map(move |j| if reversed { (j, i) } else { (i, j) }))
            .collect();
        let c = CenteredMeasurements::from_rows(random_rows(m, n, &mut StdRng::seed_from_u64(seed)));
        let kind = check_plan(n, &pairs, &c)?;
        if n < 8 {
            prop_assert_eq!(kind, PlanKind::Pairs);
        } else if n >= 19 {
            prop_assert_eq!(kind, PlanKind::Tiles);
        }
    }

    /// A churned tree's window replays each pair over the retained rows
    /// since its own horizon (the later of its two paths'), through the
    /// window's plan and the restart groups' plans.
    #[test]
    fn churned_tree_replay_sweeps_to_cov_bitwise(
        seed in any::<u64>(),
        before in 1usize..8,
        after in 0usize..8,
        w in prop_oneof![Just(3usize), Just(6), Just(50)],
    ) {
        let mut red = random_tree(60, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let n0 = red.num_paths();
        let mut sc = StreamingCovariance::new(
            n0,
            AugmentedSystem::build(&red).pair_indices(),
            WindowMode::Sliding(w),
        );
        let mut history = random_rows(before, n0, &mut rng);
        for row in &history {
            sc.ingest(row);
        }
        let (p, q) = (rng.gen_range(0..n0 - 1), rng.gen_range(0..n0 - 1));
        let effect = red.apply_delta(&swap_and_readd(&red, p, q)).expect("valid delta");
        let n = red.num_paths();
        let pairs = AugmentedSystem::build(&red).pair_indices();
        sc.apply_churn(n, pairs.clone(), &effect);
        remap(&mut history, &effect, n);
        for row in random_rows(after, n, &mut rng) {
            sc.ingest(&row);
            history.push(row);
        }
        if history.len() < 2 {
            return Ok(());
        }
        // Each path's horizon: the churn for the paths it changed.
        let mut from = vec![0usize; n];
        for path in &effect.changed {
            from[path.index()] = before;
        }
        let start = history.len().saturating_sub(w);
        let got = sc.exact_covariances();
        for (r, &(a, b)) in pairs.iter().enumerate() {
            let rows = &history[start.max(from[a]).max(from[b])..];
            let want = if rows.len() < 2 {
                0.0
            } else {
                CenteredMeasurements::from_rows(rows.to_vec()).cov(a, b)
            };
            prop_assert!(got[r].to_bits() == want.to_bits(), "pair ({}, {}) drifted", a, b);
        }
    }
}
