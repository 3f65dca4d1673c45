//! The closed-form tree path against the general path it replaces on
//! trees: `Auto` on a tree routing must reach the decisions the forced
//! dense solvers reach, refresh by refresh.
//!
//! Phase 1 is compared on the same covariances, Phase 2 on the same
//! variances (so a near-tie in two variances cannot reorder the
//! columns). The sweep covers random tree shapes, budgeted pair sets
//! (which may drop self rows), churned trees, Markov-drift sliding
//! windows, and the negative-row drop both on and off. It reports how
//! often each fallback reason fired on either path. A fold-back
//! disagreement fails with the exact rank of the kept rows: on a tree
//! each row reads one cumulative variance, so that rank is the number
//! of distinct meets among the kept rows.

use losstomo_core::budget::select_pairs;
use losstomo_core::lia::{
    infer_link_rates, EliminationStrategy, LiaConfig, LinkRateEstimate, Phase2Dispatch,
};
use losstomo_core::streaming::{StreamingCovariance, WindowMode};
use losstomo_core::tree::reconstruct_tree;
use losstomo_core::variance::{
    estimate_variances_from_sigmas, FallbackReason, Phase1Dispatch, VarianceConfig,
    VarianceEstimate,
};
use losstomo_core::AugmentedSystem;
use losstomo_linalg::{rank, LinalgError};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig, DEFAULT_LOSS_THRESHOLD,
};
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::{compute_paths, reduce, PathId, ReducedTopology, TopologyDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn random_tree(seed: u64) -> ReducedTopology {
    let params = TreeParams {
        nodes: 12 + (seed as usize % 5) * 10,
        max_branching: 2 + seed as usize % 4,
    };
    let t = tree::generate(params, &mut StdRng::seed_from_u64(seed));
    reduce(
        &t.graph,
        &compute_paths(&t.graph, &t.beacons, &t.destinations),
    )
}

/// The pair systems the sweep runs on: per random tree the full system
/// and a budgeted one, and the full and a tightly budgeted system of
/// the tree after a churn event that keeps it a tree (two paths swap
/// routes, a new path ends at an interior link, and a route gains a
/// second path). The second path gives that route's last link a cross
/// row, so the tight budget can drop a self row.
fn systems() -> Vec<(String, ReducedTopology, AugmentedSystem)> {
    let mut out = Vec::new();
    let mut self_rows_dropped = 0;
    for seed in 0..12u64 {
        let red = random_tree(seed);
        let aug = AugmentedSystem::build(&red);
        let sel = select_pairs(&aug, red.num_links() + aug.num_rows() / 3);
        out.push((
            format!("tree {seed}, budgeted"),
            red.clone(),
            aug.subset(&sel.rows),
        ));
        let tree = reconstruct_tree(&red).expect("a generated tree");
        let (a, b) = (PathId(0), PathId(red.num_paths() as u32 - 1));
        let mut truncated = red.path_links(PathId(1)).to_vec();
        let leaf = (0..truncated.len())
            .min_by_key(|&i| tree.paths_through(truncated[i]))
            .unwrap();
        truncated.remove(leaf);
        let mut delta = TopologyDelta::new()
            .reroute_path(a, red.path_links(b).to_vec())
            .reroute_path(b, red.path_links(a).to_vec())
            .add_path(red.path_links(PathId(2)).to_vec());
        if !truncated.is_empty() {
            delta = delta.add_path(truncated);
        }
        let mut churned = red.clone();
        churned.apply_delta(&delta).expect("a valid delta");
        assert!(reconstruct_tree(&churned).is_some(), "tree {seed} churned");
        let rebuilt = AugmentedSystem::build(&churned);
        let sel = select_pairs(&rebuilt, churned.num_links());
        let budgeted = rebuilt.subset(&sel.rows);
        let self_rows = budgeted.iter().filter(|((a, b), _)| a == b).count();
        self_rows_dropped += churned.num_paths() - self_rows;
        out.push((
            format!("tree {seed}, churned, budgeted"),
            churned.clone(),
            budgeted,
        ));
        out.push((format!("tree {seed}, churned"), churned, rebuilt));
        out.push((format!("tree {seed}"), red, aug));
    }
    assert!(self_rows_dropped > 0, "no budget dropped a self row");
    out
}

/// Log-rate rows of a Markov-drift stream: the congested set changes
/// every few snapshots, so the kept-row mask does too.
fn markov_rows(red: &ReducedTopology, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = CongestionScenario::draw(
        red.num_links(),
        0.3,
        CongestionDynamics::Markov {
            stay_congested: 0.9,
        },
        &mut rng,
    );
    let cfg = ProbeConfig {
        probes_per_snapshot: 200,
        ..ProbeConfig::default()
    };
    simulate_run(red, &mut scenario, &cfg, m, &mut rng).log_rate_rows()
}

fn reason_name(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::TooFewRows => "TooFewRows",
        FallbackReason::UncoveredLink(_) => "UncoveredLink",
        FallbackReason::Certified(_) => "Certified",
        FallbackReason::FactorFailed => "FactorFailed",
        FallbackReason::MeetlessLink(_) => "MeetlessLink",
    }
}

fn outcome_name(est: &Result<VarianceEstimate, LinalgError>) -> &'static str {
    match est {
        Ok(est) => est.fallback.map_or("kept solve", |f| reason_name(f.reason)),
        Err(_) => "error",
    }
}

/// The rank of the rows kept from `sigmas` (every row unless `drop`),
/// exactly (distinct meets) and numerically (pivoted QR on the dense
/// rows), for a failure message.
fn kept_rank(red: &ReducedTopology, aug: &AugmentedSystem, sigmas: &[f64], drop: bool) -> String {
    let tree = reconstruct_tree(red).expect("a tree");
    let mut meets = std::collections::BTreeSet::new();
    let mut rows = losstomo_topology::RoutingMatrix::builder(red.num_links());
    for (r, &sigma) in sigmas.iter().enumerate() {
        if !(drop && sigma < 0.0) {
            let row = aug.row(r);
            meets.insert(*row.iter().min_by_key(|&&k| tree.paths_through(k)).unwrap());
            rows.push_sorted_row(row);
        }
    }
    let numeric = rank(&rows.build().to_dense());
    format!(
        "kept rows: exact rank {} (distinct meets), numerical rank {numeric}, {} links",
        meets.len(),
        red.num_links()
    )
}

/// Phase 2 on the same variances under `Auto` and forced `Dense`: the
/// kept sets agree, the transmissions agree to 1e-12, and the congested
/// sets agree except at exact loss-threshold ties, whose count is
/// returned.
fn phase2_agrees(red: &ReducedTopology, v: &[f64], y: &[f64], what: &str) -> usize {
    let mut ties = 0;
    for elimination in [
        EliminationStrategy::PaperOrder,
        EliminationStrategy::GreedyMatroid,
    ] {
        let rates = |dispatch| -> LinkRateEstimate {
            let cfg = LiaConfig {
                elimination,
                dispatch,
            };
            infer_link_rates(red, v, y, &cfg).unwrap()
        };
        let (auto, dense) = (rates(Phase2Dispatch::Auto), rates(Phase2Dispatch::Dense));
        assert_eq!(auto.kept, dense.kept, "{what}, {elimination:?}: kept sets");
        for (k, (a, d)) in auto
            .transmission
            .iter()
            .zip(&dense.transmission)
            .enumerate()
        {
            assert!(
                (a - d).abs() < 1e-12,
                "{what}, {elimination:?}: link {k} transmission {a} vs {d}"
            );
            let (la, ld) = (1.0 - a, 1.0 - d);
            if (la > DEFAULT_LOSS_THRESHOLD) != (ld > DEFAULT_LOSS_THRESHOLD) {
                assert!(
                    (la - DEFAULT_LOSS_THRESHOLD).abs() < 1e-12,
                    "{what}, {elimination:?}: link {k} congested on one path only \
                     (loss {la} vs {ld})"
                );
                ties += 1;
            }
        }
    }
    ties
}

#[test]
fn tree_path_matches_the_dense_path_refresh_by_refresh() {
    let window = 12;
    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let (mut refreshes, mut ties) = (0usize, 0usize);
    let systems = systems();
    for (i, (name, red, aug)) in systems.iter().enumerate() {
        let rows = markov_rows(red, 40, 100 + i as u64);
        let mut cov = StreamingCovariance::new(
            red.num_paths(),
            aug.pair_indices(),
            WindowMode::Sliding(window),
        );
        for (t, y) in rows.iter().enumerate() {
            cov.ingest(y);
            if cov.len() < 2 {
                continue;
            }
            let sigmas = cov.exact_covariances();
            for drop in [true, false] {
                let what = format!("{name}, row {t}, drop {drop}");
                let solve = |dispatch| {
                    let cfg = VarianceConfig {
                        drop_negative_covariances: drop,
                        dispatch,
                    };
                    estimate_variances_from_sigmas(red, aug, &sigmas, &cfg)
                };
                let auto = solve(Phase1Dispatch::Auto);
                let dense = solve(Phase1Dispatch::Dense);
                *seen.entry(("auto", outcome_name(&auto))).or_default() += 1;
                *seen.entry(("dense", outcome_name(&dense))).or_default() += 1;
                refreshes += 1;
                let (auto, dense) = match (auto, dense) {
                    (Ok(a), Ok(d)) => (a, d),
                    (Err(_), Err(_)) => continue,
                    (a, d) => panic!(
                        "{what}: one path failed: {:?} vs {:?}; {}",
                        a.map(|e| e.fallback),
                        d.map(|e| e.fallback),
                        kept_rank(red, aug, &sigmas, drop)
                    ),
                };
                assert_eq!(
                    auto.fallback.is_some(),
                    dense.fallback.is_some(),
                    "{what}: fold-back decision {:?} vs {:?}; {}",
                    auto.fallback,
                    dense.fallback,
                    kept_rank(red, aug, &sigmas, drop)
                );
                assert_eq!(auto.used_rows, dense.used_rows, "{what}");
                assert_eq!(auto.dropped_rows, dense.dropped_rows, "{what}");
                let scale = dense.v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                for (k, (a, d)) in auto.v.iter().zip(&dense.v).enumerate() {
                    assert!(
                        (a - d).abs() <= 1e-12 * scale,
                        "{what}: link {k} variance {a} vs {d} (max |v| {scale})"
                    );
                }
                ties += phase2_agrees(red, &auto.v, y, &what);
            }
        }
    }
    eprintln!(
        "tree path ≡ dense path: {refreshes} solves on {} systems, {ties} loss-threshold ties; \
         outcomes {seen:?}",
        systems.len()
    );
    for (path, outcome) in [
        ("auto", "kept solve"),
        ("auto", "MeetlessLink"),
        ("dense", "Certified"),
    ] {
        assert!(
            seen.contains_key(&(path, outcome)),
            "the sweep never saw {path} {outcome}: {seen:?}"
        );
    }
}
