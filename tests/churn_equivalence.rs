//! Workspace gate for live topology churn: estimators survive routing
//! changes mid-stream, and once the covariance window flushes its
//! pre-churn history the churned estimator is **bit-identical** to a
//! fresh one built on the new topology — the robustness analogue of the
//! streaming exactness contract. Also pins that churning one fleet
//! tenant never perturbs its neighbours.

use losstomo::core::{PairBudget, Phase2Dispatch, RankView};
use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use losstomo::topology::gen::waxman::{self, WaxmanParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_tree(seed: u64) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = tree::generate(
        TreeParams {
            nodes: 30,
            max_branching: 4,
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

/// A 60-node Waxman mesh with 10 end-hosts (90 paths).
fn small_mesh() -> ReducedTopology {
    let topo = waxman::generate(
        WaxmanParams {
            nodes: 60,
            hosts: 10,
            ..WaxmanParams::default()
        },
        &mut StdRng::seed_from_u64(3),
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

/// A synthetic log-rate row for the current path count: finite,
/// negative (rates in (0.5, 1.0)), seeded.
fn random_row(rng: &mut StdRng, np: usize) -> Vec<f64> {
    (0..np).map(|_| rng.gen_range(0.5f64..1.0).ln()).collect()
}

/// A valid random delta against a topology with `np` paths and `nc`
/// link columns: 1–3 edits mixing adds, removals, reroutes, and link
/// remaps, tracking the running path count so every edit is in range.
fn random_delta(rng: &mut StdRng, np: usize, nc: usize) -> TopologyDelta {
    let mut delta = TopologyDelta::new();
    let mut cur_np = np;
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..4u8) {
            0 => {
                let k = rng.gen_range(1..=3usize.min(nc));
                delta = delta.add_path((0..k).map(|_| rng.gen_range(0..nc)).collect());
                cur_np += 1;
            }
            1 if cur_np > 3 => {
                delta = delta.remove_path(PathId(rng.gen_range(0..cur_np) as u32));
                cur_np -= 1;
            }
            2 => {
                let p = rng.gen_range(0..cur_np);
                let k = rng.gen_range(1..=3usize.min(nc));
                delta = delta.reroute_path(
                    PathId(p as u32),
                    (0..k).map(|_| rng.gen_range(0..nc)).collect(),
                );
            }
            _ => {
                delta = delta.remap_link(rng.gen_range(0..nc), rng.gen_range(0..nc));
            }
        }
    }
    delta
}

/// A rank-preserving delta on a mesh: two pairs of paths swap routes,
/// and one path is added on an existing route whose owner is removed.
/// The multiset of routing rows survives, and with it Theorem-1
/// identifiability; random link sets routinely break it on meshes.
fn swap_delta(rng: &mut StdRng, red: &ReducedTopology) -> TopologyDelta {
    let np = red.num_paths();
    let mut victims = BTreeSet::new();
    while victims.len() < 5 {
        victims.insert(rng.gen_range(0..np));
    }
    let victims: Vec<usize> = victims.into_iter().collect();
    let mut delta = TopologyDelta::new();
    for pair in victims[1..].chunks_exact(2) {
        let (p, q) = (pair[0], pair[1]);
        delta = delta
            .reroute_path(PathId(p as u32), red.matrix.row(q).to_vec())
            .reroute_path(PathId(q as u32), red.matrix.row(p).to_vec());
    }
    let d = victims[0];
    delta
        .add_path(red.matrix.row(d).to_vec())
        .remove_path(PathId(d as u32))
}

/// What one churned-versus-fresh comparison saw.
struct FlushOutcome {
    /// The post-flush refresh solved the kept rows (no all-rows
    /// fold-back).
    kept_solve: bool,
    /// The pair budget bit on the final routing (the estimator tracks
    /// a strict subset of the augmented pairs).
    budgeted: bool,
}

/// Streams rows into a sliding-window estimator on `red` under the
/// pair `budget`, applying two deltas from `next_delta` between
/// batches, then flushes the window. The churned estimator's refresh
/// outcome, variances, Phase-2 estimates, and kept columns must be
/// bitwise equal to a fresh estimator on the new topology fed the
/// same window.
fn churned_matches_fresh_after_flush(
    mut red: ReducedTopology,
    budget: PairBudget,
    rng: &mut StdRng,
    mut next_delta: impl FnMut(&mut StdRng, &ReducedTopology) -> TopologyDelta,
) -> Result<FlushOutcome, TestCaseError> {
    let w = 8usize;
    let cfg = OnlineConfig {
        window: WindowMode::Sliding(w),
        pair_budget: budget,
        ..OnlineConfig::default()
    };
    let mut online = OnlineEstimator::new(&red, cfg);
    for round in 0..3 {
        for _ in 0..rng.gen_range(2..6usize) {
            let row = random_row(rng, red.num_paths());
            let _ = online.ingest_log_rates(&row);
        }
        if round < 2 {
            let delta = next_delta(rng, &red);
            let effect = red.apply_delta(&delta).expect("generated delta is valid");
            let report = online
                .apply_delta(&delta)
                .expect("estimator accepts valid delta");
            // The estimator tracks the mirror topology exactly.
            prop_assert!(online.topology().matrix == red.matrix);
            // Exactly the pairs on an added or rerouted path restart.
            let restarted = online
                .augmented()
                .iter()
                .filter(|((a, b), _)| effect.changed.contains(a) || effect.changed.contains(b))
                .count();
            prop_assert_eq!(report.recomputed_pairs, restarted);
            prop_assert_eq!(
                report.carried_pairs + report.recomputed_pairs,
                online.augmented().num_rows()
            );
        }
    }
    // Flush the window: w post-churn rows, retained verbatim.
    let mut tail: Vec<Vec<f64>> = Vec::new();
    for _ in 0..w {
        let row = random_row(rng, red.num_paths());
        let _ = online.ingest_log_rates(&row);
        tail.push(row);
    }
    prop_assert!(online.covariance().is_churn_free());
    prop_assert!(online.staleness().is_flushed());
    prop_assert_eq!(online.staleness().warming_pairs, 0);
    // The robustness gate: bit-identical to a fresh estimator fed
    // the same window, including the failure mode (both succeed or
    // both report the same unsolvable system).
    let mut fresh = OnlineEstimator::new(&red, cfg);
    for row in &tail {
        let _ = fresh.ingest_log_rates(row);
    }
    let a = online.refresh();
    let b = fresh.refresh();
    prop_assert!(
        a.is_ok() == b.is_ok(),
        "refresh outcome diverged: {:?} vs {:?}",
        a,
        b
    );
    if a.is_ok() {
        prop_assert_eq!(
            &online.variances().unwrap().v,
            &fresh.variances().unwrap().v
        );
        prop_assert_eq!(online.kept_columns(), fresh.kept_columns());
        let y = tail.last().unwrap();
        prop_assert_eq!(
            online.estimate(y).unwrap().transmission,
            fresh.estimate(y).unwrap().transmission
        );
    }
    Ok(FlushOutcome {
        kept_solve: a.is_ok() && online.variances().unwrap().fallback.is_none(),
        budgeted: online.pair_selection().is_some(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random delta sequences (add/remove/reroute/remap interleaved
    /// with snapshots) on random trees.
    #[test]
    fn churned_estimator_is_bit_identical_to_fresh_after_flush(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
        let red = random_tree(seed);
        let nc = red.num_links();
        churned_matches_fresh_after_flush(red, PairBudget::Full, &mut rng, |rng, red| {
            random_delta(rng, red.num_paths(), nc)
        })?;
    }
}

/// The same gate on a mesh with route-swap deltas, over seeded streams,
/// with the full pair set and under a pair budget that bites (churn
/// re-runs the selection on the new routing). On trees nearly every
/// refresh folds back to all rows; here some must solve the kept rows,
/// so the kept-row factor is built from the rebuilt system's Gram
/// counts.
#[test]
fn churned_mesh_is_bit_identical_to_fresh_after_flush() {
    for budget in [PairBudget::Full, PairBudget::Fraction(0.5)] {
        let (mut kept_solves, mut budgeted) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome =
                churned_matches_fresh_after_flush(small_mesh(), budget, &mut rng, swap_delta)
                    .unwrap_or_else(|e| panic!("{budget:?} seed {seed}: {e:?}"));
            kept_solves += usize::from(outcome.kept_solve);
            budgeted += usize::from(outcome.budgeted);
        }
        assert!(
            kept_solves > 0,
            "{budget:?}: no mesh refresh solved the kept rows"
        );
        assert_eq!(
            budgeted > 0,
            budget != PairBudget::Full,
            "{budget:?}: the budget bit on {budgeted} of 16 seeds"
        );
    }
}

/// Flushes `online`'s window with `w` fresh rows and checks that its
/// refresh matches a fresh estimator's on `red` fed the same rows, by
/// bits, failure included. Returns whether the refresh solved.
fn flushed_matches_fresh(
    online: &mut OnlineEstimator,
    red: &ReducedTopology,
    rng: &mut StdRng,
) -> bool {
    let mut fresh = OnlineEstimator::new(red, *online.config());
    let WindowMode::Sliding(w) = online.config().window else {
        panic!("a sliding window flushes");
    };
    for _ in 0..w {
        let row = random_row(rng, red.num_paths());
        let _ = online.ingest_log_rates(&row);
        let _ = fresh.ingest_log_rates(&row);
    }
    assert!(online.staleness().is_flushed());
    let (a, b) = (online.refresh(), fresh.refresh());
    assert_eq!(a, b, "refresh outcome diverged");
    if a.is_err() {
        return false;
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (va, vb) = (online.variances().unwrap(), fresh.variances().unwrap());
    assert_eq!(bits(&va.v), bits(&vb.v));
    assert_eq!(va.fallback, vb.fallback);
    assert_eq!(online.kept_columns(), fresh.kept_columns());
    let y = random_row(rng, red.num_paths());
    assert_eq!(
        bits(&online.estimate(&y).unwrap().transmission),
        bits(&fresh.estimate(&y).unwrap().transmission)
    );
    true
}

/// Churn switches the dispatch: a random tree runs the closed form, a
/// path rerouted off its root chain makes the routing a mesh, which
/// runs the general path, and rerouting it back returns to the tree
/// path. After each switch the flushed estimator is bit-identical to a
/// fresh one on the same routing.
#[test]
fn churn_switches_between_the_tree_and_the_general_path() {
    let is_tree = |red: &ReducedTopology| {
        matches!(RankView::new(red, Phase2Dispatch::Auto), RankView::Tree(_))
    };
    let mut red = random_tree(41);
    assert!(is_tree(&red));
    // The root link of a path's chain is its link on the most paths;
    // dropping it leaves that path's next link with two parents.
    let (path, route, off_root) =
        (0..red.num_paths())
            .find_map(|p| {
                let route = red.path_links(PathId(p as u32)).to_vec();
                let paths_on = |k: usize| {
                    (0..red.num_paths())
                        .filter(|&q| red.path_links(PathId(q as u32)).contains(&k))
                        .count()
                };
                let root = *route.iter().max_by_key(|&&k| paths_on(k))?;
                let off: Vec<usize> = route.iter().copied().filter(|&k| k != root).collect();
                let mut probe = red.clone();
                let delta = TopologyDelta::new().reroute_path(PathId(p as u32), off.clone());
                (!off.is_empty() && probe.apply_delta(&delta).is_ok() && !is_tree(&probe))
                    .then_some((PathId(p as u32), route, off))
            })
            .expect("some path leaves its root chain as a mesh");
    let cfg = OnlineConfig {
        window: WindowMode::Sliding(6),
        ..OnlineConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let mut online = OnlineEstimator::new(&red, cfg);
    assert!(flushed_matches_fresh(&mut online, &red, &mut rng));
    for (links, tree) in [(off_root, false), (route, true)] {
        let delta = TopologyDelta::new().reroute_path(path, links);
        red.apply_delta(&delta).unwrap();
        online.apply_delta(&delta).unwrap();
        assert_eq!(is_tree(online.topology()), tree);
        assert!(flushed_matches_fresh(&mut online, &red, &mut rng));
    }
}

/// Fleet isolation: applying a topology delta to one tenant leaves a
/// neighbouring tenant's event stream and estimator state bitwise
/// unchanged relative to a control fleet that never churned.
#[test]
fn churning_one_tenant_never_perturbs_another() {
    let red_a = random_tree(77);
    let red_b = random_tree(78);
    let mut rng = StdRng::seed_from_u64(79);
    let mut scenario_a = CongestionScenario::draw(
        red_a.num_links(),
        0.3,
        CongestionDynamics::Markov {
            stay_congested: 0.8,
        },
        &mut rng,
    );
    let mut scenario_b = CongestionScenario::draw(
        red_b.num_links(),
        0.3,
        CongestionDynamics::Markov {
            stay_congested: 0.8,
        },
        &mut rng,
    );
    let probe = ProbeConfig {
        probes_per_snapshot: 120,
        ..ProbeConfig::default()
    };
    let ms_a = simulate_run(&red_a, &mut scenario_a, &probe, 24, &mut rng);
    let ms_b = simulate_run(&red_b, &mut scenario_b, &probe, 24, &mut rng);

    let cfg = OnlineConfig {
        window: WindowMode::Sliding(8),
        ..OnlineConfig::default()
    };
    let mut churned = Fleet::new(FleetConfig::default());
    let a = churned.add_tenant("a", &red_a, cfg);
    let b = churned.add_tenant("b", &red_b, cfg);
    let mut control = Fleet::new(FleetConfig::default());
    let cb = control.add_tenant("b", &red_b, cfg);

    let mut churned_b_events: Vec<String> = Vec::new();
    let mut control_b_events: Vec<String> = Vec::new();
    let nc_a = red_a.num_links();
    let mut red_a2 = red_a.clone();
    for (i, (sa, sb)) in ms_a.snapshots.iter().zip(ms_b.snapshots.iter()).enumerate() {
        // Half-way through, tenant a's routing churns mid-stream.
        if i == 12 {
            let delta = TopologyDelta::new()
                .reroute_path(PathId(0), vec![0, nc_a - 1])
                .add_path(vec![0, 1]);
            red_a2.apply_delta(&delta).unwrap();
            let events = churned.update_topology(a, &delta).unwrap();
            assert!(
                events.iter().all(|e| e.tenant == a),
                "admin events stay on the churned tenant"
            );
        }
        // Tenant a's feed follows its current topology.
        if i < 12 {
            churned.enqueue(a, sa.clone()).unwrap();
        } else {
            let mut sc2 = CongestionScenario::draw(
                red_a2.num_links(),
                0.3,
                CongestionDynamics::Fixed,
                &mut rng,
            );
            let sa2 = simulate_run(&red_a2, &mut sc2, &probe, 1, &mut rng);
            churned.enqueue(a, sa2.snapshots[0].clone()).unwrap();
        }
        churned.enqueue(b, sb.clone()).unwrap();
        control.enqueue(cb, sb.clone()).unwrap();
        for e in churned.poll_events() {
            if e.tenant == b {
                churned_b_events.push(format!("{}:{:?}", e.seq, e.kind));
            }
        }
        for e in control.poll_events() {
            control_b_events.push(format!("{}:{:?}", e.seq, e.kind));
        }
    }
    assert_eq!(
        churned_b_events, control_b_events,
        "neighbour events diverged"
    );
    assert_eq!(
        churned.estimator(b).variances().unwrap().v,
        control.estimator(cb).variances().unwrap().v
    );
    assert_eq!(
        churned.estimator(b).congested_links(),
        control.estimator(cb).congested_links()
    );
}
