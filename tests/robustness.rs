//! Integration tests: robustness to measurement imperfections
//! (Section 7's methodology concerns).

use losstomo::prelude::*;
use losstomo::topology::gen::planetlab::{self, PlanetLabParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn planetlab(
    seed: u64,
) -> (
    losstomo::topology::GeneratedTopology,
    PathSet,
    ReducedTopology,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = planetlab::generate(
        PlanetLabParams {
            sites: 14,
            core_routers: 6,
            ..PlanetLabParams::default()
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);
    (topo, paths, red)
}

/// Cross-validation must hold up when the inference topology comes from
/// an error-laden traceroute while losses happen on the true network —
/// the paper's "despite the potential errors in network topology, our
/// algorithm is still very accurate".
#[test]
fn lia_survives_traceroute_errors() {
    let (topo, paths, true_red) = planetlab(50);
    let mut rng = StdRng::seed_from_u64(51);
    // Exaggerated error rates so the observed topology reliably differs
    // from the truth on a ~20-router network.
    let cfg = TracerouteConfig {
        no_response_prob: 0.3,
        multi_interface_prob: 0.3,
        alias_resolution_prob: 0.2,
        ..TracerouteConfig::default()
    };
    let obs = losstomo::netsim::observe(&topo.graph, &paths, &cfg, &mut rng);
    let obs_red = reduce(&obs.graph, &obs.paths);
    // Observed topology differs from the truth…
    assert!(obs.anonymous_nodes + obs.interface_nodes > 0);

    let mut scenario = CongestionScenario::draw(
        true_red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms = simulate_run(
        &true_red,
        &mut scenario,
        &ProbeConfig::default(),
        41,
        &mut rng,
    );
    // …but inference with the observed routing matrix still validates.
    let res = cross_validate(&obs_red, &ms, &CrossValidationConfig::default(), &mut rng).unwrap();
    assert!(
        res.percent_consistent() >= 70.0,
        "only {:.1}% consistent under traceroute errors",
        res.percent_consistent()
    );
}

/// The same data validated on the true topology must do at least as
/// well as a heavily corrupted observation (sanity direction check).
#[test]
fn clean_topology_validates_better_than_fully_anonymous() {
    let (topo, paths, true_red) = planetlab(60);
    let mut rng = StdRng::seed_from_u64(61);
    let anonymous_cfg = TracerouteConfig {
        no_response_prob: 0.9,
        ..TracerouteConfig::default()
    };
    let obs = losstomo::netsim::observe(&topo.graph, &paths, &anonymous_cfg, &mut rng);
    let obs_red = reduce(&obs.graph, &obs.paths);

    let mut scenario = CongestionScenario::draw(
        true_red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms = simulate_run(
        &true_red,
        &mut scenario,
        &ProbeConfig::default(),
        31,
        &mut rng,
    );
    let mut rng_a = StdRng::seed_from_u64(62);
    let mut rng_b = StdRng::seed_from_u64(62);
    let clean = cross_validate(
        &true_red,
        &ms,
        &CrossValidationConfig::default(),
        &mut rng_a,
    )
    .unwrap();
    let dirty =
        cross_validate(&obs_red, &ms, &CrossValidationConfig::default(), &mut rng_b).unwrap();
    assert!(
        clean.percent_consistent() + 15.0 >= dirty.percent_consistent(),
        "clean {:.1}% vs anonymised {:.1}%",
        clean.percent_consistent(),
        dirty.percent_consistent()
    );
}

/// Short snapshots (small S) still produce a working pipeline — Figure
/// 8(b)'s claim that the impact of S is mild.
#[test]
fn small_probe_counts_degrade_gracefully() {
    let (_, _, red) = planetlab(70);
    let dr_of = |s: u32| {
        let cfg = ExperimentConfig {
            snapshots: 30,
            probe: ProbeConfig {
                probes_per_snapshot: s,
                ..ProbeConfig::default()
            },
            seed: 71,
            ..ExperimentConfig::default()
        };
        let results = run_many(&red, &cfg, 3);
        let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        ok.iter().map(|r| r.location.detection_rate).sum::<f64>() / ok.len() as f64
    };
    let dr_small = dr_of(200);
    let dr_large = dr_of(1000);
    assert!(dr_small >= 0.6, "S=200 DR collapsed to {dr_small}");
    assert!(dr_large >= dr_small - 0.15);
}

/// Zero-received paths (floored measurements) must not break inference.
#[test]
fn total_loss_paths_are_handled() {
    let (_, _, red) = planetlab(80);
    let cfg = ExperimentConfig {
        snapshots: 20,
        p_congested: 0.5, // heavy congestion: some paths lose everything
        probe: ProbeConfig {
            loss_model: LossModel::Llrd2, // rates up to 1.0
            ..ProbeConfig::default()
        },
        seed: 81,
        ..ExperimentConfig::default()
    };
    let res = run_experiment(&red, &cfg).unwrap();
    assert!(res.est_loss.iter().all(|l| l.is_finite()));
    assert!(res.est_loss.iter().all(|&l| (0.0..=1.0).contains(&l)));
}

/// The quickstart's 200-node tree (seed 1, branching ≤ 8).
fn quickstart_tree() -> ReducedTopology {
    use losstomo::topology::gen::tree::{self, TreeParams};
    let topo = tree::generate(
        TreeParams {
            nodes: 200,
            max_branching: 8,
        },
        &mut StdRng::seed_from_u64(1),
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    reduce(&topo.graph, &paths)
}

/// Runs `rows` through the batch pipeline (`estimate_variances` +
/// `infer_link_rates` on the last row) and through an
/// `OnlineEstimator` refreshing on every row; returns both Phase-1
/// results and both rate estimates.
fn batch_and_online(
    red: &ReducedTopology,
    rows: &[Vec<f64>],
) -> ([losstomo::core::VarianceEstimate; 2], [LinkRateEstimate; 2]) {
    let aug = AugmentedSystem::build(red);
    let centered = CenteredMeasurements::from_rows(rows.to_vec());
    let batch_v = estimate_variances(red, &aug, &centered, &VarianceConfig::default()).unwrap();
    let y = rows.last().unwrap();
    let batch = infer_link_rates(red, &batch_v.v, y, &LiaConfig::default()).unwrap();
    let mut online = OnlineEstimator::new(red, OnlineConfig::default());
    let mut last = None;
    for row in rows {
        last = Some(online.ingest_log_rates(row).unwrap());
    }
    let update = last.unwrap();
    assert!(update.refreshed, "the last row refreshes");
    let online_v = online.variances().expect("a refreshed model").clone();
    (
        [batch_v, online_v],
        [batch, update.estimate.expect("a refreshed estimate")],
    )
}

/// A lossless network (every log rate 0): every covariance is exactly
/// zero, nothing is negative, so nothing is dropped and the kept rows
/// solve. The variances are exact zeros and no link is flagged.
#[test]
fn lossless_rows_give_zero_variances_and_no_flags() {
    let red = quickstart_tree();
    let rows = vec![vec![0.0; red.num_paths()]; 10];
    let threshold = OnlineConfig::default().congestion_threshold;
    let (vs, rates) = batch_and_online(&red, &rows);
    for v in &vs {
        assert!(v.v.iter().all(|&x| x == 0.0), "nonzero variance {:?}", v.v);
        assert_eq!(v.dropped_rows, 0);
        assert_eq!(v.fallback, None);
    }
    for est in &rates {
        assert!(est.congested_links(threshold).is_empty());
        assert!(est.transmission.iter().all(|&t| t == 1.0));
    }
}

/// Constant rows (every path loses the same 1% in every snapshot)
/// carry no variance signal: the covariances are rounding residues, so
/// the variances are zero up to rounding and which links carry the loss
/// follows Phase 2's tie order (documented on `estimate_variances`).
/// Pinned here: every output is finite.
#[test]
fn constant_rows_give_finite_outputs() {
    let red = quickstart_tree();
    let rows = vec![vec![-0.01; red.num_paths()]; 10];
    let (vs, rates) = batch_and_online(&red, &rows);
    for v in &vs {
        assert!(v.v.iter().all(|x| x.is_finite()));
        assert!(v.v.iter().all(|x| x.abs() < 1e-12), "{:?}", v.v);
    }
    for est in &rates {
        assert!(est.transmission.iter().all(|t| t.is_finite()));
    }
}

/// A NaN or ±∞ entry in Phase 2's input is a typed error naming the
/// first bad entry, through the batch and the online entry points and
/// every estimator backend. A NaN `y` would otherwise become a NaN
/// rate, which no loss threshold flags, so a broken measurement would
/// read as "no congestion".
#[test]
fn non_finite_y_is_rejected_by_phase2() {
    let red = quickstart_tree();
    let mut rng = StdRng::seed_from_u64(3);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let ms = simulate_run(&red, &mut scenario, &ProbeConfig::default(), 12, &mut rng);
    let rows = ms.log_rate_rows();
    let aug = AugmentedSystem::build(&red);
    let centered = CenteredMeasurements::from_rows(rows.clone());
    let v = estimate_variances(&red, &aug, &centered, &VarianceConfig::default())
        .unwrap()
        .v;
    let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
    for row in &rows {
        online.ingest_log_rates(row).unwrap();
    }
    let index = 4;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut y = rows[0].clone();
        y[index] = bad;
        y[index + 3] = bad;
        let want = losstomo::linalg::LinalgError::NonFinite { index };
        assert_eq!(
            infer_link_rates(&red, &v, &y, &LiaConfig::default()).unwrap_err(),
            want,
            "batch, {bad}"
        );
        assert_eq!(online.estimate(&y).unwrap_err(), want, "online, {bad}");
        for kind in EstimatorKind::all() {
            let mut backend = build_estimator(
                kind,
                &red,
                LiaConfig::default(),
                VarianceConfig::default(),
                losstomo::core::PairBudget::Full,
            );
            let err = backend.estimate(&centered, &y).unwrap_err();
            assert_eq!(err, want, "{}, {bad}", kind.name());
        }
    }
}
