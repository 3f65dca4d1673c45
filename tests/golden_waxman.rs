//! Golden regression for Phase 2 on a mid-size Waxman mesh.
//!
//! The tree fixture (`golden_pipeline.rs`) pins the batch pipeline on
//! the paper's single-beacon topology; this fixture pins the
//! **congested-set output of Phase 2 on a multi-beacon mesh** — the
//! regime the sparse dispatch exists for — so the sparse-first routing
//! refactor (and any future factorisation change) cannot silently move
//! the diagnosis. A second test drives the dense (oracle) and sparse
//! dispatch paths over the same system and requires identical column
//! selections and congested sets.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_waxman
//! ```

use losstomo::core::Phase2Dispatch;
use losstomo::prelude::*;
use losstomo::topology::gen::waxman::{self, WaxmanParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_waxman.json"
);

/// What the fixture pins: the measurement-system shape and the exact
/// Phase-2 diagnosis.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenWaxman {
    paths: usize,
    links: usize,
    kept_count: usize,
    congested: Vec<usize>,
}

/// The prepared mesh: measurement system, learnt variances, and the
/// evaluation snapshot's log measurements.
struct Prepared {
    red: ReducedTopology,
    variances: Vec<f64>,
    y_eval: Vec<f64>,
}

fn prepared() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
        let topo = waxman::generate(
            WaxmanParams {
                nodes: 300,
                hosts: 24,
                ..WaxmanParams::default()
            },
            &mut rng,
        );
        let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
        let m = 30;
        let mut scenario = CongestionScenario::draw(
            setup.red.num_links(),
            0.1,
            CongestionDynamics::Fixed,
            &mut rng,
        );
        let probe = ProbeConfig {
            probes_per_snapshot: 400,
            ..ProbeConfig::default()
        };
        let ms = simulate_run(&setup.red, &mut scenario, &probe, m + 1, &mut rng);
        let train = MeasurementSet {
            snapshots: ms.snapshots[..m].to_vec(),
        };
        let centered = CenteredMeasurements::new(&train);
        let est = estimate_variances(
            &setup.red,
            &setup.aug,
            &centered,
            &VarianceConfig::default(),
        )
        .expect("phase 1 on the golden mesh");
        Prepared {
            red: setup.red,
            variances: est.v,
            y_eval: ms.snapshots[m].log_rates(),
        }
    })
}

fn phase2(dispatch: Phase2Dispatch) -> LinkRateEstimate {
    let prep = prepared();
    let cfg = LiaConfig {
        dispatch,
        ..LiaConfig::default()
    };
    infer_link_rates(&prep.red, &prep.variances, &prep.y_eval, &cfg)
        .expect("phase 2 on the golden mesh")
}

#[test]
fn golden_waxman_congested_set_matches_fixture() {
    let prep = prepared();
    let est = phase2(Phase2Dispatch::Auto);
    let actual = GoldenWaxman {
        paths: prep.red.num_paths(),
        links: prep.red.num_links(),
        kept_count: est.kept_count,
        congested: est.congested_links(losstomo::netsim::DEFAULT_LOSS_THRESHOLD),
    };

    if std::env::var("GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&actual).unwrap();
        std::fs::write(FIXTURE_PATH, json + "\n").expect("write fixture");
        return;
    }

    let fixture: GoldenWaxman = serde_json::from_str(
        &std::fs::read_to_string(FIXTURE_PATH).expect("fixture missing — run with GOLDEN_REGEN=1"),
    )
    .expect("fixture must parse");
    assert_eq!(actual, fixture, "golden Waxman Phase-2 output drifted");
}

/// The dense pivoted QR stays available as the dispatchable oracle:
/// forced-dense and forced-sparse Phase 2 must select the same columns
/// and diagnose the same congested set, with rates agreeing far below
/// the congestion threshold.
#[test]
fn dense_and_sparse_dispatch_agree() {
    let dense = phase2(Phase2Dispatch::Dense);
    let sparse = phase2(Phase2Dispatch::Sparse);
    assert_eq!(dense.kept, sparse.kept, "kept column sets diverged");
    assert_eq!(
        dense.congested_links(losstomo::netsim::DEFAULT_LOSS_THRESHOLD),
        sparse.congested_links(losstomo::netsim::DEFAULT_LOSS_THRESHOLD),
        "congested sets diverged"
    );
    for (d, s) in dense.transmission.iter().zip(sparse.transmission.iter()) {
        assert!((d - s).abs() < 1e-9, "rates diverged: {d} vs {s}");
    }
}
