//! Streaming ↔ batch equivalence on the golden scenario.
//!
//! Replays the exact experiment pinned by `tests/fixtures/golden_tree.json`
//! (same topology generator seed, same measurement RNG stream) through
//! the streaming path — `simulate_stream` feeding an `OnlineEstimator`
//! one snapshot at a time — and asserts that:
//!
//! 1. the online Phase-1 variances are **bit-for-bit** the batch
//!    `estimate_variances` output,
//! 2. the online Phase-2 link rates on the evaluation snapshot are
//!    bit-for-bit the batch `infer_link_rates` output, and
//! 3. the summary statistics derived from the streaming run match the
//!    committed golden fixture.
//!
//! Any divergence between the incremental machinery (gram cache,
//! memoized QR, covariance replay) and the batch pipeline shows up here
//! immediately.

use std::collections::BTreeMap;

use losstomo::core::location_accuracy;
use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_tree.json"
);

/// The golden scenario's topology and measurements, reproduced exactly
/// as `run_experiment` draws them in `tests/golden_pipeline.rs` (same
/// generator seed 123, same experiment seed 9, 30 + 1 snapshots).
fn golden_measurements() -> (ReducedTopology, MeasurementSet, usize) {
    let mut topo_rng = StdRng::seed_from_u64(123);
    let topo = tree::generate(
        TreeParams {
            nodes: 60,
            max_branching: 4,
        },
        &mut topo_rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);
    let m = 30;
    let mut rng = StdRng::seed_from_u64(9);
    let scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    // Stream the m + 1 snapshots (bit-identical to the batch
    // `simulate_run` inside `run_experiment`).
    let ms: MeasurementSet = simulate_stream(&red, scenario, &ProbeConfig::default(), rng)
        .take(m + 1)
        .collect();
    (red, ms, m)
}

#[test]
fn online_estimator_reproduces_golden_batch_bitwise() {
    let (red, ms, m) = golden_measurements();

    // Batch reference: Phase 1 on the first m snapshots, Phase 2 on the
    // evaluation snapshot — the exact `run_experiment` pipeline.
    let aug = AugmentedSystem::build(&red);
    let train = MeasurementSet {
        snapshots: ms.snapshots[..m].to_vec(),
    };
    let centered = CenteredMeasurements::new(&train);
    let batch_v = estimate_variances(&red, &aug, &centered, &VarianceConfig::default())
        .expect("golden Phase 1 must solve");
    let eval = &ms.snapshots[m];
    let y_eval = eval.log_rates();
    let batch_p2 = infer_link_rates(&red, &batch_v.v, &y_eval, &LiaConfig::default())
        .expect("golden Phase 2 must solve");

    // Streaming: ingest the training snapshots one at a time.
    let mut online = OnlineEstimator::new(&red, OnlineConfig::default());
    for snap in &ms.snapshots[..m] {
        online.ingest(snap).expect("online ingest");
    }
    let online_v = online.variances().expect("warm after 30 snapshots");
    assert_eq!(
        online_v.v, batch_v.v,
        "Phase-1 variances must be bit-identical"
    );
    assert_eq!(online_v.dropped_rows, batch_v.dropped_rows);
    assert_eq!(online_v.used_rows, batch_v.used_rows);

    let online_p2 = online.estimate(&y_eval).expect("online Phase 2");
    assert_eq!(
        online_p2.transmission, batch_p2.transmission,
        "Phase-2 link rates must be bit-identical"
    );
    assert_eq!(online_p2.kept, batch_p2.kept);
    assert_eq!(online_p2.kept_count, batch_p2.kept_count);

    // The streaming run must land on the committed golden summary.
    let threshold = ProbeConfig::default().loss_model.threshold();
    let truth_flags: Vec<bool> = eval.link_truth.iter().map(|t| t.congested).collect();
    let est_flags: Vec<bool> = online_p2
        .loss_rates()
        .iter()
        .map(|&l| l > threshold)
        .collect();
    let location = location_accuracy(&truth_flags, &est_flags);
    let actual = BTreeMap::from([
        (
            "congested_count",
            truth_flags.iter().filter(|&&c| c).count() as f64,
        ),
        ("detection_rate", location.detection_rate),
        ("dropped_rows", online_v.dropped_rows as f64),
        ("false_positive_rate", location.false_positive_rate),
        ("kept_count", online_p2.kept_count as f64),
    ]);
    let fixture: BTreeMap<String, f64> = serde_json::from_str(
        &std::fs::read_to_string(FIXTURE_PATH).expect("golden fixture present"),
    )
    .expect("fixture parses");
    for (key, expected) in &fixture {
        let got = actual[key.as_str()];
        assert!(
            (got - expected).abs() < 1e-9,
            "streaming drifted from golden fixture on `{key}`: fixture {expected}, got {got}"
        );
    }
}

/// A refresh cadence > 1 must not change what a forced refresh produces:
/// ingest on a sparse cadence, force the final refresh, and land on the
/// same bits as the per-snapshot run.
#[test]
fn sparse_cadence_with_forced_refresh_matches_dense_cadence() {
    let (red, ms, m) = golden_measurements();
    let mut dense = OnlineEstimator::new(&red, OnlineConfig::default());
    let mut sparse = OnlineEstimator::new(
        &red,
        OnlineConfig {
            refresh_every: 7,
            ..OnlineConfig::default()
        },
    );
    for snap in &ms.snapshots[..m] {
        dense.ingest(snap).expect("dense ingest");
        sparse.ingest(snap).expect("sparse ingest");
    }
    sparse.refresh().expect("forced refresh");
    assert_eq!(
        dense.variances().unwrap().v,
        sparse.variances().unwrap().v,
        "cadence must not change the refreshed model"
    );
    let y = ms.snapshots[m].log_rates();
    assert_eq!(
        dense.estimate(&y).unwrap().transmission,
        sparse.estimate(&y).unwrap().transmission
    );
}
