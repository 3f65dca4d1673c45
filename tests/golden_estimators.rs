//! Golden regression test for the estimator zoo.
//!
//! Runs every [`EstimatorKind`] backend, and LIA with the negative-row
//! drop off (`lia-all-rows`, which solves every row), on one fixed
//! seeded tree scenario — same centred measurements, same evaluation
//! snapshot — and pins each leg's headline numbers (congested-link
//! count, Phase-1 row usage, mean transmission rate, mean learned
//! variance) against a committed JSON fixture. A behavioural change to
//! *any* backend, or to the shared simulation stream feeding them,
//! shows up as drift here.
//!
//! To regenerate the fixture after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_estimators
//! ```

use std::collections::BTreeMap;
use std::sync::OnceLock;

use losstomo::core::budget::PairBudget;
use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_estimators.json"
);

const THRESHOLD: f64 = losstomo::netsim::DEFAULT_LOSS_THRESHOLD;

fn golden_summary() -> &'static BTreeMap<String, f64> {
    static SUMMARY: OnceLock<BTreeMap<String, f64>> = OnceLock::new();
    SUMMARY.get_or_init(run_golden_backends)
}

fn run_golden_backends() -> BTreeMap<String, f64> {
    // Same scenario family as golden_pipeline: a 60-node tree, 30
    // training snapshots, sim seed 9 — but here every backend consumes
    // the identical measurements.
    let mut trng = StdRng::seed_from_u64(123);
    let topo = tree::generate(
        TreeParams {
            nodes: 60,
            max_branching: 4,
        },
        &mut trng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);

    let m = 30;
    let mut rng = StdRng::seed_from_u64(9);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let ms = simulate_run(
        &red,
        &mut scenario,
        &ProbeConfig::default(),
        m + 1,
        &mut rng,
    );
    let train = MeasurementSet {
        snapshots: ms.snapshots[..m].to_vec(),
    };
    let centered = CenteredMeasurements::new(&train);
    let y = ms.snapshots[m].log_rates();

    let all_rows = VarianceConfig {
        drop_negative_covariances: false,
        ..VarianceConfig::default()
    };
    let legs = EstimatorKind::all()
        .map(|kind| (kind.name(), kind, VarianceConfig::default()))
        .into_iter()
        .chain([("lia-all-rows", EstimatorKind::Lia, all_rows)]);
    let mut summary = BTreeMap::new();
    for (name, kind, variance) in legs {
        let mut backend =
            build_estimator(kind, &red, LiaConfig::default(), variance, PairBudget::Full);
        let out = backend
            .estimate(&centered, &y)
            .expect("every backend supports the golden tree");
        let n = red.num_links() as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
        summary.insert(
            format!("{name}.congested_count"),
            out.congested_links(THRESHOLD).len() as f64,
        );
        summary.insert(
            format!("{name}.rows_used"),
            out.diagnostics.rows_used as f64,
        );
        summary.insert(
            format!("{name}.dropped_rows"),
            out.diagnostics.dropped_rows as f64,
        );
        summary.insert(
            format!("{name}.transmission_mean"),
            mean(&out.estimate.transmission),
        );
        summary.insert(
            format!("{name}.variance_mean"),
            mean(&out.diagnostics.variances),
        );
    }
    summary
}

#[test]
fn golden_estimators_match_fixture() {
    let actual = golden_summary();

    if std::env::var("GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&actual).unwrap();
        std::fs::write(FIXTURE_PATH, json + "\n").expect("write fixture");
        return;
    }

    let fixture: BTreeMap<String, f64> = serde_json::from_str(
        &std::fs::read_to_string(FIXTURE_PATH).expect("fixture missing — run with GOLDEN_REGEN=1"),
    )
    .expect("fixture must parse");

    assert_eq!(
        fixture.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "fixture fields drifted from the test's summary"
    );
    for (key, expected) in &fixture {
        let got = actual[key];
        assert!(
            (got - expected).abs() < 1e-9,
            "golden drift on `{key}`: fixture {expected}, got {got}"
        );
    }
}

/// The fixture's internal cross-backend invariants, independent of the
/// JSON numbers: every leg finds congestion on the golden tree and
/// stays inside physical transmission bounds, and the drop never adds
/// rows.
#[test]
fn golden_backends_cross_invariants() {
    let s = golden_summary();
    assert!(s["lia-all-rows.rows_used"] >= s["lia.rows_used"]);
    for name in EstimatorKind::all()
        .map(EstimatorKind::name)
        .into_iter()
        .chain(["lia-all-rows"])
    {
        assert!(
            s[&format!("{name}.congested_count")] > 0.0,
            "{name} found nothing"
        );
        let mean = s[&format!("{name}.transmission_mean")];
        assert!(
            (0.0..=1.0).contains(&mean),
            "{name} transmission mean {mean} outside [0, 1]"
        );
    }
}
