//! Criterion benches for the LIA pipeline stages (the Section-6.4
//! running-time claims): building the augmented matrix `A` (once per
//! topology), Phase 1 (variance estimation from m snapshots) and
//! Phase 2 (column selection + reduced solve, per snapshot).

use criterion::{criterion_group, criterion_main, Criterion};
use losstomo_bench::{planetlab_topology, tree_topology, PreparedTopology, Scale};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::CenteredMeasurements;
use losstomo_core::{estimate_variances, infer_link_rates, LiaConfig, VarianceConfig};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    prep: PreparedTopology,
    aug: AugmentedSystem,
    centered: CenteredMeasurements,
    variances: Vec<f64>,
    eval_y: Vec<f64>,
}

fn fixture(prep: PreparedTopology) -> Fixture {
    let mut rng = StdRng::seed_from_u64(5);
    let mut scenario = CongestionScenario::draw(
        prep.red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms = simulate_run(
        &prep.red,
        &mut scenario,
        &ProbeConfig::default(),
        31,
        &mut rng,
    );
    let train = MeasurementSet {
        snapshots: ms.snapshots[..30].to_vec(),
    };
    let aug = AugmentedSystem::build(&prep.red);
    let centered = CenteredMeasurements::new(&train);
    let variances = estimate_variances(&prep.red, &aug, &centered, &VarianceConfig::default())
        .expect("phase 1")
        .v;
    let eval_y = ms.snapshots[30].log_rates();
    Fixture {
        prep,
        aug,
        centered,
        variances,
        eval_y,
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let fixtures = vec![
        ("tree", fixture(tree_topology(Scale::Quick, 11))),
        ("planetlab", fixture(planetlab_topology(Scale::Quick, 42))),
    ];
    for (name, f) in &fixtures {
        let mut group = c.benchmark_group(format!("pipeline/{name}"));
        group.sample_size(10);
        group.bench_function("build_augmented", |b| {
            b.iter(|| AugmentedSystem::build(&f.prep.red))
        });
        group.bench_function("phase1_variances", |b| {
            b.iter(|| {
                estimate_variances(&f.prep.red, &f.aug, &f.centered, &VarianceConfig::default())
                    .expect("phase 1")
            })
        });
        group.bench_function("phase2_infer", |b| {
            b.iter(|| {
                infer_link_rates(&f.prep.red, &f.variances, &f.eval_y, &LiaConfig::default())
                    .expect("phase 2")
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
