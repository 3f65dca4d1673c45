//! Criterion micro-benches for the Phase-1 hot path: the one-pass
//! covariance sweep and the full variance estimation, at quick scale.
//! The wall-clock stage report lives in the `perf_phase1` *binary*;
//! these benches track the same kernels under Criterion's
//! repeated-sampling harness.

use criterion::{criterion_group, criterion_main, Criterion};
use losstomo_bench::{tree_topology, Scale};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::CenteredMeasurements;
use losstomo_core::{estimate_variances, VarianceConfig};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Prepared {
    red: losstomo_topology::ReducedTopology,
    aug: AugmentedSystem,
    centered: CenteredMeasurements,
    pairs: Vec<(usize, usize)>,
}

fn prepare() -> Prepared {
    let prep = tree_topology(Scale::Quick, 11);
    let mut rng = StdRng::seed_from_u64(7);
    let mut scenario = CongestionScenario::draw(
        prep.red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms: MeasurementSet = simulate_run(
        &prep.red,
        &mut scenario,
        &ProbeConfig::default(),
        50,
        &mut rng,
    );
    let aug = AugmentedSystem::build(&prep.red);
    let centered = CenteredMeasurements::new(&ms);
    let pairs = aug.pair_indices();
    Prepared {
        red: prep.red,
        aug,
        centered,
        pairs,
    }
}

fn bench_pair_covariances(c: &mut Criterion) {
    let p = prepare();
    let mut group = c.benchmark_group("phase1_pair_covariances");
    group.sample_size(20);
    group.bench_function("serial", |b| {
        b.iter(|| p.centered.pair_covariances_with_threads(&p.pairs, 1))
    });
    group.bench_function("auto_threads", |b| {
        b.iter(|| p.centered.pair_covariances(&p.pairs))
    });
    group.finish();
}

fn bench_estimate_variances(c: &mut Criterion) {
    let p = prepare();
    let mut group = c.benchmark_group("phase1_estimate_variances");
    group.sample_size(10);
    group.bench_function("quick_tree", |b| {
        b.iter(|| {
            estimate_variances(&p.red, &p.aug, &p.centered, &VarianceConfig::default())
                .expect("phase 1")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pair_covariances, bench_estimate_variances);
criterion_main!(benches);
