//! Criterion benches for the packet-level probe engine: snapshot
//! simulation throughput under both chain-advance semantics and both
//! loss-process families.

use criterion::{criterion_group, criterion_main, Criterion};
use losstomo_bench::{tree_topology, Scale};
use losstomo_netsim::{
    simulate_snapshot, ChainAdvance, CongestionDynamics, CongestionScenario, LossProcessKind,
    ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_engine(c: &mut Criterion) {
    let prep = tree_topology(Scale::Quick, 11);
    let mut rng = StdRng::seed_from_u64(1);
    let scenario = CongestionScenario::draw(
        prep.red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let mut group = c.benchmark_group("engine/snapshot");
    group.sample_size(10);
    for (name, advance, process) in [
        (
            "per_round_gilbert",
            ChainAdvance::PerRound,
            LossProcessKind::Gilbert,
        ),
        (
            "per_arrival_gilbert",
            ChainAdvance::PerArrival,
            LossProcessKind::Gilbert,
        ),
        (
            "per_round_bernoulli",
            ChainAdvance::PerRound,
            LossProcessKind::Bernoulli,
        ),
    ] {
        let cfg = ProbeConfig {
            advance,
            process,
            ..ProbeConfig::default()
        };
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| simulate_snapshot(&prep.red, &scenario, &cfg, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
