//! Integration test for the Section-8 delay-tomography extension.

use losstomo::core::AugmentedSystem;
use losstomo::netsim::delay::{simulate_delay_run, DelayConfig, DelayNetwork};
use losstomo::prelude::*;
use losstomo::topology::gen::planetlab::{self, PlanetLabParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full delay pipeline on a mesh: identifiability carries over and
/// high-queue links are located.
#[test]
fn delay_pipeline_on_mesh() {
    let mut rng = StdRng::seed_from_u64(500);
    let topo = planetlab::generate(
        PlanetLabParams {
            sites: 12,
            core_routers: 5,
            ..PlanetLabParams::default()
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);
    let aug = AugmentedSystem::build(&red);
    assert!(aug.is_identifiable(), "Theorem 1 applies to delays too");

    let cfg = DelayConfig::default();
    let net = DelayNetwork::draw(&red, &cfg, &mut rng);
    let mut scenario = CongestionScenario::draw(
        red.num_links(),
        0.1,
        CongestionDynamics::Markov {
            stay_congested: 0.7,
        },
        &mut rng,
    );
    let m = 40;
    let snaps = simulate_delay_run(&red, &net, &mut scenario, &cfg, m + 1, &mut rng);
    let v = estimate_delay_variances(&red, &aug, &snaps[..m], &VarianceConfig::default())
        .expect("delay phase 1");
    let est = infer_link_delays(&red, &v.v, &snaps[..m], &snaps[m], &LiaConfig::default())
        .expect("delay phase 2");

    // Detectable = congested now and congested in ≥ m/4 window snapshots.
    let detectable: Vec<usize> = (0..red.num_links())
        .filter(|&k| {
            snaps[m].congested[k] && snaps[..m].iter().filter(|s| s.congested[k]).count() >= m / 4
        })
        .collect();
    let detected = est.congested_links(2.0);
    let missed = detectable.iter().filter(|k| !detected.contains(k)).count();
    assert!(
        missed * 3 <= detectable.len().max(1),
        "missed {missed} of {} detectable high-delay links",
        detectable.len()
    );
}

/// Delay estimates are non-negative and finite, whatever the inputs.
#[test]
fn delay_estimates_are_physical() {
    let mut rng = StdRng::seed_from_u64(600);
    let topo = planetlab::generate(
        PlanetLabParams {
            sites: 8,
            core_routers: 4,
            ..PlanetLabParams::default()
        },
        &mut rng,
    );
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);
    let aug = AugmentedSystem::build(&red);
    let cfg = DelayConfig {
        probes_per_snapshot: 50, // noisy
        ..DelayConfig::default()
    };
    let net = DelayNetwork::draw(&red, &cfg, &mut rng);
    let mut scenario = CongestionScenario::draw(
        red.num_links(),
        0.3,
        CongestionDynamics::Redraw, // hostile dynamics
        &mut rng,
    );
    let snaps = simulate_delay_run(&red, &net, &mut scenario, &cfg, 11, &mut rng);
    let v = estimate_delay_variances(&red, &aug, &snaps[..10], &VarianceConfig::default())
        .expect("phase 1");
    let est = infer_link_delays(&red, &v.v, &snaps[..10], &snaps[10], &LiaConfig::default())
        .expect("phase 2");
    assert!(est.queue_delay.iter().all(|d| d.is_finite() && *d >= 0.0));
}
