//! PlanetLab-style measurement study (Section 7 end to end).
//!
//! Reproduces the paper's Internet experiment pipeline on the synthetic
//! PlanetLab-like network:
//!
//! 1. discover the topology with traceroute — including non-responding
//!    routers and unresolved interface aliases;
//! 2. probe every host pair for `m + 1` snapshots (losses happen on the
//!    *true* topology, inference sees only the *observed* one);
//! 3. cross-validate LIA with the inference/validation split and
//!    eq. (11);
//! 4. report where the congested links live (inter- vs intra-AS is not
//!    available here — PlanetLab sites have no AS annotation — so we
//!    report core vs access instead).
//!
//! Run with: `cargo run --release --example planetlab_study`

use losstomo::prelude::*;
use losstomo::topology::gen::planetlab::{self, PlanetLabParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let topo = planetlab::generate(
        PlanetLabParams {
            sites: 24,
            core_routers: 8,
            ..PlanetLabParams::default()
        },
        &mut rng,
    );
    println!(
        "synthetic PlanetLab: {} nodes, {} links, {} hosts",
        topo.graph.node_count(),
        topo.graph.link_count(),
        topo.beacons.len()
    );

    // --- 1. traceroute discovery with realistic errors -----------------
    // The *true* measurement system, via the shared setup helper; the
    // observed system is rebuilt below from the traceroute output.
    let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
    let obs = losstomo::netsim::observe(
        &topo.graph,
        &setup.paths,
        &TracerouteConfig::default(),
        &mut rng,
    );
    println!(
        "traceroute: {} paths observed, {} anonymous hops, {} unresolved interfaces",
        obs.paths.len(),
        obs.anonymous_nodes,
        obs.interface_nodes
    );
    let true_red = &setup.red;
    let obs_red = reduce(&obs.graph, &obs.paths);
    println!(
        "true system: {} links; observed system: {} links",
        true_red.num_links(),
        obs_red.num_links()
    );

    // --- 2. probing -----------------------------------------------------
    let m = 50;
    let mut scenario = CongestionScenario::draw(
        true_red.num_links(),
        0.1,
        CongestionDynamics::Fixed,
        &mut rng,
    );
    let ms = simulate_run(
        true_red,
        &mut scenario,
        &ProbeConfig::default(),
        m + 1,
        &mut rng,
    );

    // --- 3. cross-validation on the observed topology -------------------
    let res = cross_validate(&obs_red, &ms, &CrossValidationConfig::default(), &mut rng)
        .expect("cross validation");
    println!(
        "\ncross-validation: {}/{} validation paths consistent ({:.1}%, ε = 0.005)",
        res.consistent,
        res.total,
        res.percent_consistent()
    );

    // --- 4. full inference + congested-link location --------------------
    let aug = AugmentedSystem::build(&obs_red);
    let train = MeasurementSet {
        snapshots: ms.snapshots[..m].to_vec(),
    };
    let centered = CenteredMeasurements::new(&train);
    let v =
        estimate_variances(&obs_red, &aug, &centered, &VarianceConfig::default()).expect("phase 1");
    let est = infer_link_rates(
        &obs_red,
        &v.v,
        &ms.snapshots[m].log_rates(),
        &LiaConfig::default(),
    )
    .expect("phase 2");
    let congested = est.congested_links(0.01);
    println!(
        "\n{} observed links diagnosed congested at t_l = 0.01:",
        congested.len()
    );
    for k in congested.iter().take(10) {
        println!(
            "  observed link {k}: inferred loss {:.4}",
            1.0 - est.transmission[*k]
        );
    }
    if congested.len() > 10 {
        println!("  ... and {} more", congested.len() - 10);
    }
}
