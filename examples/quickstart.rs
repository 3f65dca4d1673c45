//! Quickstart — infer link loss rates from end-to-end flows.
//!
//! Builds a small tree network, simulates `m + 1` measurement snapshots
//! with bursty (Gilbert) losses, learns the link variances from the
//! first `m` snapshots (Phase 1) and infers every link's loss rate on
//! the last snapshot (Phase 2).
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Optional flags: `--nodes N` (default 200) and `--snapshots M`
//! (default 50) shrink the run for smoke tests and CI; a value that is
//! not a positive integer exits with code 2 and a usage line.

use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use losstomo_bench::count_from_args;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A network: random tree (200 nodes by default), beacon at the
    //    root, probing destinations at the leaves.
    let nodes = count_from_args("--nodes", 200);
    let mut rng = StdRng::seed_from_u64(1);
    let topo = tree::generate(
        TreeParams {
            nodes,
            max_branching: 8,
        },
        &mut rng,
    );

    // 2. Routing + alias reduction → the measurement system R.
    let paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    let red = reduce(&topo.graph, &paths);
    println!(
        "measurement system: {} paths x {} virtual links",
        red.num_paths(),
        red.num_links()
    );

    // 3. Simulate m+1 snapshots: 10% of links congested, LLRD1 rates,
    //    Gilbert losses, S = 1000 probes per path per snapshot.
    let m = count_from_args("--snapshots", 50);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let ms = simulate_run(
        &red,
        &mut scenario,
        &ProbeConfig::default(),
        m + 1,
        &mut rng,
    );

    // 4. Phase 1 — learn the link variances from the first m snapshots.
    let aug = AugmentedSystem::build(&red);
    let train = MeasurementSet {
        snapshots: ms.snapshots[..m].to_vec(),
    };
    let centered = CenteredMeasurements::new(&train);
    let est_v = estimate_variances(&red, &aug, &centered, &VarianceConfig::default())
        .expect("variance estimation");

    // 5. Phase 2 — infer per-link loss rates on the newest snapshot.
    let eval = &ms.snapshots[m];
    let est = infer_link_rates(&red, &est_v.v, &eval.log_rates(), &LiaConfig::default())
        .expect("phase 2");

    // 6. Report: the links LIA flags as congested, with their true rates.
    let tl = 0.002;
    println!("\nlinks diagnosed congested (threshold {tl}):");
    println!("{:>6} {:>12} {:>12}", "link", "inferred", "true");
    for k in est.congested_links(tl) {
        println!(
            "{:>6} {:>12.4} {:>12.4}",
            k,
            1.0 - est.transmission[k],
            eval.link_truth[k].true_loss_rate()
        );
    }
    let truth: Vec<bool> = eval.link_truth.iter().map(|t| t.congested).collect();
    let diagnosed: Vec<bool> = est.loss_rates().iter().map(|&l| l > tl).collect();
    let acc = location_accuracy(&truth, &diagnosed);
    println!(
        "\ndetection rate {:.1}%, false positive rate {:.1}%",
        100.0 * acc.detection_rate,
        100.0 * acc.false_positive_rate
    );
}
