//! Streaming monitor — congested-link alerts from a live snapshot feed.
//!
//! The batch quickstart collects all snapshots, then infers once. This
//! example runs the same two-phase pipeline *online*: snapshots arrive
//! one at a time from [`simulate_stream`], an [`OnlineEstimator`]
//! ingests each as it lands (a covariance window replayed at each
//! refresh, cached Phase-1 Gram counts, a Phase-2 model refitted in
//! reused buffers), and every change to the congested-link set is
//! reported the moment it is detected.
//!
//! The congestion scenario evolves as a per-link Markov chain, so the
//! congested set genuinely drifts during the run — the situation the
//! streaming estimator exists for.
//!
//! Run with: `cargo run --release --example streaming_monitor`
//!
//! Optional flags: `--nodes N` (default 200) and `--snapshots M`
//! (default 60) shrink the run for smoke tests and CI; a value that is
//! not a positive integer exits with code 2 and a usage line.

use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use losstomo_bench::count_from_args;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A network and its measurement system, as in the quickstart.
    let nodes = count_from_args("--nodes", 200);
    let snapshots = count_from_args("--snapshots", 60);
    let mut rng = StdRng::seed_from_u64(17);
    let topo = tree::generate(
        TreeParams {
            nodes,
            max_branching: 8,
        },
        &mut rng,
    );
    let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
    let red = setup.red;
    println!(
        "monitoring {} paths x {} virtual links, {} snapshots",
        red.num_paths(),
        red.num_links(),
        snapshots
    );

    // 2. A drifting congestion scenario: links enter and leave the
    //    congested set across snapshots (Markov persistence).
    let scenario = CongestionScenario::draw(
        red.num_links(),
        0.1,
        CongestionDynamics::Markov {
            stay_congested: 0.9,
        },
        &mut rng,
    );

    // 3. The online estimator, refreshing on every snapshot with a
    //    sliding window so old congestion epochs age out.
    let window = (snapshots / 2).max(10);
    let mut monitor = OnlineEstimator::new(
        &red,
        OnlineConfig {
            window: WindowMode::Sliding(window),
            ..OnlineConfig::default()
        },
    );

    // 4. Drive the snapshot stream; report congested-set changes live.
    let mut alerts = 0usize;
    for (t, snapshot) in simulate_stream(&red, scenario, &ProbeConfig::default(), rng)
        .take(snapshots)
        .enumerate()
    {
        let update = monitor.ingest(&snapshot).expect("ingest");
        if update.estimate.is_none() {
            println!("[t={t:>3}] warming up ({} snapshots buffered)", t + 1);
            continue;
        }
        for &k in &update.appeared {
            alerts += 1;
            println!("[t={t:>3}] ALERT link {k}: entered the congested set");
        }
        for &k in &update.cleared {
            println!("[t={t:>3}] clear link {k}: left the congested set");
        }
    }

    // 5. Final state of the monitor.
    println!();
    println!(
        "done: {} snapshots ingested, {} refreshes, {} alerts",
        monitor.covariance().total_ingested(),
        monitor.refresh_count(),
        alerts
    );
    let congested = monitor.congested_links();
    println!(
        "currently congested ({} links): {:?}",
        congested.len(),
        congested
    );
    if let Some(v) = monitor.variances() {
        let mut order = losstomo::core::lia::variance_order(&v.v);
        order.reverse();
        println!("top-5 variance links: {:?}", &order[..order.len().min(5)]);
    }
}
