//! Fleet monitor — one process watching many networks at once.
//!
//! The streaming monitor example watches a single topology; this one
//! runs a whole *fleet*: each tenant is an independent network (its own
//! tree, congestion scenario, and probe feed), snapshots from all
//! tenants arrive interleaved through the [`fan_in`] multiplexer, and a
//! [`Fleet`] drains its bounded per-tenant queues with a sharded worker
//! pool (thread count follows `LOSSTOMO_THREADS`). Congested-set
//! changes surface as per-tenant [`FleetEvent`]s.
//!
//! Every tenant's estimates are bit-identical to running its
//! `OnlineEstimator` alone — the fleet adds scheduling, not noise.
//!
//! Run with: `cargo run --release --example fleet_monitor`
//!
//! Optional flags: `--tenants N` (default 12), `--nodes N` (default
//! 80), `--snapshots M` (default 30); a value that is not a positive
//! integer exits with code 2 and a usage line.

use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use losstomo_bench::count_from_args;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n_tenants = count_from_args("--tenants", 12);
    let nodes = count_from_args("--nodes", 80);
    let snapshots = count_from_args("--snapshots", 30);

    // 1. One independent network per tenant: its own random tree and
    //    its own drifting congestion scenario.
    let topologies: Vec<ReducedTopology> = (0..n_tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(900 + t as u64);
            let topo = tree::generate(
                TreeParams {
                    nodes,
                    max_branching: 6,
                },
                &mut rng,
            );
            let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
            setup.red
        })
        .collect();

    // 2. Register every tenant with the fleet.
    let mut fleet = Fleet::new(FleetConfig::default());
    let ids: Vec<TenantId> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| fleet.add_tenant(format!("net-{t}"), red, OnlineConfig::default()))
        .collect();
    println!(
        "fleet: {} tenants, {} worker threads, queue capacity {}",
        fleet.tenant_count(),
        fleet.workers(),
        64
    );

    // 3. The measurement side: one snapshot stream per tenant, fanned
    //    in round-robin — the shape a shared collector daemon sees.
    let probe = ProbeConfig {
        probes_per_snapshot: 300,
        ..ProbeConfig::default()
    };
    let streams: Vec<SnapshotStream<StdRng>> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| {
            let mut rng = StdRng::seed_from_u64(7000 + t as u64);
            let scenario = CongestionScenario::draw(
                red.num_links(),
                0.15,
                CongestionDynamics::Markov {
                    stay_congested: 0.85,
                },
                &mut rng,
            );
            simulate_stream(red, scenario, &probe, rng)
        })
        .collect();

    // 4. Batch-ingest the interleaved feed; the bounded queues provide
    //    the flow control and the worker pool does the rest.
    let batch = fan_in(streams)
        .take(n_tenants * snapshots)
        .map(|(t, snap)| (ids[t], snap));
    let report = fleet.ingest_batch(batch);
    assert!(
        report.rejections.is_empty(),
        "fleet ingest: {:?}",
        report.rejections
    );
    let events = report.events;

    // 5. Report the change feed and the fleet's final state.
    let mut alerts = 0usize;
    for event in &events {
        if let FleetEventKind::CongestionChanged {
            appeared, cleared, ..
        } = &event.kind
        {
            alerts += appeared.len();
            if !appeared.is_empty() {
                println!(
                    "[{} t={:>3}] ALERT links {:?} entered the congested set",
                    fleet.name(event.tenant),
                    event.seq,
                    appeared
                );
            }
            if !cleared.is_empty() {
                println!(
                    "[{} t={:>3}] clear links {:?} left the congested set",
                    fleet.name(event.tenant),
                    event.seq,
                    cleared
                );
            }
        }
    }
    println!();
    println!(
        "done: {} events, {} congestion alerts across the fleet",
        events.len(),
        alerts
    );
    for &id in &ids {
        let stats = fleet.stats(id);
        println!(
            "  {:<8} {} snapshots, {} refreshes, congested now: {:?}",
            fleet.name(id),
            stats.ingested,
            stats.refreshes,
            fleet.estimator(id).congested_links()
        );
    }
}
