//! Fleet ≡ standalone equivalence: a multi-tenant [`Fleet`] must
//! produce, for every tenant, **bit-identical** Phase-1 variances,
//! Phase-2 estimates, congested sets, and congested-set change events
//! to driving that tenant's `OnlineEstimator` alone — at any worker
//! count and any queue capacity.
//!
//! This is the fleet layer's core invariant (see `losstomo-fleet`'s
//! crate docs): the fleet adds scheduling, never arithmetic.

use losstomo::prelude::*;
use losstomo::topology::gen::tree::{self, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded congested-set change: `(seq, appeared, cleared)`.
type Change = (u64, Vec<usize>, Vec<usize>);

const TENANTS: usize = 16;
const ROUNDS: usize = 18;

/// One tenant's independent world: topology + deterministic snapshot
/// feed (regenerable from its seed).
fn tenant_topology(t: usize) -> ReducedTopology {
    let mut rng = StdRng::seed_from_u64(300 + t as u64);
    // Heterogeneous fleet: tenants differ in size and shape.
    let topo = tree::generate(
        TreeParams {
            nodes: 40 + 7 * (t % 5),
            max_branching: 3 + t % 3,
        },
        &mut rng,
    );
    let setup = losstomo::experiment_setup(&topo.graph, &topo.beacons, &topo.destinations);
    setup.red
}

fn tenant_snapshots(red: &ReducedTopology, t: usize) -> Vec<Snapshot> {
    let mut rng = StdRng::seed_from_u64(8800 + t as u64);
    let scenario = CongestionScenario::draw(
        red.num_links(),
        0.25,
        CongestionDynamics::Markov {
            stay_congested: 0.7,
        },
        &mut rng,
    );
    let probe = ProbeConfig {
        probes_per_snapshot: 150,
        ..ProbeConfig::default()
    };
    simulate_stream(red, scenario, &probe, rng)
        .take(ROUNDS)
        .collect::<MeasurementSet>()
        .snapshots
}

/// The standalone reference: per-tenant online runs, recording every
/// update (the exact facts the fleet must reproduce).
struct Reference {
    variances: Vec<Vec<f64>>,
    congested: Vec<Vec<usize>>,
    transmission: Vec<Vec<f64>>,
    /// Per tenant: one [`Change`] per snapshot that changed the
    /// congested set.
    changes: Vec<Vec<Change>>,
}

fn standalone_reference(
    topologies: &[ReducedTopology],
    feeds: &[Vec<Snapshot>],
    online: OnlineConfig,
) -> Reference {
    let mut reference = Reference {
        variances: Vec::new(),
        congested: Vec::new(),
        transmission: Vec::new(),
        changes: Vec::new(),
    };
    for (red, feed) in topologies.iter().zip(feeds.iter()) {
        let mut est = OnlineEstimator::new(red, online);
        let mut changes = Vec::new();
        for (i, snap) in feed.iter().enumerate() {
            let update = est.ingest(snap).expect("standalone ingest");
            if !update.appeared.is_empty() || !update.cleared.is_empty() {
                changes.push((i as u64 + 1, update.appeared, update.cleared));
            }
            if i + 1 == feed.len() {
                reference
                    .transmission
                    .push(update.estimate.expect("warm after full feed").transmission);
            }
        }
        reference
            .variances
            .push(est.variances().expect("warm").v.clone());
        reference.congested.push(est.congested_links().to_vec());
        reference.changes.push(changes);
    }
    reference
}

fn run_fleet(
    topologies: &[ReducedTopology],
    feeds: &[Vec<Snapshot>],
    online: OnlineConfig,
    workers: Option<usize>,
    queue_capacity: usize,
) -> (Fleet, Vec<TenantId>, Vec<FleetEvent>) {
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity,
        workers,
    });
    let ids: Vec<TenantId> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| fleet.add_tenant(format!("net-{t}"), red, online))
        .collect();
    // Interleave all feeds round-robin (the fan-in arrival order a
    // shared collector would see).
    let mut batch = Vec::new();
    for round in 0..ROUNDS {
        for (t, feed) in feeds.iter().enumerate() {
            batch.push((ids[t], feed[round].clone()));
        }
    }
    let report = fleet.ingest_batch(batch);
    assert!(
        report.rejections.is_empty(),
        "fleet ingest: {:?}",
        report.rejections
    );
    let events = report.events;
    (fleet, ids, events)
}

fn assert_fleet_matches_reference(
    topologies: &[ReducedTopology],
    feeds: &[Vec<Snapshot>],
    online: OnlineConfig,
    workers: Option<usize>,
    queue_capacity: usize,
    reference: &Reference,
) {
    let (fleet, ids, events) = run_fleet(topologies, feeds, online, workers, queue_capacity);
    for (t, &id) in ids.iter().enumerate() {
        let est = fleet.estimator(id);
        assert_eq!(
            est.variances().expect("warm tenant").v,
            reference.variances[t],
            "tenant {t}: Phase-1 variances drifted (workers {workers:?})"
        );
        assert_eq!(
            est.congested_links(),
            reference.congested[t],
            "tenant {t}: congested set drifted"
        );
        // Scoring the final snapshot through the fleet's memoized
        // Phase-2 factor must reproduce the standalone estimate.
        let final_est = est
            .estimate(&feeds[t][ROUNDS - 1].log_rates())
            .expect("estimate");
        assert_eq!(
            final_est.transmission, reference.transmission[t],
            "tenant {t}: Phase-2 transmission rates drifted"
        );
        // Event stream = standalone congested-set diffs, in order.
        let tenant_events: Vec<Change> = events
            .iter()
            .filter(|e| e.tenant == id)
            .map(|e| match &e.kind {
                FleetEventKind::CongestionChanged {
                    appeared, cleared, ..
                } => (e.seq, appeared.clone(), cleared.clone()),
                FleetEventKind::EstimatorError { message }
                | FleetEventKind::TenantQuarantined { message } => {
                    panic!("tenant {t}: unexpected estimator error: {message}")
                }
                other
                @ (FleetEventKind::TopologyChurned { .. } | FleetEventKind::TenantRevived) => {
                    panic!("tenant {t}: unexpected admin event: {other:?}")
                }
            })
            .collect();
        assert_eq!(
            tenant_events, reference.changes[t],
            "tenant {t}: event stream drifted"
        );
        let stats = fleet.stats(id);
        assert_eq!(stats.ingested, ROUNDS as u64);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.errors, 0);
    }
}

#[test]
fn sixteen_tenant_fleet_is_bit_identical_to_standalone_at_any_worker_count() {
    let topologies: Vec<ReducedTopology> = (0..TENANTS).map(tenant_topology).collect();
    let feeds: Vec<Vec<Snapshot>> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| tenant_snapshots(red, t))
        .collect();
    let online = OnlineConfig::default();
    let reference = standalone_reference(&topologies, &feeds, online);
    // Serial, few-threads, one-shard-per-tenant, and the
    // LOSSTOMO_THREADS-governed default must all agree bitwise.
    for workers in [Some(1), Some(3), Some(TENANTS), None] {
        assert_fleet_matches_reference(&topologies, &feeds, online, workers, 64, &reference);
    }
    // Tight queues (forcing mid-batch backpressure drains) must not
    // change anything either.
    assert_fleet_matches_reference(&topologies, &feeds, online, Some(4), 2, &reference);
}

#[test]
fn sliding_window_tenants_match_standalone() {
    // A bounded-memory fleet (sliding windows, slow refresh cadence)
    // keeps the same invariant.
    let n = 5;
    let topologies: Vec<ReducedTopology> = (0..n).map(tenant_topology).collect();
    let feeds: Vec<Vec<Snapshot>> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| tenant_snapshots(red, t))
        .collect();
    let online = OnlineConfig {
        window: WindowMode::Sliding(8),
        refresh_every: 3,
        ..OnlineConfig::default()
    };
    let reference = standalone_reference(&topologies, &feeds, online);
    for workers in [Some(1), Some(n)] {
        assert_fleet_matches_reference(&topologies, &feeds, online, workers, 64, &reference);
    }
}
