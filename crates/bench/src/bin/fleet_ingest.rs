//! fleet_ingest — the service edge under load: zero-copy wire ingest
//! throughput, end-to-end ingest latency, and the wire≡enqueue
//! equivalence gate.
//!
//! Three measurements, one report (`BENCH_ingest.json`):
//!
//! 1. **Throughput** on the paper-scale PlanetLab mesh (the widest row
//!    shape — every site pair is a path): pre-encoded wire batches
//!    pushed through [`Fleet::ingest_wire_batch`], each row enqueued
//!    as a reference-counted window of the receive buffer and read in
//!    place as `&[f64]`. The tenants run a **stripped configuration**:
//!    a 256-row pair budget and manual refresh (`refresh_every =
//!    usize::MAX`), so the number isolates the service edge — parse →
//!    admit → queue → drain → covariance push — with Phase 1/2 off the
//!    hot path. The report's workload block records both settings.
//!    Records snapshots/sec and MB/sec after an untimed warm-up pass.
//! 2. **End-to-end latency** through the full service edge at the
//!    default configuration (every pair, a refresh on every snapshot):
//!    a demux thread parses each round's batch off its input channel
//!    and routes rows to the tenant queues while the main thread polls
//!    events — p50/p99 of batch-send → every row of the round drained.
//! 3. **Bit-identity**: zero-copy wire ingest and direct
//!    [`Fleet::enqueue`] of the same snapshots must land on
//!    bit-identical variances, congested sets, and kept columns, and
//!    the fleet must match a standalone estimator (asserted in-binary,
//!    recorded in the report).
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--tenants N`,
//! `--batches N`.

use bytes::Bytes;
use losstomo_bench::{
    bench_meta, count_from_args, percentile_ms, planetlab_topology, tree_topology,
    write_bench_report, BenchMeta, Scale,
};
use losstomo_core::{OnlineConfig, OnlineEstimator, PairBudget};
use losstomo_fleet::{DemuxConfig, Fleet, FleetConfig, TenantId, WireIngestMode, WireIngestReport};
use losstomo_netsim::wirebridge::{batch_to_wire, CollectedFrame};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig, Snapshot,
};
use losstomo_topology::ReducedTopology;
use losstomo_wire::{WireBatch, WireEncodeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Augmented-pair budget of the throughput leg's tenants, in rows.
const THROUGHPUT_PAIR_BUDGET: usize = 256;

/// The throughput leg's result.
#[derive(Debug, Serialize, Deserialize)]
struct Throughput {
    wall_ms: f64,
    /// Rows (snapshots) ingested per second, parse included.
    snapshots_per_sec: f64,
    /// Wire bytes processed per second.
    mb_per_sec: f64,
    /// Total wire bytes parsed.
    bytes_total: usize,
    rows_total: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct Workload {
    /// Topology the throughput leg runs on (widest rows).
    topology: String,
    tenants: usize,
    paths: usize,
    links: usize,
    /// Augmented-pair budget of the throughput leg's tenants, in rows.
    pair_budget_rows: usize,
    /// Refresh cadence of the throughput leg's tenants: `manual`
    /// (`refresh_every = usize::MAX`), so no refresh runs while it is
    /// timed.
    refresh: String,
    /// Topology the latency and bit-identity legs run on, at the
    /// default configuration (every pair, a refresh per snapshot).
    e2e_topology: String,
    e2e_paths: usize,
    /// Rows per tenant per batch.
    rows_per_frame: usize,
    batches: usize,
    /// Distinct simulated snapshots per tenant (cycled to fill the
    /// batches — edge cost does not depend on row novelty).
    distinct_snapshots: usize,
    /// Encoded size of one wire batch (CRC off).
    wire_batch_bytes: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct LatencyReport {
    /// Rounds measured (one batch of one row per tenant each).
    rounds: usize,
    /// Send → all rows of the round drained (events emitted), p50 ms.
    p50_ms: f64,
    /// Same, p99.
    p99_ms: f64,
    /// Congested-set change events observed across the rounds.
    events_observed: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct BitIdentity {
    /// Zero-copy wire ingest matches direct enqueue bit for bit.
    zero_copy_matches_enqueue: bool,
    /// Snapshots each fleet ingested per tenant.
    snapshots_per_tenant: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct IngestBenchReport {
    meta: BenchMeta,
    simd_engine: String,
    workload: Workload,
    throughput: Throughput,
    latency: LatencyReport,
    bit_identity: BitIdentity,
}

fn ms(t: Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

/// Simulates `n` distinct snapshots per tenant on a shared topology
/// (independent congestion scenarios per tenant).
fn tenant_feeds(
    red: &ReducedTopology,
    tenants: usize,
    n: usize,
    probes: u32,
) -> Vec<Vec<Snapshot>> {
    (0..tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(4200 + t as u64);
            let mut scenario = CongestionScenario::draw(
                red.num_links(),
                0.1,
                CongestionDynamics::Markov {
                    stay_congested: 0.9,
                },
                &mut rng,
            );
            let probe = ProbeConfig {
                probes_per_snapshot: probes,
                ..ProbeConfig::default()
            };
            simulate_run(red, &mut scenario, &probe, n, &mut rng).snapshots
        })
        .collect()
}

/// Encodes `batches` wire batches (CRC off) of `rows` rows per tenant,
/// cycling the distinct feeds, with per-tenant sequence numbers
/// continuing across batches.
fn build_batches(feeds: &[Vec<Snapshot>], batches: usize, rows: usize) -> Vec<Bytes> {
    let tenants = feeds.len();
    let mut next_seq = vec![0u64; tenants];
    (0..batches)
        .map(|b| {
            let frames: Vec<CollectedFrame> = (0..tenants)
                .map(|t| {
                    let feed = &feeds[t];
                    let frame = CollectedFrame {
                        tenant: t as u32,
                        base_seq: next_seq[t],
                        rows: (0..rows)
                            .map(|r| feed[(b * rows + r) % feed.len()].log_rates())
                            .collect(),
                    };
                    next_seq[t] += rows as u64;
                    frame
                })
                .collect();
            batch_to_wire(&frames, WireEncodeOptions { crc: false })
        })
        .collect()
}

/// A fleet with Phase 1/2 off the hot path — the throughput leg
/// measures the edge (parse → admit → queue → drain → covariance
/// push), not the estimator refresh. `refresh_every = usize::MAX` is
/// the manual-refresh sentinel (accumulate only, refresh on the
/// operator's timer) and the pair budget caps the per-row
/// augmented-pair accumulation the same way a high-rate deployment
/// would.
fn edge_fleet(red: &ReducedTopology, tenants: usize) -> (Fleet, Vec<TenantId>) {
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: 256,
        workers: Some(1),
    });
    let cfg = OnlineConfig {
        refresh_every: usize::MAX,
        pair_budget: PairBudget::Rows(THROUGHPUT_PAIR_BUDGET),
        ..OnlineConfig::default()
    };
    let ids = (0..tenants)
        .map(|t| fleet.add_tenant(format!("net-{t}"), red, cfg))
        .collect();
    (fleet, ids)
}

fn assert_clean(report: &WireIngestReport, want_rows: usize) {
    assert_eq!(report.accepted, want_rows, "every row must be accepted");
    assert!(
        report.rejections.is_empty(),
        "unexpected rejections: {:?}",
        report.rejections
    );
}

/// Times parse + ingest + drain over the pre-encoded batches. A
/// scratch fleet absorbs one full untimed warm-up pass first, so the
/// measured pass sees steady-state allocator and page-cache state (the
/// first pass otherwise bills the page faults of growing a fresh
/// multi-hundred-MB heap).
fn throughput(red: &ReducedTopology, wire: &[Bytes], tenants: usize, rows: usize) -> Throughput {
    let rows_per_batch = tenants * rows;
    let ingest = |fleet: &mut Fleet, buf: &Bytes| {
        let batch = WireBatch::parse(buf.clone()).expect("pre-encoded batch parses");
        assert_clean(
            &fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy),
            rows_per_batch,
        );
    };
    let (mut scratch, _) = edge_fleet(red, tenants);
    for buf in wire {
        ingest(&mut scratch, buf);
    }
    drop(scratch);
    let (mut fleet, ids) = edge_fleet(red, tenants);
    let t0 = Instant::now();
    for buf in wire {
        ingest(&mut fleet, buf);
    }
    let wall = t0.elapsed();
    let rows_total = rows_per_batch * wire.len();
    for (t, &id) in ids.iter().enumerate() {
        assert_eq!(
            fleet.stats(id).ingested,
            (rows * wire.len()) as u64,
            "tenant {t} lost rows"
        );
    }
    let bytes_total: usize = wire.iter().map(Bytes::len).sum();
    let secs = wall.as_secs_f64().max(1e-9);
    let point = Throughput {
        wall_ms: ms(wall),
        snapshots_per_sec: rows_total as f64 / secs,
        mb_per_sec: bytes_total as f64 / 1e6 / secs,
        bytes_total,
        rows_total,
    };
    println!(
        "zero-copy wire ingest: {rows_total} snapshots in {:.0} ms — {:.0} snapshots/s, \
         {:.1} MB/s",
        point.wall_ms, point.snapshots_per_sec, point.mb_per_sec
    );
    point
}

/// End-to-end rounds through the demux thread: send one single-row
/// frame per tenant, poll events until every row of the round has been
/// drained, sample the wall clock.
fn latency(red: &ReducedTopology, feeds: &[Vec<Snapshot>], rounds: usize) -> LatencyReport {
    let tenants = feeds.len();
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: 64,
        workers: Some(1),
    });
    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| fleet.add_tenant(format!("net-{t}"), red, OnlineConfig::default()))
        .collect();
    let demux = fleet.spawn_demux(DemuxConfig::default());
    let opts = WireEncodeOptions { crc: false };
    // Pre-encode every round so the timed span is pure service edge.
    let batches: Vec<Bytes> = (0..rounds)
        .map(|round| {
            let frames: Vec<CollectedFrame> = (0..tenants)
                .map(|t| CollectedFrame {
                    tenant: t as u32,
                    base_seq: round as u64,
                    rows: vec![feeds[t][round % feeds[t].len()].log_rates()],
                })
                .collect();
            batch_to_wire(&frames, opts)
        })
        .collect();
    let mut samples = Vec::with_capacity(rounds);
    let mut events = Vec::new();
    let mut events_observed = 0usize;
    for (round, batch) in batches.into_iter().enumerate() {
        let want = ((round + 1) * tenants) as u64;
        let t0 = Instant::now();
        assert!(demux.send(batch), "demux thread must be alive");
        loop {
            events.clear();
            fleet.poll_events_into(&mut events);
            events_observed += events.len();
            let ingested: u64 = ids.iter().map(|&id| fleet.stats(id).ingested).sum();
            if ingested >= want {
                break;
            }
            std::thread::yield_now();
        }
        samples.push(t0.elapsed());
    }
    let (stats, _acks) = demux.finish();
    assert_eq!(stats.rows_accepted, (rounds * tenants) as u64);
    assert_eq!(stats.rows_rejected, 0);
    assert_eq!(stats.malformed_batches, 0);
    let p50 = percentile_ms(&mut samples, 0.5);
    let p99 = percentile_ms(&mut samples, 0.99);
    println!(
        "end-to-end latency over {rounds} rounds × {tenants} tenants: \
         p50 {p50:.3}ms, p99 {p99:.3}ms ({events_observed} congestion events)"
    );
    LatencyReport {
        rounds,
        p50_ms: p50,
        p99_ms: p99,
        events_observed,
    }
}

/// Feeds identical snapshots through direct enqueue and zero-copy
/// wire ingest; gates bit-identity of the resulting estimators, and of
/// the fleet against a standalone estimator.
fn bit_identity(red: &ReducedTopology, feeds: &[Vec<Snapshot>], n: usize) -> BitIdentity {
    let tenants = feeds.len();
    let make = || {
        let mut fleet = Fleet::new(FleetConfig {
            queue_capacity: n.max(1),
            workers: Some(1),
        });
        let ids: Vec<TenantId> = (0..tenants)
            .map(|t| fleet.add_tenant(format!("net-{t}"), red, OnlineConfig::default()))
            .collect();
        (fleet, ids)
    };
    let (mut direct, direct_ids) = make();
    for (t, feed) in feeds.iter().enumerate() {
        for snap in &feed[..n] {
            direct
                .enqueue(direct_ids[t], snap.clone())
                .expect("sized queue");
        }
    }
    direct.poll_events();

    let frames: Vec<CollectedFrame> = (0..tenants)
        .map(|t| CollectedFrame {
            tenant: t as u32,
            base_seq: 0,
            rows: feeds[t][..n].iter().map(Snapshot::log_rates).collect(),
        })
        .collect();
    let wire = batch_to_wire(&frames, WireEncodeOptions { crc: true });
    let batch = WireBatch::parse(wire).expect("identity batch parses");
    let (mut fleet, ids) = make();
    assert_clean(
        &fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy),
        tenants * n,
    );
    let zero_copy_matches_enqueue = ids.iter().zip(&direct_ids).all(|(&id, &did)| {
        let (a, b) = (fleet.estimator(id), direct.estimator(did));
        a.variances().expect("warm").v == b.variances().expect("warm").v
            && a.congested_links() == b.congested_links()
            && a.kept_columns() == b.kept_columns()
    });
    assert!(
        zero_copy_matches_enqueue,
        "zero-copy wire ingest diverged from direct enqueue — the zero-copy contract is broken"
    );
    // Standalone estimator cross-check: the fleet path itself is
    // equivalent to a lone estimator fed the same stream.
    let mut solo = OnlineEstimator::new(red, OnlineConfig::default());
    for snap in &feeds[0][..n] {
        solo.ingest(snap).expect("solo ingest");
    }
    assert_eq!(
        direct.estimator(direct_ids[0]).congested_links(),
        solo.congested_links(),
        "fleet ingest diverged from a standalone estimator"
    );
    println!("bit-identity: zero-copy ≡ direct enqueue ≡ standalone over {n} snapshots/tenant");
    BitIdentity {
        zero_copy_matches_enqueue,
        snapshots_per_tenant: n,
    }
}

fn main() {
    let scale = Scale::from_args();
    println!(
        "fleet_ingest — service-edge throughput + end-to-end latency ({} scale)",
        scale.name()
    );
    let (tenants, distinct, batches, rows_per_frame, latency_rounds, identity_n) = match scale {
        Scale::Paper => (4usize, 12usize, 40usize, 25usize, 40usize, 30usize),
        Scale::Quick => (2, 8, 4, 8, 8, 10),
    };
    let tenants = count_from_args("--tenants", tenants);
    let batches = count_from_args("--batches", batches);
    // Throughput runs on the PlanetLab mesh: every site pair is a
    // path, so rows are the widest the suite produces. Latency and
    // bit-identity run the full estimator (per-snapshot refresh) and
    // use the paper's tree.
    let thr_prep = planetlab_topology(scale, 23);
    let thr_red = &thr_prep.red;
    let e2e_prep = tree_topology(scale, 23);
    let e2e_red = &e2e_prep.red;
    println!(
        "throughput workload: {} — {} paths, {} links, {tenants} tenants, \
         {batches} batches × {rows_per_frame} rows/tenant, \
         {THROUGHPUT_PAIR_BUDGET}-row pair budget, manual refresh",
        thr_prep.name,
        thr_red.num_paths(),
        thr_red.num_links()
    );
    println!(
        "latency/identity workload: {} — {} paths, {} links, default configuration",
        e2e_prep.name,
        e2e_red.num_paths(),
        e2e_red.num_links()
    );
    println!();
    let thr_feeds = tenant_feeds(thr_red, tenants, distinct, 100);
    let wire = build_batches(&thr_feeds, batches, rows_per_frame);
    drop(thr_feeds);
    let throughput = throughput(thr_red, &wire, tenants, rows_per_frame);
    let wire_batch_bytes = wire.first().map_or(0, Bytes::len);
    drop(wire);
    println!();
    let e2e_feeds = tenant_feeds(e2e_red, tenants, identity_n.max(latency_rounds), 200);
    let latency = latency(e2e_red, &e2e_feeds, latency_rounds);
    println!();
    let bit_identity = bit_identity(e2e_red, &e2e_feeds, identity_n);

    let report = IngestBenchReport {
        // This report's payload is at version 3; other reports keep the
        // envelope's default.
        meta: BenchMeta {
            schema_version: 3,
            ..bench_meta("fleet_ingest", scale)
        },
        simd_engine: losstomo_linalg::simd::active().name().to_string(),
        workload: Workload {
            topology: thr_prep.name.to_string(),
            tenants,
            paths: thr_red.num_paths(),
            links: thr_red.num_links(),
            pair_budget_rows: THROUGHPUT_PAIR_BUDGET,
            refresh: "manual".to_string(),
            e2e_topology: e2e_prep.name.to_string(),
            e2e_paths: e2e_red.num_paths(),
            rows_per_frame,
            batches,
            distinct_snapshots: distinct,
            wire_batch_bytes,
        },
        throughput,
        latency,
        bit_identity,
    };
    write_bench_report("BENCH_ingest.json", &report);
}
