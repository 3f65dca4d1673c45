//! fleet_ingest — the service edge under load: snapshot wire-format
//! throughput, end-to-end ingest latency, and the wire≡enqueue
//! equivalence gate.
//!
//! Three measurements, one report (`BENCH_ingest.json`):
//!
//! 1. **Codec throughput** on the paper-scale PlanetLab mesh (the
//!    widest row shape — every site pair is a path): identical row
//!    content pushed through the three ingest codecs — binary wire
//!    **zero-copy** (rows enqueued as reference-counted windows of the
//!    receive buffer, read in place as `&[f64]`), binary wire
//!    **copying** (rows decoded to owned `Vec<f64>` at the edge), and
//!    the **JSON** fallback (text decode + owned rows). The tenants
//!    run accumulate-only — the `refresh_every = usize::MAX`
//!    manual-refresh sentinel plus a bounded pair budget — so the
//!    numbers isolate the service edge: parse → validate → queue →
//!    drain → covariance push, with Phase 1/2 off the hot path (the
//!    cadence an operator runs when estimates are refreshed on a
//!    timer, not per snapshot). Records snapshots/sec and MB/sec per
//!    codec, after an untimed warm-up pass per codec.
//! 2. **End-to-end latency** through the full service edge: a demux
//!    thread parses each round's batch off its input channel and
//!    routes rows zero-copy to the tenant queues while the main thread
//!    polls events — p50/p99 of batch-send → all congested-set events
//!    of the round drained.
//! 3. **Bit-identity**: three fleets fed the same snapshots — direct
//!    [`Fleet::enqueue`], wire zero-copy, wire copying — must land on
//!    bit-identical variances, congested sets, and kept columns
//!    (asserted in-binary, recorded in the report).
//!
//! Paper-scale gates: bit-identity holds, zero-copy ≥ 2× the JSON
//! codec and ≥ 1.2× the copying wire codec (snapshots/sec).
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--tenants N`,
//! `--batches N`.

use losstomo_bench::{
    bench_meta, count_from_args, percentile_ms, planetlab_topology, tree_topology,
    write_bench_report, BenchMeta, Scale,
};
use losstomo_core::{OnlineConfig, OnlineEstimator, PairBudget};
use losstomo_fleet::{DemuxConfig, Fleet, FleetConfig, TenantId, WireIngestMode, WireIngestReport};
use losstomo_netsim::wirebridge::batch_to_wire;
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig, Snapshot,
};
use losstomo_topology::ReducedTopology;
use losstomo_wire::{JsonBatch, JsonFrame, WireBatch, WireEncodeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One codec's throughput point.
#[derive(Debug, Serialize, Deserialize)]
struct CodecPoint {
    /// `wire-zero-copy`, `wire-copying` or `json`.
    codec: String,
    wall_ms: f64,
    /// Rows (snapshots) ingested per second, decode included.
    snapshots_per_sec: f64,
    /// Encoded payload bytes processed per second (wire bytes for the
    /// binary codecs, UTF-8 bytes for JSON).
    mb_per_sec: f64,
    /// Total encoded bytes this codec decoded.
    bytes_total: usize,
    rows_total: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct Workload {
    /// Topology the codec-throughput section runs on (widest rows).
    topology: String,
    tenants: usize,
    paths: usize,
    links: usize,
    /// Topology the latency and bit-identity sections run on.
    e2e_topology: String,
    e2e_paths: usize,
    /// Rows per tenant per batch.
    rows_per_frame: usize,
    batches: usize,
    /// Distinct simulated snapshots per tenant (cycled to fill the
    /// batches — codec cost does not depend on row novelty).
    distinct_snapshots: usize,
    /// Encoded size of one wire batch (CRC off).
    wire_batch_bytes: usize,
    /// Encoded size of one JSON batch.
    json_batch_bytes: usize,
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
    /// Copying wire ingest matches direct enqueue bit for bit.
    copying_matches_enqueue: bool,
    /// Snapshots the three fleets ingested per tenant.
    snapshots_per_tenant: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct IngestBenchReport {
    meta: BenchMeta,
    simd_engine: String,
    workload: Workload,
    /// Throughput per codec, zero-copy first.
    codecs: Vec<CodecPoint>,
    /// Zero-copy snapshots/sec over JSON snapshots/sec.
    speedup_vs_json: f64,
    /// Zero-copy snapshots/sec over copying-wire snapshots/sec.
    speedup_vs_copying: f64,
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

/// Builds `batches` codec-agnostic batches of `rows` rows per tenant,
/// cycling the distinct feeds, with per-tenant sequence numbers
/// continuing across batches.
fn build_batches(feeds: &[Vec<Snapshot>], batches: usize, rows: usize) -> Vec<JsonBatch> {
    let tenants = feeds.len();
    let mut next_seq = vec![0u64; tenants];
    (0..batches)
        .map(|b| {
            let frames = (0..tenants)
                .map(|t| {
                    let feed = &feeds[t];
                    let frame = JsonFrame {
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
            JsonBatch { frames }
        })
        .collect()
}

/// A fleet with Phase 1/2 off the hot path — the throughput harness
/// measures the edge (parse → validate → queue → drain → covariance
/// push), not the estimator refresh. `refresh_every = usize::MAX` is
/// the manual-refresh sentinel (accumulate only, refresh on the
/// operator's timer) and the bounded pair budget caps the per-row
/// augmented-pair accumulation the same way a high-rate deployment
/// would.
fn edge_fleet(red: &ReducedTopology, tenants: usize) -> (Fleet, Vec<TenantId>) {
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: 256,
        workers: Some(1),
    });
    let cfg = OnlineConfig {
        refresh_every: usize::MAX,
        pair_budget: PairBudget::Rows(256),
        ..OnlineConfig::default()
    };
    let ids = (0..tenants)
        .map(|t| fleet.add_tenant(format!("net-{t}"), red, cfg))
        .collect();
    (fleet, ids)
}

fn assert_clean(report: &WireIngestReport, want_rows: usize, codec: &str) {
    assert_eq!(
        report.accepted, want_rows,
        "{codec}: every row must be accepted"
    );
    assert!(
        report.rejections.is_empty(),
        "{codec}: unexpected rejections: {:?}",
        report.rejections
    );
}

/// Times one codec over the pre-encoded batches: decode + ingest +
/// drain per batch. A scratch fleet absorbs one full untimed warm-up
/// pass first, so the measured pass sees steady-state allocator and
/// page-cache state (the first pass otherwise bills the page faults
/// of growing a fresh multi-hundred-MB heap to whichever codec runs
/// first).
fn run_codec(
    red: &ReducedTopology,
    tenants: usize,
    rows_per_batch: usize,
    codec: &str,
    bytes_total: usize,
    mut step: impl FnMut(&mut Fleet, usize) -> WireIngestReport,
    batches: usize,
) -> CodecPoint {
    let (mut scratch, _) = edge_fleet(red, tenants);
    for b in 0..batches {
        assert_clean(&step(&mut scratch, b), rows_per_batch, codec);
    }
    drop(scratch);
    let (mut fleet, ids) = edge_fleet(red, tenants);
    let t0 = Instant::now();
    for b in 0..batches {
        let report = step(&mut fleet, b);
        assert_clean(&report, rows_per_batch, codec);
    }
    let wall = t0.elapsed();
    let rows_total = rows_per_batch * batches;
    for (t, &id) in ids.iter().enumerate() {
        assert_eq!(
            fleet.stats(id).ingested,
            (rows_total / tenants) as u64,
            "{codec}: tenant {t} lost rows"
        );
    }
    let secs = wall.as_secs_f64().max(1e-9);
    CodecPoint {
        codec: codec.to_string(),
        wall_ms: ms(wall),
        snapshots_per_sec: rows_total as f64 / secs,
        mb_per_sec: bytes_total as f64 / 1e6 / secs,
        bytes_total,
        rows_total,
    }
}

fn throughput(
    red: &ReducedTopology,
    batches_src: &[JsonBatch],
    tenants: usize,
) -> (Vec<CodecPoint>, usize, usize) {
    let opts = WireEncodeOptions { crc: false };
    let wire: Vec<bytes::Bytes> = batches_src.iter().map(|b| batch_to_wire(b, opts)).collect();
    let json: Vec<String> = batches_src
        .iter()
        .map(|b| b.encode().expect("batch encodes"))
        .collect();
    let rows_per_batch: usize = batches_src[0].frames.iter().map(|f| f.rows.len()).sum();
    let wire_bytes: usize = wire.iter().map(bytes::Bytes::len).sum();
    let json_bytes: usize = json.iter().map(String::len).sum();
    let batches = batches_src.len();

    let header = format!(
        "{:<16} {:>10} {:>16} {:>10}",
        "codec", "wall", "snapshots/sec", "MB/sec"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    let mut points = Vec::new();
    for (codec, mode) in [
        ("wire-zero-copy", WireIngestMode::ZeroCopy),
        ("wire-copying", WireIngestMode::Copying),
    ] {
        let point = run_codec(
            red,
            tenants,
            rows_per_batch,
            codec,
            wire_bytes,
            |fleet, b| {
                let batch = WireBatch::parse(wire[b].clone()).expect("pre-encoded batch parses");
                fleet.ingest_wire_batch(&batch, mode)
            },
            batches,
        );
        println!(
            "{:<16} {:>8.0}ms {:>16.0} {:>10.1}",
            point.codec, point.wall_ms, point.snapshots_per_sec, point.mb_per_sec
        );
        points.push(point);
    }
    let point = run_codec(
        red,
        tenants,
        rows_per_batch,
        "json",
        json_bytes,
        |fleet, b| {
            let batch = JsonBatch::decode(&json[b]).expect("pre-encoded batch decodes");
            fleet.ingest_json_batch(&batch)
        },
        batches,
    );
    println!(
        "{:<16} {:>8.0}ms {:>16.0} {:>10.1}",
        point.codec, point.wall_ms, point.snapshots_per_sec, point.mb_per_sec
    );
    points.push(point);
    (
        points,
        wire.first().map_or(0, bytes::Bytes::len),
        json.first().map_or(0, String::len),
    )
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
    let batches: Vec<bytes::Bytes> = (0..rounds)
        .map(|round| {
            let frames = (0..tenants)
                .map(|t| JsonFrame {
                    tenant: t as u32,
                    base_seq: round as u64,
                    rows: vec![feeds[t][round % feeds[t].len()].log_rates()],
                })
                .collect();
            batch_to_wire(&JsonBatch { frames }, opts)
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

/// Feeds identical snapshots through direct enqueue, zero-copy wire
/// and copying wire; gates bit-identity of the resulting estimators.
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

    let frames = (0..tenants)
        .map(|t| JsonFrame {
            tenant: t as u32,
            base_seq: 0,
            rows: feeds[t][..n].iter().map(Snapshot::log_rates).collect(),
        })
        .collect();
    let wire = batch_to_wire(&JsonBatch { frames }, WireEncodeOptions { crc: true });
    let mut matches = [false; 2];
    for (i, mode) in [WireIngestMode::ZeroCopy, WireIngestMode::Copying]
        .into_iter()
        .enumerate()
    {
        let batch = WireBatch::parse(wire.clone()).expect("identity batch parses");
        let (mut fleet, ids) = make();
        let report = fleet.ingest_wire_batch(&batch, mode);
        assert_clean(&report, tenants * n, "bit-identity");
        matches[i] = ids.iter().zip(&direct_ids).all(|(&id, &did)| {
            let (a, b) = (fleet.estimator(id), direct.estimator(did));
            a.variances().expect("warm").v == b.variances().expect("warm").v
                && a.congested_links() == b.congested_links()
                && a.kept_columns() == b.kept_columns()
        });
        assert!(
            matches[i],
            "{mode:?} wire ingest diverged from direct enqueue — the zero-copy \
             contract is broken"
        );
    }
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
    println!("bit-identity: zero-copy ≡ copying ≡ direct enqueue over {n} snapshots/tenant");
    BitIdentity {
        zero_copy_matches_enqueue: matches[0],
        copying_matches_enqueue: matches[1],
        snapshots_per_tenant: n,
    }
}

fn main() {
    let scale = Scale::from_args();
    println!(
        "fleet_ingest — service-edge codec throughput + end-to-end latency ({} scale)",
        scale.name()
    );
    let (tenants, distinct, batches, rows_per_frame, latency_rounds, identity_n) = match scale {
        Scale::Paper => (4usize, 12usize, 40usize, 25usize, 40usize, 30usize),
        Scale::Quick => (2, 8, 4, 8, 8, 10),
    };
    let tenants = count_from_args("--tenants", tenants);
    let batches = count_from_args("--batches", batches);
    // Throughput runs on the PlanetLab mesh: every site pair is a
    // path, so rows are the widest the suite produces and the copy
    // cost the codecs differ by is front and centre. Latency and
    // bit-identity run the full estimator (per-snapshot refresh) and
    // use the paper's tree.
    let thr_prep = planetlab_topology(scale, 23);
    let thr_red = &thr_prep.red;
    let e2e_prep = tree_topology(scale, 23);
    let e2e_red = &e2e_prep.red;
    println!(
        "throughput workload: {} — {} paths, {} links, {tenants} tenants, \
         {batches} batches × {rows_per_frame} rows/tenant",
        thr_prep.name,
        thr_red.num_paths(),
        thr_red.num_links()
    );
    println!(
        "latency/identity workload: {} — {} paths, {} links",
        e2e_prep.name,
        e2e_red.num_paths(),
        e2e_red.num_links()
    );
    println!();
    let thr_feeds = tenant_feeds(thr_red, tenants, distinct, 100);
    let batches_src = build_batches(&thr_feeds, batches, rows_per_frame);
    let (codecs, wire_batch_bytes, json_batch_bytes) = throughput(thr_red, &batches_src, tenants);
    drop(batches_src);
    drop(thr_feeds);
    println!();
    let e2e_feeds = tenant_feeds(e2e_red, tenants, identity_n.max(latency_rounds), 200);
    let latency = latency(e2e_red, &e2e_feeds, latency_rounds);
    println!();
    let bit_identity = bit_identity(e2e_red, &e2e_feeds, identity_n);

    let zc = codecs[0].snapshots_per_sec;
    let copying = codecs[1].snapshots_per_sec;
    let json = codecs[2].snapshots_per_sec;
    let speedup_vs_json = zc / json.max(1e-9);
    let speedup_vs_copying = zc / copying.max(1e-9);
    println!();
    println!("zero-copy vs json: {speedup_vs_json:.2}x, vs copying wire: {speedup_vs_copying:.2}x");
    if scale == Scale::Paper {
        assert!(
            speedup_vs_json >= 2.0,
            "zero-copy wire ingest must be ≥2x the JSON codec, got {speedup_vs_json:.2}x"
        );
        assert!(
            speedup_vs_copying >= 1.2,
            "zero-copy must beat the copying wire codec ≥1.2x, got {speedup_vs_copying:.2}x"
        );
    }
    let report = IngestBenchReport {
        meta: bench_meta("fleet_ingest", scale),
        simd_engine: losstomo_linalg::simd::active().name().to_string(),
        workload: Workload {
            topology: thr_prep.name.to_string(),
            tenants,
            paths: thr_red.num_paths(),
            links: thr_red.num_links(),
            e2e_topology: e2e_prep.name.to_string(),
            e2e_paths: e2e_red.num_paths(),
            rows_per_frame,
            batches,
            distinct_snapshots: distinct,
            wire_batch_bytes,
            json_batch_bytes,
        },
        codecs,
        speedup_vs_json,
        speedup_vs_copying,
        latency,
        bit_identity,
    };
    write_bench_report("BENCH_ingest.json", &report);
}
