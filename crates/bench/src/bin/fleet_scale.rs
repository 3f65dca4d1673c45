//! fleet_scale — the multi-tenant fleet layer: refresh latency and
//! tenant-throughput scaling.
//!
//! Two measurements, one report (`BENCH_fleet.json`):
//!
//! 1. **Refresh hot path** on the paper-scale tree: a long-lived
//!    `OnlineEstimator` with an unbounded window refreshes once per
//!    measured snapshot, and the measurement repeats with a fresh
//!    estimator over the same rows. Every timed refresh of every repeat
//!    is asserted **bit-identical** to an untimed batch recompute over
//!    the same rows (`estimate_variances` + `infer_link_rates`). Each
//!    repeat's p50 and maximum are recorded, with the pooled p50/p99
//!    and p50 per-phase breakdown (covariance / Phase 1 / Phase 2). At
//!    paper scale the tail gate requires the median over repeats of
//!    each repeat's max/p50 to stay below 3: one refresh the host
//!    stalls moves one repeat's ratio, not the median.
//! 2. **Fleet scaling**: a fleet of independent tree tenants driven
//!    round-robin, drained with 1, 2, 4 and 8 worker threads (set per
//!    run via `FleetConfig::workers`, capped by the tenant count).
//!    Records tenants × snapshots/sec and the speedup over the serial
//!    drain; worker counts beyond the host's cores are measured and
//!    recorded as `oversubscribed`, and the ≥2× parallel-speedup gate
//!    judges only genuinely parallel points.
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--tenants N`,
//! `--snapshots M`.

use losstomo_bench::{
    bench_meta, count_from_args, percentile_ms, tree_topology, write_bench_report, BenchMeta, Scale,
};
use losstomo_core::{
    estimate_variances, infer_link_rates, AugmentedSystem, CenteredMeasurements, LiaConfig,
    OnlineConfig, OnlineEstimator, VarianceConfig,
};
use losstomo_fleet::{Fleet, FleetConfig, TenantId};
use losstomo_netsim::{
    simulate_run, simulate_run_batch, CongestionDynamics, CongestionScenario, MeasurementSet,
    ProbeConfig, Snapshot,
};
use losstomo_topology::gen::tree::{self, TreeParams};
use losstomo_topology::ReducedTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Refresh latency of a long-lived estimator on the paper tree.
#[derive(Debug, Serialize, Deserialize)]
struct RefreshReport {
    topology: String,
    paths: usize,
    links: usize,
    aug_rows: usize,
    warmup_snapshots: usize,
    /// Timed refreshes per repeat.
    measured_refreshes: usize,
    /// Per-refresh latency over every repeat, milliseconds.
    reuse_p50_ms: f64,
    /// p99 over every repeat's refreshes.
    reuse_p99_ms: f64,
    /// Each repeat's refresh latency, a fresh estimator over the same
    /// rows.
    repeats: Vec<RefreshRepeat>,
    /// Median over repeats of each repeat's `max_ms / p50_ms` (gated
    /// below 3 at paper scale).
    tail_ratio_median: f64,
    /// Every refresh agrees bit-for-bit with a batch recompute over
    /// the same rows.
    bitwise_identical: bool,
    /// p50 of the covariance-assembly span of each refresh, ms.
    cov_p50_ms: f64,
    /// p50 of the Phase-1 (variance estimation) span, ms.
    phase1_p50_ms: f64,
    /// p50 of the Phase-2 (column elimination + solve) span, ms.
    phase2_p50_ms: f64,
}

/// One repeat of the refresh measurement.
#[derive(Debug, Serialize, Deserialize)]
struct RefreshRepeat {
    p50_ms: f64,
    max_ms: f64,
}

/// Repeats of the refresh measurement, each with a fresh estimator.
const REFRESH_REPEATS: usize = 5;

/// One worker-count point of the throughput sweep.
#[derive(Debug, Serialize, Deserialize)]
struct ScalingPoint {
    workers: usize,
    wall_ms: f64,
    snapshots_per_sec: f64,
    /// Throughput relative to the 1-worker drain.
    speedup_vs_serial: f64,
    /// More workers than the host has cores — the point measures
    /// scheduling overhead, not parallel speedup, and is exempt from
    /// the scaling gate.
    oversubscribed: bool,
}

/// The fleet throughput sweep.
#[derive(Debug, Serialize, Deserialize)]
struct ScalingReport {
    tenants: usize,
    nodes_per_tenant: usize,
    snapshots_per_tenant: usize,
    /// Cores the host exposes (the thread policy's view) — worker
    /// counts above this are recorded honestly as oversubscribed.
    available_cores: usize,
    points: Vec<ScalingPoint>,
}

#[derive(Debug, Serialize, Deserialize)]
struct FleetBenchReport {
    meta: BenchMeta,
    /// SIMD engine active for every estimator in this run.
    simd_engine: String,
    refresh: RefreshReport,
    scaling: ScalingReport,
}

fn ms(t: Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

/// The spans of one repeat's timed refreshes.
#[derive(Default)]
struct RefreshSamples {
    total: Vec<Duration>,
    cov: Vec<Duration>,
    phase1: Vec<Duration>,
    phase2: Vec<Duration>,
}

/// One repeat: a fresh estimator ingests `snapshots` on a manual
/// cadence (so ingest never auto-refreshes), then each snapshot after
/// the warm-up triggers one explicitly timed `refresh()`, checked
/// against an untimed batch recompute. Returns the spans and whether
/// every refresh matched bitwise.
fn refresh_repeat(
    red: &ReducedTopology,
    snapshots: &[Snapshot],
    warmup: usize,
) -> (RefreshSamples, bool) {
    let mut online = OnlineEstimator::new(
        red,
        OnlineConfig {
            refresh_every: usize::MAX,
            ..OnlineConfig::default()
        },
    );
    for snap in &snapshots[..warmup] {
        online.ingest(snap).expect("warmup");
    }
    // Put the estimator on a warmed steady state before timing.
    online.refresh().expect("warm refresh");
    let mut samples = RefreshSamples::default();
    let mut bitwise_identical = true;
    for (t, snap) in snapshots[warmup..].iter().enumerate() {
        online.ingest(snap).expect("ingest");
        let t0 = Instant::now();
        online.refresh().expect("refresh");
        samples.total.push(t0.elapsed());
        let spans = online
            .last_refresh_timing()
            .expect("successful refresh records its phase spans");
        samples.cov.push(spans.covariance);
        samples.phase1.push(spans.phase1);
        samples.phase2.push(spans.phase2);
        // Untimed batch recompute over every row in the window.
        let window = MeasurementSet {
            snapshots: snapshots[..=warmup + t].to_vec(),
        };
        let batch_v = estimate_variances(
            red,
            online.augmented(),
            &CenteredMeasurements::new(&window),
            &VarianceConfig::default(),
        )
        .expect("batch phase 1");
        let y = snap.log_rates();
        let batch_p2 =
            infer_link_rates(red, &batch_v.v, &y, &LiaConfig::default()).expect("batch phase 2");
        let online_v = online.variances().expect("warm");
        let online_p2 = online.estimate(&y).expect("online phase 2");
        bitwise_identical &= online_v.v == batch_v.v
            && online_v.dropped_rows == batch_v.dropped_rows
            && online_v.used_rows == batch_v.used_rows
            && online_v.fallback == batch_v.fallback
            && online_p2.transmission == batch_p2.transmission
            && online_p2.kept == batch_p2.kept;
    }
    (samples, bitwise_identical)
}

/// Refresh latency: [`REFRESH_REPEATS`] repeats of [`refresh_repeat`]
/// over the same rows.
fn refresh_latency(scale: Scale) -> RefreshReport {
    let prep = tree_topology(scale, 11);
    let red = &prep.red;
    let (warmup, measured) = match scale {
        Scale::Paper => (50, 30),
        Scale::Quick => (12, 6),
    };
    let mut rng = StdRng::seed_from_u64(7);
    let scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let probe = ProbeConfig::default();
    let all = simulate_run_batch(red, &scenario, &probe, warmup + measured, &[1])
        .into_iter()
        .next()
        .expect("one run requested");
    let aug_rows = AugmentedSystem::build(red).num_rows();
    println!(
        "refresh hot path: {} — {} paths, {} links, {} augmented rows, \
         {REFRESH_REPEATS} repeats of {measured} refreshes",
        prep.name,
        red.num_paths(),
        red.num_links(),
        aug_rows
    );
    let header = format!(
        "{:<8} {:>10} {:>10} {:>9}",
        "repeat", "p50", "max", "max/p50"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    let mut pooled = RefreshSamples::default();
    let mut repeats = Vec::new();
    let mut ratios = Vec::new();
    let mut bitwise_identical = true;
    for r in 0..REFRESH_REPEATS {
        let (mut samples, identical) = refresh_repeat(red, &all.snapshots, warmup);
        bitwise_identical &= identical;
        let p50_ms = percentile_ms(&mut samples.total, 0.5);
        let max_ms = percentile_ms(&mut samples.total, 1.0);
        println!(
            "{r:<8} {p50_ms:>8.2}ms {max_ms:>8.2}ms {:>8.2}x",
            max_ms / p50_ms.max(1e-9)
        );
        ratios.push(max_ms / p50_ms.max(1e-9));
        repeats.push(RefreshRepeat { p50_ms, max_ms });
        pooled.total.append(&mut samples.total);
        pooled.cov.append(&mut samples.cov);
        pooled.phase1.append(&mut samples.phase1);
        pooled.phase2.append(&mut samples.phase2);
    }
    ratios.sort_by(f64::total_cmp);
    let tail_ratio_median = ratios[ratios.len() / 2];
    let reuse_p50 = percentile_ms(&mut pooled.total, 0.5);
    let reuse_p99 = percentile_ms(&mut pooled.total, 0.99);
    let cov_p50 = percentile_ms(&mut pooled.cov, 0.5);
    let phase1_p50 = percentile_ms(&mut pooled.phase1, 0.5);
    let phase2_p50 = percentile_ms(&mut pooled.phase2, 0.5);
    println!();
    println!(
        "per-refresh p50 {reuse_p50:.2}ms, p99 {reuse_p99:.2}ms; \
         median over repeats of max/p50 {tail_ratio_median:.2}x"
    );
    println!(
        "refresh breakdown p50: covariance {cov_p50:.2}ms, phase 1 {phase1_p50:.2}ms, \
         phase 2 {phase2_p50:.2}ms"
    );
    assert!(
        bitwise_identical,
        "a refresh drifted from the batch recompute — the exactness contract is broken"
    );
    if scale == Scale::Paper {
        // Tail gate: a refresh that moves the Phase-2 elimination cut
        // used to re-run the full (0, nc) rank bisection, and a
        // singular Phase-1 retry refactorised the fallback Gram from
        // scratch — either spiked the tail to ~4x p50. With the
        // stale-hint gallop and the cached all-rows factor the tail must
        // stay within 3x of the median. A repeat's max is one refresh,
        // which the host alone can stall, so the gate reads the median
        // over repeats.
        assert!(
            tail_ratio_median < 3.0,
            "refresh max/p50 must stay <3x in the median repeat, got {tail_ratio_median:.2}x \
             (repeats {repeats:?})"
        );
    }
    RefreshReport {
        topology: prep.name.to_string(),
        paths: red.num_paths(),
        links: red.num_links(),
        aug_rows,
        warmup_snapshots: warmup,
        measured_refreshes: measured,
        reuse_p50_ms: reuse_p50,
        reuse_p99_ms: reuse_p99,
        repeats,
        tail_ratio_median,
        bitwise_identical,
        cov_p50_ms: cov_p50,
        phase1_p50_ms: phase1_p50,
        phase2_p50_ms: phase2_p50,
    }
}

/// Builds the per-tenant topologies and deterministic snapshot feeds of
/// the scaling study.
fn tenant_fleet(
    n_tenants: usize,
    nodes: usize,
    snapshots: usize,
) -> (Vec<ReducedTopology>, Vec<Vec<Snapshot>>) {
    let topologies: Vec<ReducedTopology> = (0..n_tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(500 + t as u64);
            let topo = tree::generate(
                TreeParams {
                    nodes,
                    max_branching: 6,
                },
                &mut rng,
            );
            let paths =
                losstomo_topology::compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
            losstomo_topology::reduce(&topo.graph, &paths)
        })
        .collect();
    let feeds: Vec<Vec<Snapshot>> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| {
            let mut rng = StdRng::seed_from_u64(9000 + t as u64);
            let mut scenario = CongestionScenario::draw(
                red.num_links(),
                0.1,
                CongestionDynamics::Markov {
                    stay_congested: 0.9,
                },
                &mut rng,
            );
            let probe = ProbeConfig {
                probes_per_snapshot: 200,
                ..ProbeConfig::default()
            };
            simulate_run(red, &mut scenario, &probe, snapshots, &mut rng).snapshots
        })
        .collect();
    (topologies, feeds)
}

/// Drives one fleet (fresh estimators) through the full feed with the
/// given worker count; returns the drain wall-clock.
fn run_fleet_once(
    topologies: &[ReducedTopology],
    feeds: &[Vec<Snapshot>],
    workers: usize,
) -> Duration {
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: feeds[0].len().max(1),
        workers: Some(workers),
    });
    let ids: Vec<TenantId> = topologies
        .iter()
        .enumerate()
        .map(|(t, red)| fleet.add_tenant(format!("net-{t}"), red, OnlineConfig::default()))
        .collect();
    let rounds = feeds[0].len();
    let t0 = Instant::now();
    // Cadence batches: one snapshot per tenant per round, drained per
    // round — the arrival pattern of a shared collector tick.
    for round in 0..rounds {
        for (t, feed) in feeds.iter().enumerate() {
            fleet
                .enqueue(ids[t], feed[round].clone())
                .expect("queue sized to the feed");
        }
        fleet.poll_events();
    }
    let wall = t0.elapsed();
    for &id in &ids {
        assert_eq!(fleet.stats(id).ingested, rounds as u64);
        assert_eq!(fleet.stats(id).errors, 0, "{}", fleet.name(id));
    }
    wall
}

fn scaling_sweep(scale: Scale) -> ScalingReport {
    let (n_tenants, nodes, snapshots) = match scale {
        Scale::Paper => (64, 120, 24),
        Scale::Quick => (8, 50, 8),
    };
    let n_tenants = count_from_args("--tenants", n_tenants);
    let snapshots = count_from_args("--snapshots", snapshots);
    println!("fleet scaling: {n_tenants} tenants × {snapshots} snapshots ({nodes}-node trees)");
    let (topologies, feeds) = tenant_fleet(n_tenants, nodes, snapshots);

    // Fixed worker sweep 1, 2, 4, 8 (capped by the tenant count): the
    // full curve is always measured and recorded, with points beyond
    // the host's cores flagged oversubscribed rather than skipped —
    // a 1-core CI runner still produces the whole curve honestly.
    let available_cores = losstomo_linalg::parallel::num_threads();
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= n_tenants)
        .collect();

    let header = format!(
        "{:>8} {:>12} {:>16} {:>9} {:>8}",
        "workers", "wall", "snapshots/sec", "speedup", "oversub"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    let total_snapshots = (n_tenants * snapshots) as f64;
    let mut points = Vec::new();
    let mut serial_rate = 0.0f64;
    for &workers in &sweep {
        let wall = run_fleet_once(&topologies, &feeds, workers);
        let rate = total_snapshots / wall.as_secs_f64().max(1e-9);
        if workers == 1 {
            serial_rate = rate;
        }
        let speedup = rate / serial_rate.max(1e-9);
        let oversubscribed = workers > available_cores;
        println!(
            "{:>8} {:>10.0}ms {:>16.0} {:>8.2}x {:>8}",
            workers,
            ms(wall),
            rate,
            speedup,
            if oversubscribed { "yes" } else { "no" }
        );
        points.push(ScalingPoint {
            workers,
            wall_ms: ms(wall),
            snapshots_per_sec: rate,
            speedup_vs_serial: speedup,
            oversubscribed,
        });
    }
    if scale == Scale::Paper {
        // The parallel-speedup gate judges only worker counts the host
        // can actually run in parallel; oversubscribed points are
        // recorded but cannot fail (or vacuously pass) the gate.
        let parallel_points: Vec<&ScalingPoint> =
            points.iter().filter(|p| !p.oversubscribed).collect();
        let max_parallel = parallel_points.iter().map(|p| p.workers).max().unwrap_or(1);
        if max_parallel >= 4 {
            let best = parallel_points
                .iter()
                .map(|p| p.speedup_vs_serial)
                .fold(0.0_f64, f64::max);
            assert!(
                best >= 2.0,
                "fleet throughput must scale ≥2x with {max_parallel} workers, got {best:.2}x"
            );
        } else {
            println!(
                "scaling gate skipped: host exposes {available_cores} core(s), \
                 parallel speedup is unmeasurable"
            );
        }
    }
    ScalingReport {
        tenants: n_tenants,
        nodes_per_tenant: nodes,
        snapshots_per_tenant: snapshots,
        available_cores,
        points,
    }
}

fn main() {
    let scale = Scale::from_args();
    println!(
        "fleet_scale — refresh latency + fleet throughput ({} scale)",
        scale.name()
    );
    println!();
    let refresh = refresh_latency(scale);
    println!();
    let scaling = scaling_sweep(scale);
    let report = FleetBenchReport {
        meta: BenchMeta {
            // 3: the refresh block records every repeat.
            schema_version: 3,
            ..bench_meta("fleet_scale", scale)
        },
        simd_engine: losstomo_linalg::simd::active().name().to_string(),
        refresh,
        scaling,
    };
    write_bench_report("BENCH_fleet.json", &report);
}
