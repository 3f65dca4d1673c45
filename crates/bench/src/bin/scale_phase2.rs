//! scale_phase2 — the sparse Phase-2 dispatch vs the dense baseline,
//! and the new mesh-size ceiling.
//!
//! Two measurements, one report (`BENCH_sparse.json`):
//!
//! 1. **Dense vs sparse Phase 2** on the paper-scale Waxman mesh
//!    (1000 nodes / 50 hosts → the 2450×2570 reduced system): learn
//!    the variances once, then run the Phase-2 column elimination +
//!    reduced solve through both dispatch paths
//!    ([`Phase2Dispatch::Dense`], the PR-2 pivoted-QR baseline, vs
//!    [`Phase2Dispatch::Sparse`], the Givens sparse QR) and compare
//!    wall-clock and outputs. The congested sets must be identical.
//! 2. **Scale ceiling**: the full inference pipeline (simulate → build
//!    `A` → Phase 1 → Phase 2) on a ≥ 5000-node Waxman mesh with the
//!    auto dispatch, timed against the same pipeline on the old
//!    1000-node mesh with the dense Phase 2 — the new mesh must finish
//!    end-to-end in less time than the old ceiling did.
//!
//! At `--scale quick` (CI) the meshes shrink, the sparse path is
//! exercised by forcing the dispatch, and only the output-equality
//! assertions run — the wall-clock gates are paper-scale claims.
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--nodes N` (override
//! the scale-mesh node count).

use losstomo_bench::{
    bench_meta, count_from_args, waxman_scale_topology, waxman_topology, write_bench_report,
    BenchMeta, PreparedTopology, Scale,
};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::CenteredMeasurements;
use losstomo_core::{
    infer_link_rates, LiaConfig, LinkRateEstimate, Phase2Dispatch, VarianceConfig,
};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Dense-vs-sparse Phase-2 comparison on the baseline mesh.
#[derive(Debug, Serialize, Deserialize)]
struct Phase2Report {
    topology: String,
    paths: usize,
    links: usize,
    snapshots: usize,
    /// One dense Phase-2 run (column elimination + reduced solve), ms.
    dense_ms: f64,
    /// Median of three sparse Phase-2 runs, ms.
    sparse_ms: f64,
    /// `dense_ms / sparse_ms`.
    speedup: f64,
    /// Dense and sparse kept column sets are identical.
    kept_identical: bool,
    /// Dense and sparse congested sets are identical.
    congested_identical: bool,
    /// Max |dense − sparse| over the per-link transmission rates.
    max_abs_rate_diff: f64,
}

/// End-to-end pipeline timing on the scale mesh vs the old ceiling.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleReport {
    nodes: usize,
    paths: usize,
    links: usize,
    aug_rows: usize,
    snapshots: usize,
    /// simulate + build A + Phase 1 + Phase 2 on the scale mesh, ms.
    e2e_ms: f64,
    baseline_nodes: usize,
    baseline_links: usize,
    /// The same pipeline on the old mesh with the dense Phase 2, ms.
    baseline_e2e_ms: f64,
    /// `e2e_ms < baseline_e2e_ms` — the new ceiling claim.
    faster_than_old_ceiling: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct SparseBenchReport {
    meta: BenchMeta,
    phase2: Phase2Report,
    scale: ScaleReport,
}

fn ms(t: Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Probe settings for the scale runs: the loss process is irrelevant to
/// the numerics being timed, so fewer probes keep the simulation stage
/// honest without drowning the factorisation signal.
fn probe_cfg() -> ProbeConfig {
    ProbeConfig {
        probes_per_snapshot: 200,
        ..ProbeConfig::default()
    }
}

/// Simulates `m + 1` snapshots and learns the Phase-1 variances.
/// Returns the variances, the evaluation snapshot's log rates, the
/// augmented row count, and the wall-clock of each stage.
struct PreparedRun {
    variances: Vec<f64>,
    y_eval: Vec<f64>,
    aug_rows: usize,
    upstream: Duration,
}

fn prepare_run(prep: &PreparedTopology, m: usize) -> PreparedRun {
    let red = &prep.red;
    let mut rng = StdRng::seed_from_u64(13);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let cfg = probe_cfg();
    let t0 = Instant::now();
    let ms_all: MeasurementSet = simulate_run(red, &mut scenario, &cfg, m + 1, &mut rng);
    let train = MeasurementSet {
        snapshots: ms_all.snapshots[..m].to_vec(),
    };
    let aug = AugmentedSystem::build(red);
    let centered = CenteredMeasurements::new(&train);
    let est = losstomo_core::estimate_variances(red, &aug, &centered, &VarianceConfig::default())
        .expect("phase 1");
    let upstream = t0.elapsed();
    PreparedRun {
        variances: est.v,
        y_eval: ms_all.snapshots[m].log_rates(),
        aug_rows: aug.num_rows(),
        upstream,
    }
}

/// Runs Phase 2 once with the given dispatch and returns the estimate
/// and its wall-clock.
fn phase2(
    prep: &PreparedTopology,
    run: &PreparedRun,
    dispatch: Phase2Dispatch,
) -> (LinkRateEstimate, Duration) {
    let cfg = LiaConfig {
        dispatch,
        ..LiaConfig::default()
    };
    let t0 = Instant::now();
    let est = infer_link_rates(&prep.red, &run.variances, &run.y_eval, &cfg).expect("phase 2");
    (est, t0.elapsed())
}

fn main() {
    let scale = Scale::from_args();
    // Baseline mesh: the paper-scale Waxman (the PR-2 ceiling).
    let (base_nodes, base_hosts, scale_nodes, scale_hosts, m) = match scale {
        Scale::Paper => (1000, 50, 5000, 50, 20),
        Scale::Quick => (150, 16, 300, 20, 6),
    };
    let scale_nodes = count_from_args("--nodes", scale_nodes);
    println!(
        "scale_phase2 — sparse Phase-2 dispatch vs dense baseline ({} scale)",
        scale.name()
    );
    println!();

    // --- 1. dense vs sparse Phase 2 on the baseline mesh ---------------
    let base = if scale == Scale::Paper {
        // The canonical paper-scale mesh (2450 paths × ~2.5k links,
        // the PR-2 pivoted-QR ceiling); its link count sits just above
        // the dense threshold, so Auto dispatch now takes the sparse
        // path on it too.
        waxman_topology(scale, 1)
    } else {
        waxman_scale_topology(base_nodes, base_hosts, 42)
    };
    println!(
        "baseline mesh: {} nodes — {} paths × {} links",
        base_nodes,
        base.red.num_paths(),
        base.red.num_links()
    );
    let base_run = prepare_run(&base, m);
    println!(
        "  upstream (simulate + A + phase 1): {:.0} ms, {} augmented rows",
        ms(base_run.upstream),
        base_run.aug_rows
    );

    let (dense_est, dense_dt) = phase2(&base, &base_run, Phase2Dispatch::Dense);
    let mut sparse_samples = Vec::new();
    let mut sparse_est = None;
    for _ in 0..3 {
        let (est, dt) = phase2(&base, &base_run, Phase2Dispatch::Sparse);
        sparse_samples.push(dt);
        sparse_est = Some(est);
    }
    let sparse_est = sparse_est.expect("three sparse runs completed");
    let sparse_dt = median(&mut sparse_samples);

    let threshold = probe_cfg().loss_model.threshold();
    let kept_identical = dense_est.kept == sparse_est.kept;
    let congested_identical =
        dense_est.congested_links(threshold) == sparse_est.congested_links(threshold);
    let max_abs_rate_diff = dense_est
        .transmission
        .iter()
        .zip(sparse_est.transmission.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    let speedup = ms(dense_dt) / ms(sparse_dt).max(1e-9);
    println!(
        "  phase 2: dense {:.0} ms, sparse {:.0} ms ({speedup:.1}x), max rate diff {max_abs_rate_diff:.2e}",
        ms(dense_dt),
        ms(sparse_dt)
    );
    assert!(
        congested_identical,
        "dense and sparse Phase 2 disagree on the congested set"
    );
    assert!(
        kept_identical,
        "dense and sparse Phase 2 disagree on the kept column set"
    );
    if scale == Scale::Paper {
        assert!(
            speedup >= 5.0,
            "sparse Phase 2 must be ≥5x the dense baseline, got {speedup:.2}x"
        );
    }

    // --- 2. the scale ceiling ------------------------------------------
    println!();
    println!("scale mesh: {scale_nodes} nodes (generating…)");
    let big = waxman_scale_topology(scale_nodes, scale_hosts, 43);
    println!(
        "  {} paths × {} links",
        big.red.num_paths(),
        big.red.num_links()
    );
    // Old ceiling: the baseline mesh end-to-end with the dense Phase 2.
    let baseline_e2e = base_run.upstream + dense_dt;
    // New pipeline on the scale mesh: auto dispatch (sparse above the
    // threshold at paper scale; forced sparse at quick scale so CI
    // exercises the path).
    let big_dispatch = match scale {
        Scale::Paper => Phase2Dispatch::Auto,
        Scale::Quick => Phase2Dispatch::Sparse,
    };
    let t0 = Instant::now();
    let big_run = prepare_run(&big, m);
    let (_big_est, big_p2_dt) = phase2(&big, &big_run, big_dispatch);
    let big_e2e = t0.elapsed();
    println!(
        "  end-to-end {:.0} ms (phase 2: {:.0} ms) vs old {}-node ceiling {:.0} ms",
        ms(big_e2e),
        ms(big_p2_dt),
        base_nodes,
        ms(baseline_e2e)
    );
    let faster = big_e2e < baseline_e2e;
    if scale == Scale::Paper {
        assert!(
            faster,
            "the {scale_nodes}-node mesh must finish under the old {base_nodes}-node time"
        );
    }

    let report = SparseBenchReport {
        meta: bench_meta("scale_phase2", scale),
        phase2: Phase2Report {
            topology: base.name.to_string(),
            paths: base.red.num_paths(),
            links: base.red.num_links(),
            snapshots: m,
            dense_ms: ms(dense_dt),
            sparse_ms: ms(sparse_dt),
            speedup,
            kept_identical,
            congested_identical,
            max_abs_rate_diff,
        },
        scale: ScaleReport {
            nodes: scale_nodes,
            paths: big.red.num_paths(),
            links: big.red.num_links(),
            aug_rows: big_run.aug_rows,
            snapshots: m,
            e2e_ms: ms(big_e2e),
            baseline_nodes: base_nodes,
            baseline_links: base.red.num_links(),
            baseline_e2e_ms: ms(baseline_e2e),
            faster_than_old_ceiling: faster,
        },
    };
    write_bench_report("BENCH_sparse.json", &report);
}
