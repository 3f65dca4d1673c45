//! scale_churn — live topology churn: delta-apply latency vs
//! rebuild-from-scratch.
//!
//! When routing changes under a running monitor there are two ways to
//! keep estimating: tear the estimator down and rebuild it on the new
//! topology (rebuild the augmented pair system, re-ingest a window,
//! re-solve Phase 1 and Phase 2), or apply the delta to the live
//! estimator with [`losstomo_core::OnlineEstimator::apply_delta`] —
//! the augmented pair system rebuilt, the covariance window carried
//! across with per-path validity horizons instead of re-ingested, then
//! one refresh.
//!
//! Both arms run the default [`OnlineConfig`] policy over a sliding
//! window. The robustness contract is checked on the arms' own
//! estimators: once the sliding window flushes its pre-churn history,
//! the churned estimator is **bit-identical** to the fresh one built on
//! the new topology and fed the same snapshots.
//!
//! The delta is rank-preserving by construction — `k` reroutes as
//! route swaps plus an add/remove pair on one route — so the gate
//! measures the churn machinery, not a topology that happened to lose
//! Theorem-1 identifiability.
//!
//! **Gate (paper scale, 2450-node Waxman mesh):** the live delta
//! apply must be faster than rebuild-from-scratch, with no post-churn
//! refresh failure and bitwise post-flush agreement. The report lands
//! in `BENCH_churn.json`.
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--reps N`.

use losstomo_bench::{
    bench_meta, count_from_args, waxman_scale_topology, waxman_topology, write_bench_report,
    BenchMeta, PreparedTopology, Scale,
};
use losstomo_core::{OnlineConfig, OnlineEstimator, PairBudget, WindowMode};
use losstomo_netsim::{simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig};
use losstomo_topology::{PathId, ReducedTopology, TopologyDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Instant;

/// Sliding-window length: the history the churned estimator carries
/// and the flush horizon of the bit-identity check.
const WINDOW: usize = 32;

#[derive(Debug, Serialize, Deserialize)]
struct ChurnBenchReport {
    meta: BenchMeta,
    topology: String,
    paths: usize,
    links: usize,
    /// Augmented pair rows before the delta (full budget).
    aug_rows: usize,
    window: usize,
    reps: usize,
    /// Delta composition.
    rerouted: usize,
    added: usize,
    removed: usize,
    /// Median live delta-apply latency (includes the post-churn
    /// refresh attempt), milliseconds.
    churn_apply_ms: f64,
    /// Median rebuild-from-scratch latency (construct on the new
    /// topology + re-ingest a full window + refresh), milliseconds.
    rebuild_ms: f64,
    /// `rebuild_ms / churn_apply_ms`.
    speedup: f64,
    /// Pair rows of two unchanged paths: their history carries.
    carried_pairs: usize,
    /// Pair rows restarted because an endpoint path changed.
    recomputed_pairs: usize,
    /// Whether any timing rep reported a post-churn refresh error (the
    /// refresh failed while a model was live) — must be `false` for a
    /// healthy gate.
    fallback: bool,
    /// The robustness contract: post-flush estimates bitwise equal to
    /// a fresh estimator on the new topology.
    bit_identical_after_flush: bool,
    samples: ChurnSamples,
}

#[derive(Debug, Serialize, Deserialize)]
struct ChurnSamples {
    churn_ms: Vec<f64>,
    rebuild_ms: Vec<f64>,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// Simulates `n` snapshots on `red` and returns their log-rate rows.
fn log_rate_rows(red: &ReducedTopology, seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let probe = ProbeConfig {
        probes_per_snapshot: 200,
        ..ProbeConfig::default()
    };
    let ms = simulate_run(red, &mut scenario, &probe, n, &mut rng);
    ms.snapshots.iter().map(|s| s.log_rates()).collect()
}

/// A warm estimator: full window ingested, model refreshed once.
fn warm(red: &ReducedTopology, cfg: OnlineConfig, rows: &[Vec<f64>]) -> OnlineEstimator {
    let mut est = OnlineEstimator::new(red, cfg);
    for row in rows {
        est.ingest_log_rates(row).expect("warm-up snapshot ingests");
    }
    est.refresh().expect("warm-up refresh solves");
    est
}

/// A mixed delta exercising every edit kind: `k` paths rerouted as
/// `k/2` route *swaps* (pairs of paths exchange routes, as when a load
/// balancer flips), plus one path added on an existing route and the
/// path that owned that route removed. Swaps and the add/remove pair
/// both preserve the multiset of routing rows, so the rank of the
/// augmented system — Theorem-1 identifiability — survives the churn
/// by construction (an arbitrary random reroute routinely destroys
/// it, which would gate on the topology rather than the machinery
/// under test).
fn churn_delta(red: &ReducedTopology, k: usize, seed: u64) -> TopologyDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let np = red.num_paths();
    let mut victims = BTreeSet::new();
    // 2 ⌈k/2⌉ + 1 distinct paths: k rerouted, one duplicated-and-removed.
    while victims.len() < (k / 2).max(1) * 2 + 1 {
        victims.insert(rng.gen_range(0..np));
    }
    let victims: Vec<usize> = victims.into_iter().collect();
    let mut delta = TopologyDelta::new();
    for pair in victims[1..].chunks_exact(2) {
        let (p, q) = (pair[0], pair[1]);
        delta = delta
            .reroute_path(PathId(p as u32), red.matrix.row(q).to_vec())
            .reroute_path(PathId(q as u32), red.matrix.row(p).to_vec());
    }
    let d = victims[0];
    delta
        .add_path(red.matrix.row(d).to_vec())
        .remove_path(PathId(d as u32))
}

fn main() {
    let scale = Scale::from_args();
    let reps = count_from_args("--reps", 3);
    println!(
        "scale_churn — delta-apply vs rebuild-from-scratch ({} scale, {reps} reps)",
        scale.name()
    );
    println!();

    let prep: PreparedTopology = match scale {
        // The 2450-node mesh of the scaling study.
        Scale::Paper => waxman_scale_topology(2450, 50, 11),
        Scale::Quick => waxman_topology(Scale::Quick, 11),
    };
    let red = &prep.red;
    let cfg = OnlineConfig {
        window: WindowMode::Sliding(WINDOW),
        // Refresh manually: warm-up ingests should not each pay a
        // Phase-1 solve, and both timed paths end with exactly one.
        refresh_every: 1_000_000,
        pair_budget: PairBudget::Full,
        ..OnlineConfig::default()
    };

    let np = red.num_paths();
    let k = (np / 100).max(4);
    let delta = churn_delta(red, k, 17);
    let mut red2 = red.clone();
    let effect = red2.apply_delta(&delta).expect("bench delta is valid");

    let warm_rows = log_rate_rows(red, 5, WINDOW);
    let post_rows = log_rate_rows(&red2, 6, WINDOW);
    println!(
        "{}: {} paths, {} links; delta reroutes {}, adds {}, removes {}",
        prep.name,
        np,
        red.num_links(),
        effect.changed.len() - effect.added.len(),
        effect.added.len(),
        effect.removed.len()
    );

    // --- Live delta apply, one warm estimator per rep. ---
    let mut churn_ms = Vec::with_capacity(reps);
    let mut fallback = false;
    let mut aug_rows = 0;
    let mut last_report = None;
    let mut churned = None;
    for _ in 0..reps {
        let mut est = warm(red, cfg, &warm_rows);
        aug_rows = est.augmented().num_rows();
        let t0 = Instant::now();
        let report = est
            .apply_delta(&delta)
            .expect("estimator accepts the delta");
        churn_ms.push(ms_since(t0));
        assert!(
            est.topology().matrix == red2.matrix,
            "churned estimator tracks the new routing exactly"
        );
        fallback |= report.refresh_error.is_some();
        last_report = Some(report);
        churned = Some(est);
    }
    let report = last_report.expect("at least one rep");

    // --- Rebuild from scratch on the new topology. ---
    let mut rebuild_ms = Vec::with_capacity(reps);
    let mut fresh = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let est = warm(&red2, cfg, &post_rows);
        rebuild_ms.push(ms_since(t0));
        fresh = Some(est);
    }

    // --- The robustness contract: once the churned window flushes,
    // its estimates are bitwise equal to the fresh estimator's. ---
    let mut churned = churned.expect("at least one rep");
    let fresh = fresh.expect("at least one rep");
    for row in &post_rows {
        churned
            .ingest_log_rates(row)
            .expect("post-churn snapshot ingests");
    }
    assert!(
        churned.staleness().is_flushed(),
        "window flushed after {WINDOW} snapshots"
    );
    churned.refresh().expect("post-flush refresh solves");
    let y = post_rows.last().expect("window is non-empty");
    let bit_identical = churned.variances().map(|e| &e.v) == fresh.variances().map(|e| &e.v)
        && churned.kept_columns() == fresh.kept_columns()
        && churned
            .estimate(y)
            .expect("churned Phase 2 solves")
            .transmission
            == fresh
                .estimate(y)
                .expect("fresh Phase 2 solves")
                .transmission;

    let churn_med = median(&churn_ms);
    let rebuild_med = median(&rebuild_ms);
    let speedup = rebuild_med / churn_med.max(1e-9);
    println!();
    println!(
        "delta apply  {:>10.1}ms   (carried {} pairs, recomputed {}{})",
        churn_med,
        report.carried_pairs,
        report.recomputed_pairs,
        if fallback {
            ", post-churn refresh FAILED"
        } else {
            ""
        }
    );
    println!("rebuild      {rebuild_med:>10.1}ms");
    println!("speedup      {speedup:>10.2}x");
    println!(
        "post-flush bit-identical to fresh estimator: {}",
        if bit_identical { "yes" } else { "NO" }
    );
    assert!(
        bit_identical,
        "post-flush estimates must be bitwise equal to a fresh estimator"
    );
    if scale == Scale::Paper {
        assert!(
            !fallback,
            "the post-churn refresh must not fail at paper scale"
        );
        assert!(
            speedup > 1.0,
            "delta apply must beat rebuild-from-scratch at paper scale, got {speedup:.2}x"
        );
    }

    let out = ChurnBenchReport {
        // This report's payload is at version 3; other reports keep the
        // envelope's default.
        meta: BenchMeta {
            schema_version: 3,
            ..bench_meta("scale_churn", scale)
        },
        topology: prep.name.to_string(),
        paths: np,
        links: red.num_links(),
        aug_rows,
        window: WINDOW,
        reps,
        rerouted: effect.changed.len() - effect.added.len(),
        added: effect.added.len(),
        removed: effect.removed.len(),
        churn_apply_ms: churn_med,
        rebuild_ms: rebuild_med,
        speedup,
        carried_pairs: report.carried_pairs,
        recomputed_pairs: report.recomputed_pairs,
        fallback,
        bit_identical_after_flush: bit_identical,
        samples: ChurnSamples {
            churn_ms,
            rebuild_ms,
        },
    };
    write_bench_report("BENCH_churn.json", &out);
}
