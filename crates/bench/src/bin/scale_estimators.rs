//! scale_estimators — the estimator zoo's accuracy×speed frontier.
//!
//! Every [`losstomo_core::EstimatorKind`] backend runs on the same
//! simulated measurements and the same evaluation snapshot, per
//! topology class (the Section-6.1 paper tree and the 2450-path Waxman
//! mesh) and per loss workload (bursty Gilbert, i.i.d. Bernoulli, and
//! the heavy-tailed flowlet-arrival traces of
//! [`losstomo_netsim::flowlet`]). For each cell it records detection
//! rate, false-positive rate, per-link loss-rate RMSE, and the
//! backend's wall-clock (the `estimate()` call: everything from
//! covariance consumption to Phase 2), so the report is a genuine
//! frontier: which backend buys how much accuracy at what cost, where.
//! Both backends apply to every topology, so a backend error fails the
//! binary.
//!
//! **Gate (paper scale, Waxman mesh + Gilbert loss):** the Deng-style
//! fast backend must run ≥2× faster than LIA with detection rate
//! within 5 percentage points. The report lands in
//! `BENCH_estimators.json`.
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--runs N`.

use losstomo_bench::{
    bench_meta, pct, percentile_ms, runs_from_args, tree_topology, waxman_topology,
    write_bench_report, BenchMeta, PreparedTopology, Scale,
};
use losstomo_core::budget::PairBudget;
use losstomo_core::{
    build_estimator, location_accuracy, CenteredMeasurements, EstimatorKind, LiaConfig,
    VarianceConfig,
};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, LossProcessKind, MeasurementSet,
    ProbeConfig,
};
use losstomo_topology::ReducedTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One backend × topology × loss-model cell of the frontier.
#[derive(Debug, Serialize, Deserialize)]
struct FrontierCell {
    backend: String,
    topology: String,
    loss_model: String,
    paths: usize,
    links: usize,
    runs: usize,
    /// Median wall-clock of `estimate()` across the runs, milliseconds.
    wall_ms_median: f64,
    /// Mean detection rate across the runs.
    dr: f64,
    /// Mean false-positive rate across the runs.
    fpr: f64,
    /// Mean per-link loss-rate RMSE across the runs.
    rate_rmse: f64,
}

/// The in-binary Deng-vs-LIA gate, recorded for CI's schema check.
#[derive(Debug, Serialize, Deserialize)]
struct GateReport {
    /// Topology × loss cell the gate is evaluated on.
    cell: String,
    lia_ms: f64,
    deng_ms: f64,
    speedup: f64,
    lia_dr: f64,
    deng_dr: f64,
    dr_delta_pts: f64,
    /// Whether the ≥2× / ≤5pt gate was asserted (paper scale only).
    enforced: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    meta: BenchMeta,
    snapshots: usize,
    cells: Vec<FrontierCell>,
    gate: GateReport,
}

/// One run's shared inputs: centred training measurements, evaluation
/// log rates, truth flags, and true loss rates.
struct RunInputs {
    centered: CenteredMeasurements,
    y: Vec<f64>,
    truth_flags: Vec<bool>,
    true_loss: Vec<f64>,
    threshold: f64,
}

fn simulate_inputs(
    red: &ReducedTopology,
    probe: &ProbeConfig,
    snapshots: usize,
    seed: u64,
) -> RunInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let ms = simulate_run(red, &mut scenario, probe, snapshots + 1, &mut rng);
    let train = MeasurementSet {
        snapshots: ms.snapshots[..snapshots].to_vec(),
    };
    let eval = &ms.snapshots[snapshots];
    RunInputs {
        centered: CenteredMeasurements::new(&train),
        y: eval.log_rates(),
        truth_flags: eval.link_truth.iter().map(|t| t.congested).collect(),
        true_loss: eval.link_truth.iter().map(|t| t.true_loss_rate()).collect(),
        threshold: probe.loss_model.threshold(),
    }
}

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(3);
    let snapshots = match scale {
        Scale::Paper => 50,
        Scale::Quick => 30,
    };

    let topologies: Vec<PreparedTopology> =
        vec![tree_topology(scale, 42), waxman_topology(scale, 43)];
    let losses = [
        (LossProcessKind::Gilbert, "gilbert"),
        (LossProcessKind::Bernoulli, "bernoulli"),
        (LossProcessKind::Flowlet, "flowlet"),
    ];

    println!(
        "scale_estimators — estimator frontier at {} scale, m = {snapshots}, {} runs",
        scale.name(),
        runs
    );
    println!();
    let header = format!(
        "{:<8} {:<10} {:<13} {:>9} {:>8} {:>8} {:>10}",
        "topology", "loss", "backend", "wall ms", "DR", "FPR", "rate RMSE"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    let mut cells: Vec<FrontierCell> = Vec::new();
    for prep in &topologies {
        for (process, loss_name) in losses {
            let probe = ProbeConfig {
                process,
                ..ProbeConfig::default()
            };
            // One simulation per run, shared by every backend: the
            // frontier compares estimators, not sampling noise.
            let inputs: Vec<RunInputs> = (0..runs)
                .map(|run| simulate_inputs(&prep.red, &probe, snapshots, 9000 + run as u64))
                .collect();
            for kind in EstimatorKind::all() {
                let mut walls: Vec<Duration> = Vec::with_capacity(runs);
                let (mut drs, mut fprs, mut rmses) = (Vec::new(), Vec::new(), Vec::new());
                for input in &inputs {
                    // A fresh backend per run: the wall covers building
                    // the per-topology state as well as the estimate.
                    let start = Instant::now();
                    let out = build_estimator(
                        kind,
                        &prep.red,
                        LiaConfig::default(),
                        VarianceConfig::default(),
                        PairBudget::Full,
                    )
                    .estimate(&input.centered, &input.y)
                    .unwrap_or_else(|e| {
                        panic!("{} failed on {}/{loss_name}: {e}", kind.name(), prep.name)
                    });
                    walls.push(start.elapsed());
                    let est_loss = out.estimate.loss_rates();
                    let est_flags: Vec<bool> =
                        est_loss.iter().map(|&l| l > input.threshold).collect();
                    let loc = location_accuracy(&input.truth_flags, &est_flags);
                    drs.push(loc.detection_rate);
                    fprs.push(loc.false_positive_rate);
                    let mse = input
                        .true_loss
                        .iter()
                        .zip(&est_loss)
                        .map(|(t, e)| (t - e) * (t - e))
                        .sum::<f64>()
                        / input.true_loss.len() as f64;
                    rmses.push(mse.sqrt());
                }
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                let cell = FrontierCell {
                    backend: kind.name().to_string(),
                    topology: prep.name.to_string(),
                    loss_model: loss_name.to_string(),
                    paths: prep.red.num_paths(),
                    links: prep.red.num_links(),
                    runs,
                    wall_ms_median: percentile_ms(&mut walls, 0.5),
                    dr: mean(&drs),
                    fpr: mean(&fprs),
                    rate_rmse: mean(&rmses),
                };
                println!(
                    "{:<8} {:<10} {:<13} {:>9.2} {:>8} {:>8} {:>10.5}",
                    cell.topology,
                    cell.loss_model,
                    cell.backend,
                    cell.wall_ms_median,
                    pct(cell.dr),
                    pct(cell.fpr),
                    cell.rate_rmse
                );
                cells.push(cell);
            }
        }
    }

    // Deng-vs-LIA gate on the mesh + Gilbert cell.
    let find = |backend: &str| {
        cells
            .iter()
            .find(|c| c.backend == backend && c.topology == "Waxman" && c.loss_model == "gilbert")
            .expect("gate cell present")
    };
    let (lia, deng) = (find("lia"), find("deng-fast"));
    let speedup = lia.wall_ms_median / deng.wall_ms_median.max(1e-9);
    let dr_delta = (deng.dr - lia.dr).abs();
    let enforced = scale == Scale::Paper;
    let gate = GateReport {
        cell: "Waxman/gilbert".to_string(),
        lia_ms: lia.wall_ms_median,
        deng_ms: deng.wall_ms_median,
        speedup,
        lia_dr: lia.dr,
        deng_dr: deng.dr,
        dr_delta_pts: 100.0 * dr_delta,
        enforced,
    };
    println!();
    println!(
        "gate: deng-fast {:.2}ms vs lia {:.2}ms on the Waxman mesh — {:.2}× speedup, DR delta {:.1}pt",
        gate.deng_ms, gate.lia_ms, gate.speedup, gate.dr_delta_pts
    );
    if enforced {
        assert!(
            speedup >= 2.0,
            "GATE FAILED: deng-fast only {speedup:.2}× faster than lia (need ≥2×)"
        );
        assert!(
            dr_delta <= 0.05,
            "GATE FAILED: deng-fast DR {:.3} vs lia {:.3} ({:.1}pt apart, need ≤5pt)",
            deng.dr,
            lia.dr,
            gate.dr_delta_pts
        );
        println!("gate passed: ≥2× speedup with DR within 5pt.");
    } else {
        println!("gate recorded but not enforced at quick scale.");
    }

    let report = Report {
        // This report's payload is at version 3; other reports keep the
        // envelope's default.
        meta: BenchMeta {
            schema_version: 3,
            ..bench_meta("scale_estimators", scale)
        },
        snapshots,
        cells,
        gate,
    };
    write_bench_report("BENCH_estimators.json", &report);
}
