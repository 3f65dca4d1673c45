//! scale_pairs — the augmented-pair row budget: Phase-1 runtime and
//! DR/FPR vs budget fraction.
//!
//! Phase 1 scales with the number of augmented pair rows (`O(paths²)`
//! in the worst case); the [`losstomo_core::budget`] selector caps that
//! with an information-weighted subset that keeps every covered link
//! covered and preserves the full system's rank. This binary measures
//! what the cap costs and what it buys, on two shapes:
//!
//! - the Section-6.1 **tree** (497 paths → 89,944 pair rows at paper
//!   scale — the quadratic blow-up shape), and
//! - a **2450-node Waxman mesh** (2,450 paths, ~2,600 virtual links —
//!   the wide-Gram shape where the budget also sparsifies the
//!   normal-equations assembly).
//!
//! For each budget fraction (100%, 50%, 25%, 10%) it records the
//! selected row count, the selection cost, the Phase-1 runtime (the
//! pair-covariance sweep plus `estimate_variances`, median of three
//! repetitions), and DR/FPR averaged over a seed sweep with the budget
//! threaded through `ExperimentConfig::pair_budget`.
//!
//! **Gate (paper scale, Waxman):** the ≤25% budget must run Phase 1
//! ≥3× faster than the full pair set with DR and FPR within one
//! percentage point of full. The report lands in `BENCH_pairs.json`.
//!
//! Flags: `--scale quick|paper`, `--out PATH`, `--runs N`.

use losstomo_bench::{
    bench_meta, pct, run_many_location, runs_from_args, tree_topology, waxman_scale_topology,
    waxman_topology, write_bench_report, BenchMeta, PreparedTopology, Scale,
};
use losstomo_core::budget::{apply_budget, PairBudget};
use losstomo_core::{
    estimate_variances, AugmentedSystem, CenteredMeasurements, ExperimentConfig, VarianceConfig,
};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The swept budget fractions; 1.0 is the full-pair baseline.
const BUDGETS: [f64; 4] = [1.0, 0.5, 0.25, 0.1];

/// One budget point on one topology.
#[derive(Debug, Serialize, Deserialize)]
struct BudgetPoint {
    /// Requested budget as a fraction of the full pair rows.
    budget_fraction: f64,
    /// Rows actually selected (the rank/coverage floor can exceed the
    /// request).
    rows: usize,
    /// Rows forced in by the rank-preservation floor.
    basis_rows: usize,
    /// One-off selection cost, milliseconds.
    select_ms: f64,
    /// Pair-covariance sweep + `estimate_variances`, median of three
    /// repetitions, milliseconds.
    phase1_ms: f64,
    /// `phase1_ms(full) / phase1_ms(this)`.
    speedup_vs_full: f64,
    /// Mean detection rate over the seed sweep.
    dr: f64,
    /// Mean false-positive rate over the seed sweep.
    fpr: f64,
    /// `dr − dr(full)` in percentage points.
    dr_delta_pts: f64,
    /// `fpr − fpr(full)` in percentage points.
    fpr_delta_pts: f64,
}

/// The sweep on one topology.
#[derive(Debug, Serialize, Deserialize)]
struct TopologyReport {
    topology: String,
    paths: usize,
    links: usize,
    aug_rows: usize,
    snapshots: usize,
    runs: usize,
    points: Vec<BudgetPoint>,
}

#[derive(Debug, Serialize, Deserialize)]
struct PairsBenchReport {
    meta: BenchMeta,
    topologies: Vec<TopologyReport>,
    /// The gate point: Waxman at the 25% budget.
    gate: GateReport,
}

/// The paper-scale acceptance gate, recorded even at quick scale
/// (asserted only at paper scale).
#[derive(Debug, Serialize, Deserialize)]
struct GateReport {
    topology: String,
    budget_fraction: f64,
    speedup_vs_full: f64,
    dr_delta_pts: f64,
    fpr_delta_pts: f64,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Phase-1 runtime at one budget: the pair sweep + variance solve on a
/// fixed training window, median of `reps` repetitions.
fn time_phase1(
    red: &losstomo_topology::ReducedTopology,
    aug: &AugmentedSystem,
    centered: &CenteredMeasurements,
    reps: usize,
) -> f64 {
    let cfg = VarianceConfig::default();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let est = estimate_variances(red, aug, centered, &cfg).expect("phase 1 solves");
        samples.push(ms_since(t0));
        assert_eq!(est.v.len(), red.num_links());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn sweep_topology(prep: &PreparedTopology, scale: Scale, runs: usize) -> TopologyReport {
    let red = &prep.red;
    let full = AugmentedSystem::build(red);
    // Paper scale uses a paper-realistic learning window (the paper's
    // §6 studies run hundreds of snapshots); the tiny CI default keeps
    // quick runs fast but leaves the sample covariances so noisy that
    // budget-vs-full accuracy deltas mostly measure sampling error.
    let snapshots = match scale {
        Scale::Paper => 200,
        Scale::Quick => ExperimentConfig::default().snapshots,
    };
    println!(
        "{}: {} paths, {} links, {} augmented pair rows",
        prep.name,
        red.num_paths(),
        red.num_links(),
        full.num_rows()
    );

    // One fixed training window for the timing comparison (the DR/FPR
    // sweep below draws its own per-seed runs).
    let mut rng = StdRng::seed_from_u64(3);
    let mut scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let ms = simulate_run(
        red,
        &mut scenario,
        &ProbeConfig::default(),
        snapshots,
        &mut rng,
    );
    let train = MeasurementSet {
        snapshots: ms.snapshots,
    };
    let centered = CenteredMeasurements::new(&train);

    let header = format!(
        "{:>7} {:>8} {:>7} {:>10} {:>9} {:>8} {:>8}",
        "budget", "rows", "basis", "phase1", "speedup", "DR", "FPR"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    let mut points = Vec::new();
    let mut full_phase1_ms = 0.0_f64;
    let mut full_dr = 0.0_f64;
    let mut full_fpr = 0.0_f64;
    for &frac in &BUDGETS {
        let budget = if frac >= 1.0 {
            PairBudget::Full
        } else {
            PairBudget::Fraction(frac)
        };
        let t0 = Instant::now();
        let (aug, selection) = apply_budget(full.clone(), budget);
        let select_ms = ms_since(t0);
        let basis_rows = selection.as_ref().map_or(0, |s| s.basis_rows);
        let phase1_ms = time_phase1(red, &aug, &centered, 3);

        let cfg = ExperimentConfig {
            pair_budget: budget,
            seed: 40,
            snapshots,
            ..ExperimentConfig::default()
        };
        let loc = run_many_location(red, &cfg, runs);
        if frac >= 1.0 {
            full_phase1_ms = phase1_ms;
            full_dr = loc.detection_rate;
            full_fpr = loc.false_positive_rate;
        }
        let speedup = full_phase1_ms / phase1_ms.max(1e-9);
        println!(
            "{:>6.0}% {:>8} {:>7} {:>8.1}ms {:>8.2}x {:>8} {:>8}",
            frac * 100.0,
            aug.num_rows(),
            basis_rows,
            phase1_ms,
            speedup,
            pct(loc.detection_rate),
            pct(loc.false_positive_rate)
        );
        points.push(BudgetPoint {
            budget_fraction: frac,
            rows: aug.num_rows(),
            basis_rows,
            select_ms,
            phase1_ms,
            speedup_vs_full: speedup,
            dr: loc.detection_rate,
            fpr: loc.false_positive_rate,
            dr_delta_pts: (loc.detection_rate - full_dr) * 100.0,
            fpr_delta_pts: (loc.false_positive_rate - full_fpr) * 100.0,
        });
    }
    let _ = scale;
    TopologyReport {
        topology: prep.name.to_string(),
        paths: red.num_paths(),
        links: red.num_links(),
        aug_rows: full.num_rows(),
        snapshots,
        runs,
        points,
    }
}

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(match scale {
        Scale::Paper => 10,
        Scale::Quick => 3,
    });
    println!(
        "scale_pairs — Phase-1 runtime and DR/FPR vs pair budget ({} scale, {runs} runs)",
        scale.name()
    );
    println!();

    let tree = tree_topology(scale, 11);
    let waxman = match scale {
        // The 2450-node mesh of the scaling study (2,450 paths).
        Scale::Paper => waxman_scale_topology(2450, 50, 11),
        Scale::Quick => waxman_topology(Scale::Quick, 11),
    };
    let tree_report = sweep_topology(&tree, scale, runs);
    println!();
    let waxman_report = sweep_topology(&waxman, scale, runs);

    let gate_point = waxman_report
        .points
        .iter()
        .find(|p| (p.budget_fraction - 0.25).abs() < 1e-12)
        .expect("25% budget is in the sweep");
    let gate = GateReport {
        topology: waxman_report.topology.clone(),
        budget_fraction: gate_point.budget_fraction,
        speedup_vs_full: gate_point.speedup_vs_full,
        dr_delta_pts: gate_point.dr_delta_pts,
        fpr_delta_pts: gate_point.fpr_delta_pts,
    };
    println!();
    println!(
        "gate ({} @ {:.0}% budget): {:.2}x Phase-1 speedup, ΔDR {:+.2}pt, ΔFPR {:+.2}pt",
        gate.topology,
        gate.budget_fraction * 100.0,
        gate.speedup_vs_full,
        gate.dr_delta_pts,
        gate.fpr_delta_pts
    );
    if scale == Scale::Paper {
        assert!(
            gate.speedup_vs_full >= 3.0,
            "≤25% pair budget must run Phase 1 ≥3x faster than full, got {:.2}x",
            gate.speedup_vs_full
        );
        assert!(
            gate.dr_delta_pts.abs() <= 1.0,
            "budgeted DR must stay within 1 point of full, drifted {:+.2}pt",
            gate.dr_delta_pts
        );
        assert!(
            gate.fpr_delta_pts.abs() <= 1.0,
            "budgeted FPR must stay within 1 point of full, drifted {:+.2}pt",
            gate.fpr_delta_pts
        );
    }

    let report = PairsBenchReport {
        meta: bench_meta("scale_pairs", scale),
        topologies: vec![tree_report, waxman_report],
        gate,
    };
    write_bench_report("BENCH_pairs.json", &report);
}
