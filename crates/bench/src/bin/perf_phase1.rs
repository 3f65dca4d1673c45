//! perf_phase1 — wall-clock timings of the numeric hot path.
//!
//! Times every stage of the two-phase pipeline (snapshot simulation,
//! building `A` and its covariance plan, the planned covariance sweep,
//! the Phase-1 solve, Phase 2) on the paper's tree topology and the
//! PlanetLab-like mesh, as the LIA core runs them. The tree's pair set
//! plans as 4×8 tiles and PlanetLab's keeps the pair kernel; the report
//! also times the pair kernel on both, and asserts that the planned
//! sweep and the serial and multi-threaded pair sweeps agree bit for
//! bit.
//!
//! Writes a machine-readable report to `BENCH_phase1.json` at the repo
//! root (override with `--out PATH`). CI runs this at `--scale quick`
//! and schema-checks the JSON; the perf trajectory across PRs is read
//! from the `--scale paper` numbers recorded in README.md.
//!
//! Flags: `--scale quick|paper`, `--out PATH`.

use losstomo_bench::{
    bench_meta, planetlab_topology, tree_topology, write_bench_report, BenchMeta, PreparedTopology,
    Scale,
};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::{CenteredMeasurements, PairPlan};
use losstomo_core::{estimate_variances_from_sigmas, infer_link_rates, LiaConfig, VarianceConfig};
use losstomo_netsim::{
    simulate_run_batch, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-stage wall-clock timings, milliseconds.
#[derive(Debug, Serialize, Deserialize)]
struct StagesMs {
    simulate: f64,
    /// `A` and the plan of its pair set.
    build_a: f64,
    /// The planned sweep.
    covariance: f64,
    /// The pair kernel over the same pairs, on every core.
    covariance_pairs: f64,
    phase1_solve: f64,
    covariance_phase1: f64,
    phase2: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TopologyReport {
    name: String,
    paths: usize,
    links: usize,
    aug_rows: usize,
    snapshots: usize,
    /// The kernel the plan picked (`Tiles` or `Pairs`).
    covariance_plan: String,
    stages_ms: StagesMs,
    /// The planned sweep and the serial and multi-threaded pair sweeps
    /// agree bit-for-bit.
    serial_parallel_identical: bool,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    meta: BenchMeta,
    topologies: Vec<TopologyReport>,
}

fn ms(t: std::time::Duration) -> f64 {
    t.as_secs_f64() * 1e3
}

/// Median of a small sample of durations.
fn median(samples: &mut [std::time::Duration]) -> std::time::Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_topology(prep: &PreparedTopology, snapshots: usize) -> TopologyReport {
    let red = &prep.red;
    let mut rng = StdRng::seed_from_u64(7);
    let scenario =
        CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
    let cfg = ProbeConfig::default();

    // Simulation (through the parallel batch API; one training run).
    let t = Instant::now();
    let batch = simulate_run_batch(red, &scenario, &cfg, snapshots + 1, &[1]);
    let t_sim = t.elapsed();
    let ms_all: MeasurementSet = batch.into_iter().next().expect("one run requested");
    let train = MeasurementSet {
        snapshots: ms_all.snapshots[..snapshots].to_vec(),
    };
    let eval = &ms_all.snapshots[snapshots];

    // Build A and the plan of its pair set.
    let t = Instant::now();
    let aug = AugmentedSystem::build(red);
    let pairs = aug.pair_indices();
    let plan = PairPlan::new(red.num_paths(), &pairs);
    let t_build = t.elapsed();

    // Covariance + Phase 1 end to end (centering, the planned sweep and
    // the Phase-1 solve, as the LIA core runs them), timed as the median
    // of three runs for a stable clock on a noisy host.
    let var_cfg = VarianceConfig::default();
    let (mut panel, mut sigmas) = (Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut timed = None;
    for _ in 0..3 {
        let t = Instant::now();
        let centered = CenteredMeasurements::new(&train);
        plan.covariances_into(&centered, &mut panel, &mut sigmas);
        let est = estimate_variances_from_sigmas(red, &aug, &sigmas, &var_cfg).expect("phase 1");
        samples.push(t.elapsed());
        timed = Some((centered, est));
    }
    let (centered, est) = timed.expect("three timed runs completed");
    let t_total = median(&mut samples);

    // Stage breakdown: each covariance sweep alone (median of three),
    // then the solve with the covariances in hand.
    let (mut planned, mut paired) = (Vec::new(), Vec::new());
    let mut pair_sigmas = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        plan.covariances_into(&centered, &mut panel, &mut sigmas);
        planned.push(t.elapsed());
        let t = Instant::now();
        pair_sigmas = centered.pair_covariances(&pairs);
        paired.push(t.elapsed());
    }
    let t_cov = median(&mut planned);
    let t_cov_pairs = median(&mut paired);
    let t_solve = t_total.saturating_sub(t_cov);

    // The planned sweep and the serial and parallel pair sweeps must
    // agree bit-for-bit.
    let serial = centered.pair_covariances_with_threads(&pairs, 1);
    let parallel = centered.pair_covariances_with_threads(&pairs, 4);
    let serial_parallel_identical = serial == parallel && serial == pair_sigmas && serial == sigmas;

    // Phase 2 on the evaluation snapshot.
    let t = Instant::now();
    let _p2 =
        infer_link_rates(red, &est.v, &eval.log_rates(), &LiaConfig::default()).expect("phase 2");
    let t_phase2 = t.elapsed();

    TopologyReport {
        name: prep.name.to_string(),
        paths: red.num_paths(),
        links: red.num_links(),
        aug_rows: aug.num_rows(),
        snapshots,
        covariance_plan: format!("{:?}", plan.kind()),
        stages_ms: StagesMs {
            simulate: ms(t_sim),
            build_a: ms(t_build),
            covariance: ms(t_cov),
            covariance_pairs: ms(t_cov_pairs),
            phase1_solve: ms(t_solve),
            covariance_phase1: ms(t_total),
            phase2: ms(t_phase2),
        },
        serial_parallel_identical,
    }
}

fn main() {
    let scale = Scale::from_args();
    let snapshots = 50;
    println!(
        "perf_phase1 — numeric hot-path timings ({} scale)",
        scale.name()
    );
    println!();

    let preps = vec![tree_topology(scale, 11), planetlab_topology(scale, 42)];
    let header = format!(
        "{:<12} {:>7} {:>7} {:>9} {:>6} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "Topology",
        "paths",
        "links",
        "rows",
        "plan",
        "cov",
        "cov pairs",
        "phase1",
        "cov+phase1",
        "phase2"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    let mut reports = Vec::new();
    for prep in &preps {
        let rep = bench_topology(prep, snapshots);
        println!(
            "{:<12} {:>7} {:>7} {:>9} {:>6} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>9.2}ms {:>8.2}ms",
            rep.name,
            rep.paths,
            rep.links,
            rep.aug_rows,
            rep.covariance_plan,
            rep.stages_ms.covariance,
            rep.stages_ms.covariance_pairs,
            rep.stages_ms.phase1_solve,
            rep.stages_ms.covariance_phase1,
            rep.stages_ms.phase2,
        );
        assert!(
            rep.serial_parallel_identical,
            "{}: serial and parallel covariance sweeps drifted",
            rep.name
        );
        reports.push(rep);
    }

    let report = BenchReport {
        meta: BenchMeta {
            // 3: the covariance plan and the pair kernel's time.
            schema_version: 3,
            ..bench_meta("perf_phase1", scale)
        },
        topologies: reports,
    };
    write_bench_report("BENCH_phase1.json", &report);
}
