//! Figure 9 — cross-validation on the (simulated) PlanetLab network,
//! swept across the estimator zoo.
//!
//! Ground truth is unavailable on the real Internet, so the paper splits
//! the measured paths into an inference half and a validation half, runs
//! LIA on the former and checks eq. (11) (|measured − predicted| ≤
//! ε = 0.005) on the latter, as a function of the learning window `m`.
//! In the paper more than 95 % of paths validate, flattening out beyond
//! m ≈ 80. The binary prints that claim as the paper's, then what its
//! own LIA rows measured: their range, and whether they rise with `m`.
//!
//! This reproduction also injects traceroute topology errors
//! (non-responding routers, unresolved interface aliases) to exercise
//! the paper's robustness claim: inference runs on the *observed*
//! topology while losses happen on the true one. Every
//! [`losstomo_core::EstimatorKind`] backend runs on the same grid — the
//! consistency check is exactly the kind of oracle-free comparison the
//! estimator zoo exists for. Both backends apply to this mesh, so a
//! failed run is reported as a failure, and a case with no successful
//! run fails the binary.
//!
//! Flags: `--scale quick|paper`, `--runs N`, `--no-traceroute-errors`.

use losstomo_bench::{planetlab_topology, run_grid_metric, runs_from_args, GridCase, Scale};
use losstomo_core::{cross_validate, CrossValidationConfig, EstimatorKind, ExperimentConfig};
use losstomo_netsim::{
    observe, simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, TracerouteConfig,
};
use losstomo_topology::reduce;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    let with_errors = !std::env::args().any(|a| a == "--no-traceroute-errors");
    let prep = planetlab_topology(scale, 42);

    // Observed topology: replay traceroute with the Section-7 error
    // rates. Losses are simulated on the true topology; inference sees
    // only the observed routing matrix.
    let mut trng = StdRng::seed_from_u64(17);
    let paths = losstomo_topology::compute_paths(
        &prep.topo.graph,
        &prep.topo.beacons,
        &prep.topo.destinations,
    );
    let obs_red = if with_errors {
        let obs = observe(
            &prep.topo.graph,
            &paths,
            &TracerouteConfig::default(),
            &mut trng,
        );
        reduce(&obs.graph, &obs.paths)
    } else {
        prep.red.clone()
    };

    println!(
        "Figure 9 — cross-validation, ε = 0.005 ({} paths, traceroute errors: {})",
        obs_red.num_paths(),
        with_errors
    );
    println!();

    // Section 7 measures the *real* Internet, where congestion incidence
    // is far sparser than the LLRD1 simulation's p = 10 % (the paper
    // itself finds 99 % of congested links last a single 5-minute
    // snapshot). We use p = 3 % for the Internet-experiment
    // reproduction; paths crossing no congested link validate trivially,
    // as PlanetLab's mostly-clean paths did.
    let grid: Vec<(usize, EstimatorKind)> = [20usize, 40, 60, 80, 100]
        .into_iter()
        .flat_map(|m| EstimatorKind::all().into_iter().map(move |kind| (m, kind)))
        .collect();
    let cases: Vec<GridCase> = grid
        .iter()
        .map(|&(m, kind)| {
            GridCase::new(
                format!("m={m:<3} {}", kind.name()),
                ExperimentConfig {
                    snapshots: m,
                    p_congested: 0.03,
                    dynamics: CongestionDynamics::Fixed,
                    estimator: kind,
                    seed: 7000,
                    ..ExperimentConfig::default()
                },
            )
        })
        .collect();

    // One seeded cross-validation round per (case, seed): simulate on
    // the TRUE topology, infer and validate on the OBSERVED one. Same
    // RNG discipline as the historical hand-rolled loop (one stream for
    // scenario, simulation, and the split).
    let outcomes = run_grid_metric(cases, runs, |cfg| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut scenario = CongestionScenario::draw(
            prep.red.num_links(),
            cfg.p_congested,
            cfg.dynamics,
            &mut rng,
        );
        let ms: MeasurementSet = simulate_run(
            &prep.red,
            &mut scenario,
            &cfg.probe,
            cfg.snapshots + 1,
            &mut rng,
        );
        let cv = CrossValidationConfig {
            estimator: cfg.estimator,
            lia: cfg.lia,
            variance: cfg.variance,
            ..CrossValidationConfig::default()
        };
        cross_validate(&obs_red, &ms, &cv, &mut rng).map(|res| res.percent_consistent())
    });

    let header = format!("{:<20} {:>22}", "case", "% consistent paths");
    println!("{header}");
    losstomo_bench::rule(&header);
    for o in &outcomes {
        if o.values.is_empty() {
            println!("{:<20} (all {} runs failed)", o.label, o.failed);
        } else if o.failed > 0 {
            println!(
                "{:<20} {:>21.1}% ({} of {runs} runs failed)",
                o.label, o.mean, o.failed
            );
        } else {
            println!("{:<20} {:>21.1}%", o.label, o.mean);
        }
    }
    println!();
    println!("Paper (Fig. 9, LIA): > 95% of validation paths consistent, increasing");
    println!("in m and flattening out for m ≳ 80 — despite traceroute topology errors.");
    let lia: Vec<(usize, f64)> = grid
        .iter()
        .zip(&outcomes)
        .filter(|((_, kind), o)| *kind == EstimatorKind::Lia && !o.values.is_empty())
        .map(|(&(m, _), o)| (m, o.mean))
        .collect();
    if let (Some(lo), Some(hi)) = (
        lia.iter().map(|&(_, v)| v).reduce(f64::min),
        lia.iter().map(|&(_, v)| v).reduce(f64::max),
    ) {
        let above = lia.iter().filter(|&&(_, v)| v > 95.0).count();
        let shape = match lia.windows(2).find(|w| w[1].1 < w[0].1) {
            None => "non-decreasing in m".to_string(),
            Some(w) => format!(
                "not rising with m (m={} reads {:.1}%, below m={}'s {:.1}%)",
                w[1].0, w[1].1, w[0].0, w[0].1
            ),
        };
        println!(
            "Measured (lia rows): {lo:.1}–{hi:.1}% consistent, {above} of {} rows above 95%;",
            lia.len()
        );
        println!("{shape}.");
    }
    let failed_cases = outcomes.iter().filter(|o| o.values.is_empty()).count();
    if failed_cases > 0 {
        eprintln!("fig9_cross_validation: {failed_cases} case(s) had no successful run");
        std::process::exit(1);
    }
}
