//! Section 7.2.2 — how long do links stay congested?
//!
//! The paper applies LIA to 100 consecutive snapshots (t_l = 0.01,
//! m = 50) and finds 99 % of congested links stay congested for exactly
//! one 5-minute snapshot, the rest for two. We reproduce the analysis
//! with Markov congestion dynamics whose persistence is deliberately
//! low (episodes averaging ~1 snapshot), then measure the *inferred*
//! episode lengths exactly like the paper does.
//!
//! Flags: `--scale quick|paper`, `--snapshots N` (default 100).

use losstomo_bench::{count_from_args, planetlab_topology, Scale};
use losstomo_core::analysis::{congestion_durations, fraction_single_snapshot};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::CenteredMeasurements;
use losstomo_core::{estimate_variances, infer_link_rates, LiaConfig, VarianceConfig};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let eval_snapshots = count_from_args(
        "--snapshots",
        match scale {
            Scale::Paper => 100,
            Scale::Quick => 30,
        },
    );
    let m = 50usize;
    let tl = 0.01;
    let prep = planetlab_topology(scale, 42);
    println!(
        "Section 7.2.2 — congestion episode durations ({} evaluation snapshots, t_l = {tl})",
        eval_snapshots
    );

    let mut rng = StdRng::seed_from_u64(23);
    // Short-lived congestion: P(stay) = 0.05 → mean episode ≈ 1.05
    // snapshots, approximating the paper's observation.
    let mut scenario = CongestionScenario::draw(
        prep.red.num_links(),
        0.1,
        CongestionDynamics::Markov {
            stay_congested: 0.05,
        },
        &mut rng,
    );
    let total = m + eval_snapshots;
    let ms: MeasurementSet = simulate_run(
        &prep.red,
        &mut scenario,
        &ProbeConfig::default(),
        total,
        &mut rng,
    );

    let aug = AugmentedSystem::build(&prep.red);
    let mut diagnosed: Vec<Vec<bool>> = Vec::with_capacity(eval_snapshots);
    for t in m..total {
        // Sliding window: learn variances on the m snapshots before t.
        let train = MeasurementSet {
            snapshots: ms.snapshots[t - m..t].to_vec(),
        };
        let centered = CenteredMeasurements::new(&train);
        let v = match estimate_variances(&prep.red, &aug, &centered, &VarianceConfig::default()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("t={t}: {e}");
                continue;
            }
        };
        let eval = &ms.snapshots[t];
        match infer_link_rates(&prep.red, &v.v, &eval.log_rates(), &LiaConfig::default()) {
            Ok(est) => diagnosed.push(est.loss_rates().iter().map(|&l| l > tl).collect()),
            Err(e) => eprintln!("t={t}: {e}"),
        }
    }

    let hist = congestion_durations(&diagnosed);
    println!();
    let header = format!(
        "{:>22} {:>10} {:>10}",
        "duration (snapshots)", "episodes", "share"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    let total_eps: usize = hist.iter().sum();
    for (d, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        println!(
            "{:>22} {:>10} {:>9.1}%",
            d + 1,
            count,
            100.0 * count as f64 / total_eps.max(1) as f64
        );
    }
    println!();
    println!(
        "Fraction of single-snapshot episodes: {:.1}% (paper: 99%)",
        100.0 * fraction_single_snapshot(&hist)
    );
}
