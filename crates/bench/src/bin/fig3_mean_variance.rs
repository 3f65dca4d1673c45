//! Figure 3 — mean vs variance of end-to-end loss rates.
//!
//! The paper plots 17 200 PlanetLab paths measured every ~5 minutes over
//! one day (250 samples of S = 1000 probes each) and observes that the
//! variance of a path's loss rate grows monotonically with its mean —
//! the empirical basis for Assumption S.3. We reproduce the experiment
//! on the synthetic PlanetLab-like topology and report the scatter plus
//! its Spearman rank correlation.
//!
//! Flags: `--scale quick|paper`, `--snapshots N` (default 250).

use losstomo_bench::{count_from_args, planetlab_topology, Scale};
use losstomo_core::analysis::{mean_variance_per_path, mean_variance_spearman};
use losstomo_netsim::{simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let snapshots = count_from_args(
        "--snapshots",
        match scale {
            Scale::Paper => 250,
            Scale::Quick => 60,
        },
    );
    let prep = planetlab_topology(scale, 42);
    println!(
        "Figure 3 — mean vs variance of path loss rates ({} paths, {} snapshots of S=1000)",
        prep.red.num_paths(),
        snapshots
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Markov persistence: congestion episodes last a few snapshots, as
    // in the real Internet trace behind Figure 3.
    let mut scenario = CongestionScenario::draw(
        prep.red.num_links(),
        0.1,
        CongestionDynamics::Markov {
            stay_congested: 0.5,
        },
        &mut rng,
    );
    let ms = simulate_run(
        &prep.red,
        &mut scenario,
        &ProbeConfig::default(),
        snapshots,
        &mut rng,
    );
    let points = mean_variance_per_path(&ms);

    // Bucket the scatter for terminal display.
    let header = format!(
        "{:>18} {:>10} {:>16} {:>16}",
        "mean-loss bucket", "paths", "avg variance", "max variance"
    );
    println!();
    println!("{header}");
    losstomo_bench::rule(&header);
    let edges = [0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5];
    for w in edges.windows(2) {
        let bucket: Vec<f64> = points
            .iter()
            .filter(|p| p.mean >= w[0] && p.mean < w[1])
            .map(|p| p.variance)
            .collect();
        if bucket.is_empty() {
            continue;
        }
        let avg = bucket.iter().sum::<f64>() / bucket.len() as f64;
        let max = bucket.iter().cloned().fold(0.0_f64, f64::max);
        println!(
            "{:>18} {:>10} {:>16.6} {:>16.6}",
            format!("[{:.3},{:.3})", w[0], w[1]),
            bucket.len(),
            avg,
            max
        );
    }
    println!();
    let rho = mean_variance_spearman(&points);
    println!("Spearman rank correlation (mean vs variance): {rho:.3}");
    println!("Paper's claim (Assumption S.3): variance is a non-decreasing function of the mean.");
}
