//! Figure 7 — ratio between the number of congested links and the
//! number of columns kept in `R*`.
//!
//! The Phase-2 approximation (removed links ≈ loss-free) is only safe if
//! every congested link survives into `R*`; a sufficient indicator is
//! that the number of congested links stays below the number of kept
//! columns. The paper shows this ratio is below 1 on every topology.
//!
//! Flags: `--scale quick|paper`, `--runs N`.

use losstomo_bench::{runs_from_args, table2_topologies, tree_topology, Scale};
use losstomo_core::{run_many, ExperimentConfig};

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    println!(
        "Figure 7 — #congested links / #columns in R* (p=10%, m=50, {} runs)",
        runs
    );
    println!();
    let header = format!(
        "{:<26} {:>12} {:>12} {:>10}",
        "Topology", "congested", "kept cols", "ratio"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    let mut preps = vec![tree_topology(scale, 11)];
    preps.extend(table2_topologies(scale, 77));
    for prep in preps {
        let cfg = ExperimentConfig {
            snapshots: 50,
            seed: 4000,
            ..ExperimentConfig::default()
        };
        let results = run_many(&prep.red, &cfg, runs);
        let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        let n = ok.len() as f64;
        let congested = ok.iter().map(|r| r.congested_count as f64).sum::<f64>() / n;
        let kept = ok.iter().map(|r| r.kept_count as f64).sum::<f64>() / n;
        let ratio = ok.iter().map(|r| r.congested_to_kept_ratio()).sum::<f64>() / n;
        println!(
            "{:<26} {:>12.1} {:>12.1} {:>10.3}",
            prep.name, congested, kept, ratio
        );
    }
    println!();
    println!("Paper shape: the ratio is always below 1 — R* retains every congested link.");
}
