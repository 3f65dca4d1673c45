//! Ablation — congested-set persistence across the learning window.
//!
//! Phase 1 learns variances over m snapshots; Assumption S.3 links a
//! link's variance to its congestion level, which only discriminates if
//! the congested set is reasonably stable while learning. This study
//! degrades persistence from fixed (the paper's simulation regime)
//! through Markov episodes down to iid redraw, quantifying the drop.
//!
//! Flags: `--scale quick|paper`, `--runs N`.

use losstomo_bench::{print_grid_dr_fpr, run_grid, runs_from_args, tree_topology, GridCase, Scale};
use losstomo_core::ExperimentConfig;
use losstomo_netsim::CongestionDynamics;

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    let prep = tree_topology(scale, 11);
    println!(
        "Ablation — congestion persistence during learning (tree, m=50, {} runs)",
        runs
    );
    println!();

    let dynamics_grid: Vec<(&str, CongestionDynamics)> = vec![
        ("fixed (paper)", CongestionDynamics::Fixed),
        (
            "markov stay=0.9",
            CongestionDynamics::Markov {
                stay_congested: 0.9,
            },
        ),
        (
            "markov stay=0.5",
            CongestionDynamics::Markov {
                stay_congested: 0.5,
            },
        ),
        ("iid redraw", CongestionDynamics::Redraw),
    ];
    let cases: Vec<GridCase> = dynamics_grid
        .into_iter()
        .map(|(label, dynamics)| {
            GridCase::new(
                label,
                ExperimentConfig {
                    snapshots: 50,
                    dynamics,
                    seed: 11_000,
                    ..ExperimentConfig::default()
                },
            )
        })
        .collect();
    print_grid_dr_fpr("dynamics", &run_grid(&prep.red, cases, runs));

    println!();
    println!("Expected: accuracy degrades as persistence drops — with iid redraw all");
    println!("links look alike to Phase 1 and the variance ordering stops discriminating.");
}
