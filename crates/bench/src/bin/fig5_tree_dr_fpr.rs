//! Figure 5 — accuracy of LIA vs SCFS in locating congested links on
//! trees, as a function of the number of learning snapshots `m`.
//!
//! Paper setup: 1000-node trees (branching ≤ 10), beacon at the root,
//! destinations at the leaves, `p = 10 %`, LLRD1, `S = 1000`, each point
//! averaged over 10 runs. LIA's DR climbs above 0.9 and its FPR stays
//! near zero, while single-snapshot SCFS sits significantly lower.
//!
//! Flags: `--scale quick|paper`, `--runs N` (default 10),
//! `--m-values 10,20,...`.

use losstomo_bench::{flag_value, pct, run_grid, runs_from_args, tree_topology, GridCase, Scale};
use losstomo_core::ExperimentConfig;

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    let m_values: Vec<usize> = flag_value("--m-values")
        .map(|v| v.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);

    let prep = tree_topology(scale, 11);
    println!(
        "Figure 5 — LIA vs SCFS on a tree ({} nodes → {} paths, {} links), p=10%, S=1000, {} runs",
        prep.topo.graph.node_count(),
        prep.red.num_paths(),
        prep.red.num_links(),
        runs
    );
    println!();

    let cases: Vec<GridCase> = m_values
        .iter()
        .map(|&m| {
            GridCase::new(
                m.to_string(),
                ExperimentConfig {
                    snapshots: m,
                    run_scfs: true,
                    seed: 1000,
                    ..ExperimentConfig::default()
                },
            )
        })
        .collect();
    let outcomes = run_grid(&prep.red, cases, runs);

    // Four metric columns (LIA + the SCFS baseline), so the rows are
    // formatted here; the sweep itself is the shared grid runner.
    let header = format!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "m", "LIA DR", "LIA FPR", "SCFS DR", "SCFS FPR"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    for o in &outcomes {
        let scfs_dr = o.mean_of(|r| r.scfs_location.map(|l| l.detection_rate));
        let scfs_fpr = o.mean_of(|r| r.scfs_location.map(|l| l.false_positive_rate));
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>12}",
            o.label,
            pct(o.mean_dr),
            pct(o.mean_fpr),
            pct(scfs_dr),
            pct(scfs_fpr)
        );
    }
    println!();
    println!("Paper shape: LIA DR ≳ 90% rising with m, FPR a few %;");
    println!("SCFS (one snapshot, no second-order information) well below LIA.");
}
