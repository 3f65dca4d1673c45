//! Ablation — loss process (Gilbert vs Bernoulli) and loss-rate model
//! (LLRD1 vs LLRD2).
//!
//! The paper reports "very little difference" between LLRD1 and LLRD2
//! and between Gilbert and Bernoulli losses. This study verifies both
//! claims on the tree topology.
//!
//! Flags: `--scale quick|paper`, `--runs N`.

use losstomo_bench::{pct, run_grid, runs_from_args, tree_topology, GridCase, Scale};
use losstomo_core::metrics::summarize;
use losstomo_core::{ExperimentConfig, RateErrors};
use losstomo_netsim::{LossModel, LossProcessKind, ProbeConfig};

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    let prep = tree_topology(scale, 11);
    println!(
        "Ablation — loss models and processes (tree, {} links, m=50, {} runs)",
        prep.red.num_links(),
        runs
    );
    println!();

    let mut cases = Vec::new();
    for model in [LossModel::Llrd1, LossModel::Llrd2] {
        for process in [LossProcessKind::Gilbert, LossProcessKind::Bernoulli] {
            cases.push(GridCase::new(
                format!(
                    "{:<12} {:<12}",
                    format!("{model:?}"),
                    format!("{process:?}")
                ),
                ExperimentConfig {
                    snapshots: 50,
                    probe: ProbeConfig {
                        loss_model: model,
                        process,
                        ..ProbeConfig::default()
                    },
                    seed: 10_000,
                    ..ExperimentConfig::default()
                },
            ));
        }
    }
    let outcomes = run_grid(&prep.red, cases, runs);

    // DR/FPR come from the shared grid runner; the per-link rate-error
    // medians are this study's extra columns.
    let header = format!(
        "{:<25} {:>8} {:>8} {:>10} {:>10}",
        "model        process", "DR", "FPR", "EF median", "AE median"
    );
    println!("{header}");
    losstomo_bench::rule(&header);
    for o in &outcomes {
        let mut errs = RateErrors::default();
        for r in &o.results {
            errs.extend(&r.errors);
        }
        let ef = summarize(&errs.error_factors).expect("nonempty");
        let ae = summarize(&errs.absolute_errors).expect("nonempty");
        println!(
            "{:<25} {:>8} {:>8} {:>10.3} {:>10.5}",
            o.label,
            pct(o.mean_dr),
            pct(o.mean_fpr),
            ef.median,
            ae.median
        );
    }
    println!();
    println!("Paper's claim: differences between the models/processes are insignificant.");
}
