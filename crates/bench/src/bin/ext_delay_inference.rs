//! Extension (Section 8) — link *delay* inference with the same
//! second-order machinery.
//!
//! The paper's first proposed extension: congested links have high delay
//! variance, so the identifiability result and the two-phase algorithm
//! carry over to delays (additive composition, no log transform). This
//! binary mirrors the loss experiments' shape for delays under two
//! congestion regimes: the paper's fixed congested set, and Markov
//! churn (which degrades delay inference exactly as it degrades loss
//! inference — see `ablation_persistence`).
//!
//! Flags: `--scale quick|paper`, `--runs N`.

use losstomo_bench::{pct, runs_from_args, tree_topology, Scale};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::{estimate_delay_variances, infer_link_delays, LiaConfig, VarianceConfig};
use losstomo_netsim::delay::{simulate_delay_run, DelayConfig, DelayNetwork};
use losstomo_netsim::{CongestionDynamics, CongestionScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let runs = runs_from_args(10);
    let prep = tree_topology(scale, 11);
    let m = 50usize;
    println!(
        "Extension — delay tomography (tree, {} links, m={m}, {} runs)",
        prep.red.num_links(),
        runs
    );
    let aug = AugmentedSystem::build(&prep.red);
    let cfg = DelayConfig::default();

    println!();
    let header = format!(
        "{:<22} {:>10} {:>10} {:>22}",
        "dynamics", "DR", "FPR", "median rel. error"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    for (label, dynamics) in [
        ("fixed (paper-like)", CongestionDynamics::Fixed),
        (
            "markov stay=0.7",
            CongestionDynamics::Markov {
                stay_congested: 0.7,
            },
        ),
    ] {
        let mut drs = Vec::new();
        let mut fprs = Vec::new();
        let mut rel_errors = Vec::new();
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(14_000 + run as u64);
            let net = DelayNetwork::draw(&prep.red, &cfg, &mut rng);
            let mut scenario =
                CongestionScenario::draw(prep.red.num_links(), 0.1, dynamics, &mut rng);
            let snaps = simulate_delay_run(&prep.red, &net, &mut scenario, &cfg, m + 1, &mut rng);
            let v = match estimate_delay_variances(
                &prep.red,
                &aug,
                &snaps[..m],
                &VarianceConfig::default(),
            ) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("run {run}: {e}");
                    continue;
                }
            };
            let est = match infer_link_delays(
                &prep.red,
                &v.v,
                &snaps[..m],
                &snaps[m],
                &LiaConfig::default(),
            ) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("run {run}: {e}");
                    continue;
                }
            };
            // DR over the *detectable* congested links (congested now
            // and seen congested in ≥ m/4 window snapshots); FPs are
            // diagnosed links that are not congested now at all.
            let detectable: Vec<usize> = (0..prep.red.num_links())
                .filter(|&k| {
                    snaps[m].congested[k]
                        && snaps[..m].iter().filter(|s| s.congested[k]).count() >= m / 4
                })
                .collect();
            let diagnosed: Vec<usize> = est.congested_links(2.0);
            let hits = detectable.iter().filter(|k| diagnosed.contains(k)).count();
            let false_pos = diagnosed
                .iter()
                .filter(|&&k| !snaps[m].congested[k])
                .count();
            if !detectable.is_empty() {
                drs.push(hits as f64 / detectable.len() as f64);
            }
            if !diagnosed.is_empty() {
                fprs.push(false_pos as f64 / diagnosed.len() as f64);
            }
            for (k, (&e, &t)) in est
                .queue_delay
                .iter()
                .zip(snaps[m].link_queue_delay.iter())
                .enumerate()
            {
                if est.kept[k] && t > 5.0 {
                    rel_errors.push((e - t).abs() / t);
                }
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let med = losstomo_core::metrics::summarize(&rel_errors)
            .map(|s| s.median)
            .unwrap_or(f64::NAN);
        println!(
            "{:<22} {:>10} {:>10} {:>21.1}%",
            label,
            pct(avg(&drs)),
            pct(avg(&fprs)),
            100.0 * med
        );
    }
    println!();
    println!("Expected shape: with a stable congested set the delay extension matches");
    println!("the loss results (high DR, low FPR, tight estimates); churn degrades it");
    println!("exactly as it degrades loss inference (cf. ablation_persistence).");
}
