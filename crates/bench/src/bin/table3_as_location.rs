//! Table 3 — location of congested links: inter-AS vs intra-AS.
//!
//! The paper maps inferred congested links to RouteViews BGP ASes and
//! finds them slightly more likely to be inter-AS, with the skew
//! shrinking as the loss threshold `t_l` grows. We reproduce the
//! analysis on the AS-annotated DIMES-like topology (hosts in stub
//! ASes of a power-law AS graph), giving inter-AS links a higher
//! congestion probability than intra-AS links, as peering links are in
//! the commercial Internet.
//!
//! Flags: `--scale quick|paper`, `--runs N`.

use losstomo_bench::{dimes_topology, runs_from_args, Scale};
use losstomo_core::analysis::{as_location, AsLocationStats};
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
    let runs = runs_from_args(10);
    let prep = dimes_topology(scale, 42);
    println!(
        "Table 3 — inter- vs intra-AS location of congested links ({} links, {} runs)",
        prep.red.num_links(),
        runs
    );

    // Asymmetric congestion: inter-AS (peering) links congest at 2× the
    // rate of intra-AS links, averaging ~10% overall.
    let graph = &prep.topo.graph;
    let inter_prob = 0.16;
    let intra_prob = 0.08;

    let mut totals: Vec<(f64, AsLocationStats)> =
        vec![(0.04, zero()), (0.02, zero()), (0.01, zero())];

    let aug = AugmentedSystem::build(&prep.red);
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(8000 + run as u64);
        // Draw per-link congestion with AS-dependent probabilities.
        let mut scenario = CongestionScenario::draw(
            prep.red.num_links(),
            1.0, // placeholder; statuses overwritten below
            CongestionDynamics::Fixed,
            &mut rng,
        );
        let statuses: Vec<bool> = (0..prep.red.num_links())
            .map(|k| {
                let vl = &prep.red.virtual_links[k];
                let inter = vl
                    .physical
                    .iter()
                    .any(|&pl| graph.link_is_inter_as(pl) == Some(true));
                let p = if inter { inter_prob } else { intra_prob };
                rand::Rng::gen::<f64>(&mut rng) < p
            })
            .collect();
        scenario = scenario_with_statuses(scenario, &statuses);

        let ms: MeasurementSet = simulate_run(
            &prep.red,
            &mut scenario,
            &ProbeConfig::default(),
            51,
            &mut rng,
        );
        let train = MeasurementSet {
            snapshots: ms.snapshots[..50].to_vec(),
        };
        let centered = CenteredMeasurements::new(&train);
        let v = match estimate_variances(&prep.red, &aug, &centered, &VarianceConfig::default()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("run {run}: {e}");
                continue;
            }
        };
        let eval = &ms.snapshots[50];
        let est = match infer_link_rates(&prep.red, &v.v, &eval.log_rates(), &LiaConfig::default())
        {
            Ok(e) => e,
            Err(e) => {
                eprintln!("run {run}: {e}");
                continue;
            }
        };
        let loss = est.loss_rates();
        for (tl, acc) in totals.iter_mut() {
            let s = as_location(graph, &prep.red, &loss, *tl);
            acc.inter_as += s.inter_as;
            acc.intra_as += s.intra_as;
            acc.unknown += s.unknown;
        }
    }

    println!();
    let header = format!("{:>8} {:>12} {:>12}", "t_l", "inter-AS", "intra-AS");
    println!("{header}");
    losstomo_bench::rule(&header);
    for (tl, s) in &totals {
        println!(
            "{:>8} {:>11.1}% {:>11.1}%",
            tl,
            s.percent_inter(),
            s.percent_intra()
        );
    }
    println!();
    println!("Paper shape: congested links are more likely inter-AS than intra-AS,");
    println!("with the inter-AS share growing as t_l shrinks (53.6/56.9/57.8% in the paper).");
}

fn zero() -> AsLocationStats {
    AsLocationStats {
        inter_as: 0,
        intra_as: 0,
        unknown: 0,
    }
}

/// Overwrites a scenario's statuses by drawing a fresh scenario whose
/// initial statuses are forced. `CongestionScenario` intentionally hides
/// its status vector behind `advance`; with `Fixed` dynamics we can
/// emulate arbitrary initial statuses by rebuilding per status.
fn scenario_with_statuses(proto: CongestionScenario, statuses: &[bool]) -> CongestionScenario {
    // Deterministic trick: draw with p=1 / p=0 per link is not supported
    // directly, so re-draw links until statuses match would be wasteful.
    // Instead serialise through the public API: draw with p equal to the
    // empirical fraction and then keep redrawing only if mismatched is
    // too clever — we add a tiny shim instead.
    CongestionScenario::with_statuses(proto.p, proto.dynamics, statuses.to_vec())
}
