//! Section 6.4 / 7.2.1 — running times of the LIA pipeline.
//!
//! The paper reports (Matlab, 2 GHz Pentium 4): solving the first-moment
//! system in milliseconds, solving the reduced system (9) ~10× longer,
//! computing `A` up to an hour (but only once), and a total inference
//! time below a second for thousand-node networks. We time the same
//! stages: building `A`, Phase 1, column selection, and the Phase-2
//! solve. Criterion micro-benches (`cargo bench`) complement these
//! wall-clock numbers.
//!
//! Flags: `--scale quick|paper`.

use losstomo_bench::{planetlab_topology, table2_topologies, tree_topology, Scale};
use losstomo_core::augmented::AugmentedSystem;
use losstomo_core::covariance::CenteredMeasurements;
use losstomo_core::{
    estimate_variances, infer_link_rates, select_full_rank_columns, EliminationStrategy, LiaConfig,
    VarianceConfig,
};
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, MeasurementSet, ProbeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    println!("Section 6.4 — running times of the LIA stages");
    println!();
    let header = format!(
        "{:<26} {:>7} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "Topology", "paths", "links", "build A", "phase 1", "select R*", "solve (9)"
    );
    println!("{header}");
    losstomo_bench::rule(&header);

    let mut preps = vec![tree_topology(scale, 11), planetlab_topology(scale, 42)];
    preps.extend(table2_topologies(scale, 77));
    for prep in preps {
        let mut rng = StdRng::seed_from_u64(1);
        let mut scenario = CongestionScenario::draw(
            prep.red.num_links(),
            0.1,
            CongestionDynamics::Fixed,
            &mut rng,
        );
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

        let t = Instant::now();
        let aug = AugmentedSystem::build(&prep.red);
        let t_build = t.elapsed();

        let centered = CenteredMeasurements::new(&train);
        let t = Instant::now();
        let v = estimate_variances(&prep.red, &aug, &centered, &VarianceConfig::default())
            .expect("phase 1");
        let t_phase1 = t.elapsed();

        let t = Instant::now();
        let kept = select_full_rank_columns(&prep.red, &v.v, EliminationStrategy::PaperOrder);
        let t_select = t.elapsed();
        let _ = kept;

        let eval = &ms.snapshots[50];
        let t = Instant::now();
        let _est = infer_link_rates(&prep.red, &v.v, &eval.log_rates(), &LiaConfig::default())
            .expect("phase 2");
        let t_solve = t.elapsed();

        println!(
            "{:<26} {:>7} {:>7} {:>12.2?} {:>12.2?} {:>12.2?} {:>12.2?}",
            prep.name,
            prep.red.num_paths(),
            prep.red.num_links(),
            t_build,
            t_phase1,
            t_select,
            t_solve
        );
    }
    println!();
    println!("Paper shape: A computed once (expensive), whole inference well under");
    println!("a second per snapshot for thousand-node networks.");
}
