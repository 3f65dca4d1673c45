//! The covariance sweep each named paper-scale topology plans.
//!
//! A `PairPlan` decides its kernel from the pair set alone: 4×8 tiles
//! when the requested pairs fill at least half of the touched tiles'
//! cells, the four-chain pair kernel otherwise. The paper trees that
//! perfbench (topology seed 23) and the Section-6 figures (seed 11)
//! run fill their tiles; the paper's Waxman and PlanetLab meshes fill
//! 9–17% and keep the pair kernel, which measured faster there.

use losstomo_bench::{planetlab_topology, tree_topology, waxman_topology, PreparedTopology, Scale};
use losstomo_core::covariance::{PairPlan, PlanKind};
use losstomo_core::AugmentedSystem;

fn full_plan(prep: &PreparedTopology) -> PairPlan {
    let pairs = AugmentedSystem::build(&prep.red).pair_indices();
    PairPlan::new(prep.red.num_paths(), &pairs)
}

#[test]
fn paper_trees_plan_tiles() {
    for seed in [23, 11] {
        let prep = tree_topology(Scale::Paper, seed);
        assert_eq!(full_plan(&prep).kind(), PlanKind::Tiles, "tree seed {seed}");
    }
}

#[test]
fn paper_meshes_plan_pairs() {
    for prep in [
        waxman_topology(Scale::Paper, 7),
        planetlab_topology(Scale::Paper, 7),
    ] {
        assert_eq!(full_plan(&prep).kind(), PlanKind::Pairs, "{}", prep.name);
    }
}
