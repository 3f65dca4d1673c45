//! Cross-validation on real (or simulated-real) measurements
//! (Section 7.2, eq. (11)).
//!
//! Without ground truth, the paper validates LIA indirectly: split the
//! measured paths randomly into an *inference* half and a *validation*
//! half, run LIA on the inference half only, and check for every
//! validation path that the product of inferred link transmission rates
//! along the path (restricted to links the inference topology covers)
//! matches the path's measured rate within a tolerance `ε = 0.005`.

use crate::budget::PairBudget::Full;
use crate::covariance::CenteredMeasurements;
use crate::estimator::{build_estimator, EstimatorKind};
use crate::lia::LiaConfig;
use crate::variance::VarianceConfig;
use losstomo_linalg::LinalgError;
use losstomo_netsim::MeasurementSet;
use losstomo_topology::alias::{VirtualLink, VirtualLinkId};
use losstomo_topology::{PathId, ReducedTopology, RoutingMatrix};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Cross-validation configuration.
#[derive(Debug, Clone, Copy)]
pub struct CrossValidationConfig {
    /// Tolerable error `ε` in eq. (11) (paper: 0.005).
    pub epsilon: f64,
    /// LIA Phase-2 configuration.
    pub lia: LiaConfig,
    /// Phase-1 configuration.
    pub variance: VarianceConfig,
    /// Which estimator backend runs on the inference half.
    pub estimator: EstimatorKind,
}

impl Default for CrossValidationConfig {
    fn default() -> Self {
        CrossValidationConfig {
            epsilon: 0.005,
            lia: LiaConfig::default(),
            variance: VarianceConfig::default(),
            estimator: EstimatorKind::default(),
        }
    }
}

/// Cross-validation outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CrossValidationResult {
    /// Validation paths passing the eq. (11) consistency test.
    pub consistent: usize,
    /// Total validation paths tested.
    pub total: usize,
    /// Links covered by the inference half.
    pub inference_links: usize,
}

impl CrossValidationResult {
    /// Percentage of consistent paths (Figure 9's y-axis).
    pub fn percent_consistent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.consistent as f64 / self.total as f64
        }
    }
}

/// The inference-half subsystem: rows = inference paths, columns =
/// covered links with duplicate columns merged (two links are
/// indistinguishable within the inference half when exactly the same
/// inference paths traverse them).
struct SubSystem {
    topo: ReducedTopology,
    /// For each subsystem column: the original link indices it groups.
    groups: Vec<Vec<usize>>,
}

fn build_subsystem(red: &ReducedTopology, inference: &[PathId]) -> SubSystem {
    // Fingerprint each original link by the sorted list of inference
    // paths traversing it.
    let mut traversers: HashMap<usize, Vec<u32>> = HashMap::new();
    for &pid in inference {
        for &k in red.path_links(pid) {
            traversers.entry(k).or_default().push(pid.0);
        }
    }
    let mut group_of: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_fingerprint: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut sorted_links: Vec<usize> = traversers.keys().copied().collect();
    sorted_links.sort_unstable();
    for k in sorted_links {
        let fp = traversers[&k].clone();
        let gid = *by_fingerprint.entry(fp).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gid].push(k);
        group_of.insert(k, gid);
    }
    // Subsystem routing matrix (the shared builder sorts and dedups).
    let mut builder = RoutingMatrix::builder(groups.len());
    let mut cols: Vec<usize> = Vec::new();
    for &pid in inference {
        cols.clear();
        cols.extend(red.path_links(pid).iter().map(|k| group_of[k]));
        builder.push_row(&cols);
    }
    // Reuse ReducedTopology as a plain matrix holder: the inference
    // pipeline only touches `matrix`.
    let virtual_links = (0..groups.len())
        .map(|i| VirtualLink {
            id: VirtualLinkId(i as u32),
            physical: Vec::new(),
        })
        .collect();
    SubSystem {
        topo: ReducedTopology {
            virtual_links,
            link_to_virtual: HashMap::new(),
            matrix: builder.build(),
        },
        groups,
    }
}

/// Runs one cross-validation round.
///
/// `measurements` must contain `m + 1` snapshots: the first `m` train
/// the variances, the last supplies both the inference-half measurement
/// for Phase 2 and the validation-half measured rates for eq. (11).
pub fn cross_validate<R: Rng>(
    red: &ReducedTopology,
    measurements: &MeasurementSet,
    cfg: &CrossValidationConfig,
    rng: &mut R,
) -> Result<CrossValidationResult, LinalgError> {
    assert!(
        measurements.len() >= 3,
        "need at least 3 snapshots (2 to learn + 1 to validate)"
    );
    let np = red.num_paths();
    // Random half/half split.
    let mut ids: Vec<PathId> = (0..np).map(|i| PathId(i as u32)).collect();
    ids.shuffle(rng);
    let half = np / 2;
    let inference: Vec<PathId> = ids[..half].to_vec();
    let validation: Vec<PathId> = ids[half..].to_vec();

    let sub = build_subsystem(red, &inference);

    // Restrict the measurement rows to the inference paths.
    let all_rows = measurements.log_rate_rows();
    let (train_rows, last_row) = {
        let m = all_rows.len() - 1;
        let train: Vec<Vec<f64>> = all_rows[..m]
            .iter()
            .map(|row| inference.iter().map(|p| row[p.index()]).collect())
            .collect();
        (train, &all_rows[m])
    };
    let y_inf: Vec<f64> = inference.iter().map(|p| last_row[p.index()]).collect();

    // The configured backend runs on the inference subsystem. The full
    // pair budget preserves the historical behaviour (cross-validation
    // never budgeted its — much smaller — subsystem).
    let centered = CenteredMeasurements::from_rows(train_rows);
    let mut backend = build_estimator(cfg.estimator, &sub.topo, cfg.lia, cfg.variance, Full);
    let est = backend.estimate(&centered, &y_inf)?.estimate;

    // Disaggregate merged groups geometrically: a group's inferred rate
    // is the product over its constituent links, so each constituent
    // gets the |group|-th root.
    let mut per_link_rate: HashMap<usize, f64> = HashMap::new();
    for (gid, group) in sub.groups.iter().enumerate() {
        let group_rate = est.transmission[gid].max(1e-12);
        let per = group_rate.powf(1.0 / group.len() as f64);
        for &k in group {
            per_link_rate.insert(k, per);
        }
    }

    // Eq. (11) on the validation half against the last snapshot.
    let last_snapshot = &measurements.snapshots[measurements.len() - 1];
    let measured_phi = last_snapshot.path_transmission_rates();
    let mut consistent = 0usize;
    for &pid in &validation {
        let mut product = 1.0;
        for &k in red.path_links(pid) {
            if let Some(&r) = per_link_rate.get(&k) {
                product *= r;
            } // links not covered by the inference half are skipped
              // (the paper's product runs over P_i ∩ E_inf).
        }
        if (measured_phi[pid.index()] - product).abs() <= cfg.epsilon {
            consistent += 1;
        }
    }
    Ok(CrossValidationResult {
        consistent,
        total: validation.len(),
        inference_links: sub.groups.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use losstomo_netsim::{simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig};
    use losstomo_topology::gen::planetlab::{self, PlanetLabParams};
    use losstomo_topology::{compute_paths, reduce};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// All-to-all mesh, like the paper's PlanetLab validation: half the
    /// paths still cover almost every link, so the inference half can
    /// actually predict the validation half.
    fn tree_measurements(seed: u64, m: usize) -> (ReducedTopology, MeasurementSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = planetlab::generate(
            PlanetLabParams {
                sites: 16,
                core_routers: 6,
                ..PlanetLabParams::default()
            },
            &mut rng,
        );
        let paths = compute_paths(&t.graph, &t.beacons, &t.destinations);
        let red = reduce(&t.graph, &paths);
        let mut scenario =
            CongestionScenario::draw(red.num_links(), 0.1, CongestionDynamics::Fixed, &mut rng);
        let ms = simulate_run(
            &red,
            &mut scenario,
            &ProbeConfig::default(),
            m + 1,
            &mut rng,
        );
        (red, ms)
    }

    #[test]
    fn most_paths_validate_on_clean_simulation() {
        let (red, ms) = tree_measurements(21, 30);
        let mut rng = StdRng::seed_from_u64(22);
        let res = cross_validate(&red, &ms, &CrossValidationConfig::default(), &mut rng).unwrap();
        assert!(res.total > 0);
        assert!(
            res.percent_consistent() >= 80.0,
            "only {:.1}% consistent ({}/{})",
            res.percent_consistent(),
            res.consistent,
            res.total
        );
    }

    #[test]
    fn subsystem_merges_indistinguishable_links() {
        let (red, _) = tree_measurements(23, 3);
        // Using only one path, every link of that path merges into a
        // single group.
        let sub = build_subsystem(&red, &[PathId(0)]);
        assert_eq!(sub.topo.num_links(), 1);
        assert_eq!(sub.groups[0].len(), red.path_links(PathId(0)).len());
    }

    #[test]
    fn result_percentage() {
        let r = CrossValidationResult {
            consistent: 95,
            total: 100,
            inference_links: 50,
        };
        assert_eq!(r.percent_consistent(), 95.0);
        let empty = CrossValidationResult {
            consistent: 0,
            total: 0,
            inference_links: 0,
        };
        assert_eq!(empty.percent_consistent(), 100.0);
    }

    #[test]
    #[should_panic(expected = "at least 3 snapshots")]
    fn too_few_snapshots_panics() {
        let (red, ms) = tree_measurements(25, 1);
        let mut rng = StdRng::seed_from_u64(26);
        let short = MeasurementSet {
            snapshots: ms.snapshots[..2].to_vec(),
        };
        let _ = cross_validate(&red, &short, &CrossValidationConfig::default(), &mut rng);
    }
}
